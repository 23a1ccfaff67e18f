"""Shared builders for the test suite.

Random objects are always drawn from an explicitly seeded random.Random so
every run sees the same corpus.
"""

from fractions import Fraction

from sl2trees import PrimeContext, Presentation, Representation, SL2Matrix


def random_integral_sl2(rng, ctx, steps=4, coeff=3):
    """Product of integral elementary matrices: det 1, all entries in Z_(p)."""
    m = SL2Matrix.identity(ctx)
    for _ in range(steps):
        x = rng.randint(-coeff, coeff)
        if rng.random() < 0.5:
            m = m * SL2Matrix(((1, x), (0, 1)), ctx)
        else:
            m = m * SL2Matrix(((1, 0), (x, 1)), ctx)
    return m


def random_sl2(rng, ctx, steps=4, vrange=2, coeff=3):
    """Random det-1 matrix with p-power denominators.

    Built as a product of elementary matrices with p-scaled off-diagonal
    entries and diagonal p-power matrices, so determinants stay exactly 1.
    """
    p = ctx.p
    m = SL2Matrix.identity(ctx)
    for _ in range(steps):
        kind = rng.randrange(3)
        if kind == 2:
            k = rng.randint(-vrange, vrange)
            e = SL2Matrix(((Fraction(p) ** k, 0), (0, Fraction(p) ** -k)), ctx)
        else:
            x = Fraction(rng.randint(-coeff, coeff)) * Fraction(p) ** rng.randint(-vrange, vrange)
            if kind == 0:
                e = SL2Matrix(((1, x), (0, 1)), ctx)
            else:
                e = SL2Matrix(((1, 0), (x, 1)), ctx)
        m = m * e
    return m


def random_sl2_bounded_valuations(rng, ctx, bound=3, steps=4):
    """Random det-1 matrix whose nonzero entries all have valuation in [-bound, bound]."""
    while True:
        m = random_sl2(rng, ctx, steps=steps, vrange=1)
        vals = [ctx.valuation(x) for x in (m.a, m.b, m.c, m.d) if x != 0]
        if all(-bound <= v <= bound for v in vals):
            return m


def random_noncommuting_pair(rng, ctx, steps=4, vrange=2, coeff=3):
    """Random det-1 pair with nonabelian image.

    Commuting draws (for instance when a product collapses to the identity)
    are redrawn: the trace dichotomies under test assume a nonabelian image,
    and the abelian families have their own explicit tests.
    """
    while True:
        a = random_sl2(rng, ctx, steps=steps, vrange=vrange, coeff=coeff)
        b = random_sl2(rng, ctx, steps=steps, vrange=vrange, coeff=coeff)
        if a * b != b * a:
            return a, b


def free2_rep(ctx, a, b):
    return Representation(Presentation.free(2), {"a": a, "b": b})


def sl2z_pair(ctx):
    """The classic integral pair: a = [[1,1],[0,1]], b = [[1,0],[1,1]]."""
    a = SL2Matrix(((1, 1), (0, 1)), ctx)
    b = SL2Matrix(((1, 0), (1, 1)), ctx)
    return free2_rep(ctx, a, b)


def diag_rep(ctx, k=1):
    """Unbounded reducible pair sharing the line (1, 0)."""
    p = Fraction(ctx.p)
    a = SL2Matrix(((p ** k, 1), (0, p ** -k)), ctx)
    b = SL2Matrix(((p ** -k, 0), (0, p ** k)), ctx)
    return free2_rep(ctx, a, b)


def unbounded_irreducible_rep(ctx):
    """Unbounded pair with no common eigenline."""
    p = Fraction(ctx.p)
    a = SL2Matrix(((p, 0), (0, 1 / p)), ctx)
    b = SL2Matrix(((1, 1), (1, 2)), ctx)
    return free2_rep(ctx, a, b)


def big_denominator_rep():
    """a = [[0, -1/N], [N, 0]] and b = [[0, -N], [1/N, 0]] at p = 3, with
    N = 3^400: a word of length L has denominator valuation up to 400 L,
    and the integer trace often holds as many factors of 3."""
    ctx = PrimeContext(3)
    n = 3 ** 400
    a = SL2Matrix(((0, Fraction(-1, n)), (n, 0)), ctx)
    b = SL2Matrix(((0, -n), (Fraction(1, n), 0)), ctx)
    return free2_rep(ctx, a, b)
