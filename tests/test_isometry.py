import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2trees import (
    CapExceededError,
    NotEllipticError,
    NotHyperbolicError,
    PrimeContext,
    SL2Matrix,
    TreeVertex,
    act,
    axis_segment,
    classify,
    distance,
    fixed_vertex,
    parse_word,
    rational_eigenlines,
    translation_length,
)

from sl2trees.isometry import _projection

from _oracles import axis_by_legs, eigenlines_fraction
from conftest import (
    random_integral_sl2, random_sl2, sl2z_pair, unbounded_irreducible_rep)

CTX = PrimeContext(3)


def diag(k, ctx=CTX):
    p = Fraction(ctx.p)
    return SL2Matrix(((p ** k, 0), (0, p ** -k)), ctx)


# -- translation length --------------------------------------------------


def test_translation_length_frozen():
    assert translation_length(diag(1)) == 2
    assert translation_length(diag(2)) == 4
    assert translation_length(diag(-1)) == 2
    assert translation_length(SL2Matrix(((1, 1), (0, 1)), CTX)) == 0
    assert translation_length(SL2Matrix(((0, 1), (-1, 0)), CTX)) == 0
    assert translation_length(SL2Matrix(((3, 3), (0, Fraction(1, 3))), CTX)) == 2
    assert translation_length(SL2Matrix.identity(CTX)) == 0


def test_translation_length_conjugation_invariant():
    rng = random.Random(3301)
    for _ in range(100):
        g = random_sl2(rng, CTX)
        h = random_sl2(rng, CTX)
        assert translation_length(g.conjugated_by(h)) == translation_length(g)
        assert translation_length(g.inverse()) == translation_length(g)


def test_translation_length_powers():
    # hyperbolic elements translate linearly in the exponent
    rng = random.Random(3302)
    for _ in range(40):
        g = diag(rng.randint(1, 3)).conjugated_by(random_sl2(rng, CTX))
        l = translation_length(g)
        for k in (2, 3):
            assert translation_length(g ** k) == k * l


def test_displacement_lower_bound():
    # every vertex moves at least l(g); axis vertices move exactly l(g)
    rng = random.Random(3304)
    for _ in range(40):
        g = random_sl2(rng, CTX, steps=3)
        l = translation_length(g)
        for _ in range(10):
            n = rng.randint(-2, 2)
            c = Fraction(rng.randint(-30, 30), 3 ** rng.randint(0, 2))
            v = TreeVertex(n, c, CTX)
            assert distance(v, act(g, v)) >= l


# -- fixed vertices ------------------------------------------------------


def test_fixed_vertex_frozen():
    assert fixed_vertex(SL2Matrix(((1, 1), (0, 1)), CTX)) == TreeVertex(0, 0, CTX)
    assert fixed_vertex(SL2Matrix(((0, 1), (-1, 0)), CTX)) == TreeVertex(0, 0, CTX)


def test_fixed_vertex_is_fixed():
    rng = random.Random(3305)
    found_far = 0
    for _ in range(100):
        g0 = random_integral_sl2(rng, CTX)
        h = random_sl2(rng, CTX, steps=3)
        g = g0.conjugated_by(h)
        assert translation_length(g) == 0
        v = fixed_vertex(g)
        assert act(g, v) == v
        if v != TreeVertex(0, 0, CTX):
            found_far += 1
    # the corpus must exercise fixed points away from the origin
    assert found_far > 10


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7)), rng=st.randoms(use_true_random=False))
def test_projection_is_the_midpoint_to_the_fixed_subtree(p, rng):
    # Serre, Trees, I.6.4-6.5: for elliptic g, d(x, gx) = 2 d(x, Fix g),
    # so the midpoint of [x, gx] is the fixed vertex nearest x
    ctx = PrimeContext(p)
    sign = rng.choice((-1, 1))
    shift = Fraction(rng.randint(-9, 9), p ** rng.randint(0, 3))
    g0 = rng.choice((
        random_integral_sl2(rng, ctx),
        SL2Matrix(((sign, 0), (0, sign)), ctx),
        SL2Matrix(((sign, shift), (0, sign)), ctx),
    ))
    g = g0.conjugated_by(random_sl2(rng, ctx, steps=rng.randint(1, 6)))
    x = TreeVertex(rng.randint(-6, 6),
                   Fraction(rng.randint(-10**4, 10**4), p ** rng.randint(0, 6)), ctx)
    y = _projection(g, x)
    assert act(g, y) == y
    assert distance(x, act(g, x)) == 2 * distance(x, y)


def test_far_fixed_vertex_and_axis():
    # one projection each, with no path built, so the geodesic cap does
    # not apply: (0; 0) and its image are over 100000 vertices apart
    ctx = PrimeContext(2)
    h = SL2Matrix(((Fraction(2) ** 26000, 0), (0, Fraction(2) ** -26000)), ctx)
    rep = sl2z_pair(ctx).conjugated_by(h)
    lattice = classify(rep).fixed_lattice
    assert lattice == act(h, TreeVertex(0, 0, ctx)) and lattice.level == 52000
    assert fixed_vertex(rep.matrix("b")) == lattice
    ctx = PrimeContext(3)
    u = SL2Matrix(((1, Fraction(1, 3 ** 60000)), (0, 1)), ctx)
    g = SL2Matrix(((3, 0), (0, Fraction(1, 3))), ctx).conjugated_by(u)
    seg = axis_segment(g, 2)
    assert seg.shift == 2
    assert [v.level for v in seg.vertices] == list(range(-60002, -59997))
    for a, b in zip(seg.vertices, seg.vertices[1:]):
        assert distance(a, b) == 1
    for v, w in zip(seg.vertices, seg.vertices[2:]):
        assert act(g, v) == w


def test_fixed_vertex_rejects_hyperbolic():
    with pytest.raises(NotEllipticError):
        fixed_vertex(diag(1))


# -- axes ----------------------------------------------------------------


def test_axis_frozen_spine():
    seg = axis_segment(diag(1))
    assert seg.shift == 2
    assert [v.text() for v in seg.vertices] == [
        "(-2; 0)", "(-1; 0)", "(0; 0)", "(1; 0)", "(2; 0)"]


def test_axis_properties():
    rng = random.Random(3306)
    for _ in range(50):
        g = diag(rng.randint(1, 2)).conjugated_by(random_sl2(rng, CTX, steps=3))
        l = translation_length(g)
        window = rng.choice([1, 2, 3])
        seg = axis_segment(g, window=window)
        assert seg.shift == l
        steps = math.ceil(window / 2)
        assert len(seg.vertices) == 2 * steps * l + 1
        for a, b in zip(seg.vertices, seg.vertices[1:]):
            assert distance(a, b) == 1
        for i, v in enumerate(seg.vertices):
            assert distance(v, act(g, v)) == l
            if i + l < len(seg.vertices):
                assert act(g, v) == seg.vertices[i + l]


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from((2, 3, 5, 7)), k=st.integers(1, 3),
       window=st.integers(1, 7), rng=st.randoms(use_true_random=False))
def test_axis_is_the_leg_by_leg_window(p, k, window, rng):
    # g^-s x and g^s x lie on the axis, so the geodesic between them is
    # the 2s legs [g^i x, g^(i+1) x] joined end to end (Serre, Trees, I.6.4)
    ctx = PrimeContext(p)
    g = diag(k, ctx).conjugated_by(random_sl2(rng, ctx, steps=rng.randint(1, 5)))
    if rng.random() < 0.5:
        g = g * random_sl2(rng, ctx, steps=2)
    if translation_length(g) == 0:
        return
    assert axis_segment(g, window).vertices == axis_by_legs(g, window)


def test_far_axis_window_is_fast():
    # translating the projection step by step took 81.6 s here
    rep = unbounded_irreducible_rep(PrimeContext(3))
    g = rep.evaluate(parse_word("b a", rep.presentation))
    start = time.perf_counter()
    seg = axis_segment(g, 8000)
    assert time.perf_counter() - start < 2.0
    assert seg.shift == 2
    assert len(seg.vertices) == 16_001
    for i in range(0, 15_999, 1231):
        assert act(g, seg.vertices[i]) == seg.vertices[i + 2]
        assert distance(seg.vertices[i], seg.vertices[i + 1]) == 1


def test_long_axis_window_is_linear():
    # 40001 vertices whose centers grow along the window: one running power
    # of p reduces them (0.4-0.8 s on a 2-core host); recomputing p^(k+e)
    # at each reduction took 2.1-3.3 s there
    rep = unbounded_irreducible_rep(PrimeContext(3))
    g = rep.evaluate(parse_word("b a", rep.presentation))
    start = time.perf_counter()
    seg = axis_segment(g, 20_000)
    assert time.perf_counter() - start < 1.2
    assert len(seg.vertices) == 40_001
    assert act(g, seg.vertices[20_000]) == seg.vertices[20_002]


def test_axis_segment_cap():
    # 2 * ceil(window / 2) * shift + 1 vertices, refused before any is built
    for window, count in ((50_000, 100_001), (10**9, 2_000_000_001)):
        with pytest.raises(CapExceededError, match=f"^axis segment would hold "
                           f"{count} vertices, cap is 100000$"):
            axis_segment(diag(1), window)


def test_axis_rejects_elliptic():
    with pytest.raises(NotHyperbolicError):
        axis_segment(SL2Matrix(((1, 1), (0, 1)), CTX))


# -- eigenlines ----------------------------------------------------------


def test_eigenlines_frozen():
    assert rational_eigenlines(diag(1)) == ("two", ((0, 1), (1, 0)))
    assert rational_eigenlines(SL2Matrix(((1, 1), (0, 1)), CTX)) == ("one", ((1, 0),))
    assert rational_eigenlines(SL2Matrix(((0, 1), (-1, 0)), CTX)) == ("none", ())
    assert rational_eigenlines(SL2Matrix.identity(CTX)) == ("all", ())
    assert rational_eigenlines(-SL2Matrix.identity(CTX)) == ("all", ())
    h = SL2Matrix(((1, 1), (0, 1)), CTX)
    assert rational_eigenlines(diag(1).conjugated_by(h)).lines == ((1, 0), (1, 1))
    # trace 6 has discriminant 32, not a rational square
    assert rational_eigenlines(SL2Matrix(((3, 4), (2, 3)), CTX)).kind == "none"


def test_eigenlines_are_invariant_and_normalized():
    rng = random.Random(3307)
    for _ in range(120):
        g = random_sl2(rng, CTX, steps=3)
        kind, lines = rational_eigenlines(g)
        assert kind in {"none", "one", "two", "all"}
        assert len(lines) == {"none": 0, "one": 1, "two": 2, "all": 0}[kind]
        for (x, y) in lines:
            assert isinstance(x, int) and isinstance(y, int)
            assert math.gcd(x, y) == 1
            assert (x, y) > (0, 0) if x == 0 else x > 0
            # image of the line stays on the line
            ix = g.a * x + g.b * y
            iy = g.c * x + g.d * y
            assert ix * y == iy * x
        if kind == "two":
            assert lines == tuple(sorted(lines))
        disc = g.trace() * g.trace() - 4
        if kind in {"one", "two"} and disc != 0:
            # rational square discriminants are squares in the completion too
            assert CTX.is_square(disc)
        if kind == "none" and not g.is_central():
            # not a rational square: negative, or the reduced numerator or
            # denominator is not a perfect square
            assert disc < 0 or any(math.isqrt(n) ** 2 != n
                                   for n in (disc.numerator, disc.denominator))


def eigen_corpus(rng, ctx):
    """One matrix of each family, conjugated by h with entry denominators
    p^k q (q prime to p): a diagonal with rational eigenvalues, a
    parabolic, +-I, an order-3, -4 or -6 elliptic and a random product,
    whose discriminant is rarely a square."""
    p = ctx.p
    q = rng.choice((1, 11, 13))
    x = Fraction(rng.choice((-1, 1)) * rng.randint(1, 40), p ** rng.randint(0, 3) * q)
    h = random_sl2(rng, ctx, steps=3) * SL2Matrix(((1, 0), (x, 1)), ctx)
    lam = Fraction(rng.choice((-1, 1)) * rng.randint(2, 9 * p), rng.choice((1, p, q, 7)))
    sign = rng.choice((-1, 1))
    family = (
        SL2Matrix(((lam, 0), (0, 1 / lam)), ctx),
        SL2Matrix(((sign, x), (0, sign)), ctx),
        SL2Matrix(((sign, 0), (0, sign)), ctx),
        SL2Matrix(((0, -1), (1, rng.choice((-1, 0, 1)))), ctx),
        random_sl2(rng, ctx, steps=4),
    )
    return [g.conjugated_by(h) for g in family]


def test_eigenlines_match_the_fraction_oracle():
    rng = random.Random(3310)
    kinds = {}
    for p in (2, 3, 5, 7):
        ctx = PrimeContext(p)
        for _ in range(110):
            for g in eigen_corpus(rng, ctx):
                got = rational_eigenlines(g)
                assert got == eigenlines_fraction(g.rows())
                kinds[got.kind] = kinds.get(got.kind, 0) + 1
    assert sum(kinds.values()) >= 2000
    assert min(kinds[k] for k in ("all", "one", "two", "none")) >= 200
