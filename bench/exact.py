"""Plain exact arithmetic the benchmark uses to build inputs and check outputs.

Nothing here imports sl2trees: inputs are generated and outputs are
re-derived by a route independent of the library under test.  A matrix
is a 4-tuple (a, b, c, d) of Fractions for [[a, b], [c, d]].
"""

from __future__ import annotations

import math
from fractions import Fraction

ONE = Fraction(1)
ZERO = Fraction(0)
IDENTITY = (ONE, ZERO, ZERO, ONE)


def mat(a, b, c, d):
    return (Fraction(a), Fraction(b), Fraction(c), Fraction(d))


def mul(m, n):
    a, b, c, d = m
    e, f, g, h = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def det(m):
    return m[0] * m[3] - m[1] * m[2]


def inv(m):
    """Inverse of an invertible matrix (the adjugate when det = 1)."""
    a, b, c, d = m
    dt = a * d - b * c
    return (d / dt, -b / dt, -c / dt, a / dt)


def conj(h, m):
    """h m h^-1."""
    return mul(mul(h, m), inv(h))


def power(m, k):
    if k < 0:
        return power(inv(m), -k)
    out = IDENTITY
    for _ in range(k):
        out = mul(out, m)
    return out


def trace(m):
    return m[0] + m[3]


def word_matrix(letters, gens):
    """Image of a word (signed 1-based letters) under the generator list."""
    out = IDENTITY
    for x in letters:
        g = gens[abs(x) - 1]
        out = mul(out, g if x > 0 else inv(g))
    return out


def val(q, p):
    """p-adic valuation of a rational; math.inf for 0."""
    q = Fraction(q)
    if q == 0:
        return math.inf
    v, num, den = 0, q.numerator, q.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def length(m, p):
    """Translation length on the tree: -2 min(0, v(tr m))."""
    v = val(trace(m), p)
    return 0 if v >= 0 else -2 * v


def is_integral(m, p):
    return all(val(x, p) >= 0 for x in m)


def vertex_basis(level, center, p):
    """Lattice basis [[p^n, c], [0, 1]] of the vertex (n; c)."""
    return (Fraction(p) ** level, Fraction(center), ZERO, ONE)


def class_distance(basis_u, basis_v, p):
    """Tree distance between the lattice classes spanned by two bases.

    Elementary divisors of N = B_u^-1 B_v: v(det N) - 2 min v(N_ij).
    """
    n = mul(inv(basis_u), basis_v)
    return val(det(n), p) - 2 * min(val(x, p) for x in n)


def eigenline(m, line):
    """Whether the projective line (x : y) is mapped to itself by m."""
    x, y = line
    ix = m[0] * x + m[1] * y
    iy = m[2] * x + m[3] * y
    return ix * y == iy * x


def rational_square(q):
    q = Fraction(q)
    if q < 0:
        return False
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return rn * rn == q.numerator and rd * rd == q.denominator


def ball_size(rank, max_len):
    """Reduced words of length <= max_len in a free group of this rank."""
    k = 2 * rank - 1
    return 1 + 2 * rank * (k ** max_len - 1) // (k - 1)


def random_reduced(rng, rank, n, cyclic=False):
    """Seeded freely reduced word of length n (cyclically reduced if asked)."""
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    while True:
        letters = []
        while len(letters) < n:
            x = rng.choice(alphabet)
            if not letters or letters[-1] != -x:
                letters.append(x)
        if not cyclic or n < 2 or letters[0] != -letters[-1]:
            return tuple(letters)


def random_integral(rng, steps=3, coeff=3):
    """Alternating upper and lower elementary matrices with nonzero seeded
    entries: det 1, integer entries of a size that depends little on the seed."""
    m = IDENTITY
    for k in range(steps):
        x = rng.choice([s * q for q in range(1, coeff + 1) for s in (1, -1)])
        m = mul(m, mat(1, x, 0, 1) if k % 2 == 0 else mat(1, 0, x, 1))
    return m


def random_conjugator(rng, p, k):
    """Seeded det-1 matrix with denominators p^k, away from SL2(Z_p)."""
    diag = mat(Fraction(p) ** k, 0, 0, Fraction(1, p) ** k)
    return mul(mul(random_integral(rng, 2, 2), diag), random_integral(rng, 2, 2))
