"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths where the point is to
cross-check a formula: tree vertices are integer triples, displacements come
from elementary-divisor valuations computed on raw integers, and the p-adic
square test is a residue-table lookup.
"""

import itertools
import math
from fractions import Fraction


def val_int(n, p):
    if n == 0:
        return math.inf
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def val_fraction(q, p):
    if q == 0:
        return math.inf
    return val_int(q.numerator, p) - val_int(q.denominator, p)


# A vertex is (n, r, k): level n, center r / p**k with k minimal and
# 0 <= r < p**(n + k).


def normalize_triple(n, r, k, p):
    if r == 0:
        return (n, 0, 0)
    while k > 0 and r % p == 0:
        r //= p
        k -= 1
    return (n, r, k)


def vertex_key(level, center, p):
    num, den = center.numerator, center.denominator
    k = val_int(den, p) if den > 1 else 0
    if den != p ** k:
        raise ValueError("center denominator is not a p power")
    return normalize_triple(level, num, k, p)


def children(v, p):
    # new centers are r/p^k + d*p^n; lift k so both exponents stay >= 0
    n, r, k = v
    k2 = max(k, -n)
    r2 = r * p ** (k2 - k)
    step = p ** (n + k2)
    return [normalize_triple(n + 1, r2 + d * step, k2, p) for d in range(p)]


def parent(v, p):
    # center reduced mod p^(n-1)
    n, r, k = v
    k2 = max(k, 1 - n)
    r2 = (r * p ** (k2 - k)) % p ** (n - 1 + k2)
    return normalize_triple(n - 1, r2, k2, p)


def ball_vertices(center, radius, p):
    seen = {center}
    frontier = [center]
    for _ in range(radius):
        nxt = []
        for v in frontier:
            for w in children(v, p) + [parent(v, p)]:
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return seen


def displacement(v, g_num, den, p):
    """d(v, g v) for g = g_num / den with det g = 1, computed on integers.

    Conjugates the integer matrix by the vertex basis [[p^n, r/p^k], [0, 1]]
    and reads off -2 times the minimum entry valuation.
    """
    n, r, k = v
    a, b, c, d = g_num
    pk = p ** k
    e11 = a * pk - c * r
    e12 = a * r * pk + b * pk * pk - c * r * r - d * r * pk
    e22 = c * r + d * pk
    vals = []
    if e11:
        vals.append(val_int(e11, p) - k)
    if e12:
        vals.append(val_int(e12, p) - (2 * k + n))
    if c:
        vals.append(val_int(c, p) + n)
    if e22:
        vals.append(val_int(e22, p) - k)
    return -2 * (min(vals) - val_int(den, p))


def graph_distance(adjacency, start, goal):
    if start == goal:
        return 0
    seen = {start}
    frontier = [start]
    dist = 0
    while frontier:
        dist += 1
        nxt = []
        for v in frontier:
            for w in adjacency[v]:
                if w == goal:
                    return dist
                if w not in seen:
                    seen.add(w)
                    nxt.append(w)
        frontier = nxt
    return None


def padic_square_table(x, p):
    """Brute residue-table p-adic square test for rational x."""
    if x == 0:
        return True
    v = val_fraction(x, p)
    if v % 2 != 0:
        return False
    unit = x / Fraction(p) ** v
    m = p ** 3 if p != 2 else 32
    residue = unit.numerator * pow(unit.denominator, -1, m) % m
    squares = {y * y % m for y in range(m) if math.gcd(y, p) == 1}
    return residue in squares


def fraction_fold(letters, gens):
    """Image of a word as a left fold of plain Fraction 2x2 products.

    gens[i - 1] holds the rows of generator i; letter -i takes the
    adjugate, the inverse of a determinant-1 matrix.
    """
    (a, b), (c, d) = (Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))
    for x in letters:
        (e, f), (g, h) = gens[abs(x) - 1]
        if x < 0:
            e, f, g, h = h, -f, -g, e
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return ((a, b), (c, d))


class TuplePoly:
    """Integer polynomial keyed by tuples of variable tuples, each monomial
    its factors sorted by (len, indices): the plain representation the
    packed-monomial TracePolynomial must agree with."""

    def __init__(self, terms):
        self.terms = {m: c for m, c in terms.items() if c}

    def _combine(self, other, sign):
        out = dict(self.terms)
        for m, c in other.terms.items():
            out[m] = out.get(m, 0) + sign * c
        return TuplePoly(out)

    def __add__(self, other):
        return self._combine(other, 1)

    def __sub__(self, other):
        return self._combine(other, -1)

    def __mul__(self, other):
        out = {}
        for m1, c1 in self.terms.items():
            for m2, c2 in other.terms.items():
                m = tuple(sorted(m1 + m2, key=lambda v: (len(v), v)))
                out[m] = out.get(m, 0) + c1 * c2
        return TuplePoly(out)

    def text(self):
        """Terms by degree, then factor order, the constant last."""
        def name(v, e):
            return "t" + "".join(map(str, v)) + (f"^{e}" if e > 1 else "")

        ordered = sorted((m for m in self.terms if m),
                         key=lambda m: (len(m), [(len(v), v) for v in m]))
        ordered += [()] if () in self.terms else []
        out = ""
        for m in ordered:
            c = self.terms[m]
            body = "*".join(name(v, len(list(g))) for v, g in itertools.groupby(m))
            body = (f"{abs(c)}*{body}" if abs(c) != 1 else body) if m else str(abs(c))
            sign = ("-" if c < 0 else "") if not out else (" - " if c < 0 else " + ")
            out += sign + body
        return out or "0"
