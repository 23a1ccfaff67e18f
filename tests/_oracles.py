"""Independent oracles used by the test suite.

These deliberately avoid the library's own code paths where the point is to
cross-check a formula: tree vertices are integer triples, displacements come
from elementary-divisor valuations computed on raw integers, the p-adic
square test is a residue-table lookup, lattice saturation spans vectors
of Fractions, and distances and eigenlines have Fraction routes of their
own.  An axis window is grown one translate at a time from the library's
own tree moves, to check that it is one geodesic.
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


def reduce_center(c, n, p):
    """c modulo p^n times the local integers, as the representative in
    Z[1/p] and in [0, p^n), on Fractions."""
    if c == 0 or val_fraction(c, p) >= n:
        return Fraction(0)
    k = max(0, -val_fraction(c, p))
    modulus = p ** (n + k)
    q = c.denominator // p ** k
    return Fraction(c.numerator * pow(q, -1, modulus) % modulus, p ** k)


def canonical_fraction(rows, p):
    """(level, center) of the lattice spanned by the columns of a 2x2
    matrix of Fractions: the column with the lower bottom valuation is the
    pivot, the other column is cleared against it, and both are scaled by
    the pivot's bottom entry, all in Fraction arithmetic."""
    (a, b), (c, d) = rows
    if val_fraction(c, p) < val_fraction(d, p):
        a, b, c, d = b, a, d, c
    n = val_fraction((a - (c / d) * b) / d, p)
    return n, reduce_center(b / d, n, p)


def act_fraction(g_rows, level, center, p):
    """(level, center) of g times the vertex basis [[p^n, c], [0, 1]]."""
    (a, b), (c, d) = g_rows
    e, f = Fraction(p) ** level, center
    return canonical_fraction(((a * e, a * f + b), (c * e, c * f + d)), p)


def mul2(m, n):
    """Product of 2x2 matrices given as rows."""
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def inv2(m):
    """Inverse of an invertible 2x2 matrix given as rows of Fractions."""
    (a, b), (c, d) = m
    det = a * d - b * c
    return ((d / det, -b / det), (-c / det, a / det))


def bounded_by_all_subsets(rows, p):
    """Boundedness by the trace of every increasing product of distinct
    generators (rows of Fractions), shortest first, then lexicographic:
    (True, None), or (False, the first product whose trace has negative
    valuation)."""
    for k in range(1, len(rows) + 1):
        for s in itertools.combinations(range(1, len(rows) + 1), k):
            m = rows[s[0] - 1]
            for i in s[1:]:
                m = mul2(m, rows[i - 1])
            if val_fraction(m[0][0] + m[1][1], p) < 0:
                return False, s
    return True, None


def vertex_basis(v):
    """Upper-triangular lattice basis [[p^n, c], [0, 1]] of a TreeVertex."""
    return ((Fraction(v.context.p) ** v.level, v.center), (Fraction(0), Fraction(1)))


def distance_via_matrices(u, v):
    """Tree distance of two TreeVertex objects, read off the elementary
    divisors of the change of basis N = M_u^-1 M_v: v(det N) minus twice
    the least entry valuation of N, all in Fractions."""
    p = u.context.p
    (a, b), (c, d) = mul2(inv2(vertex_basis(u)), vertex_basis(v))
    return val_fraction(a * d - b * c, p) - 2 * min(
        val_fraction(x, p) for x in (a, b, c, d))


def _normalize_line(x, y):
    """A projective point of Fractions as a coprime integer pair, its
    leading nonzero entry positive."""
    scale = math.lcm(x.denominator, y.denominator)
    xi, yi = int(x * scale), int(y * scale)
    g = math.gcd(xi, yi)
    xi, yi = xi // g, yi // g
    return (-xi, -yi) if (xi if xi else yi) < 0 else (xi, yi)


def _rational_sqrt(q):
    if q < 0:
        return None
    rn, rd = math.isqrt(q.numerator), math.isqrt(q.denominator)
    return Fraction(rn, rd) if (rn * rn, rd * rd) == (q.numerator, q.denominator) else None


def _eigenline(rows, lam):
    # (g - lam) has rank 1 here; either row yields the kernel direction
    (a, b), (c, d) = rows
    if b != 0 or lam != a:
        return _normalize_line(b, lam - a)
    return _normalize_line(lam - d, c)


def eigenlines_fraction(rows):
    """(kind, lines) of the rational eigenlines of a determinant-1 matrix
    given as rows of Fractions, with eigenvalues (t +- sqrt(t^2 - 4)) / 2
    in Fractions: "all" for +-I, then "one", "two" (sorted) or "none" as
    the discriminant is zero, a nonzero rational square, or neither."""
    (a, b), (c, d) = rows
    if b == 0 and c == 0 and a == d:
        return ("all", ())
    t = a + d
    if t * t == 4:
        return ("one", (_eigenline(rows, t / 2),))
    root = _rational_sqrt(t * t - 4)
    if root is None:
        return ("none", ())
    return ("two", tuple(sorted((_eigenline(rows, (t + root) / 2),
                                 _eigenline(rows, (t - root) / 2)))))


def lattice_span(vectors, p):
    """(alpha, beta, y): the basis [[p^alpha, y], [0, p^beta]] of the
    local-integer span of Fraction vectors (x, y), y reduced mod p^alpha.
    The pivot has the bottom entry of least valuation; the other vectors'
    tops are cleared against it in Fractions."""
    pivot = min((v for v in vectors if v[1] != 0), key=lambda v: val_fraction(v[1], p))
    beta = val_fraction(pivot[1], p)
    tops = [v[0] - (v[1] / pivot[1]) * pivot[0] for v in vectors if v is not pivot]
    alpha = min(val_fraction(t, p) for t in tops if t != 0)
    y = pivot[0] * Fraction(p) ** beta / pivot[1]
    return alpha, beta, reduce_center(y, alpha, p)


def saturated_lattice(gens, p, max_rounds):
    """Grow the standard lattice by the generators (rows of Fractions) until
    its lattice_span form stops moving: the (level, center) of its class,
    after checking that every generator conjugated by its basis is locally
    integral, or None when the form still moves after max_rounds rounds."""
    form = (0, 0, Fraction(0))
    for _ in range(max_rounds):
        alpha, beta, y = form
        current = [(Fraction(p) ** alpha, Fraction(0)), (y, Fraction(p) ** beta)]
        spanning = current + [(a * x + b * z, c * x + d * z)
                              for (a, b), (c, d) in gens for x, z in current]
        grown = lattice_span(spanning, p)
        if grown == form:
            break
        form = grown
    else:
        return None
    alpha, beta, y = form
    basis = ((Fraction(p) ** alpha, y), (Fraction(0), Fraction(p) ** beta))
    inverse = inv2(basis)
    for m in gens:
        conj = mul2(mul2(inverse, m), basis)
        assert all(val_fraction(x, p) >= 0 for row in conj for x in row)
    return canonical_fraction(basis, p)


def axis_by_legs(g, window):
    """Vertices of axis_segment(g, window) built leg by leg: the projection
    of (0; 0) onto the axis is moved back by g^-1 k times, for the least k
    with 2k >= window, then 2k geodesics [x, gx] are joined end to end."""
    from sl2trees import TreeVertex, act, geodesic, translation_length
    from sl2trees.isometry import _projection

    ell = translation_length(g)
    steps = -(-window // 2)
    start = _projection(g, TreeVertex(0, 0, g.context), ell)
    g_inv = g.inverse()
    for _ in range(steps):
        start = act(g_inv, start)
    path = [start]
    for _ in range(2 * steps):
        path.extend(geodesic(path[-1], act(g, path[-1]))[1:])
    return tuple(path)


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


def inverse_mod_prime_power(q, p, k):
    """The inverse of q mod p^k, from Python's pow."""
    return pow(q, -1, p ** k)


def commutator_words(rank, max_total_len):
    """The words u v u^-1 v^-1 of commutator_trace_scan, in its order: a
    plain double loop over the shortlex ball, enumerated by brute force as
    the letter products with no x x^-1, keeping the pairs with |u| + |v|
    <= max_total_len."""
    alphabet = [s * i for i in range(1, rank + 1) for s in (1, -1)]
    ball = [u for n in range(max_total_len + 1)
            for u in itertools.product(alphabet, repeat=n)
            if all(u[i] != -u[i + 1] for i in range(n - 1))]

    def inv(w):
        return tuple(-x for x in reversed(w))

    return [u + v + inv(u) + inv(v) for u in ball for v in ball
            if len(u) + len(v) <= max_total_len]


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
    its factors sorted by (len, indices): the ring ch_trace computes in, and
    its only user."""

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


def ch_trace(letters, rank):
    """tr(w) by a Cayley-Hamilton pass, as a TuplePoly in the t_S.

    The algebra of rank generic SL2 matrices is spanned over the trace
    ring by the 2^rank increasing products x_S.  The word is multiplied
    onto 1 from its right end, one letter at a time, by
      x_j^2 = t_j x_j - 1,
      x_j x_i = -x_i x_j + t_i x_j + t_j x_i + t_ij - t_i t_j  (i < j),
      x_j' = t_j - x_j,
    and tr x_S = t_S, tr 1 = 2 close the pass.  No coefficient of x_j x_S
    holds a t_T with |T| >= 3, so at rank 3 the result is linear in t123.
    """
    assert all(1 <= abs(x) <= rank for x in letters)

    def const(c):
        return TuplePoly({(): c})

    def t(*s):
        return TuplePoly({(tuple(sorted(s)),): 1})

    def add(acc, s, c):
        acc[s] = acc.get(s, const(0)) + c

    def times(j, s):
        """x_j x_S as {T: coefficient}."""
        if not s or j < s[0]:
            return {(j,) + s: const(1)}
        i, rest = s[0], s[1:]
        if j == i:
            return {s: t(j), rest: const(-1)}
        out = {s: t(j), rest: t(i, j) - t(i) * t(j)}
        for u, c in times(j, rest).items():
            add(out, (i,) + u, c * const(-1))  # every index of u exceeds i
            add(out, u, c * t(i))
        return out

    elem = {(): const(1)}
    for x in reversed(letters):
        j, sign, step = abs(x), (1 if x > 0 else -1), {}
        for s, c in elem.items():
            if x < 0:
                add(step, s, c * t(j))
            for u, d in times(j, s).items():
                add(step, u, c * d * const(sign))
        elem = step
    total = const(0)
    for s, c in elem.items():
        total = total + c * (t(*s) if s else const(2))
    return total
