"""Vertices, distances and balls of the (p+1)-regular lattice-class tree.

A vertex is the homothety class of a locally-free rank-2 lattice.  Every
class has a unique upper-triangular basis [[p^n, c], [0, 1]] with level
n an integer and center c a p-power-denominator rational in [0, p^n).
A vertex stores c as r / p^e in lowest terms: the routines below read and
build the integers (n, r, e) alone, and `center` makes a Fraction on reading.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import List, Tuple, Union

from .errors import ContextMismatchError, SingularMatrixError, ValidationError
from .field import PrimeContext, _coerce, _val_fraction
from .matrices import SL2Matrix, scaled_rows
from .words import check_size, sphere_sizes

DEFAULT_NODE_CAP = 100_000


def _center(b: int, d: int, n: int, p: int) -> Tuple[int, int]:
    """Canonical center r/p^e of b/d at level n, for integers b and d != 0:
    in lowest terms, in [0, p^n) and within valuation n of b/d.  With
    d = p^e q, q prime to p, r is b/q mod p^(n+e) over p^e, reduced."""
    e = _val_fraction(d, p)
    if b == 0 or n + e <= 0:  # then v(b/d) >= -e >= n
        return 0, 0
    modulus = p ** (n + e)
    r = b * _inverse_mod(d // p ** e, p, n + e) % modulus
    k = min(e, _val_fraction(r, p))  # math.inf for r = 0, when k = e
    return (r // p ** k, e - k) if k else (r, e)


def _inverse_mod(q: int, p: int, k: int) -> int:
    """The inverse of q mod p^k, q prime to p and k >= 1, by Newton steps
    x <- x (2 - q x) mod p^j from j = 1, each doubling j as 1 - q x' =
    (1 - q x)^2; pow(q, -1, p**k) is quadratic in the digits of p^k."""
    if k == 1:
        return pow(q, -1, p)
    x, modulus = _inverse_mod(q, p, (k + 1) // 2), p ** k
    return x * (2 - q % modulus * x) % modulus


class TreeVertex(tuple):
    """Canonical lattice-class vertex (level n, center c = r / p^e), the
    immutable tuple (n, r, e, context); equality and hash are the tuple's.
    The constructor canonicalizes c, so TreeVertex(n, c) is total over
    rational c and canonicalization is idempotent."""

    __slots__ = ()
    level = property(itemgetter(0))
    context = property(itemgetter(3))
    center = property(lambda v: Fraction(v[1], v[3].p ** v[2]))

    def __new__(cls, level: int, center, context: PrimeContext):
        if not isinstance(level, int):
            raise ValidationError(f"level must be an integer, got {level!r}")
        c = center if isinstance(center, int) else _coerce(center)
        return _new(cls, (level, *_center(c.numerator, c.denominator, level, context.p),
                          context))

    def __getnewargs__(self):
        return self.level, self.center, self.context

    def text(self) -> str:
        n, r, e, ctx = self
        try:
            return f"({n}; {r}/{ctx.p ** e})" if e else f"({n}; {r})"
        except ValueError:  # Python's 4300-digit limit on int strings
            raise ValidationError("vertex has a number of over 4300 digits") from None

    def __repr__(self):
        return f"TreeVertex{self.text()}@p={self.context.p}"


_new = tuple.__new__  # a TreeVertex from its canonical (n, r, e, context)

_VERTEX_RE = re.compile(
    r"^\(\s*(-?\d+)\s*;\s*(-?\d+(?:/\d+)?)\s*\)$"
)


def parse_vertex(text: str, context: PrimeContext) -> TreeVertex:
    m = _VERTEX_RE.match(text.strip())
    if not m:
        raise ValidationError(f"vertex literal must look like '(n; c)': {text!r}")
    try:
        level, center = int(m.group(1)), Fraction(m.group(2))
    except ZeroDivisionError:
        raise ValidationError(f"zero denominator in vertex {text!r}") from None
    except ValueError:  # Python's 4300-digit limit on int strings
        raise ValidationError(
            "vertex literal has a number of over 4300 digits") from None
    n, p = abs(level), context.p  # p**n is built only if its bit length may fit
    limit = 10 ** 4300  # the least int of over 4300 digits
    if n * (p.bit_length() - 1) >= limit.bit_length() or p ** n >= limit:
        raise ValidationError(f"vertex level {level}: {p}**{n} has over 4300 digits")
    return TreeVertex(level, center, context)


def distance(u: TreeVertex, v: TreeVertex) -> int:
    """Tree distance from the level/center normal form."""
    if u[3] != v[3]:
        raise ContextMismatchError("vertices live in trees of different primes")
    if u == v:
        return 0
    return u[0] + v[0] - 2 * _meet_level(u, v)


def _meet_level(u: TreeVertex, v: TreeVertex) -> int:
    """The lowest level of [u, v]: the lower level, or v(c_u - c_v) if less."""
    (n1, r1, e1, ctx), (n2, r2, e2, _) = u, v
    p, e, m = ctx.p, max(e1, e2), min(n1, n2)
    sep = _val_fraction(r1 * p ** (e - e1) - r2 * p ** (e - e2), p) - e
    return m if sep >= m else sep


def _ancestor(v: TreeVertex, j: int) -> TreeVertex:
    """v's ancestor at level j <= v.level: the center r/p^e taken mod p^j,
    that is r mod p^(j+e) over p^e, still in lowest terms when j + e > 0."""
    _, r, e, ctx = v
    k = j + e
    return _new(TreeVertex, (j, r % ctx.p ** k, e, ctx) if k > 0 else (j, 0, 0, ctx))


def neighbors(v: TreeVertex) -> List[TreeVertex]:
    """The p+1 adjacent vertices: parent first, then children in digit order."""
    n, r, e, ctx = v
    # child centers c + digit p^n = (r + digit p^(n+e)) / p^e; below level
    # 0 a zero center's children are digit / p^-n
    f = e if r else max(0, -n)
    step = ctx.p ** (n + f)
    return [_ancestor(v, n - 1), _new(TreeVertex, (n + 1, r, e, ctx))] + [
        _new(TreeVertex, (n + 1, r + digit * step, f, ctx)) for digit in range(1, ctx.p)]


def _lowered(v: TreeVertex, bottom: int) -> List[TreeVertex]:
    """v and its parents down to level bottom.  At level k the center
    r/p^e is r mod p^(k+e) over p^e: c itself while c < p^k, then reduced
    by one running power of p."""
    n, r, e, ctx = v
    p = ctx.p
    # top: least level with c < p^top, found from min(0, n) as c is
    # canonical (c < p^n); power = p^(top+e), exact when r > 0
    top = min(0, n)
    power = p ** e // p ** -top
    while r and power <= r:
        top, power = top + 1, power * p
    while power // p > r:
        top, power = top - 1, power // p
    top = min(top, n)  # a zero center is canonical at every level
    out = [_new(TreeVertex, (k, r, e, ctx)) for k in range(n, max(top, bottom) - 1, -1)]
    for k in range(top - 1, bottom - 1, -1):
        power //= p
        if r and r >= power:
            r %= power
            e = e if r else 0  # r/p^e stays in lowest terms until it is 0
        out.append(_new(TreeVertex, (k, r, e, ctx)))
    return out


def geodesic(u: TreeVertex, v: TreeVertex) -> List[TreeVertex]:
    """Vertex path from u to v: ascend to the meet level, then descend."""
    d = distance(u, v)
    check_size("geodesic", "vertices", DEFAULT_NODE_CAP, (d + 1,))
    meet = (u[0] + v[0] - d) // 2
    return _lowered(u, meet) + _lowered(v, meet + 1)[::-1]


def _toward(u: TreeVertex, v: TreeVertex, k: int) -> TreeVertex:
    """The vertex at distance k from u on the geodesic [u, v], for
    0 <= k <= d(u, v), without building the path: up to the meet it is
    u's ancestor at level u.level - k, past it v's at the matching level."""
    meet = _meet_level(u, v)
    if k <= u[0] - meet:
        return _ancestor(u, u[0] - k)
    return _ancestor(v, 2 * meet - u[0] + k)


def _span_vertex(a: int, c: int, shift: int, b: int, d: int, vdet: int,
                 context: PrimeContext) -> TreeVertex:
    """Vertex of the lattice spanned by p^shift (a, c) and (b, d), integers
    with v(det) = vdet.  Pivoting on the column of least bottom valuation,
    say (b, d), gives the basis [[det/d^2, b/d], [0, 1]]."""
    p = context.p
    vc, vd = _val_fraction(c, p) + shift, _val_fraction(d, p)
    if vc < vd:
        b, d, vd = a, c, vc
    n = vdet - 2 * vd
    return _new(TreeVertex, (n, *_center(b, d, n, p), context))


def act(g: SL2Matrix, v: TreeVertex) -> TreeVertex:
    """Image vertex under the linear action on lattice classes."""
    n, r, e, ctx = v
    if g.context != ctx:
        raise ContextMismatchError("matrix and vertex primes differ")
    a, b, c, d, den = g.scaled
    p, pe = ctx.p, ctx.p ** e
    # the columns of den g p^e [[p^n, r/p^e], [0, 1]], of det den^2 p^(n+2e)
    return _span_vertex(a, c, n + e, a * r + b * pe, c * r + d * pe,
                        2 * _val_fraction(den, p) + n + 2 * e, ctx)


def canonical_vertex(
    m: Union[SL2Matrix, Tuple], context: PrimeContext = None
) -> TreeVertex:
    """Canonical (level, center) of the lattice spanned by m's columns.

    An SL2Matrix gives act(m, (0; 0)).  A plain matrix may be any
    invertible exact 2x2 array: it is scaled to integers (the class is
    the same) for column operations over the local integers.
    """
    if isinstance(m, SL2Matrix):
        return act(m, _new(TreeVertex, (0, 0, 0, m.context)))
    if context is None:
        raise ValidationError("plain matrix input needs an explicit context")
    a, b, c, d, _ = scaled_rows(m)
    det = a * d - b * c
    if det == 0:
        raise SingularMatrixError("lattice basis must be invertible")
    return _span_vertex(a, c, 0, b, d, _val_fraction(det, context.p), context)


class TreeEdge(tuple):
    """An adjacent vertex pair, the immutable tuple (x, y), oriented as
    discovered; the constructor checks that d(x, y) = 1."""

    __slots__ = ()
    x = property(itemgetter(0))
    y = property(itemgetter(1))

    def __new__(cls, x: TreeVertex, y: TreeVertex):
        if distance(x, y) != 1:
            raise ValidationError("edge endpoints must be at distance 1")
        return _new(cls, (x, y))

    def __getnewargs__(self):
        return tuple(self)


def edge_fixed_by(g: SL2Matrix, e: TreeEdge) -> bool:
    """Pointwise stabilization: both endpoints are fixed."""
    return act(g, e.x) == e.x and act(g, e.y) == e.y


@dataclass(frozen=True)
class TreeBall:
    center: TreeVertex
    radius: int
    vertices: Tuple[TreeVertex, ...]
    edges: Tuple[TreeEdge, ...]


def ball_vertex_count(p: int, radius: int) -> int:
    """1 + (p+1)(p^R - 1)/(p - 1): the vertex count of a radius-R ball."""
    if radius <= 0:
        return 1
    return 1 + (p + 1) * (p ** radius - 1) // (p - 1)


def tree_ball(
    center: TreeVertex, radius: int, max_nodes: int = DEFAULT_NODE_CAP
) -> TreeBall:
    """Breadth-first ball with deterministic vertex and edge order."""
    if radius < 0:
        raise ValidationError("radius must be >= 0")
    check_size("ball", "vertices", max_nodes,
               sphere_sizes(center.context.p + 1, radius))
    # (vertex, parent) pairs: in a tree every neighbour but the parent is new
    vertices, edges, frontier = [center], [], [(center, None)]
    for _ in range(radius):
        frontier = [(w, u) for u, up in frontier for w in neighbors(u) if w != up]
        vertices.extend(w for w, _ in frontier)
        edges.extend(_new(TreeEdge, (u, w)) for w, u in frontier)
    return TreeBall(center, radius, tuple(vertices), tuple(edges))
