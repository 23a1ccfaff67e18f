"""Vertices, distances and balls of the (p+1)-regular lattice-class tree.

A vertex is the homothety class of a locally-free rank-2 lattice.  Every
class has a unique upper-triangular basis [[p^n, c], [0, 1]] with level
n an integer and center c a p-power-denominator rational in [0, p^n);
that pair is the canonical vertex datum used everywhere below.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple, Union

from .errors import ContextMismatchError, SingularMatrixError, ValidationError
from .field import PrimeContext, _coerce, _val_fraction
from .matrices import SL2Matrix
from .words import check_size, sphere_sizes

DEFAULT_NODE_CAP = 100_000


def _center(b: int, d: int, n: int, p: int) -> Fraction:
    """Canonical center of b/d at level n, for integers b and d != 0: the
    rational in Z[1/p] and [0, p^n) whose difference from b/d has valuation
    >= n.  With d = p^e q, q prime to p, it is b/q mod p^(n+e), over p^e."""
    e = _val_fraction(d, p)
    if b == 0 or n + e <= 0:  # then v(b/d) >= -e >= n
        return Fraction(0)
    pe, modulus = p ** e, p ** (n + e)
    return Fraction(b * pow(d // pe, -1, modulus) % modulus, pe)


def _trusted(cls, *values):
    """A frozen dataclass instance whose invariant holds by construction."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


@dataclass(frozen=True)
class TreeVertex:
    """Canonical lattice-class vertex (level n, center c).

    The constructor canonicalizes the center, so TreeVertex(n, c) is
    total over rational c and canonicalization is idempotent.
    """

    level: int
    center: Fraction
    context: PrimeContext

    def __init__(self, level: int, center, context: PrimeContext):
        if not isinstance(level, int):
            raise ValidationError(f"level must be an integer, got {level!r}")
        c = _coerce(center)  # fields set as in _trusted, past the frozen guard
        self.__dict__.update(level=level, context=context,
                             center=_center(c.numerator, c.denominator, level, context.p))

    def text(self) -> str:
        try:
            return f"({self.level}; {self.center})"
        except ValueError:  # Python's 4300-digit limit on int strings
            raise ValidationError("vertex has a number of over 4300 digits") from None

    def __repr__(self):
        return f"TreeVertex{self.text()}@p={self.context.p}"


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


def _require_same_context(u: TreeVertex, v: TreeVertex):
    if u.context != v.context:
        raise ContextMismatchError("vertices live in trees of different primes")


def distance(u: TreeVertex, v: TreeVertex) -> int:
    """Tree distance from the level/center normal form."""
    _require_same_context(u, v)
    if u.level == v.level and u.center == v.center:
        return 0
    meet = _meet_level(u, v)
    return u.level + v.level - 2 * meet


def _meet_level(u: TreeVertex, v: TreeVertex) -> int:
    sep = _val_fraction(u.center - v.center, u.context.p)
    m = min(u.level, v.level)
    return m if sep >= m else int(sep)


def neighbors(v: TreeVertex) -> List[TreeVertex]:
    """The p+1 adjacent vertices: parent first, then children in digit order."""
    p, n, ctx = v.context.p, v.level, v.context
    r, pe = v.center.numerator, v.center.denominator
    out = [_trusted(TreeVertex, n - 1, _center(r, pe, n - 1, p), ctx)]
    # child centers c + digit p^n, over the common denominator of c and p^n
    den = pe if n >= 0 else max(pe, p ** -n)
    r, step = r * (den // pe), den * p ** n if n >= 0 else den // p ** -n
    return out + [_trusted(TreeVertex, n + 1, Fraction(r + digit * step, den), ctx)
                  for digit in range(p)]


def _lowered(v: TreeVertex, bottom: int) -> List[TreeVertex]:
    """v and its parents down to level bottom.  At level k the center c =
    r/p^e is r mod p^(k+e) over p^e: c itself while c < p^k, then reduced
    by one running power of p."""
    p, ctx, c = v.context.p, v.context, v.center
    r, pe = c.numerator, c.denominator
    # top: least level with c < p^top, found from min(0, v.level) as c is
    # canonical (c < p^level); power = p^(top+e), exact when r > 0
    top = min(0, v.level)
    power = pe // p ** -top
    while r and power <= r:
        top, power = top + 1, power * p
    while power // p > r:
        top, power = top - 1, power // p
    top = min(top, v.level)  # a zero center is canonical at every level
    out = [_trusted(TreeVertex, k, c, ctx)
           for k in range(v.level, max(top, bottom) - 1, -1)]
    for k in range(top - 1, bottom - 1, -1):
        power //= p
        if r and r >= power:
            r %= power
            c = Fraction(r, pe)
        out.append(_trusted(TreeVertex, k, c, ctx))
    return out


def geodesic(u: TreeVertex, v: TreeVertex) -> List[TreeVertex]:
    """Vertex path from u to v: ascend to the meet level, then descend."""
    d = distance(u, v)
    check_size("geodesic", "vertices", DEFAULT_NODE_CAP, (d + 1,))
    meet = (u.level + v.level - d) // 2
    return _lowered(u, meet) + _lowered(v, meet + 1)[::-1]


def _toward(u: TreeVertex, v: TreeVertex, k: int) -> TreeVertex:
    """The vertex at distance k from u on the geodesic [u, v], for
    0 <= k <= d(u, v), without building the path.  The ancestor of
    (n; c) at level j is (j; c): up to the meet it is u's ancestor
    (u.level - k; u.center), past it v's ancestor at the matching level."""
    meet = _meet_level(u, v)
    if k <= u.level - meet:
        return TreeVertex(u.level - k, u.center, u.context)
    return TreeVertex(2 * meet - u.level + k, v.center, v.context)


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
    return _trusted(TreeVertex, n, _center(b, d, n, p), context)


def act(g: SL2Matrix, v: TreeVertex) -> TreeVertex:
    """Image vertex under the linear action on lattice classes."""
    if g.context != v.context:
        raise ContextMismatchError("matrix and vertex primes differ")
    a, b, c, d, den = g.scaled
    p, n = v.context.p, v.level
    r, pe = v.center.numerator, v.center.denominator
    e = _val_fraction(pe, p)
    # the columns of den g p^e [[p^n, r/p^e], [0, 1]], of det den^2 p^(n+2e)
    return _span_vertex(a, c, n + e, a * r + b * pe, c * r + d * pe,
                        2 * _val_fraction(den, p) + n + 2 * e, v.context)


def canonical_vertex(
    m: Union[SL2Matrix, Tuple], context: PrimeContext = None
) -> TreeVertex:
    """Canonical (level, center) of the lattice spanned by m's columns.

    Accepts any invertible exact 2x2 matrix, scaled to integers (the
    class is the same) for column operations over the local integers.
    """
    if isinstance(m, SL2Matrix):  # its scaled tuple has det den^2
        a, b, c, d, den = m.scaled
        return _span_vertex(a, c, 0, b, d, 2 * _val_fraction(den, m.context.p),
                            m.context)
    if context is None:
        raise ValidationError("plain matrix input needs an explicit context")
    (a0, b0), (c0, d0) = m
    entries = [_coerce(x) for x in (a0, b0, c0, d0)]
    den = math.lcm(*(x.denominator for x in entries))
    a, b, c, d = (x.numerator * (den // x.denominator) for x in entries)
    det = a * d - b * c
    if det == 0:
        raise SingularMatrixError("lattice basis must be invertible")
    return _span_vertex(a, c, 0, b, d, _val_fraction(det, context.p), context)


@dataclass(frozen=True)
class TreeEdge:
    """An adjacent vertex pair, oriented as discovered."""

    x: TreeVertex
    y: TreeVertex

    def __post_init__(self):
        if distance(self.x, self.y) != 1:
            raise ValidationError("edge endpoints must be at distance 1")


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
        edges.extend(_trusted(TreeEdge, u, w) for w, u in frontier)
    return TreeBall(center, radius, tuple(vertices), tuple(edges))
