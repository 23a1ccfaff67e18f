"""Vertices, distances and balls of the (p+1)-regular lattice-class tree.

A vertex is the homothety class of a locally-free rank-2 lattice.  Every
class has a unique upper-triangular basis [[p^n, c], [0, 1]] with level
n an integer and center c a p-power-denominator rational in [0, p^n);
that pair is the canonical vertex datum used everywhere below.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple, Union

from .errors import ContextMismatchError, SingularMatrixError, ValidationError
from .field import PrimeContext, _coerce, _val_fraction
from .matrices import SL2Matrix, inv2, mul2
from .words import check_size, sphere_sizes

DEFAULT_NODE_CAP = 100_000


def _reduce_center(c: Fraction, n: int, p: int) -> Fraction:
    """Canonical representative of c modulo p^n times the local integers.

    The result lies in Z[1/p] and in [0, p^n), and is congruent to c in
    the sense that c minus the result has valuation >= n.  This is where
    arbitrary rational input (denominators coprime to p included) gets
    folded into the p-power-denominator normal form.
    """
    if c == 0:
        return Fraction(0)
    v = _val_fraction(c, p)
    if v >= n:
        return Fraction(0)
    k = 0 if v >= 0 else -v
    pk = p ** k
    q = c.denominator // pk
    modulus = p ** (n + k)
    r = c.numerator * pow(q, -1, modulus) % modulus
    return Fraction(r, pk)


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
        object.__setattr__(self, "level", level)
        object.__setattr__(
            self, "center", _reduce_center(_coerce(center), level, context.p)
        )
        object.__setattr__(self, "context", context)

    def basis(self) -> Tuple[Tuple[Fraction, Fraction], Tuple[Fraction, Fraction]]:
        """Upper-triangular lattice basis [[p^n, c], [0, 1]]."""
        return (
            (Fraction(self.context.p) ** self.level, self.center),
            (Fraction(0), Fraction(1)),
        )

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


def vertex_type(v: TreeVertex) -> int:
    """Parity class of the vertex, preserved by every determinant-1 action."""
    return v.level % 2


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


def distance_via_matrices(u: TreeVertex, v: TreeVertex) -> int:
    """Same distance, read off the elementary divisors of M_u^-1 M_v.

    For the change-of-basis matrix N the distance is v(det N) minus
    twice the minimal entry valuation; kept as an independent route and
    cross-checked against the normal-form formula.
    """
    _require_same_context(u, v)
    n = mul2(inv2(u.basis()), v.basis())
    p = u.context.p
    (a, b), (c, d) = n
    det = a * d - b * c
    minval = min(_val_fraction(x, p) for x in (a, b, c, d))
    return int(_val_fraction(det, p)) - 2 * int(minval)


def neighbors(v: TreeVertex) -> List[TreeVertex]:
    """The p+1 adjacent vertices: parent first, then children in digit order."""
    p = v.context.p
    out = [TreeVertex(v.level - 1, v.center, v.context)]
    step = Fraction(p) ** v.level
    for digit in range(p):
        out.append(TreeVertex(v.level + 1, v.center + digit * step, v.context))
    return out


def geodesic(u: TreeVertex, v: TreeVertex) -> List[TreeVertex]:
    """Vertex path from u to v: ascend to the meet level, then descend."""
    d = distance(u, v)
    check_size("geodesic", "vertices", DEFAULT_NODE_CAP, (d + 1,))
    meet = (u.level + v.level - d) // 2
    path = [TreeVertex(k, u.center, u.context) for k in range(u.level, meet - 1, -1)]
    path += [TreeVertex(k, v.center, v.context) for k in range(meet + 1, v.level + 1)]
    return path


def act(g: SL2Matrix, v: TreeVertex) -> TreeVertex:
    """Image vertex under the linear action on lattice classes."""
    if g.context != v.context:
        raise ContextMismatchError("matrix and vertex primes differ")
    m = mul2(g.rows(), v.basis())
    return canonical_vertex(m, v.context)


def canonical_vertex(
    m: Union[SL2Matrix, Tuple], context: PrimeContext = None
) -> TreeVertex:
    """Canonical (level, center) of the lattice spanned by m's columns.

    Accepts any invertible exact 2x2 matrix: column operations over the
    local integers bring the bottom row to (0, 1), a global scaling and
    a unit column scaling make the first column a power of p, and the
    center is reduced into [0, p^n).
    """
    if isinstance(m, SL2Matrix):
        context = m.context
        rows = m.rows()
    else:
        if context is None:
            raise ValidationError("plain matrix input needs an explicit context")
        (a0, b0), (c0, d0) = m
        rows = (
            (_coerce(a0), _coerce(b0)),
            (_coerce(c0), _coerce(d0)),
        )
    (a, b), (c, d) = rows
    if a * d - b * c == 0:
        raise SingularMatrixError("lattice basis must be invertible")
    p = context.p
    if _val_fraction(c, p) < _val_fraction(d, p):
        a, b = b, a
        c, d = d, c
    # bottom row to (0, 1): clear c against the pivot d, then scale by 1/d
    a = a - (c / d) * b
    x = a / d
    y = b / d
    n = int(_val_fraction(x, p))
    return TreeVertex(n, y, context)


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
        edges.extend(TreeEdge(u, w) for w, u in frontier)
    return TreeBall(center, radius, tuple(vertices), tuple(edges))
