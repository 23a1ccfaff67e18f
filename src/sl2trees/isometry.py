"""Translation lengths, fixed vertices, axes and rational eigenlines.

The translation length of g on the lattice-class tree is read off the
trace alone: -2 * min(0, v(tr g)).  Everything else here is exact
combinatorial geometry around that fact; eigenvectors are never used
for axis construction, only for detecting invariant projective lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from .errors import (
    IterationCapError,
    NotEllipticError,
    NotHyperbolicError,
    ValidationError,
)
from .matrices import SL2Matrix
from .tree import DEFAULT_NODE_CAP, TreeVertex, act, distance, geodesic
from .words import check_size

ELLIPTIC = "elliptic"
HYPERBOLIC = "hyperbolic"


def translation_length(g: SL2Matrix) -> int:
    """Stable displacement of g; 0 exactly when g fixes a vertex."""
    return -2 * g.trace().loc_min()


def classify_isometry(g: SL2Matrix) -> str:
    return ELLIPTIC if translation_length(g) == 0 else HYPERBOLIC


def fixed_vertex(
    g: SL2Matrix, max_iterations: Optional[int] = None
) -> TreeVertex:
    """A vertex fixed by an elliptic g, found by midpoint descent.

    The displacement function of an elliptic isometry halves (at least)
    at the midpoint of a vertex-to-image geodesic, so this converges
    within the initial displacement; the cap is defensive.
    """
    if translation_length(g) != 0:
        raise NotEllipticError("no fixed vertex: translation length is positive")
    x = TreeVertex(0, 0, g.context)
    image = act(g, x)
    d = distance(x, image)
    budget = d // 2 + 4 if max_iterations is None else max_iterations
    while d > 0:
        if budget <= 0:
            raise IterationCapError("fixed-point search exhausted its budget")
        budget -= 1
        x = geodesic(x, image)[d // 2]
        image = act(g, x)
        d = distance(x, image)
    return x


@dataclass(frozen=True)
class AxisSegment:
    """A window of the invariant axis of a hyperbolic element.

    The vertex list runs toward the attracting end; acting by g sends
    the vertex at index i to the one at index i + shift.
    """

    vertices: Tuple[TreeVertex, ...]
    shift: int


def axis_segment(g: SL2Matrix, window: int = 2) -> AxisSegment:
    """Axis vertices covering at least window * shift edges.

    The base vertex is projected onto the axis (the geodesic to its
    image meets the axis after half the excess displacement), then the
    segment is grown by translating the projection both ways.
    """
    ell = translation_length(g)
    if ell == 0:
        raise NotHyperbolicError("no axis: translation length is zero")
    if window < 1:
        raise ValidationError("window must be >= 1")
    steps = -(-window // 2)  # least k with 2k >= window
    check_size("axis segment", "vertices", DEFAULT_NODE_CAP, (2 * steps * ell + 1,))
    base = TreeVertex(0, 0, g.context)
    image = act(g, base)
    d = distance(base, image)
    gate = geodesic(base, image)[(d - ell) // 2]
    g_inv = g.inverse()
    start = gate
    for _ in range(steps):
        start = act(g_inv, start)
    path = [start]
    point = start
    for _ in range(2 * steps):
        point = act(g, point)
        leg = geodesic(path[-1], point)
        path.extend(leg[1:])
    return AxisSegment(tuple(path), ell)


class EigenLines(NamedTuple):
    """Rational eigenline report: kind is none, one, two or all."""

    kind: str
    lines: Tuple[Tuple[int, int], ...]


def _normalize_line(x: Fraction, y: Fraction) -> Tuple[int, int]:
    """Projective point as a coprime integer pair, leading sign positive."""
    if x == 0 and y == 0:
        raise ValidationError("(0, 0) is not a projective point")
    scale = Fraction(math.lcm(x.denominator, y.denominator))
    xi, yi = int(x * scale), int(y * scale)
    g = math.gcd(xi, yi)
    xi, yi = xi // g, yi // g
    lead = xi if xi != 0 else yi
    if lead < 0:
        xi, yi = -xi, -yi
    return (xi, yi)


def _rational_sqrt(q: Fraction) -> Optional[Fraction]:
    if q < 0:
        return None
    num, den = q.numerator, q.denominator
    rn, rd = math.isqrt(num), math.isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _eigenline_for(g: SL2Matrix, lam: Fraction) -> Tuple[int, int]:
    # (g - lam) has rank 1 here; either row yields the kernel direction
    if g.b != 0 or lam != g.a:
        return _normalize_line(g.b, lam - g.a)
    return _normalize_line(lam - g.d, g.c)


def rational_eigenlines(g: SL2Matrix) -> EigenLines:
    """Invariant projective lines of g that are defined over the rationals.

    Central g fixes every line ("all").  Otherwise the trace discriminant
    tr^2 - 4 decides: zero gives one line, a nonzero rational square two,
    anything else none.
    """
    if g.is_central():
        return EigenLines("all", ())
    t = g.a + g.d
    disc = t * t - 4
    if disc == 0:
        return EigenLines("one", (_eigenline_for(g, t / 2),))
    root = _rational_sqrt(disc)
    if root is None:
        return EigenLines("none", ())
    lines = sorted(
        (_eigenline_for(g, (t + root) / 2), _eigenline_for(g, (t - root) / 2))
    )
    return EigenLines("two", tuple(lines))
