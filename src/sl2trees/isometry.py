"""Translation lengths, fixed vertices, axes and rational eigenlines.

The translation length of g on the lattice-class tree is read off the
trace alone: -2 * min(0, v(tr g)).  Everything else here is exact
combinatorial geometry around that fact.  SL(2) acts without inversions,
so d(x, gx) = l(g) + 2 d(x, Min g), where Min g is the fixed subtree of
an elliptic g and the axis of a hyperbolic one (Serre, Trees, I.6.4-6.5):
a fixed vertex and an axis vertex are each one projection, read off the
geodesic [x, gx] without building it.  Eigenvectors are never used for
axis construction, only for detecting invariant projective lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Tuple

from .errors import NotEllipticError, NotHyperbolicError, ValidationError
from .field import _val_fraction
from .matrices import Scaled, SL2Matrix
from .tree import DEFAULT_NODE_CAP, TreeVertex, _toward, act, distance, geodesic
from .words import check_size


def translation_length(g: SL2Matrix) -> int:
    """Stable displacement of g; 0 exactly when g fixes a vertex."""
    return _scaled_length(g.scaled, g.context.p)


def _scaled_length(m: Scaled, p: int) -> int:
    """-2 min(0, v(tr)) read off a scaled tuple m = (a, b, c, d, den), in
    lowest terms or not: 2 max(0, v(den) - v(a + d))."""
    a, _, _, d, den = m
    return 2 * max(0, _val_fraction(den, p) - _val_fraction(a + d, p))


def _projection(g: SL2Matrix, x: TreeVertex, ell: int = 0) -> TreeVertex:
    """The vertex of Min g nearest x, for g of translation length ell:
    (d(x, gx) - ell) / 2 along [x, gx].  For elliptic g (ell = 0) it is
    the midpoint of [x, gx]."""
    image = act(g, x)
    return _toward(x, image, (distance(x, image) - ell) // 2)


def fixed_vertex(g: SL2Matrix) -> TreeVertex:
    """The vertex fixed by an elliptic g nearest (0; 0): the midpoint of
    the geodesic from (0; 0) to its image."""
    if translation_length(g) != 0:
        raise NotEllipticError("no fixed vertex: translation length is positive")
    return _projection(g, TreeVertex(0, 0, g.context))


@dataclass(frozen=True)
class AxisSegment:
    """A window of the invariant axis of a hyperbolic element.

    The vertex list runs toward the attracting end; acting by g sends
    the vertex at index i to the one at index i + shift.
    """

    vertices: Tuple[TreeVertex, ...]
    shift: int


def _axis_ends(g: SL2Matrix, window: int) -> Tuple[TreeVertex, TreeVertex]:
    """The two ends of axis_segment(g, window).  The base vertex is
    projected onto the axis (the geodesic to its image meets the axis
    after half the excess displacement), and its translates by g^-k and
    g^k lie on the axis, with k the least such that 2k >= window."""
    ell = translation_length(g)
    if ell == 0:
        raise NotHyperbolicError("no axis: translation length is zero")
    if window < 1:
        raise ValidationError("window must be >= 1")
    steps = -(-window // 2)
    check_size("axis segment", "vertices", DEFAULT_NODE_CAP, (2 * steps * ell + 1,))
    start = _projection(g, TreeVertex(0, 0, g.context), ell)
    return act(g ** -steps, start), act(g ** steps, start)


def axis_segment(g: SL2Matrix, window: int = 2) -> AxisSegment:
    """Axis vertices covering at least window * shift edges: the one
    geodesic between the two ends _axis_ends gives."""
    return AxisSegment(tuple(geodesic(*_axis_ends(g, window))), translation_length(g))


class EigenLines(NamedTuple):
    """Rational eigenline report: kind is none, one, two or all."""

    kind: str
    lines: Tuple[Tuple[int, int], ...]


def _line(a: int, b: int, c: int, d: int, r: int) -> Tuple[int, int]:
    """Eigenline of (A, B, C, D, den) for the eigenvalue (A + D + r) / 2den,
    as a coprime pair with its leading nonzero entry positive.  Either row
    of 2den (g - lambda) gives the kernel: (2B, D - A + r) unless that is
    zero, then (A - D + r, 2C), which is not zero for non-central g."""
    x, y = (2 * b, d - a + r) if b or d - a + r else (a - d + r, 2 * c)
    g = math.gcd(x, y) if (x or y) > 0 else -math.gcd(x, y)
    return (x // g, y // g)


def rational_eigenlines(g: SL2Matrix) -> EigenLines:
    """Invariant projective lines of g that are defined over the rationals.

    Central g fixes every line ("all").  Otherwise the trace discriminant
    tr^2 - 4 decides: zero gives one line, a nonzero rational square two,
    anything else none.
    """
    if g.is_central():
        return EigenLines("all", ())
    a, b, c, d, den = g.scaled
    disc = (a + d) ** 2 - 4 * den * den  # (tr^2 - 4) den^2
    r = math.isqrt(max(disc, 0))
    if r * r != disc:
        return EigenLines("none", ())
    if r == 0:
        return EigenLines("one", (_line(a, b, c, d, 0),))
    return EigenLines("two", tuple(sorted((_line(a, b, c, d, r),
                                           _line(a, b, c, d, -r)))))
