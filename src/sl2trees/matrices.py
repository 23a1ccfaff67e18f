"""Determinant-one 2x2 matrices over the valued rationals, and one kernel.

A matrix is stored in one form only, its scaled tuple: integers
(A, B, C, D, den) with m = [[A, B], [C, D]] / den, den > 0 and
gcd(A, B, C, D, den) = 1, so den is the lcm of m's entry denominators
and the form is unique.  The entries a, b, c, d are read-only Fraction
views of it.  The adjugate (D, -B, -C, A, den) is the inverse, and a
word's image is an integer fold of scaled tuples, with no gcd per
letter; the result's determinant is checked and its gcd taken once,
when it becomes an SL2Matrix again.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Sequence, Tuple

from .errors import ContextMismatchError, DeterminantNotOneError
from .field import PrimeContext, RationalLike, _coerce

Scaled = Tuple[int, int, int, int, int]  # (A, B, C, D, den)
IDENTITY: Scaled = (1, 0, 0, 1, 1)


class SL2Matrix:
    """Exact 2x2 matrix with determinant 1, tied to one prime context.

    The constructor scales the entries once (scaled_rows) and checks
    the determinant as A D - B C == den^2; every other matrix (a
    product, a power, an adjugate or a negation) is made by _of from a
    scaled tuple.
    """

    __slots__ = ("scaled", "context")

    def __init__(self, rows: Sequence[Sequence[RationalLike]], context: PrimeContext):
        a, b, c, d, den = self.scaled = scaled_rows(rows)
        if a * d - b * c != den * den:
            raise DeterminantNotOneError(
                f"det = {Fraction(a * d - b * c, den * den)}, expected 1")
        self.context = context

    @classmethod
    def _of(cls, m: Scaled, context: PrimeContext) -> "SL2Matrix":
        """The SL2Matrix of a scaled product (den > 0): its determinant
        checked once, its five integers divided by their gcd."""
        g = math.gcd(*checked(m))
        out = object.__new__(cls)
        out.scaled = m if g == 1 else tuple(x // g for x in m)
        out.context = context
        return out

    @classmethod
    def identity(cls, context: PrimeContext) -> "SL2Matrix":
        return cls._of(IDENTITY, context)

    a = property(lambda self: Fraction(self.scaled[0], self.scaled[4]))
    b = property(lambda self: Fraction(self.scaled[1], self.scaled[4]))
    c = property(lambda self: Fraction(self.scaled[2], self.scaled[4]))
    d = property(lambda self: Fraction(self.scaled[3], self.scaled[4]))

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))

    def __mul__(self, other: "SL2Matrix") -> "SL2Matrix":
        if not isinstance(other, SL2Matrix):
            return NotImplemented
        if other.context != self.context:
            raise ContextMismatchError("matrix product across different primes")
        return SL2Matrix._of(scaled_mul(self.scaled, other.scaled), self.context)

    def inverse(self) -> "SL2Matrix":
        a, b, c, d, den = self.scaled
        return SL2Matrix._of((d, -b, -c, a, den), self.context)

    def __pow__(self, k: int) -> "SL2Matrix":
        base, out = (self if k >= 0 else self.inverse()).scaled, IDENTITY
        for bit in bin(abs(k))[2:]:
            out = scaled_mul(out, out)
            if bit == "1":
                out = scaled_mul(out, base)
        return SL2Matrix._of(out, self.context)

    def __neg__(self) -> "SL2Matrix":
        a, b, c, d, den = self.scaled
        return SL2Matrix._of((-a, -b, -c, -d, den), self.context)

    def trace(self) -> Fraction:
        a, _, _, d, den = self.scaled
        return Fraction(a + d, den)

    def is_integral(self) -> bool:
        """Whether every entry has nonnegative valuation."""
        return self.scaled[4] % self.context.p != 0

    def is_central(self) -> bool:
        """True exactly for +identity and -identity."""
        a, b, c, d, _ = self.scaled
        return b == c == 0 and a == d

    def conjugated_by(self, h: "SL2Matrix") -> "SL2Matrix":
        """h * self * h^-1."""
        return h * self * h.inverse()

    def __eq__(self, other):
        if not isinstance(other, SL2Matrix):
            return NotImplemented
        return self.scaled == other.scaled and self.context == other.context

    def __hash__(self):
        return hash((self.scaled, self.context.p))

    def __repr__(self):
        return f"SL2Matrix([[{self.a}, {self.b}], [{self.c}, {self.d}]], p={self.context.p})"


def letter_table(matrices: Sequence[SL2Matrix]) -> Dict[int, Scaled]:
    """Scaled image of each signed letter: +i the i-th matrix, -i its
    adjugate, which is its exact inverse because the determinant is 1.
    The matrices must share one prime."""
    table: Dict[int, Scaled] = {}
    for i, m in enumerate(matrices, start=1):
        if m.context != matrices[0].context:
            raise ContextMismatchError("generator matrices disagree on the prime")
        a, b, c, d, den = table[i] = m.scaled
        table[-i] = (d, -b, -c, a, den)
    return table


def scaled_rows(rows: Sequence[Sequence[RationalLike]]) -> Scaled:
    """A 2x2 array of rationals over the lcm den of its entries' denominators."""
    (a, b), (c, d) = rows
    entries = [_coerce(x) for x in (a, b, c, d)]
    den = math.lcm(*(x.denominator for x in entries))
    return (*(x.numerator * (den // x.denominator) for x in entries), den)


def scaled_mul(m: Scaled, n: Scaled) -> Scaled:
    """The kernel step: product of two scaled matrices."""
    a, b, c, d, k = m
    e, f, g, h, l = n
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, k * l)


def checked(m: Scaled) -> Scaled:
    """m itself, once its determinant is checked to be 1."""
    a, b, c, d, den = m
    if a * d - b * c != den * den:
        raise DeterminantNotOneError("a scaled product lost determinant 1")
    return m
