"""Determinant-one 2x2 matrices over the valued rationals, and one kernel.

Products run on a scaled form: integers (A, B, C, D, den) with
m = [[A, B], [C, D]] / den, den the lcm of m's entry denominators, and
the adjugate (D, -B, -C, A, den) as the inverse.  A word's image is an
integer fold of these, with no gcd per letter; only the result becomes
Fractions again, and its determinant is checked there, once.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Sequence, Tuple, Union

from .errors import (
    ContextMismatchError, DeterminantNotOneError, SingularMatrixError)
from .field import PrimeContext, RationalLike, ValuedRational, _coerce

EntryLike = Union[RationalLike, ValuedRational]
Scaled = Tuple[int, int, int, int, int]  # (A, B, C, D, den)
IDENTITY: Scaled = (1, 0, 0, 1, 1)


def _entry(value: EntryLike, context: PrimeContext) -> Fraction:
    if isinstance(value, ValuedRational):
        if value.context != context:
            raise ContextMismatchError(
                f"entry over p={value.context.p} in a matrix over p={context.p}"
            )
        return value.value
    return _coerce(value)


class SL2Matrix:
    """Exact 2x2 matrix with determinant 1, tied to one prime context.

    The determinant condition is enforced at construction; the inverse
    is just the adjugate, and a product goes through the scaled kernel,
    which checks the determinant of its result.
    """

    __slots__ = ("a", "b", "c", "d", "context")

    def __init__(self, rows: Sequence[Sequence[EntryLike]], context: PrimeContext):
        (a, b), (c, d) = rows
        self.a = _entry(a, context)
        self.b = _entry(b, context)
        self.c = _entry(c, context)
        self.d = _entry(d, context)
        self.context = context
        if self.a * self.d - self.b * self.c != 1:
            raise DeterminantNotOneError(
                f"det = {self.a * self.d - self.b * self.c}, expected 1"
            )

    @classmethod
    def identity(cls, context: PrimeContext) -> "SL2Matrix":
        return cls(((1, 0), (0, 1)), context)

    def rows(self):
        return ((self.a, self.b), (self.c, self.d))

    def __mul__(self, other: "SL2Matrix") -> "SL2Matrix":
        if not isinstance(other, SL2Matrix):
            return NotImplemented
        if other.context != self.context:
            raise ContextMismatchError("matrix product across different primes")
        return unscaled(scaled_mul(scaled(self), scaled(other)), self.context)

    def inverse(self) -> "SL2Matrix":
        return SL2Matrix(((self.d, -self.b), (-self.c, self.a)), self.context)

    def __pow__(self, k: int) -> "SL2Matrix":
        base, out = scaled(self if k >= 0 else self.inverse()), IDENTITY
        for bit in bin(abs(k))[2:]:
            out = scaled_mul(out, out)
            if bit == "1":
                out = scaled_mul(out, base)
        return unscaled(out, self.context)

    def __neg__(self) -> "SL2Matrix":
        return SL2Matrix(((-self.a, -self.b), (-self.c, -self.d)), self.context)

    def trace(self) -> ValuedRational:
        return ValuedRational(self.a + self.d, self.context)

    def is_integral(self) -> bool:
        """Whether every entry has nonnegative valuation."""
        val = self.context.valuation
        return all(val(x) >= 0 for x in (self.a, self.b, self.c, self.d))

    def is_central(self) -> bool:
        """True exactly for +identity and -identity."""
        return self.b == 0 and self.c == 0 and self.a == self.d

    def conjugated_by(self, h: "SL2Matrix") -> "SL2Matrix":
        """h * self * h^-1."""
        return h * self * h.inverse()

    def __eq__(self, other):
        if not isinstance(other, SL2Matrix):
            return NotImplemented
        return (
            self.context == other.context
            and (self.a, self.b, self.c, self.d)
            == (other.a, other.b, other.c, other.d)
        )

    def __hash__(self):
        return hash((self.a, self.b, self.c, self.d, self.context.p))

    def __repr__(self):
        return f"SL2Matrix([[{self.a}, {self.b}], [{self.c}, {self.d}]], p={self.context.p})"


def scaled(m: SL2Matrix) -> Scaled:
    """m as integers (A, B, C, D) over the lcm den of its denominators."""
    a, b, c, d = m.a, m.b, m.c, m.d
    den = math.lcm(a.denominator, b.denominator, c.denominator, d.denominator)
    return (a.numerator * (den // a.denominator),
            b.numerator * (den // b.denominator),
            c.numerator * (den // c.denominator),
            d.numerator * (den // d.denominator), den)


def letter_table(matrices: Sequence[SL2Matrix]) -> Dict[int, Scaled]:
    """Scaled image of each signed letter: +i the i-th matrix, -i its
    adjugate, which is its exact inverse because the determinant is 1.
    The matrices must share one prime."""
    table: Dict[int, Scaled] = {}
    for i, m in enumerate(matrices, start=1):
        if m.context != matrices[0].context:
            raise ContextMismatchError("generator matrices disagree on the prime")
        a, b, c, d, den = table[i] = scaled(m)
        table[-i] = (d, -b, -c, a, den)
    return table


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


def unscaled(m: Scaled, context: PrimeContext) -> SL2Matrix:
    """The SL2Matrix of a scaled product, its determinant checked once."""
    a, b, c, d, den = checked(m)
    out = object.__new__(SL2Matrix)
    out.a, out.b = Fraction(a, den), Fraction(b, den)
    out.c, out.d = Fraction(c, den), Fraction(d, den)
    out.context = context
    return out


def mul2(m, n):
    """Plain product of 2x2 matrices given as rows, any exact entries."""
    (a, b), (c, d) = m
    (e, f), (g, h) = n
    return ((a * e + b * g, a * f + b * h), (c * e + d * g, c * f + d * h))


def inv2(m):
    """Plain inverse of a 2x2 matrix given as rows of Fractions."""
    (a, b), (c, d) = m
    det = a * d - b * c
    if det == 0:
        raise SingularMatrixError("matrix is singular")
    return ((d / det, -b / det), (-c / det, a / det))
