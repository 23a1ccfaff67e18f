"""Exact rational arithmetic with a p-adic valuation.

All geometry downstream (tree distances, translation lengths, trace
coordinates) reduces to valuation bookkeeping, so this module keeps the
arithmetic exact: Fraction everywhere, no floating point.  The valuation
of 0 is represented by math.inf, which orders correctly against every
integer valuation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .errors import ContextMismatchError, PrimeNotPrimeError, ZeroInputError

INFINITY = math.inf

RationalLike = Union[int, str, Fraction]

# Witnesses making Miller-Rabin deterministic for n < 3.3 * 10**24.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic primality test for the supported prime range."""
    if n < 2:
        return False
    for q in _MR_WITNESSES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _val_fraction(q: Union[int, Fraction], p: int):
    """Exponent of p in a nonzero int or Fraction; math.inf for 0.  O(log v)
    divisions: strip p, p^2, p^4, ... while each divides, then the same
    powers from the largest down give the rest's bits."""
    n, sign = q.numerator, 1
    if not n:
        return INFINITY
    if n % p:  # reduced fraction: p divides at most one of the two
        n, sign = q.denominator, -1
        if n % p:
            return 0
    powers, b, v = [], p, 0
    while n % b == 0:
        n //= b
        powers.append(b)
        b *= b
    for b in reversed(powers):
        v += v
        if n % b == 0:
            n //= b
            v += 1
    return sign * (v + (1 << len(powers)) - 1)


@dataclass(frozen=True)
class PrimeContext:
    """The prime fixing the valuation, the residue field and the tree."""

    p: int

    def __post_init__(self):
        if not isinstance(self.p, int) or not is_prime(self.p):
            raise PrimeNotPrimeError(f"not a prime: {self.p!r}")

    def __call__(self, value: RationalLike) -> "ValuedRational":
        """Shorthand: ctx(value) wraps a rational in this context."""
        return ValuedRational(value, self)

    def valuation(self, q) -> Union[int, float]:
        """Valuation of a bare int or Fraction, without wrapping it."""
        return _val_fraction(q, self.p)

    def __repr__(self):
        return f"PrimeContext({self.p})"


def _coerce(value: RationalLike) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value.strip())
    raise TypeError(f"cannot interpret {value!r} as an exact rational")


@dataclass(frozen=True)
class ValuedRational:
    """A rational number carrying the prime that values it.

    Arithmetic is exact and closed within one context; mixing contexts
    raises ContextMismatchError rather than guessing.
    """

    value: Fraction
    context: PrimeContext

    def __init__(self, value: RationalLike, context: PrimeContext):
        object.__setattr__(self, "value", _coerce(value))
        object.__setattr__(self, "context", context)

    @property
    def numerator(self) -> int:
        return self.value.numerator

    @property
    def denominator(self) -> int:
        return self.value.denominator

    def _same(self, other: "ValuedRational"):
        if not isinstance(other, ValuedRational):
            raise TypeError(f"expected ValuedRational, got {other!r}")
        if other.context != self.context:
            raise ContextMismatchError(
                f"mixed primes {self.context.p} and {other.context.p}"
            )

    def _lift(self, other) -> "ValuedRational":
        if isinstance(other, ValuedRational):
            self._same(other)
            return other
        return ValuedRational(other, self.context)

    def __add__(self, other):
        other = self._lift(other)
        return ValuedRational(self.value + other.value, self.context)

    __radd__ = __add__

    def __sub__(self, other):
        other = self._lift(other)
        return ValuedRational(self.value - other.value, self.context)

    def __rsub__(self, other):
        return self._lift(other) - self

    def __mul__(self, other):
        other = self._lift(other)
        return ValuedRational(self.value * other.value, self.context)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._lift(other)
        if other.value == 0:
            raise ZeroInputError("division by zero")
        return ValuedRational(self.value / other.value, self.context)

    def __rtruediv__(self, other):
        return self._lift(other) / self

    def __neg__(self):
        return ValuedRational(-self.value, self.context)

    def __bool__(self):
        return self.value != 0

    def __eq__(self, other):
        if isinstance(other, ValuedRational):
            return self.context == other.context and self.value == other.value
        if isinstance(other, (int, Fraction)):
            return self.value == other
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.context.p))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return f"ValuedRational({self.value}, p={self.context.p})"

    # -- valuation-theoretic queries ------------------------------------

    def valuation(self) -> Union[int, float]:
        return _val_fraction(self.value, self.context.p)

    def is_square(self) -> bool:
        """Whether the value is a square in the p-adic completion.

        A nonzero rational is a completion square iff its valuation is
        even and its unit part is a square unit: a quadratic residue for
        odd p, congruent to 1 mod 8 for p = 2.
        """
        if self.value == 0:
            raise ZeroInputError("square test needs a nonzero input")
        p = self.context.p
        v = self.valuation()
        if v % 2 != 0:
            return False
        unit = self.value / Fraction(p) ** v
        if p == 2:
            return unit.numerator * pow(unit.denominator, -1, 8) % 8 == 1
        r = unit.numerator * pow(unit.denominator, -1, p) % p
        return pow(r, (p - 1) // 2, p) == 1

