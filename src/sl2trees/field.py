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

from .errors import PrimeNotPrimeError, ZeroInputError

INFINITY = math.inf

RationalLike = Union[int, str, Fraction]

# Witnesses making Miller-Rabin deterministic for n < psi_13 =
# 3317044064679887385961981 (Sorenson and Webster 2015); without 41 the
# composite psi_12 = 318665857834031151167461 passes.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def is_prime(n: int) -> bool:
    """Deterministic primality test for n < psi_13; PrimeContext refuses
    every larger n, since no test here certifies it."""
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
        if self.p >= 3317044064679887385961981:  # psi_13, see _MR_WITNESSES
            raise PrimeNotPrimeError(f"not a certified prime: {self.p}; primality is "
                                     "certified below psi_13 = 3317044064679887385961981")

    def valuation(self, q) -> Union[int, float]:
        """Valuation of an int or Fraction; math.inf for 0."""
        return _val_fraction(q, self.p)

    def is_square(self, q) -> bool:
        """Whether the int or Fraction q is a square in the p-adic completion.

        A nonzero rational is a completion square iff its valuation is
        even and its unit part is a square unit: a quadratic residue for
        odd p, congruent to 1 mod 8 for p = 2.
        """
        if q == 0:
            raise ZeroInputError("square test needs a nonzero input")
        p, v = self.p, _val_fraction(q, self.p)
        if v % 2 != 0:
            return False
        unit = Fraction(q) / Fraction(p) ** v
        if p == 2:
            return unit.numerator * pow(unit.denominator, -1, 8) % 8 == 1
        r = unit.numerator * pow(unit.denominator, -1, p) % p
        return pow(r, (p - 1) // 2, p) == 1

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
    """A rational number with the prime that values it: the item type of
    classify.commutator_trace_scan.  Every other path uses Fraction."""

    value: Fraction
    context: PrimeContext

    def __init__(self, value: RationalLike, context: PrimeContext):
        object.__setattr__(self, "value", _coerce(value))
        object.__setattr__(self, "context", context)

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

    def valuation(self) -> Union[int, float]:
        return _val_fraction(self.value, self.context.p)
