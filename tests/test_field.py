import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sl2trees import (
    INFINITY,
    PrimeContext,
    PrimeNotPrimeError,
    ValuedRational,
    ZeroInputError,
    is_prime,
)

from sl2trees.field import _val_fraction

from _oracles import padic_square_table, val_fraction


def test_is_prime_small():
    primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47}
    for n in range(-2, 50):
        assert is_prime(n) == (n in primes)


def test_is_prime_large():
    assert is_prime(2 ** 61 - 1)
    assert not is_prime(2 ** 61 + 1)
    # strong pseudoprime to several bases, composite
    assert not is_prime(3215031751)
    # psi_12, the least strong pseudoprime to the 12 prime bases 2..37:
    # witness 41 catches it; the largest prime below psi_13 is certified
    assert not is_prime(399165290221 * 798330580441)
    assert PrimeContext(3317044064679887385961813).p == 3317044064679887385961813


# the last two: psi_12, and psi_13 = 1287836182261 * 2575672364521, which
# passes all 13 witnesses and is refused as past the certified range
@pytest.mark.parametrize("bad", [0, 1, 4, 6, 9, 15, -3, 100, 318665857834031151167461,
                                 3317044064679887385961981])
def test_context_rejects_nonprime(bad):
    with pytest.raises(PrimeNotPrimeError):
        PrimeContext(bad)


def test_valuation_frozen():
    ctx = PrimeContext(3)
    assert ctx.valuation(Fraction(18)) == 2
    assert ctx.valuation(Fraction(2, 9)) == -2
    assert ctx.valuation(Fraction(1)) == 0
    assert ctx.valuation(Fraction(0)) == INFINITY
    assert ctx.valuation(Fraction(-27, 5)) == 3
    assert PrimeContext(2).valuation(Fraction(12, 5)) == 2
    assert PrimeContext(5).valuation(Fraction(7, 50)) == -2


def test_valuation_laws_random():
    rng = random.Random(9001)
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        for _ in range(1000):
            x = Fraction(rng.randint(-400, 400), rng.randint(1, 400))
            y = Fraction(rng.randint(-400, 400), rng.randint(1, 400))
            vx, vy = ctx.valuation(x), ctx.valuation(y)
            assert ctx.valuation(x * y) == vx + vy
            # ultrametric inequality, with equality off the diagonal
            vs = ctx.valuation(x + y)
            assert vs >= min(vx, vy)
            if vx != vy:
                assert vs == min(vx, vy)
            assert ctx.valuation(x) == val_fraction(x, p)


@settings(max_examples=300, deadline=None)
@given(p=st.sampled_from([2, 3, 5, 7]), num=st.integers(-10**6, 10**6),
       den=st.integers(1, 10**6), e=st.integers(-3000, 3000), as_int=st.booleans())
@example(p=3, num=0, den=1, e=0, as_int=True)
@example(p=3, num=0, den=7, e=5, as_int=False)
@example(p=2, num=1, den=1, e=-2047, as_int=False)
@example(p=7, num=1, den=1, e=1024, as_int=True)
def test_val_fraction_matches_the_naive_loop(p, num, den, e, as_int):
    # q = (num / den) * p^e: the p-power sits in the numerator or the
    # denominator; as_int takes num * p^|e| as a plain int
    q = num * p ** abs(e) if as_int else Fraction(num, den) * Fraction(p) ** e
    assert _val_fraction(q, p) == val_fraction(Fraction(q), p)


def test_val_fraction_of_a_high_power_is_fast():
    # one factor of p per division took about 4 s here
    start = time.perf_counter()
    assert _val_fraction(Fraction(3**100000 * 7, 5), 3) == 100000
    assert _val_fraction(Fraction(5, 7 * 3**30000), 3) == -30000
    assert time.perf_counter() - start < 0.5


def test_valuation_of_string_and_int_inputs():
    ctx = PrimeContext(5)
    assert ctx.valuation(Fraction("1/25")) == -2
    assert ctx.valuation(Fraction(250)) == 3
    assert ctx.valuation(Fraction(4, 7)) == 0


def test_padic_square_frozen():
    assert PrimeContext(5).is_square(6)
    assert not PrimeContext(5).is_square(5)
    assert PrimeContext(2).is_square(17)
    assert not PrimeContext(2).is_square(3)
    assert not PrimeContext(2).is_square(2)
    assert PrimeContext(2).is_square(4)
    assert PrimeContext(3).is_square(Fraction(85, 9))
    assert not PrimeContext(3).is_square(3)


def test_is_square_of_zero_raises():
    for zero in (0, Fraction(0)):
        with pytest.raises(ZeroInputError):
            PrimeContext(7).is_square(zero)


def test_padic_square_against_residue_table():
    rng = random.Random(777)
    for p in (2, 3, 5, 7):
        ctx = PrimeContext(p)
        for _ in range(400):
            x = Fraction(rng.randint(-200, 200), rng.randint(1, 200))
            if x == 0:
                continue
            assert ctx.is_square(x) == padic_square_table(x, p)


def test_padic_squares_closed_under_multiplication():
    rng = random.Random(31337)
    ctx = PrimeContext(3)
    for _ in range(200):
        x = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        assert ctx.is_square(x * x)
        assert not ctx.is_square(3 * x * x)
        y = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        if ctx.is_square(x) and ctx.is_square(y):
            assert ctx.is_square(x * y)


def test_valued_rational_equality_and_hash():
    ctx = PrimeContext(3)
    assert ValuedRational(2, ctx) == 2
    assert ValuedRational(Fraction(4, 2), ctx) == ValuedRational(2, ctx)
    assert ValuedRational(2, ctx) == Fraction(2)
    assert hash(ValuedRational(2, ctx)) == hash(ValuedRational(Fraction(2), ctx))
    assert ValuedRational(2, ctx) != ValuedRational(2, PrimeContext(5))
    v = ValuedRational(2, ctx)
    assert hash(v) == hash(2) and 2 in {v} and v in {2}
    assert hash(ValuedRational(Fraction(1, 3), ctx)) == hash(Fraction(1, 3))


def test_is_integral_and_is_unit():
    # integral is valuation >= 0 and a unit valuation == 0; 0 is integral
    ctx = PrimeContext(3)
    assert ctx.valuation(Fraction(6)) == 1
    assert ctx.valuation(Fraction(2, 5)) == 0
    assert ctx.valuation(Fraction(1, 3)) == -1
    assert ctx.valuation(Fraction(0)) == INFINITY > 0
