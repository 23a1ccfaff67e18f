import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2trees import (
    ContextMismatchError,
    DeterminantNotOneError,
    PrimeContext,
    SL2Matrix,
    translation_length,
)

from _oracles import inv2, mul2, val_fraction
from conftest import random_sl2

CTX = PrimeContext(3)


def test_determinant_enforced():
    with pytest.raises(DeterminantNotOneError):
        SL2Matrix(((1, 0), (0, 2)), CTX)
    with pytest.raises(DeterminantNotOneError):
        SL2Matrix(((0, 1), (1, 0)), CTX)


def test_identity_and_inverse():
    e = SL2Matrix.identity(CTX)
    m = SL2Matrix(((2, 1), (1, 1)), CTX)
    assert m * m.inverse() == e
    assert m.inverse() * m == e
    assert e.inverse() == e


def test_inverse_is_adjugate():
    m = SL2Matrix(((Fraction(5, 3), 2), (Fraction(1, 2), Fraction(6, 5))), CTX)
    inv = m.inverse()
    assert inv.rows() == ((Fraction(6, 5), -2), (Fraction(-1, 2), Fraction(5, 3)))


def test_multiplication_random_associative():
    rng = random.Random(501)
    for _ in range(50):
        a = random_sl2(rng, CTX)
        b = random_sl2(rng, CTX)
        c = random_sl2(rng, CTX)
        assert (a * b) * c == a * (b * c)
        assert (a * b).inverse() == b.inverse() * a.inverse()


def test_pow():
    m = SL2Matrix(((1, 1), (0, 1)), CTX)
    assert (m ** 5).rows() == ((1, 5), (0, 1))
    assert (m ** -3).rows() == ((1, -3), (0, 1))
    assert (m ** 0) == SL2Matrix.identity(CTX)


def test_trace_is_valued():
    m = SL2Matrix(((Fraction(1, 3), 1), (1, 6)), CTX)
    t = m.trace()
    assert type(t) is Fraction
    assert t == Fraction(19, 3)
    assert CTX.valuation(t) == -1


def test_neg_and_central():
    e = SL2Matrix.identity(CTX)
    assert (-e).rows() == ((-1, 0), (0, -1))
    assert (-e).is_central()
    assert e.is_central()
    assert not SL2Matrix(((1, 1), (0, 1)), CTX).is_central()


def test_is_integral():
    assert SL2Matrix(((1, 12), (3, 37)), CTX).is_integral()
    assert not SL2Matrix(((Fraction(1, 3), 0), (0, 3)), CTX).is_integral()
    assert SL2Matrix(((Fraction(1, 5), 0), (0, 5)), CTX).is_integral()


def test_conjugated_by():
    rng = random.Random(502)
    g = SL2Matrix(((3, 1), (2, 1)), CTX)
    h = random_sl2(rng, CTX)
    assert g.conjugated_by(h) == h * g * h.inverse()
    assert g.conjugated_by(h).trace() == g.trace()


def test_context_mismatch():
    m = SL2Matrix.identity(PrimeContext(3))
    n = SL2Matrix.identity(PrimeContext(5))
    with pytest.raises(ContextMismatchError):
        m * n


# -- the stored scaled form ------------------------------------------------

RATIONALS = st.builds(Fraction, st.integers(-40, 40),
                      st.sampled_from((1, 2, 3, 4, 5, 7, 9, 11, 25, 27, 49, 2 * 13, 3 * 11)))
FACTORS = st.lists(st.tuples(st.sampled_from("uld"), RATIONALS), max_size=5)
ONE = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def factor_rows(kind, x):
    if kind == "u":
        return ((Fraction(1), x), (Fraction(0), Fraction(1)))
    if kind == "l":
        return ((Fraction(1), Fraction(0)), (x, Fraction(1)))
    x = x or Fraction(1)
    return ((x, Fraction(0)), (Fraction(0), 1 / x))


def power_rows(rows, k):
    out = ONE
    for _ in range(abs(k)):
        out = mul2(out, rows if k > 0 else inv2(rows))
    return out


@given(st.sampled_from((2, 3, 5, 7)), FACTORS, FACTORS, st.integers(-4, 4))
@settings(max_examples=250, deadline=None)
def test_scaled_form_invariants(p, f, g, k):
    """Products, powers, inverses and negations keep den > 0 and gcd 1,
    the form is the constructor's, and ==, hash, is_integral and the
    translation length agree with the Fraction entries of an oracle."""
    ctx = PrimeContext(p)
    cases = []
    for factors in (f, g):
        m, rows = SL2Matrix.identity(ctx), ONE
        for kind, x in factors:
            m, rows = m * SL2Matrix(factor_rows(kind, x), ctx), mul2(rows, factor_rows(kind, x))
        cases.append((m, rows))
    (m, mr), (n, nr) = cases
    cases += [(m * n, mul2(mr, nr)), (m ** k, power_rows(mr, k)),
              (m.inverse(), inv2(mr)), (-n, tuple(tuple(-x for x in r) for r in nr)),
              (n * m.inverse() * m, nr)]
    for x, rows in cases:
        a, b, c, d, den = x.scaled
        assert den > 0 and math.gcd(a, b, c, d, den) == 1
        assert x.rows() == rows
        assert SL2Matrix(rows, ctx).scaled == x.scaled
        entries = [e for r in rows for e in r]
        assert x.is_integral() == all(val_fraction(e, p) >= 0 for e in entries)
        assert translation_length(x) == -2 * min(0, val_fraction(entries[0] + entries[3], p))
    for x, xr in cases:
        for y, yr in cases:
            assert (x == y) == (xr == yr)
            if x == y:
                assert hash(x) == hash(y)
