import hashlib
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2trees import (
    CapExceededError,
    PrimeContext,
    Presentation,
    ReductionCapExceededError,
    SL2Matrix,
    TracePolynomial,
    UnknownGeneratorError,
    ValidationError,
    Word,
    cyclic_reduce,
    evaluate,
    free_reduce,
    fundamental_traces,
    parse_word,
    subset_keys,
    trace_polynomial,
    variable_name,
)
from sl2trees import traces

from _oracles import TuplePoly, ch_trace
from conftest import random_integral_sl2, random_sl2
from test_words import random_letters

FREE2 = Presentation.free(2)
CTX = PrimeContext(3)


def sl2z_matrices(ctx=CTX):
    return [SL2Matrix(((1, 1), (0, 1)), ctx), SL2Matrix(((1, 0), (1, 1)), ctx)]


# -- polynomial arithmetic and text --------------------------------------


def test_variable_order_and_names():
    assert subset_keys(2) == [(1,), (2,), (1, 2)]
    assert subset_keys(3) == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    assert variable_name((1,)) == "t1"
    assert variable_name((1, 2)) == "t12"
    assert variable_name((1, 2, 3)) == "t123"
    # keys naming no fundamental trace, refused on both construction paths
    for bad in ((), (0,), (-1, 2)):
        with pytest.raises(ValidationError):
            TracePolynomial.variable(bad)
        with pytest.raises(ValidationError):
            TracePolynomial({(bad,): 1})


def test_poly_text_frozen():
    t1 = TracePolynomial.variable((1,))
    t2 = TracePolynomial.variable((2,))
    t12 = TracePolynomial.variable((1, 2))
    assert (t1 * t2 - t12).text() == "-t12 + t1*t2"
    assert (t1 * t1 - TracePolynomial.constant(2)).text() == "t1^2 - 2"
    assert TracePolynomial.constant(0).text() == "0"
    assert TracePolynomial.constant(-7).text() == "-7"
    assert (t2 * t2 * 3 + t1 - 1).text() == "t1 + 3*t2^2 - 1"
    assert (t12 - t12).text() == "0"


def test_poly_ring_laws():
    t1 = TracePolynomial.variable((1,))
    t2 = TracePolynomial.variable((2,))
    assert (t1 + t2) * (t1 - t2) == t1 * t1 - t2 * t2
    assert t1 * (t2 + 1) == t1 * t2 + t1
    assert (t1 - t1).is_zero()
    assert TracePolynomial.constant(5) == 5
    assert -(-t1) == t1


LEAF = st.one_of(st.sampled_from(subset_keys(3)), st.integers(-3, 3))
EXPR = st.recursive(
    LEAF, lambda kids: st.tuples(st.sampled_from("+-*"), kids, kids), max_leaves=10)


def build(expr, leaf):
    if not isinstance(expr, tuple) or isinstance(expr[0], int):
        return leaf(expr)
    op, left, right = expr
    a, b = build(left, leaf), build(right, leaf)
    return a + b if op == "+" else a - b if op == "-" else a * b


def both(expr):
    """The expression as a TracePolynomial, ints mixed in as plain ints,
    and as the tuple-keyed oracle."""
    poly = build(expr, lambda x: x if isinstance(x, int) else TracePolynomial.variable(x))
    if isinstance(poly, int):
        poly = TracePolynomial.constant(poly)
    oracle = build(expr, lambda x: TuplePoly({(): x} if isinstance(x, int) else {(x,): 1}))
    return poly, oracle


@settings(max_examples=150, deadline=None)
@given(EXPR, EXPR)
def test_poly_arithmetic_matches_tuple_oracle(e1, e2):
    (p1, o1), (p2, o2) = both(e1), both(e2)
    values = {s: Fraction(i + 2, 3) for i, s in enumerate(subset_keys(3))}
    for p, o in ((p1, o1), (p2, o2)):
        assert p.terms() == o.terms
        assert p.evaluate(values) == sum(
            c * math.prod(values[v] for v in m) for m, c in o.terms.items())
        assert p.text() == o.text()
        assert p == TracePolynomial(o.terms)
        assert hash(p) == hash(frozenset(o.terms.items()))
    assert (p1 == p2) == (o1.terms == o2.terms)


def test_packed_exponent_guard():
    p = TracePolynomial.variable((1,))
    for _ in range(14):
        p = p * p
    assert p.text() == "t1^16384"
    with pytest.raises(CapExceededError):
        p * p
    with pytest.raises(CapExceededError):
        TracePolynomial({((1,),) * 40000: 1})


def test_poly_evaluate_exact():
    t1 = TracePolynomial.variable((1,))
    t12 = TracePolynomial.variable((1, 2))
    poly = t1 * t12 - 2
    val = poly.evaluate({(1,): Fraction(1, 3), (1, 2): Fraction(3, 5)})
    assert val == Fraction(1, 5) - 2
    with pytest.raises(ValidationError):
        poly.evaluate({(1,): Fraction(1, 3)})
    assert TracePolynomial.constant(4).evaluate({}) == 4


# -- trace polynomials of words ------------------------------------------


def test_trace_polynomial_frozen():
    assert trace_polynomial(parse_word("1", FREE2), 2) == 2
    assert trace_polynomial(parse_word("a", FREE2), 2) == TracePolynomial.variable((1,))
    assert trace_polynomial(parse_word("a'", FREE2), 2) == TracePolynomial.variable((1,))
    assert trace_polynomial(parse_word("a b", FREE2), 2) == TracePolynomial.variable((1, 2))
    assert trace_polynomial(parse_word("a b'", FREE2), 2).text() == "-t12 + t1*t2"
    assert trace_polynomial(parse_word("a a", FREE2), 2).text() == "t1^2 - 2"
    assert trace_polynomial(parse_word("a b a'", FREE2), 2).text() == "t2"
    assert trace_polynomial(parse_word("a b a' b'", FREE2), 2).text() == (
        "t1^2 + t2^2 + t12^2 - t1*t2*t12 - 2")


def criterion_3_corpus():
    """(word, rank) of acceptance criterion 3, drawing the same stream."""
    rng = random.Random(333)
    out = []
    for case in range(200):
        rank = rng.randint(1, 3)
        out.append((Word(random_letters(rng, rank, rng.randint(1, 12))), rank))
        for trial in range(5):
            ctx = PrimeContext((2, 3, 5)[(case + trial) % 3])
            [random_sl2(rng, ctx, steps=3) for _ in range(rank)]
    return out


# sha256 of the 69 rank-2 texts of the criterion-3 corpus, one per line,
# frozen from the tuple-keyed rewriter: Z[t1, t2, t12] is free, so rank-2
# traces have one polynomial and their text can never change
CRITERION_3_RANK2_SHA256 = (
    "5b1f640f25787c86caa7c58eda07a8d4daccc230c2a2b829dbe03b15c1aaec6c")


def test_rank2_text_frozen():
    texts = [trace_polynomial(w, 2).text() for w, r in criterion_3_corpus() if r == 2]
    assert len(texts) == 69
    digest = hashlib.sha256("\n".join(texts).encode()).hexdigest()
    assert digest == CRITERION_3_RANK2_SHA256


# sha256 of the texts of 216 seeded rank-2 to rank-4 words (lengths 1-12),
# one per line, split by rank.  The 72 rank-2 texts keep the digest of the
# five-identity rewriter, since Z[t1, t2, t12] is free.  The 144 rank-3 and
# rank-4 texts were frozen from the three linear identities: 3 rank-3 texts
# (now linear in t123) and 17 rank-4 texts differ from that rewriter's.
RANK_2_SHA256 = (
    "df3038aa576b44f3f1a6b74d914221690d8b6383da9815c4346740e1b86332ff")
RANK_3_TO_4_SHA256 = (
    "95f3e7734f247240402756e741e5f955f128184f43816f6c17c0c6e7c90ed684")


def test_rank_2_to_4_text_frozen():
    rng = random.Random(4411)
    corpus = [(Word(random_letters(rng, rank, length)), rank)
              for rank in (2, 3, 4) for length in range(1, 13) for _ in range(6)]
    texts = [trace_polynomial(w, rank).text() for w, rank in corpus]
    # the corpus lists its 72 rank-2 words first
    assert hashlib.sha256("\n".join(texts[:72]).encode()).hexdigest() == RANK_2_SHA256
    assert hashlib.sha256("\n".join(texts[72:]).encode()).hexdigest() == (
        RANK_3_TO_4_SHA256)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_text_matches_cayley_hamilton_oracle(data):
    # Z[t1, t2, t12] is free and at rank 3 the text is linear in t123, so
    # up to rank 3 the text is the unique polynomial the oracle computes
    rank = data.draw(st.integers(1, 3))
    letters = data.draw(st.lists(
        st.sampled_from([s * i for i in range(1, rank + 1) for s in (1, -1)]),
        max_size=10))
    text = trace_polynomial(Word(tuple(letters)), rank).text()
    assert text == ch_trace(letters, rank).text()
    assert "t123^" not in text


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_trace_text_independent_of_memo(data):
    # for rank >= 3 the text is one representative; it must not depend on
    # which word of the class reached the memo first
    rank = data.draw(st.sampled_from([3, 4]))
    letters = data.draw(st.lists(
        st.sampled_from([s * i for i in range(1, rank + 1) for s in (1, -1)]),
        min_size=2, max_size=10 if rank == 3 else 8))
    w = cyclic_reduce(Word(tuple(letters)))
    n = len(w.letters)
    variants = [Word(w.letters[k:] + w.letters[:k]) for k in range(n)] + [w.inverse()]
    texts = set()
    for v in variants:
        traces._MEMO.clear()
        texts.add(trace_polynomial(v, rank).text())
    for v in variants:
        texts.add(trace_polynomial(v, rank).text())
    assert len(texts) == 1


def test_deep_power_is_fast_and_exact():
    traces._MEMO.clear()
    start = time.perf_counter()
    poly = trace_polynomial(Word((1,) * 800), 1)
    assert time.perf_counter() - start < 2
    # 2 T_800(t1 / 2): even powers only, leading t1^800, value 2 at t1 = 0
    terms = poly.terms()
    assert len(terms) == 401 and terms[((1,),) * 800] == 1 and terms[()] == 2


def test_commutator_polynomial_value_on_integral_pair():
    poly = trace_polynomial(parse_word("a b a' b'", FREE2), 2)
    ftv = fundamental_traces(sl2z_matrices())
    assert [val for _, val in ftv.ordered()] == [2, 2, 3]
    assert poly.evaluate(ftv) == 3


def test_trace_polynomial_word_invariances():
    rng = random.Random(4401)
    for _ in range(80):
        letters = random_letters(rng, 3, rng.randint(1, 9))
        w = free_reduce(Word(letters))
        if not w.letters:
            continue
        poly = trace_polynomial(w, 3)
        # cyclic rotation and inversion leave traces alone
        k = rng.randrange(len(w.letters))
        rotated = Word(w.letters[k:] + w.letters[:k])
        assert trace_polynomial(rotated, 3) == poly
        assert trace_polynomial(w.inverse(), 3) == poly
        # conjugation too
        conj = free_reduce(Word(random_letters(rng, 3, 3)))
        assert trace_polynomial(conj * w * conj.inverse(), 3) == poly


def test_trace_polynomial_matches_matrix_trace():
    rng = random.Random(4402)
    for _ in range(140):
        rank = rng.randint(1, 3)
        w = Word(random_letters(rng, rank, rng.randint(0, 12)))
        poly = trace_polynomial(w, rank)
        mats = [random_sl2(rng, CTX, steps=3) for _ in range(rank)]
        ftv = fundamental_traces(mats)
        assert poly.evaluate(ftv) == evaluate(w, mats).trace()


def test_trace_of_word_against_direct_product():
    rng = random.Random(4403)
    mats = sl2z_matrices()
    for _ in range(60):
        w = Word(random_letters(rng, 2, rng.randint(0, 10)))
        direct = SL2Matrix.identity(CTX)
        for x in w.letters:
            direct = direct * (mats[x - 1] if x > 0 else mats[-x - 1].inverse())
        assert evaluate(w, mats).trace() == direct.trace()


def test_fundamental_traces_order_and_values():
    rng = random.Random(4404)
    mats = [random_integral_sl2(rng, CTX) for _ in range(3)]
    ftv = fundamental_traces(mats)
    assert [s for s, _ in ftv.ordered()] == subset_keys(3)
    assert ftv[(1, 3)] == (mats[0] * mats[2]).trace()
    assert ftv[(1, 2, 3)] == (mats[0] * mats[1] * mats[2]).trace()
    assert (1, 2) in ftv and (2, 3) in ftv


def test_integral_traces_stay_integral():
    # integer polynomials carry integral fundamental traces to integral traces
    rng = random.Random(4405)
    mats = [random_integral_sl2(rng, CTX) for _ in range(2)]
    assert all(val.valuation() >= 0 for _, val in fundamental_traces(mats).ordered())
    for _ in range(50):
        w = Word(random_letters(rng, 2, rng.randint(0, 10)))
        assert evaluate(w, mats).trace().valuation() >= 0


def test_rank_bound_enforced():
    with pytest.raises(UnknownGeneratorError):
        trace_polynomial(Word((3,)), 2)


def test_step_budget():
    w = Word(tuple([1, 2, -1, 2, 1, -2, -1, -2] * 3))
    with pytest.raises(ReductionCapExceededError):
        trace_polynomial(w, 2, max_steps=3)
    # the same word succeeds with the default budget
    assert trace_polynomial(w, 2) is not None


def test_memo_determinism():
    w = parse_word("a b a' b' a b", FREE2)
    assert trace_polynomial(w, 2) == trace_polynomial(w, 2)
    assert trace_polynomial(w, 2).text() == trace_polynomial(w, 2).text()
