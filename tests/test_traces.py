import hashlib
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2trees import (
    CapExceededError,
    PrimeContext,
    Presentation,
    SL2Matrix,
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

from _oracles import ch_trace
from conftest import random_integral_sl2, random_sl2
from test_words import random_letters

FREE2 = Presentation.free(2)
CTX = PrimeContext(3)


def empty_trace_caches():
    traces._TABLES.clear()
    traces._WORDS.clear()
    traces._HELD[0] = 0


def sl2z_matrices(ctx=CTX):
    return [SL2Matrix(((1, 1), (0, 1)), ctx), SL2Matrix(((1, 0), (1, 1)), ctx)]


# -- the polynomial: its text, value, hash and guard ---------------------


def test_variable_order_and_names():
    assert subset_keys(2) == [(1,), (2,), (1, 2)]
    assert subset_keys(3) == [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]
    assert variable_name((1,)) == "t1"
    assert variable_name((1, 2)) == "t12"
    assert variable_name((1, 2, 3)) == "t123"
    # a monomial lists its variables shortest first, then lexicographic
    assert trace_polynomial(parse_word("a b a' b'", FREE2), 2).terms() == {
        ((1,), (1,)): 1, ((2,), (2,)): 1, ((1, 2), (1, 2)): 1,
        ((1,), (2,), (1, 2)): -1, (): -2}
    assert trace_polynomial(Word((1, 2, 3)), 3).terms() == {((1, 2, 3),): 1}


def test_poly_text_frozen():
    assert trace_polynomial(parse_word("a b'", FREE2), 2).text() == "-t12 + t1*t2"
    assert trace_polynomial(Word((1, 1)), 1).text() == "t1^2 - 2"
    assert trace_polynomial(Word((1, 1, 1)), 1).text() == "-3*t1 + t1^3"
    two = trace_polynomial(Word(()), 2)
    assert (two + -2).text() == "0"
    assert (two + -9).text() == "-7"
    assert (trace_polynomial(Word((1, 1)), 1) + 2).text() == "t1^2"
    assert (trace_polynomial(Word((2, 2)), 2) + 1).text() == "t2^2 - 1"


def test_poly_evaluate_exact():
    poly = trace_polynomial(parse_word("a b'", FREE2), 2)  # t1*t2 - t12
    values = {(1,): Fraction(1, 3), (2,): Fraction(3, 5), (1, 2): 2}
    assert poly.evaluate(values) == Fraction(1, 5) - 2
    assert (poly + 2).evaluate(values) == Fraction(1, 5)
    with pytest.raises(ValidationError):
        poly.evaluate({(1,): Fraction(1, 3), (2,): Fraction(3, 5)})
    assert (trace_polynomial(Word(()), 2) + 2).evaluate({}) == 4


def test_poly_hash_agrees_with_equality():
    two = trace_polynomial(Word(()), 2)
    assert two == 2 and two in {2} and hash(two) == hash(2)
    assert two + -2 == 0 and two + -2 in {0}
    t2 = trace_polynomial(Word((2,)), 2)
    assert trace_polynomial(parse_word("a b a'", FREE2), 2) in {t2}
    assert t2 != 2 and t2 not in {2}
    with pytest.raises(TypeError):
        t2 + t2  # the polynomial adds ints only


def test_overlong_word_is_refused_at_once():
    # a trace's degree is at most its word's length, so words shorter than
    # 2^15 letters keep each 16-bit exponent field below its top bit
    start = time.perf_counter()
    with pytest.raises(CapExceededError):
        trace_polynomial(Word((1,) * 32768), 1)
    assert time.perf_counter() - start < 1


# -- trace polynomials of words ------------------------------------------


def test_trace_polynomial_frozen():
    assert trace_polynomial(parse_word("1", FREE2), 2) == 2
    assert trace_polynomial(parse_word("a", FREE2), 2).terms() == {((1,),): 1}
    assert trace_polynomial(parse_word("a'", FREE2), 2).terms() == {((1,),): 1}
    assert trace_polynomial(parse_word("a b", FREE2), 2).terms() == {((1, 2),): 1}
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
# five-identity rewriter, since Z[t1, t2, t12] is free, and the 72 rank-3
# texts that of the three linear identities, since the text linear in t123
# is unique.  The 72 rank-4 texts are the Cayley-Hamilton pass's over the
# canonical key: 22 differ from the three identities'.
RANK_2_SHA256 = (
    "df3038aa576b44f3f1a6b74d914221690d8b6383da9815c4346740e1b86332ff")
RANK_3_SHA256 = (
    "e33b72f0f8f0f0bf5ca56d61dd82bfca539dd8a4f2e0b0cabf6baab6ff751310")
RANK_4_SHA256 = (
    "9a8ae5e13b8a5597b3f80f526c52704d9353407c5788f6ab208a5a2060348e98")


def test_rank_2_to_4_text_frozen():
    rng = random.Random(4411)
    corpus = [(Word(random_letters(rng, rank, length)), rank)
              for rank in (2, 3, 4) for length in range(1, 13) for _ in range(6)]
    texts = [trace_polynomial(w, rank).text() for w, rank in corpus]
    # the corpus lists its 72 rank-2 words first, then rank 3, then rank 4
    digests = [hashlib.sha256("\n".join(texts[k:k + 72]).encode()).hexdigest()
               for k in (0, 72, 144)]
    assert digests == [RANK_2_SHA256, RANK_3_SHA256, RANK_4_SHA256]


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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rank4_text_is_the_pass_over_the_canonical_key(data):
    # at rank 4 the traces satisfy relations, so the text is the one the
    # Cayley-Hamilton pass gives on the canonical key of the word's class
    letters = data.draw(st.lists(st.sampled_from([1, 2, 3, 4, -1, -2, -3, -4]),
                                 max_size=9))
    reduced = cyclic_reduce(Word(tuple(letters))).letters
    key = traces._canonical_key(reduced) if reduced else ()
    assert trace_polynomial(Word(tuple(letters)), 4).text() == ch_trace(key, 4).text()


# words whose texts one process prints in order, another in reverse: their
# classes share keys, prefixes and suffixes, the rank-8 one is refused, and
# a^1200 follows a^800 in one order only
HISTORY_WORDS = [
    ("a b c d a c", 4), ("c a b c d a", 4), ("c' a' d' c' b' a'", 4),
    ("a b c d a b c d", 4), ("d c b a d c b a", 4), ("a b' c d' b c", 4),
    ("(h g f e d c b a)^2", 8), ("a^800", 1), ("a^1200", 1), ("(a b')^20", 2),
    ("a b c a b c", 3), ("c b a c b a", 3), ("b d a c b d", 4),
]
HISTORY_SCRIPT = """
import sys
from sl2trees import Presentation, Sl2TreesError, parse_word, trace_polynomial
for line in sys.stdin.read().splitlines():
    text, rank = line.rsplit(" ", 1)
    try:
        w = parse_word(text, Presentation.free(int(rank)))
        print(trace_polynomial(w, int(rank)).text())
    except Sl2TreesError as exc:
        print("refused:", type(exc).__name__)
"""


def test_trace_text_independent_of_history():
    # each order runs in a fresh process, so the caches start empty and
    # each word meets the tables the other order left behind
    src = os.path.dirname(os.path.dirname(os.path.abspath(traces.__file__)))
    outputs = []
    for words in (HISTORY_WORDS, HISTORY_WORDS[::-1]):
        proc = subprocess.run(
            [sys.executable, "-c", HISTORY_SCRIPT], capture_output=True, text=True,
            input="".join(f"{text} {rank}\n" for text, rank in words),
            timeout=120, env={**os.environ, "PYTHONPATH": src})
        assert proc.returncode == 0 and proc.stderr == ""
        outputs.append(proc.stdout.splitlines())
    assert outputs[0] == outputs[1][::-1]
    assert outputs[0][6] == "refused: CapExceededError"
    assert outputs[0].count("refused: CapExceededError") == 1
    # rotations and the inverse of one class print one text
    assert outputs[0][0] == outputs[0][1] == outputs[0][2]


def test_deep_power_is_fast_and_exact():
    empty_trace_caches()
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
    assert all(CTX.valuation(val) >= 0 for _, val in fundamental_traces(mats).ordered())
    for _ in range(50):
        w = Word(random_letters(rng, 2, rng.randint(0, 10)))
        assert CTX.valuation(evaluate(w, mats).trace()) >= 0


def test_rank_bound_enforced():
    with pytest.raises(UnknownGeneratorError):
        trace_polynomial(Word((3,)), 2)


def test_term_budget(monkeypatch):
    # the least budget a word passes with is the same whether the tables
    # start empty or were filled by other words: reads charge build costs
    w = parse_word("a b' a b a' b a b'", FREE2)

    def passes(budget, warm):
        empty_trace_caches()
        if warm:
            for other in ("a b a b' a b", "b a' b' a b' a b a"):
                trace_polynomial(parse_word(other, FREE2), 2)
            traces._WORDS.clear()
        monkeypatch.setattr(traces, "TERM_BUDGET", budget)
        try:
            trace_polynomial(w, 2)
        except CapExceededError:
            return False
        return True

    least = next(b for b in range(1, 2000) if passes(b, warm=False))
    assert least > 50
    assert passes(least, warm=True) and not passes(least - 1, warm=True)
    # the real budget refuses (a b')^200, 10201 terms, and caches nothing
    monkeypatch.undo()
    traces._WORDS.clear()
    with pytest.raises(CapExceededError):
        trace_polynomial(parse_word("(a b')^200", FREE2), 2)
    assert not traces._WORDS


def test_caches_are_emptied_past_their_limit(monkeypatch):
    # the tables and the whole-word cache count the terms they hold and are
    # emptied before a computing call once past the limit; no text changes
    rng = random.Random(4406)
    words = [Word(random_letters(rng, 3, rng.randint(6, 10))) for _ in range(40)]
    expected = [trace_polynomial(w, 3).text() for w in words]
    empty_trace_caches()
    monkeypatch.setattr(traces, "_HOLD_LIMIT", 300)
    held = []
    for w, text in zip(words, expected):
        assert trace_polynomial(w, 3).text() == text
        held.append(traces._HELD[0])
    assert any(after < before for before, after in zip(held, held[1:]))
    assert all(after > before for before, after in zip(held, held[1:]) if before <= 300
               and after != before)
    assert held[-1] == sum(len(p) for p in traces._WORDS.values()) + sum(
        len(entry[0]) for table in traces._TABLES.values() for entry in table.values())


def test_memo_determinism():
    w = parse_word("a b a' b' a b", FREE2)
    assert trace_polynomial(w, 2) == trace_polynomial(w, 2)
    assert trace_polynomial(w, 2).text() == trace_polynomial(w, 2).text()
