import itertools
import random
import time
import tracemalloc

from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sl2trees import (
    CapExceededError,
    NotDehnPresentationError,
    PrimeContext,
    Presentation,
    Representation,
    SL2Matrix,
    UnknownGeneratorError,
    ValidationError,
    Word,
    WordSyntaxError,
    ball,
    ball_size,
    cyclic_reduce,
    dehn_reduce,
    evaluate,
    free_reduce,
    parse_word,
    word_to_text,
)
from sl2trees import words
from sl2trees.words import (
    DEFAULT_WORD_CAP, _dehn_rules, check_ball, letter_alphabet, sphere_sizes,
    word_sort_key)

from _oracles import fraction_fold
from conftest import random_integral_sl2

FREE2 = Presentation.free(2)
SURF2 = Presentation.surface(2)


def random_letters(rng, rank, length):
    return tuple(rng.choice([s * i for i in range(1, rank + 1) for s in (1, -1)])
                 for _ in range(length))


# -- parsing -------------------------------------------------------------


def test_parse_literal_examples():
    assert parse_word("a b b' a", FREE2).letters == (1, 2, -2, 1)
    assert not parse_word("a b b' a", FREE2).is_reduced()
    assert parse_word("(a b)^2 a^-2", FREE2).letters == (1, 2, 1, 2, -1, -1)
    assert parse_word("1", FREE2).letters == ()
    assert parse_word("a^0", FREE2).letters == ()
    assert parse_word("b'^2", FREE2).letters == (-2, -2)
    assert parse_word("(a (b a)^-1)^2", FREE2).letters == (1, -1, -2, 1, -1, -2)


def test_parse_exponents_read_whole_integer():
    assert parse_word("a^1", FREE2).letters == (1,)
    assert parse_word("a^10", FREE2).letters == (1,) * 10
    assert parse_word("(a b)^12", FREE2).letters == (1, 2) * 12
    assert parse_word("a^21", FREE2).letters == (1,) * 21
    assert parse_word("a^-1", FREE2).letters == (-1,)
    assert parse_word("a 1 b", FREE2).letters == (1, 2)
    assert parse_word("1^3", FREE2).letters == ()
    with pytest.raises(WordSyntaxError):
        parse_word("10", FREE2)


def test_parse_exponent_expansion_is_capped():
    assert len(parse_word(f"a^{DEFAULT_WORD_CAP}", FREE2)) == DEFAULT_WORD_CAP
    with pytest.raises(CapExceededError):
        parse_word("a^300000 b^300000", FREE2)
    tracemalloc.start()
    try:
        for text in ("a^3000000", "(a b)^-1500000", "(a^1000)^1000",
                     "a^99999999999999999999", "a^" + "1" * 5000,
                     "(a b)^-" + "0" * 5000 + "9" * 7):
            with pytest.raises(CapExceededError):
                parse_word(text, FREE2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000, "the expanded word was built before the check"
    # past Python's 4300-digit int limit: only the value's digits count
    assert parse_word("a^-" + "0" * 5000 + "2", FREE2).letters == (-1, -1)
    assert parse_word("1^" + "9" * 5000, FREE2).letters == ()


def test_parse_surface_names():
    w = parse_word("a1 b1 a1' b1'", SURF2)
    assert w.letters == (1, 2, -1, -2)


def test_parse_errors():
    with pytest.raises(UnknownGeneratorError):
        parse_word("c", FREE2)
    with pytest.raises(WordSyntaxError) as info:
        parse_word("a (", FREE2)
    assert info.value.position == 2
    with pytest.raises(WordSyntaxError):
        parse_word("a^", FREE2)
    with pytest.raises(WordSyntaxError):
        parse_word("a''", FREE2)
    with pytest.raises(WordSyntaxError):
        parse_word("a b)", FREE2)
    with pytest.raises(WordSyntaxError):
        parse_word("^2", FREE2)


def _syntax(message, position):
    return WordSyntaxError, f"{message} (at position {position})", position


def _unknown(name):
    return UnknownGeneratorError, f"unknown generator {name!r}", None


def _cap(total):
    return CapExceededError, f"word would hold {total} letters, cap is 500000", None


# frozen from the recursive parser the one-loop parser replaced: each text
# gives these letters, or this error type, message and position
PARSE_TABLE = [
    ("", ()),
    (" \t\n", ()),
    ("1", ()),
    ("a b' a", (1, -2, 1)),
    ("a'^2", (-1, -1)),
    ("a^2'", _syntax('unexpected token "\'"', 3)),
    ("a''", _syntax('unexpected token "\'"', 2)),
    ("a^+3 b^-02", (1, 1, 1, -2, -2)),
    ("a^-0", ()),
    ("a^007", (1, 1, 1, 1, 1, 1, 1)),
    ("1^5", ()),
    ("1^-99999999999", ()),
    ("()^-2", ()),
    ("(a b)^-2", (-2, -1, -2, -1)),
    ("((a)^2 b)^-1", (-2, -1, -1)),
    ("a 1 b", (1, 2)),
    ("a\x1cb\xa0b'", (1, 2, -2)),
    ("c", _unknown("c")),
    ("a (b c", _unknown("c")),
    ("a (", _syntax("unbalanced '('", 2)),
    ("a (b (", _syntax("unbalanced '('", 5)),
    ("((a) b", _syntax("unbalanced '('", 0)),
    ("(a))", _syntax("unexpected token ')'", 3)),
    (")", _syntax("unexpected token ')'", 0)),
    ("^2", _syntax("unexpected token '^'", 0)),
    ("'", _syntax('unexpected token "\'"', 0)),
    ("10", _syntax("unexpected token '10'", 0)),
    ("a +2", _syntax("unexpected token '+2'", 2)),
    ("a^", _syntax("'^' must be followed by an integer", 2)),
    ("a^ ", _syntax("'^' must be followed by an integer", 3)),
    ("a^b", _syntax("'^' must be followed by an integer", 2)),
    ("a^)", _syntax("'^' must be followed by an integer", 2)),
    ("a b^'", _syntax("'^' must be followed by an integer", 4)),
    ("a  $", _syntax("unexpected character '$'", 1)),
    ("a\t#b", _syntax("unexpected character '#'", 1)),
    ("(a !)", _syntax("unexpected character '!'", 2)),
    ("a b é", _syntax("unexpected character 'é'", 3)),
    ("c $", _syntax("unexpected character '$'", 1)),
    ("a^500001", _cap(500001)),
    ("a^250000 b^250001", _cap(500001)),
    ("(a b)^250001", _cap(500002)),
    ("(a^400000) a^100001", _cap(500001)),
    ("a^" + "9" * 4301, _cap("more than 500000")),
    ("c^" + "9" * 4301, _unknown("c")),
    ("a^" + "9" * 4301 + " c", _cap("more than 500000")),
    ("(a b)^-" + "0" * 4400 + "3", (-2, -1, -2, -1, -2, -1)),
    ("1^" + "7" * 4400, ()),
    ("()^" + "9" * 5000, ()),
    ("a^-" + "9" * 4301 + " $", _syntax("unexpected character '$'", 4304)),
]


def test_parse_table_frozen():
    for text, expected in PARSE_TABLE:
        if expected and isinstance(expected[0], type):
            error, message, position = expected
            with pytest.raises(error) as info:
                parse_word(text, FREE2)
            assert str(info.value) == message, text[:40]
            assert getattr(info.value, "position", None) == position, text[:40]
        else:
            assert parse_word(text, FREE2).letters == expected, text[:40]


def test_parse_nesting_costs_no_recursion():
    # far past the interpreter's recursion limit: no frame per group
    depth = 100_000
    assert parse_word("(" * depth + "a" + ")" * depth, FREE2).letters == (1,)
    with pytest.raises(WordSyntaxError) as info:
        parse_word("(" * depth + "a" + ")" * (depth - 1), FREE2)
    assert str(info.value) == "unbalanced '(' (at position 0)"


def test_parse_caps_the_letters_of_all_open_groups_together():
    # each group is under the cap alone, and no ')' closes them; counted
    # a group at a time, the forty would hold 20 M letters before that
    # error is found
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            parse_word("(a^499999 " * 40, FREE2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10_000_000
    # the word is 400000 letters, but 800000 are held at once
    with pytest.raises(CapExceededError) as info:
        parse_word("(a^400000 (a^400000)^0)", FREE2)
    assert str(info.value) == "word would hold 800000 letters, cap is 500000"


def test_word_to_text_round_trip():
    rng = random.Random(1101)
    for _ in range(200):
        w = free_reduce(Word(random_letters(rng, 2, rng.randint(0, 12))))
        assert parse_word(word_to_text(w, FREE2), FREE2) == w
    assert word_to_text(Word(()), FREE2) == "1"
    assert word_to_text(Word((1, -2, 1)), FREE2) == "a b' a"


def test_word_letter_validation():
    with pytest.raises(ValidationError):
        Word((0,))
    with pytest.raises(ValidationError):
        Word((1.5,))


def test_presentation_name_rules():
    with pytest.raises(ValidationError):
        Presentation.free(2, names=["a", "a"])
    with pytest.raises(ValidationError):
        Presentation.free(1, names=["A"])
    with pytest.raises(ValidationError):  # "1" is the empty word
        Presentation.free(1, names=["1"])
    with pytest.raises(ValidationError):
        Presentation.free(27)
    with pytest.raises(UnknownGeneratorError):
        Presentation.explicit(["x"], ["x y"])


# -- free reduction ------------------------------------------------------


def test_free_reduce_examples():
    assert free_reduce(Word((1, 2, -2, 1))).letters == (1, 1)
    assert free_reduce(Word((1, -1))).letters == ()
    assert free_reduce(Word(())).letters == ()


def test_free_reduce_random_properties():
    rng = random.Random(1102)
    for _ in range(500):
        w = Word(random_letters(rng, 3, rng.randint(0, 20)))
        r = free_reduce(w)
        assert r.is_reduced()
        assert free_reduce(r) == r
        assert len(r) <= len(w)
        assert (len(w) - len(r)) % 2 == 0


def test_word_multiplication_reduces():
    u = Word((1, 2))
    v = Word((-2, 1))
    assert (u * v).letters == (1, 1)
    assert (u * u.inverse()).letters == ()


def test_word_multiplication_random_group_laws():
    rng = random.Random(1103)
    e = Word(())
    for _ in range(200):
        u = free_reduce(Word(random_letters(rng, 2, rng.randint(0, 8))))
        v = free_reduce(Word(random_letters(rng, 2, rng.randint(0, 8))))
        w = free_reduce(Word(random_letters(rng, 2, rng.randint(0, 8))))
        assert (u * v) * w == u * (v * w)
        assert u * u.inverse() == e
        assert (u * v).inverse() == v.inverse() * u.inverse()


def test_cyclic_reduce():
    assert cyclic_reduce(Word((1, 2, -1))).letters == (2,)
    assert cyclic_reduce(Word((1, 2, 1, -1, -2, -1))).letters == ()
    assert cyclic_reduce(Word((2, 1))).letters == (2, 1)


# -- enumeration ---------------------------------------------------------


def test_ball_counts_frozen():
    assert len(ball(FREE2, 1)) == 5
    assert len(ball(FREE2, 2)) == 17
    assert ball_size(2, 2) == 17
    assert ball_size(4, 6) == 156865
    assert ball_size(1, 3) == 7
    assert ball_size(2, 0) == 1


def test_ball_matches_brute_enumeration():
    for rank, max_len in ((2, 4), (1, 0), (1, 5), (3, 1), (3, 5)):
        alphabet = letter_alphabet(rank)
        brute = set()
        for n in range(max_len + 1):
            for tup in itertools.product(alphabet, repeat=n):
                if all(tup[i] != -tup[i + 1] for i in range(n - 1)):
                    brute.add(tup)
        words = ball(Presentation.free(rank), max_len)
        assert {w.letters for w in words} == brute
        assert len(words) == len(brute) == ball_size(rank, max_len)


def test_ball_shortlex_order():
    words = [word_to_text(w, FREE2) for w in ball(FREE2, 2)]
    assert words[:9] == ["1", "a", "a'", "b", "b'", "a a", "a b", "a b'", "a' a'"]
    keys = [word_sort_key(w.letters) for w in ball(FREE2, 3)]
    assert keys == sorted(keys)


def test_ball_cap():
    with pytest.raises(CapExceededError):
        ball(FREE2, 10, max_words=100)
    # huge bounds are refused after a few level sizes, in a fixed message
    free1 = Presentation.free(1)
    more = "more than {0} words, cap is {0}$"
    for presentation, max_len, max_words, tail in (
            (FREE2, 10**4, DEFAULT_WORD_CAP, more),
            (FREE2, 10**9, DEFAULT_WORD_CAP, more),
            (free1, 10**9, DEFAULT_WORD_CAP, "2000000001 words, cap is {0}$"),
            (FREE2, 10**18, 10**18, more),
            (free1, 10**18, 10**18, "2000000000000000001 words, cap is {0}$")):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError,
                               match="^ball would hold " + tail.format(max_words)):
                ball(presentation, max_len, max_words=max_words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000
    assert ball(FREE2, 0) == [Word(())]
    with pytest.raises(ValidationError):
        ball(FREE2, -1)


def test_ball_letter_cap():
    # rank 1 hides L(L + 1) letters in 2L + 1 words; letters are capped at
    # 16 * max_words, which at rank >= 2 never refuses what the word cap takes
    free1 = Presentation.free(1)
    start = time.perf_counter()
    with pytest.raises(CapExceededError,
                       match="^ball would hold 100010000 letters, cap is 8000000$"):
        ball(free1, 10**4)
    assert time.perf_counter() - start < 0.002
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError):
            ball(free1, 10**4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000
    assert len(ball(free1, 39, max_words=100)) == 79  # 1560 letters
    with pytest.raises(CapExceededError,
                       match="^ball would hold 1640 letters, cap is 1600$"):
        ball(free1, 40, max_words=100)
    for rank in (2, 3, 4):
        for cap in (10, 1000, 10**5, DEFAULT_WORD_CAP, 10**8):
            max_len = 0
            while sum(sphere_sizes(2 * rank, max_len + 1)) <= cap:
                max_len += 1
            check_ball("ball", rank, max_len, cap)


def test_ball_ignores_relators():
    assert len(ball(SURF2, 2)) == ball_size(4, 2)


# -- evaluation ----------------------------------------------------------


def test_evaluate_is_homomorphism():
    rng = random.Random(1104)
    ctx = PrimeContext(3)
    mats = [random_integral_sl2(rng, ctx) for _ in range(2)]
    for _ in range(100):
        u = Word(random_letters(rng, 2, rng.randint(0, 8)))
        v = Word(random_letters(rng, 2, rng.randint(0, 8)))
        assert evaluate(u, mats) * evaluate(v, mats) == evaluate(u * v, mats)
        assert evaluate(u.inverse(), mats) == evaluate(u, mats).inverse()


def test_evaluate_out_of_range_letter():
    ctx = PrimeContext(3)
    mats = [random_integral_sl2(random.Random(0), ctx)]
    with pytest.raises(UnknownGeneratorError):
        evaluate(Word((2,)), mats)
    rep = Representation(Presentation.free(1), {"a": mats[0]})
    for letters in ((2,), (1, -2), (1, 1, 3)):
        with pytest.raises(UnknownGeneratorError, match="outside rank 1"):
            rep.evaluate(Word(letters))


def det_one_rows(p):
    """Rows of [[q, 0], [0, 1/q]] [[1, x], [0, 1]] [[1, 0], [y, 1]], with
    denominators that are powers of p, coprime to p, or mixed."""
    c = 7 if p != 7 else 5
    fracs = st.builds(Fraction, st.integers(-9, 9),
                      st.sampled_from((1, p, p * p, c, c * p)))
    return st.builds(
        lambda q, x, y: ((q * (1 + x * y), q * x), (y / q, 1 / q)),
        fracs.filter(bool), fracs, fracs)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_evaluate_matches_fraction_fold(data):
    p = data.draw(st.sampled_from((2, 3, 5, 7)))
    rank = data.draw(st.integers(1, 3))
    gens = [data.draw(det_one_rows(p)) for _ in range(rank)]
    letters = tuple(data.draw(
        st.lists(st.sampled_from(letter_alphabet(rank)), max_size=10)))
    ctx = PrimeContext(p)
    mats = [SL2Matrix(rows, ctx) for rows in gens]
    rep = Representation(Presentation.free(rank), dict(zip("abc", mats)))
    expected = fraction_fold(letters, gens)
    assert evaluate(Word(letters), mats).rows() == expected
    assert rep.evaluate(Word(letters)).rows() == expected
    assert evaluate(Word(()), mats).rows() == ((1, 0), (0, 1))


# -- Dehn reduction ------------------------------------------------------


def test_dehn_reduces_surface_relator():
    relator = SURF2.relators[0]
    assert dehn_reduce(relator, SURF2).letters == ()
    assert dehn_reduce(relator * relator, SURF2).letters == ()
    assert dehn_reduce(relator.inverse(), SURF2).letters == ()


def test_dehn_reduces_random_identity_words():
    rng = random.Random(1105)
    relator = SURF2.relators[0]
    for _ in range(60):
        w = Word(())
        for _ in range(rng.randint(1, 3)):
            conj = free_reduce(Word(random_letters(rng, 4, rng.randint(0, 3))))
            piece = relator if rng.random() < 0.5 else relator.inverse()
            w = w * (conj * piece * conj.inverse())
        assert dehn_reduce(w, SURF2).letters == ()


def test_dehn_leaves_short_words_alone():
    w = parse_word("a1 b1", SURF2)
    assert dehn_reduce(w, SURF2) == w


def test_dehn_never_grows_and_is_idempotent():
    rng = random.Random(1106)
    for _ in range(100):
        w = free_reduce(Word(random_letters(rng, 4, rng.randint(0, 14))))
        r = dehn_reduce(w, SURF2)
        assert len(r) <= len(w)
        assert r.is_reduced()
        assert dehn_reduce(r, SURF2) == r


def relator_images(genus):
    """Generator images satisfying the genus-g surface relator: [x, y] [y, x]
    and then [y, y] for each further handle."""
    ctx = PrimeContext(3)
    x = SL2Matrix(((3, 0), (0, Fraction(1, 3))), ctx)
    y = SL2Matrix(((1, 1), (1, 2)), ctx)
    return [x, y, y, x] + [y, y] * (genus - 2)


def test_dehn_reduction_preserves_images_when_the_relator_holds():
    # replacements only ever splice in the relator, so any assignment
    # that satisfies it must evaluate w and dehn_reduce(w) identically
    ctx = PrimeContext(3)
    mats = relator_images(2)
    relator = SURF2.relators[0]
    assert evaluate(relator, mats) == SL2Matrix.identity(ctx)
    rng = random.Random(4242)
    for _ in range(500):
        w = Word(random_letters(rng, 4, rng.randint(0, 14)))
        assert evaluate(dehn_reduce(w, SURF2), mats) == evaluate(w, mats)


@st.composite
def surface_words(draw):
    """A genus-2 or genus-3 surface presentation and a word over it made of
    single letters and rule heads, so that most draws need rewriting."""
    pres = Presentation.surface(draw(st.sampled_from((2, 3))))
    heads = sorted(_dehn_rules(pres)[0])
    singles = [(x,) for x in letter_alphabet(pres.rank)]
    chunks = draw(st.lists(st.sampled_from(singles + heads), max_size=10))
    return pres, Word(tuple(itertools.chain.from_iterable(chunks)))


@settings(max_examples=300, deadline=None)
@given(surface_words())
# a rewrite's replacement must go back through the pass: pushed unchecked,
# it leaves the head a2' b1 a1 b1' a1' here
@example((SURF2, Word((4, -4, -3, 2, 1, -2, -2, -1, 4, 3, -4))))
def test_dehn_result_is_dehn_reduced(case):
    pres, w = case
    rules, lengths = _dehn_rules(pres)
    r = dehn_reduce(w, pres).letters
    assert Word(r).is_reduced()
    assert not any(r[i:i + m] in rules
                   for i in range(len(r)) for m in lengths if i + m <= len(r))
    assert len(r) <= len(w)
    assert dehn_reduce(Word(r), pres).letters == r
    mats = relator_images(pres.genus)
    assert evaluate(pres.relators[0], mats) == SL2Matrix.identity(mats[0].context)
    assert evaluate(Word(r), mats) == evaluate(w, mats)


def test_dehn_reduction_of_a_long_identity_word_is_linear():
    # restarting the scan after each rewrite took 7.2 s here
    relator = SURF2.relators[0]
    w = Word(relator.letters * 5000)
    assert len(w) == 40_000
    start = time.perf_counter()
    assert dehn_reduce(w, SURF2).letters == ()
    assert time.perf_counter() - start < 1.0


def test_dehn_genus_three():
    surf3 = Presentation.surface(3)
    relator = surf3.relators[0]
    assert len(relator) == 12
    assert dehn_reduce(relator, surf3).letters == ()


def test_dehn_rejects_free_and_torus():
    with pytest.raises(NotDehnPresentationError):
        dehn_reduce(Word((1,)), FREE2)
    torus = Presentation.explicit(["a", "b"], ["a b a' b'"])
    with pytest.raises(NotDehnPresentationError):
        dehn_reduce(Word((1,)), torus)


def test_dehn_rules_are_built_once_per_presentation(monkeypatch):
    texts = ("a1 b1 a1' b1' a2 b2", "b2' a2' b2 a2 b1' a1' b1", "a1 a1' b2 b1 a1 b1'")
    ws = [parse_word(t, SURF2) for t in texts]
    expected = []
    for w in ws:
        words._RULES_CACHE.clear()
        expected.append(dehn_reduce(w, SURF2))
    calls = []
    build = words._symmetrized

    def counted(relators):
        calls.append(relators)
        return build(relators)

    monkeypatch.setattr(words, "_symmetrized", counted)
    words._RULES_CACHE.clear()
    assert [dehn_reduce(w, SURF2) for w in ws] == expected
    assert len(calls) == 1
    # a presentation failing the gate is never cached, so it is refused each time
    torus = Presentation.explicit(["a", "b"], ["a b a' b'"])
    for _ in range(2):
        with pytest.raises(NotDehnPresentationError):
            dehn_reduce(Word((1,)), torus)
    assert len(calls) == 3
