import hashlib
import io
import os
import random
import sys
import tempfile
import time
import tracemalloc
from unittest import mock
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from sl2trees import (
    CapExceededError,
    DeterminantNotOneError,
    PrimeContext,
    Presentation,
    Representation,
    SL2Matrix,
    UnknownGeneratorError,
    ValidationError,
    Word,
    ball,
    ball_size,
    length_of,
    spectrum,
    spectrum_rows,
    to_tsv,
    translation_length,
    word_to_text,
    write_tsv,
)
from sl2trees.cli import main
from sl2trees.repfile import save_representation
from sl2trees.spectrum import LengthSpectrum
from sl2trees.words import word_sort_key

from conftest import (
    big_denominator_rep,
    diag_rep,
    free2_rep,
    random_noncommuting_pair,
    random_sl2,
    sl2z_pair,
    unbounded_irreducible_rep,
)

CTX = PrimeContext(3)
spectrum_module = sys.modules["sl2trees.spectrum"]

EXPECTED_TSV = """# presentation\tfree(2)
# prime\t3
# max_len\t1
# fingerprint\tt1\t10/3
# fingerprint\tt2\t3
# fingerprint\tt12\t11/3
word\tlength
1\t0
a\t2
a'\t2
b\t0
b'\t0
"""


def test_spectrum_frozen_level_one():
    s = spectrum(unbounded_irreducible_rep(CTX), 1)
    assert s.prime == 3 and s.max_len == 1
    assert s.entries == (
        (Word(()), 0),
        (Word((1,)), 2),
        (Word((-1,)), 2),
        (Word((2,)), 0),
        (Word((-2,)), 0),
    )
    assert [val for _, val in s.fingerprint.ordered()] == [
        Fraction(10, 3), 3, Fraction(11, 3)]


def test_spectrum_matches_length_of():
    rng = random.Random(6601)
    for _ in range(5):
        a, b = random_noncommuting_pair(rng, CTX, steps=3)
        rep = free2_rep(CTX, a, b)
        s = spectrum(rep, 3)
        words = ball(rep.presentation, 3)
        assert [w for w, _ in s.entries] == words
        for w, l in s.entries:
            assert l == length_of(rep, w)
            assert l == translation_length(rep.evaluate(w))


def test_spectrum_is_the_ball_in_shortlex_order():
    rng = random.Random(6603)
    a, b = random_noncommuting_pair(rng, CTX, steps=3)
    c = random_sl2(rng, CTX, steps=3)
    free3 = Representation(Presentation.free(3), {"a": a, "b": b, "c": c})
    genus2 = Representation(
        Presentation.surface(2), {"a1": a, "b1": b, "a2": b, "b2": a})
    for rep, max_len in ((free3, 4), (genus2, 3)):
        words = [w for w, _ in spectrum(rep, max_len).entries]
        assert words == ball(rep.presentation, max_len)
        assert words == sorted(words, key=lambda w: word_sort_key(w.letters))


def test_spectrum_rows_stream_the_spectrum():
    rng = random.Random(6604)
    a, b = random_noncommuting_pair(rng, CTX, steps=3)
    genus2 = Representation(
        Presentation.surface(2), {"a1": a, "b1": b, "a2": b, "b2": a})
    for rep, max_len in ((unbounded_irreducible_rep(CTX), 0), (genus2, 3)):
        spec = spectrum(rep, max_len)
        rows = spectrum_rows(rep, max_len)
        assert next(rows) == "1\t0\n"
        assert ["1\t0\n"] + list(rows) == [
            f"{word_to_text(w, rep.presentation)}\t{l}\n" for w, l in spec.entries]
        out = io.StringIO()
        write_tsv(out, rep.presentation, CTX.p, max_len, rep.fundamental(),
                  spectrum_rows(rep, max_len))
        assert out.getvalue() == to_tsv(spec)


def test_spectrum_walks_the_ball_once(monkeypatch):
    # spectrum() is spectrum_rows's loop with letter tuples as labels, and
    # one walk grows each word of levels 1..m once: ball_size(rank, m) - 1
    # steps, the suffixes past m read from its own levels
    walk = spectrum_module.ball_levels
    steps = []

    def counted(rank, max_len, root, step):
        steps.append(0)

        def counted_step(state, x):
            steps[-1] += 1
            return step(state, x)

        return walk(rank, max_len, root, counted_step)

    monkeypatch.setattr(spectrum_module, "ball_levels", counted)
    rng = random.Random(6605)
    a, b = random_noncommuting_pair(rng, CTX, steps=3)
    genus2 = Representation(
        Presentation.surface(2), {"a1": a, "b1": b, "a2": b, "b2": a})
    free2 = unbounded_irreducible_rep(CTX)
    free1 = Representation(Presentation.free(1), {"a": a})
    for rep, max_len in ((free2, 0), (free2, 1), (free2, 5), (free2, 6), (genus2, 3),
                         (free1, 4)):
        rank = rep.presentation.rank
        m = max_len if rank == 1 else (max_len + 1) // 2
        steps.clear()
        spec = spectrum(rep, max_len)
        assert steps == [ball_size(rank, m) - 1]
        assert all(type(w) is Word for w, _ in spec.entries)
        assert [f"{word_to_text(w, rep.presentation)}\t{ell}\n"
                for w, ell in spec.entries] == list(spectrum_rows(rep, max_len))


@st.composite
def spectrum_cases(draw):
    """A free rank 1-3 or genus-2 representation and a bound L <= 4.  Each
    generator is a product of elementary and diagonal factors whose
    denominators are prime to p, p-powers up to p^60, or both, or has
    trace 0."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    ctx = PrimeContext(p)
    q = draw(st.sampled_from([q for q in (2, 3, 5, 7, 11) if q != p]))

    def entry():
        den = draw(st.sampled_from((1, q, p, p ** 3, q * p ** 2, p ** 60)))
        return Fraction(draw(st.integers(-20, 20)), den)

    def generator():
        if draw(st.booleans()):
            x, y = entry(), entry() or Fraction(1, p)
            return SL2Matrix(((x, y), (-(1 + x * x) / y, -x)), ctx)
        m = SL2Matrix.identity(ctx)
        for kind in draw(st.lists(st.sampled_from("ulp"), min_size=1, max_size=4)):
            if kind == "p":
                k = draw(st.integers(-60, 60))
                m = m * SL2Matrix(((Fraction(p) ** k, 0), (0, Fraction(p) ** -k)), ctx)
            else:
                x = entry()
                m = m * SL2Matrix(((1, x), (0, 1)) if kind == "u" else ((1, 0), (x, 1)), ctx)
        return m

    group = draw(st.sampled_from(("free1", "free2", "free3", "genus2")))
    if group == "genus2":
        a, b = generator(), generator()
        rep = Representation(Presentation.surface(2), {"a1": a, "b1": b, "a2": b, "b2": a})
        return rep, draw(st.integers(0, 3))
    presentation = Presentation.free(int(group[-1]))
    gens = {name: generator() for name in presentation.generators}
    return Representation(presentation, gens), draw(st.integers(0, 4))


@settings(max_examples=120, deadline=None)
@given(spectrum_cases())
def test_spectrum_rows_equal_word_text_and_length_of(case):
    rep, max_len = case
    rows = list(spectrum_rows(rep, max_len))
    words = ball(rep.presentation, max_len)
    assert len(rows) == len(words)
    for w, line in zip(words, rows):
        text, ell = line.split("\t")
        assert text == word_to_text(w, rep.presentation)
        assert ell == f"{length_of(rep, w)}\n"


def example_rep(group, p, *gens):
    """A representation on the generators' entries at p; genus 2 takes
    (a1, b1) and sets a2 = b1, b2 = a1, so the relator holds."""
    ctx = PrimeContext(p)
    mats = [SL2Matrix(tuple(tuple(Fraction(x) for x in row) for row in g), ctx) for g in gens]
    if group == "genus2":
        return Representation(Presentation.surface(2), dict(zip(("a1", "b1", "a2", "b2"),
                                                                mats + mats[::-1])))
    return Representation(Presentation.free(len(mats)), dict(zip("abc", mats)))


# odd L, where the walk's midpoint split is uneven, L = m + 1, p = 2, and
# denominators prime to p, each in a fixed case beside the drawn ones
@settings(max_examples=60, deadline=None)
@given(spectrum_cases())
@example(case=(example_rep("free2", 2, (("7/6", "1/3"), ("1/2", 1)), ((0, -1), (1, "5/4"))), 3))
@example(case=(example_rep("genus2", 3, ((0, -1), (1, "7/3")), (("1/3", 2), ("-1/3", 1))), 3))
@example(case=(example_rep("free3", 5, ((5, 0), (0, "1/5")), ((1, 1), (1, 2)),
                           ((1, "1/7"), (0, 1))), 4))
@example(case=(example_rep("free2", 7, ((1, "1/49"), (0, 1)), (("1/3", 0), (0, 3))), 2))
def test_spectrum_entries_rows_and_cli_bytes_agree(case):
    # spectrum()'s entries, spectrum_rows's lines and the CLI's --tsv
    # bytes at one and at two usable CPUs are the same rows; the fork
    # threshold is lowered so that the two-CPU run splits its last level
    rep, max_len = case
    spec = spectrum(rep, max_len)
    rows = list(spectrum_rows(rep, max_len))
    assert rows == [f"{word_to_text(w, rep.presentation)}\t{ell}\n" for w, ell in spec.entries]
    assert len(rows) == ball_size(rep.presentation.rank, max_len)
    header, expected = to_tsv(spec).split("word\tlength\n")
    assert expected == "".join(rows)
    rank = rep.presentation.rank
    splits = rank > 1 and spectrum_module._half(rank, max_len) < max_len
    with tempfile.TemporaryDirectory() as tmp:
        path, target = os.path.join(tmp, "rep.json"), os.path.join(tmp, "out.tsv")
        save_representation(rep, path)
        for cpus in (1, 2):
            with mock.patch.object(spectrum_module, "_usable_cpus", lambda: cpus), \
                    mock.patch.object(spectrum_module, "_WORKER_ROWS", 1), \
                    mock.patch.object(os, "fork", wraps=os.fork) as fork:
                argv = ["spectrum", path, "--max-len", str(max_len), "--tsv", target]
                assert main(argv) == 0
            assert fork.call_count == (cpus == 2 and splits)
            with open(target, "rb") as handle:
                assert handle.read() == f"{header}word\tlength\n{expected}".encode()


def test_exponent_reads_powers_of_p_from_their_size():
    # every p^k with k <= v, at bit lengths where p^k lies just above or
    # just below a power of 2 as well as between
    for p in (2, 3, 5, 7):
        for v in (0, 1, 2, 59, 2000):
            assert [spectrum_module._exponent(p ** k, v, lambda j: p ** j)
                    for k in range(v + 1)] == list(range(v + 1))


S_PRIMES = (2, 3, 5)


@st.composite
def s_integer_pairs(draw):
    """The entries of a pair in SL2(Z[1/30]): products of elementary and
    diagonal factors whose denominators are products of 2, 3 and 5."""
    def unit():
        i, j, k = (draw(st.integers(-n, n)) for n in (3, 3, 2))
        return Fraction(2) ** i * Fraction(3) ** j * Fraction(5) ** k

    def generator():
        m = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))
        for kind in draw(st.lists(st.sampled_from("uld"), min_size=1, max_size=4)):
            if kind == "d":
                s = unit()
                f = ((s, 0), (0, 1 / s))
            else:
                x = draw(st.integers(-9, 9)) / unit()
                f = ((1, x), (0, 1)) if kind == "u" else ((1, 0), (x, 1))
            m = tuple(tuple(sum(m[i][k] * f[k][j] for k in range(2)) for j in range(2))
                      for i in range(2))
        return m

    return generator(), generator(), draw(st.integers(0, 5))


@settings(max_examples=20, deadline=None)
@given(s_integer_pairs())
def test_spectrum_denominator_identity_across_primes(case):
    # l_p(w) = 2 max(0, -v_p(tr w)) at every prime, so the reduced
    # denominator of tr w is the product of p^(l_p(w) / 2) over the
    # primes p that divide some generator denominator
    a, b, max_len = case
    reps = {p: free2_rep(PrimeContext(p), SL2Matrix(a, PrimeContext(p)),
                         SL2Matrix(b, PrimeContext(p))) for p in S_PRIMES}
    lengths = {p: [int(line.split("\t")[1]) for line in spectrum_rows(rep, max_len)]
               for p, rep in reps.items()}
    words = ball(Presentation.free(2), max_len)
    assert all(len(column) == len(words) for column in lengths.values())
    for i, w in enumerate(words):
        den = 1
        for p in S_PRIMES:
            assert lengths[p][i] % 2 == 0
            den *= p ** (lengths[p][i] // 2)
        assert reps[2].evaluate(w).trace().denominator == den


def test_spectrum_rows_big_denominators_are_fast():
    # one valuation division per row would take seconds here
    rep = big_denominator_rep()
    t0 = time.monotonic()
    rows = list(spectrum_rows(rep, 7))
    elapsed = time.monotonic() - t0
    assert len(rows) == ball_size(2, 7)
    assert elapsed < 2
    pairs = [line.split("\t") for line in rows]
    for w, (text, ell) in zip(ball(rep.presentation, 7), pairs):
        assert ell == f"{length_of(rep, w)}\n"
        assert text == word_to_text(w, rep.presentation)
    assert {ell for _, ell in pairs} >= {"0\n", "1600\n"}


def corpus_generator(rng, ctx, dens):
    """A seeded product of three elementary or diagonal factors whose
    entries' denominators are drawn from dens."""
    m = SL2Matrix.identity(ctx)
    for _ in range(3):
        x = Fraction(rng.randint(-9, 9), rng.choice(dens))
        kind = rng.choice("uld")
        if kind == "d":
            s = Fraction(rng.choice(dens)) ** rng.choice((1, -1))
            m = m * SL2Matrix(((s, 0), (0, 1 / s)), ctx)
        else:
            m = m * SL2Matrix(((1, x), (0, 1)) if kind == "u" else ((1, 0), (x, 1)), ctx)
    return m


# sha256 of the CLI's TSV bytes over 48 seeded representations (p-power,
# prime-to-p and mixed denominators), computed on the spectrum loop that
# took each leaf's trace as a full product of its prefix and letter
SPECTRUM_CORPUS_SHA256 = "07ce78d9cc6e030ada00796ac498b0d51fc4e70b4cd8709a2bfb4246e5cdcb43"


def test_spectrum_corpus_frozen(tmp_path):
    rng = random.Random(2222)
    path, target = tmp_path / "rep.json", tmp_path / "out.tsv"
    h, lines = hashlib.sha256(), 0
    for p in (2, 3, 5, 7):
        ctx = PrimeContext(p)
        q = 3 if p == 2 else 2
        for dens in ((p, p ** 2, p ** 5), (1, q, q * q), (p * q, p ** 3, q)):
            gens = [corpus_generator(rng, ctx, dens) for _ in range(3)]
            for group, max_len, rep in (
                    ("free1", 30, Representation(Presentation.free(1), {"a": gens[0]})),
                    ("free2", 8, free2_rep(ctx, *gens[:2])),
                    ("free3", 5, Representation(Presentation.free(3),
                                                dict(zip("abc", gens)))),
                    # a2 = b1 and b2 = a1, so [a1, b1][a2, b2] = 1 holds
                    ("genus2", 4, Representation(Presentation.surface(2), {
                        "a1": gens[0], "b1": gens[1], "a2": gens[1], "b2": gens[0]}))):
                save_representation(rep, str(path))
                argv = ["spectrum", str(path), "--max-len", str(max_len), "--tsv", str(target)]
                assert main(argv) == 0, group
                data = target.read_bytes()
                h.update(data)
                lines += data.count(b"\n")
    assert lines == 12 * (5 + 7 + 11 + 19) + 12 * sum(
        ball_size(rank, max_len) for rank, max_len in ((1, 30), (2, 8), (3, 5), (4, 4)))
    assert h.hexdigest() == SPECTRUM_CORPUS_SHA256


def test_spectrum_rows_refuse_at_the_call():
    # no row is asked for: the refusal must not wait for the first one
    rep = unbounded_irreducible_rep(CTX)
    with pytest.raises(CapExceededError):
        spectrum_rows(rep, 10**9)
    with pytest.raises(CapExceededError):
        spectrum_rows(rep, 3, max_words=10)
    with pytest.raises(ValidationError):
        spectrum_rows(rep, -1)


def test_spectrum_max_len_zero_and_negative():
    rep = unbounded_irreducible_rep(CTX)
    assert spectrum(rep, 0).entries == ((Word(()), 0),)
    with pytest.raises(ValidationError):
        spectrum(rep, -1)


def test_length_of_values():
    rep = unbounded_irreducible_rep(CTX)
    assert length_of(rep, Word(())) == 0
    assert length_of(rep, Word((1,))) == 2
    assert length_of(rep, Word((1, 2))) == 2
    assert length_of(rep, Word((2,))) == 0


@st.composite
def length_cases(draw):
    """A free rank-2 representation, its b sometimes of trace 0, and a
    word that may hold the out-of-rank letters 3 and -5."""
    p = draw(st.sampled_from((2, 3, 5, 7)))
    ctx = PrimeContext(p)
    rng = random.Random(draw(st.integers(0, 10**6)))
    a = random_sl2(rng, ctx)
    if draw(st.booleans()):
        x = Fraction(draw(st.integers(-50, 50)), draw(st.integers(1, 30)))
        y = Fraction(draw(st.integers(1, 50)), p ** draw(st.integers(0, 3)))
        b = SL2Matrix(((x, y), (-(1 + x * x) / y, -x)), ctx)
    else:
        b = random_sl2(rng, ctx)
    letters = draw(st.lists(st.sampled_from((1, -1, 2, -2) * 4 + (3, -5)), max_size=12))
    return free2_rep(ctx, a, b), Word(tuple(letters))


@settings(max_examples=300, deadline=None)
@given(length_cases())
def test_length_of_equals_translation_length(case):
    rep, w = case
    if any(abs(x) > 2 for x in w.letters):
        with pytest.raises(UnknownGeneratorError):
            length_of(rep, w)
        with pytest.raises(UnknownGeneratorError):
            rep.evaluate(w)
    else:
        assert length_of(rep, w) == translation_length(rep.evaluate(w))


def test_length_of_edge_cases():
    a = SL2Matrix(((Fraction(1, 9), 0), (0, 9)), CTX)
    b = SL2Matrix(((Fraction(1, 3), 1), (Fraction(-10, 9), Fraction(-1, 3))), CTX)
    rep = free2_rep(CTX, a, b)
    assert rep.evaluate(Word((2,))).trace() == 0
    for letters, ell in (((), 0), ((1,), 4), ((2,), 0), ((2, 2), 0), ((1, 2), 6)):
        assert length_of(rep, Word(letters)) == ell
        assert translation_length(rep.evaluate(Word(letters))) == ell
    with pytest.raises(UnknownGeneratorError):
        length_of(rep, Word((1, 3)))
    # a letter table whose determinant is not 1 is refused, as evaluate does
    a0, b0, c0, d0, den = rep._letters[1]
    object.__setattr__(rep, "_letters", {**rep._letters, 1: (a0, b0, c0, d0 + den, den)})
    for fn in (length_of, Representation.evaluate):
        with pytest.raises(DeterminantNotOneError):
            fn(rep, Word((1,)))


def test_spectrum_conjugation_invariance():
    rng = random.Random(6602)
    rep = unbounded_irreducible_rep(CTX)
    s = spectrum(rep, 3)
    for _ in range(3):
        h = random_sl2(rng, CTX, steps=3)
        sc = spectrum(rep.conjugated_by(h), 3)
        assert sc.entries == s.entries
        assert sc.fingerprint.entries == s.fingerprint.entries


def test_spectrum_abelian_length_law():
    # one shared rational eigenline: lengths are |2 * (net valuation)|
    rep = diag_rep(CTX)
    for w, l in spectrum(rep, 4).entries:
        net = sum(1 if x == 1 else -1 if x == -1 else -1 if x == 2 else 1
                  for x in w.letters)
        assert l == abs(2 * net)


def test_spectrum_tsv_golden():
    s = spectrum(unbounded_irreducible_rep(CTX), 1)
    assert to_tsv(s) == EXPECTED_TSV
    assert to_tsv(spectrum(unbounded_irreducible_rep(CTX), 1)) == EXPECTED_TSV


def test_tsv_rejects_letters_outside_rank():
    s = spectrum(unbounded_irreducible_rep(CTX), 1)
    bad = LengthSpectrum(s.presentation, s.prime, s.max_len,
                         s.entries + ((Word((3,)), 0),), s.fingerprint)
    with pytest.raises(UnknownGeneratorError):
        to_tsv(bad)


def test_spectrum_surface_presentation_header():
    diag = SL2Matrix(((3, 0), (0, Fraction(1, 3))), CTX)
    rot = SL2Matrix(((0, 1), (-1, 0)), CTX)
    rep = Representation(
        Presentation.surface(2),
        {"a1": diag, "b1": rot, "a2": rot, "b2": diag},
    )
    text = to_tsv(spectrum(rep, 1))
    lines = text.splitlines()
    assert lines[0] == "# presentation\tsurface(2)"
    assert len([l for l in lines if l.startswith("# fingerprint")]) == 15
    assert "a1\t2" in lines


def test_spectrum_word_cap():
    with pytest.raises(CapExceededError):
        spectrum(unbounded_irreducible_rep(CTX), 12)
    with pytest.raises(CapExceededError):
        spectrum(unbounded_irreducible_rep(CTX), 3, max_words=10)
    # huge bounds are refused after a few level sizes, in a fixed message
    rank2 = unbounded_irreducible_rep(CTX)
    rank1 = Representation(Presentation.free(1), {"a": rank2.matrix("a")})
    more = "more than {0} words, cap is {0}$"
    for rep, max_len, max_words, tail in (
            (rank2, 10**4, 500_000, more),
            (rank2, 10**9, 500_000, more),
            (rank1, 10**9, 500_000, "2000000001 words, cap is {0}$"),
            (rank2, 10**18, 10**18, more),
            (rank1, 10**18, 10**18, "2000000000000000001 words, cap is {0}$")):
        tracemalloc.start()
        try:
            with pytest.raises(CapExceededError,
                               match="^spectrum would hold " + tail.format(max_words)):
                spectrum(rep, max_len, max_words=max_words)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000


def test_spectrum_letter_cap():
    rank1 = Representation(Presentation.free(1),
                           {"a": unbounded_irreducible_rep(CTX).matrix("a")})
    with pytest.raises(CapExceededError,
                       match="^spectrum would hold 100010000 letters, cap is 8000000$"):
        spectrum_rows(rank1, 10**4)
    assert len(spectrum(rank1, 39, max_words=100).entries) == 79
    with pytest.raises(CapExceededError, match="^spectrum would hold 1640 letters"):
        spectrum(rank1, 40, max_words=100)


def test_bounded_rep_spectrum_is_zero():
    s = spectrum(sl2z_pair(CTX), 4)
    assert all(l == 0 for _, l in s.entries)
