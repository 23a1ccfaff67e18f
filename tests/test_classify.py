import hashlib
import importlib
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2trees import (
    CapExceededError,
    ContextMismatchError,
    NotBoundedError,
    PreconditionNotMetError,
    PrimeContext,
    Presentation,
    Representation,
    SL2Matrix,
    TreeVertex,
    ValidationError,
    Word,
    act,
    algebra_dimension,
    classify,
    commutator_trace_scan,
    conjugacy_test,
    fixed_lattice_certificate,
    fundamental_traces,
    is_bounded,
    is_reducible_over_rationals,
    parse_word,
    subset_keys,
)

from _oracles import (
    bounded_by_all_subsets, commutator_words, saturated_lattice, val_fraction)
from conftest import (
    diag_rep,
    free2_rep,
    random_integral_sl2,
    random_noncommuting_pair,
    random_sl2,
    sl2z_pair,
    unbounded_irreducible_rep,
)

CTX = PrimeContext(3)


def companion_rep(ctx, t):
    m = SL2Matrix(((0, -1), (1, t)), ctx)
    return free2_rep(ctx, m, m)


# -- representation construction -----------------------------------------


def test_assignment_validation():
    rot = SL2Matrix(((0, 1), (-1, 0)), CTX)
    with pytest.raises(ValidationError):
        Representation(Presentation.free(2), {"a": rot})
    with pytest.raises(ValidationError):
        Representation(Presentation.free(2), {"a": rot, "x": rot})
    with pytest.raises(ValidationError, match=r"names \[1, 'a'\]"):
        Representation(Presentation.free(2), {1: rot, "a": rot})
    with pytest.raises(ContextMismatchError):
        Representation(
            Presentation.free(2),
            {"a": rot, "b": SL2Matrix.identity(PrimeContext(5))},
        )


def test_relators_must_hold():
    rot = SL2Matrix(((0, 1), (-1, 0)), CTX)
    diag = SL2Matrix(((3, 0), (0, Fraction(1, 3))), CTX)
    with pytest.raises(ValidationError):
        Representation(
            Presentation.surface(2),
            {"a1": diag, "b1": rot, "a2": rot, "b2": rot},
        )
    # swapped-pair trick satisfies the genus-2 relator identically
    rep = Representation(
        Presentation.surface(2),
        {"a1": diag, "b1": rot, "a2": rot, "b2": diag},
    )
    assert rep.evaluate(rep.presentation.relators[0]) == SL2Matrix.identity(CTX)


def test_relator_image_must_be_the_identity_entrywise():
    # a unipotent relator image has the identity's diagonal, and -1 is
    # central with the right off-diagonal: neither is the identity
    u = SL2Matrix(((1, Fraction(1, 3)), (0, 1)), CTX)
    for m in (u, -SL2Matrix.identity(CTX)):
        with pytest.raises(ValidationError, match="relator"):
            Representation(Presentation.explicit(["a"], ["a"]), {"a": m})
    e = SL2Matrix.identity(CTX)
    assert Representation(Presentation.explicit(["a"], ["a"]), {"a": e})


def test_representation_helpers():
    rep = sl2z_pair(CTX)
    w = parse_word("a b a' b'", rep.presentation)
    assert rep.evaluate(w).trace() == 3
    assert rep.matrix("a").rows() == ((1, 1), (0, 1))
    assert [val for _, val in rep.fundamental().ordered()] == [2, 2, 3]
    h = SL2Matrix(((1, 0), (3, 1)), CTX)
    conj = rep.conjugated_by(h)
    assert conj.evaluate(w).trace() == 3
    assert conj.matrix("a") == rep.matrix("a").conjugated_by(h)


# -- boundedness ---------------------------------------------------------


def test_bounded_frozen_cases():
    assert is_bounded(sl2z_pair(CTX)) == (True, None)
    flag, witness = is_bounded(diag_rep(CTX))
    assert not flag
    assert witness == Word((1,))
    # witness really escapes the integers
    assert CTX.valuation(diag_rep(CTX).evaluate(witness).trace()) < 0


def test_witness_is_first_in_fundamental_order():
    ctx = CTX
    a = SL2Matrix(((1, 1), (0, 1)), ctx)
    b = SL2Matrix(((3, 0), (0, Fraction(1, 3))), ctx)
    flag, witness = is_bounded(free2_rep(ctx, a, b))
    assert not flag
    assert witness == Word((2,))
    # and a pair unbounded only through the product subset
    c = SL2Matrix(((0, Fraction(1, 3)), (-3, 0)), ctx)
    d = SL2Matrix(((0, -1), (1, 1)), ctx)
    flag, witness = is_bounded(free2_rep(ctx, c, d))
    assert not flag
    assert witness == Word((1, 2))


def test_certificate_for_conjugated_integral_rep():
    rng = random.Random(5501)
    origin = TreeVertex(0, 0, CTX)
    for _ in range(40):
        h = random_sl2(rng, CTX, steps=3)
        rep = sl2z_pair(CTX).conjugated_by(h)
        flag, witness = is_bounded(rep)
        assert flag and witness is None
        v = fixed_lattice_certificate(rep)
        # the SL2(Z) pair fixes exactly one vertex, so the certificate is forced
        assert v == act(h, origin)
        for g in rep.matrices:
            assert act(g, v) == v


def test_certificate_matches_the_fraction_oracle():
    # conjugated integral generators at p = 2, 3, 5, 7, ranks 1-3 and
    # conjugator depths 1-4; the projected vertex is the class of the
    # standard lattice saturated on Fraction vectors
    rng = random.Random(5506)
    for i in range(320):
        ctx = PrimeContext((2, 3, 5, 7)[i % 4])
        presentation = Presentation.free(1 + (i // 4) % 3)
        h = random_sl2(rng, ctx, steps=1 + (i // 12) % 4)
        rep = Representation(presentation, {
            name: random_integral_sl2(rng, ctx).conjugated_by(h)
            for name in presentation.generators})
        gens = [m.rows() for m in rep.matrices]
        v = fixed_lattice_certificate(rep)
        assert (v.level, v.center) == saturated_lattice(gens, ctx.p, 64)


def test_certificate_verification_catches_a_wrong_lattice(monkeypatch):
    # projections that never move leave the standard lattice, which the
    # conjugated SL2(Z) pair does not fix: the act check must refuse it
    module = importlib.import_module("sl2trees.isometry")
    rep = sl2z_pair(CTX).conjugated_by(SL2Matrix(((1, Fraction(1, 3)), (0, 1)), CTX))
    assert fixed_lattice_certificate(rep) != TreeVertex(0, 0, CTX)
    monkeypatch.setattr(module, "_toward", lambda u, v, k: u)
    with pytest.raises(ValidationError, match="failed verification"):
        fixed_lattice_certificate(rep)


def test_certificate_rejects_unbounded():
    with pytest.raises(NotBoundedError):
        fixed_lattice_certificate(diag_rep(CTX))


def test_boundedness_triad_random():
    rng = random.Random(5502)
    for _ in range(60):
        style = rng.randrange(3)
        if style == 0:
            a = random_integral_sl2(rng, CTX)
            b = random_integral_sl2(rng, CTX)
        else:
            a = random_sl2(rng, CTX, steps=3)
            b = random_sl2(rng, CTX, steps=3)
        rep = free2_rep(CTX, a, b)
        h = random_sl2(rng, CTX, steps=2)
        conj = rep.conjugated_by(h)
        flag, witness = is_bounded(rep)
        # conjugation invariance
        assert is_bounded(conj)[0] == flag
        if flag:
            v = fixed_lattice_certificate(rep)
            assert all(act(g, v) == v for g in rep.matrices)
        else:
            assert CTX.valuation(rep.evaluate(witness).trace()) < 0
            with pytest.raises(NotBoundedError):
                fixed_lattice_certificate(rep)


@settings(max_examples=150, deadline=None)
@given(rank=st.integers(2, 4), p=st.sampled_from([2, 3, 5]),
       seed=st.integers(0, 2**32), integral=st.booleans())
def test_is_bounded_matches_the_full_subset_scan(rank, p, seed, integral):
    # Serre, Trees, I.6.5, Cor. 2: the generators and their pairwise
    # products decide boundedness, so the longer products add no witness
    rng, ctx = random.Random(seed), PrimeContext(p)
    mats = [random_integral_sl2(rng, ctx) if integral else random_sl2(rng, ctx, steps=2)
            for _ in range(rank)]
    rep = Representation(Presentation.free(rank), dict(zip("abcd", mats)))
    rep = rep.conjugated_by(random_sl2(rng, ctx, steps=2))
    flag, witness = is_bounded(rep)
    rows = [((m.a, m.b), (m.c, m.d)) for m in rep.matrices]
    assert (flag, witness and witness.letters) == bounded_by_all_subsets(rows, p)


def test_is_bounded_witness_is_the_first_negative_fundamental_trace():
    # is_bounded and fundamental_traces read one route of subset products:
    # the witness is the first key of subset_keys(rank, 2) whose trace has
    # negative valuation, and there is none exactly when it is bounded
    rng, seen = random.Random(5507), set()
    for _ in range(150):
        rank, ctx = rng.randint(2, 4), PrimeContext(rng.choice((2, 3, 5)))
        mats = [random_integral_sl2(rng, ctx) if rng.random() < 0.3
                else random_sl2(rng, ctx, steps=2) for _ in range(rank)]
        rep = Representation(Presentation.free(rank), dict(zip("abcd", mats)))
        traces = fundamental_traces(rep.matrices)
        first = next((s for s in subset_keys(rank, 2) if ctx.valuation(traces[s]) < 0),
                     None)
        flag, witness = is_bounded(rep)
        assert flag == (first is None)
        assert (witness and witness.letters) == first
        seen.add(len(first or ()))
    assert seen == {0, 1, 2}


def test_representation_stores_matrices_in_presentation_order():
    ctx = CTX
    x, y = SL2Matrix(((3, 0), (0, Fraction(1, 3))), ctx), SL2Matrix(((0, 1), (-1, 0)), ctx)
    presentation = Presentation.explicit(["y", "x"], [])
    rep = Representation(presentation, [("x", x), ("y", y)])
    assert rep.matrices == (y, x)
    assert rep.matrix("x") is x and rep.matrix("y") is y
    assert rep == Representation(presentation, {"y": y, "x": x})
    assert hash(rep) == hash(Representation(presentation, {"y": y, "x": x}))
    assert rep.evaluate(Word((1, -2))) == y * x.inverse()
    assert not hasattr(rep, "assignment")


# -- reducibility and the algebra ----------------------------------------


def test_reducibility_frozen():
    assert is_reducible_over_rationals(diag_rep(CTX)) == (True, (1, 0))
    assert is_reducible_over_rationals(sl2z_pair(CTX)) == (False, None)
    assert is_reducible_over_rationals(unbounded_irreducible_rep(CTX)) == (False, None)
    e = SL2Matrix.identity(CTX)
    assert is_reducible_over_rationals(free2_rep(CTX, e, -e)) == (True, (1, 0))


def test_invariant_line_transported_by_conjugation():
    rng = random.Random(5503)
    for _ in range(30):
        h = random_sl2(rng, CTX, steps=2)
        flag, line = is_reducible_over_rationals(diag_rep(CTX).conjugated_by(h))
        assert flag
        x, y = line
        # h(1, 0) spans the transported line
        hx, hy = h.a, h.c
        assert hx * y == hy * x


def test_invariant_line_and_characters_match_fractions():
    # triangular generators [[t, s], [0, 1/t]] conjugated by h: the line
    # and the characters are re-derived in Fraction arithmetic
    rng = random.Random(5507)
    for i in range(120):
        ctx = PrimeContext((2, 3, 5, 7)[i % 4])
        p, presentation = ctx.p, Presentation.free(1 + (i // 4) % 3)
        h = random_sl2(rng, ctx, steps=1 + (i // 12) % 4)
        diagonal, assignment = {}, {}
        for name in presentation.generators:
            t = rng.choice([1, -1, 2, -3]) * Fraction(p) ** rng.randint(-2, 2)
            s = Fraction(rng.randint(-3, 3), p ** rng.randint(0, 2))
            diagonal[name] = t
            assignment[name] = SL2Matrix(((t, s), (0, 1 / t)), ctx).conjugated_by(h)
        rep = Representation(presentation, assignment)
        r = classify(rep)
        assert r.reducible_over_rationals
        x, y = r.invariant_line
        characters = []
        for name in presentation.generators:
            m = rep.matrix(name)
            ix, iy = m.a * x + m.b * y, m.c * x + m.d * y
            assert ix * y == iy * x
            lam = ix / x if x else iy / y
            characters.append((name, 2 * val_fraction(lam, p)))
        assert r.character_exponents == tuple(characters)
        if h.a * y == h.c * x:  # the line h (1, 0), where every eigenvalue is t
            assert characters == [(name, 2 * val_fraction(diagonal[name], p))
                                  for name in presentation.generators]


def test_algebra_dimension_frozen():
    e = SL2Matrix.identity(CTX)
    u = SL2Matrix(((1, 1), (0, 1)), CTX)
    d = SL2Matrix(((3, 0), (0, Fraction(1, 3))), CTX)
    assert algebra_dimension(free2_rep(CTX, e, -e)) == 1
    assert algebra_dimension(free2_rep(CTX, d, d)) == 2
    assert algebra_dimension(free2_rep(CTX, u, u)) == 2
    assert algebra_dimension(free2_rep(CTX, u, d)) == 3
    assert algebra_dimension(sl2z_pair(CTX)) == 4
    assert algebra_dimension(unbounded_irreducible_rep(CTX)) == 4


def test_classify_sl2z_pair():
    r = classify(sl2z_pair(CTX))
    assert r.prime == 3
    assert r.bounded and r.fixed_lattice == TreeVertex(0, 0, CTX)
    assert r.unbounded_witness is None
    assert not r.reducible_over_rationals and r.invariant_line is None
    assert r.algebra_dimension == 4 and r.absolutely_irreducible
    assert r.reducible_over_completion is None
    assert not r.zariski_dense and r.zariski_note is not None
    assert r.length_abelian
    assert r.character_exponents is None


def test_classify_computes_no_fundamental_traces(monkeypatch):
    # boundedness reads trace valuations off scaled images, so classify
    # builds no trace vector; the module, not the re-exported function
    module = importlib.import_module("sl2trees.classify")
    real, calls = module.fundamental_traces, []

    def counted(matrices):
        calls.append(matrices)
        return real(matrices)

    monkeypatch.setattr(module, "fundamental_traces", counted)
    assert classify(sl2z_pair(CTX)).bounded
    assert not classify(diag_rep(CTX)).bounded
    assert calls == []


def test_classify_shared_line_pair():
    ctx = CTX
    a = SL2Matrix(((3, 1), (0, Fraction(1, 3))), ctx)
    b = SL2Matrix(((Fraction(1, 3), 0), (0, 3)), ctx)
    r = classify(free2_rep(ctx, a, b))
    assert not r.bounded
    assert r.reducible_over_rationals and r.invariant_line == (1, 0)
    assert not r.zariski_dense
    assert r.length_abelian
    assert r.character_exponents == (("a", 2), ("b", -2))


def test_classify_unbounded_irreducible():
    r = classify(unbounded_irreducible_rep(CTX))
    assert not r.bounded
    assert not r.reducible_over_rationals
    assert r.algebra_dimension == 4 and r.absolutely_irreducible
    assert r.zariski_dense and r.zariski_note is None
    assert not r.length_abelian


def test_classify_quadratic_middle_cases():
    # unbounded abelian image with irrational eigenlines: splits over the
    # completion because hyperbolic discriminants are p-adic squares
    r = classify(companion_rep(CTX, Fraction(11, 3)))
    assert not r.bounded
    assert not r.reducible_over_rationals
    assert r.algebra_dimension == 2
    assert not r.absolutely_irreducible
    assert r.reducible_over_completion is True
    # bounded abelian image that stays irreducible even over the completion
    rot = SL2Matrix(((0, 1), (-1, 0)), CTX)
    r2 = classify(free2_rep(CTX, rot, rot))
    assert r2.bounded
    assert r2.algebra_dimension == 2
    assert r2.reducible_over_completion is False


def test_report_is_deterministic():
    rep = unbounded_irreducible_rep(CTX)
    assert classify(rep) == classify(rep)


def test_classification_invariants_random_corpus():
    rng = random.Random(5504)
    seen_dense = 0
    for _ in range(150):
        a, b = random_noncommuting_pair(rng, CTX, steps=rng.randint(2, 4))
        rep = free2_rep(CTX, a, b)
        r = classify(rep)
        assert r.absolutely_irreducible == (r.algebra_dimension == 4)
        if r.absolutely_irreducible:
            assert not r.reducible_over_rationals
        assert not (
            not r.bounded
            and not r.reducible_over_rationals
            and r.algebra_dimension < 4
        )
        assert r.zariski_dense == (not r.bounded and not r.reducible_over_rationals)
        assert r.length_abelian == (r.bounded or r.reducible_over_rationals)
        assert r.bounded == (r.unbounded_witness is None)
        assert r.bounded == (r.fixed_lattice is not None)
        if r.reducible_over_completion is not None:
            assert r.algebra_dimension <= 2 and not r.reducible_over_rationals
        # conjugation leaves every verdict flag alone
        h = random_sl2(rng, CTX, steps=2)
        rc = classify(rep.conjugated_by(h))
        assert (rc.bounded, rc.reducible_over_rationals, rc.algebra_dimension,
                rc.zariski_dense, rc.length_abelian) == (
            r.bounded, r.reducible_over_rationals, r.algebra_dimension,
            r.zariski_dense, r.length_abelian)
        seen_dense += r.zariski_dense
    # the corpus must exercise both branches
    assert 0 < seen_dense < 150


# -- commutator scan -----------------------------------------------------


def test_commutator_scan_reducible_means_all_two():
    scan = commutator_trace_scan(diag_rep(CTX), max_total_len=8)
    assert scan
    assert all(t == 2 for _, t in scan)


def test_commutator_scan_finds_witness_when_irreducible():
    scan = commutator_trace_scan(sl2z_pair(CTX), max_total_len=4)
    assert any(t != 2 for _, t in scan)
    words = {w.letters: t for w, t in scan}
    assert words[(1, 2, -1, -2)] == 3


# sha256 of repr([(w.letters, t.value) for w, t in scan]) at total length
# 4, frozen from the scan that multiplied out u v u^-1 v^-1 in Fractions
SCAN_GENUS2_SHA256 = (
    "f380ac994ac6fa4edfcfef9af39d9723afb0711d94d956ab41f786e7225db474")
SCAN_FREE3_SHA256 = (
    "9e6c922138b5ccfd6459a8d953fddf61a00929a8c3892830be59d50d1db7e41a")


def test_commutator_scan_frozen():
    a1 = SL2Matrix(((0, -1), (1, Fraction(7, 3))), CTX)
    b1 = SL2Matrix(((Fraction(1, 2), 1), (Fraction(-1, 2), 1)), CTX)
    genus2 = Representation(
        Presentation.surface(2), {"a1": a1, "b1": b1, "a2": b1, "b2": a1})
    a = SL2Matrix(((3, 0), (0, Fraction(1, 3))), CTX)
    b = SL2Matrix(((1, 1), (1, 2)), CTX)
    c = SL2Matrix(((Fraction(2, 5), 1), (Fraction(-3, 5), 1)), CTX)
    free3 = Representation(Presentation.free(3), {"a": a, "b": b, "c": c})
    for rep, digest in ((genus2, SCAN_GENUS2_SHA256), (free3, SCAN_FREE3_SHA256)):
        scan = commutator_trace_scan(rep, 4)
        data = repr([(w.letters, t.value) for w, t in scan]).encode()
        assert hashlib.sha256(data).hexdigest() == digest


def test_commutator_scan_counts_pairs_before_building_them():
    # total length 11 at rank 2: a 354 293-word ball, 5 196 313 pairs
    tracemalloc.start()
    try:
        with pytest.raises(CapExceededError, match="5196313"):
            commutator_trace_scan(sl2z_pair(CTX), max_total_len=11)
        # a huge bound is refused after a few pair counts
        with pytest.raises(CapExceededError, match="more than 500000 pairs"):
            commutator_trace_scan(sl2z_pair(CTX), max_total_len=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


@st.composite
def scan_cases(draw):
    """(rep, max_total_len): a random rep of rank 1-3, a genus-2 rep
    (x, y, y, x), a diagonal rep, or one of the two degenerate shapes (a
    cyclic image and an image in a torus normalizer), at total length 2-3."""
    ctx = PrimeContext(draw(st.sampled_from((2, 3, 5, 7))))
    rng = random.Random(draw(st.integers(0, 10**6)))
    shape = draw(st.sampled_from(("random", "genus2", "diagonal", "cyclic", "torus")))
    if shape == "random":
        rank = draw(st.integers(1, 3))
        rep = Representation(Presentation.free(rank),
                             zip("abc", (random_sl2(rng, ctx, steps=3) for _ in range(rank))))
    elif shape == "genus2":
        x, y = random_noncommuting_pair(rng, ctx, steps=3)
        rep = Representation(Presentation.surface(2), {"a1": x, "b1": y, "a2": y, "b2": x})
    elif shape == "diagonal":
        rep = diag_rep(ctx, draw(st.integers(1, 2)))
    elif shape == "cyclic":
        m = random_sl2(rng, ctx, steps=3)
        rep = free2_rep(ctx, m, m * m)
    else:
        t = Fraction(ctx.p) ** draw(st.integers(1, 2))
        rep = free2_rep(ctx, SL2Matrix(((t, 0), (0, 1 / t)), ctx),
                        SL2Matrix(((0, 1), (-1, 0)), ctx))
    return rep, draw(st.integers(2, 3))


@settings(max_examples=60, deadline=None)
@given(scan_cases())
def test_commutator_scan_values_match_traces(case):
    # every item against a double loop over the ball: its word, its place
    # in the list, and the trace of the word's image
    rep, max_total_len = case
    scan = commutator_trace_scan(rep, max_total_len)
    assert [w.letters for w, _ in scan] == commutator_words(
        rep.presentation.rank, max_total_len)
    for w, t in scan:
        assert t.value == rep.evaluate(w).trace() and t.context == rep.context


# -- conjugacy -----------------------------------------------------------


def test_conjugacy_recognizes_conjugates():
    rng = random.Random(5505)
    rep = unbounded_irreducible_rep(CTX)
    for _ in range(100):
        h = random_sl2(rng, CTX, steps=3)
        assert conjugacy_test(rep, rep.conjugated_by(h))


def test_conjugacy_rejects_different_fingerprints():
    ctx = CTX
    a = SL2Matrix(((3, 0), (0, Fraction(1, 3))), ctx)
    reps = []
    for t in range(1, 5):
        b = SL2Matrix(((1, t), (1, 1 + t)), ctx)
        reps.append(free2_rep(ctx, a, b))
    for i, r1 in enumerate(reps):
        for j, r2 in enumerate(reps):
            assert conjugacy_test(r1, r2) == (i == j)


def test_conjugacy_is_over_gl2_not_sl2():
    # fundamental-trace equality decides conjugacy in GL2(Q) (Skolem-Noether):
    # b2 = h b h^-1 for h = diag(2, 1), of determinant 2.  Both images are
    # absolutely irreducible, so every conjugator is a scalar l h, of
    # determinant 2 l^2 != 1: no SL2(Q) element conjugates the two
    a = SL2Matrix(((3, 0), (0, Fraction(1, 3))), CTX)
    b = SL2Matrix(((1, 1), (1, 2)), CTX)
    b2 = SL2Matrix(((1, 2), (Fraction(1, 2), 2)), CTX)
    (e, f), (g, k) = b.rows()
    assert b2.rows() == ((e, 2 * f), (g / 2, k))  # h b h^-1
    rep, rep2 = free2_rep(CTX, a, b), free2_rep(CTX, a, b2)
    assert conjugacy_test(rep, rep2) is True
    assert algebra_dimension(rep) == algebra_dimension(rep2) == 4


def test_conjugacy_preconditions():
    with pytest.raises(PreconditionNotMetError):
        conjugacy_test(sl2z_pair(CTX), sl2z_pair(CTX))
    with pytest.raises(PreconditionNotMetError):
        conjugacy_test(diag_rep(CTX), diag_rep(CTX))
    with pytest.raises(ContextMismatchError):
        conjugacy_test(
            unbounded_irreducible_rep(CTX),
            unbounded_irreducible_rep(PrimeContext(5)),
        )
