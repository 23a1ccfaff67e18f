import hashlib
import importlib
import random
import tracemalloc
from fractions import Fraction

import pytest

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
    is_bounded,
    is_reducible_over_rationals,
    parse_word,
)

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


def test_representation_helpers():
    rep = sl2z_pair(CTX)
    w = parse_word("a b a' b'", rep.presentation)
    assert rep.trace(w) == 3
    assert rep.matrix("a").rows() == ((1, 1), (0, 1))
    assert [val for _, val in rep.fundamental().ordered()] == [2, 2, 3]
    h = SL2Matrix(((1, 0), (3, 1)), CTX)
    conj = rep.conjugated_by(h)
    assert conj.trace(w) == 3
    assert conj.matrix("a") == rep.matrix("a").conjugated_by(h)


# -- boundedness ---------------------------------------------------------


def test_bounded_frozen_cases():
    assert is_bounded(sl2z_pair(CTX)) == (True, None)
    flag, witness = is_bounded(diag_rep(CTX))
    assert not flag
    assert witness == Word((1,))
    # witness really escapes the integers
    assert diag_rep(CTX).trace(witness).valuation() < 0


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
            assert rep.trace(witness).valuation() < 0
            with pytest.raises(NotBoundedError):
                fixed_lattice_certificate(rep)


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


def test_classify_computes_fundamental_traces_once(monkeypatch):
    # the module, not the package's re-exported `classify` function
    module = importlib.import_module("sl2trees.classify")
    real, calls = module.fundamental_traces, []

    def counted(matrices):
        calls.append(matrices)
        return real(matrices)

    monkeypatch.setattr(module, "fundamental_traces", counted)
    assert classify(sl2z_pair(CTX)).bounded
    assert len(calls) == 1


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


def test_classify_max_iterations_forwarded():
    rep = sl2z_pair(CTX)
    assert classify(rep, max_saturation_rounds=2).bounded


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
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100_000


def test_commutator_scan_values_match_traces():
    rep = unbounded_irreducible_rep(CTX)
    for w, t in commutator_trace_scan(rep, max_total_len=3):
        assert rep.trace(w) == t


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
