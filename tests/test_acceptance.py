"""End-to-end acceptance checks.

Each test prints one PASS line and enforces its own wall-clock budget.
Oracles come from tests/_oracles.py (integer-triple tree arithmetic)
so the checked quantities are computed twice by unrelated code paths.
"""

import math
import random
import time
from fractions import Fraction

from sl2trees import (
    NotBoundedError,
    PrimeContext,
    Presentation,
    Representation,
    SL2Matrix,
    TreeVertex,
    Word,
    act,
    algebra_dimension,
    classify,
    conjugacy_test,
    distance,
    evaluate,
    fixed_lattice_certificate,
    fundamental_traces,
    is_bounded,
    is_reducible_over_rationals,
    parse_word,
    spectrum,
    trace_polynomial,
    translation_length,
    tree_ball,
)

from _oracles import (
    ball_vertices,
    children,
    displacement,
    distance_via_matrices,
    graph_distance,
    parent,
    vertex_key,
)
from conftest import (
    free2_rep,
    random_integral_sl2,
    random_noncommuting_pair,
    random_sl2,
    random_sl2_bounded_valuations,
    sl2z_pair,
)
from test_words import random_letters


def test_criterion_01_ball_valency_is_residue_size_plus_one():
    t0 = time.monotonic()
    for p in (2, 3, 5, 7):
        ctx = PrimeContext(p)
        origin = TreeVertex(0, 0, ctx)
        ball = tree_ball(origin, 1)
        degree = sum(1 for e in ball.edges if origin in (e.x, e.y))
        assert degree == p + 1
        assert len(ball.vertices) == p + 2
        if p == 3:
            assert degree == 4
    elapsed = time.monotonic() - t0
    assert elapsed < 1
    print(f"PASS criterion 1: ball valency p+1 for p in 2,3,5,7 "
          f"({elapsed:.2f}s)")


def test_criterion_02_translation_length_is_min_displacement_over_ball():
    t0 = time.monotonic()
    rng = random.Random(20240811)
    checked = 0
    cross_checked = 0
    for p in (2, 3):
        ctx = PrimeContext(p)
        origin = TreeVertex(0, 0, ctx)
        for i in range(50):
            h = random_sl2_bounded_valuations(rng, ctx, bound=3)
            if i % 2 == 0:
                k = rng.randint(1, 2)
                g0 = SL2Matrix(
                    ((Fraction(p) ** k, 0), (0, Fraction(p) ** -k)), ctx)
            else:
                g0 = random_integral_sl2(rng, ctx)
            g = g0.conjugated_by(h)
            ell = translation_length(g)
            if ell > 8:
                continue
            center = act(h, origin)
            den = math.lcm(g.a.denominator, g.b.denominator,
                           g.c.denominator, g.d.denominator)
            gn = (int(g.a * den), int(g.b * den),
                  int(g.c * den), int(g.d * den))
            triples = ball_vertices(
                vertex_key(center.level, center.center, p), 8, p)
            best = min(displacement(v, gn, den, p) for v in triples)
            assert best == ell
            checked += 1
            if i % 10 == 0:
                # oracle sanity: displacement agrees with d(v, g v)
                for v in rng.sample(sorted(triples), 5):
                    n, r, kk = v
                    vert = TreeVertex(n, Fraction(r, p ** kk), ctx)
                    assert displacement(v, gn, den, p) == distance(
                        vert, act(g, vert))
                    cross_checked += 1
    assert checked == 100 and cross_checked == 50
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(f"PASS criterion 2: 100 conjugated elements, translation length "
          f"= min displacement over radius-8 balls ({elapsed:.2f}s)")


def test_criterion_03_trace_polynomial_equals_direct_trace():
    t0 = time.monotonic()
    rng = random.Random(333)
    primes = (2, 3, 5)
    for case in range(200):
        rank = rng.randint(1, 3)
        w = Word(random_letters(rng, rank, rng.randint(1, 12)))
        poly = trace_polynomial(w, rank)
        for trial in range(5):
            ctx = PrimeContext(primes[(case + trial) % 3])
            mats = [random_sl2(rng, ctx, steps=3) for _ in range(rank)]
            direct = evaluate(w, mats).trace()
            assert poly.evaluate(fundamental_traces(mats)) == direct
    # the commutator trace certifies irreducibility for the integral pair
    pres = Presentation.free(2)
    commutator = parse_word("a b a' b'", pres)
    value = trace_polynomial(commutator, 2).evaluate(
        fundamental_traces(sl2z_pair(PrimeContext(3)).matrices))
    assert value == 3 and value != 2
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print(f"PASS criterion 3: 200 words x 5 assignments match direct "
          f"traces; commutator trace 3 on the integral pair "
          f"({elapsed:.2f}s)")


def _conjugated_generators_integral(rep, vertex) -> bool:
    # conjugate each generator by the lattice basis [[p^n, c], [0, 1]]
    pn = Fraction(rep.context.p) ** vertex.level
    c = vertex.center
    for m in rep.matrices:
        entries = (
            m.a - c * m.c,
            (c * (m.a - m.d) + m.b - c * c * m.c) / pn,
            m.c * pn,
            m.c * c + m.d,
        )
        for e in entries:
            if e != 0 and rep.context.valuation(e) < 0:
                return False
    return True


def test_criterion_04_boundedness_triad_agrees_on_corpus():
    t0 = time.monotonic()
    rng = random.Random(444)
    reps = []
    for i in range(13):  # integral
        ctx = PrimeContext((2, 3, 5)[i % 3])
        reps.append(free2_rep(ctx, random_integral_sl2(rng, ctx),
                              random_integral_sl2(rng, ctx)))
    for i in range(13):  # conjugated integral
        ctx = PrimeContext((2, 3, 5)[i % 3])
        h = random_sl2(rng, ctx, steps=3)
        reps.append(free2_rep(
            ctx,
            random_integral_sl2(rng, ctx).conjugated_by(h),
            random_integral_sl2(rng, ctx).conjugated_by(h)))
    for i in range(12):  # diagonal unbounded
        ctx = PrimeContext((2, 3, 5)[i % 3])
        p = ctx.p
        k, m = rng.randint(1, 3), rng.randint(-3, 3)
        reps.append(free2_rep(
            ctx,
            SL2Matrix(((Fraction(p) ** k, 0), (0, Fraction(p) ** -k)), ctx),
            SL2Matrix(((Fraction(p) ** m, 0), (0, Fraction(p) ** -m)), ctx)))
    for i in range(12):  # mixed
        ctx = PrimeContext((2, 3, 5)[i % 3])
        reps.append(free2_rep(ctx, random_sl2(rng, ctx),
                              random_sl2(rng, ctx)))
    assert len(reps) == 50
    bounded_seen = unbounded_seen = 0
    for rep in reps:
        bounded, witness = is_bounded(rep)
        try:
            cert = fixed_lattice_certificate(rep)
            succeeded = True
        except NotBoundedError:
            succeeded = False
        assert bounded == succeeded
        if succeeded:
            assert _conjugated_generators_integral(rep, cert)
            bounded_seen += 1
        else:
            assert witness is not None
            assert rep.context.valuation(rep.evaluate(witness).trace()) < 0
            unbounded_seen += 1
    assert bounded_seen >= 26 and unbounded_seen >= 12
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(f"PASS criterion 4: boundedness, certificate and integrality "
          f"agree on all 50 corpus members ({elapsed:.2f}s)")


def test_criterion_05_unbounded_irreducible_forces_full_algebra():
    t0 = time.monotonic()
    rng = random.Random(555)
    witnesses = 0
    for i in range(1000):
        ctx = PrimeContext((2, 3, 5)[i % 3])
        a, b = random_noncommuting_pair(rng, ctx, steps=3)
        rep = free2_rep(ctx, a, b)
        unbounded = not is_bounded(rep)[0]
        irreducible = not is_reducible_over_rationals(rep)[0]
        dim = algebra_dimension(rep)
        assert not (unbounded and irreducible and dim < 4)
        if unbounded and irreducible:
            assert dim == 4
            witnesses += 1
    assert witnesses > 100  # the regime under test actually occurs
    elapsed = time.monotonic() - t0
    assert elapsed < 60
    print(f"PASS criterion 5: 1000 random pairs, unbounded + irreducible "
          f"always has algebra dimension 4 ({witnesses} such cases, "
          f"{elapsed:.2f}s)")


def test_criterion_06_triangular_lengths_follow_the_eigen_character():
    t0 = time.monotonic()
    rng = random.Random(666)
    units = (1, 7, Fraction(7, 11), Fraction(1, 7))
    built = 0
    while built < 20:
        p = (2, 3, 5)[built % 3]
        ctx = PrimeContext(p)
        e1, e2 = rng.randint(-3, 3), rng.randint(-3, 3)
        if e1 == 0 and e2 == 0:
            continue
        lams = []
        offs = []
        for e in (e1, e2):
            u = rng.choice(units)
            while ctx.valuation(Fraction(u)) != 0:
                u = rng.choice(units)
            lams.append(Fraction(p) ** e * u)
            offs.append(Fraction(rng.randint(-9, 9), p ** rng.randint(0, 2)))
        a = SL2Matrix(((lams[0], offs[0]), (0, 1 / lams[0])), ctx)
        b = SL2Matrix(((lams[1], offs[1]), (0, 1 / lams[1])), ctx)
        rep = free2_rep(ctx, a, b)
        assert not is_bounded(rep)[0]
        v1, v2 = ctx.valuation(lams[0]), ctx.valuation(lams[1])
        for w, ell in spectrum(rep, 6).entries:
            character_val = sum(
                v1 if x == 1 else -v1 if x == -1 else
                v2 if x == 2 else -v2
                for x in w.letters)
            assert ell == abs(2 * character_val)
        built += 1
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(f"PASS criterion 6: 20 triangular representations, every length "
          f"up to |w|=6 equals |2 v(character)| ({elapsed:.2f}s)")


def test_criterion_07_three_distance_routes_agree():
    t0 = time.monotonic()
    rng = random.Random(777)
    pairs = 0
    distances_seen = set()
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        for _ in range(168):
            u = (0, 0, 0)
            for _ in range(rng.randint(0, 4)):
                u = rng.choice(children(u, p) + [parent(u, p)])
            path = [u]
            for _ in range(rng.randint(0, 8)):
                step = rng.choice(children(path[-1], p) + [parent(path[-1], p)])
                if len(path) >= 2 and path[-2] == step:
                    path.pop()
                else:
                    path.append(step)
            v = path[-1]
            d_walk = len(path) - 1
            mid = path[len(path) // 2]
            triples = ball_vertices(mid, (d_walk + 1) // 2, p)
            adjacency = {
                t: [w for w in children(t, p) + [parent(t, p)] if w in triples]
                for t in triples
            }
            d_bfs = graph_distance(adjacency, u, v)
            uu = TreeVertex(u[0], Fraction(u[1], p ** u[2]), ctx)
            vv = TreeVertex(v[0], Fraction(v[1], p ** v[2]), ctx)
            assert distance(uu, vv) == d_walk
            assert distance_via_matrices(uu, vv) == d_walk
            assert d_bfs == d_walk
            pairs += 1
            distances_seen.add(d_walk)
    assert pairs >= 500
    assert {0, 1, 2, 8} <= distances_seen
    elapsed = time.monotonic() - t0
    assert elapsed < 30
    print(f"PASS criterion 7: formula, elementary divisors and BFS agree "
          f"on {pairs} vertex pairs ({elapsed:.2f}s)")


def test_criterion_08_genus_two_spectrum_speed_and_invariance():
    ctx = PrimeContext(3)
    x = SL2Matrix(((3, 0), (0, Fraction(1, 3))), ctx)
    y = SL2Matrix(((1, 1), (1, 2)), ctx)
    rep = Representation(
        Presentation.surface(2), {"a1": x, "b1": y, "a2": y, "b2": x})
    t0 = time.monotonic()
    base = spectrum(rep, 6)
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    assert len(base.entries) == 156865
    rng = random.Random(888)
    for _ in range(5):
        h = random_sl2(rng, ctx, steps=3)
        conj = spectrum(rep.conjugated_by(h), 6)
        assert conj.entries == base.entries
        assert conj.fingerprint.entries == base.fingerprint.entries
    print(f"PASS criterion 8: genus-2 spectrum, 156865 words in "
          f"{elapsed:.2f}s, invariant under 5 conjugations")


def test_criterion_09_conjugacy_test_separates_fingerprints():
    t0 = time.monotonic()
    rng = random.Random(999)
    ctx = PrimeContext(3)
    corpus = []
    while len(corpus) < 20:
        a, b = random_noncommuting_pair(rng, ctx, steps=3)
        rep = free2_rep(ctx, a, b)
        if is_bounded(rep)[0] or is_reducible_over_rationals(rep)[0]:
            continue
        corpus.append(rep)
    for rep in corpus:
        h = random_sl2(rng, ctx, steps=3)
        assert conjugacy_test(rep, rep.conjugated_by(h)) is True
    separated = 0
    for i in range(len(corpus)):
        for j in range(i + 1, len(corpus)):
            if (corpus[i].fundamental().entries
                    != corpus[j].fundamental().entries):
                assert conjugacy_test(corpus[i], corpus[j]) is False
                separated += 1
    assert separated >= 150
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print(f"PASS criterion 9: 20 conjugated copies recognized, "
          f"{separated} distinct-fingerprint pairs separated "
          f"({elapsed:.2f}s)")


def _single_entry_perturbations(rows, p):
    """All det-1 variants with one entry pushed to valuation -1."""
    (a, b), (c, d) = rows
    shift = Fraction(1, p)
    return [
        ((a + shift, b), (c, (1 + b * c) / (a + shift))),
        (((1 + b * c) / (d + shift), b), (c, d + shift)),
        ((a, b + shift), ((a * d - 1) / (b + shift), d)),
        ((a, (a * d - 1) / (c + shift)), (c + shift, d)),
    ]


def test_criterion_10_integral_bounded_and_entry_perturbations_flip():
    t0 = time.monotonic()
    rng = random.Random(101010)
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        for _ in range(10):
            rep = free2_rep(ctx, random_integral_sl2(rng, ctx),
                            random_integral_sl2(rng, ctx))
            report = classify(rep)
            assert report.bounded
            assert report.fixed_lattice.text() == "(0; 0)"
    base_rows = (((1, 1), (1, 2)), ((2, 1), (1, 1)))
    positions = ((0, 0), (1, 1), (0, 1), (1, 0))
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        base = [SL2Matrix(rows, ctx) for rows in base_rows]
        assert classify(free2_rep(ctx, *base)).bounded
        flipped = 0
        for which in (0, 1):
            variants = _single_entry_perturbations(base_rows[which], p)
            for pos, rows in zip(positions, variants):
                mats = list(base)
                mats[which] = SL2Matrix(rows, ctx)
                i, j = pos
                assert ctx.valuation(mats[which].rows()[i][j]) == -1
                report = classify(free2_rep(ctx, *mats))
                assert not report.bounded
                assert report.unbounded_witness is not None
                witness_trace = free2_rep(ctx, *mats).evaluate(
                    report.unbounded_witness).trace()
                assert ctx.valuation(witness_trace) < 0
                flipped += 1
        assert flipped == 8
    elapsed = time.monotonic() - t0
    assert elapsed < 10
    print(f"PASS criterion 10: integral pairs classify bounded at the "
          f"standard vertex; all 24 single-entry valuation -1 "
          f"perturbations classify unbounded with a witness "
          f"({elapsed:.2f}s)")
