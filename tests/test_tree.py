import copy
import hashlib
import pickle
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2trees import (
    CapExceededError,
    ContextMismatchError,
    PrimeContext,
    SingularMatrixError,
    SL2Matrix,
    TreeEdge,
    TreeVertex,
    ValidationError,
    act,
    axis_segment,
    ball_vertex_count,
    canonical_vertex,
    distance,
    edge_fixed_by,
    fixed_vertex,
    geodesic,
    neighbors,
    parse_vertex,
    translation_length,
    tree_ball,
)

from sl2trees.tree import DEFAULT_NODE_CAP, _inverse_mod

from _oracles import distance_via_matrices, inverse_mod_prime_power
from conftest import random_integral_sl2, random_sl2

CTX = PrimeContext(3)


def random_vertex(rng, ctx, level_range=3):
    n = rng.randint(-level_range, level_range)
    c = Fraction(rng.randint(-80, 80), ctx.p ** rng.randint(0, 3))
    return TreeVertex(n, c, ctx)


# -- canonical form ------------------------------------------------------


def test_center_canonicalization_frozen():
    assert TreeVertex(2, 10, CTX).center == 1
    assert TreeVertex(0, Fraction(-1, 9), CTX).center == Fraction(8, 9)
    assert TreeVertex(-2, 5, CTX).center == 0
    assert TreeVertex(-1, Fraction(1, 9), CTX).center == Fraction(1, 9)
    assert TreeVertex(1, Fraction(1, 3), CTX).center == Fraction(1, 3)
    assert TreeVertex(2, 4, CTX) == TreeVertex(2, 13, CTX)


def test_center_canonicalization_is_stable():
    rng = random.Random(2201)
    for _ in range(300):
        v = random_vertex(rng, CTX)
        assert TreeVertex(v.level, v.center, CTX) == v
        assert 0 <= v.center < Fraction(3) ** v.level


def test_vertex_text_and_parse_round_trip():
    rng = random.Random(2202)
    for _ in range(100):
        v = random_vertex(rng, CTX)
        assert parse_vertex(v.text(), CTX) == v
    assert parse_vertex("(2; 4/3)", CTX) == TreeVertex(2, Fraction(4, 3), CTX)
    with pytest.raises(ValidationError):
        parse_vertex("(2, 4)", CTX)
    with pytest.raises(ValidationError):
        parse_vertex("2; 4", CTX)
    with pytest.raises(ValidationError):
        parse_vertex("(2; 1/0)", CTX)
    # 3**9012 has 4300 digits and 3**9013 has 4301
    assert parse_vertex("(9012; 0)", CTX).level == 9012
    for text in ("(" + "1" * 5000 + "; 0)", "(2; " + "1" * 5000 + ")",
                 "(2; 1/" + "3" * 5000 + ")", "(9013; 0)", "(-9013; 0)",
                 "(10000000; 1)"):
        with pytest.raises(ValidationError, match="4300 digits"):
            parse_vertex(text, CTX)
    # the center of (9100; -1) is 3**9100 - 1, of 4342 digits
    with pytest.raises(ValidationError, match="4300 digits"):
        TreeVertex(9100, -1, CTX).text()


def test_canonical_vertex_frozen():
    assert canonical_vertex(((1, 0), (0, 1)), CTX) == TreeVertex(0, 0, CTX)
    assert canonical_vertex(((3, 0), (0, 1)), CTX) == TreeVertex(1, 0, CTX)
    assert canonical_vertex(((1, 0), (0, 3)), CTX) == TreeVertex(-1, 0, CTX)
    assert canonical_vertex(((Fraction(1, 3), 5), (0, 9)), CTX) == TreeVertex(-3, 0, CTX)


def test_canonical_vertex_singular():
    with pytest.raises(SingularMatrixError):
        canonical_vertex(((1, 1), (1, 1)), CTX)
    with pytest.raises(SingularMatrixError):
        canonical_vertex(((0, 0), (0, 0)), CTX)


def test_canonical_vertex_of_a_matrix_is_its_image_of_the_origin():
    # an SL2Matrix goes through act, plain rows through the scaling that
    # SL2Matrix's constructor uses; the two routes meet at _span_vertex
    rng = random.Random(2209)
    for p in (2, 3, 5, 7):
        ctx = PrimeContext(p)
        origin = TreeVertex(0, 0, ctx)
        for _ in range(60):
            g = random_sl2(rng, ctx)
            v = canonical_vertex(g)
            assert type(v) is TreeVertex
            assert v == act(g, origin) == canonical_vertex(g.rows(), ctx)


def test_canonical_vertex_lattice_class_invariance():
    # right multiplication by an integral unit-determinant matrix and global
    # rational scaling both preserve the lattice class
    rng = random.Random(2203)
    for _ in range(200):
        rows = [[Fraction(rng.randint(-40, 40), 3 ** rng.randint(0, 2)) for _ in range(2)]
                for _ in range(2)]
        det = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
        if det == 0:
            continue
        base = canonical_vertex(rows, CTX)
        while True:
            u = [[rng.randint(-6, 6) for _ in range(2)] for _ in range(2)]
            udet = u[0][0] * u[1][1] - u[0][1] * u[1][0]
            if udet != 0 and udet % 3 != 0:
                break
        prod = [
            [rows[0][0] * u[0][0] + rows[0][1] * u[1][0],
             rows[0][0] * u[0][1] + rows[0][1] * u[1][1]],
            [rows[1][0] * u[0][0] + rows[1][1] * u[1][0],
             rows[1][0] * u[0][1] + rows[1][1] * u[1][1]],
        ]
        assert canonical_vertex(prod, CTX) == base
        scale = Fraction(rng.choice([1, 2, 5]), rng.choice([1, 7])) * Fraction(3) ** rng.randint(-2, 2)
        scaled = [[scale * x for x in row] for row in rows]
        assert canonical_vertex(scaled, CTX) == base


# -- distance and geodesics ----------------------------------------------


def test_distance_frozen():
    assert distance(TreeVertex(2, 1, CTX), TreeVertex(2, 4, CTX)) == 2
    assert distance(TreeVertex(0, 0, CTX), TreeVertex(2, 4, CTX)) == 2
    assert distance(TreeVertex(0, 0, CTX), TreeVertex(0, 0, CTX)) == 0
    assert distance(TreeVertex(-2, 0, CTX), TreeVertex(2, 0, CTX)) == 4
    assert distance(TreeVertex(1, 1, CTX), TreeVertex(1, 2, CTX)) == 2


def test_distance_metric_properties():
    rng = random.Random(2204)
    for _ in range(300):
        u = random_vertex(rng, CTX)
        v = random_vertex(rng, CTX)
        w = random_vertex(rng, CTX)
        duv = distance(u, v)
        assert duv >= 0
        assert (duv == 0) == (u == v)
        assert duv == distance(v, u)
        assert duv <= distance(u, w) + distance(w, v)
        # tree parity: distance parity matches level parity
        assert duv % 2 == (u.level + v.level) % 2


def test_distance_routes_agree():
    rng = random.Random(2205)
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        for _ in range(200):
            u = random_vertex(rng, ctx)
            v = random_vertex(rng, ctx)
            d = distance(u, v)
            assert d == distance_via_matrices(u, v)
            assert d == len(geodesic(u, v)) - 1


def test_distance_context_mismatch():
    with pytest.raises(ContextMismatchError):
        distance(TreeVertex(0, 0, CTX), TreeVertex(0, 0, PrimeContext(5)))


def test_geodesic_frozen():
    path = geodesic(TreeVertex(2, 1, CTX), TreeVertex(2, 4, CTX))
    assert [v.text() for v in path] == ["(2; 1)", "(1; 1)", "(2; 4)"]


def test_geodesic_properties():
    rng = random.Random(2206)
    for _ in range(200):
        u = random_vertex(rng, CTX)
        v = random_vertex(rng, CTX)
        path = geodesic(u, v)
        assert path[0] == u and path[-1] == v
        assert len(set(path)) == len(path)
        for a, b in zip(path, path[1:]):
            assert distance(a, b) == 1
    assert geodesic(TreeVertex(1, 1, CTX), TreeVertex(1, 1, CTX)) == [TreeVertex(1, 1, CTX)]


# -- neighbors -----------------------------------------------------------


def test_neighbors_frozen():
    assert [v.text() for v in neighbors(TreeVertex(0, 0, CTX))] == [
        "(-1; 0)", "(1; 0)", "(1; 1)", "(1; 2)"]
    assert [v.text() for v in neighbors(TreeVertex(1, 2, PrimeContext(5)))] == [
        "(0; 0)", "(2; 2)", "(2; 7)", "(2; 12)", "(2; 17)", "(2; 22)"]


def test_neighbors_properties():
    rng = random.Random(2207)
    for p in (2, 3, 5, 7):
        ctx = PrimeContext(p)
        for _ in range(50):
            v = random_vertex(rng, ctx)
            ns = neighbors(v)
            assert len(ns) == p + 1
            assert len(set(ns)) == p + 1
            for w in ns:
                assert distance(v, w) == 1
                assert w.level % 2 == (v.level + 1) % 2


# -- group action --------------------------------------------------------


def test_act_frozen():
    g = SL2Matrix(((3, 0), (0, Fraction(1, 3))), CTX)
    assert act(g, TreeVertex(0, 0, CTX)) == TreeVertex(2, 0, CTX)
    u = SL2Matrix(((1, 1), (0, 1)), CTX)
    assert act(u, TreeVertex(0, 0, CTX)) == TreeVertex(0, 0, CTX)
    assert act(u, TreeVertex(1, 0, CTX)) == TreeVertex(1, 1, CTX)


def test_act_is_isometric_action():
    rng = random.Random(2208)
    for _ in range(150):
        g = random_sl2(rng, CTX)
        h = random_sl2(rng, CTX)
        u = random_vertex(rng, CTX)
        v = random_vertex(rng, CTX)
        assert act(g, act(h, u)) == act(g * h, u)
        assert distance(act(g, u), act(g, v)) == distance(u, v)
        assert act(g, u).level % 2 == u.level % 2


def test_integral_matrices_fix_origin():
    rng = random.Random(2209)
    origin = TreeVertex(0, 0, CTX)
    for _ in range(100):
        g = random_integral_sl2(rng, CTX)
        assert act(g, origin) == origin


# -- edges and balls -----------------------------------------------------


def test_edge_validation_and_fixing():
    e = TreeEdge(TreeVertex(0, 0, CTX), TreeVertex(1, 0, CTX))
    assert edge_fixed_by(SL2Matrix(((1, 3), (0, 1)), CTX), e)
    assert not edge_fixed_by(SL2Matrix(((1, 1), (0, 1)), CTX), e)
    assert edge_fixed_by(SL2Matrix.identity(CTX), e)
    with pytest.raises(ValidationError):
        TreeEdge(TreeVertex(0, 0, CTX), TreeVertex(2, 0, CTX))


def test_edges_are_vertex_pairs_that_copy_and_pickle():
    for p in (2, 3, 7):
        ctx = PrimeContext(p)
        ball = tree_ball(TreeVertex(1, Fraction(1, p), ctx), 2)
        for e in ball.edges:
            assert type(e) is TreeEdge and isinstance(e, tuple)
            assert e == (e.x, e.y) and hash(e) == hash((e.x, e.y))
            assert distance(*e) == 1
        for edges in (copy.deepcopy(ball.edges), copy.copy(ball.edges),
                      pickle.loads(pickle.dumps(ball.edges))):
            assert edges == ball.edges
            assert all(type(e) is TreeEdge and type(e.x) is TreeVertex for e in edges)
        assert copy.deepcopy(ball) == ball
    with pytest.raises(AttributeError):
        ball.edges[0].x = ball.edges[0].y


def test_ball_vertex_count_formula():
    assert ball_vertex_count(3, 0) == 1
    assert ball_vertex_count(3, 1) == 5
    assert ball_vertex_count(3, 2) == 17
    assert ball_vertex_count(2, 3) == 1 + 3 * (2 ** 3 - 1)
    assert ball_vertex_count(5, 2) == 37


def test_tree_ball_structure():
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        center = TreeVertex(0, 0, ctx)
        for radius in (0, 1, 2, 3):
            b = tree_ball(center, radius)
            assert b.center == center
            assert len(b.vertices) == ball_vertex_count(p, radius)
            assert len(set(b.vertices)) == len(b.vertices)
            assert len(b.edges) == len(b.vertices) - 1
            assert all(distance(e.x, e.y) == 1 for e in b.edges)
            assert max(distance(center, v) for v in b.vertices) == radius


def test_tree_ball_off_origin_center():
    center = TreeVertex(-1, Fraction(1, 3), CTX)
    b = tree_ball(center, 2)
    assert len(b.vertices) == 17
    assert center in b.vertices


def test_tree_ball_cap():
    with pytest.raises(CapExceededError):
        tree_ball(TreeVertex(0, 0, CTX), 12)
    # explicit budget raises earlier
    with pytest.raises(CapExceededError):
        tree_ball(TreeVertex(0, 0, CTX), 3, max_nodes=10)
    for radius in (10**4, 10**9):
        with pytest.raises(CapExceededError, match="^ball would hold more than "
                           "100000 vertices, cap is 100000$"):
            tree_ball(TreeVertex(0, 0, CTX), radius)


def test_geodesic_cap():
    origin = TreeVertex(0, 0, CTX)
    far = TreeVertex(DEFAULT_NODE_CAP - 1, 0, CTX)
    assert len(geodesic(origin, far)) == DEFAULT_NODE_CAP
    for level, count in ((DEFAULT_NODE_CAP, 100001), (10**9, 1000000001)):
        with pytest.raises(CapExceededError, match=f"^geodesic would hold {count} "
                           "vertices, cap is 100000$"):
            geodesic(origin, TreeVertex(level, 0, CTX))


def test_neighbors_match_independent_triple_arithmetic():
    # the oracle adjacency used by the acceptance suite and the library's
    # neighbors() must describe the same graph, including negative levels
    from _oracles import ball_vertices, children, parent, vertex_key

    rng = random.Random(2303)
    for p in (2, 3, 5):
        ctx = PrimeContext(p)
        for _ in range(100):
            v = TreeVertex(
                rng.randint(-5, 5),
                Fraction(rng.randint(0, p ** 7), p ** rng.randint(0, 6)),
                ctx,
            )
            t = vertex_key(v.level, v.center, p)
            mine = set(children(t, p) + [parent(t, p)])
            lib = {vertex_key(w.level, w.center, p) for w in neighbors(v)}
            assert mine == lib
        ball = tree_ball(TreeVertex(0, 0, ctx), 4)
        triples = ball_vertices((0, 0, 0), 4, p)
        assert {vertex_key(w.level, w.center, p)
                for w in ball.vertices} == triples


# -- the integer kernel against Fractions ---------------------------------

PRIMES = (2, 3, 5, 7)


@st.composite
def rationals(draw, p, mixed, bound=10 ** 4):
    """A rational whose denominator is a power of p, times a number
    prime to p when mixed."""
    q = draw(st.integers(1, 40).filter(lambda q: q % p)) if mixed else 1
    return Fraction(draw(st.integers(-bound, bound)), p ** draw(st.integers(0, 4)) * q)


@st.composite
def kernel_inputs(draw):
    """A prime, a vertex (level -6..6, any rational center) and a product
    of elementary and diagonal determinant-1 matrices."""
    p = draw(st.sampled_from(PRIMES))
    ctx = PrimeContext(p)
    v = TreeVertex(draw(st.integers(-6, 6)), draw(rationals(p, draw(st.booleans()))), ctx)
    mixed = draw(st.booleans())
    g = SL2Matrix.identity(ctx)
    for kind in draw(st.lists(st.sampled_from("ULD"), min_size=1, max_size=4)):
        x = draw(rationals(p, mixed))
        if kind == "D":
            x = x or Fraction(p)
            g = g * SL2Matrix(((x, 0), (0, 1 / x)), ctx)
        else:
            g = g * SL2Matrix(((1, x), (0, 1)) if kind == "U" else ((1, 0), (x, 1)), ctx)
    return ctx, v, g


def assert_canonical(vertices):
    for v in vertices:
        assert TreeVertex(v.level, v.center, v.context) == v


@settings(max_examples=300, deadline=None)
@given(kernel_inputs())
def test_act_equals_the_fraction_oracle(case):
    from _oracles import act_fraction, canonical_fraction

    ctx, v, g = case
    image = act(g, v)
    assert (image.level, image.center) == act_fraction(g.rows(), v.level, v.center, ctx.p)
    assert_canonical([image])
    rows = ((g.a, g.b + v.center), (g.c * ctx.p ** 2, g.d))
    if rows[0][0] * rows[1][1] != rows[0][1] * rows[1][0]:
        w = canonical_vertex(rows, ctx)
        assert (w.level, w.center) == canonical_fraction(rows, ctx.p)


@settings(max_examples=150, deadline=None)
@given(kernel_inputs())
def test_kernel_returns_canonical_vertices(case):
    ctx, v, g = case
    image = act(g, v)
    assert_canonical(neighbors(v))
    assert_canonical(geodesic(v, image))
    assert_canonical(geodesic(image, v))
    assert_canonical([canonical_vertex(g)])
    ball = tree_ball(v, 2)
    assert_canonical(ball.vertices)
    for e in ball.edges:
        assert TreeEdge(e.x, e.y) == e
    if translation_length(g):
        assert_canonical(axis_segment(g, 3).vertices)
    else:
        assert_canonical([fixed_vertex(g)])


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(PRIMES), st.integers(1, 12) | st.integers(1000, 3000),
       st.integers(-10 ** 600, 10 ** 600))
def test_inverse_mod_equals_pow(p, k, q):
    # Newton lifting from the inverse mod p, at small exponents and at
    # exponents in the thousands; q of up to 600 digits, either sign
    q = q if q % p else q + 1
    assert _inverse_mod(q, p, k) == inverse_mod_prime_power(q, p, k)


@st.composite
def vertex_pairs(draw):
    """Two vertices, each with its own PrimeContext, of one prime more often
    than not; half the time the second has the first's level and center
    moved by a multiple of q^level, q its prime."""
    p = draw(st.sampled_from(PRIMES))
    q = p if draw(st.booleans()) else draw(st.sampled_from(PRIMES))
    level = draw(st.integers(-4, 4))
    center = draw(rationals(p, draw(st.booleans()), bound=500))
    u = TreeVertex(level, center, PrimeContext(p))
    if draw(st.booleans()):
        center += draw(st.integers(-3, 3)) * Fraction(q) ** level
    else:
        level, center = draw(st.integers(-4, 4)), draw(rationals(q, draw(st.booleans()), bound=500))
    return u, TreeVertex(level, center, PrimeContext(q))


@settings(max_examples=300, deadline=None)
@given(vertex_pairs())
def test_vertex_equality_hash_and_stored_form(pair):
    u, v = pair
    same = (u.level, u.center, u.context.p) == (v.level, v.center, v.context.p)
    assert (u == v) is same and (u != v) is not same
    if same:  # unequal vertices may still share a hash, as -1 and -2 do
        assert hash(u) == hash(v)
    for w in pair:
        n, r, e, ctx = w  # the stored center r / p^e, in lowest terms
        p = ctx.p
        assert e >= 0 and (r % p or e == 0) and (r or e == 0)
        c = w.center
        assert type(c) is Fraction and c.denominator == p ** e
        assert 0 <= c < Fraction(p) ** n
        assert TreeVertex(n, c, PrimeContext(p)) == w == pickle.loads(pickle.dumps(w))
        for name in ("level", "center", "context"):
            with pytest.raises(AttributeError):
                setattr(w, name, 0)


def test_kernel_builds_no_fraction(monkeypatch):
    # the kernel reads and builds the integers (level, r, e): counted at
    # Fraction.__new__, a seeded corpus of its calls constructs no
    # Fraction in tree.py or anywhere else (reading .center builds one)
    rng = random.Random(2211)
    cases = [(random_sl2(rng, PrimeContext(p)), random_vertex(rng, PrimeContext(p)))
             for p in PRIMES for _ in range(25)]
    built = []
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        built.append(args)
        return fraction_new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting_new)
    for g, v in cases:
        w = act(g, v)
        neighbors(w), distance(v, w), geodesic(v, w), tree_ball(v, 2), canonical_vertex(g)
        axis_segment(g, 3) if translation_length(g) else fixed_vertex(g)
    assert built == []
    cases[0][1].center  # a read builds one, so the counter counts
    assert len(built) == 1


def test_kernel_corpus_frozen():
    # sha256 of the (level; center) outputs of a seeded corpus of act,
    # geodesic, axis_segment and radius-3 tree_ball calls, computed on the
    # Fraction kernel before the integer one replaced it
    rng = random.Random(2210)
    lines = []
    for p in PRIMES:
        ctx = PrimeContext(p)
        for _ in range(60):
            g = random_sl2(rng, ctx)
            level, num = rng.randint(-4, 4), rng.randint(-99, 99)
            q = rng.choice((1, p, p * p, 2 * p + 1 if p != 2 else 9))
            u = TreeVertex(level, Fraction(num, q), ctx)
            v = TreeVertex(rng.randint(-4, 4),
                           Fraction(rng.randint(-99, 99), p ** rng.randint(0, 3)), ctx)
            lines.append([act(g, u)])
            lines.append(geodesic(u, act(g, v)))
            if translation_length(g):
                lines.append(axis_segment(g, rng.randint(1, 4)).vertices)
        lines.append(tree_ball(u, 3).vertices)
    h = hashlib.sha256()
    for vs in lines:
        h.update((" ".join(f"({v.level};{v.center})" for v in vs) + "\n").encode())
    assert len(lines) == 656
    assert h.hexdigest() == (
        "2eb8c2f7913101efaae7fc301698c93f4e6e479b95dec2ef3249231bf2ed12f8")


def test_long_axes_and_geodesics_are_fast():
    # all three took seconds on the Fraction kernel (0.3 s, 1.9 s and,
    # at window 8000, 3.2 s); their work is now linear in the path
    a = SL2Matrix(((3, 0), (0, Fraction(1, 3))), CTX)
    start = time.perf_counter()
    assert len(axis_segment(a, 2000).vertices) == 4001
    assert time.perf_counter() - start < 2
    start = time.perf_counter()
    path = geodesic(TreeVertex(0, Fraction(1, 3), CTX), TreeVertex(20000, 5, CTX))
    assert len(path) == 20003 and path[-1].center == 5
    assert time.perf_counter() - start < 1
    start = time.perf_counter()
    origin = TreeVertex(0, 0, CTX)
    assert len(geodesic(origin, TreeVertex(DEFAULT_NODE_CAP - 1, 0, CTX))) == DEFAULT_NODE_CAP
    assert time.perf_counter() - start < 1
