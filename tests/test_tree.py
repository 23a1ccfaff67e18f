import random
from fractions import Fraction

import pytest

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
    ball_vertex_count,
    canonical_vertex,
    distance,
    distance_via_matrices,
    edge_fixed_by,
    geodesic,
    neighbors,
    parse_vertex,
    tree_ball,
    vertex_type,
)

from sl2trees.tree import DEFAULT_NODE_CAP

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
        # tree parity: distance parity matches type parity
        assert duv % 2 == (vertex_type(u) + vertex_type(v)) % 2


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
                assert vertex_type(w) == (vertex_type(v) + 1) % 2


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
        assert vertex_type(act(g, u)) == vertex_type(u)


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
