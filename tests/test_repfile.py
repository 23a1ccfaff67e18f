import copy
import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sl2trees import (
    PrimeContext,
    PrimeNotPrimeError,
    Presentation,
    Representation,
    SL2Matrix,
    Sl2TreesError,
    ValidationError,
    load_representation,
    parse_representation,
    representation_to_data,
    save_representation,
    word_to_text,
)

from conftest import sl2z_pair, unbounded_irreducible_rep


def doc(prime=3, group=None, generators=None):
    return {
        "prime": prime,
        "group": group or {"kind": "free", "rank": 2},
        "generators": generators or {
            "a": [["3", "0"], ["0", "1/3"]],
            "b": [["1", "1"], ["1", "2"]],
        },
    }


def test_parse_minimal_free_document():
    rep = parse_representation(doc())
    assert rep.context.p == 3
    assert rep.presentation.descriptor() == "free(2)"
    assert rep.matrix("a") == SL2Matrix(
        ((3, 0), (0, Fraction(1, 3))), PrimeContext(3))


def test_integer_entries_accepted():
    rep = parse_representation(
        doc(generators={"a": [[3, 0], [0, "1/3"]], "b": [[1, 1], [1, 2]]})
    )
    assert rep.matrix("b").a == 1


def test_round_trip_free_with_names(tmp_path):
    rep = unbounded_irreducible_rep(PrimeContext(3))
    path = tmp_path / "rep.json"
    save_representation(rep, str(path))
    back = load_representation(str(path))
    assert back.presentation == rep.presentation
    assert back.matrices == rep.matrices
    data = json.loads(path.read_text())
    assert data["group"] == {
        "kind": "free", "rank": 2, "generators": ["a", "b"]}
    assert data["generators"]["a"] == [["3", "0"], ["0", "1/3"]]


def test_round_trip_surface(tmp_path):
    ctx = PrimeContext(3)
    x = SL2Matrix(((3, 0), (0, Fraction(1, 3))), ctx)
    y = SL2Matrix(((0, 1), (-1, 0)), ctx)
    rep = Representation(
        Presentation.surface(2), {"a1": x, "b1": y, "a2": y, "b2": x})
    path = tmp_path / "surface.json"
    save_representation(rep, str(path))
    back = load_representation(str(path))
    assert back.presentation.kind == "surface"
    assert back.presentation.genus == 2
    assert back.matrices == rep.matrices


def test_round_trip_explicit(tmp_path):
    ctx = PrimeContext(5)
    pres = Presentation.explicit(["x", "y"], ["x y x' y'"])
    m = SL2Matrix(((5, 0), (0, Fraction(1, 5))), ctx)
    n = SL2Matrix(((Fraction(1, 5), 0), (0, 5)), ctx)
    rep = Representation(pres, {"x": m, "y": n})
    path = tmp_path / "explicit.json"
    save_representation(rep, str(path))
    back = load_representation(str(path))
    assert back.presentation.kind == "explicit"
    relators = back.presentation.relators
    assert [word_to_text(r, back.presentation) for r in relators] == ["x y x' y'"]
    assert back.matrices == rep.matrices


def test_unknown_top_level_field_rejected():
    bad = doc()
    bad["primes"] = 3
    with pytest.raises(ValidationError, match="unknown field 'primes'"):
        parse_representation(bad)


def test_missing_field_rejected():
    bad = doc()
    del bad["group"]
    with pytest.raises(ValidationError, match="missing field 'group'"):
        parse_representation(bad)


def test_float_and_bool_entries_rejected():
    with pytest.raises(ValidationError, match="exact rational string"):
        parse_representation(
            doc(generators={"a": [[3.0, 0], [0, "1/3"]],
                            "b": [[1, 1], [1, 2]]}))
    with pytest.raises(ValidationError, match="exact rational string"):
        parse_representation(
            doc(generators={"a": [[True, 0], [0, "1/3"]],
                            "b": [[1, 1], [1, 2]]}))


@pytest.mark.parametrize("text", ["1.5", "1/0", "1/-3", "1/03", "", "a"])
def test_malformed_rational_strings_rejected(text):
    with pytest.raises(ValidationError, match="must look like"):
        parse_representation(
            doc(generators={"a": [[text, "0"], ["0", "1/3"]],
                            "b": [["1", "1"], ["1", "2"]]}))


def test_determinant_checked():
    with pytest.raises(ValidationError, match=r"det\(a\) is not 1"):
        parse_representation(
            doc(generators={"a": [["3", "0"], ["0", "1"]],
                            "b": [["1", "1"], ["1", "2"]]}))


def test_relator_violation_rejected():
    group = {"kind": "explicit", "generators": ["x", "y"],
             "relators": ["x y x' y'"]}
    gens = {"x": [["3", "0"], ["0", "1/3"]], "y": [["1", "1"], ["1", "2"]]}
    with pytest.raises(ValidationError, match="relator does not evaluate"):
        parse_representation(doc(group=group, generators=gens))


def test_composite_prime_rejected():
    with pytest.raises(PrimeNotPrimeError):
        parse_representation(doc(prime=6))
    with pytest.raises(ValidationError, match="prime must be an integer"):
        parse_representation(doc(prime="3"))


def test_generator_name_mismatch():
    with pytest.raises(ValidationError, match=r"missing \['b'\]"):
        parse_representation(
            doc(generators={"a": [["3", "0"], ["0", "1/3"]]}))
    extra = doc()
    extra["generators"]["c"] = [["1", "0"], ["0", "1"]]
    with pytest.raises(ValidationError, match=r"unexpected \['c'\]"):
        parse_representation(extra)


def test_group_descriptor_validation():
    with pytest.raises(ValidationError, match="unknown group kind"):
        parse_representation(doc(group={"kind": "braid"}))
    with pytest.raises(ValidationError, match="rank must be an integer"):
        parse_representation(doc(group={"kind": "free", "rank": True}))
    with pytest.raises(ValidationError, match="missing field 'genus'"):
        parse_representation(doc(group={"kind": "surface"}))
    with pytest.raises(ValidationError, match="unknown field 'rank'"):
        parse_representation(
            doc(group={"kind": "surface", "genus": 2, "rank": 2}))


def test_surface_genus_needs_two_matrices_per_handle():
    with pytest.raises(ValidationError, match=r"^surface genus 2 needs 2 \* genus "
                       r"generator matrices, the file gives 2$"):
        parse_representation(doc(group={"kind": "surface", "genus": 2}))
    with pytest.raises(ValidationError, match=r"missing \['a1', 'b1'\]"):
        parse_representation(doc(group={"kind": "surface", "genus": 1}))


def test_matrix_shape_validation():
    with pytest.raises(ValidationError, match="2x2 array"):
        parse_representation(
            doc(generators={"a": [["3", "0", "0"], ["0", "1/3"]],
                            "b": [["1", "1"], ["1", "2"]]}))


def test_invalid_json_reported(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{\"prime\": 3,")
    with pytest.raises(ValidationError, match="not valid JSON"):
        load_representation(str(path))


def test_overlong_numbers_rejected(tmp_path):
    long_entry = doc(generators={"a": [["1" * 5000, "0"], ["0", "1/3"]],
                                 "b": [["1", "1"], ["1", "2"]]})
    with pytest.raises(ValidationError, match="4300 digits"):
        parse_representation(long_entry)
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(doc()).replace('"3"', "1" * 5000, 1))
    with pytest.raises(ValidationError, match="4300 digits"):
        load_representation(str(path))


def test_to_data_matches_parse():
    rep = sl2z_pair(PrimeContext(2))
    data = representation_to_data(rep)
    again = parse_representation(data)
    assert again.matrices == rep.matrices
    assert again.presentation == rep.presentation


# -- fuzzing the document parser -----------------------------------------

MATRICES = ([["3", "0"], ["0", "1/3"]], [["1", "1"], ["1", "2"]],
            [["0", "1"], ["-1", "0"]], [[1, 0], [0, 1]], [["2", "3"], ["1", "2"]])
BASES = (
    doc(),
    doc(prime=5, group={"kind": "free", "rank": 3, "generators": ["x", "y", "z"]},
        generators={"x": MATRICES[0], "y": MATRICES[1], "z": MATRICES[4]}),
    doc(group={"kind": "surface", "genus": 1},
        generators={"a1": MATRICES[1], "b1": MATRICES[1]}),
    doc(prime=2, group={"kind": "surface", "genus": 2},
        generators={"a1": MATRICES[0], "b1": MATRICES[2], "a2": MATRICES[2],
                    "b2": MATRICES[0]}),
    doc(group={"kind": "explicit", "generators": ["x", "y"],
               "relators": ["x y x' y'", "(x y')^2 y x'^2 y"]},
        generators={"x": MATRICES[3], "y": MATRICES[2]}),
)
NAMES = st.sampled_from(("a", "b", "c", "x", "y", "z", "a1", "b1", "a2", "b2",
                         "A", "1", "", "a'", "a b", "primes", "rank"))
WORDS = st.sampled_from(("x y x' y'", "x", "x' y", "x^2", "x^-3 y", "(x y)^2", "x^",
                         "(", "z", "1", "", "x'' y", "x^999999999", "y x y' x'"))
VALUES = NAMES | WORDS | st.sampled_from(MATRICES) | st.sampled_from((
    None, True, 0, -1, 1, 2, 3, 4, 27, 2.0, 1.5, "2", [], [2], {}, "1/0", "1/-3",
    "03", "-0", "7/3", "1" * 5000, 10 ** 5, "free", "surface", "explicit", "braid",
    [[1, 0]], [[1, 0], [0]], [[1, 0, 0], [0, 1]], [[2, 0], [0, 2]], ["x", "x"],
    ["a", "b", "c"], ["x y x' y'", 3]))


def _paths(node, path=()):
    """The path of every value inside a decoded JSON document."""
    yield path
    for key in sorted(node) if isinstance(node, dict) else (
            range(len(node)) if isinstance(node, list) else ()):
        yield from _paths(node[key], path + (key,))


def _mutate(document, draw):
    """One random edit of a representation document, in place: a value
    replaced, deleted, duplicated or renamed anywhere, or the group made
    explicit on the matrices' own names with drawn relators."""
    op = draw(st.sampled_from(("set", "set", "delete", "insert", "rename", "explicit")))
    group, gens = document.get("group"), document.get("generators")
    if op == "explicit":
        if isinstance(group, dict) and isinstance(gens, dict) and gens:
            names = sorted(gens)
            power = st.sampled_from(("", "'", "^2", "^-1", "'^3"))
            word = st.lists(st.tuples(st.sampled_from(names), power).map("".join),
                            min_size=1, max_size=4).map(" ".join)
            group.clear()
            group.update(kind="explicit", generators=names,
                         relators=draw(st.lists(word | WORDS, max_size=3)))
        return
    paths = list(_paths(document))[1:]
    if not paths:  # earlier deletions left {}: nothing inside to edit
        return
    *head, key = draw(st.sampled_from(paths))
    parent = document
    for k in head:
        parent = parent[k]
    value = copy.deepcopy(parent[key] if op == "insert" and draw(st.booleans())
                          else draw(VALUES))  # a duplicate or a new value
    if op == "set":
        parent[key] = value
    elif op == "delete":
        del parent[key]
    elif op == "insert" and isinstance(parent, list):
        parent.insert(key, value)
    elif isinstance(parent, dict):
        parent[draw(NAMES)] = parent.pop(key) if op == "rename" else value


@settings(max_examples=600, deadline=None)
@given(st.data())
def test_mutated_documents_parse_or_fail_typed(data):
    """Every mutated document gives a Representation or an Sl2TreesError:
    wrong kinds and ranks, missing, duplicate and extra generator names,
    bad entries and bad relators never raise anything else."""
    document = copy.deepcopy(data.draw(st.sampled_from(BASES)))
    for _ in range(data.draw(st.integers(0, 4))):
        _mutate(document, data.draw)
    try:
        rep = parse_representation(document)
    except Sl2TreesError:
        return
    assert isinstance(rep, Representation)
    assert rep.matrices == tuple(rep.matrix(n) for n in rep.presentation.generators)
    one = SL2Matrix.identity(rep.context)
    assert all(rep.evaluate(r) == one for r in rep.presentation.relators)
    assert parse_representation(representation_to_data(rep)) == rep
