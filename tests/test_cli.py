import hashlib
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import sl2trees
from sl2trees import (
    PrimeContext,
    Presentation,
    Representation,
    SL2Matrix,
    ball_size,
    save_representation,
)
from sl2trees.cli import main

from conftest import diag_rep, free2_rep, sl2z_pair, unbounded_irreducible_rep

CTX = PrimeContext(3)

CLASSIFY_IRREDUCIBLE = """prime=3
presentation=free(2)
bounded=false
fixed_lattice=none
unbounded_witness=a
reducible_over_rationals=false
invariant_line=none
algebra_dimension=4
absolutely_irreducible=true
reducible_over_completion=none
zariski_dense=true
zariski_note=none
length_abelian=false
character=none
"""

CLASSIFY_SHARED_LINE = """prime=3
presentation=free(2)
bounded=false
fixed_lattice=none
unbounded_witness=a
reducible_over_rationals=true
invariant_line=1:0
algebra_dimension=3
absolutely_irreducible=false
reducible_over_completion=none
zariski_dense=false
zariski_note=none
length_abelian=true
character=a:2,b:-2
"""

SPECTRUM_TSV = """# presentation\tfree(2)
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

BALL_DOT = """graph ball {
  "(0; 0)";
  "(-1; 0)";
  "(1; 0)";
  "(1; 1)";
  "(1; 2)";
  "(0; 0)" -- "(-1; 0)";
  "(0; 0)" -- "(1; 0)";
  "(0; 0)" -- "(1; 1)";
  "(0; 0)" -- "(1; 2)";
}
"""


@pytest.fixture
def rep_path(tmp_path):
    path = tmp_path / "rep.json"
    save_representation(unbounded_irreducible_rep(CTX), str(path))
    return str(path)


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_unbounded_irreducible(capsys, rep_path):
    code, out, err = run(capsys, ["classify", rep_path])
    assert code == 0 and err == ""
    assert out == CLASSIFY_IRREDUCIBLE


def test_classify_shared_invariant_line(capsys, tmp_path):
    path = tmp_path / "diag.json"
    save_representation(diag_rep(CTX), str(path))
    code, out, err = run(capsys, ["classify", str(path)])
    assert code == 0 and err == ""
    assert out == CLASSIFY_SHARED_LINE


def test_classify_bounded_quotes_and_note(capsys, tmp_path):
    path = tmp_path / "bounded.json"
    save_representation(sl2z_pair(CTX), str(path))
    code, out, err = run(capsys, ["classify", str(path)])
    assert code == 0
    lines = out.splitlines()
    assert "bounded=true" in lines
    assert 'fixed_lattice="(0; 0)"' in lines
    assert "zariski_dense=false" in lines
    note = [l for l in lines if l.startswith("zariski_note=")]
    assert note == [
        'zariski_note="image has bounded closure; '
        'density is reported for the unbounded case"'
    ]


def test_classify_output_deterministic(capsys, rep_path):
    _, first, _ = run(capsys, ["classify", rep_path])
    _, second, _ = run(capsys, ["classify", rep_path])
    assert first == second


def test_spectrum_stdout_and_tsv_file(capsys, tmp_path, rep_path):
    code, out, err = run(capsys, ["spectrum", rep_path, "--max-len", "1"])
    assert code == 0 and err == ""
    assert out == SPECTRUM_TSV
    target = tmp_path / "out.tsv"
    code, out, _ = run(
        capsys,
        ["spectrum", rep_path, "--max-len", "1", "--tsv", str(target)],
    )
    assert code == 0 and out == ""
    assert target.read_text() == SPECTRUM_TSV


def test_length_command(capsys, rep_path):
    code, out, err = run(capsys, ["length", rep_path, "a", "b", "a b"])
    assert code == 0 and err == ""
    assert out == "a\t2\nb\t0\na b\t2\n"


def test_trace_poly_command(capsys):
    code, out, _ = run(capsys, ["trace-poly", "a b a' b'", "--rank", "2"])
    assert code == 0
    assert out == "t1^2 + t2^2 + t12^2 - t1*t2*t12 - 2\n"
    code, out, _ = run(capsys, ["trace-poly", "a b'", "--rank", "2"])
    assert code == 0
    assert out == "-t12 + t1*t2\n"


# sha256 of the TSV for genus2_rep() at L=4, frozen from an independent
# depth-first enumeration sorted afterwards, so any change of row order or
# of a length shows here.
GENUS2_L4_SHA256 = "19756c4ecaef088f0a6cccf7508de9075b97734ca9bb8778ede4b52bbd5d8fef"


def genus2_rep():
    # a2 = b1 and b2 = a1, so [a1, b1][a2, b2] = 1 holds
    a1 = SL2Matrix(((0, -1), (1, Fraction(7, 3))), CTX)
    b1 = SL2Matrix(((Fraction(1, 3), 2), (Fraction(-1, 3), 1)), CTX)
    return Representation(
        Presentation.surface(2), {"a1": a1, "b1": b1, "a2": b1, "b2": a1}
    )


def test_spectrum_genus2_tsv_frozen(capsys, tmp_path):
    path = tmp_path / "genus2.json"
    save_representation(genus2_rep(), str(path))
    target = tmp_path / "out.tsv"
    code, out, err = run(
        capsys, ["spectrum", str(path), "--max-len", "4", "--tsv", str(target)])
    assert (code, out, err) == (0, "", "")
    data = target.read_bytes()
    assert data.count(b"\n") == 3 + 15 + 1 + ball_size(4, 4)
    assert hashlib.sha256(data).hexdigest() == GENUS2_L4_SHA256


def test_tree_ball_listing(capsys):
    code, out, err = run(
        capsys, ["tree", "ball", "--prime", "3", "--radius", "1"])
    assert code == 0 and err == ""
    assert out == (
        "vertex\t(0; 0)\n"
        "vertex\t(-1; 0)\n"
        "vertex\t(1; 0)\n"
        "vertex\t(1; 1)\n"
        "vertex\t(1; 2)\n"
        "edge\t(0; 0)\t(-1; 0)\n"
        "edge\t(0; 0)\t(1; 0)\n"
        "edge\t(0; 0)\t(1; 1)\n"
        "edge\t(0; 0)\t(1; 2)\n"
    )


def test_tree_ball_dot(capsys):
    code, out, _ = run(
        capsys, ["tree", "ball", "--prime", "3", "--radius", "1", "--dot"])
    assert code == 0
    assert out == BALL_DOT


def test_tree_distance_and_geodesic(capsys):
    code, out, _ = run(
        capsys, ["tree", "distance", "--prime", "3", "(2; 1)", "(2; 4)"])
    assert code == 0 and out == "2\n"
    code, out, _ = run(
        capsys, ["tree", "geodesic", "--prime", "3", "(2; 1)", "(2; 4)"])
    assert code == 0
    assert out == "(2; 1)\n(1; 1)\n(2; 4)\n"


def test_tree_axis(capsys, rep_path):
    code, out, err = run(
        capsys, ["tree", "axis", rep_path, "a", "--window", "2"])
    assert code == 0 and err == ""
    assert out == (
        "translation_length\t2\n"
        "(-2; 0)\n(-1; 0)\n(0; 0)\n(1; 0)\n(2; 0)\n"
    )


def test_missing_file_is_a_clean_failure(capsys, tmp_path):
    code, out, err = run(capsys, ["classify", str(tmp_path / "nope.json")])
    assert code == 1 and out == ""
    assert err.startswith("error: ")


def test_domain_errors_exit_one(capsys, rep_path, tmp_path):
    code, _, err = run(
        capsys, ["tree", "ball", "--prime", "6", "--radius", "1"])
    assert code == 1 and err == "error: not a prime: 6\n"
    code, _, err = run(capsys, ["spectrum", rep_path, "--max-len", "12"])
    assert code == 1
    assert err == "error: spectrum would hold 1062881 words, cap is 500000\n"
    code, _, err = run(
        capsys,
        ["tree", "ball", "--prime", "3", "--radius", "9",
         "--max-nodes", "10"],
    )
    assert code == 1
    assert err == "error: ball would hold 39365 vertices, cap is 10\n"
    code, _, err = run(capsys, ["length", rep_path, "a c"])
    assert code == 1 and err == "error: unknown generator 'c'\n"
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, ["classify", str(bad)])
    assert code == 1 and err.startswith("error: not valid JSON")


def run_module(*argv):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sl2trees.__file__)))
    return subprocess.run(
        [sys.executable, "-m", *argv], capture_output=True, text=True,
        timeout=60, env={**os.environ, "PYTHONPATH": src},
    )


def test_vertex_zero_denominator_fails_cleanly():
    proc = run_module("sl2trees.cli", "tree", "distance",
                      "--prime", "3", "(2; 1/0)", "(0; 0)")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("entry", ['"' + "1" * 5000 + '"', "1" * 5000])
def test_overlong_repfile_number_fails_cleanly(tmp_path, entry):
    path = tmp_path / "long.json"
    path.write_text(
        '{"prime": 3, "group": {"kind": "free", "rank": 2}, "generators": '
        '{"a": [[' + entry + ', "0"], ["0", "1/3"]], '
        '"b": [["1", "1"], ["1", "2"]]}}')
    proc = run_module("sl2trees", "classify", str(path))
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "4300 digits" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_python_m_sl2trees_runs_the_cli():
    proc = run_module("sl2trees", "--help")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout.startswith("usage: sl2trees ")


def test_rank3_trace_text_is_the_same_for_a_word_and_its_inverse():
    # each in a fresh process, so neither sees the other's memo entries
    for word in ("a b a b c a c", "c' a' c' b' a' b' a'"):
        proc = run_module("sl2trees", "trace-poly", "--rank", "3", word)
        assert proc.returncode == 0 and proc.stderr == ""
        assert proc.stdout == "t1 - t2*t12 - t3*t13 + t12*t13*t123\n"


def test_too_deep_trace_rewrite_fails_cleanly():
    proc = run_module("sl2trees", "trace-poly", "--rank", "1", "a^1200")
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert "Traceback" not in proc.stderr


def test_usage_errors_exit_two(capsys, rep_path):
    for argv in ([], ["frobnicate"], ["spectrum", rep_path],
                 ["tree", "ball", "--radius", "1"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_axis_of_elliptic_word_fails_cleanly(capsys, tmp_path):
    path = tmp_path / "bounded.json"
    save_representation(sl2z_pair(CTX), str(path))
    code, out, err = run(capsys, ["tree", "axis", str(path), "a"])
    assert code == 1 and out == ""
    assert err.startswith("error: ")
