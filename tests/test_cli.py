import contextlib
import hashlib
import io
import json
import os
import random
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import sl2trees
from sl2trees import (
    PrimeContext,
    Presentation,
    Representation,
    SL2Matrix,
    ball_size,
    save_representation,
    spectrum,
    to_tsv,
)
from sl2trees.cli import main

from conftest import (
    big_denominator_rep,
    diag_rep,
    free2_rep,
    random_noncommuting_pair,
    random_sl2,
    sl2z_pair,
    unbounded_irreducible_rep,
)

# the module, which the package's spectrum function shadows
spectrum_module = sys.modules["sl2trees.spectrum"]

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


# sha256 of the TSV for three more inputs, frozen from the callback-driven
# level walk that came before the inlined spectrum loop: free rank 1 (one
# child per inner word) at p = 2, free rank 3 (six letters) at p = 5, and
# the 3^400 denominators of big_denominator_rep (lengths up to 4800, each
# from one gcd against a large power of 3).
FREE1_L12_SHA256 = "88fc02ed0a3240120c5a97c0d791a766500c3dfdbd2eff7b8a5534431662c37a"
FREE3_L5_SHA256 = "f5ff28f065502d3d02d55f0d6df75d8dbd2ffc1a923ca8dc3b997f056fe5ce86"
BIG_DENOMINATOR_L7_SHA256 = "06a90b51f77368f350070f3e12d1e7498198a28c3dd9bddf8d533e0661e34cbc"


def free1_rep():
    ctx = PrimeContext(2)
    a = SL2Matrix(((Fraction(1, 4), 3), (Fraction(-1, 4), 1)), ctx)
    return Representation(Presentation.free(1), {"a": a})


def free3_rep():
    ctx = PrimeContext(5)
    a = SL2Matrix(((2, Fraction(1, 5)), (5, 1)), ctx)
    b = SL2Matrix(((Fraction(1, 5), 1), (-1, 0)), ctx)
    c = SL2Matrix(((3, Fraction(2, 25)), (25, 1)), ctx)
    return Representation(Presentation.free(3), {"a": a, "b": b, "c": c})


@pytest.mark.parametrize("make_rep, max_len, digest", [
    (free1_rep, 12, FREE1_L12_SHA256),
    (free3_rep, 5, FREE3_L5_SHA256),
    (big_denominator_rep, 7, BIG_DENOMINATOR_L7_SHA256)],
    ids=["free1", "free3", "big-denominator"])
def test_spectrum_tsv_frozen_on_other_shapes(capsys, tmp_path, make_rep,
                                             max_len, digest):
    rep = make_rep()
    path = tmp_path / "rep.json"
    save_representation(rep, str(path))
    target = tmp_path / "out.tsv"
    code, out, err = run(capsys, ["spectrum", str(path), "--max-len",
                                  str(max_len), "--tsv", str(target)])
    assert (code, out, err) == (0, "", "")
    data = target.read_bytes()
    fingerprint_lines = 2 ** rep.presentation.rank - 1
    assert data.count(b"\n") == (3 + fingerprint_lines + 1
                                  + ball_size(rep.presentation.rank, max_len))
    assert hashlib.sha256(data).hexdigest() == digest


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


def streamed_reps(p):
    rng = random.Random(7700 + p)
    ctx = PrimeContext(p)
    a, b = random_noncommuting_pair(rng, ctx, steps=3)
    c = random_sl2(rng, ctx, steps=3)
    return {
        "free1": Representation(Presentation.free(1), {"a": a}),
        "free2": free2_rep(ctx, a, b),
        "free3": Representation(Presentation.free(3), {"a": a, "b": b, "c": c}),
        # a2 = b1 and b2 = a1, so [a1, b1][a2, b2] = 1 holds
        "genus2": Representation(
            Presentation.surface(2), {"a1": a, "b1": b, "a2": b, "b2": a}),
    }


@pytest.mark.parametrize("p", [3, 5])
@pytest.mark.parametrize("group, lengths", [
    ("free1", (0, 1, 9)), ("free2", (0, 1, 5)), ("free3", (0, 2, 4)),
    ("genus2", (0, 1, 3))], ids=["free1", "free2", "free3", "genus2"])
def test_spectrum_stream_equals_to_tsv(capsys, tmp_path, p, group, lengths):
    rep = streamed_reps(p)[group]
    path = tmp_path / "rep.json"
    save_representation(rep, str(path))
    target = tmp_path / "out.tsv"
    for max_len in lengths:
        expected = to_tsv(spectrum(rep, max_len))
        argv = ["spectrum", str(path), "--max-len", str(max_len)]
        assert run(capsys, argv) == (0, expected, "")
        assert run(capsys, argv + ["--tsv", str(target)]) == (0, "", "")
        assert target.read_bytes() == expected.encode()


@pytest.mark.parametrize("max_len, max_words", [
    ("1000000000", None), ("12", None), ("3", "10"), ("-1", None)],
    ids=["huge", "over-cap", "over-max-words", "negative"])
def test_refused_spectrum_leaves_the_tsv_file_alone(capsys, tmp_path, rep_path,
                                                     max_len, max_words):
    argv = ["spectrum", rep_path, "--max-len", max_len]
    argv += ["--max-words", max_words] if max_words else []
    target = tmp_path / "out.tsv"
    target.write_bytes(b"earlier bytes\n")
    code, out, err = run(capsys, argv + ["--tsv", str(target)])
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert target.read_bytes() == b"earlier bytes\n"
    missing = tmp_path / "missing.tsv"
    assert run(capsys, argv + ["--tsv", str(missing)])[0] == 1
    assert not missing.exists()


def test_spectrum_cli_streams_rows(capsys, tmp_path, monkeypatch):
    # free rank 2 has 118097 rows at L = 10 and 354293 at L = 11, genus 2
    # 156865 at L = 6.  The loop holds the words of length ceil(L/2) and
    # two suffix levels, about 1 MB in each case; held state that grows
    # with the ball (all of level L - 1 peaked at 5.8-24.5 MB) fails here.
    # The bound holds for the serial run and, with the last level split,
    # for the parent and for its worker, whose peak is read as it exits
    # (a worker that kept its share of the rows peaked at 2.2-6.2 MB).
    # Both runs write the same bytes.
    path = tmp_path / "rep.json"
    target = tmp_path / "out.tsv"
    peaks = tmp_path / "worker-peaks"
    leave = os._exit

    def exit_with_peak(code):
        with open(peaks, "a") as handle:
            handle.write(f"{tracemalloc.get_traced_memory()[1]}\n")
        leave(code)

    monkeypatch.setattr(os, "_exit", exit_with_peak)
    free2 = unbounded_irreducible_rep(CTX)
    for rep, max_len in ((free2, 10), (free2, 11), (genus2_rep(), 6)):
        save_representation(rep, str(path))
        argv = ["spectrum", str(path), "--max-len", str(max_len), "--tsv", str(target)]
        outputs = []
        for cpus in (1, 2):
            use_cpus(monkeypatch, cpus)
            peaks.write_text("")
            tracemalloc.start()
            try:
                assert run(capsys, argv) == (0, "", "")
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            rank = rep.presentation.rank
            outputs.append(target.read_bytes())
            assert outputs[-1].count(b"\n") == 3 + 2 ** rank - 1 + 1 + ball_size(rank, max_len)
            worker_peaks = [int(line) for line in peaks.read_text().split()]
            assert len(worker_peaks) == cpus - 1
            assert max([peak] + worker_peaks) < 2_000_000
        assert outputs[0] == outputs[1]


@pytest.fixture
def fork_calls(monkeypatch):
    """os.fork, counted: one entry per call."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


def use_cpus(monkeypatch, cpus):
    """The usable CPU count the spectrum writer sees."""
    monkeypatch.setattr(spectrum_module, "_usable_cpus", lambda: cpus)


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("p", [2, 3])
@pytest.mark.parametrize("group, max_len", [
    ("free2", 10), ("free2", 11), ("free3", 7), ("genus2", 6)],
    ids=["free2-L10", "free2-L11", "free3-L7", "genus2-L6"])
def test_spectrum_workers_write_the_serial_bytes(capsys, tmp_path, monkeypatch,
                                                 fork_calls, p, group, max_len):
    # the serial route at one usable CPU, then the last level split over
    # the parent and one or two workers, each to --tsv and to stdout
    path = tmp_path / "rep.json"
    save_representation(streamed_reps(p)[group], str(path))
    target = tmp_path / "out.tsv"
    argv = ["spectrum", str(path), "--max-len", str(max_len)]
    outputs = []
    for cpus, workers in ((1, 0), (2, 1), (3, 2)):
        use_cpus(monkeypatch, cpus)
        fork_calls.clear()
        code, out, err = run(capsys, argv)
        assert (code, err) == (0, "")
        assert run(capsys, argv + ["--tsv", str(target)]) == (0, "", "")
        assert target.read_bytes() == out.encode()
        assert len(fork_calls) == 2 * workers
        outputs.append(out)
        assert_no_children()
    assert outputs[1:] == outputs[:-1]


def test_failed_spectrum_worker_is_a_clean_failure(capsys, rep_path, monkeypatch,
                                                    fork_calls):
    text_rows = spectrum_module._text_rows

    def failing(rep, max_len, share=slice(None), last_only=False):
        if last_only:  # only in a worker
            raise RuntimeError("worker fault")
        return text_rows(rep, max_len, share, last_only)

    monkeypatch.setattr(spectrum_module, "_text_rows", failing)
    use_cpus(monkeypatch, 2)
    code, out, err = run(capsys, ["spectrum", rep_path, "--max-len", "10"])
    assert code == 1 and len(fork_calls) == 1
    assert err == "error: a spectrum worker process failed, exit status 1\n"
    assert_no_children()


class FailingHandle(io.StringIO):
    """A text handle whose second write raises."""

    def __init__(self, exc):
        super().__init__()
        self.exc = exc

    def write(self, text):
        if self.tell():
            raise self.exc
        return super().write(text)


@pytest.mark.parametrize("exc", [OSError("no space left"), KeyboardInterrupt()],
                         ids=["oserror", "interrupt"])
def test_spectrum_output_failure_reaps_the_workers(rep_path, monkeypatch, fork_calls,
                                                   exc):
    use_cpus(monkeypatch, 2)
    handle, err = FailingHandle(exc), io.StringIO()
    argv = ["spectrum", rep_path, "--max-len", "10"]
    with contextlib.redirect_stdout(handle), contextlib.redirect_stderr(err):
        if isinstance(exc, OSError):
            assert main(argv) == 1
            assert err.getvalue() == "error: no space left\n"
        else:
            with pytest.raises(KeyboardInterrupt):
                main(argv)
    assert len(fork_calls) == 1
    assert_no_children()


def test_spectrum_worker_stops_once_its_parent_is_gone():
    # a killed parent's workers are reparented, so a worker sees a parent
    # id other than the one it was forked under and makes no more rows
    made = []
    rows = (made.append(1) or "1\t0\n" for _ in range(10 ** 6))
    handle = io.StringIO()
    spectrum_module._stream_rows(handle, rows, os.getpid())
    assert made == [] and handle.getvalue() == ""


def test_spectrum_worker_flushes_its_rows():
    # a worker leaves by os._exit, which flushes no buffer, so its rows
    # are in the file, not in the handle's buffer, once they are written
    with tempfile.TemporaryFile("w+", encoding="utf-8", newline="") as handle:
        spectrum_module._stream_rows(handle, iter(["a\t0\n", "b\t2\n"]), os.getppid())
        assert os.pread(handle.fileno(), 64, 0) == b"a\t0\nb\t2\n"


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
    words = "error: spectrum would hold more than 500000 words, cap is 500000\n"
    nodes = "error: ball would hold more than 100000 vertices, cap is 100000\n"
    for argv, expected in (
            (["spectrum", rep_path, "--max-len", "10000"], words),
            (["spectrum", rep_path, "--max-len", "1000000000"], words),
            (["tree", "ball", "--prime", "3", "--radius", "10000"], nodes),
            (["tree", "ball", "--prime", "3", "--radius", "1000000000"], nodes)):
        assert run(capsys, argv) == (1, "", expected)
    code, _, err = run(capsys, ["length", rep_path, "a c"])
    assert code == 1 and err == "error: unknown generator 'c'\n"
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code, _, err = run(capsys, ["classify", str(bad)])
    assert code == 1 and err.startswith("error: not valid JSON")
    # nested past the stack json's decoder recurses on
    bad.write_text("[" * 100_000 + "]" * 100_000)
    code, out, err = run(capsys, ["classify", str(bad)])
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err.startswith("error: not valid JSON")
    # psi_12, composite, and psi_13, past the range the primality test certifies
    for prime in (318665857834031151167461, 3317044064679887385961981):
        bad.write_text(open(rep_path).read().replace('"prime": 3', f'"prime": {prime}'))
        for argv in (["classify", str(bad)], ["length", str(bad), "a b"]):
            code, out, err = run(capsys, argv)
            assert code == 1 and out == "" and err.count("\n") == 1
            assert err.startswith("error: not a ") and str(prime) in err


def explicit_rep_file(tmp_path, relators, a):
    path = tmp_path / "explicit.json"
    path.write_text(json.dumps({
        "prime": 3, "group": {"kind": "explicit", "generators": ["a"], "relators": relators},
        "generators": {"a": a}}))
    return str(path)


def test_failing_relator_is_quoted_by_a_prefix(capsys, tmp_path):
    # a 137-byte file printed a 1000050-byte error line quoting the relator
    path = explicit_rep_file(tmp_path, ["a^500000"], [["1", "1"], ["0", "1"]])
    code, out, err = run(capsys, ["classify", path])
    assert code == 1 and out == "" and err.count("\n") == 1
    assert err == ("error: relator does not evaluate to the identity: "
                   + "a " * 20 + "... (500000 letters)\n")
    assert len(err.encode()) < 200


def test_accepted_relator_is_echoed_by_a_prefix(capsys, tmp_path):
    # the presentation line of a 137-byte file held the whole relator
    path = explicit_rep_file(tmp_path, ["a^500000"], [["1", "0"], ["0", "1"]])
    code, out, err = run(capsys, ["classify", path])
    assert (code, err) == (0, "") and len(out.encode()) < 1024
    assert '\npresentation="explicit(a | ' + "a " * 20 + '... (500000 letters))"\n' in out


def test_explicit_relators_share_one_letter_cap(capsys, tmp_path):
    # each relator under the cap on its own, 8 million letters together
    path = explicit_rep_file(tmp_path, ["a^500000"] * 16, [["1", "0"], ["0", "1"]])
    code, out, err = run(capsys, ["classify", path])
    assert (code, out) == (1, "")
    assert err == "error: relators would hold 1000000 letters, cap is 500000\n"
    path = explicit_rep_file(tmp_path, ["a^250000"] * 2, [["1", "0"], ["0", "1"]])
    assert run(capsys, ["classify", path])[0] == 0


@pytest.mark.parametrize("genus", [10**6, 10**8])
def test_surface_genus_is_checked_against_the_matrices_given(capsys, tmp_path, genus):
    # a file of under 80 bytes must not make 2 * genus generator names
    path = tmp_path / "genus.json"
    path.write_text('{"prime": 3, "group": {"kind": "surface", "genus": %d}, '
                    '"generators": {}}' % genus)
    start = time.perf_counter()
    code, out, err = run(capsys, ["classify", str(path)])
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == (f"error: surface genus {genus} needs 2 * genus generator "
                   "matrices, the file gives 0\n")
    assert len(err.encode()) < 200


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


@pytest.mark.parametrize("argv", [
    ["tree", "distance", "--prime", "3", "(10000000; 1)", "(0; 0)"],
    ["tree", "geodesic", "--prime", "3", "(9100; 0)", "(9100; -1)"],
    # a center of 4304 digits: (9000; -1/3^20) reduces to r/3^20, r < 3^9020
    ["tree", "ball", "--prime", "3", "--center", "(9000; -1/3486784401)",
     "--radius", "0"],
    # every vertex of an axis window is an ancestor of one of its two ends,
    # so the window is refused from its ends, before its 99997 vertices
    # are built or the translation length is printed
    ["tree", "axis", "REP", "b a", "--window", "49998"],
])
def test_vertex_past_4300_digits_fails_cleanly(capsys, rep_path, argv):
    start = time.perf_counter()
    code, out, err = run(capsys, [rep_path if a == "REP" else a for a in argv])
    assert time.perf_counter() - start < 3
    assert code == 1 and out == ""
    assert err.startswith("error: ") and "4300 digits" in err
    assert err.count("\n") == 1


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


def test_rank3_trace_text_is_linear_in_t123():
    # tr((abc)^2) = t123^2 - 2, written in the normal form linear in t123
    proc = run_module("sl2trees", "trace-poly", "--rank", "3", "a b c a b c")
    assert proc.returncode == 0 and proc.stderr == ""
    assert proc.stdout == (
        "-t1^2 - t2^2 - t3^2 - t12^2 - t13^2 - t23^2 + t1*t2*t12 + t1*t3*t13"
        " + t1*t23*t123 + t2*t3*t23 + t2*t13*t123 + t3*t12*t123 - t12*t13*t23"
        " - t1*t2*t3*t123 + 2\n")


def test_long_power_trace_succeeds_in_a_fresh_process():
    # 2 T_1200(t1 / 2): the even powers of t1 up to 1200, so 601 terms
    proc = run_module("sl2trees", "trace-poly", "--rank", "1", "a^1200")
    assert proc.returncode == 0 and proc.stderr == ""
    text = proc.stdout.strip()
    assert text.startswith("-360000*t1^2 + ") and text.endswith(" + t1^1200 + 2")
    assert 1 + text.count(" + ") + text.count(" - ") == 601


def _two_gigabytes():
    resource.setrlimit(resource.RLIMIT_AS, (2 * 1024 ** 3, 2 * 1024 ** 3))


# words whose pass would need far more than the term budget: each is refused
# in a fresh process under a 2 GB address-space limit
OVERSIZED_TRACES = [
    ("8", "(h g f e d c b a)^2"),
    ("12", "b^-804 b^12 a^-804"),
    ("2", "(a b')^200"),
]


@pytest.mark.parametrize("rank, word", OVERSIZED_TRACES)
def test_oversized_trace_is_refused_cleanly(rank, word):
    src = os.path.dirname(os.path.dirname(os.path.abspath(sl2trees.__file__)))
    proc = subprocess.run(
        [sys.executable, "-m", "sl2trees", "trace-poly", "--rank", rank, word],
        capture_output=True, text=True, timeout=60, preexec_fn=_two_gigabytes,
        env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), lines


def test_usage_errors_exit_two(capsys, rep_path):
    # classify has no round cap and takes no --max-iterations
    for argv in ([], ["frobnicate"], ["spectrum", rep_path],
                 ["tree", "ball", "--radius", "1"],
                 ["classify", rep_path, "--max-iterations", "3"]):
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


# -- fuzzing the whole command line --------------------------------------

# every integer argument, vertex level and word power: negatives, 0, small
# values, and huge ones past every cap
INTS = st.one_of(st.integers(-10**18, -1), st.integers(0, 12),
                 st.integers(10**4, 10**18))
# caps small enough that every accepted run stays fast
SMALL_CAPS = st.integers(-3, 2000).map(str)
NUMBERS = INTS.map(str)
PRIMES = st.one_of(st.sampled_from(["2", "3", "5"]), NUMBERS)
POWERS = st.builds("{}^{}".format, st.sampled_from(["a", "a'", "b", "b'", "1", "c"]),
                   NUMBERS)
WORDS = st.lists(POWERS, min_size=1, max_size=3).map(" ".join)
# free-form word text: the grammar's tokens in any order, a name the
# generators lack, and a character no token starts with
TEXTS = st.lists(st.one_of(
    st.sampled_from(["a", "b", "c", "b1", "'", "^", "(", ")", " ", " ", "$"]),
    NUMBERS, INTS.map("{:+d}".format)), max_size=12).map("".join)
VERTICES = st.one_of(
    st.builds("({}; {})".format, NUMBERS, NUMBERS),
    st.builds("({}; {}/{})".format, NUMBERS, NUMBERS, NUMBERS),
)


@pytest.fixture(scope="module")
def fuzz_reps(tmp_path_factory):
    # words of a few powers have small images under the integral pair, so
    # even one of 500000 letters evaluates in well under a second; under
    # the unbounded pair the entries of a^n grow with n, and length of
    # a^100000 alone takes seconds, so that pair gets only short words
    folder = tmp_path_factory.mktemp("fuzz")
    paths = []
    for name, rep in (("integral", sl2z_pair(CTX)),
                      ("unbounded", unbounded_irreducible_rep(CTX))):
        paths.append(str(folder / f"{name}.json"))
        save_representation(rep, paths[-1])
    return paths


def _argv(data, reps):
    integral, unbounded = reps
    command = data.draw(st.sampled_from(
        ["classify", "spectrum", "length", "trace-poly",
         "ball", "distance", "geodesic", "axis"]))
    if command == "classify":
        return ["classify", data.draw(st.sampled_from(reps))]
    if command == "spectrum":
        return ["spectrum", data.draw(st.sampled_from(reps)),
                "--max-len", data.draw(NUMBERS), "--max-words", data.draw(SMALL_CAPS)]
    if command == "length":
        return ["length", integral] + data.draw(
            st.lists(st.one_of(WORDS, TEXTS), min_size=1, max_size=2))
    if command == "trace-poly":
        word = data.draw(st.one_of(
            st.lists(POWERS, min_size=1, max_size=2).map(" ".join), TEXTS))
        return ["trace-poly", word, "--rank", data.draw(NUMBERS)]
    if command == "axis":
        path, word = data.draw(st.one_of(
            st.tuples(st.just(integral), WORDS),
            # translation length 10 fails the cap from window 10**4 up; "a"
            # (length 2) passes it up to window 49998, whose 99997 vertices,
            # one geodesic, take a quarter of a second
            st.tuples(st.just(unbounded),
                      st.sampled_from(["a^5", "b a^5", "a^-5 b", "a"]))))
        return ["tree", "axis", path, word, "--window", data.draw(NUMBERS)]
    prime = ["--prime", data.draw(PRIMES)]
    if command == "ball":
        return ["tree", "ball", *prime, "--center", data.draw(VERTICES),
                "--radius", data.draw(NUMBERS), "--max-nodes", data.draw(SMALL_CAPS),
                *data.draw(st.sampled_from([[], ["--dot"]]))]
    return ["tree", command, *prime, data.draw(VERTICES), data.draw(VERTICES)]


@settings(max_examples=200, deadline=None)
@example(argv=["tree", "distance", "--prime", "3", "(10000000; 1)", "(0; 0)"])
@example(argv=["tree", "geodesic", "--prime", "3", "(9100; 0)", "(9100; -1)"])
@example(argv=["tree", "ball", "--prime", "3", "--radius", "10000"])
@example(argv=["trace-poly", "--rank", "8", "(h g f e d c b a)^2"])
@example(argv=["trace-poly", "--rank", "12", "b^-804 b^12 a^-804"])
@example(argv=["trace-poly", "--rank", "2", "(a b')^200"])
@example(argv=["trace-poly", "--rank", "1", "(" * 3000 + "a" + ")" * 3000])
@example(argv=["trace-poly", "--rank", "1", "(a^499999 " * 40])
@given(argv=st.data())
def test_cli_fuzz_exits_cleanly(fuzz_reps, argv):
    if not isinstance(argv, list):
        argv = _argv(argv, fuzz_reps)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
            assert code == 2, argv
            return
    assert code in (0, 1), argv
    if code == 1:
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, lines)
