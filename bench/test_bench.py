"""Tests of the benchmark itself, at tiny input sizes.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import worker
from spans import Tracer

worker.import_library()

import rep_sessions  # noqa: E402
import spectrum_tsv  # noqa: E402
import trace_rewrite  # noqa: E402

ROOT = os.path.dirname(worker.BENCH)


def tiny_run(name, tmp_path, traced=False, seed=7):
    workdir = tmp_path / f"{name}-{int(traced)}"
    (workdir / "fill").mkdir(parents=True, exist_ok=True)
    return worker.run(name, seed, traced=traced, workdir=str(workdir), scale="tiny")


@pytest.mark.parametrize("name", worker.WORKLOADS)
def test_tiny_run_passes_its_checks(name, tmp_path):
    result = tiny_run(name, tmp_path)
    mod = worker.modules()[name]
    assert result["ops"] == mod.ROUND_OPS["tiny"]
    known = set(result["known_defect_ops"])
    unexpected = {i: r for i, r in result["failures"].items() if int(i) not in known}
    assert unexpected == {}
    if name == "rep_sessions":
        # the known zariski_dense defect may fail only degenerate sessions
        inputs = rep_sessions.build(7, "tiny", "")
        degenerate = {i for i in range(result["ops"])
                      if inputs["cases"][rep_sessions.input_key(inputs, i)]["family"] == "degenerate"}
        assert known <= degenerate
    else:
        assert result["failures"] == {}


@pytest.mark.parametrize("name", worker.WORKLOADS)
def test_same_seed_same_inputs_and_digest(name, tmp_path):
    mod = worker.modules()[name]
    workdir = str(tmp_path)

    def inputs(seed):
        built = mod.build(seed, "tiny", workdir)
        if name == "trace_rewrite":
            return built["words"].ops, built["assignment"]
        return built["cases"]

    assert inputs(3) == inputs(3)
    assert inputs(3) != inputs(4)
    first = tiny_run(name, tmp_path / "a")
    second = tiny_run(name, tmp_path / "b")
    assert first["digest"] == second["digest"]
    assert first["op_hashes"] == second["op_hashes"]


def test_traced_spectrum_replay_writes_cli_bytes(tmp_path):
    inputs = spectrum_tsv.build(5, "tiny", str(tmp_path))
    for i in range(spectrum_tsv.ROUND_OPS["tiny"]):
        with open(spectrum_tsv.op(Tracer(False), inputs, i), "rb") as handle:
            by_cli = handle.read()
        tr = Tracer(True)
        with open(spectrum_tsv.op(tr, inputs, i), "rb") as handle:
            replayed = handle.read()
        assert replayed == by_cli
        assert tr.names() == set(spectrum_tsv.SPANS)


def test_checks_catch_wrong_outputs(tmp_path):
    tr = Tracer(False)
    inputs = spectrum_tsv.build(5, "tiny", str(tmp_path))
    out = spectrum_tsv.op(tr, inputs, 1)
    with open(out, encoding="utf-8") as handle:
        lines = handle.read().split("\n")
    lines[-3], lines[-2] = lines[-2], lines[-3]
    with open(out, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines))
    summary = spectrum_tsv.summarize(inputs, 1, out)
    assert spectrum_tsv.check(tr, inputs, 1, summary)

    inputs = rep_sessions.build(5, "tiny", "")
    summary = rep_sessions.summarize(inputs, 0, rep_sessions.op(tr, inputs, 0))
    assert rep_sessions.check(tr, inputs, 0, summary) == []
    assert rep_sessions.check(tr, inputs, 0, dict(summary, bounded=not summary["bounded"]))
    assert rep_sessions.check(tr, inputs, 0, dict(summary, lengths=(1,) * 16))

    inputs = trace_rewrite.build(5, "tiny", "")
    poly = trace_rewrite.op(tr, inputs, 0)
    assert trace_rewrite.check(tr, inputs, 0, poly) == []
    assert trace_rewrite.check(tr, inputs, 0, poly + 1)


@pytest.mark.parametrize("name", worker.WORKLOADS)
def test_traced_run_reports_every_layer_metric(name, tmp_path):
    spans, names = worker.layer_names()
    result = tiny_run(name, tmp_path, traced=True)
    assert set(spans) <= set(result["layers"])
    assert all(result["layers"][s]["calls"] > 0 for s in spans)
    extras = [n for n in names if not n.endswith(("calls", "busy_s", "p50_us"))]
    assert set(result["layer_extras"]) == set(extras) - {"bench.tracing_overhead"}


def test_benchmark_json_lists_the_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        doc = json.load(handle)
    assert [m["name"] for m in doc["per_layer"]] == worker.layer_names()[1]
    assert [w["name"] for w in doc["workloads"]] == list(worker.WORKLOADS)


def test_run_fails_without_library_sources(tmp_path):
    shutil.copytree(worker.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "trace_rewrite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
