"""Benchmark of sl2trees: three workloads, each run in fresh interpreters.

    python3 bench/run.py --workload spectrum_tsv --seed 1 --seconds 10 --trace 0

A run is a sequence of rounds.  Each round is a new Python process that
builds the same fixed number of ops from --seed and runs them in a closed
loop with one client.  Round 0 checks every output; later rounds must
reproduce round 0's outputs byte for byte.  Fresh processes matter:
the library's process-global caches (traces._MEMO, words._RULES_CACHE)
start empty on every CLI invocation, so a warm process would measure a
different program.  Rounds start until --seconds of op time is reached.

--trace 0 reports the end-to-end metrics, each the median over rounds
unless said otherwise:
  setup_s      interpreter start to the first op (imports, input generation,
               representation files): the median over the rounds' processes
               and set-up-only processes, at least SETUP_RUNS of them
  items_per_s  spectrum rows, sessions or rewritten words per second of op time
  op_p50_ms    median op latency within the round
  op_p90_ms    p90 op latency over the ops of all rounds
  peak_rss_mb  ru_maxrss of the round's process, read before the checks
Times are rescaled to reference speed: the host's speed drifts by a
quarter or more within minutes, so each op time (and set-up time) is
multiplied by REFERENCE_MS over the time of worker.reference_work, a fixed
piece of pure-Python work timed around it in the same process.  The
wall-clock figures are printed beside them.  Op times are summed into
--seconds as measured.

--trace 1 runs round 0 untraced and then traced, each in a fresh process,
and reports per-span call counts, busy time and median duration, plus
bench.tracing_overhead, the traced op total over the untraced one.

The last stdout line is the result object; the line before it records the
machine, the input composition, the output digest and the failures.
Failures on rep_sessions' degenerate family are the known defect of
classify reporting cyclic and torus-normalizer images zariski_dense; they
count in `failed` but keep `correct` true.  Any other failure makes
`correct` false.

Predicted interactions, written down before measuring (layer metric ->
the end-to-end metrics it should move):
  matrices.SL2Matrix.mul, words.evaluate, field.PrimeContext.valuation
      (.p50_us) -> items_per_s, op_p50_ms on rep_sessions; nothing on
      trace_rewrite; nothing on spectrum_tsv unless spectrum comes to
      share the 2x2 kernel, when spectrum_tsv is the guard
  spectrum.spectrum.busy_s, spectrum.spectrum.alloc_peak_mb,
  spectrum.to_tsv.busy_s -> items_per_s, op_p50_ms, peak_rss_mb on
      spectrum_tsv, and nothing elsewhere
  classify.commutator_trace_scan.busy_s, isometry.axis_segment.busy_s,
  tree.* -> op_p90_ms on rep_sessions (rank-3 and genus-2 scans and long
      axes make up the tail)
  classify.fixed_lattice_certificate.busy_s -> op_p50_ms on rep_sessions,
      through the bounded share
  traces.trace_polynomial.fresh.busy_s -> items_per_s, op_p90_ms on
      trace_rewrite; traces.trace_polynomial.repeat.p50_us -> op_p50_ms on
      trace_rewrite; neither moves anything elsewhere
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKER = os.path.join(BENCH, "worker.py")
OUT = os.path.join(ROOT, ".bench_out")
WORKLOADS = ("spectrum_tsv", "rep_sessions", "trace_rewrite")
SETUP_RUNS = 7
MAX_ROUNDS = 40
DEADLINE_S = 170
REFERENCE_MS = 2.0  # reference_work's usual time on the 2-core box the bounds were set on


sys.path.insert(0, BENCH)
from worker import reference_ms  # noqa: E402  (imports no sl2trees)


class WorkerFailed(Exception):
    pass


def spawn(workload, seed, workdir, deadline, trace=0, spans=None, setup_only=False,
          check=True):
    """Start a worker; return (seconds from spawn to READY, the reference
    time measured just before, its result or None)."""
    argv = [sys.executable, WORKER, "--workload", workload, "--seed", str(seed),
            "--trace", str(trace), "--workdir", workdir]
    if spans is not None:
        argv += ["--spans", spans]
    if setup_only:
        argv.append("--setup-only")
    if not check:
        argv.append("--no-check")
    reference = reference_ms()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        first = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerFailed(f"{workload} worker passed the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if first.strip() != "READY" or proc.returncode != 0:
        raise WorkerFailed(f"{workload} worker exited {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, reference, (json.loads(lines[-1]) if lines else None)


def inherit_checks(first, later):
    """A later round's ops fail as round 0's did, or if their output differs."""
    failures = {}
    for i, (a, b) in enumerate(zip(first["op_hashes"], later["op_hashes"])):
        if a != b:
            failures[str(i)] = ["output differs from round 0"]
        elif str(i) in first["failures"]:
            failures[str(i)] = first["failures"][str(i)]
    failures.update(later["failures"])  # ops that raised
    later["failures"] = failures
    later["known_defect_ops"] = [i for i in first["known_defect_ops"]
                                 if failures.get(str(i)) == first["failures"][str(i)]]


def unexpected(rounds):
    out = {}
    for index, r in enumerate(rounds):
        known = set(r["known_defect_ops"])
        out.update({f"{index}#{i}": reasons for i, reasons in r["failures"].items()
                    if int(i) not in known})
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def measure(args, workdir, deadline):
    """Rounds until --seconds of op time, plus set-up-only processes."""
    setups, rounds = [], []
    busy = 0.0
    while busy < args.seconds and len(rounds) < MAX_ROUNDS:
        setup, reference, result = spawn(args.workload, args.seed, workdir, deadline,
                                         check=not rounds)
        if rounds:
            inherit_checks(rounds[0], result)
        setups.append((setup, reference))
        rounds.append(result)
        busy += sum(result["op_ms"]) / 1e3
    while len(setups) < SETUP_RUNS:
        setups.append(spawn(args.workload, args.seed, workdir, deadline, setup_only=True)[:2])
    return setups, rounds


def at_reference_speed(r):
    """A round's op times, each times REFERENCE_MS over the reference time
    measured next to it."""
    return [ms * REFERENCE_MS / ref for ms, ref in zip(r["op_ms"], r["reference_ms"])]


def end_to_end(setups, rounds, rescale=True):
    """Each figure is taken per round, then the median over rounds is
    reported, so a slow spell that hits a minority of rounds does not move
    it.  With `rescale`, times are at reference speed."""

    def op_ms(r):
        return at_reference_speed(r) if rescale else r["op_ms"]

    def median_of(per_round):
        return statistics.median(per_round(r) for r in rounds)

    return {
        "setup_s": metric(statistics.median(
            s * REFERENCE_MS / ref if rescale else s for s, ref in setups), "s"),
        "items_per_s": metric(median_of(lambda r: r["items"] / sum(op_ms(r)) * 1e3), "1/s"),
        "op_p50_ms": metric(median_of(lambda r: statistics.median(op_ms(r))), "ms"),
        # over the ops of all rounds: a spectrum_tsv round has only 8 ops
        "op_p90_ms": metric(statistics.quantiles(
            [x for r in rounds for x in op_ms(r)], n=10, method="inclusive")[-1], "ms"),
        "peak_rss_mb": metric(median_of(lambda r: r["peak_rss_mb"]), "MB"),
    }


def per_layer(base, traced):
    from worker import layer_names

    spans, names = layer_names()
    found = {}
    units = {"calls": "count", "busy_s": "s", "p50_us": "us"}
    for span in spans:
        for key, unit in units.items():
            found[f"{span}.{key}"] = metric(traced["layers"][span][key], unit)
    for key, value in traced["layer_extras"].items():
        found[key] = metric(value, "share" if key.endswith("share") else "MB")
    found["bench.tracing_overhead"] = metric(
        sum(at_reference_speed(traced)) / sum(at_reference_speed(base)), "ratio")
    return {name: found[name] for name in names}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sl2trees", "__init__.py")):
        print("error: no sl2trees sources under src/ next to bench/", file=sys.stderr)
        return 2
    deadline = time.monotonic() + DEADLINE_S
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        setups, rounds = measure(args, workdir, deadline)
        traced = None
        if args.trace:
            spans = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.tsv")
            traced = spawn(args.workload, args.seed, workdir, deadline, trace=1,
                           spans=spans)[2]
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    first = rounds[0]
    attempted = sum(r["ops"] for r in rounds)
    failed = sum(len(r["failures"]) for r in rounds)
    info = {
        "workload": args.workload,
        "why": first["why"],
        "seed": args.seed,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "loop": "closed, one client, one process per round",
        "ops_per_round": first["ops"],
        "samples_beyond_p90": attempted // 10,
        "rounds": len(rounds),
        "ops": attempted,
        "composition_per_round": first["composition"],
        "digest": first["digest"],
        "digest_covers": f"{first['ops']} ops of one round",
        "fail_ratio": failed / attempted,
        "known_defect_failures": sum(len(r["known_defect_ops"]) for r in rounds),
        "unexpected_failures": unexpected(rounds),
        "setup_samples_s": [s for s, _ in setups],
        "reference_ms_median": statistics.median(x for r in rounds for x in r["reference_ms"]),
        "wall_clock_metrics": {k: v["value"] for k, v in
                               end_to_end(setups, rounds, rescale=False).items()},
    }
    if traced is None:
        result = {
            "correct": not info["unexpected_failures"],
            "attempted": attempted,
            "failed": failed,
            "metrics": end_to_end(setups, rounds),
        }
    else:
        mismatched = [i for i, (a, b) in enumerate(zip(first["op_hashes"], traced["op_hashes"]))
                      if a != b]
        info["traced_replay_matches_untraced"] = not mismatched
        info["filled_from_tiny_rounds"] = traced["filled_from_tiny_rounds"]
        result = {
            "correct": not unexpected([traced]) and not mismatched,
            "attempted": traced["ops"],
            "failed": len(set(traced["failures"]) | {str(i) for i in mismatched}),
            "metrics": per_layer(first, traced),
        }
    print(json.dumps(info, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
