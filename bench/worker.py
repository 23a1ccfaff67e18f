"""One round of one workload, in a fresh interpreter that run.py starts.

The process imports sl2trees from the checkout's `src`, builds the seeded
inputs, prints READY, runs the round's fixed number of ops in a closed
loop with one client (each op starts when the previous one returns),
reads its peak RSS, checks every op's output outside the timed region
(unless --no-check), and prints one JSON result line.

A round always starts from empty library caches and runs the same number
of ops, so its figures do not depend on how many ops ran before it.  A
traced round wraps each call into a module in a span and then fills in,
from tiny rounds of the other workloads, the spans its own ops never
reach, so every per-layer name has a measured value.

    python3 bench/worker.py --workload trace_rewrite --seed 1 --workdir DIR
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import resource
import sys
import traceback
from fractions import Fraction
from time import perf_counter_ns

BENCH = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(BENCH), "src")
WORKLOADS = ("spectrum_tsv", "rep_sessions", "trace_rewrite")
REFERENCE_EVERY_NS = 200_000_000


def import_library():
    """Put the checkout's src first on the path and refuse any other copy."""
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import sl2trees

    if not os.path.abspath(sl2trees.__file__).startswith(SRC + os.sep):
        raise ImportError(f"sl2trees imported from {sl2trees.__file__}, not {SRC}")


def modules():
    import_library()
    return {name: importlib.import_module(name) for name in WORKLOADS}


def layer_names():
    """Span names, and every per-layer metric a traced run reports, in order."""
    mods = modules()
    spans = []
    for mod in mods.values():
        spans.extend(s for s in mod.SPANS if s not in spans)
    names = [f"{s}.{k}" for s in spans for k in ("calls", "busy_s", "p50_us")]
    for mod in mods.values():
        names.extend(mod.EXTRA)
    return spans, names + ["bench.tracing_overhead"]


def reference_work():
    """Fixed pure-Python work: Fraction arithmetic, tuples and a sort.

    It never touches sl2trees, so its duration tracks only how fast the
    machine runs Python at the moment; other tenants of a shared host can
    change that by a quarter within seconds.
    """
    x = Fraction(1)
    acc = 0
    for i in range(1, 120):
        x = (x * 3 + Fraction(1, i)) / 2
        acc += x.numerator % 7
    items = [((i * 7919) % 1000, (i, -i)) for i in range(1500)]
    items.sort()
    return acc


def reference_ms():
    """The fastest of five runs of reference_work, in ms."""
    best = None
    for _ in range(5):
        start = perf_counter_ns()
        reference_work()
        elapsed = perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / 1e6


def measure(mod, inputs, tr, n_ops):
    """Run ops 0..n_ops-1 back to back; time each one.

    reference_ms runs between ops every REFERENCE_EVERY_NS of op time, so
    each op lies in a slice bounded by two reference timings; `speed`
    holds, per op, the slice's mean reference time.
    """
    op_ns, summaries, errors = [], [], {}
    references = [reference_ms()]
    slices = []
    since = 0
    for i in range(n_ops):
        tr.op = i
        start = perf_counter_ns()
        try:
            out = tr.call("bench.op", mod.op, tr, inputs, i)
        except Exception as exc:  # a failed op is counted and the round goes on
            out = None
            errors[i] = f"raised {type(exc).__name__}: {exc}"
            traceback.print_exc(file=sys.stderr)
        op_ns.append(perf_counter_ns() - start)
        slices.append(len(references) - 1)
        since += op_ns[-1]
        if since >= REFERENCE_EVERY_NS:
            references.append(reference_ms())
            since = 0
        if out is None:
            summaries.append(None)
            continue
        if tr.enabled:
            mod.after_op(tr, inputs, i, out)
        summaries.append(mod.summarize(inputs, i, out))
    references.append(reference_ms())
    speed = [(references[k] + references[k + 1]) / 2 for k in slices]
    return op_ns, speed, summaries, errors


def check_all(mod, tr, inputs, summaries, errors, check=True):
    """Failure reasons per op and a hash of every op's output.

    The first op on each distinct input gets the workload's full check;
    a later op on the same input must produce the same output.  Without
    `check`, only ops that raised fail and the caller compares the hashes
    with a checked round on the same inputs.
    """
    failures, hashes, checked = {}, [], {}
    for i, summary in enumerate(summaries):
        if summary is None:
            failures[i] = [errors[i]]
            hashes.append(None)
            continue
        tr.op = i
        out_hash = hashlib.sha256(mod.output_bytes(summary)).hexdigest()
        hashes.append(out_hash)
        key = mod.input_key(inputs, i)
        if not check:
            continue
        if key in checked:
            first_hash, reasons = checked[key]
            if first_hash != out_hash:
                reasons = ["output differs from an earlier op on the same input"]
        else:
            reasons = mod.check(tr, inputs, i, summary)
            checked[key] = (out_hash, reasons)
        if reasons:
            failures[i] = reasons
    return failures, hashes


def fill_in(mods, mod, tr, seed, workdir):
    """Record the spans and extra metrics this workload's ops never reach,
    from tiny rounds of the workloads that do reach them."""
    spans, _ = layer_names()
    missing = set(spans) - tr.names()
    extras = {}
    filled = sorted(missing)
    tr.only = missing
    tr.op = -1
    for other in mods.values():
        if other is mod:
            continue
        tiny = other.build(seed, "tiny", workdir)
        n_ops = other.ROUND_OPS["tiny"]
        j = 0
        while j < n_ops and (j == 0 or set(other.SPANS) & missing - tr.names()):
            out = other.op(tr, tiny, j)
            other.after_op(tr, tiny, j, out)
            other.check(tr, tiny, j, other.summarize(tiny, j, out))
            j += 1
        extras.update(other.layer_metrics(tr, tiny, j))
        filled.extend(other.EXTRA)
    tr.only = None
    return extras, filled


def run(name, seed, traced=False, workdir=".", scale="full", ready=None,
        spans_path=None, setup_only=False, check=True):
    """Build one round's inputs, run and check its ops; return the result."""
    from spans import Tracer

    mods = modules()
    mod = mods[name]
    inputs = mod.build(seed, scale, workdir)
    if ready is not None:
        ready()
    if setup_only:
        return None
    tr = Tracer(traced)
    op_ns, speed, summaries, errors = measure(mod, inputs, tr, mod.ROUND_OPS[scale])
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    failures, hashes = check_all(mod, tr, inputs, summaries, errors, check)
    n = len(op_ns)
    digest = hashlib.sha256()
    for summary in summaries:
        digest.update(mod.digest_bytes(summary) if summary is not None else b"<failed>\n")
    result = {
        "workload": name,
        "traced": traced,
        "ops": n,
        "items": sum(mod.items(inputs, i) for i in range(n)),
        "op_ms": [x / 1e6 for x in op_ns],
        "reference_ms": speed,
        "peak_rss_mb": peak_rss_mb,
        "failures": {str(i): r for i, r in sorted(failures.items())},
        "known_defect_ops": sorted(i for i, r in failures.items()
                                   if mod.known_defect(inputs, i, r)),
        "op_hashes": hashes,
        "digest": digest.hexdigest(),
        "composition": mod.composition(inputs, n),
        "why": mod.WHY,
    }
    if traced:
        extras = mod.layer_metrics(tr, inputs, n)
        more, filled = fill_in(mods, mod, tr, seed, os.path.join(workdir, "fill"))
        extras.update({k: v for k, v in more.items() if k not in extras})
        result["layers"] = tr.summary()
        result["layer_extras"] = extras
        result["filled_from_tiny_rounds"] = sorted(
            f for f in filled if f not in mod.SPANS + mod.EXTRA)
        if spans_path is not None:
            tr.write(spans_path)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None, help="write the raw spans here")
    parser.add_argument("--setup-only", action="store_true",
                        help="exit after building the inputs")
    parser.add_argument("--no-check", action="store_true",
                        help="hash outputs without checking them")
    args = parser.parse_args(argv)
    os.makedirs(os.path.join(args.workdir, "fill"), exist_ok=True)

    def ready():
        print("READY", flush=True)

    result = run(args.workload, args.seed, bool(args.trace), args.workdir, ready=ready,
                 spans_path=args.spans, setup_only=args.setup_only,
                 check=not args.no_check)
    if result is not None:
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
