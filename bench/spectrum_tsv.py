"""Workload spectrum_tsv: the CLI `spectrum` command writing a TSV.

One op is `cli.main(["spectrum", rep.json, "--max-len", L, "--tsv", out])`.
The traced run replays the same pipeline through the public calls `cli`
makes, so each stage gets its own span.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import tracemalloc
from fractions import Fraction
from itertools import combinations

import exact
from sl2trees import cli
from sl2trees.classify import Representation
from sl2trees.field import PrimeContext
from sl2trees.matrices import SL2Matrix
from sl2trees.repfile import load_representation
from sl2trees.spectrum import length_of, spectrum, to_tsv
from sl2trees.words import DEFAULT_WORD_CAP, Presentation, Word

NAME = "spectrum_tsv"
WHY = (
    "the roadmap's named CLI case: spectrum's integer kernel, Word "
    "construction, the shortlex sort and TSV formatting, and the only "
    "workload that builds a large result, so memory shows here"
)
PRIMES = (2, 3, 5, 7)
# (group, max_len) per scale: genus-2 at L=6 has 156865 rows, free rank 2
# at L=10 has 118097; rank 4 against rank 2 varies the branching factor.
SHAPES = {
    "full": (("surface2", 6), ("free2", 10)),
    "tiny": (("surface2", 2), ("free2", 3)),
}
ROUND_OPS = {"full": 8, "tiny": 8}  # every (shape, prime) pair once
SAMPLE_ROWS = 48
SPANS = (
    "repfile.load_representation",
    "spectrum.spectrum",
    "spectrum.to_tsv",
    "cli.write",
)
EXTRA = ("spectrum.spectrum.alloc_peak_mb", "spectrum.to_tsv.alloc_peak_mb")


def _names(group):
    return ("a1", "b1", "a2", "b2") if group == "surface2" else ("a", "b")


def _presentation(group):
    return Presentation.surface(2) if group == "surface2" else Presentation.free(2)


def build(seed, scale, workdir):
    """One representation file per (shape, prime); op i cycles through them.

    Surface generators are (a1, b1, b1, a1), so [a1,b1][a2,b2] = 1 holds
    for any seeded a1 and b1.
    """
    rng = random.Random(f"{NAME}:{seed}")
    cases = []
    for shape_index in range(len(PRIMES) * 2):
        group, max_len = SHAPES[scale][shape_index % 2]
        p = PRIMES[shape_index // 2]
        scale_p = exact.mat(Fraction(p), 0, 0, Fraction(1, p))
        a1 = exact.mul(exact.random_integral(rng), exact.inv(scale_p))
        b1 = exact.mul(exact.random_integral(rng), scale_p)
        gens = (a1, b1, b1, a1) if group == "surface2" else (a1, b1)
        path = os.path.join(workdir, f"spectrum_rep_{shape_index}.json")
        data = {
            "prime": p,
            "group": (
                {"kind": "surface", "genus": 2}
                if group == "surface2"
                else {"kind": "free", "rank": 2}
            ),
            "generators": {
                name: [[str(m[0]), str(m[1])], [str(m[2]), str(m[3])]]
                for name, m in zip(_names(group), gens)
            },
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(data, handle)
        cases.append({
            "group": group,
            "p": p,
            "max_len": max_len,
            "gens": gens,
            "path": path,
            "out": os.path.join(workdir, f"spectrum_out_{shape_index}.tsv"),
            "conjugator": exact.random_conjugator(rng, p, 1),
            "sample_seed": rng.randrange(2**32),
        })
    return {"cases": cases}


def _case(inputs, i):
    return inputs["cases"][i % len(inputs["cases"])]


def input_key(inputs, i):
    return i % len(inputs["cases"])


def _write(path, text):
    # the same write cmd_spectrum performs for --tsv
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text)


def op(tr, inputs, i):
    case = _case(inputs, i)
    if not tr.enabled:
        argv = ["spectrum", case["path"], "--max-len", str(case["max_len"]),
                "--tsv", case["out"]]
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"cli exited {code}")
        return case["out"]
    rep = tr.call("repfile.load_representation", load_representation, case["path"])
    spec = tr.call("spectrum.spectrum", spectrum, rep, case["max_len"],
                   max_words=DEFAULT_WORD_CAP)
    text = tr.call("spectrum.to_tsv", to_tsv, spec)
    tr.call("cli.write", _write, case["out"], text)
    return case["out"]


def items(inputs, i):
    case = _case(inputs, i)
    rank = len(_names(case["group"]))
    return exact.ball_size(rank, case["max_len"])


def after_op(tr, inputs, i, out):
    pass


def summarize(inputs, i, out):
    # ops on the same input overwrite one file, so hash it before the next op
    with open(out, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def output_bytes(summary):
    return summary.encode()


def digest_bytes(summary):
    return summary.encode()


def _fingerprint_lines(gens):
    """Fundamental traces by plain arithmetic, formatted like the TSV."""
    rank = len(gens)
    lines = []
    for k in range(1, rank + 1):
        for s in combinations(range(1, rank + 1), k):
            m = exact.IDENTITY
            for g in s:
                m = exact.mul(m, gens[g - 1])
            name = "t" + "".join(str(g) for g in s)
            lines.append(f"# fingerprint\t{name}\t{exact.trace(m)}")
    return lines


def _library_rep(case, h=None):
    ctx = PrimeContext(case["p"])
    gens = case["gens"] if h is None else [exact.conj(h, g) for g in case["gens"]]
    mats = {
        name: SL2Matrix(((m[0], m[1]), (m[2], m[3])), ctx)
        for name, m in zip(_names(case["group"]), gens)
    }
    return Representation(_presentation(case["group"]), mats)


def _shortlex_words(names, max_len):
    """Word texts of every reduced word up to max_len, in shortlex order.

    Extending each level's words, themselves in shortlex order, by the
    letters in order (+1, -1, +2, -2, ...) keeps the next level sorted.
    """
    alphabet = []
    for k, name in enumerate(names, start=1):
        alphabet += [(k, name), (-k, name + "'")]
    out = ["1"]
    level = [(0, "")]
    for _ in range(max_len):
        level = [(x, f"{text} {name}" if text else name)
                 for last, text in level for x, name in alphabet if x != -last]
        out.extend(text for _, text in level)
    return out


def check(tr, inputs, i, summary):
    """Header and fingerprint, rows in shortlex order covering the whole
    ball, and a seeded sample of rows re-derived with length_of."""
    case = _case(inputs, i)
    with open(case["out"], "rb") as handle:
        data = handle.read()
    if hashlib.sha256(data).hexdigest() != summary:
        return ["tsv file changed after the op"]
    names = _names(case["group"])
    lines = data.decode("utf-8").split("\n")
    if lines.pop() != "":
        return ["tsv does not end in a newline"]
    descriptor = "surface(2)" if case["group"] == "surface2" else "free(2)"
    head = [
        f"# presentation\t{descriptor}",
        f"# prime\t{case['p']}",
        f"# max_len\t{case['max_len']}",
    ] + _fingerprint_lines(case["gens"]) + ["word\tlength"]
    if lines[: len(head)] != head:
        return ["header or fingerprint lines differ"]
    rows = [line.split("\t") for line in lines[len(head):]]
    words = _shortlex_words(names, case["max_len"])
    if len(rows) != len(words):
        return [f"{len(rows)} rows, expected {len(words)}"]
    if any(row[0] != word for row, word in zip(rows, words)):
        return ["rows are not the reduced words in shortlex order"]
    index = {name: k for k, name in enumerate(names, start=1)}
    rng = random.Random(case["sample_seed"])
    rep = _library_rep(case)
    conjugated = _library_rep(case, case["conjugator"])
    for text, ell in rng.sample(rows, min(SAMPLE_ROWS, len(rows))):
        w = Word(() if text == "1" else tuple(
            -index[t[:-1]] if t.endswith("'") else index[t] for t in text.split(" ")))
        if length_of(rep, w) != int(ell):
            return ["sampled row disagrees with length_of"]
        if length_of(conjugated, w) != int(ell):
            return ["sampled row disagrees with length_of after conjugation"]
    return []


def known_defect(inputs, i, fails):
    return False


def layer_metrics(tr, inputs, n_ops):
    """Allocation peaks of spectrum and to_tsv on op 0's input.

    tracemalloc slows allocation-heavy code several times over, so this
    runs apart from the timed spans.
    """
    case = _case(inputs, 0)
    rep = load_representation(case["path"])
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        spec = spectrum(rep, case["max_len"], max_words=DEFAULT_WORD_CAP)
        spec_peak = tracemalloc.get_traced_memory()[1] - base
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        to_tsv(spec)
        tsv_peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return {
        "spectrum.spectrum.alloc_peak_mb": spec_peak / 1e6,
        "spectrum.to_tsv.alloc_peak_mb": tsv_peak / 1e6,
    }


def composition(inputs, n_ops):
    rows = {}
    primes = {}
    for i in range(n_ops):
        case = _case(inputs, i)
        rows[f"{case['group']}@L={case['max_len']}"] = items(inputs, i)
        primes[case["p"]] = primes.get(case["p"], 0) + 1
    return {"rows_per_spectrum": rows, "ops_per_prime": primes}
