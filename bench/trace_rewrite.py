"""Workload trace_rewrite: trace polynomials of seeded words.

One op is `trace_polynomial(w, rank)`.  About a quarter of the words are
a rotation or inverse of an earlier word in the same run, so the memo's
hit path runs beside its fill path.
"""

from __future__ import annotations

import random
from fractions import Fraction

import exact
from sl2trees.field import PrimeContext
from sl2trees.matrices import SL2Matrix
from sl2trees.traces import TracePolynomial, fundamental_traces, trace_polynomial
from sl2trees.words import Word, evaluate

NAME = "trace_rewrite"
WHY = (
    "the only workload where the traces rewriter and TracePolynomial "
    "arithmetic dominate; repeated words exercise the memo's hit path "
    "beside its fill path"
)
# Word lengths per rank.  Cost grows steeply with length and rank: single
# rank-3 words of length 14 or rank-4 words of length 10 take up to 0.1 s
# and would let a few seeded words set a run's throughput.
LENGTHS = {
    "full": {2: (6, 18), 3: (6, 12), 4: (6, 9)},
    "tiny": {2: (4, 8), 3: (4, 6), 4: (4, 5)},
}
REPEAT_EVERY = 4  # op i is a repeat when i % 4 == 3
ROUND_OPS = {"full": 3000, "tiny": 100}  # full: about 4 s at the seed commit
ASSIGNMENT_PRIME = 5
SPANS = (
    "traces.trace_polynomial.fresh",
    "traces.trace_polynomial.repeat",
    "traces.fundamental_traces",
    "traces.TracePolynomial.evaluate",
    "words.evaluate",
)
EXTRA = ("traces.repeat_share",)


class WordStream:
    """Op i's word, generated in order from the seed on first request.

    Ranks and lengths follow a fixed cycle, so every seed gets the same
    mix; the seed picks the letters and which earlier word a repeat reuses.
    """

    def __init__(self, seed, scale):
        self.rng = random.Random(f"{NAME}:{seed}")
        self.lengths = LENGTHS[scale]
        self.ops = []  # (letters, rank, repeat)
        self.fresh = []

    def __getitem__(self, i):
        rng = self.rng
        while len(self.ops) <= i:
            if len(self.ops) % REPEAT_EVERY == REPEAT_EVERY - 1:
                letters, rank = rng.choice(self.fresh)
                k = rng.randrange(len(letters))
                letters = letters[k:] + letters[:k]
                if rng.random() < 0.5:
                    letters = tuple(-x for x in reversed(letters))
                self.ops.append((letters, rank, True))
            else:
                f = len(self.fresh)
                rank = (2, 3, 4)[f % 3]
                lo, hi = self.lengths[rank]
                letters = exact.random_reduced(rng, rank, lo + (f // 3) % (hi - lo + 1),
                                               cyclic=True)
                self.fresh.append((letters, rank))
                self.ops.append((letters, rank, False))
        return self.ops[i]


def build(seed, scale, workdir):
    stream = WordStream(seed, scale)
    stream[ROUND_OPS[scale] - 1]
    rng = random.Random(f"{NAME}:assignment:{seed}")
    # an unbounded-looking seeded assignment, one matrix per generator
    assignment = [exact.mul(exact.random_integral(rng),
                            exact.mat(ASSIGNMENT_PRIME, 0, 0, Fraction(1, ASSIGNMENT_PRIME)))
                  for _ in range(4)]
    return {"words": stream, "assignment": assignment, "values": {}}


def input_key(inputs, i):
    return i


def items(inputs, i):
    return 1


def op(tr, inputs, i):
    letters, rank, repeat = inputs["words"][i]
    name = "traces.trace_polynomial.repeat" if repeat else "traces.trace_polynomial.fresh"
    return tr.call(name, trace_polynomial, Word(letters), rank)


def after_op(tr, inputs, i, out):
    pass


def summarize(inputs, i, out):
    # polynomials are held by the library's memo anyway; text comes later
    return out


def output_bytes(summary):
    return summary.text().encode()


def digest_bytes(summary):
    return summary.text().encode() + b"\n"


def check(tr, inputs, i, poly):
    """poly(fundamental traces) equals the trace of the evaluated word."""
    letters, rank, _ = inputs["words"][i]
    ctx = PrimeContext(ASSIGNMENT_PRIME)
    mats = [SL2Matrix(((m[0], m[1]), (m[2], m[3])), ctx)
            for m in inputs["assignment"][:rank]]
    values = inputs["values"].get(rank)
    if values is None:
        values = tr.call("traces.fundamental_traces", fundamental_traces, mats).entries
        inputs["values"][rank] = values
    left = tr.call("traces.TracePolynomial.evaluate", TracePolynomial.evaluate, poly, values)
    right = tr.call("words.evaluate", evaluate, Word(letters), mats).trace()
    return [] if left == right else ["polynomial value != direct trace"]


def known_defect(inputs, i, fails):
    return False


def layer_metrics(tr, inputs, n_ops):
    repeats = sum(1 for i in range(n_ops) if inputs["words"][i][2])
    return {"traces.repeat_share": repeats / n_ops if n_ops else 0.0}


def composition(inputs, n_ops):
    ranks, lengths = {}, {}
    for i in range(n_ops):
        letters, rank, _ = inputs["words"][i]
        ranks[rank] = ranks.get(rank, 0) + 1
        lengths[len(letters)] = lengths.get(len(letters), 0) + 1
    return {"rank": ranks, "length": dict(sorted(lengths.items())),
            "traces.repeat_share": layer_metrics(None, inputs, n_ops)["traces.repeat_share"]}
