"""Workload rep_sessions: the calls a user makes while exploring one representation.

One op is one session on a seeded representation: build it, classify it,
take lengths, an axis or fixed vertex, tree moves, a ball, a short
commutator trace scan and (for surface groups) Dehn reductions.
"""

from __future__ import annotations

import operator
import random
from dataclasses import fields
from fractions import Fraction

import exact
from sl2trees.classify import (
    Representation,
    algebra_dimension,
    classify,
    commutator_trace_scan,
    fixed_lattice_certificate,
    is_bounded,
    is_reducible_over_rationals,
)
from sl2trees.field import PrimeContext
from sl2trees.isometry import axis_segment, fixed_vertex, translation_length
from sl2trees.matrices import SL2Matrix
from sl2trees.spectrum import length_of
from sl2trees.tree import (
    TreeVertex,
    act,
    canonical_vertex,
    distance,
    geodesic,
    neighbors,
    tree_ball,
)
from sl2trees.words import Presentation, Word, dehn_reduce, evaluate

NAME = "rep_sessions"
WHY = (
    "many small calls with no large result: SL2Matrix products, Fraction "
    "arithmetic, lattice saturation, tree canonicalisation and isometry; "
    "the degenerate family (cyclic and torus-normalizer images) keeps the "
    "known defect of reporting them zariski_dense visible as failed sessions"
)
PRIMES = (2, 3, 5, 7)
GROUPS = ("free2", "free3", "surface2")
FAMILIES = ("bounded", "unbounded", "reducible", "degenerate")
# degenerate variant 0 is a cyclic hyperbolic image, variant 1 an image in
# a torus normalizer: the two known shapes that classify wrongly reports
# zariski_dense (unbounded and rationally irreducible, yet not dense)
# Structural parameters (family, group, variant, prime, the p-adic depth k
# of traces and conjugators, word lengths) follow the case index, so every
# seed gets the same mix and only the values drawn inside it change.
DEPTHS = (1, 2)
POOL = len(PRIMES) * len(GROUPS) * len(FAMILIES) * 2 * len(DEPTHS)
ROUND_OPS = {"full": POOL, "tiny": 48}
SCAN_LEN = 2  # at total length 8 one scan alone takes about 10 s
BATCH = 16
VERTICES = 4
SCAN_SAMPLE = 6
SPANS = (
    "classify.Representation",
    "classify.classify",
    "spectrum.length_of",
    "isometry.axis_segment",
    "isometry.fixed_vertex",
    "tree.act",
    "tree.distance",
    "tree.geodesic",
    "tree.tree_ball",
    "classify.commutator_trace_scan",
    "words.dehn_reduce",
    # probes on the session's own inputs, timed outside the session op
    "classify.is_bounded",
    "classify.fixed_lattice_certificate",
    "classify.is_reducible_over_rationals",
    "classify.algebra_dimension",
    "matrices.SL2Matrix.mul",
    "words.evaluate",
    "field.PrimeContext.valuation",
    "tree.neighbors",
    "tree.canonical_vertex",
    "isometry.translation_length",
)
EXTRA = ()
KNOWN_DEFECT = "zariski_dense"


def _names(group):
    return {"free2": ("a", "b"), "free3": ("a", "b", "c"),
            "surface2": ("a1", "b1", "a2", "b2")}[group]


def _presentation(group):
    return {"free2": Presentation.free(2), "free3": Presentation.free(3),
            "surface2": Presentation.surface(2)}[group]


def _hyperbolic_trace(rng, p, k):
    """x = u / p^k with u a unit: v(x) = -k < 0."""
    u = rng.choice([q for q in range(-9, 10) if q % p])
    return Fraction(u, p**k)


def _generators(rng, family, variant, group, p, k):
    """Pre-conjugation generators of the family, plus its known truth."""
    rank = len(_names(group))
    pair_rank = 2 if group == "surface2" else rank
    if family == "bounded":
        gens = [exact.random_integral(rng) for _ in range(pair_rank)]
        truth = {"bounded": True, "zariski_dense": False}
    elif family == "unbounded":
        # tr[a, b] = 2 + c^2 != 2: absolutely irreducible; b is a nontrivial
        # unipotent, so the image lies in no torus normalizer
        x = _hyperbolic_trace(rng, p, k)
        c = rng.choice([q for q in range(-4, 5) if q])
        gens = [exact.mat(x, 1, -1, 0), exact.mat(1, 0, c, 1)]
        gens += [exact.random_integral(rng) for _ in range(pair_rank - 2)]
        truth = {"bounded": False, "reducible_over_rationals": False,
                 "algebra_dimension": 4, "zariski_dense": True}
    elif family == "reducible":
        gens = []
        for j in range(pair_rank):
            t = Fraction(p) ** (k if j == 0 else 1) * rng.choice([1, -1])
            gens.append(exact.mat(t, rng.choice([1, 2, -3]), 0, 1 / t))
        truth = {"bounded": False, "reducible_over_rationals": True,
                 "zariski_dense": False}
    elif variant == 0:
        while True:
            x = _hyperbolic_trace(rng, p, k)
            if not exact.rational_square(x * x - 4):
                break
        a = exact.mat(0, -1, 1, x)
        gens = [a, exact.power(a, 2), exact.power(a, -1)][:pair_rank]
        truth = {"bounded": False, "reducible_over_rationals": False,
                 "algebra_dimension": 2, "zariski_dense": False}
    else:
        t = Fraction(p) ** k
        gens = [exact.mat(t, 0, 0, 1 / t), exact.mat(0, 1, -1, 0),
                exact.mat(1 / t, 0, 0, t)][:pair_rank]
        truth = {"bounded": False, "reducible_over_rationals": False,
                 "algebra_dimension": 4, "zariski_dense": False}
    if group == "surface2":
        gens = [gens[0], gens[1], gens[1], gens[0]]
    return gens, truth


def _case(rng, family, variant, group, p, k):
    gens, truth = _generators(rng, family, variant, group, p, k)
    h = exact.random_conjugator(rng, p, k)
    gens = tuple(exact.conj(h, g) for g in gens)
    rank = len(gens)
    # a conjugate of the first generator: hyperbolic except in the bounded family
    x = rng.choice([s * j for j in range(2, rank + 1) for s in (1, -1)])
    script = {
        "batch": [exact.random_reduced(rng, rank, 4 + j % 7) for j in range(BATCH)],
        "geo": (x, 1, -x),
        "vertices": [(rng.randint(-2, 3), Fraction(rng.randint(0, 40), p ** rng.randint(0, 2)))
                     for _ in range(VERTICES)],
        "dehn": [],
        # the scan runs in half the sessions, to stay a minority of the work
        "scan": variant == 0,
        "scan_seed": rng.randrange(2**32),
    }
    if group == "surface2":
        relator = (1, 2, -1, -2, 3, 4, -3, -4)
        for _ in range(3):
            u = exact.random_reduced(rng, rank, 3)
            turn = rng.randrange(len(relator))
            r = relator[turn:] + relator[:turn]
            if rng.random() < 0.5:
                r = tuple(-x for x in reversed(r))
            cut = rng.randint(0, len(u))
            script["dehn"].append(u[:cut] + r + u[cut:])
    name = family if family != "degenerate" else ("degenerate:cyclic", "degenerate:torus")[variant]
    return {"family": family, "shape": name, "group": group, "p": p, "depth": k,
            "gens": gens, "truth": truth, "script": script}


def build(seed, scale, workdir):
    """The pool of seeded cases, interleaved so any prefix is well mixed."""
    rng = random.Random(f"{NAME}:{seed}")
    cases = []
    for i in range(POOL):
        family = FAMILIES[i % 4]
        group = GROUPS[(i // 4) % 3]
        variant = (i // 12) % 2
        p = PRIMES[(i // 24) % 4]
        k = DEPTHS[(i // 96) % 2]
        cases.append(_case(rng, family, variant, group, p, k))
    return {"cases": cases}


def input_key(inputs, i):
    return i % len(inputs["cases"])


def items(inputs, i):
    return 1


def op(tr, inputs, i):
    case = inputs["cases"][input_key(inputs, i)]
    script = case["script"]
    ctx = PrimeContext(case["p"])
    presentation = _presentation(case["group"])
    mats = {name: SL2Matrix(((m[0], m[1]), (m[2], m[3])), ctx)
            for name, m in zip(_names(case["group"]), case["gens"])}
    rep = tr.call("classify.Representation", Representation, presentation, mats)
    report = tr.call("classify.classify", classify, rep)
    lengths = [tr.call("spectrum.length_of", length_of, rep, Word(w))
               for w in script["batch"]]
    geo = Word(script["geo"])
    geo_length = tr.call("spectrum.length_of", length_of, rep, geo)
    g = rep.evaluate(geo)
    if geo_length:
        axis = tr.call("isometry.axis_segment", axis_segment, g, window=2)
        fixed = None
        anchor = axis.vertices[0]
    else:
        axis = None
        fixed = tr.call("isometry.fixed_vertex", fixed_vertex, g)
        anchor = fixed
    moves = []
    for level, center in script["vertices"]:
        x = TreeVertex(level, center, ctx)
        y = tr.call("tree.act", act, g, x)
        d = tr.call("tree.distance", distance, x, y)
        path = tr.call("tree.geodesic", geodesic, x, y)
        moves.append((x, y, d, path))
    ball = tr.call("tree.tree_ball", tree_ball, anchor, 2)
    scan = (tr.call("classify.commutator_trace_scan", commutator_trace_scan, rep, SCAN_LEN)
            if script["scan"] else [])
    dehn = [tr.call("words.dehn_reduce", dehn_reduce, Word(w), presentation)
            for w in script["dehn"]]
    return {"rep": rep, "report": report, "lengths": lengths, "geo_length": geo_length,
            "g": g, "axis": axis, "fixed": fixed, "moves": moves, "ball": ball,
            "scan": scan, "dehn": dehn}


def after_op(tr, inputs, i, out):
    """Probe spans on the session's own inputs, outside the timed op."""
    rep, g = out["rep"], out["g"]
    script = inputs["cases"][input_key(inputs, i)]["script"]
    bounded, _ = tr.call("classify.is_bounded", is_bounded, rep)
    if bounded:
        tr.call("classify.fixed_lattice_certificate", fixed_lattice_certificate, rep)
    tr.call("classify.is_reducible_over_rationals", is_reducible_over_rationals, rep)
    tr.call("classify.algebra_dimension", algebra_dimension, rep)
    mats = rep.matrices
    for m, n in zip(mats, mats[1:] + mats[:1]):
        tr.call("matrices.SL2Matrix.mul", operator.mul, m, n)
    for w in script["batch"]:
        image = tr.call("words.evaluate", evaluate, Word(w), mats)
        tr.call("field.PrimeContext.valuation", rep.context.valuation, image.a + image.d)
    anchor = out["fixed"] if out["fixed"] is not None else out["axis"].vertices[0]
    tr.call("tree.neighbors", neighbors, anchor)
    tr.call("tree.canonical_vertex", canonical_vertex, g)
    tr.call("isometry.translation_length", translation_length, g)


def _vertex(v):
    return (v.level, v.center)


def _report_text(report):
    lines = []
    for f in fields(report):
        value = getattr(report, f.name)
        if hasattr(value, "text"):
            value = value.text()
        elif hasattr(value, "letters"):
            value = value.letters
        lines.append(f"{f.name}={value}")
    return "\n".join(lines) + "\n"


def summarize(inputs, i, out):
    """Plain data the checks need; library objects are dropped here."""
    report = out["report"]
    rng = random.Random(inputs["cases"][input_key(inputs, i)]["script"]["scan_seed"])
    scan = out["scan"]
    sample = rng.sample(scan, min(SCAN_SAMPLE, len(scan)))
    return {
        "report_text": _report_text(report),
        "bounded": report.bounded,
        "fixed_lattice": _vertex(report.fixed_lattice) if report.fixed_lattice else None,
        "witness": report.unbounded_witness.letters if report.unbounded_witness else None,
        "reducible": report.reducible_over_rationals,
        "line": report.invariant_line,
        "dimension": report.algebra_dimension,
        "dense": report.zariski_dense,
        "lengths": tuple(out["lengths"]),
        "geo_length": out["geo_length"],
        "axis": (tuple(_vertex(v) for v in out["axis"].vertices), out["axis"].shift)
        if out["axis"] else None,
        "fixed": _vertex(out["fixed"]) if out["fixed"] is not None else None,
        "moves": tuple((_vertex(x), _vertex(y), d, tuple(_vertex(v) for v in path))
                       for x, y, d, path in out["moves"]),
        "ball": tuple(_vertex(v) for v in out["ball"].vertices),
        "scan_size": len(scan),
        "scan_non_two": sum(1 for _, t in scan if t != 2),
        "scan_sample": tuple((w.letters, t.value) for w, t in sample),
        "dehn": tuple(w.letters for w in out["dehn"]),
    }


def output_bytes(summary):
    return repr(sorted(summary.items())).encode()


def digest_bytes(summary):
    return summary["report_text"].encode()


def check(tr, inputs, i, s):
    """Re-check the session by plain arithmetic and against the family truth."""
    case = inputs["cases"][input_key(inputs, i)]
    p, gens, script = case["p"], case["gens"], case["script"]
    fails = []
    # certificates
    if s["bounded"]:
        if s["fixed_lattice"] is None:
            fails.append("bounded without a fixed lattice")
        else:
            b = exact.vertex_basis(*s["fixed_lattice"], p)
            if not all(exact.is_integral(exact.mul(exact.mul(exact.inv(b), m), b), p)
                       for m in gens):
                fails.append("fixed lattice certificate")
    elif s["witness"] is None or exact.val(exact.trace(exact.word_matrix(s["witness"], gens)), p) >= 0:
        fails.append("unbounded witness")
    if s["reducible"] and (s["line"] is None or
                           not all(exact.eigenline(m, s["line"]) for m in gens)):
        fails.append("invariant line")
    # verdicts against the family's known truth
    verdicts = {"bounded": s["bounded"], "reducible_over_rationals": s["reducible"],
                "algebra_dimension": s["dimension"], "zariski_dense": s["dense"]}
    for key, want in case["truth"].items():
        if verdicts[key] != want:
            fails.append(key)
    if case["family"] == "reducible" and s["dimension"] > 3:
        fails.append("algebra_dimension")
    # lengths
    for w, ell in zip(script["batch"], s["lengths"]):
        if exact.length(exact.word_matrix(w, gens), p) != ell:
            fails.append("length_of")
            break
    g = exact.word_matrix(script["geo"], gens)
    if exact.length(g, p) != s["geo_length"]:
        fails.append("length_of")

    def moved(u, v):
        # v is the image of u under g, as lattice classes
        return exact.class_distance(exact.vertex_basis(*v, p),
                                    exact.mul(g, exact.vertex_basis(*u, p)), p) == 0

    if s["axis"] is not None:
        vertices, shift = s["axis"]
        if shift != s["geo_length"] or len(vertices) <= shift:
            fails.append("axis shift")
        elif not all(moved(vertices[k], vertices[k + shift])
                     for k in range(len(vertices) - shift)):
            fails.append("act(g, axis[i]) != axis[i + shift]")
    elif s["fixed"] is None or not moved(s["fixed"], s["fixed"]):
        fails.append("fixed vertex")
    for x, y, d, path in s["moves"]:
        basis = [exact.vertex_basis(*v, p) for v in path]
        if (not moved(x, y)
                or exact.class_distance(exact.vertex_basis(*x, p), exact.vertex_basis(*y, p), p) != d
                or len(path) != d + 1 or path[0] != x or path[-1] != y
                or any(exact.class_distance(u, v, p) != 1 for u, v in zip(basis, basis[1:]))):
            fails.append("act/distance/geodesic")
            break
    centre = exact.vertex_basis(*s["ball"][0], p)
    if (len(s["ball"]) != p * p + 2 * p + 2 or len(set(s["ball"])) != len(s["ball"])
            or any(exact.class_distance(centre, exact.vertex_basis(*v, p), p) > 2
                   for v in s["ball"])):
        fails.append("tree_ball")
    for letters, t in s["scan_sample"]:
        if exact.trace(exact.word_matrix(letters, gens)) != t:
            fails.append("commutator trace")
            break
    if s["scan_non_two"] and s["dimension"] != 4:
        fails.append("commutator trace != 2 without algebra_dimension 4")
    for w, reduced in zip(script["dehn"], s["dehn"]):
        if len(reduced) > len(w) or exact.word_matrix(w, gens) != exact.word_matrix(reduced, gens):
            fails.append("dehn_reduce")
            break
    return fails


def known_defect(inputs, i, fails):
    """The wrong zariski_dense verdict on degenerate inputs, and nothing else."""
    case = inputs["cases"][input_key(inputs, i)]
    return case["family"] == "degenerate" and fails == [KNOWN_DEFECT]


def layer_metrics(tr, inputs, n_ops):
    return {}


def composition(inputs, n_ops):
    out = {"family": {}, "group": {}, "prime": {}, "depth": {}}
    for i in range(n_ops):
        case = inputs["cases"][input_key(inputs, i)]
        for key, value in (("family", case["shape"]), ("group", case["group"]),
                           ("prime", case["p"]), ("depth", case["depth"])):
            out[key][value] = out[key].get(value, 0) + 1
    degenerate = sum(v for k, v in out["family"].items() if k.startswith("degenerate"))
    out["degenerate_share"] = degenerate / n_ops if n_ops else 0.0
    return out
