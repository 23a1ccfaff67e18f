"""Command line driver.

Exit codes: 0 on success, 1 for invalid input or domain errors, 2 for
usage errors (argparse's own convention).  All output is deterministic:
same input file and flags, same bytes.
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from typing import List, Optional

from .classify import classify
from .errors import Sl2TreesError
from .field import PrimeContext
from .isometry import _axis_ends, translation_length
from .repfile import load_representation
from .spectrum import _spectrum_writer, length_of
from .traces import trace_polynomial
from .tree import (
    DEFAULT_NODE_CAP,
    TreeBall,
    distance,
    geodesic,
    parse_vertex,
    tree_ball,
)
from .words import DEFAULT_WORD_CAP, Presentation, parse_word, word_to_text


def _fmt_value(value) -> str:
    if value is None:
        return "none"
    if isinstance(value, bool):
        return "true" if value else "false"
    text = str(value)
    return f'"{text}"' if " " in text else text


def cmd_classify(args) -> int:
    rep = load_representation(args.path)
    report = classify(rep)
    presentation = rep.presentation
    witness = (
        word_to_text(report.unbounded_witness, presentation)
        if report.unbounded_witness is not None
        else None
    )
    line = (
        f"{report.invariant_line[0]}:{report.invariant_line[1]}"
        if report.invariant_line is not None
        else None
    )
    character = (
        ",".join(f"{name}:{mu}" for name, mu in report.character_exponents)
        if report.character_exponents is not None
        else None
    )
    rows = [
        ("prime", report.prime),
        ("presentation", presentation.descriptor()),
        ("bounded", report.bounded),
        ("fixed_lattice", report.fixed_lattice.text() if report.fixed_lattice else None),
        ("unbounded_witness", witness),
        ("reducible_over_rationals", report.reducible_over_rationals),
        ("invariant_line", line),
        ("algebra_dimension", report.algebra_dimension),
        ("absolutely_irreducible", report.absolutely_irreducible),
        ("reducible_over_completion", report.reducible_over_completion),
        ("zariski_dense", report.zariski_dense),
        ("zariski_note", report.zariski_note),
        ("length_abelian", report.length_abelian),
        ("character", character),
    ]
    for key, value in rows:
        print(f"{key}={_fmt_value(value)}")
    return 0


def cmd_spectrum(args) -> int:
    rep = load_representation(args.path)
    # refused requests raise here, before --tsv is opened or truncated
    write = _spectrum_writer(rep, args.max_len, args.max_words)
    with (open(args.tsv, "w", encoding="utf-8") if args.tsv
          else contextlib.nullcontext(sys.stdout)) as out:
        write(out)
    return 0


def cmd_length(args) -> int:
    rep = load_representation(args.path)
    for text in args.words:
        w = parse_word(text, rep.presentation)
        print(f"{word_to_text(w, rep.presentation)}\t{length_of(rep, w)}")
    return 0


def cmd_trace_poly(args) -> int:
    presentation = Presentation.free(args.rank)
    w = parse_word(args.word, presentation)
    print(trace_polynomial(w, args.rank).text())
    return 0


def to_dot(ball: TreeBall) -> str:
    """Unstyled undirected DOT graph, vertices in discovery order."""
    lines = ["graph ball {"]
    for v in ball.vertices:
        lines.append(f'  "{v.text()}";')
    for e in ball.edges:
        lines.append(f'  "{e.x.text()}" -- "{e.y.text()}";')
    lines.append("}")
    return "\n".join(lines) + "\n"


def cmd_tree_ball(args) -> int:
    context = PrimeContext(args.prime)
    center = parse_vertex(args.center, context)
    ball = tree_ball(center, args.radius, max_nodes=args.max_nodes)
    if args.dot:
        sys.stdout.write(to_dot(ball))
        return 0
    for v in ball.vertices:
        print(f"vertex\t{v.text()}")
    for e in ball.edges:
        print(f"edge\t{e.x.text()}\t{e.y.text()}")
    return 0


def cmd_tree_distance(args) -> int:
    context = PrimeContext(args.prime)
    u = parse_vertex(args.u, context)
    v = parse_vertex(args.v, context)
    print(distance(u, v))
    return 0


def cmd_tree_geodesic(args) -> int:
    context = PrimeContext(args.prime)
    u = parse_vertex(args.u, context)
    v = parse_vertex(args.v, context)
    for x in geodesic(u, v):
        print(x.text())
    return 0


def cmd_tree_axis(args) -> int:
    rep = load_representation(args.path)
    w = parse_word(args.word, rep.presentation)
    g = rep.evaluate(w)
    ends = _axis_ends(g, args.window)
    for v in ends:  # each window vertex's numbers are at most an end's
        v.text()
    print(f"translation_length\t{translation_length(g)}")
    for v in geodesic(*ends):
        print(v.text())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sl2trees",
        description="Exact p-adic tree lengths and classification for "
        "SL(2) representations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_classify = sub.add_parser(
        "classify", help="classify a representation file"
    )
    p_classify.add_argument("path")
    p_classify.set_defaults(func=cmd_classify)

    p_spectrum = sub.add_parser(
        "spectrum", help="length spectrum over a shortlex ball"
    )
    p_spectrum.add_argument("path")
    p_spectrum.add_argument("--max-len", type=int, required=True)
    p_spectrum.add_argument("--tsv", help="write TSV here instead of stdout")
    p_spectrum.add_argument("--max-words", type=int, default=DEFAULT_WORD_CAP)
    p_spectrum.set_defaults(func=cmd_spectrum)

    p_length = sub.add_parser(
        "length", help="translation lengths of the given words"
    )
    p_length.add_argument("path")
    p_length.add_argument("words", nargs="+")
    p_length.set_defaults(func=cmd_length)

    p_poly = sub.add_parser(
        "trace-poly", help="trace of a word as a fundamental-trace polynomial"
    )
    p_poly.add_argument("word")
    p_poly.add_argument("--rank", type=int, required=True)
    p_poly.set_defaults(func=cmd_trace_poly)

    p_tree = sub.add_parser("tree", help="tree geometry queries")
    tree_sub = p_tree.add_subparsers(dest="subcommand", required=True)

    p_ball = tree_sub.add_parser("ball", help="ball around a vertex")
    p_ball.add_argument("--prime", type=int, required=True)
    p_ball.add_argument("--center", default="(0; 0)")
    p_ball.add_argument("--radius", type=int, required=True)
    p_ball.add_argument("--dot", action="store_true", help="emit DOT")
    p_ball.add_argument("--max-nodes", type=int, default=DEFAULT_NODE_CAP)
    p_ball.set_defaults(func=cmd_tree_ball)

    p_dist = tree_sub.add_parser("distance", help="distance between vertices")
    p_dist.add_argument("--prime", type=int, required=True)
    p_dist.add_argument("u")
    p_dist.add_argument("v")
    p_dist.set_defaults(func=cmd_tree_distance)

    p_geo = tree_sub.add_parser("geodesic", help="vertex path between vertices")
    p_geo.add_argument("--prime", type=int, required=True)
    p_geo.add_argument("u")
    p_geo.add_argument("v")
    p_geo.set_defaults(func=cmd_tree_geodesic)

    p_axis = tree_sub.add_parser("axis", help="axis window of a word's image")
    p_axis.add_argument("path")
    p_axis.add_argument("word")
    p_axis.add_argument("--window", type=int, default=2)
    p_axis.set_defaults(func=cmd_tree_axis)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (Sl2TreesError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
