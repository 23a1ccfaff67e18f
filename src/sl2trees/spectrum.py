"""Marked length spectra over shortlex balls, with TSV export.

The spectrum pairs every freely reduced word up to a length bound with
its translation length.  spectrum_rows walks the ball level by level in
shortlex order (words.letter_children) in one loop: one exact 2x2
integer product per inner word on its prefix's image, only the trace for
a word of the last level, denominators kept only as valuations, and no
final sort.  It yields finished TSV lines as they come, for write_tsv
to stream; spectrum runs the same loop with letter tuples as labels.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import islice
from math import gcd
from operator import add
from typing import Iterable, Iterator, TextIO, Tuple

from .classify import Representation
from .field import _val_fraction
from .isometry import _scaled_length
from .matrices import checked
from .traces import FundamentalTraceVector, variable_name
from .words import (
    DEFAULT_WORD_CAP, Presentation, Word, _trusted_word, check_ball, letter_children,
    scaled_image, word_texts, word_to_text)

_CHUNK = 4096  # rows joined per write


def length_of(rep: Representation, w: Word) -> int:
    """Translation length of the image of w, read off its scaled image
    with its determinant checked; no SL2Matrix is built."""
    return _scaled_length(checked(scaled_image(w, rep._letters)), rep.context.p)


@dataclass(frozen=True)
class LengthSpectrum:
    """Shortlex-ordered (word, translation length) table plus the
    fundamental trace vector as a conjugation-invariant fingerprint."""

    presentation: object
    prime: int
    max_len: int
    entries: Tuple[Tuple[Word, int], ...]
    fingerprint: FundamentalTraceVector


class _Memo(dict):
    """A dict that fills a missing key k with fill(k)."""

    def __init__(self, fill):
        self.fill = fill

    def __missing__(self, key):
        self[key] = value = self.fill(key)
        return value


def spectrum_rows(rep: Representation, max_len: int,
                  max_words: int = DEFAULT_WORD_CAP) -> Iterator[str]:
    """The TSV line "text\tlength\n" of every reduced word with |w| <=
    max_len, in shortlex order, from _level_rows: a word's text is its
    prefix's plus one name, and no Word or letter tuple is built."""
    names = {x: word_to_text(Word((x,)), rep.presentation) for x in rep._letters}
    return _level_rows(rep, max_len, max_words, "1", "", "\t{}\n".format,
                       lambda last, x: f" {names[x]}" if last else names[x], add)


def _level_rows(rep: Representation, max_len: int, max_words: int, empty, root,
                cell, label, row) -> Iterator:
    """row(label, cell(length)) for every reduced word with |w| <= max_len,
    in shortlex order, each as the level loop reaches it.  The empty word's
    label is empty; a child's is its parent's (root at the empty word) plus
    label(last, x), x its letter and last its parent's (0 at the root).
    The size is checked at the call, before the first row.

    A word's image is its prefix's times one letter, as integer matrices
    whose denominators are tracked only by their valuation v.  Words of
    length max_len need only the trace; a leaf P x' right after its sibling
    P x takes tr(P) tr(x) - tr(P x), as x' is stored as adj(x) and S +
    adj(S) = tr(S) I.  The length -2 min(0, v(tr) - v) is 2(v - k) with
    p^k = gcd(tr, p^v); p^v and the cell of each (v, p^k) are memoized.
    """
    check_ball("spectrum", rep.presentation.rank, max_len, max_words)
    p, letters = rep.context.p, rep._letters
    images = {x: (a, b, c, d, _val_fraction(den, p))
              for x, (a, b, c, d, den) in letters.items()}
    # per last letter (0 for the empty word): each child letter with its
    # image, denominator valuation and the label it appends to its parent's
    children = {last: tuple((x, *images[x], label(last, x)) for x in xs)
                for last, xs in letter_children(rep.presentation.rank).items()}
    # at the leaves: a child x, its trace and the label of the x' after it
    leaves = {}
    for last, xs in children.items():
        named = {x: name for x, *_, name in xs}
        leaves[last] = tuple((*child, child[0] + child[3], x > 0 and named.get(-x))
                             for x, *child in xs if x > 0 or -x not in named)
    by_v = _Memo(lambda v: (p ** v,  # and a memo of each p^k's cell
                            _Memo(lambda g: cell(2 * (v - _val_fraction(g, p))))))

    def rows():
        yield row(empty, cell(0))
        level = [(1, 0, 0, 1, 0, root, 0)]
        for _ in range(max_len - 1):
            grown = []
            level.reverse()
            while level:  # each parent is freed as its children are made
                a, b, c, d, v, t, last = level.pop()
                for x, e, f, g, h, vl, name in children[last]:
                    ae, dh, w, text = a * e + b * g, c * f + d * h, v + vl, t + name
                    grown.append((ae, a * f + b * h, c * e + d * g, dh, w, text, x))
                    pw, cells = by_v[w]
                    yield row(text, cells[gcd(ae + dh, pw)])
            level = grown
        for a, b, c, d, v, t, last in level if max_len else ():  # leaves
            tp = a + d
            for e, f, g, h, vl, name, te, name2 in leaves[last]:
                tr = a * e + b * g + c * f + d * h
                pw, cells = by_v[v + vl]
                yield row(t + name, cells[gcd(tr, pw)])
                if name2:
                    yield row(t + name2, cells[gcd(tp * te - tr, pw)])

    return rows()


def spectrum(rep: Representation, max_len: int,
             max_words: int = DEFAULT_WORD_CAP) -> LengthSpectrum:
    """Lengths of every reduced word with |w| <= max_len, shortlex order:
    spectrum_rows's level loop, whose rows are the (Word, length) entries."""
    rows = _level_rows(rep, max_len, max_words, (), (), int, lambda last, x: (x,),
                       lambda u, ell: (_trusted_word(u), ell))
    return LengthSpectrum(rep.presentation, rep.context.p, max_len, tuple(rows),
                          rep.fundamental())


def write_tsv(out: TextIO, presentation: Presentation, prime: int, max_len: int,
              fingerprint: FundamentalTraceVector, rows: Iterable[str]) -> None:
    """Deterministic TSV to a text handle: header block, fingerprint
    block, then the rows, lines "text\tlength\n" as spectrum_rows yields
    them, joined _CHUNK at a time, so a row iterator is never held whole."""
    lines = [f"# presentation\t{presentation.descriptor()}", f"# prime\t{prime}",
             f"# max_len\t{max_len}"]
    lines += [f"# fingerprint\t{variable_name(key)}\t{value}"
              for key, value in fingerprint.ordered()]
    out.write("\n".join(lines) + "\nword\tlength\n")
    rows = iter(rows)
    while chunk := "".join(islice(rows, _CHUNK)):
        out.write(chunk)


def to_tsv(spec: LengthSpectrum) -> str:
    """The TSV of write_tsv as one string."""
    texts = word_texts((w.letters for w, _ in spec.entries), spec.presentation)
    out = io.StringIO()
    write_tsv(out, spec.presentation, spec.prime, spec.max_len, spec.fingerprint,
              (f"{t}\t{ell}\n" for t, (_, ell) in zip(texts, spec.entries)))
    return out.getvalue()
