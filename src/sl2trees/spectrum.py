"""Marked length spectra over shortlex balls, with TSV export.

The spectrum pairs every freely reduced word up to a length bound with
its translation length.  spectrum_rows walks the ball in shortlex order
(words.letter_children) in one loop that meets in the middle: one exact
2x2 integer product per word up to level ceil(L/2), then each longer
word's trace as one dot product of a prefix's and a suffix's image,
denominators kept only as valuations, and no final sort.  It yields
finished TSV lines as they come, for write_tsv to stream; spectrum runs
the same loop with letter tuples as labels.
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
    max_len, in shortlex order, from _level_rows, texts joined from the
    prefix's, one name and the suffix's: no Word or letter tuple is built."""
    names = {x: word_to_text(Word((x,)), rep.presentation) for x in rep._letters}
    return _level_rows(rep, max_len, max_words, "1", "", "\t{}\n".format,
                       lambda last, x: f" {names[x]}" if last else names[x], add)


def _level_rows(rep: Representation, max_len: int, max_words: int, empty, root,
                cell, label, row) -> Iterator:
    """row(label, cell(length)) for every reduced word with |w| <= max_len,
    in shortlex order, each as the walk reaches it.  The empty word's
    label is empty; a child's is its parent's (root at the empty word) plus
    label(last, x), x its letter and last its parent's (0 at the root).
    The size is checked at the call, before the first row.

    Images are integer matrices, denominators kept as valuations v.  The
    walk meets in the middle at m = ceil(L/2): levels 1..m grow letter by
    letter, and level m is kept as prefixes.  Level m + j is each prefix P
    then each suffix x S of length j, x not cancelling P's last letter,
    grouped by x and grown from length j - 1 as the level begins: its
    trace is the dot product of the images of P and x S, its valuation
    v_P + v_xS, its label P's plus label(last, x) plus that of S after x.
    This order is shortlex, as |P| is fixed, and the walk holds
    O(sqrt(ball)) words at rank >= 2.  The length -2 min(0, v(tr) - v) is
    2(v - k), p^k = gcd(tr, p^v), with p^v and each (v, p^k)'s cell memoized.
    """
    check_ball("spectrum", rep.presentation.rank, max_len, max_words)
    p, letters = rep.context.p, rep._letters
    images = {x: (a, b, c, d, _val_fraction(den, p))
              for x, (a, b, c, d, den) in letters.items()}
    # per last letter (0 for the empty word): each child letter with its
    # image, denominator valuation and the label it appends to its parent's
    children = {last: tuple((x, *images[x], label(last, x)) for x in xs)
                for last, xs in letter_children(rep.presentation.rank).items()}
    by_v = _Memo(lambda v: (p ** v,  # and a memo of each p^k's cell
                            _Memo(lambda g: cell(2 * (v - _val_fraction(g, p))))))

    def grow(level):
        """Each child of each word of level, in order."""
        return [(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, v + vl,
                 t + name, x)
                for a, b, c, d, v, t, last in level
                for x, e, f, g, h, vl, name in children[last]]

    def rows():
        yield row(empty, cell(0))
        level = [(1, 0, 0, 1, 0, root, 0)]
        for _ in range((max_len + 1) // 2):
            level = grow(level)
            for a, b, c, d, v, t, _ in level:
                pw, cells = by_v[v]
                yield row(t, cells[gcd(a + d, pw)])
        # the suffixes x S of length j + 1, per first letter x
        tails = {x: [(*image, root, x)] for x, *image, _ in children[0]}
        for j in range(max_len // 2):
            if j:
                tails = {x: grow(level_x) for x, level_x in tails.items()}
            for a, b, c, d, v, t, last in level:
                for x, *_, name in children[last]:
                    t_x = t + name
                    for e, f, g, h, vs, s, _ in tails[x]:
                        pw, cells = by_v[v + vs]
                        yield row(t_x + s, cells[gcd(a * e + b * g + c * f + d * h, pw)])

    return rows()


def spectrum(rep: Representation, max_len: int,
             max_words: int = DEFAULT_WORD_CAP) -> LengthSpectrum:
    """Lengths of every reduced word with |w| <= max_len, shortlex order:
    spectrum_rows's loop, whose rows are the (Word, length) entries."""
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
