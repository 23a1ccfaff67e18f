"""Marked length spectra over shortlex balls, with TSV export.

The spectrum pairs every freely reduced word up to a length bound with
its translation length, walking the ball level by level in shortlex
order (words.ball_walk): one exact 2x2 integer product per word on its
prefix's image, denominators kept only as valuations, and no final sort.
spectrum_rows yields the rows as they come, for write_tsv to stream.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from itertools import islice
from typing import Iterable, Iterator, List, TextIO, Tuple

from .classify import Representation
from .errors import ShapeMismatchError
from .field import _val_fraction
from .matrices import checked
from .traces import FundamentalTraceVector, variable_name
from .words import (
    DEFAULT_WORD_CAP, Presentation, Word, _trusted_word, ball_walk, check_ball,
    scaled_image, word_texts)

Row = Tuple[Tuple[int, ...], int]  # a word's letters and its length
_CHUNK = 4096  # rows formatted per write


def length_of(rep: Representation, w: Word) -> int:
    """Translation length -2 min(0, v(tr)) of the image of w, from its
    scaled image (a, b, c, d, den): 2 max(0, v(den) - v(a + d))."""
    a, _, _, d, den = checked(scaled_image(w, rep._letters))
    v = rep.context.valuation
    return 2 * max(0, v(den) - v(a + d))


@dataclass(frozen=True)
class LengthSpectrum:
    """Shortlex-ordered (word, translation length) table plus the
    fundamental trace vector as a conjugation-invariant fingerprint."""

    presentation: object
    prime: int
    max_len: int
    entries: Tuple[Tuple[Word, int], ...]
    fingerprint: FundamentalTraceVector


def spectrum_rows(rep: Representation, max_len: int,
                  max_words: int = DEFAULT_WORD_CAP) -> Iterator[Row]:
    """(letters, length) for every reduced word with |w| <= max_len, in
    shortlex order, each as the walk reaches it; no Word is built.  The
    size is checked at the call, before the first row.

    A word's image is its prefix's times one letter, as integer matrices
    whose denominators are tracked only by their valuation v; the length
    needs only v(trace) against that v.
    """
    check_ball("spectrum", rep.presentation.rank, max_len, max_words)
    p = rep.context.p
    gens = {x: (a, b, c, d, _val_fraction(den, p))
            for x, (a, b, c, d, den) in rep._letters.items()}

    def step(m, x):
        a, b, c, d, v = m
        e, f, g, h, vl = gens[x]
        return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h,
                v + vl)

    walk = ball_walk(rep.presentation.rank, max_len, (1, 0, 0, 1, 0), step)

    def rows():
        for u, (a, _, _, d, v) in walk:
            # length -2 min(0, v(tr) - v): strip at most v factors of p
            tr, k = a + d, 0
            while k < v and tr % p == 0:
                tr //= p
                k += 1
            yield u, 2 * (v - k)

    return rows()


def spectrum(rep: Representation, max_len: int,
             max_words: int = DEFAULT_WORD_CAP) -> LengthSpectrum:
    """Lengths of every reduced word with |w| <= max_len, shortlex order:
    the rows of spectrum_rows, kept."""
    entries = tuple((_trusted_word(u), ell)
                    for u, ell in spectrum_rows(rep, max_len, max_words))
    return LengthSpectrum(rep.presentation, rep.context.p, max_len, entries,
                          rep.fundamental())


@dataclass(frozen=True)
class SpectrumComparison:
    entries_equal: bool
    fingerprints_equal: bool
    differing: Tuple[Tuple[Word, int, int], ...]

    @property
    def identical(self) -> bool:
        return self.entries_equal and self.fingerprints_equal


def compare_spectra(
    left: LengthSpectrum, right: LengthSpectrum
) -> SpectrumComparison:
    """Entrywise comparison; shapes (presentation, prime, bound) must match."""
    if left.presentation != right.presentation:
        raise ShapeMismatchError("spectra over different presentations")
    if left.prime != right.prime:
        raise ShapeMismatchError("spectra over different primes")
    if left.max_len != right.max_len:
        raise ShapeMismatchError("spectra with different length bounds")
    differing: List[Tuple[Word, int, int]] = []
    for (w, l1), (_, l2) in zip(left.entries, right.entries):
        if l1 != l2:
            differing.append((w, l1, l2))
    fingerprints_equal = (
        left.fingerprint.entries == right.fingerprint.entries
    )
    return SpectrumComparison(
        entries_equal=not differing,
        fingerprints_equal=fingerprints_equal,
        differing=tuple(differing),
    )


def write_tsv(out: TextIO, presentation: Presentation, prime: int, max_len: int,
              fingerprint: FundamentalTraceVector, rows: Iterable[Row]) -> None:
    """Deterministic TSV to a text handle: header block, fingerprint
    block, then one line per (letters, length) row, written _CHUNK rows at
    a time, so a row iterator is never held whole."""
    lines = [
        f"# presentation\t{presentation.descriptor()}",
        f"# prime\t{prime}",
        f"# max_len\t{max_len}",
    ]
    for key, value in fingerprint.ordered():
        lines.append(f"# fingerprint\t{variable_name(key)}\t{value}")
    out.write("\n".join(lines) + "\nword\tlength\n")
    rows = iter(rows)
    while chunk := list(islice(rows, _CHUNK)):
        texts = word_texts((u for u, _ in chunk), presentation)
        out.write("".join([f"{t}\t{ell}\n" for t, (_, ell) in zip(texts, chunk)]))


def to_tsv(spec: LengthSpectrum) -> str:
    """The TSV of write_tsv as one string."""
    out = io.StringIO()
    write_tsv(out, spec.presentation, spec.prime, spec.max_len,
              spec.fingerprint, ((w.letters, ell) for w, ell in spec.entries))
    return out.getvalue()
