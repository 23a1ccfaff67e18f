"""Marked length spectra over shortlex balls, with TSV export.

The spectrum pairs every freely reduced word up to a length bound with
its translation length, walking the ball level by level in shortlex
order (words.ball_walk): one exact 2x2 integer product per word on its
prefix's image, denominators kept only as valuations, and no final sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

from .classify import Representation
from .errors import ShapeMismatchError
from .field import _val_fraction
from .isometry import translation_length
from .traces import FundamentalTraceVector, variable_name
from .words import (
    DEFAULT_WORD_CAP, Word, ball_walk, check_size, sphere_sizes, word_texts)


def length_of(rep: Representation, w: Word) -> int:
    """Translation length of the image of w."""
    return translation_length(rep.evaluate(w))


@dataclass(frozen=True)
class LengthSpectrum:
    """Shortlex-ordered (word, translation length) table plus the
    fundamental trace vector as a conjugation-invariant fingerprint."""

    presentation: object
    prime: int
    max_len: int
    entries: Tuple[Tuple[Word, int], ...]
    fingerprint: FundamentalTraceVector


def spectrum(
    rep: Representation,
    max_len: int,
    max_words: int = DEFAULT_WORD_CAP,
) -> LengthSpectrum:
    """Lengths of every reduced word with |w| <= max_len, shortlex order.

    A word's image is its prefix's times one letter, as integer matrices
    whose denominators are tracked only by their valuation v; the length
    needs only v(trace) against that v.
    """
    presentation = rep.presentation
    check_size("spectrum", "words", max_words,
               sphere_sizes(2 * presentation.rank, max_len))
    p = rep.context.p
    gens = {x: (a, b, c, d, _val_fraction(den, p))
            for x, (a, b, c, d, den) in rep._letters.items()}

    def step(m, x):
        a, b, c, d, v = m
        e, f, g, h, vl = gens[x]
        return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h,
                v + vl)

    entries: List[Tuple[Word, int]] = [(Word(()), 0)]
    walk = ball_walk(presentation.rank, max_len, (1, 0, 0, 1, 0), step)
    for w, (a, _, _, d, v) in walk:
        # length -2 min(0, v(tr) - v): strip at most v factors of p
        tr, k = a + d, 0
        while k < v and tr % p == 0:
            tr //= p
            k += 1
        entries.append((w, 2 * (v - k)))
    return LengthSpectrum(
        presentation=presentation,
        prime=p,
        max_len=max_len,
        entries=tuple(entries),
        fingerprint=rep.fundamental(),
    )


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


def to_tsv(spec: LengthSpectrum) -> str:
    """Deterministic TSV: header block, fingerprint block, then rows."""
    lines = [
        f"# presentation\t{spec.presentation.descriptor()}",
        f"# prime\t{spec.prime}",
        f"# max_len\t{spec.max_len}",
    ]
    for key, value in spec.fingerprint.ordered():
        lines.append(f"# fingerprint\t{variable_name(key)}\t{value}")
    lines.append("word\tlength")
    texts = word_texts((w for w, _ in spec.entries), spec.presentation)
    lines.extend(f"{t}\t{ell}" for t, (_, ell) in zip(texts, spec.entries))
    return "\n".join(lines) + "\n"
