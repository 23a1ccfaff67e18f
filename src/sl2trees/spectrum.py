"""Marked length spectra over shortlex balls, with TSV export.

The spectrum pairs every freely reduced word up to a length bound with
its translation length.  _level_rows meets in the middle: one
words.ball_levels walk grows each word up to level ceil(L/2) once, by an
exact 2x2 integer product; a longer word's trace is the dot product of a
prefix's and a suffix's image, both from the walk's levels, denominators
kept as valuations, rows yielded a group (prefix, next letter) at a time.
write_tsv streams its text chunks, spectrum_rows splits them into lines,
and spectrum runs the loop with letter tuples as labels.  The command
line's _spectrum_writer splits the last level's rows across forked
workers when spare CPUs exist, and writes the same bytes.
"""

from __future__ import annotations

import io
import os
import shutil
import signal
import tempfile
import threading
from dataclasses import dataclass
from itertools import chain, islice
from math import gcd
from typing import Callable, Iterable, Iterator, List, Optional, TextIO, Tuple

from .classify import Representation
from .errors import Sl2TreesError
from .field import _val_fraction
from .isometry import _scaled_length
from .matrices import checked
from .traces import FundamentalTraceVector, variable_name
from .words import (
    DEFAULT_WORD_CAP, Presentation, Word, _trusted_word, ball_levels, ball_size,
    check_ball, letter_alphabet, scaled_image, word_texts, word_to_text)

_JOIN = 64  # chunks of rows joined per write
_WORKER_ROWS = 10_000  # rows per process below which a fork costs more than it saves


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
    max_len, in shortlex order: _text_rows's chunks split into lines."""
    check_ball("spectrum", rep.presentation.rank, max_len, max_words)
    return chain.from_iterable(
        chunk.splitlines(True) for chunk in _text_rows(rep, max_len))


def _text_rows(rep: Representation, max_len: int, share: slice = slice(None),
               last_only: bool = False) -> Iterator[str]:
    """_level_rows's chunks as runs of TSV lines, a word's text its names
    joined by spaces; share and last_only as there."""
    names = {x: word_to_text(Word((x,)), rep.presentation) for x in rep._letters}
    return _level_rows(rep, max_len, "1", "", "\t{}\n".format,
                       lambda t, x: f"{t} {names[x]}" if t else names[x],
                       lambda t, items: t + t.join(items), share, last_only)


def _half(rank: int, max_len: int) -> int:
    """The level m the walk meets in the middle at: ceil(L/2), or L at
    rank 1, whose ball does not branch."""
    return max_len if rank == 1 else (max_len + 1) // 2


def _exponent(g: int, v: int, power: Callable[[int], int]) -> int:
    """k with g = p^k dividing power(v) = p^v: k0 = round(v bits(g) /
    bits(p^v)) is within 1/log2(p) <= 1 of k, and g against p^k0 settles it."""
    bits = power(v).bit_length()
    k = (2 * v * g.bit_length() + bits) // (2 * bits)
    pk = power(k)
    return k + (g > pk) - (g < pk)


def _level_rows(rep: Representation, max_len: int, empty, root, cell, label, join,
                share: slice = slice(None), last_only: bool = False) -> Iterator:
    """Every reduced word with |w| <= max_len in shortlex order, in chunks
    join(t, [u + cell(length), ...]), t + u the word's label: empty for the
    empty word, else label(its parent's, its last letter) from root.  The
    caller checks the size.  Level L's rows are only those of the level-m
    words level_m[share], and last_only drops those below L.

    Images are integer matrices, denominators kept as valuations v.  One
    ball_levels walk grows levels 1..m = _half(rank, L), each word once, a
    chunk per level (t = root).  Past m, a chunk is a group: a level-m
    prefix P (t its label) and a letter x not cancelling its last, then
    each word x S of the level's length (u its label after P: x's after a
    letter, then x S's without x's), a run of one of the walk's levels
    kept up to L - m, none at rank 1.  Its trace is the dot product of P's
    and x S's images: shortlex, as |P| is fixed.  At rank >= 2 the walk
    holds O(sqrt(ball)) words, a chunk up to (2r - 1)^(L - m - 1) rows or
    one level up to m.  A length is 2(v - k), p^k = gcd(tr, p^v); p^v, each
    from the largest built so far, and each (v, p^k)'s cell are memoized,
    and past m resolved per suffix once per (x, v_P) and level.  Only up
    to m, where rank 1 needs it, does a trace p does not divide skip gcd.
    """
    p, rank = rep.context.p, rep.presentation.rank
    half = _half(rank, max_len)
    images = {x: (a, b, c, d, _val_fraction(den, p))
              for x, (a, b, c, d, den) in rep._letters.items()}
    cut = {x: len(label(root, x)) for x in images}  # x's part of x S's label
    after = {x: label(label(root, x), x)[cut[x]:] for x in images}  # x's label after a letter
    top = [0, 1]  # the largest v whose p^v is built, and p^v

    def power(v):
        if v >= top[0]:
            top[:] = v, top[1] * p ** (v - top[0])
        return top[1] if v == top[0] else p ** v

    by_v = _Memo(lambda v: (power(v), _Memo(  # and a memo of each p^k's cell
        lambda g: cell(2 * (v - _exponent(g, v, lambda k: by_v[k][0]))))))

    def step(state, x):
        a, b, c, d, v, t = state
        e, f, g, h, vl = images[x]
        return a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, v + vl, label(t, x)

    def prefixes(n, level):
        """The level-m words whose rows of level n are yielded."""
        return level[share] if n == max_len else () if last_only else level

    def cell_at(tr, v):
        pw, cells = by_v[v]
        return cells[gcd(tr, pw) if tr % p == 0 else 1]

    def rows():
        if not last_only:
            yield join(root, [empty + cell(0)])
        suffixes = []  # per level 1..L - m, each first letter x's run of x S, labelled after P
        for n, level in enumerate(ball_levels(rank, half, (1, 0, 0, 1, 0, root), step)):
            if n and (words := prefixes(n, level)):  # no empty chunk, which may end the writer
                yield join(root, [t + cell_at(a + d, v) for (a, b, c, d, v, t), _ in words])
            if 0 < n <= max_len - half:
                run = len(level) // (2 * rank)
                suffixes.append({x: [(*image, after[x] + t[cut[x]:])
                                     for (*image, t), _ in level[i * run:(i + 1) * run]]
                                 for i, x in enumerate(letter_alphabet(rank))})
        for n, runs in enumerate(suffixes, half + 1):
            resolved = _Memo(lambda key: [(e, f, g, h, *by_v[key[1] + vs], s)
                                          for e, f, g, h, vs, s in runs[key[0]]])
            for (a, b, c, d, v, t), last in prefixes(n, level):
                for x in runs:
                    if x != -last:
                        yield join(t, [s + cells[gcd(a * e + b * g + c * f + d * h, pw)]
                                       for e, f, g, h, pw, cells, s in resolved[x, v]])

    return rows()


def spectrum(rep: Representation, max_len: int,
             max_words: int = DEFAULT_WORD_CAP) -> LengthSpectrum:
    """Lengths of every reduced word with |w| <= max_len, shortlex order:
    spectrum_rows's loop with letter tuples as labels, cells (length,)."""
    check_ball("spectrum", rep.presentation.rank, max_len, max_words)
    chunks = _level_rows(rep, max_len, (), (), lambda ell: (ell,), lambda t, x: t + (x,),
                         lambda t, items: [(_trusted_word(t + u[:-1]), u[-1]) for u in items])
    return LengthSpectrum(rep.presentation, rep.context.p, max_len,
                          tuple(chain.from_iterable(chunks)), rep.fundamental())


def write_tsv(out: TextIO, presentation: Presentation, prime: int, max_len: int,
              fingerprint: FundamentalTraceVector, rows: Iterable[str]) -> None:
    """Deterministic TSV to a text handle: header block, fingerprint block,
    then the rows, lines "text\tlength\n" or chunks of them, streamed."""
    lines = [f"# presentation\t{presentation.descriptor()}", f"# prime\t{prime}",
             f"# max_len\t{max_len}"]
    lines += [f"# fingerprint\t{variable_name(key)}\t{value}"
              for key, value in fingerprint.ordered()]
    out.write("\n".join(lines) + "\nword\tlength\n")
    _stream_rows(out, iter(rows))


def to_tsv(spec: LengthSpectrum) -> str:
    """The TSV of write_tsv as one string."""
    texts = word_texts((w.letters for w, _ in spec.entries), spec.presentation)
    out = io.StringIO()
    write_tsv(out, spec.presentation, spec.prime, spec.max_len, spec.fingerprint,
              (f"{t}\t{ell}\n" for t, (_, ell) in zip(texts, spec.entries)))
    return out.getvalue()


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shares(rank: int, max_len: int) -> List[slice]:
    """Slices of level m (_half): the parent's, whose level-L rows follow
    all rows below L, then one per worker, each a contiguous run of level
    L.  Each level-m word has (2r - 1)^(L - m) rows at level L, so each
    process gets total / k rows, or the parent only the rows below L where
    those are more.  Only slice(None) when the run stays serial: at rank
    1, below 2 * _WORKER_ROWS rows or 2 usable CPUs, without os.fork, or
    with another thread alive, which a fork would leave holding its locks."""
    total = ball_size(rank, max_len)
    k = min(_usable_cpus(), total // _WORKER_ROWS)
    half = _half(rank, max_len)
    if (k < 2 or half == max_len or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return [slice(None)]
    per = (2 * rank - 1) ** (max_len - half)
    n = 2 * rank * (2 * rank - 1) ** (half - 1)
    below = total - n * per
    cut = min(n, max(0, round((total / k - below) / per)))
    bounds = [cut + (n - cut) * i // (k - 1) for i in range(k)]
    return [slice(0, cut)] + [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _stream_rows(handle: TextIO, rows: Iterator[str], parent: Optional[int] = None) -> None:
    """Write rows, lines or chunks of them, to handle _JOIN at a time, then
    flush it, as a worker leaves by os._exit.  A worker passes the pid it was
    forked under as parent: it stops once its parent is killed."""
    while ((parent is None or os.getppid() == parent)
           and (text := "".join(islice(rows, _JOIN)))):
        handle.write(text)
    handle.flush()


def _spectrum_writer(rep: Representation, max_len: int,
                     max_words: int = DEFAULT_WORD_CAP) -> Callable[[TextIO], None]:
    """Check the request, then return write(out), which writes
    write_tsv's bytes for spectrum_rows.  With spare CPUs, workers forked
    from write each stream a contiguous run of level L's rows (_shares)
    to an unlinked temporary file, while the parent writes the header and
    the rows before them, then copies each file to out in order.  No
    process holds more than the walk's state and one write of chunks.  An
    exception in the parent kills and reaps every worker before it
    propagates, and a worker that fails is an Sl2TreesError."""
    rank = rep.presentation.rank
    check_ball("spectrum", rank, max_len, max_words)
    fingerprint = rep.fundamental()

    def write(out: TextIO) -> None:
        own, *shares = _shares(rank, max_len)
        workers = {}  # pid -> the unlinked file of its rows, of each unreaped worker
        parent = os.getpid()
        try:
            for share in shares:
                rows = tempfile.TemporaryFile("w+", encoding="utf-8", newline="")
                try:
                    pid = os.fork()
                except OSError:
                    rows.close()
                    raise
                if pid == 0:  # a worker: it leaves only by os._exit, so
                    code = 1  # nothing the parent holds is flushed or run twice
                    try:
                        _stream_rows(
                            rows, _text_rows(rep, max_len, share, True), parent)
                        code = 0
                    finally:
                        os._exit(code)
                workers[pid] = rows
            write_tsv(out, rep.presentation, rep.context.p, max_len, fingerprint,
                      _text_rows(rep, max_len, own))
            for pid in list(workers):
                status = os.waitpid(pid, 0)[1]
                with workers.pop(pid) as rows:
                    if status:
                        raise Sl2TreesError(
                            "a spectrum worker process failed, exit status "
                            f"{os.waitstatus_to_exitcode(status)}")
                    rows.seek(0)
                    shutil.copyfileobj(rows, out)  # 64 KiB at a time
        finally:
            for pid, rows in workers.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                rows.close()

    return write
