"""Marked length spectra over shortlex balls, with TSV export.

The spectrum pairs every freely reduced word up to a length bound with
its translation length.  spectrum_rows walks the ball in shortlex order
(words.letter_children) in one loop that meets in the middle: one exact
2x2 integer product per word up to level ceil(L/2), then each longer
word's trace as one dot product of a prefix's and a suffix's image,
denominators kept only as valuations, and no final sort.  It yields
finished TSV lines as they come, for write_tsv to stream; spectrum runs
the same loop with letter tuples as labels.  At rank 1, where the ball
does not branch, every level grows letter by letter.  The command line's
writer, _spectrum_writer, splits the last level's rows between the
process and forked workers when spare CPUs exist, and writes the same
bytes.
"""

from __future__ import annotations

import io
import os
import shutil
import signal
import tempfile
import threading
from dataclasses import dataclass
from itertools import islice
from math import gcd
from operator import add
from typing import Callable, Iterable, Iterator, List, TextIO, Tuple

from .classify import Representation
from .errors import Sl2TreesError
from .field import _val_fraction
from .isometry import _scaled_length
from .matrices import checked
from .traces import FundamentalTraceVector, variable_name
from .words import (
    DEFAULT_WORD_CAP, Presentation, Word, _trusted_word, ball_size, check_ball,
    letter_children, scaled_image, word_texts, word_to_text)

_CHUNK = 4096  # rows joined per write
_WORKER_ROWS = 10_000  # rows per process below which a fork costs more than it saves
_DRAIN = 1 << 16  # characters copied from a worker's file at a time


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
    return _text_rows(rep, max_len, max_words)


def _text_rows(rep: Representation, max_len: int, max_words: int,
               share: slice = slice(None), last_only: bool = False) -> Iterator[str]:
    """spectrum_rows with _level_rows's share and last_only."""
    names = {x: word_to_text(Word((x,)), rep.presentation) for x in rep._letters}
    return _level_rows(rep, max_len, max_words, "1", "", "\t{}\n".format,
                       lambda last, x: f" {names[x]}" if last else names[x], add,
                       share, last_only)


def _half(rank: int, max_len: int) -> int:
    """The level m the walk meets in the middle at: ceil(L/2), or L at
    rank 1, whose ball does not branch."""
    return max_len if rank == 1 else (max_len + 1) // 2


def _level_rows(rep: Representation, max_len: int, max_words: int, empty, root,
                cell, label, row, share: slice = slice(None),
                last_only: bool = False) -> Iterator:
    """row(label, cell(length)) for every reduced word with |w| <= max_len,
    in shortlex order, each as the walk reaches it.  The empty word's
    label is empty; a child's is its parent's (root at the empty word) plus
    label(last, x), x its letter and last its parent's (0 at the root).
    The size is checked at the call, before the first row.  Level L's
    rows are only those of the level-m words level_m[share], and
    last_only drops the levels below L: slices of level m split level
    L's rows into contiguous runs.

    Images are integer matrices, denominators kept as valuations v.  The
    walk meets in the middle at m = _half(rank, L): levels 1..m grow
    letter by letter, and level m is kept as prefixes.  Level m + j is
    each prefix P then each suffix x S of length j, x not cancelling P's
    last letter, grouped by x and grown from length j - 1 as the level
    begins: its trace is the dot product of the images of P and x S, its
    valuation v_P + v_xS, its label P's plus label(last, x) plus that of S
    after x.  This order is shortlex, as |P| is fixed, and the walk holds
    O(sqrt(ball)) words at rank >= 2.  The length -2 min(0, v(tr) - v) is
    2(v - k), p^k = gcd(tr, p^v), which is 1 when p does not divide tr;
    p^v and each (v, p^k)'s cell are memoized.
    """
    check_ball("spectrum", rep.presentation.rank, max_len, max_words)
    p, letters = rep.context.p, rep._letters
    half = _half(rep.presentation.rank, max_len)
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

    def prefixes(n, level):
        """The level-m words whose rows of level n are yielded."""
        return level[share] if n == max_len else () if last_only else level

    def rows():
        if not last_only:
            yield row(empty, cell(0))
        level = [(1, 0, 0, 1, 0, root, 0)]
        for n in range(1, half + 1):
            level = grow(level)
            for a, b, c, d, v, t, _ in prefixes(n, level):
                tr = a + d
                pw, cells = by_v[v]
                yield row(t, cells[gcd(tr, pw) if tr % p == 0 else 1])
        # the suffixes x S of length j + 1, per first letter x
        tails = {x: [(*image, root, x)] for x, *image, _ in children[0]}
        for j in range(max_len - half):
            if j:
                tails = {x: grow(level_x) for x, level_x in tails.items()}
            for a, b, c, d, v, t, last in prefixes(half + j + 1, level):
                for x, *_, name in children[last]:
                    t_x = t + name
                    for e, f, g, h, vs, s, _ in tails[x]:
                        tr = a * e + b * g + c * f + d * h
                        pw, cells = by_v[v + vs]
                        yield row(t_x + s, cells[gcd(tr, pw) if tr % p == 0 else 1])

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


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _shares(rank: int, max_len: int) -> List[slice]:
    """Slices of level m, the level the walk meets in the middle at: the
    parent's, whose level-L rows follow all rows below L, then one per
    worker, each a contiguous run of level L.  Empty when the run stays
    serial: at rank 1, below 2 * _WORKER_ROWS rows or 2 usable CPUs,
    without os.fork, or with another thread alive, which a fork would
    leave holding the child's locks.

    Each level-m word has (2r - 1)^(L - m) rows at level L, so the split
    is by exact row counts: each process gets total / k rows, or the
    parent only the rows below L where those are more."""
    total = ball_size(rank, max_len)
    k = min(_usable_cpus(), total // _WORKER_ROWS)
    half = _half(rank, max_len)
    if (k < 2 or half == max_len or not hasattr(os, "fork")
            or threading.active_count() > 1):
        return []
    per = (2 * rank - 1) ** (max_len - half)
    n = 2 * rank * (2 * rank - 1) ** (half - 1)
    below = total - n * per
    cut = min(n, max(0, round((total / k - below) / per)))
    bounds = [cut + (n - cut) * i // (k - 1) for i in range(k)]
    return [slice(0, cut)] + [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _stream_rows(handle: TextIO, rows: Iterator[str], parent: int) -> None:
    """Write rows to handle _CHUNK at a time, as write_tsv does, then
    flush it: a worker leaves by os._exit, which flushes nothing.  Stops
    making rows once parent is no longer this process's parent (it was
    killed and nothing will read them)."""
    while os.getppid() == parent and (chunk := "".join(islice(rows, _CHUNK))):
        handle.write(chunk)
    handle.flush()


def _spectrum_writer(rep: Representation, max_len: int,
                     max_words: int = DEFAULT_WORD_CAP) -> Callable[[TextIO], None]:
    """Check the request, then return write(out), which writes
    write_tsv's bytes for spectrum_rows.  On a machine with spare CPUs,
    workers forked from write each make a contiguous run of level L's
    rows (see _shares), streamed to an unlinked temporary file, while the
    parent writes the header and the rows before them; the parent then
    copies each worker's file to out, in order.  Every process holds
    one chunk of rows and the walk's state, never its share of the
    output.  An exception in the parent kills and reaps every worker
    before it propagates; a worker that fails is an Sl2TreesError, and
    one whose parent is killed stops (_stream_rows)."""
    rank = rep.presentation.rank
    check_ball("spectrum", rank, max_len, max_words)
    fingerprint = rep.fundamental()

    def write(out: TextIO) -> None:
        shares = _shares(rank, max_len)
        own = shares[0] if shares else slice(None)
        workers = {}  # pid -> the unlinked file of its rows, of each unreaped worker
        parent = os.getpid()
        try:
            for share in shares[1:]:
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
                            rows, _text_rows(rep, max_len, max_words, share, True), parent)
                        code = 0
                    finally:
                        os._exit(code)
                workers[pid] = rows
            write_tsv(out, rep.presentation, rep.context.p, max_len, fingerprint,
                      _text_rows(rep, max_len, max_words, own))
            for pid in list(workers):
                status = os.waitpid(pid, 0)[1]
                with workers.pop(pid) as rows:
                    if status:
                        raise Sl2TreesError(
                            "a spectrum worker process failed, exit status "
                            f"{os.waitstatus_to_exitcode(status)}")
                    rows.seek(0)
                    shutil.copyfileobj(rows, out, _DRAIN)
        finally:
            for pid, rows in workers.items():
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
                rows.close()

    return write
