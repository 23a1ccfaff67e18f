"""Trace coordinates: every word trace as an integer polynomial.

The trace of a word in n determinant-1 generators is an integer polynomial
in the fundamental traces t_S of the 2^n - 1 increasing products x_S
(Procesi 1976, Horowitz 1972).  tr(w) is one right-to-left pass over the
word's canonical key in the span of 1 and the x_S over the trace ring, by
x_j' = t_j - x_j, x_j x_j = t_j x_j - 1 and, for i < j,
x_j x_i = -x_i x_j + t_i x_j + t_j x_i + t_ij - t_i t_j; tr x_S = t_S and
tr 1 = 2 close it.  The pass takes two letters per step through cached
pair tables; if that overflows the term budget, the word is passed again
one letter at a time, which never charges more, and that pass decides.
A cancelled term stays in its state as a 0 until the next step skips it.
No coefficient holds a t_S with |S| >= 3, so at rank 3 the result is the
unique polynomial of degree <= 1 in t123; at rank >= 4 the key fixes it.
Caches never change an output, and a term budget per call bounds time
and memory whatever ran before.  A monomial is one int:
variable k, numbered on first use, has its exponent in bits
[W*k, W*(k+1)), so monomials multiply by adding; tr(w) has degree at most
len(w), and words of 2^(W-1) letters or more are refused, so no field
overflows.  The result is a TracePolynomial, read by terms(), text() and
evaluate().
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

from .errors import CapExceededError, UnknownGeneratorError, ValidationError
from .matrices import IDENTITY, SL2Matrix, Scaled, checked, letter_table, scaled_mul
from .words import Word, _cyclic_reduce_letters

VarKey = Tuple[int, ...]        # strictly increasing generator indices
Monomial = Tuple[VarKey, ...]   # sorted variable factors
Packed = Dict[int, int]         # packed monomial -> coefficient

_W = 16                       # bits per exponent; words stay shorter than
_EXP_LIMIT = 1 << (_W - 1)    # this, so a field's top bit is never set
_FIELD = (1 << _W) - 1        # one exponent's bits
_VAR_BIT: Dict[VarKey, int] = {}  # variable -> its monomial, in numbering order


def _var(s: VarKey) -> int:
    return _VAR_BIT.setdefault(s, 1 << (_W * len(_VAR_BIT)))  # numbered on first use


def _decode(mono: int) -> Monomial:
    names, factors = list(_VAR_BIT), []
    for k in range((mono.bit_length() + _W - 1) // _W):
        factors += [names[k]] * ((mono >> (_W * k)) & _FIELD)
    return tuple(sorted(factors, key=_var_order))


def _var_order(s: VarKey) -> Tuple[int, VarKey]:
    return (len(s), s)


def variable_name(s: VarKey) -> str:
    return "t" + "".join(str(i) for i in s)


class TracePolynomial:
    """The trace pass's result, an integer polynomial in the fundamental
    trace variables t_S: read it with terms(), text() and evaluate()."""

    __slots__ = ("_terms",)

    @classmethod
    def _of(cls, packed: Packed) -> "TracePolynomial":
        out = object.__new__(cls)
        out._terms = packed
        return out

    def terms(self) -> Dict[Monomial, int]:
        return {_decode(m): c for m, c in self._terms.items()}

    def __eq__(self, other):
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        if not isinstance(other, TracePolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        if self._terms.keys() <= {0}:  # a constant hashes as the int it equals
            return hash(self._terms.get(0, 0))
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        """The polynomial plus an int."""
        if not isinstance(other, int):
            return NotImplemented
        out = dict(self._terms)
        c = out.pop(0, 0) + other
        return TracePolynomial._of({**out, 0: c} if c else out)

    def evaluate(self, values: Mapping[VarKey, object]):
        """Plug exact values in for the variables; stays exact.

        Values are ints or Fractions, as fundamental_traces gives them;
        a constant polynomial evaluates to a plain int.
        """
        names, powers, total = list(_VAR_BIT), {}, 0
        for mono, coeff in self._terms.items():
            term, k = coeff, 0
            while mono:
                e = mono & _FIELD
                if e:
                    if names[k] not in values:
                        raise ValidationError(f"no value for {variable_name(names[k])}")
                    pw = powers.setdefault(k, [1])  # each power computed once
                    while len(pw) <= e:
                        pw.append(pw[-1] * values[names[k]])
                    term = term * pw[e]
                mono >>= _W
                k += 1
            total = total + term
        return total

    def text(self) -> str:
        """Canonical form: terms by rising degree then variable order,
        with the constant written last, e.g.
        t1^2 + t2^2 + t12^2 - t1*t2*t12 - 2."""
        table = [(_var_order(s), variable_name(s)) for s in _VAR_BIT]
        ordered = []
        for mono, coeff in self._terms.items():
            runs, k = [], 0  # (variable order, -exponent, name) per variable
            while mono:
                if mono & _FIELD:
                    runs.append((table[k][0], -(mono & _FIELD), table[k][1]))
                mono >>= _W
                k += 1
            runs.sort()  # a larger power of a variable sorts first
            ordered.append((not runs, -sum(e for _, e, _ in runs), runs, coeff))
        pieces: List[str] = []
        for _, _, runs, coeff in sorted(ordered):
            factors = [n if e == -1 else f"{n}^{-e}" for _, e, n in runs]
            if abs(coeff) != 1 or not factors:
                factors.insert(0, str(abs(coeff)))
            pieces.append((" - " if coeff < 0 else " + ") + "*".join(factors))
        text = "".join(pieces) or " + 0"  # the first term keeps only a minus
        return text[3:] if text[1] == "+" else "-" + text[3:]

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"TracePolynomial({self.text()})"


# -- the trace pass ------------------------------------------------------

TERM_BUDGET = 2_000_000  # terms one call may write or read

# An element is one dict: x^m x_S is the key (m << B) | S, B the largest
# letter, so x_S -> c x^shift x_T adds the delta (shift << B) + T - S; a
# cancelled term stays as a 0, skipped free of charge.  A table (B, letters)
# maps S to the deltas of letters * x_S and their read charge, their count
# plus their build's cost, which every read pays; letter 0 is the trace.
# A pair entry is built by its two single-letter steps on one term, so a
# read charges no less than they do on that term; the single-letter pass
# also merges like terms between the two letters.
Table = Tuple[int, Tuple[int, ...]]
_TABLES: Dict[Table, Dict[int, Tuple[Tuple[Tuple[int, int], ...], int]]] = {}
_WORDS: Dict[Tuple[int, ...], Packed] = {}  # canonical key -> its trace
_HELD, _HOLD_LIMIT = [0], 1 << 20  # terms in both caches, emptied past the limit


def _canonical_key(letters: Tuple[int, ...]) -> Tuple[int, ...]:
    """The least rotation of the word or its inverse, whichever has fewer
    inverse letters (both on a tie).  It starts a run of the least letter:
    starting inside one puts a larger letter earlier."""
    excess = 2 * len([x for x in letters if x < 0]) - len(letters)
    inverse = tuple(-x for x in reversed(letters)) if excess >= 0 else None
    candidates = ((letters,) if excess < 0 else (inverse,) if excess
                  else (letters, inverse))
    best = None
    for w in candidates:
        low = min(w)
        for i, x in enumerate(w):
            if x == low and w[i - 1] != low:
                rot = w[i:] + w[:i]
                if best is None or rot < best:
                    best = rot
    return best or candidates[0]


def _apply(state: Packed, table: Table, budget: List[int]) -> Packed:
    """Each nonzero term of the state times its entry, charging the entry's
    read charge; on a miss the build and the entry's length pay it."""
    (b, letters), entries = table, _TABLES.setdefault(table, {})
    mask, new, left = (1 << b) - 1, {}, budget[0]
    get = new.get
    for key, v in state.items():
        if not v:
            continue
        s = key & mask
        hit = entries.get(s)
        if hit is None:
            budget[0] = left
            if len(letters) > 1:  # (u x) x_S = u (x x_S)
                out = _apply(_apply({s: 1}, (b, letters[-1:]), budget),
                             (b, letters[:-1]), budget)
            elif letters[0]:
                out = _row(b, letters[0], s, budget)
            else:  # tr x_S = t_S, tr 1 = 2
                out = {_var(tuple(i + 1 for i in range(b) if s >> i & 1)) << b: 1} if s else {0: 2}
            deltas = tuple((k - s, c) for k, c in out.items() if c)
            hit = entries[s] = deltas, left - budget[0] + len(deltas)
            _HELD[0] += len(deltas)
        left -= hit[1]
        if left < 0:
            raise CapExceededError(f"the trace pass needs more than {TERM_BUDGET} terms")
        for d, c in hit[0]:
            d += key
            new[d] = get(d, 0) + c * v
    budget[0] = left
    return new


def _row(b: int, x: int, s: int, budget: List[int]) -> Packed:
    """x x_S, the anticommutation written as x_j x_i = t_ij - x_i' x_j'."""
    j = abs(x)
    bit, low, t_j = 1 << (j - 1), s & -s, _var((j,)) << b
    if x < 0:  # x_j' = t_j - x_j
        out, one = _apply({s: -1}, (b, (j,)), budget), t_j | s
    elif not s or bit < low:
        return {s | bit: 1}
    elif bit == low:  # x_j^2 = t_j x_j - 1
        return {t_j | s: 1, s ^ bit: -1}
    else:  # every index of x_j' x_rest exceeds i
        i, rest = low.bit_length(), s ^ low
        out = _apply(_apply({rest: -1}, (b, (-j,)), budget), (b, (-i,)), budget)
        one = (_var((i, j)) << b) | rest
    out[one] = out.get(one, 0) + 1
    return out


def trace_polynomial(w: Word, rank: int) -> TracePolynomial:
    """The trace of w in the fundamental traces, exact for every
    determinant-1 assignment; CapExceededError past TERM_BUDGET terms."""
    if rank < 1:
        raise ValidationError("rank must be >= 1")
    for x in w.letters:
        if abs(x) > rank:
            raise UnknownGeneratorError(f"letter {x} outside rank {rank}")
    if len(w.letters) >= _EXP_LIMIT:
        raise CapExceededError(f"words of {_EXP_LIMIT} letters or more are not traced")
    letters = _cyclic_reduce_letters(w.letters)
    if not letters:
        return TracePolynomial._of({0: 2})
    key = _canonical_key(letters)
    poly = _WORDS.get(key)
    if poly is None:
        if _HELD[0] > _HOLD_LIMIT:
            _TABLES.clear(), _WORDS.clear()
            _HELD[0] = 0
        # the last two letters are one entry, the first three a functional,
        # the middle pairs; past the budget single letters decide
        b, head = max(map(abs, key)), key[:max(0, len(key) - 2)][:3]
        middle = key[len(head):-2]
        for step in (2, 1):
            budget = [TERM_BUDGET]
            try:
                state = _apply({0: 1}, (b, key[-2:]), budget)
                for end in range(len(middle), 0, -step):
                    state = _apply(state, (b, middle[max(0, end - step):end]), budget)
                state = _apply(state, (b, (0,) + head), budget)
                break
            except CapExceededError:
                if step == 1:
                    raise
        poly = _WORDS[key] = {k >> b: c for k, c in state.items() if c}
        _HELD[0] += len(poly)
    return TracePolynomial._of(poly)


@dataclass(frozen=True)
class FundamentalTraceVector:
    """Traces of all increasing products, the full trace coordinate."""

    rank: int
    entries: Dict[VarKey, Fraction]

    def ordered(self) -> List[Tuple[VarKey, Fraction]]:
        return [(s, self.entries[s]) for s in subset_keys(self.rank)]

    def __getitem__(self, s: VarKey):
        return self.entries[s]

    def __contains__(self, s: VarKey) -> bool:
        return s in self.entries

    def __iter__(self):
        return iter(self.ordered())


def subset_keys(rank: int, largest: Optional[int] = None) -> List[VarKey]:
    """The variable indices of at most `largest` generators (default all,
    2^n - 1 of them), shortest first, then lexicographic."""
    size = rank if largest is None else min(largest, rank)
    return [s for k in range(1, size + 1) for s in itertools.combinations(range(1, rank + 1), k)]


def subset_products(table: Dict[int, Scaled], rank: int,
                    largest: Optional[int] = None) -> Iterator[Tuple[VarKey, Scaled]]:
    """(s, the product of s's letters in table) for each key of subset_keys(rank,
    largest), lazily: one scaled_mul on its prefix's, its determinant checked."""
    images = {(): IDENTITY}
    for s in subset_keys(rank, largest):
        images[s] = m = checked(scaled_mul(images[s[:-1]], table[s[-1]]))
        yield s, m


def fundamental_traces(matrices: Sequence[SL2Matrix]) -> FundamentalTraceVector:
    """Traces of the increasing products of the generator matrices."""
    if not matrices:
        raise ValidationError("need at least one generator matrix")
    products = subset_products(letter_table(matrices), len(matrices))
    return FundamentalTraceVector(
        len(matrices), {s: Fraction(a + d, den) for s, (a, _, _, d, den) in products})
