"""Trace coordinates: every word trace as an integer polynomial.

For determinant-1 matrices the trace of any word in n generators is an
integer polynomial in the 2^n - 1 fundamental traces t_S, one for each
strictly increasing product of distinct generators.  The rewriter below
computes that polynomial with four trace identities:

  rotation          tr(uv)    = tr(vu)
  inverse removal   tr(u g')  = tr(u) tr(g) - tr(u g)
  square removal    tr(u g g) = tr(u g) tr(g) - tr(u)
  split             tr(x y)   = tr(x) tr(y) - tr(x y')
  reorder           tr(acb)   = tr(a)tr(bc) + tr(b)tr(ac) + tr(c)tr(ab)
                                - tr(a)tr(b)tr(c) - tr(abc)

Each recursive call strictly decreases (length, inverse letters, order
inversions) lexicographically, so the rewriting terminates; a defensive
step budget turns any violation into an error instead of a hang.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from .errors import (
    ReductionCapExceededError,
    UnknownGeneratorError,
    ValidationError,
)
from .matrices import SL2Matrix
from .words import Word, _cyclic_reduce_letters, _rotations, evaluate

VarKey = Tuple[int, ...]        # strictly increasing generator indices
Monomial = Tuple[VarKey, ...]   # sorted variable factors


def _var_order(s: VarKey) -> Tuple[int, VarKey]:
    return (len(s), s)


def variable_name(s: VarKey) -> str:
    return "t" + "".join(str(i) for i in s)


class TracePolynomial:
    """Integer polynomial in the fundamental trace variables t_S."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] = ()):
        clean: Dict[Monomial, int] = {}
        for mono, coeff in dict(terms).items():
            if coeff:
                clean[mono] = coeff
        self._terms = clean

    @classmethod
    def constant(cls, c: int) -> "TracePolynomial":
        return cls({(): c})

    @classmethod
    def variable(cls, s: VarKey) -> "TracePolynomial":
        if not all(a < b for a, b in zip(s, s[1:])):
            raise ValidationError(f"variable index must be increasing: {s}")
        return cls({(s,): 1})

    def terms(self) -> Dict[Monomial, int]:
        return dict(self._terms)

    def variables(self):
        return sorted({v for mono in self._terms for v in mono}, key=_var_order)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        if isinstance(other, int):
            return self._terms == ({(): other} if other else {})
        if not isinstance(other, TracePolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __add__(self, other):
        other = _as_poly(other)
        out = dict(self._terms)
        for mono, coeff in other._terms.items():
            out[mono] = out.get(mono, 0) + coeff
        return TracePolynomial(out)

    __radd__ = __add__

    def __neg__(self):
        return TracePolynomial({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        other = _as_poly(other)
        out: Dict[Monomial, int] = {}
        for m1, c1 in self._terms.items():
            for m2, c2 in other._terms.items():
                mono = tuple(sorted(m1 + m2, key=_var_order))
                out[mono] = out.get(mono, 0) + c1 * c2
        return TracePolynomial(out)

    __rmul__ = __mul__

    def evaluate(self, values: Mapping[VarKey, object]):
        """Plug exact values in for the variables; stays exact.

        Values may be ValuedRational or Fraction; a constant polynomial
        evaluates to a plain int.
        """
        total = 0
        for mono, coeff in sorted(
            self._terms.items(), key=lambda kv: _mono_sort_key(kv[0])
        ):
            term = coeff
            for v in mono:
                if v not in values:
                    raise ValidationError(f"no value for {variable_name(v)}")
                term = term * values[v]
            total = total + term
        return total

    def text(self) -> str:
        """Canonical form: terms by rising degree then variable order,
        with the constant written last, e.g.
        t1^2 + t2^2 + t12^2 - t1*t2*t12 - 2."""
        if not self._terms:
            return "0"
        ordered = sorted(
            ((m, c) for m, c in self._terms.items() if m),
            key=lambda kv: _mono_sort_key(kv[0]),
        )
        const = self._terms.get((), 0)
        if const:
            ordered.append(((), const))
        pieces: List[str] = []
        for mono, coeff in ordered:
            body = _mono_text(mono, abs(coeff))
            if not pieces:
                pieces.append(body if coeff > 0 else "-" + body)
            else:
                pieces.append((" + " if coeff > 0 else " - ") + body)
        return "".join(pieces)

    def __str__(self):
        return self.text()

    def __repr__(self):
        return f"TracePolynomial({self.text()})"


def _mono_sort_key(mono: Monomial):
    return (len(mono), tuple(_var_order(v) for v in mono))


def _mono_text(mono: Monomial, coeff: int) -> str:
    if not mono:
        return str(coeff)
    factors = []
    for v, group in itertools.groupby(mono):
        e = len(list(group))
        factors.append(variable_name(v) if e == 1 else f"{variable_name(v)}^{e}")
    body = "*".join(factors)
    return body if coeff == 1 else f"{coeff}*{body}"


def _as_poly(x) -> TracePolynomial:
    if isinstance(x, TracePolynomial):
        return x
    if isinstance(x, int):
        return TracePolynomial.constant(x)
    raise TypeError(f"cannot combine TracePolynomial with {x!r}")


# -- the rewriter --------------------------------------------------------

_TWO = TracePolynomial.constant(2)
_MEMO: Dict[Tuple[int, ...], TracePolynomial] = {}

DEFAULT_STEP_BUDGET = 200_000


def _canonical_key(letters: Tuple[int, ...]) -> Tuple[int, ...]:
    """Least rotation of the word or its inverse: the memo key respects
    both trace symmetries tr(uv) = tr(vu) and tr(w) = tr(w^-1)."""
    inverse = tuple(-x for x in reversed(letters))
    return min(_rotations(letters) + _rotations(inverse))


def _reduce(letters: Tuple[int, ...], budget: List[int]) -> TracePolynomial:
    letters = _cyclic_reduce_letters(letters)
    if not letters:
        return _TWO
    if len(letters) == 1:
        return TracePolynomial.variable((abs(letters[0]),))
    key = _canonical_key(letters)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    budget[0] -= 1
    if budget[0] < 0:
        raise ReductionCapExceededError("trace rewriting exceeded its step budget")
    m = len(letters)

    neg = next((i for i, x in enumerate(letters) if x < 0), None)
    if neg is not None:
        # tr(u g') = tr(u) tr(g) - tr(u g), rotated so g' sits last
        u = letters[neg + 1:] + letters[:neg]
        g = -letters[neg]
        t_g = TracePolynomial.variable((g,))
        poly = _reduce(u, budget) * t_g - _reduce(u + (g,), budget)
    else:
        adj = next(
            (i for i in range(m) if letters[i] == letters[(i + 1) % m]), None
        )
        if adj is not None:
            # tr(u g g) = tr(u g) tr(g) - tr(u)
            g = letters[adj]
            if adj < m - 1:
                u = letters[adj + 2:] + letters[:adj]
            else:
                u = letters[1:-1]
            t_g = TracePolynomial.variable((g,))
            poly = _reduce(u + (g,), budget) * t_g - _reduce(u, budget)
        elif len(set(letters)) < m:
            # repeated letter: split at its two occurrences,
            # tr(x y) = tr(x) tr(y) - tr(x y')
            g = min(x for x in letters if letters.count(x) > 1)
            i0 = letters.index(g)
            rot = letters[i0:] + letters[:i0]
            j = rot.index(g, 1)
            x, y = rot[:j], rot[j:]
            y_inv = tuple(-t for t in reversed(y))
            poly = _reduce(x, budget) * _reduce(y, budget) - _reduce(
                x + y_inv, budget
            )
        else:
            anchor = letters.index(min(letters))
            rot = letters[anchor:] + letters[:anchor]
            if all(a < b for a, b in zip(rot, rot[1:])):
                poly = TracePolynomial.variable(rot)
            else:
                # reorder one adjacent descent with the triple identity
                i = next(k for k in range(1, m - 1) if rot[k] > rot[k + 1])
                head, x, y, tail = rot[:i], rot[i], rot[i + 1], rot[i + 2:]
                a = tail + head
                t_x = TracePolynomial.variable((x,))
                t_y = TracePolynomial.variable((y,))
                p_a = _reduce(a, budget)
                poly = (
                    p_a * _reduce((y, x), budget)
                    + t_y * _reduce(a + (x,), budget)
                    + t_x * _reduce(a + (y,), budget)
                    - p_a * t_y * t_x
                    - _reduce(a + (y, x), budget)
                )
    _MEMO[key] = poly
    return poly


def trace_polynomial(
    w: Word, rank: int, max_steps: int = DEFAULT_STEP_BUDGET
) -> TracePolynomial:
    """The trace of w as a polynomial in the fundamental traces.

    Exact for every determinant-1 assignment of the rank generators;
    the identity is checked numerically in the test suite rather than
    assumed from the rewriting rules.
    """
    if rank < 1:
        raise ValidationError("rank must be >= 1")
    for x in w.letters:
        if abs(x) > rank:
            raise UnknownGeneratorError(f"letter {x} outside rank {rank}")
    return _reduce(tuple(w.letters), [max_steps])


@dataclass(frozen=True)
class FundamentalTraceVector:
    """Traces of all increasing products, the full trace coordinate."""

    rank: int
    entries: Dict[VarKey, object]

    def ordered(self) -> List[Tuple[VarKey, object]]:
        return [(s, self.entries[s]) for s in subset_keys(self.rank)]

    def __getitem__(self, s: VarKey):
        return self.entries[s]

    def __contains__(self, s: VarKey) -> bool:
        return s in self.entries

    def __iter__(self):
        return iter(self.ordered())


def subset_keys(rank: int) -> List[VarKey]:
    """All 2^n - 1 variable indices, shortest first, then lexicographic."""
    out: List[VarKey] = []
    for k in range(1, rank + 1):
        out.extend(itertools.combinations(range(1, rank + 1), k))
    return out


def fundamental_traces(matrices: Sequence[SL2Matrix]) -> FundamentalTraceVector:
    """Traces of the increasing products of the generator matrices."""
    if not matrices:
        raise ValidationError("need at least one generator matrix")
    rank = len(matrices)
    entries = {s: evaluate(Word(s), matrices).trace() for s in subset_keys(rank)}
    return FundamentalTraceVector(rank, entries)


def trace_of_word(w: Word, matrices: Sequence[SL2Matrix]):
    """Trace of the word's image matrix, the direct route."""
    return evaluate(w, matrices).trace()
