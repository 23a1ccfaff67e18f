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

For rank >= 3 a trace has many polynomial representatives (t123 is a root
of a quadratic over the other six); rewriting the canonical form of the
word's class under rotation and inversion fixes one, whatever the history.
A monomial is one int: variable k, numbered on first use, has its exponent
in bits [W*k, W*(k+1)), so monomials multiply by adding.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from .errors import (
    CapExceededError,
    ReductionCapExceededError,
    UnknownGeneratorError,
    ValidationError,
)
from .matrices import IDENTITY, SL2Matrix, letter_table, scaled_mul, unscaled
from .words import Word, _cyclic_reduce_letters, evaluate

VarKey = Tuple[int, ...]        # strictly increasing generator indices
Monomial = Tuple[VarKey, ...]   # sorted variable factors
Packed = Dict[int, int]         # packed monomial -> nonzero coefficient

_W = 16                       # bits per exponent; words stay shorter than
_EXP_LIMIT = 1 << (_W - 1)    # this, so a field's top bit is never set
_FIELD = (1 << _W) - 1        # one exponent's bits
_VAR_BIT: Dict[VarKey, int] = {}  # variable -> its monomial, in numbering order


def _var(s: VarKey) -> int:
    return _VAR_BIT.setdefault(s, 1 << (_W * len(_VAR_BIT)))


def _decode(mono: int) -> Monomial:
    names, factors = list(_VAR_BIT), []
    for k in range((mono.bit_length() + _W - 1) // _W):
        factors += [names[k]] * ((mono >> (_W * k)) & _FIELD)
    return tuple(sorted(factors, key=_var_order))


def _add_into(acc: Packed, p: Packed, c: int = 1, shift: int = 0) -> None:
    """acc += c * x^shift * p in place, x^shift a packed monomial."""
    get = acc.get
    for m, x in p.items():
        m += shift
        acc[m] = get(m, 0) + c * x


def _clean(acc: Packed) -> Packed:
    return {m: c for m, c in acc.items() if c} if 0 in acc.values() else acc


def _mul(p: Packed, q: Packed) -> Packed:
    """The one product, in a fresh dict: shifted, scaled copies of p."""
    if len(p) < len(q):
        p, q = q, p  # one copy per term of the shorter factor
    acc: Packed = {}
    for shift, c in q.items():
        _add_into(acc, p, c, shift)
    return _clean(acc)


def _var_order(s: VarKey) -> Tuple[int, VarKey]:
    return (len(s), s)


def variable_name(s: VarKey) -> str:
    return "t" + "".join(str(i) for i in s)


class TracePolynomial:
    """Integer polynomial in the fundamental trace variables t_S."""

    __slots__ = ("_terms",)

    def __init__(self, terms: Mapping[Monomial, int] = ()):
        packed: Packed = {}
        for mono, coeff in dict(terms).items():
            if len(mono) >= _EXP_LIMIT:
                raise CapExceededError(f"a monomial degree reached {_EXP_LIMIT}")
            _add_into(packed, {sum(map(_var, mono)): coeff})
        self._terms = _clean(packed)

    @classmethod
    def _of(cls, packed: Packed) -> "TracePolynomial":
        out = object.__new__(cls)
        out._terms = packed
        return out

    @classmethod
    def constant(cls, c: int) -> "TracePolynomial":
        return cls._of({0: c} if c else {})

    @classmethod
    def variable(cls, s: VarKey) -> "TracePolynomial":
        if not all(a < b for a, b in zip(s, s[1:])):
            raise ValidationError(f"variable index must be increasing: {s}")
        return cls._of({_var(s): 1})

    def terms(self) -> Dict[Monomial, int]:
        return {_decode(m): c for m, c in self._terms.items()}

    def variables(self):
        return sorted({v for mono in self.terms() for v in mono}, key=_var_order)

    def is_zero(self) -> bool:
        return not self._terms

    def __eq__(self, other):
        if isinstance(other, int):
            return self._terms == ({0: other} if other else {})
        if not isinstance(other, TracePolynomial):
            return NotImplemented
        return self._terms == other._terms

    def __hash__(self):
        return hash(frozenset(self.terms().items()))

    def __add__(self, other):
        out = dict(self._terms)
        _add_into(out, _as_poly(other)._terms)
        return TracePolynomial._of(_clean(out))

    __radd__ = __add__

    def __neg__(self):
        return TracePolynomial._of({m: -c for m, c in self._terms.items()})

    def __sub__(self, other):
        return self + (-_as_poly(other))

    def __rsub__(self, other):
        return _as_poly(other) + (-self)

    def __mul__(self, other):
        out = _mul(self._terms, _as_poly(other)._terms)
        guard = sum(_VAR_BIT.values()) << (_W - 1)  # each field's top bit
        if any(m & guard for m in out):
            raise CapExceededError(f"an exponent reached {_EXP_LIMIT}")
        return TracePolynomial._of(out)

    __rmul__ = __mul__

    def evaluate(self, values: Mapping[VarKey, object]):
        """Plug exact values in for the variables; stays exact.

        Values may be ValuedRational or Fraction; a constant polynomial
        evaluates to a plain int.
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
        if not self._terms:
            return "0"
        ordered = sorted(
            ((_decode(m), c) for m, c in self._terms.items() if m),
            key=lambda kv: _mono_sort_key(kv[0]),
        )
        const = self._terms.get(0, 0)
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

_TWO: Packed = {0: 2}
_MEMO: Dict[Tuple[int, ...], Packed] = {}

DEFAULT_STEP_BUDGET = 200_000


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


def _reduce(letters: Tuple[int, ...], budget: List[int]) -> Packed:
    letters = _cyclic_reduce_letters(letters)
    if len(letters) < 2:
        return {_var((abs(letters[0]),)): 1} if letters else _TWO
    letters = _canonical_key(letters)
    hit = _MEMO.get(letters)
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
        poly = _mul(_reduce(u, budget), {_var((g,)): 1})
        _add_into(poly, _reduce(u + (g,), budget), -1)
    else:
        # the key starts a run of its least letter, so a square never wraps
        adj = next((i for i in range(m - 1) if letters[i] == letters[i + 1]), None)
        if adj is not None:
            # tr(u g g) = tr(u g) tr(g) - tr(u)
            g = letters[adj]
            u = letters[adj + 2:] + letters[:adj]
            poly = _mul(_reduce(u + (g,), budget), {_var((g,)): 1})
            _add_into(poly, _reduce(u, budget), -1)
        elif len(set(letters)) < m:
            # repeated letter: split at its two occurrences,
            # tr(x y) = tr(x) tr(y) - tr(x y')
            g = min(x for x in letters if letters.count(x) > 1)
            i0 = letters.index(g)
            rot = letters[i0:] + letters[:i0]
            j = rot.index(g, 1)
            x, y = rot[:j], rot[j:]
            y_inv = tuple(-t for t in reversed(y))
            poly = _mul(_reduce(x, budget), _reduce(y, budget))
            _add_into(poly, _reduce(x + y_inv, budget), -1)
        elif all(a < b for a, b in zip(letters, letters[1:])):
            # the key starts at its least letter, so it is the variable
            poly = {_var(letters): 1}
        else:
            # reorder one adjacent descent with the triple identity
            i = next(k for k in range(1, m - 1) if letters[k] > letters[k + 1])
            head, x, y, tail = letters[:i], letters[i], letters[i + 1], letters[i + 2:]
            a = tail + head
            t_x, t_y = _var((x,)), _var((y,))
            poly = _mul(_reduce(a, budget), {_var((y, x)): 1, t_x + t_y: -1})
            _add_into(poly, _reduce(a + (x,), budget), 1, t_y)
            _add_into(poly, _reduce(a + (y,), budget), 1, t_x)
            _add_into(poly, _reduce(a + (y, x), budget), -1)
    poly = _MEMO[letters] = _clean(poly)
    return poly


def trace_polynomial(
    w: Word, rank: int, max_steps: int = DEFAULT_STEP_BUDGET
) -> TracePolynomial:
    """The trace of w as a polynomial in the fundamental traces.

    Exact for every determinant-1 assignment of the rank generators;
    the identity is checked numerically in the test suite rather than
    assumed from the rewriting rules.  For rank >= 3 the result is one
    fixed representative modulo the relations among the traces.
    """
    if rank < 1:
        raise ValidationError("rank must be >= 1")
    for x in w.letters:
        if abs(x) > rank:
            raise UnknownGeneratorError(f"letter {x} outside rank {rank}")
    if len(w.letters) >= _EXP_LIMIT:
        raise ReductionCapExceededError(
            f"words of {_EXP_LIMIT} letters or more are not rewritten")
    try:
        return TracePolynomial._of(_reduce(tuple(w.letters), [max_steps]))
    except RecursionError:
        raise ReductionCapExceededError("trace rewriting nested too deeply") from None


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
    table, images, entries = letter_table(matrices), {(): IDENTITY}, {}
    for s in subset_keys(len(matrices)):
        images[s] = scaled_mul(images[s[:-1]], table[s[-1]])
        entries[s] = unscaled(images[s], matrices[0].context).trace()
    return FundamentalTraceVector(len(matrices), entries)


def trace_of_word(w: Word, matrices: Sequence[SL2Matrix]):
    """Trace of the word's image matrix, the direct route."""
    return evaluate(w, matrices).trace()
