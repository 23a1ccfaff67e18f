"""Classification of SL(2) representations over the valued rationals.

The pipeline is certificate-driven: boundedness comes with either a
fixed lattice class (checked by conjugating every generator into the
local integers) or a short word whose trace has negative valuation;
reducibility comes with an invariant projective line; irreducibility
strength is measured by the dimension of the generated matrix algebra.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from typing import List, Optional, Sequence, Tuple

from .errors import (
    ContextMismatchError,
    NotBoundedError,
    PreconditionNotMetError,
    SaturationCapExceededError,
    ValidationError,
)
from .field import PrimeContext, ValuedRational, _val_fraction
from .isometry import rational_eigenlines
from .matrices import (
    IDENTITY, SL2Matrix, inv2, letter_table, mul2, scaled_mul)
from .traces import FundamentalTraceVector, fundamental_traces, subset_keys
from .tree import TreeVertex, canonical_vertex
from .words import (
    DEFAULT_WORD_CAP, Presentation, Word, _trusted_word, ball_walk,
    check_ball, evaluate_with, word_to_text)

Line = Tuple[int, int]


@dataclass(frozen=True)
class Representation:
    """A presentation together with one SL(2) matrix per generator.

    Relators are checked to evaluate to the exact identity matrix, so a
    constructed Representation really is a homomorphism.  Its scaled
    letter table is built once, and the frozen object keeps it valid.
    """

    presentation: Presentation
    assignment: Tuple[Tuple[str, SL2Matrix], ...]

    def __init__(self, presentation: Presentation, assignment):
        pairs = tuple(sorted(dict(assignment).items()))
        names = tuple(sorted(presentation.generators))
        if tuple(k for k, _ in pairs) != names:
            raise ValidationError(
                f"assignment names {[k for k, _ in pairs]} do not match "
                f"generators {list(presentation.generators)}"
            )
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "assignment", pairs)
        object.__setattr__(self, "_letters", letter_table(self.matrices))
        identity = SL2Matrix.identity(self.context)
        for relator in presentation.relators:
            if self.evaluate(relator) != identity:
                raise ValidationError(
                    "relator does not evaluate to the identity: "
                    f"{word_to_text(relator, presentation)}"
                )

    @property
    def context(self) -> PrimeContext:
        return self.assignment[0][1].context

    @property
    def matrices(self) -> List[SL2Matrix]:
        by_name = dict(self.assignment)
        return [by_name[name] for name in self.presentation.generators]

    def matrix(self, name: str) -> SL2Matrix:
        return dict(self.assignment)[name]

    def evaluate(self, w: Word) -> SL2Matrix:
        return evaluate_with(w, self._letters, self.context)

    def trace(self, w: Word) -> ValuedRational:
        return self.evaluate(w).trace()

    def fundamental(self) -> FundamentalTraceVector:
        return fundamental_traces(self.matrices)

    def conjugated_by(self, h: SL2Matrix) -> "Representation":
        return Representation(
            self.presentation,
            {name: m.conjugated_by(h) for name, m in self.assignment},
        )


def is_bounded(rep: Representation) -> Tuple[bool, Optional[Word]]:
    """Bounded iff every fundamental trace is locally integral.

    An unbounded representation returns the first increasing product
    word whose trace has negative valuation as a witness.
    """
    vector = rep.fundamental()
    for s in subset_keys(rep.presentation.rank):
        if vector[s].valuation() < 0:
            return False, Word(s)
    return True, None


# -- lattice saturation ---------------------------------------------------

Vec = Tuple[Fraction, Fraction]
LatticeForm = Tuple[int, int, Fraction]  # basis [[p^alpha, y], [0, p^beta]]


def _lattice_span(vectors: Sequence[Vec], p: int) -> LatticeForm:
    """Normal form of the local-integer span of the given vectors."""
    from .tree import _reduce_center

    pivot = min(
        (v for v in vectors if v[1] != 0),
        key=lambda v: _val_fraction(v[1], p),
        default=None,
    )
    if pivot is None:
        raise ValidationError("vectors span a rank-1 module")
    beta = int(_val_fraction(pivot[1], p))
    tops = [
        v[0] - (v[1] / pivot[1]) * pivot[0] for v in vectors if v is not pivot
    ]
    finite = [_val_fraction(t, p) for t in tops if t != 0]
    if not finite:
        raise ValidationError("vectors span a rank-1 module")
    alpha = int(min(finite))
    y = pivot[0] * Fraction(p) ** beta / pivot[1]
    return alpha, beta, _reduce_center(y, alpha, p)


def _lattice_vectors(form: LatticeForm, p: int) -> List[Vec]:
    alpha, beta, y = form
    return [
        (Fraction(p) ** alpha, Fraction(0)),
        (y, Fraction(p) ** beta),
    ]


def _apply(m: SL2Matrix, v: Vec) -> Vec:
    return (m.a * v[0] + m.b * v[1], m.c * v[0] + m.d * v[1])


def fixed_lattice_certificate(
    rep: Representation, max_rounds: int = 64
) -> TreeVertex:
    """A vertex fixed by the whole image, certified by conjugation.

    Saturates the standard lattice under the generators until stable;
    each strict growth step lowers the covolume valuation, so a bounded
    representation stabilizes quickly.  The resulting class is verified
    by checking that conjugating every generator by the class basis
    lands entrywise in the local integers.
    """
    bounded, _ = is_bounded(rep)
    if not bounded:
        raise NotBoundedError("unbounded representations fix no lattice class")
    return _saturated_lattice(rep, max_rounds)


def _saturated_lattice(rep: Representation, max_rounds: int) -> TreeVertex:
    """fixed_lattice_certificate's work, for a rep known to be bounded."""
    p = rep.context.p
    form: LatticeForm = (0, 0, Fraction(0))
    matrices = rep.matrices
    for _ in range(max_rounds):
        current = _lattice_vectors(form, p)
        spanning = list(current)
        for m in matrices:
            spanning.extend(_apply(m, v) for v in current)
        grown = _lattice_span(spanning, p)
        if grown == form:
            break
        form = grown
    else:
        raise SaturationCapExceededError(
            f"lattice saturation still moving after {max_rounds} rounds"
        )
    alpha, beta, y = form
    vertex = canonical_vertex(
        ((Fraction(p) ** alpha, y), (Fraction(0), Fraction(p) ** beta)),
        rep.context,
    )
    inv = inv2(vertex.basis())
    for m in matrices:
        conj = mul2(mul2(inv, m.rows()), vertex.basis())
        if any(_val_fraction(x, p) < 0 for row in conj for x in row):
            raise ValidationError("fixed-lattice certificate failed verification")
    return vertex


# -- reducibility ---------------------------------------------------------


def _line_invariant_under(line: Line, m: SL2Matrix) -> bool:
    ix, iy = _apply(m, line)
    return ix * line[1] == iy * line[0]


def is_reducible_over_rationals(
    rep: Representation,
) -> Tuple[bool, Optional[Line]]:
    """Search for a rational projective line fixed by the whole image.

    Any invariant line is an eigenline of each generator, so only the
    rational eigenlines of the first non-central generator need testing.
    """
    non_central = [m for m in rep.matrices if not m.is_central()]
    if not non_central:
        return True, (1, 0)
    head = non_central[0]
    candidates = rational_eigenlines(head).lines
    for line in candidates:
        if all(_line_invariant_under(line, m) for m in rep.matrices):
            return True, line
    return False, None


def algebra_dimension(rep: Representation) -> int:
    """Dimension over the rationals of the unital algebra generated by
    the image.  4 means absolutely irreducible; inverses are already in
    the span since g + g^-1 is central for determinant 1.  Scaling does
    not change a span, so the words' images stay scaled integer matrices
    and are reduced against an integer echelon basis."""
    basis: List[Tuple[List[int], int]] = []  # (row, its leading index)

    def insert(m) -> bool:
        vec = list(m[:4])
        for row, lead in basis:
            vec = [x * row[lead] - vec[lead] * y for x, y in zip(vec, row)]
        lead = next((i for i, x in enumerate(vec) if x), None)
        if lead is not None:
            basis.append((vec, lead))
        return lead is not None

    gens = [rep._letters[i] for i in range(1, rep.presentation.rank + 1)]
    insert(IDENTITY)
    worklist = [IDENTITY]
    while worklist and len(basis) < 4:
        m = worklist.pop(0)
        for g in gens:
            prod = scaled_mul(g, m)
            if insert(prod):
                worklist.append(prod)
    return len(basis)


# -- the assembled report -------------------------------------------------


@dataclass(frozen=True)
class ClassificationReport:
    prime: int
    bounded: bool
    fixed_lattice: Optional[TreeVertex]
    unbounded_witness: Optional[Word]
    reducible_over_rationals: bool
    invariant_line: Optional[Line]
    algebra_dimension: int
    absolutely_irreducible: bool
    reducible_over_completion: Optional[bool]
    zariski_dense: bool
    zariski_note: Optional[str]
    length_abelian: bool
    character_exponents: Optional[Tuple[Tuple[str, int], ...]]


def _character_exponents(
    rep: Representation, line: Line
) -> Tuple[Tuple[str, int], ...]:
    """The eigen-character on an invariant line, as 2 * v(eigenvalue)."""
    x, y = line
    out = []
    for name, m in rep.assignment:
        ix, iy = _apply(m, line)
        lam = ix / x if x != 0 else iy / y
        out.append((name, 2 * int(_val_fraction(lam, rep.context.p))))
    ordered = dict(out)
    return tuple((g, ordered[g]) for g in rep.presentation.generators)


def classify(
    rep: Representation, max_saturation_rounds: int = 64
) -> ClassificationReport:
    """Full classification with certificates; every field is exact."""
    bounded, witness = is_bounded(rep)
    fixed = _saturated_lattice(rep, max_saturation_rounds) if bounded else None
    reducible, line = is_reducible_over_rationals(rep)
    dim = algebra_dimension(rep)
    completion: Optional[bool] = None
    if not reducible and dim <= 2:
        # commutative non-split case: the image lives in a quadratic
        # field, which splits over the completion iff tr^2 - 4 is a
        # completion square for a non-central element
        head = next(m for m in rep.matrices if not m.is_central())
        disc = head.trace() * head.trace() - ValuedRational(4, rep.context)
        completion = disc.is_square()
    zariski = (not bounded) and (not reducible)
    note = (
        "image has bounded closure; density is reported for the unbounded case"
        if bounded
        else None
    )
    character = _character_exponents(rep, line) if line is not None else None
    return ClassificationReport(
        prime=rep.context.p,
        bounded=bounded,
        fixed_lattice=fixed,
        unbounded_witness=witness,
        reducible_over_rationals=reducible,
        invariant_line=line,
        algebra_dimension=dim,
        absolutely_irreducible=(dim == 4),
        reducible_over_completion=completion,
        zariski_dense=zariski,
        zariski_note=note,
        length_abelian=bounded or reducible,
        character_exponents=character,
    )


def conjugacy_test(rep1: Representation, rep2: Representation) -> bool:
    """Trace-vector equality decides conjugacy for unbounded,
    rationally irreducible representations of the same presentation."""
    if rep1.presentation != rep2.presentation:
        raise PreconditionNotMetError("representations of different presentations")
    if rep1.context != rep2.context:
        raise ContextMismatchError("representations over different primes")
    for rep in (rep1, rep2):
        if is_bounded(rep)[0]:
            raise PreconditionNotMetError("conjugacy test needs unbounded input")
        if is_reducible_over_rationals(rep)[0]:
            raise PreconditionNotMetError("conjugacy test needs irreducible input")
    return rep1.fundamental().entries == rep2.fundamental().entries


def commutator_trace_scan(
    rep: Representation, max_total_len: int = 8
) -> List[Tuple[Word, ValuedRational]]:
    """Traces of commutators [u, v] over all ball word pairs with
    |u| + |v| bounded.  One-sided: any trace other than 2 certifies
    irreducibility over the algebraic closure; all 2 proves nothing.

    Each trace comes from the Fricke identity
    tr[u, v] = tr(u)^2 + tr(v)^2 + tr(uv)^2 - tr(u) tr(v) tr(uv) - 2,
    in integers over the scaled images u = M/Du and v = N/Dv: one trace
    of a product per pair, over the common denominator Du^2 Dv^2.
    """
    if max_total_len < 2:
        raise ValidationError("scan needs max_total_len >= 2")
    rank = rep.presentation.rank
    levels = [1, 2 * rank]  # words of each length; a pair is a level times a ball
    while len(levels) <= max_total_len:
        levels.append(levels[-1] * (2 * rank - 1))
    pairs = sum(n * b for n, b in zip(levels, reversed(list(accumulate(levels)))))
    check_ball(rank, max_total_len, DEFAULT_WORD_CAP, "commutator scan", pairs)
    table = rep._letters
    walk = ball_walk(rank, max_total_len, IDENTITY,
                     lambda m, x: scaled_mul(m, table[x]))
    rows = []
    for u, (a, b, c, d, den) in [((), IDENTITY)] + [(w.letters, m) for w, m in walk]:
        rows.append((u, tuple(-x for x in reversed(u)),
                     a, b, c, d, a + d, (a + d) ** 2, den * den))
    ctx = rep.context
    out: List[Tuple[Word, ValuedRational]] = []
    for u, u_inv, a, b, c, d, tu, tu2, du2 in rows:
        for v, v_inv, e, f, g, h, tv, tv2, dv2 in rows:
            if len(u) + len(v) > max_total_len:
                break  # rows are shortlex sorted, so later v are no shorter
            tuv = a * e + b * g + c * f + d * h
            den = du2 * dv2
            num = tu2 * dv2 + tv2 * du2 + tuv * (tuv - tu * tv) - 2 * den
            out.append((_trusted_word(u + v + u_inv + v_inv),
                        ValuedRational(Fraction(num, den), ctx)))
    return out
