"""Classification of SL(2) representations over the valued rationals.

The pipeline is certificate-driven: boundedness comes with either a
fixed lattice class or a short word whose trace has negative valuation;
reducibility comes with an invariant projective line; irreducibility
strength is measured by the dimension of the generated matrix algebra.
Every step runs on the scaled letter table (A, B, C, D, den), with
valuations in place of Fractions.  The fixed lattice class is the fixed
vertex nearest the standard lattice, one projection onto a fixed subtree
per generator (Serre, Trees, I.6.4-6.5).  It is checked as a vertex each
generator fixes under tree.act, which is integrality of the generators
conjugated by its basis: m L = p^j L forces j = 0 when det m = 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import neg
from typing import Iterator, List, Optional, Tuple

from .errors import (
    ContextMismatchError,
    NotBoundedError,
    PreconditionNotMetError,
    ValidationError,
)
from .field import PrimeContext, ValuedRational
from .isometry import _projection, rational_eigenlines
from .matrices import IDENTITY, SL2Matrix, checked, letter_table, scaled_mul
from .traces import FundamentalTraceVector, fundamental_traces, subset_products
from .tree import TreeVertex, act
from .words import (
    DEFAULT_WORD_CAP, Presentation, Word, _trusted_word, ball_levels, ball_size,
    check_size, scaled_image, sphere_sizes, word_to_text)

Line = Tuple[int, int]


@dataclass(frozen=True)
class Representation:
    """A presentation together with one SL(2) matrix per generator.

    The matrices are stored once, in presentation order, beside their
    scaled letter table.  Relators are checked to evaluate to the exact
    identity, so a constructed Representation really is a homomorphism.
    """

    presentation: Presentation
    matrices: Tuple[SL2Matrix, ...]

    def __init__(self, presentation: Presentation, assignment):
        by_name = dict(assignment)
        if by_name.keys() != set(presentation.generators):
            raise ValidationError(f"assignment names {sorted(by_name, key=str)} do not match "
                                  f"generators {list(presentation.generators)}")
        object.__setattr__(self, "presentation", presentation)
        object.__setattr__(self, "matrices",
                           tuple(by_name[name] for name in presentation.generators))
        object.__setattr__(self, "_letters", letter_table(self.matrices))
        for relator in presentation.relators:
            a, b, c, d, den = checked(scaled_image(relator, self._letters))
            if (a, b, c, d) != (den, 0, 0, den):
                raise ValidationError(
                    "relator does not evaluate to the identity: "
                    f"{word_to_text(relator, presentation)}"
                )

    @property
    def context(self) -> PrimeContext:
        return self.matrices[0].context

    def matrix(self, name: str) -> SL2Matrix:
        return self.matrices[self.presentation.name_index[name] - 1]

    def evaluate(self, w: Word) -> SL2Matrix:
        return SL2Matrix._of(scaled_image(w, self._letters), self.context)

    def fundamental(self) -> FundamentalTraceVector:
        return fundamental_traces(self.matrices)

    def conjugated_by(self, h: SL2Matrix) -> "Representation":
        return Representation(
            self.presentation,
            zip(self.presentation.generators,
                (m.conjugated_by(h) for m in self.matrices)),
        )


def is_bounded(rep: Representation) -> Tuple[bool, Optional[Word]]:
    """Bounded iff every generator and every product of two is elliptic,
    that is, has a locally integral trace (Serre, Trees, I.6.5, Cor. 2).

    An unbounded representation returns as its witness the first of these
    words in subset_keys order whose trace (A + D) / den has
    v(A + D) < v(den): the first of all increasing products, since
    subset_keys lists the longer ones after them.
    """
    v = rep.context.valuation
    for s, (a, _, _, d, den) in subset_products(rep._letters, rep.presentation.rank, 2):
        if v(a + d) < v(den):
            return False, Word(s)
    return True, None


# -- the fixed lattice ---------------------------------------------------


def fixed_lattice_certificate(rep: Representation) -> TreeVertex:
    """The vertex fixed by the whole image nearest the standard lattice
    (0; 0), certified under the action.

    Starting at (0; 0), each generator m in turn projects the vertex x
    onto its fixed subtree F(m): the midpoint of [x, m x].  A projection
    of a vertex fixed by the earlier generators lies on its geodesic to
    every vertex they and m all fix, and the image fixes some vertex, so
    each projection is still fixed by the earlier generators and the last
    is the fixed vertex nearest (0; 0).  That is the class of the saturation of
    the standard lattice under the image.  The vertex is verified by
    act(m, vertex) == vertex for every generator m: m conjugated by the
    class basis is locally integral, since m fixes the class of L when
    m L = p^j L, and det m = 1 forces j = 0.
    """
    bounded, _ = is_bounded(rep)
    if not bounded:
        raise NotBoundedError("unbounded representations fix no lattice class")
    return _fixed_lattice(rep)


def _fixed_lattice(rep: Representation) -> TreeVertex:
    """fixed_lattice_certificate's work, for a rep known to be bounded."""
    vertex = TreeVertex(0, 0, rep.context)
    for m in rep.matrices:
        vertex = _projection(m, vertex)
    if any(act(m, vertex) != vertex for m in rep.matrices):
        raise ValidationError("fixed-lattice certificate failed verification")
    return vertex


# -- reducibility ---------------------------------------------------------


def is_reducible_over_rationals(
    rep: Representation,
) -> Tuple[bool, Optional[Line]]:
    """Search for a rational projective line fixed by the whole image.

    Any invariant line is an eigenline of each generator, so only the
    rational eigenlines of the first non-central generator need testing,
    each as (A x + B y) y == (C x + D y) x for every generator.
    """
    head = next((m for m in rep.matrices if not m.is_central()), None)
    if head is None:
        return True, (1, 0)
    gens = [m.scaled for m in rep.matrices]
    for x, y in rational_eigenlines(head).lines:
        if all((a * x + b * y) * y == (c * x + d * y) * x for a, b, c, d, _ in gens):
            return True, (x, y)
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

    gens = [m.scaled for m in rep.matrices]
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
    """The eigen-character on an invariant line, as 2 * v(eigenvalue):
    the eigenvalue of (A, B, C, D, den) on (x, y) is (A x + B y) / (den x),
    or (C x + D y) / (den y) when x = 0."""
    x, y = line
    v = rep.context.valuation
    return tuple(
        (name, 2 * (v(a * x + b * y) - v(x) if x else v(c * x + d * y) - v(y))
         - 2 * v(den))
        for name, (a, b, c, d, den) in zip(rep.presentation.generators,
                                           (m.scaled for m in rep.matrices)))


def classify(rep: Representation) -> ClassificationReport:
    """Full classification with certificates; every field is exact."""
    bounded, witness = is_bounded(rep)
    fixed = _fixed_lattice(rep) if bounded else None
    reducible, line = is_reducible_over_rationals(rep)
    dim = algebra_dimension(rep)
    completion: Optional[bool] = None
    if not reducible and dim <= 2:
        # commutative non-split case: the image lives in a quadratic
        # field, which splits over the completion iff tr^2 - 4 is a
        # completion square for a non-central element
        head = next(m for m in rep.matrices if not m.is_central())
        completion = rep.context.is_square(head.trace() ** 2 - 4)
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
    """Trace-vector equality decides conjugacy in GL2(Q), not SL2(Q), for
    unbounded, rationally irreducible representations of one presentation."""
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


def _pair_counts(rank: int, max_total_len: int) -> Iterator[int]:
    """Counts of word pairs by |u| + |v| = 0, 1, ..., lazily; at rank 1,
    where they grow only linearly, the 2 L^2 + 2 L + 1 pairs as one term."""
    if rank == 1:
        yield 2 * max_total_len * (max_total_len + 1) + 1
        return
    spheres: List[int] = []
    for size in sphere_sizes(2 * rank, max_total_len):
        spheres.append(size)
        yield sum(a * b for a, b in zip(spheres, reversed(spheres)))


def commutator_trace_scan(
    rep: Representation, max_total_len: int = 8
) -> List[Tuple[Word, ValuedRational]]:
    """Traces of commutators [u, v] over all ball word pairs with
    |u| + |v| bounded.  One-sided: any trace other than 2 certifies
    irreducibility over the algebraic closure; all 2 proves nothing.

    Each trace comes from the Fricke identity
    tr[u, v] = tr(u)^2 + tr(v)^2 + tr(uv)^2 - tr(u) tr(v) tr(uv) - 2,
    in integers over the scaled images u = M/Du and v = N/Dv: one trace
    of a product per pair, over the common denominator Du^2 Dv^2, whose
    numerator is compared with 2 Du^2 Dv^2 before a Fraction is built.
    Pairs with u or v empty, v = u or v = u^-1 take the shared 2 with no
    arithmetic.  As [v, u] = [u, v]^-1 has the same trace, each unordered
    pair is computed once and its value read back for the mirrored pair.
    """
    if max_total_len < 2:
        raise ValidationError("scan needs max_total_len >= 2")
    rank = rep.presentation.rank
    check_size("commutator scan", "pairs", DEFAULT_WORD_CAP,
               _pair_counts(rank, max_total_len))
    table = rep._letters
    # ends[k]: the rows with |u| <= k, a prefix as rows are shortlex
    ends = [ball_size(rank, k) for k in range(max_total_len + 1)]

    def step(state, x):  # images for |u| < L: a row |u| = L pairs only with the empty word
        u, image = state
        return u + (x,), scaled_mul(image, table[x]) if len(u) < max_total_len - 1 else None

    rows = [state for level in ball_levels(rank, max_total_len, ((), IDENTITY), step)
            for state, _ in level]
    words = [u for u, _ in rows]
    images = [(a, b, c, d, a + d, (a + d) ** 2, den * den)
              for _, (a, b, c, d, den) in rows[:ends[max_total_len - 1]]]
    invs = [tuple(map(neg, reversed(u))) for u in words]
    ctx = rep.context
    two = ValuedRational(2, ctx)
    conj = [_trusted_word(u + u_inv) for u, u_inv in zip(words, invs)]  # [u, 1], [1, u]
    out: List[Tuple[Word, ValuedRational]] = [(w, two) for w in conj]
    traces = [[two] * len(words)]  # traces[i][j]: tr[rows i, rows j], 2|u_i| <= L
    for i in range(1, ends[max_total_len - 1]):  # the rows 0 < |u| < L
        u, u_inv = words[i], invs[i]
        n = ends[max_total_len - len(u)]
        mine = [row[i] for row in traces[:n]]  # the mirrored pairs, j < i
        if i < n:  # 2|u| <= L: u also pairs with itself and later rows
            a, b, c, d, tu, tu2, du2 = images[i]
            for v, (e, f, g, h, tv, tv2, dv2) in zip(words[i:n], images[i:n]):
                if v == u or v == u_inv:
                    mine.append(two)
                    continue
                tuv = a * e + b * g + c * f + d * h
                den = du2 * dv2
                num = tu2 * dv2 + tv2 * du2 + tuv * (tuv - tu * tv) - 2 * den
                mine.append(two if num == 2 * den
                            else ValuedRational(Fraction(num, den), ctx))
            traces.append(mine)
        out.append((conj[i], two))
        out += zip(map(_trusted_word, [u + v + u_inv + v_inv for v, v_inv
                                       in zip(words[1:n], invs[1:n])]), mine[1:])
    return out + [(w, two) for w in conj[ends[max_total_len - 1]:]]  # |u| = L
