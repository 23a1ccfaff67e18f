"""Exact p-adic tree geometry and trace coordinates for SL(2) representations."""

from .errors import (
    CapExceededError,
    ContextMismatchError,
    DeterminantNotOneError,
    NotBoundedError,
    NotDehnPresentationError,
    NotEllipticError,
    NotHyperbolicError,
    PreconditionNotMetError,
    PrimeNotPrimeError,
    SingularMatrixError,
    Sl2TreesError,
    UnknownGeneratorError,
    ValidationError,
    WordSyntaxError,
    ZeroInputError,
)
from .field import (
    INFINITY,
    PrimeContext,
    ValuedRational,
    is_prime,
)
from .matrices import SL2Matrix
from .words import (
    Presentation,
    Word,
    ball,
    ball_size,
    cyclic_reduce,
    dehn_reduce,
    evaluate,
    free_reduce,
    parse_word,
    word_to_text,
)
from .tree import (
    TreeBall,
    TreeEdge,
    TreeVertex,
    act,
    canonical_vertex,
    distance,
    edge_fixed_by,
    geodesic,
    neighbors,
    parse_vertex,
    tree_ball,
)
from .tree import ball_vertex_count
from .isometry import (
    AxisSegment,
    EigenLines,
    axis_segment,
    fixed_vertex,
    rational_eigenlines,
    translation_length,
)
from .traces import (
    FundamentalTraceVector,
    TracePolynomial,
    fundamental_traces,
    subset_keys,
    trace_polynomial,
    variable_name,
)
from .classify import (
    ClassificationReport,
    Representation,
    algebra_dimension,
    classify,
    commutator_trace_scan,
    conjugacy_test,
    fixed_lattice_certificate,
    is_bounded,
    is_reducible_over_rationals,
)
from .spectrum import (
    LengthSpectrum,
    length_of,
    spectrum,
    spectrum_rows,
    to_tsv,
    write_tsv,
)
from .repfile import (
    load_representation,
    parse_representation,
    representation_to_data,
    save_representation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
