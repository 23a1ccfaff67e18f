"""Exception types shared across the package.

Everything raised on purpose derives from Sl2TreesError so the command
line driver can catch one base class and map it to a nonzero exit code.
"""


class Sl2TreesError(Exception):
    """Base class for all errors raised by this package."""


class PrimeNotPrimeError(Sl2TreesError):
    """The configured prime failed the primality check."""


class ContextMismatchError(Sl2TreesError):
    """Two values built over different primes were combined."""


class ZeroInputError(Sl2TreesError):
    """Zero was passed where a nonzero value is required."""


class DeterminantNotOneError(Sl2TreesError):
    """Matrix entries do not satisfy a*d - b*c = 1 exactly."""


class SingularMatrixError(Sl2TreesError):
    """A matrix with determinant zero cannot act on lattice classes."""


class WordSyntaxError(Sl2TreesError):
    """Word text failed to parse; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class UnknownGeneratorError(Sl2TreesError):
    """A word used a generator the presentation does not declare."""


class NotDehnPresentationError(Sl2TreesError):
    """Relator overlaps are too long for greedy half-relator reduction."""


class CapExceededError(Sl2TreesError):
    """A configured size cap (nodes, words) would be exceeded."""


class NotEllipticError(Sl2TreesError):
    """Fixed points exist only for elements with translation length 0."""


class NotHyperbolicError(Sl2TreesError):
    """Axes exist only for elements with positive translation length."""


class NotBoundedError(Sl2TreesError):
    """A fixed-lattice certificate requires a bounded representation."""


class PreconditionNotMetError(Sl2TreesError):
    """An operation was invoked outside its documented domain."""


class ValidationError(Sl2TreesError):
    """A representation file or in-memory representation is invalid."""
