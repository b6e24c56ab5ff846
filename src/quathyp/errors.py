"""Exception types shared across the package."""


class QuathypError(Exception):
    """Base class for all library-specific errors."""


class FieldMismatchError(QuathypError):
    """Operands are defined over different base fields."""


class AlgebraMismatchError(QuathypError):
    """Operands are defined over incompatible quaternion algebras."""


class SquareArgumentError(QuathypError):
    """An argument required to be a nonsquare is a square in the field."""


class DimensionMismatchError(QuathypError):
    """Forms or descriptors have incompatible dimensions."""


class UnsupportedRankError(QuathypError):
    """A rank/dimension outside the supported range was requested."""


class NotQuaternionicHyperbolicError(QuathypError):
    """A descriptor fails one of the conditions for quaternionic
    hyperbolic type; the message names the failing condition."""


class SubfieldEmbeddingError(QuathypError):
    """The requested quadratic extension does not embed in the algebra."""


class PlaceKindError(QuathypError):
    """An operation received a place of the wrong kind (e.g. a finite
    place where a real embedding is required)."""


class NotRamifiedAtPlaceError(QuathypError):
    """A signature was requested at a real place where the algebra is
    locally split (no Hamilton quaternions there, so no signature)."""


class SignaturePreconditionError(QuathypError):
    """A form fails the signature pattern an embedding operation
    requires; the message names the offending real place."""


class PreconditionError(QuathypError, ValueError):
    """An argument lies outside what an operation accepts (a rank out of
    range, an inadmissible triple); also a ValueError, as before."""


class FactoringBudgetError(QuathypError):
    """An integer could not be split within the factoring step budget
    (`numtheory.FACTOR_STEP_BUDGET`): it has two or more large prime
    factors."""


class DescriptorError(QuathypError):
    """A JSON descriptor is malformed.

    Carries a JSON pointer to the offending field so command-line users
    can locate the problem.
    """

    def __init__(self, message: str, pointer: str = ""):
        super().__init__(message)
        self.pointer = pointer

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        base = super().__str__()
        return f"{base} (at {self.pointer or '/'})"
