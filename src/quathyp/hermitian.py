"""Hermitian forms over a quaternion algebra, as diagonal data.

A Hermitian form (for the standard involution) diagonalizes with central
entries, so a form is stored as its algebra plus a tuple of nonzero
field coefficients.  Its isometry class is carried entirely by the
4n-dimensional trace form over the base field.  At the finite places its
local data has a closed form, which the CLI's ``invariants`` reports;
only the isometry decision still builds and compares trace forms.
Isotropy is read off the algebra and the signs at its ramified real
places (local-global principle).
"""

from __future__ import annotations

from .algebras import (
    QuaternionAlgebra,
    algebras_isomorphic,
    is_division,
    ramified_real_places,
)
from .errors import (
    AlgebraMismatchError,
    DimensionMismatchError,
    FieldMismatchError,
    NotRamifiedAtPlaceError,
    PlaceKindError,
)
from .fields import Field, FieldElement, Place, real_signature
from .quadratic import LocalQuadInvariants, QuadraticForm, forms_isometric
from .records import Record, set_field
from .symbols import hilbert_symbol


class HermitianForm(Record):
    """Diagonal Hermitian form <a_1, ..., a_n> over its algebra; the
    entries are central (field) elements."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra: QuaternionAlgebra, coeffs: tuple[FieldElement, ...]):
        if not coeffs:
            raise ValueError("a Hermitian form needs at least one coefficient")
        for i, c in enumerate(coeffs):
            if not isinstance(c, FieldElement) or c.field != algebra.field:
                raise FieldMismatchError(f"coefficient {i} is not central for {algebra}")
            if not c:
                raise ValueError(f"coefficient {i} is zero")
        set_field(self, "algebra", algebra)
        set_field(self, "coeffs", coeffs)

    @property
    def field(self) -> Field:
        return self.algebra.field

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def scaled(self, factor: FieldElement) -> "HermitianForm":
        return HermitianForm(self.algebra, tuple(factor * c for c in self.coeffs))

    def __str__(self) -> str:
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"<{inner}> over {self.algebra}"


def hermitian_form(algebra: QuaternionAlgebra, *entries) -> HermitianForm:
    field = algebra.field
    coeffs = tuple(
        e if isinstance(e, FieldElement) else field.element(e) for e in entries
    )
    return HermitianForm(algebra, coeffs)


def trace_form(h: HermitianForm) -> QuadraticForm:
    """The 4n-dimensional trace form: each entry a_i contributes the
    scaled norm-form block (a_i, -a*a_i, -b*a_i, a*b*a_i)."""
    a, b = h.algebra.a, h.algebra.b
    coeffs: list[FieldElement] = []
    for c in h.coeffs:
        coeffs.extend((c, -a * c, -b * c, a * b * c))
    return QuadraticForm(h.field, tuple(coeffs))


def trace_invariants_closed(
    m: int, D: QuaternionAlgebra, v: Place
) -> LocalQuadInvariants:
    """Local invariants of the trace form of *any* m-dimensional
    Hermitian form over D at a finite place, in closed form.

    dim = 4m, determinant class trivial, Hasse invariant
    ((a,b)_v (-1,-1)_v)^m -- independent of the diagonal entries, which
    is what makes finite places useless for telling Hermitian forms of
    one dimension apart.  The CLI's ``invariants`` reads this at the
    support places of a, b and the entries, and builds no trace form.
    """
    if not v.is_finite:
        raise PlaceKindError(f"closed-form invariants are for finite places, got {v}")
    if m < 1:
        raise ValueError("dimension must be positive")
    minus_one = D.field.element(-1)
    sym = hilbert_symbol(D.a, D.b, v) * hilbert_symbol(minus_one, minus_one, v)
    return LocalQuadInvariants(
        dim=4 * m,
        det_class=D.field.one,
        hasse=sym if m % 2 else 1,
        signature=None,
    )


def hermitian_isometric(h1: HermitianForm, h2: HermitianForm) -> bool:
    """Isometry of Hermitian forms over one algebra class.

    Requires isomorphic algebras and equal dimensions, then delegates to
    the trace forms, which determine the Hermitian isometry class.
    """
    if h1.field != h2.field or not algebras_isomorphic(h1.algebra, h2.algebra):
        raise AlgebraMismatchError(
            "Hermitian isometry needs isomorphic coefficient algebras"
        )
    if h1.dim != h2.dim:
        raise DimensionMismatchError(
            f"cannot compare Hermitian forms of dimensions {h1.dim} and {h2.dim}"
        )
    return forms_isometric(trace_form(h1), trace_form(h2))


def signature_at_ramified(h: HermitianForm, v: Place) -> tuple[int, int]:
    """Signature (positives, negatives) of h at a real place where the
    algebra ramifies.

    Only defined there: at such a place the completed algebra is
    Hamilton's quaternions and the diagonal entries' signs are the
    signature of a genuine definite/indefinite quaternionic form.
    """
    if not v.is_real:
        raise PlaceKindError(f"signature requires a real place, got {v}")
    if v not in ramified_real_places(h.algebra):
        raise NotRamifiedAtPlaceError(
            f"{h.algebra} is split at {v}; no signature is defined there"
        )
    return real_signature(h.coeffs, v)


def hermitian_isotropic_global(h: HermitianForm) -> bool:
    """Whether h represents 0 nontrivially over the algebra.

    By the local-global principle: <a> represents 0 exactly when the
    algebra is split.  From dim 2 on, every place where the algebra is
    split, and every finite place, carries an isotropic form, so h is
    isotropic exactly when it is indefinite at each real place where the
    algebra ramifies (Scharlau, *Quadratic and Hermitian Forms*, Ch. 10).
    """
    if h.dim == 1:
        return not is_division(h.algebra)
    return all(0 not in real_signature(h.coeffs, v) for v in ramified_real_places(h.algebra))
