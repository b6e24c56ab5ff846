"""Totally geodesic subspace constructions and embedding decisions.

Three constructions cut subspaces out of a diagonal Hermitian form:
picking a subset of coefficients (:func:`subform`), restricting scalars
to the center (:func:`restriction_real`), and restricting to a quadratic
subfield of the algebra (:func:`restriction_complex`).  Going the other
way, restrictions extend back to Hermitian forms over the algebra, and
:func:`embeds_real` / :func:`embeds_complex` decide whether a candidate
subspace datum actually occurs inside a given ambient class, returning a
verdict with the isometric extension as witness.  :func:`surface_witness`
produces a ternary form carrying a hyperbolic surface for any admissible
triple.
"""

from __future__ import annotations

from .algebras import QuaternionAlgebra, subfield_embeds
from .commensurability import (
    AdmissibleTriple,
    OrbifoldClassDescriptor,
    _hyperbolic_coeffs,
    _v0_root,
    canonical_hermitian,
    is_admissible,
    triple_of,
)
from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    PreconditionError,
    SquareArgumentError,
    SubfieldEmbeddingError,
)
from .fields import FieldElement, is_global_square, sign_at_real_place
from .hermitian import HermitianForm, hermitian_isometric
from .quadratic import QuadraticForm
from .records import Record, set_field


def subform(h: HermitianForm, indices) -> HermitianForm:
    """The Hermitian form on a subset of the coordinate axes.

    Field and algebra of definition are unchanged.  The subset must be
    nonempty and proper: the empty form is not a form, and the full
    index set is not a subspace construction.
    """
    picked = sorted(set(indices))
    if not picked:
        raise ValueError("index set is empty")
    if any(i < 0 or i >= h.dim for i in picked):
        raise ValueError(f"indices out of range for a form of dimension {h.dim}")
    if len(picked) == h.dim:
        raise ValueError("index set selects the whole form, not a subspace")
    return HermitianForm(h.algebra, tuple(h.coeffs[i] for i in picked))


def restriction_real(h: HermitianForm) -> QuadraticForm:
    """Restrict scalars to the center: the quadratic form over the base
    field with exactly h's coefficients."""
    return QuadraticForm(h.field, h.coeffs)


class ComplexRestrictionData(Record):
    """A Hermitian form over the quadratic subfield k(sqrt(c)) of a
    quaternion algebra, recorded as the subfield generator together with
    the (base-field) diagonal coefficients."""

    __slots__ = ("c", "coeffs")

    def __init__(self, c: FieldElement, coeffs: tuple[FieldElement, ...]):
        if not c:
            raise PreconditionError("subfield generator must be nonzero")
        if is_global_square(c):
            raise SquareArgumentError(f"{c} is a square; k(sqrt(c)) would not be quadratic")
        if not coeffs:
            raise ValueError("coefficient list is empty")
        for x in coeffs:
            if x.field != c.field:
                raise FieldMismatchError("coefficients and generator share a field")
            if not x:
                raise ValueError("coefficients must be nonzero")
        set_field(self, "c", c)
        set_field(self, "coeffs", coeffs)

    @property
    def field(self):
        return self.c.field

    @property
    def dim(self) -> int:
        return len(self.coeffs)


def restriction_complex(h: HermitianForm, c: FieldElement) -> ComplexRestrictionData:
    """Restrict h to the quadratic subfield k(sqrt(c)) of its algebra.

    Only defined when k(sqrt(c)) embeds in the algebra; on diagonal
    forms the restricted form has the same diagonal coefficients.
    """
    if not subfield_embeds(h.algebra, c):
        raise SubfieldEmbeddingError(
            f"k(sqrt({c})) does not embed in {h.algebra}"
        )
    return ComplexRestrictionData(c, h.coeffs)


def extend_real(q: QuadraticForm, D: QuaternionAlgebra) -> HermitianForm:
    """The Hermitian form over D with q's coefficients.

    Restricting the extension back to the center recovers q, and the
    trace form of the extension is the product of the algebra's norm
    form with q.
    """
    if q.field != D.field:
        raise FieldMismatchError(
            f"form over {q.field} cannot extend over an algebra with center {D.field}"
        )
    return HermitianForm(D, q.coeffs)


def extend_complex(data: ComplexRestrictionData, D: QuaternionAlgebra) -> HermitianForm:
    """The Hermitian form over D extending a quadratic-subfield form.

    On diagonal forms the induced pairing keeps the same diagonal
    entries, so at the invariant level the extension is coefficient
    reuse; signatures at the real places are preserved.
    """
    if not subfield_embeds(D, data.c):
        raise SubfieldEmbeddingError(
            f"k(sqrt({data.c})) does not embed in {D}"
        )
    return HermitianForm(D, data.coeffs)


class EmbeddingVerdict(Record):
    """Outcome of an embedding decision.  A positive verdict always
    carries the ambient-isometric extension as its witness; a negative
    one names the condition that failed."""

    __slots__ = ("embeds", "witness", "failed_condition")

    def __init__(
        self, embeds: bool, witness: HermitianForm | None = None, failed_condition: str | None = None
    ):
        if embeds and witness is None:
            raise ValueError("positive verdicts must carry a witness")
        if not embeds and not failed_condition:
            raise ValueError("negative verdicts must name the failed condition")
        set_field(self, "embeds", embeds)
        set_field(self, "witness", witness)
        set_field(self, "failed_condition", failed_condition)


def embeds_real(q: QuadraticForm, ambient: OrbifoldClassDescriptor) -> EmbeddingVerdict:
    """Decide whether the real hyperbolic class of q embeds totally
    geodesically in the ambient quaternionic class.

    The quadratic form must live over the ambient's field, have
    dimension between 2 and the ambient dimension, and be hyperbolic at
    the real places: signature (q.dim - 1, 1) at the distinguished place
    and definite at the others, of either sign, like the ambient.  A form
    negative definite away from v0 is scaled by whichever of +-sqrt(d)
    is positive at v0, which keeps its class.  It is then padded with +1
    entries up to the ambient dimension and extended over the algebra,
    scaled the same way where the ambient form is negative definite away
    from v0, and compared with the ambient form; a positive verdict
    returns the extension as witness.
    """
    t = triple_of(ambient)
    if q.field != t.field:
        raise FieldMismatchError(
            f"form over {q.field} cannot embed in an ambient over {t.field}"
        )
    n = ambient.form.dim
    if not 2 <= q.dim <= n:
        raise DimensionMismatchError(
            f"form dimension {q.dim} not between 2 and ambient dimension {n}"
        )
    coeffs = _hyperbolic_coeffs(q.coeffs, t)
    return _extension_verdict(coeffs + (t.field.one,) * (n - q.dim), t, ambient.form)


def embeds_complex(
    data: ComplexRestrictionData, ambient: OrbifoldClassDescriptor
) -> EmbeddingVerdict:
    """Decide whether the complex hyperbolic class of the restriction
    data embeds totally geodesically in the ambient quaternionic class.

    The data must match the ambient's field and dimension and be
    hyperbolic at the real places: signature (n-1, 1) at the
    distinguished place and definite at the others, of either sign,
    scaled as in :func:`embeds_real`.  The decisive test is whether the
    quadratic subfield embeds in the ambient algebra: if not, the
    verdict is negative with that as the failed condition; if so, the
    extension is checked against the ambient form as in
    :func:`embeds_real`.
    """
    t = triple_of(ambient)
    if data.field != t.field:
        raise FieldMismatchError(
            f"data over {data.field} cannot embed in an ambient over {t.field}"
        )
    n = ambient.form.dim
    if data.dim != n:
        raise DimensionMismatchError(
            f"data dimension {data.dim} does not match ambient dimension {n}"
        )
    coeffs = _hyperbolic_coeffs(data.coeffs, t)
    if not subfield_embeds(t.algebra, data.c):
        return EmbeddingVerdict(False, failed_condition="subfield-does-not-embed")
    return _extension_verdict(coeffs, t, ambient.form)  # extend_complex; subfield tested above


def _extension_verdict(coeffs, t: AdmissibleTriple, h: HermitianForm) -> EmbeddingVerdict:
    # The candidate is positive definite away from v0, the ambient h may
    # be negative definite at the other real place w (triple_of accepts
    # both).  Scaling by the root, positive at v0 and negative at w,
    # keeps the class.
    for w in t.field.real_places():
        if w != t.v0 and sign_at_real_place(h.coeffs[0], w) < 0:
            root = _v0_root(t)
            coeffs = tuple(root * c for c in coeffs)
    candidate = HermitianForm(t.algebra, coeffs)
    if hermitian_isometric(candidate, h):
        return EmbeddingVerdict(True, witness=candidate)
    return EmbeddingVerdict(False, failed_condition="extension-not-isometric")


def surface_witness(t: AdmissibleTriple) -> QuadraticForm:
    """A ternary quadratic form <1, 1, lam> carrying a closed real
    hyperbolic surface inside the triple's class.

    It has signature (2, 1) at the distinguished place and is globally
    anisotropic, which makes the surface closed.  Over Q, lam = -3: 3 is
    not a sum of two rational squares.  Over Q(sqrt(d)), lam is minus
    whichever of +-sqrt(d) is positive at the distinguished place: the
    form is then definite at the other real place, hence anisotropic.
    The result is verified to embed in the two-dimensional canonical
    ambient before being returned.
    """
    if not is_admissible(t):
        raise PreconditionError(f"{t} is not admissible")
    field = t.field
    lam = field.element(-3) if field.is_rational else -_v0_root(t)
    q = QuadraticForm(field, (field.one, field.one, lam))
    verdict = embeds_real(q, OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 2)))
    if not verdict.embeds:  # pragma: no cover
        raise RuntimeError(f"witness {q} unexpectedly fails to embed: {verdict.failed_condition}")
    return q
