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
    _check_hyperbolic_signatures,
    canonical_hermitian,
    is_admissible,
    triple_of,
)
from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    PreconditionError,
    SearchExhaustedError,
    SignaturePreconditionError,
    SquareArgumentError,
    SubfieldEmbeddingError,
)
from .fields import FieldElement, is_global_square, sign_at_real_place
from .hermitian import HermitianForm, hermitian_isometric
from .quadratic import QuadraticForm, isotropic_global
from .records import Record, set_field

#: largest coefficient multiplier tried by :func:`surface_witness`
LADDER_BOUND = 100


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
    dimension between 2 and the ambient dimension, and arrive hyperbolic
    at the real places: signature (d, 1) at the distinguished place,
    positive definite elsewhere.  It is then padded with +1 entries up
    to the ambient dimension and extended over the algebra.  Where the
    ambient form is negative definite at the other real place, the
    extension is scaled by +-sqrt(d), positive at the distinguished
    place, which keeps its class.  It is then compared with the ambient
    form; a positive verdict returns it as witness.
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
    _check_hyperbolic_signatures(q.coeffs, t, q.dim)
    return _extension_verdict(q.coeffs + (t.field.one,) * (n - q.dim), t, ambient.form)


def embeds_complex(
    data: ComplexRestrictionData, ambient: OrbifoldClassDescriptor
) -> EmbeddingVerdict:
    """Decide whether the complex hyperbolic class of the restriction
    data embeds totally geodesically in the ambient quaternionic class.

    The data must match the ambient's field and dimension and arrive
    hyperbolic at the real places: signature (n-1, 1) at the
    distinguished place, positive definite elsewhere.  The decisive test
    is whether the quadratic subfield embeds in the ambient algebra: if
    not, the verdict is negative with that as the failed condition; if
    so, the extension is checked against the ambient form as in
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
    _check_hyperbolic_signatures(data.coeffs, t, data.dim)
    if not subfield_embeds(t.algebra, data.c):
        return EmbeddingVerdict(False, failed_condition="subfield-does-not-embed")
    return _extension_verdict(data.coeffs, t, ambient.form)  # extend_complex; subfield tested above


def _extension_verdict(coeffs, t: AdmissibleTriple, h: HermitianForm) -> EmbeddingVerdict:
    # The candidate is positive definite away from v0, the ambient h may
    # be negative definite at the other real place w (triple_of accepts
    # both).  Scaling by lam, positive at v0 and negative at w, keeps the
    # class.
    for w in t.field.real_places():
        if w != t.v0 and sign_at_real_place(h.coeffs[0], w) < 0:
            lam = t.field.sqrt_d if t.v0.embedding == 0 else -t.field.sqrt_d
            coeffs = tuple(lam * c for c in coeffs)
    candidate = HermitianForm(t.algebra, coeffs)
    if hermitian_isometric(candidate, h):
        return EmbeddingVerdict(True, witness=candidate)
    return EmbeddingVerdict(False, failed_condition="extension-not-isometric")


def _witness_candidates(t: AdmissibleTriple, n: int):
    field = t.field
    if field.is_rational:
        yield field.element(-n)
        return
    s = field.sqrt_d
    yield from (-n * s, n * s, field.element(-n), field.element(n))


def surface_witness(t: AdmissibleTriple) -> QuadraticForm:
    """A ternary quadratic form <1, 1, lam> carrying a real hyperbolic
    surface inside the triple's class.

    lam walks a fixed deterministic ladder (multiples of sqrt(d) first
    over quadratic fields, then rational integers, alternating signs)
    until the form has signature (2, 1) at the distinguished place, is
    definite at every other real place, and is globally anisotropic —
    over Q the anisotropy is a real constraint (it makes the surface
    closed), over a quadratic field it comes for free from definiteness
    at the conjugate place.  The result is verified to embed in the
    two-dimensional canonical ambient before being returned.
    """
    if not is_admissible(t):
        raise PreconditionError(f"{t} is not admissible")
    field = t.field
    for n in range(1, LADDER_BOUND + 1):
        for lam in _witness_candidates(t, n):
            q = QuadraticForm(field, (field.one, field.one, lam))
            try:
                _check_hyperbolic_signatures(q.coeffs, t, 3)
            except SignaturePreconditionError:
                continue
            if isotropic_global(q):
                continue
            ambient = OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 2))
            verdict = embeds_real(q, ambient)
            if not verdict.embeds:  # pragma: no cover
                raise RuntimeError(
                    f"witness {q} unexpectedly fails to embed: "
                    f"{verdict.failed_condition}"
                )
            return q
    raise SearchExhaustedError(
        f"no surface witness found with ladder bound {LADDER_BOUND}"
    )
