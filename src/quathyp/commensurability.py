"""Admissible triples and commensurability decisions.

A triple (field, distinguished real place, quaternion algebra ramified
at every real place) pins down a commensurability class of finite-volume
quaternionic hyperbolic orbifolds; two triples give commensurable
classes exactly when a field automorphism matches them up.  This module
provides that parametrization: extraction of the triple from a Hermitian
descriptor, canonical forms, equivalence, the commensurability decision
for general type-C_n classes (split and nonsplit), and the compactness
criterion.
"""

from __future__ import annotations

from .algebras import (
    QuaternionAlgebra,
    is_division,
    ramification_set,
    ramified_real_places,
)
from .errors import (
    DimensionMismatchError,
    NotQuaternionicHyperbolicError,
    PreconditionError,
    SignaturePreconditionError,
    UnsupportedRankError,
)
from .fields import Field, FieldElement, Place, conjugate_place, real_signature
from .hermitian import HermitianForm
from .records import Record, set_field

IDENTITY = "id"
CONJUGATION = "conj"

#: largest m for which `canonical_hermitian` builds a form: its cost is
#: linear in m, and an unbounded m exhausts memory
MAX_CANONICAL_M = 1024


def field_automorphisms(field: Field) -> tuple[str, ...]:
    return (IDENTITY,) if field.is_rational else (IDENTITY, CONJUGATION)


def place_image(tau: str, v: Place) -> Place:
    return v if tau == IDENTITY else conjugate_place(v)


def _match_reason(
    D1: QuaternionAlgebra, marks1: list, D2: QuaternionAlgebra, marks2: list, misplaced: str
) -> str | None:
    """Why no field automorphism tau makes D1 isomorphic to tau(D2) and
    carries the marks ((place, label) pairs) of D2 onto those of D1, or
    None when one does; ``misplaced`` when some tau matches the algebras
    but none the marks.

    Ram(tau D) = tau(Ram D) (Maclachlan-Reid, section 2.7), so each
    ramification set is built once and tau acts on its places, not on
    the algebra's parameters."""
    if D1.field != D2.field:
        return "fields differ"
    ram1, ram2 = ramification_set(D1), ramification_set(D2)
    reason = "ramification sets differ"
    for tau in field_automorphisms(D1.field):
        if ram1 == {place_image(tau, v) for v in ram2}:
            if set(marks1) == {(place_image(tau, v), mark) for v, mark in marks2}:
                return None
            reason = misplaced
    return reason


class AdmissibleTriple(Record):
    """(field, distinguished real place, algebra); admissibility itself
    (all real places ramified) is decided by :func:`is_admissible`."""

    __slots__ = ("field", "v0", "algebra")

    def __init__(self, field: Field, v0: Place, algebra: QuaternionAlgebra):
        if not v0.is_real or v0.field != field:
            raise ValueError(f"v0 must be a real place of {field}")
        if algebra.field != field:
            raise ValueError("algebra and triple must share the field")
        set_field(self, "field", field)
        set_field(self, "v0", v0)
        set_field(self, "algebra", algebra)

    def __str__(self) -> str:
        return f"({self.field}, {self.v0}, {self.algebra})"


def is_admissible(t: AdmissibleTriple) -> bool:
    """Totally real field (always, here) and algebra ramified at every
    real place."""
    return ramified_real_places(t.algebra) == t.field.real_places()


def inequivalence_reason(
    t1: AdmissibleTriple, t2: AdmissibleTriple, misplaced: str = "ramification sets differ"
) -> str | None:
    """Why no field isomorphism carries t2 to t1, or None when one does:
    it must make the algebras isomorphic and send t2.v0 to t1.v0.  When
    every one that matches the algebras moves t2.v0 off t1.v0 the reason
    is ``misplaced`` (for triples, whose v0 is given, the ramification
    sets differ under the one automorphism sending t2.v0 to t1.v0).
    """
    return _match_reason(t1.algebra, [(t1.v0, "v0")], t2.algebra, [(t2.v0, "v0")], misplaced)


def triples_equivalent(t1: AdmissibleTriple, t2: AdmissibleTriple) -> bool:
    """Whether a field isomorphism carries t2 to t1 (see
    :func:`inequivalence_reason`)."""
    return inequivalence_reason(t1, t2) is None


def canonical_hermitian(t: AdmissibleTriple, m: int) -> HermitianForm:
    """The canonical (m+1)-dimensional form <1, ..., 1, lam> for the
    triple: lam = -1 over Q and -sqrt(d) or +sqrt(d) over Q(sqrt(d)),
    negative exactly at the distinguished place (:func:`_v0_root`).
    """
    if not 2 <= m <= MAX_CANONICAL_M:
        raise PreconditionError(
            f"the canonical form needs 2 <= m <= {MAX_CANONICAL_M}, got m = {m}"
        )
    if not is_admissible(t):
        raise PreconditionError(f"{t} is not admissible")
    return HermitianForm(t.algebra, (t.field.one,) * m + (-_v0_root(t),))


def _v0_root(t: AdmissibleTriple) -> FieldElement:
    """1 over Q; over Q(sqrt(d)) whichever of +-sqrt(d) is positive at
    the distinguished place, and so negative at the other real place."""
    if t.field.is_rational:
        return t.field.one
    return t.field.sqrt_d if t.v0.embedding == 0 else -t.field.sqrt_d


def _hyperbolic_coeffs(coeffs, t: AdmissibleTriple) -> tuple[FieldElement, ...]:
    """The coefficients with signature (n-1, 1) at the distinguished
    place and positive definite at the others.  Coefficients negative
    definite away from v0 are first scaled by :func:`_v0_root`, which
    keeps the class; any other signature raises."""
    n = len(coeffs)
    for v in t.field.real_places():
        got = real_signature(coeffs, v)
        if v != t.v0 and got == (0, n):
            root = _v0_root(t)
            coeffs, got = tuple(root * c for c in coeffs), (n, 0)
        expected = (n - 1, 1) if v == t.v0 else (n, 0)
        if got != expected:
            raise SignaturePreconditionError(f"signature at {v} is {got}, required {expected}")
    return coeffs


class OrbifoldClassDescriptor(Record):
    """A commensurability-class descriptor: split type carries (field, n),
    nonsplit type carries a Hermitian form over a division algebra."""

    __slots__ = ("kind", "field", "rank", "form", "_triple")

    def __init__(
        self,
        kind: str,
        field: Field | None = None,
        rank: int | None = None,
        form: HermitianForm | None = None,
    ):
        set_field(self, "kind", kind)
        set_field(self, "field", field)
        set_field(self, "rank", rank)
        set_field(self, "form", form)
        set_field(self, "_triple", None)

    @classmethod
    def split(cls, field: Field, n: int) -> "OrbifoldClassDescriptor":
        if n < 1:
            raise ValueError("rank must be positive")
        return cls(kind="split", field=field, rank=n)

    @classmethod
    def nonsplit(cls, form: HermitianForm) -> "OrbifoldClassDescriptor":
        if not is_division(form.algebra):
            raise NotQuaternionicHyperbolicError(
                "nonsplit descriptors need a division algebra"
            )
        return cls(kind="nonsplit", field=form.field, form=form)

    @property
    def n(self) -> int:
        return self.rank if self.kind == "split" else self.form.dim


def triple_of(desc: OrbifoldClassDescriptor) -> AdmissibleTriple:
    """Extract (field, v0, algebra) from a nonsplit descriptor.

    Checks the quaternionic-hyperbolic conditions and reports the first
    failure: the algebra must ramify at every real place, the form must
    be indefinite at exactly one real place, and there its signature
    must be (n-1, 1).  The distinguished place is the indefinite one.
    The triple is built once and kept on the descriptor (``_triple``).
    """
    if desc._triple is not None:
        return desc._triple
    if desc.kind != "nonsplit":
        raise NotQuaternionicHyperbolicError("split descriptors carry no triple")
    h = desc.form
    field, D = h.field, h.algebra
    ram = ramified_real_places(D)
    for v in field.real_places():
        if v not in ram:
            raise NotQuaternionicHyperbolicError(
                f"algebra does not ramify at the real place {v}"
            )
    sigs = ((v, real_signature(h.coeffs, v)) for v in ram)
    mixed = [(v, sig) for v, sig in sigs if 0 not in sig]
    if not mixed:
        raise NotQuaternionicHyperbolicError(
            "form is definite at every real place; no distinguished place"
        )
    if len(mixed) > 1:
        raise NotQuaternionicHyperbolicError(
            "form is indefinite at more than one real place"
        )
    v0, sig = mixed[0]
    if sig != (h.dim - 1, 1):
        raise NotQuaternionicHyperbolicError(
            f"signature at {v0} is {sig}, not ({h.dim - 1}, 1)"
        )
    set_field(desc, "_triple", AdmissibleTriple(field, v0, D))
    return desc._triple


def _quaternionic_reason(d1: OrbifoldClassDescriptor, d2: OrbifoldClassDescriptor) -> str | None:
    t1, t2 = triple_of(d1), triple_of(d2)
    if d1.form.dim != d2.form.dim:
        raise DimensionMismatchError(
            f"ambient dimensions differ: {d1.form.dim - 1} vs {d2.form.dim - 1}"
        )
    # the signatures pick each distinguished place
    return inequivalence_reason(t1, t2, "signatures differ at a real place")


def quaternionic_commensurable(d1: OrbifoldClassDescriptor, d2: OrbifoldClassDescriptor) -> bool:
    """Commensurability of two quaternionic hyperbolic classes: equal
    dimension and equivalent triples."""
    return _quaternionic_reason(d1, d2) is None


def incommensurability_reason(
    d1: OrbifoldClassDescriptor, d2: OrbifoldClassDescriptor
) -> str | None:
    """Why two classes are not commensurable, or None when they are: the
    quaternionic decision for two nonsplit classes, the type C_n one
    when either is split."""
    if d1.kind == d2.kind == "nonsplit":
        return _quaternionic_reason(d1, d2)
    return _cn_reason(d1, d2)


def _cn_reason(d1: OrbifoldClassDescriptor, d2: OrbifoldClassDescriptor) -> str | None:
    if d1.n < 3 or d2.n < 3:
        raise UnsupportedRankError("type C_n decisions require n >= 3")
    if d1.kind != d2.kind:
        return "one class is split, the other is not"
    if d1.n != d2.n:
        return "ranks differ"
    if d1.kind == "split":
        return None if d1.field == d2.field else "fields differ"
    # a similarity scaling can flip all signs at a real place
    # independently of the others, so only the unordered pair matters
    marks1, marks2 = (
        [(v, tuple(sorted(real_signature(h.coeffs, v)))) for v in ramified_real_places(h.algebra)]
        for h in (d1.form, d2.form)
    )
    return _match_reason(
        d1.form.algebra, marks1, d2.form.algebra, marks2, "signatures differ at a real place"
    )


def general_cn_commensurable(d1: OrbifoldClassDescriptor, d2: OrbifoldClassDescriptor) -> bool:
    """Commensurability decision for type C_n classes, n >= 3.

    Split/split: same field and same rank.  Split/nonsplit: never.
    Nonsplit/nonsplit: same rank, isomorphic fields, and some field
    automorphism making the algebras isomorphic while matching, place by
    place, the unordered signature pairs at the real places where the
    algebras ramify (:func:`_match_reason`).
    """
    return _cn_reason(d1, d2) is None


def is_compact(t: AdmissibleTriple) -> bool:
    """Whether the orbifolds of the triple's class are compact.

    Compactness is equivalent to anisotropy of the defining forms.  Over
    Q the single real place is indefinite and the (large) trace form is
    isotropic everywhere locally, hence globally; over a quadratic field
    the second real place carries a definite form, which blocks global
    isotropy.  So the decision reduces to the field.
    """
    if not is_admissible(t):
        raise PreconditionError(f"{t} is not admissible")
    return not t.field.is_rational
