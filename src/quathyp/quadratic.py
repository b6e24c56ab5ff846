"""Diagonal quadratic forms over Q and Q(sqrt(d)).

Forms are ordered tuples of nonzero field coefficients.  The module
computes the classifying local data (dimension, determinant square
class, Hasse invariant, real signatures), decides isometry by
local-global comparison, and decides isotropy locally and globally.

A Hilbert symbol depends only on the local square classes of its
arguments, so the Hasse invariant counts the coefficients' keys
(:func:`~quathyp.fields.local_square_class`) and evaluates
:func:`~quathyp.symbols.class_symbol` once per pair of classes, at every
place alike (a place has at most 16 classes, so at most 136 pairs).
Hilbert reciprocity lets `forms_isometric` skip one dyadic place (Serre,
*A Course in Arithmetic*, Ch. III-IV).
"""

from __future__ import annotations

import math
from collections import Counter

from .errors import FieldMismatchError, PlaceKindError
from .fields import (
    Field,
    FieldElement,
    Place,
    _require_same_field,
    _square_class,
    element_support_primes,
    is_global_square,
    is_local_square,
    real_signature,
)
from .records import Record, set_field
from .symbols import class_symbol, hilbert_symbol, symbol_support


class QuadraticForm(Record):
    """The diagonal form <a_1, ..., a_n> over its field."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: Field, coeffs: tuple[FieldElement, ...]):
        if not coeffs:
            raise ValueError("a quadratic form needs at least one coefficient")
        for i, c in enumerate(coeffs):
            if not isinstance(c, FieldElement) or c.field != field:
                raise FieldMismatchError(f"coefficient {i} is not over {field}")
            if not c:
                raise ValueError(f"coefficient {i} is zero")
        set_field(self, "field", field)
        set_field(self, "coeffs", coeffs)

    @property
    def dim(self) -> int:
        return len(self.coeffs)

    def det(self) -> FieldElement:
        out = self.field.one
        for c in self.coeffs:
            out = out * c
        return out

    def scaled(self, factor: FieldElement) -> "QuadraticForm":
        return QuadraticForm(self.field, tuple(factor * c for c in self.coeffs))

    def __str__(self) -> str:
        return "<" + ", ".join(str(c) for c in self.coeffs) + ">"


def diagonal_form(field: Field, *entries) -> QuadraticForm:
    """Convenience constructor coercing ints/Fractions to field elements."""
    coeffs = tuple(
        e if isinstance(e, FieldElement) else field.element(e) for e in entries
    )
    return QuadraticForm(field, coeffs)


def orthogonal_sum(q1: QuadraticForm, q2: QuadraticForm) -> QuadraticForm:
    if q1.field != q2.field:
        raise FieldMismatchError("cannot sum forms over different fields")
    return QuadraticForm(q1.field, q1.coeffs + q2.coeffs)


class LocalQuadInvariants(Record):
    """dim, det square class and Hasse invariant at one place (plus the
    signature when the place is real)."""

    __slots__ = ("dim", "det_class", "hasse", "signature")

    def __init__(
        self, dim: int, det_class: FieldElement, hasse: int, signature: tuple[int, int] | None = None
    ):
        set_field(self, "dim", dim)
        set_field(self, "det_class", det_class)
        set_field(self, "hasse", hasse)
        set_field(self, "signature", signature)


def _class_rep(x: FieldElement, primes) -> FieldElement:
    """x den^2 = n0 den + n1 den sqrt(d), divided by the largest square of
    the given primes that divides its coordinate gcd."""
    a, b = x.n0 * x.den, x.n1 * x.den
    g = s = math.gcd(a, b)
    for p in primes:
        while s % (p * p) == 0:
            s //= p * p
    return x.field.element(a * s // g, b * s // g)


def square_class_rep(x: FieldElement) -> FieldElement:
    """A reduced representative of x modulo nonzero squares.

    Over Q: the squarefree integer with x's sign.  Over Q(sqrt(d)): x
    den^2 with its coordinate gcd's square part divided out.  That part is
    read over 2 and x's support primes (`element_support_primes`), which
    is enough: an odd prime of the gcd divides den, or else n0 and n1 and
    so the norm's numerator.  Class equality goes through the exact square
    test on ratios, so this is a normalization, not a decision procedure.
    """
    if not x:
        raise ValueError("0 has no square class")
    return _class_rep(x, element_support_primes(x) | {2})


def same_square_class(x: FieldElement, y: FieldElement) -> bool:
    return is_global_square(x / y)


def signature_at(q: QuadraticForm, v: Place) -> tuple[int, int]:
    """Counts of positive and negative coefficient signs under v."""
    if not v.is_real:
        raise PlaceKindError(f"signature requires a real place, got {v}")
    return real_signature(q.coeffs, v)


def hasse_invariant(q: QuadraticForm, v: Place) -> int:
    """Product of the Hilbert symbols (a_i, a_j)_v over all pairs i < j.

    One symbol per pair of square classes: a class with n_c members gives
    its own symbol n_c(n_c-1)/2 times, and two classes give theirs
    n_c n_c' times.  A place of another field raises FieldMismatchError;
    the coefficients are nonzero and share the form's field, so their keys
    are read without further checks.
    """
    _require_same_field(q.coeffs[0], v)
    counts = list(Counter(_square_class(c, v) for c in q.coeffs).items())
    out = 1
    for i, (ka, na) in enumerate(counts):
        if na * (na - 1) // 2 % 2:
            out *= class_symbol(ka, ka, v)
        for kb, nb in counts[i + 1:]:
            if na * nb % 2:
                out *= class_symbol(ka, kb, v)
    return out


def local_invariants(q: QuadraticForm, v: Place) -> LocalQuadInvariants:
    sig = signature_at(q, v) if v.is_real else None
    # the support places' primes hold those of det's norm and denominators
    return LocalQuadInvariants(
        dim=q.dim,
        det_class=_class_rep(q.det(), {w.p for w in form_support(q) if w.is_finite}),
        hasse=hasse_invariant(q, v),
        signature=sig,
    )


def form_support(q: QuadraticForm) -> tuple[Place, ...]:
    """Places outside which all of q's local data is trivial: the real
    places plus the joint symbol support of the coefficients."""
    return symbol_support(*q.coeffs)


def forms_isometric(q1: QuadraticForm, q2: QuadraticForm) -> bool:
    """Exact isometry test over the common base field.

    Equal dimension, determinants in one square class, equal signatures
    at the real places, and equal Hasse invariants everywhere; outside
    the joint support both Hasse invariants are +1, so only the support
    places are compared.  One dyadic place (the first, when 2 splits) is
    never compared, by a theorem: equal signatures give equal invariants
    at the real places, and the invariants of each form multiply to +1
    over all places (Hilbert reciprocity), so agreement at every other
    place forces agreement there.
    """
    if q1.field != q2.field:
        raise FieldMismatchError("cannot compare forms over different fields")
    if q1.dim != q2.dim:
        return False
    if not same_square_class(q1.det(), q2.det()):
        return False
    places = sorted(set(form_support(q1)) | set(form_support(q2)), key=Place.sort_key)
    places.remove(next(v for v in places if v.is_dyadic))
    for v in places:
        if v.is_real:
            if signature_at(q1, v) != signature_at(q2, v):
                return False
        elif hasse_invariant(q1, v) != hasse_invariant(q2, v):
            return False
    return True


def isotropic_at(q: QuadraticForm, v: Place) -> bool:
    """Whether q represents 0 nontrivially over the completion at v."""
    if v.is_real:
        plus, minus = signature_at(q, v)
        return plus > 0 and minus > 0
    n = q.dim
    if n == 1:
        return False
    det = q.det()
    if n == 2:
        return is_local_square(-det, v)
    if n == 3:
        return hasse_invariant(q, v) == hilbert_symbol(
            q.field.element(-1), -det, v
        )
    if n == 4:
        if is_local_square(det, v):
            minus_one = q.field.element(-1)
            return hasse_invariant(q, v) == hilbert_symbol(minus_one, minus_one, v)
        return True
    return True  # dim >= 5: every form over a p-adic field is isotropic


def isotropic_global(q: QuadraticForm) -> bool:
    """Isotropy over the base field, by local-global comparison.

    Dimensions 3 and 4 are checked at every real place and every support
    place; a binary form cannot use that route -- <1, -u> is anisotropic
    exactly where u is a nonsquare, and a global nonsquare u can be a
    local square at every place of any fixed finite set (the places
    detecting it have density 1/2 but need not include the support), so
    dimension 2 gets the exact global square test instead.
    """
    n = q.dim
    if n == 1:
        return False
    if n == 2:
        return is_global_square(-q.det())
    for v in q.field.real_places():
        if not isotropic_at(q, v):
            return False
    if n >= 5:
        return True  # isotropic at every finite place automatically
    return all(isotropic_at(q, v) for v in form_support(q) if v.is_finite)
