"""Quaternion algebras over Q and Q(sqrt(d)) as invariant data.

An algebra is the symbol pair (a, b) over its field, with i^2 = a,
j^2 = b, ij = -ji.  Everything downstream only needs its norm form, its
ramification set (the places where the Hilbert symbol (a,b) is -1), and
membership of quadratic extensions among its maximal subfields.
"""

from __future__ import annotations

from .errors import FieldMismatchError, SquareArgumentError
from .fields import Field, FieldElement, Place, is_global_square, is_local_square
from .quadratic import QuadraticForm
from .records import Record, set_field
from .symbols import hilbert_symbol, symbol_support


class QuaternionAlgebra(Record):
    """The quaternion algebra with parameters a, b over its field."""

    __slots__ = ("field", "a", "b")

    def __init__(self, field: Field, a: FieldElement, b: FieldElement):
        for name, x in (("a", a), ("b", b)):
            if not isinstance(x, FieldElement) or x.field != field:
                raise FieldMismatchError(f"parameter {name} is not over {field}")
            if not x:
                raise ValueError(f"parameter {name} must be nonzero")
        set_field(self, "field", field)
        set_field(self, "a", a)
        set_field(self, "b", b)

    def __str__(self) -> str:
        return f"({self.a}, {self.b} / {self.field})"


def quaternion_algebra(field: Field, a, b) -> QuaternionAlgebra:
    """Constructor coercing ints/Fractions to field elements."""
    coerce = lambda x: x if isinstance(x, FieldElement) else field.element(x)
    return QuaternionAlgebra(field, coerce(a), coerce(b))


def norm_form(D: QuaternionAlgebra) -> QuadraticForm:
    """The reduced norm as a quadratic form: <1, -a, -b, ab>."""
    return QuadraticForm(
        D.field, (D.field.one, -D.a, -D.b, D.a * D.b)
    )


def ramification_set(D: QuaternionAlgebra) -> frozenset[Place]:
    """The set of places where D is a division algebra locally.

    Computed as the -1 locus of the Hilbert symbol (a,b) over the symbol
    support; reciprocity forces even cardinality.
    """
    return frozenset(
        v for v in symbol_support(D.a, D.b) if hilbert_symbol(D.a, D.b, v) == -1
    )


def ramified_real_places(D: QuaternionAlgebra) -> tuple[Place, ...]:
    """The real places where D ramifies, in the field's order.

    (a,b)_v = -1 at a real place exactly when a and b are both negative
    under v, so this reads signs and factors nothing.
    """
    return tuple(
        v for v in D.field.real_places() if hilbert_symbol(D.a, D.b, v) == -1
    )


def is_division(D: QuaternionAlgebra) -> bool:
    """Division algebra <=> ramified somewhere (else a 2x2 matrix algebra).

    The real ramified places are part of the ramification set and are
    read off signs, so an algebra ramified at a real place is decided
    without factoring its parameters.
    """
    return bool(ramified_real_places(D)) or bool(ramification_set(D))


def is_split(D: QuaternionAlgebra) -> bool:
    return not is_division(D)


def algebras_isomorphic(D1: QuaternionAlgebra, D2: QuaternionAlgebra) -> bool:
    """Isomorphism over the common field, via ramification sets.

    Two quaternion algebras over one number field are isomorphic exactly
    when they ramify at the same places, so the comparison needs no
    explicit isomorphism.  Isomorphism is reflexive: equal parameters
    decide it before any ramification set is built.
    """
    if D1.field != D2.field:
        raise FieldMismatchError(
            f"cannot compare algebras over {D1.field} and {D2.field}"
        )
    return D1 == D2 or ramification_set(D1) == ramification_set(D2)


def conjugate_algebra(D: QuaternionAlgebra) -> QuaternionAlgebra:
    """The algebra with Galois-conjugated parameters (itself over Q)."""
    return QuaternionAlgebra(D.field, D.a.conjugate(), D.b.conjugate())


def subfield_embeds(D: QuaternionAlgebra, c: FieldElement) -> bool:
    """Whether the quadratic extension k(sqrt(c)) embeds in D.

    A quadratic extension of the center embeds exactly when it splits
    the algebra, and it splits the algebra exactly when it stays a field
    (c remains a nonsquare) in the completion at every place where D is
    locally division -- at split places there is nothing to check.  So
    the test is: c is a nonsquare in k_v for every v in the ramification
    set.  A split D admits every quadratic extension.
    """
    if not c:
        raise ValueError("c must be nonzero")
    if c.field != D.field:
        raise FieldMismatchError("c must lie in the center of the algebra")
    if is_global_square(c):
        raise SquareArgumentError(
            f"{c} is a square in {c.field}; k(sqrt(c)) is not a quadratic extension"
        )
    return all(not is_local_square(c, v) for v in ramification_set(D))
