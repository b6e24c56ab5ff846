"""The value-record policy of every library record class: equality and
hashing by class and fields, no assignment, keyword and default
construction, validation errors, and the ``Name(field=value, ...)`` repr
that the records printed as dataclasses."""

import copy
import pickle
from fractions import Fraction

import numpy as np
import pytest

from quathyp.algebras import QuaternionAlgebra, quaternion_algebra
from quathyp.commensurability import AdmissibleTriple, OrbifoldClassDescriptor, triple_of
from quathyp.errors import FieldMismatchError, PreconditionError, SquareArgumentError
from quathyp.fields import QQ, SPLIT_FIRST, Field, Place
from quathyp.geometry import SubspaceSpan
from quathyp.hermitian import HermitianForm, hermitian_form
from quathyp.quadratic import LocalQuadInvariants, QuadraticForm, diagonal_form
from quathyp.records import Record, set_field
from quathyp.subspaces import ComplexRestrictionData, EmbeddingVerdict

K = Field(5)
H = quaternion_algebra(QQ, -1, -3)

_Q = "Field(d=None)"
_INT = "FieldElement(field=" + _Q + ", a0=Fraction({}, 1), a1=Fraction(0, 1))"
_H = f"QuaternionAlgebra(field={_Q}, a={_INT.format(-1)}, b={_INT.format(-3)})"


def _examples():
    """(build, repr) per record class: ``build`` makes a fresh record, and
    the repr is the one the dataclass version printed."""
    return [
        (lambda: Field(5), "Field(d=5)"),
        (
            lambda: K.element(1, Fraction(-1, 2)),
            "FieldElement(field=Field(d=5), a0=Fraction(1, 1), a1=Fraction(-1, 2))",
        ),
        (
            lambda: Place.finite(K, 11, SPLIT_FIRST),
            "Place(field=Field(d=5), kind='finite', embedding=0, p=11, position='split-first')",
        ),
        (lambda: quaternion_algebra(QQ, -1, -3), _H),
        (
            lambda: diagonal_form(QQ, 1, -2),
            f"QuadraticForm(field={_Q}, coeffs=({_INT.format(1)}, {_INT.format(-2)}))",
        ),
        (
            lambda: LocalQuadInvariants(dim=3, det_class=QQ.element(2), hasse=-1),
            f"LocalQuadInvariants(dim=3, det_class={_INT.format(2)}, hasse=-1, signature=None)",
        ),
        (
            lambda: hermitian_form(H, 1, -1),
            f"HermitianForm(algebra={_H}, coeffs=({_INT.format(1)}, {_INT.format(-1)}))",
        ),
        (
            lambda: AdmissibleTriple(QQ, QQ.real_places()[0], H),
            f"AdmissibleTriple(field={_Q}, v0=Place(field={_Q}, kind='real', embedding=0, "
            f"p=0, position='rational'), algebra={_H})",
        ),
        (
            lambda: OrbifoldClassDescriptor.split(QQ, 3),
            f"OrbifoldClassDescriptor(kind='split', field={_Q}, rank=3, form=None)",
        ),
        (
            lambda: ComplexRestrictionData(QQ.element(-7), (QQ.one, QQ.element(-1))),
            f"ComplexRestrictionData(c={_INT.format(-7)}, "
            f"coeffs=({_INT.format(1)}, {_INT.format(-1)}))",
        ),
        (
            lambda: EmbeddingVerdict(False, failed_condition="subfield-does-not-embed"),
            "EmbeddingVerdict(embeds=False, witness=None, failed_condition='subfield-does-not-embed')",
        ),
    ]


EXAMPLES = _examples()
IDS = [expected.split("(")[0] for _, expected in EXAMPLES]


def _twin(record):
    """A record of another class with the same fields and values."""
    Twin = type("Twin", (Record,), {"__slots__": record.__slots__})
    twin = Twin.__new__(Twin)
    for name in record.__slots__:
        set_field(twin, name, getattr(record, name))
    return twin


@pytest.mark.parametrize("build, expected", EXAMPLES, ids=IDS)
class TestValueRecords:
    def test_equal_fields_equal_records(self, build, expected):
        a, b = build(), build()
        assert a is not b and a == b and not a != b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_other_class_same_fields_unequal(self, build, expected):
        a, twin = build(), _twin(build())
        assert a != twin and twin != a
        assert a != tuple(getattr(a, name) for name in a.__slots__)

    def test_assignment_and_deletion_refused(self, build, expected):
        a = build()
        name = a.__slots__[0]
        value = getattr(a, name)
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(a, name, value)
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            a.extra = 1
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(a, name)
        assert getattr(a, name) == value and not hasattr(a, "__dict__")

    def test_repr_is_the_dataclass_repr(self, build, expected):
        assert repr(build()) == expected

    def test_copy_and_pickle_round_trip(self, build, expected):
        a = build()
        for again in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
            assert again == a and hash(again) == hash(a) and repr(again) == expected


def test_keyword_and_default_construction():
    assert Field() == QQ and Field(d=5) == K
    assert Place(QQ, "real") == Place(field=QQ, kind="real", embedding=0, p=0, position="rational")
    inv = LocalQuadInvariants(dim=2, det_class=QQ.one, hasse=1)
    assert inv.signature is None
    assert inv == LocalQuadInvariants(2, QQ.one, 1, None)
    desc = OrbifoldClassDescriptor(kind="split", field=QQ, rank=3)
    assert desc.form is None and desc == OrbifoldClassDescriptor.split(QQ, 3)
    assert OrbifoldClassDescriptor("split").field is None
    witness = hermitian_form(H, 1, 1, -1)
    verdict = EmbeddingVerdict(True, witness=witness)
    assert verdict.failed_condition is None and verdict == EmbeddingVerdict(True, witness, None)
    failed = EmbeddingVerdict(embeds=False, failed_condition="extension-not-isometric")
    assert failed.witness is None
    assert QuaternionAlgebra(field=QQ, a=QQ.element(-1), b=QQ.element(-3)) == H


def test_field_hashes_q_to_zero():
    assert hash(QQ) == 0 and hash(Field()) == 0


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Field(1), ValueError, "d must be an integer > 1"),
        (lambda: Field(12), ValueError, "d = 12 is not squarefree"),
        (lambda: QuaternionAlgebra(QQ, QQ.zero, QQ.one), ValueError, "parameter a must be nonzero"),
        (lambda: QuaternionAlgebra(QQ, K.one, QQ.one), FieldMismatchError, "parameter a is not over Q"),
        (lambda: QuadraticForm(QQ, ()), ValueError, "a quadratic form needs at least one coefficient"),
        (lambda: QuadraticForm(QQ, (QQ.one, K.one)), FieldMismatchError, "coefficient 1 is not over Q"),
        (lambda: QuadraticForm(QQ, (QQ.one, QQ.zero)), ValueError, "coefficient 1 is zero"),
        (lambda: HermitianForm(H, ()), ValueError, "a Hermitian form needs at least one coefficient"),
        (
            lambda: HermitianForm(H, (K.one,)),
            FieldMismatchError,
            "coefficient 0 is not central for (-1, -3 / Q)",
        ),
        (lambda: HermitianForm(H, (QQ.zero,)), ValueError, "coefficient 0 is zero"),
        (
            lambda: AdmissibleTriple(QQ, Place.finite(QQ, 2), H),
            ValueError,
            "v0 must be a real place of Q",
        ),
        (
            lambda: AdmissibleTriple(K, K.real_places()[0], H),
            ValueError,
            "algebra and triple must share the field",
        ),
        (
            lambda: ComplexRestrictionData(QQ.zero, (QQ.one,)),
            PreconditionError,
            "subfield generator must be nonzero",
        ),
        (
            lambda: ComplexRestrictionData(QQ.element(4), (QQ.one,)),
            SquareArgumentError,
            "4 is a square; k(sqrt(c)) would not be quadratic",
        ),
        (lambda: ComplexRestrictionData(QQ.element(-7), ()), ValueError, "coefficient list is empty"),
        (
            lambda: ComplexRestrictionData(QQ.element(-7), (K.one,)),
            FieldMismatchError,
            "coefficients and generator share a field",
        ),
        (
            lambda: ComplexRestrictionData(QQ.element(-7), (QQ.zero,)),
            ValueError,
            "coefficients must be nonzero",
        ),
        (lambda: EmbeddingVerdict(True), ValueError, "positive verdicts must carry a witness"),
        (
            lambda: EmbeddingVerdict(False),
            ValueError,
            "negative verdicts must name the failed condition",
        ),
        (
            lambda: SubspaceSpan(np.zeros((2, 4))),
            ValueError,
            "expected spanning vectors of shape (k, m, 4)",
        ),
        (
            lambda: SubspaceSpan(np.ones((2, 1, 4))),
            ValueError,
            "spanning vectors are not independent over R",
        ),
    ],
)
def test_validation_errors_keep_type_and_message(build, error, message):
    with pytest.raises(Exception) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


class Memo(Record):
    """Two fields and a memo slot, as a record class with derived data has."""

    __slots__ = ("a", "b", "_memo")

    def __init__(self, a, b):
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "_memo", None)


class TestMemoSlots:
    """A slot named ``_...`` holds derived data: it is not a field."""

    @staticmethod
    def filled():
        memo = Memo(1, (2, 3))
        set_field(memo, "_memo", ["derived"])
        return memo

    def test_equality_and_hash_ignore_the_memo(self):
        filled, empty = self.filled(), Memo(1, (2, 3))
        assert filled == empty and hash(filled) == hash(empty) and len({filled, empty}) == 1
        assert filled != Memo(1, (2, 4)) and Memo._fields == ("a", "b")

    def test_repr_copy_and_pickle_leave_it_out(self):
        filled = self.filled()
        assert repr(filled) == "Memo(a=1, b=(2, 3))"
        copies = copy.copy(filled), copy.deepcopy(filled), pickle.loads(pickle.dumps(filled))
        for again in copies:
            assert again == filled and repr(again) == repr(filled) and again._memo is None

    def test_assignment_and_deletion_refused(self):
        filled = self.filled()
        with pytest.raises(AttributeError, match="cannot assign to field '_memo'"):
            filled._memo = None
        with pytest.raises(AttributeError, match="cannot delete field '_memo'"):
            del filled._memo
        assert filled._memo == ["derived"]

    def test_descriptor_with_its_triple_prints_and_copies_without_it(self):
        form = hermitian_form(H, 1, 1, -1)
        desc = OrbifoldClassDescriptor.nonsplit(form)
        fresh = repr(desc)
        assert triple_of(desc) is desc._triple is not None
        expected = f"OrbifoldClassDescriptor(kind='nonsplit', field={_Q}, rank=None, form={form!r})"
        assert repr(desc) == fresh == expected
        for again in (copy.copy(desc), copy.deepcopy(desc), pickle.loads(pickle.dumps(desc))):
            assert again == desc and hash(again) == hash(desc) and again._triple is None


class TestSubspaceSpan:
    """Spans hold arrays, so they compare and hash by identity."""

    def test_identity_equality(self):
        vectors = np.eye(4)[None, :1]
        a, b = SubspaceSpan(vectors), SubspaceSpan(vectors)
        assert a == a and a != b
        assert hash(a) == object.__hash__(a) and len({a, b}) == 2

    def test_fields_are_frozen_and_repr(self):
        span = SubspaceSpan(np.eye(4)[None, :1])
        with pytest.raises(AttributeError, match="cannot assign to field 'vectors'"):
            span.vectors = np.zeros((1, 1, 4))
        assert span.vectors.dtype == float
        assert repr(span) == "SubspaceSpan(vectors=array([[[1., 0., 0., 0.]]]))"
