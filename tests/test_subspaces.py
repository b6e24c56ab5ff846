"""Tests for subspace restriction/extension and embedding verdicts."""

import pytest

from quathyp.algebras import quaternion_algebra
from quathyp.commensurability import (
    AdmissibleTriple,
    OrbifoldClassDescriptor,
    canonical_hermitian,
)
from quathyp.errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NotQuaternionicHyperbolicError,
    SignaturePreconditionError,
    SquareArgumentError,
    SubfieldEmbeddingError,
)
from quathyp.fields import QQ, Field
from quathyp.hermitian import hermitian_form, hermitian_isometric
from quathyp.quadratic import diagonal_form, isotropic_global, signature_at
from quathyp.subspaces import (
    LADDER_BOUND,
    ComplexRestrictionData,
    EmbeddingVerdict,
    embeds_complex,
    embeds_real,
    extend_complex,
    extend_real,
    restriction_complex,
    restriction_real,
    subform,
    surface_witness,
)

from oracles import finite_volume_flag


def hamilton_ambient(m=2):
    H = quaternion_algebra(QQ, -1, -1)
    t = AdmissibleTriple(QQ, QQ.real_places()[0], H)
    return t, OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, m))


class TestSubform:
    def test_picks_indices(self):
        H = quaternion_algebra(QQ, -1, -1)
        h = hermitian_form(H, 1, 2, -3, 5)
        assert [c.a0 for c in subform(h, (0, 2)).coeffs] == [1, -3]

    def test_empty_rejected(self):
        H = quaternion_algebra(QQ, -1, -1)
        with pytest.raises(ValueError):
            subform(hermitian_form(H, 1, 2), ())

    def test_full_form_rejected(self):
        H = quaternion_algebra(QQ, -1, -1)
        with pytest.raises(ValueError):
            subform(hermitian_form(H, 1, 2), (0, 1))

    def test_out_of_range_rejected(self):
        H = quaternion_algebra(QQ, -1, -1)
        with pytest.raises(ValueError):
            subform(hermitian_form(H, 1, 2, 3), (0, 3))


class TestFiniteVolumeFlag:
    def test_needs_mixed_signs_and_rank_two(self):
        H = quaternion_algebra(QQ, -1, -1)
        assert finite_volume_flag(hermitian_form(H, 1, -3))
        assert not finite_volume_flag(hermitian_form(H, 1, 3))
        assert not finite_volume_flag(hermitian_form(H, -1))

    def test_one_indefinite_embedding_suffices(self):
        k = Field(5)
        Hk = quaternion_algebra(k, k.element(-1), k.element(-1))
        assert finite_volume_flag(hermitian_form(Hk, k.one, k.sqrt_d))
        assert not finite_volume_flag(hermitian_form(Hk, k.one, k.one))


class TestRestrictionAndExtension:
    def test_real_round_trip(self):
        H = quaternion_algebra(QQ, -1, -1)
        h = hermitian_form(H, 1, 2, -3)
        q = restriction_real(h)
        assert q.field is QQ and [c.a0 for c in q.coeffs] == [1, 2, -3]
        assert extend_real(q, H).coeffs == h.coeffs

    def test_complex_round_trip(self):
        H = quaternion_algebra(QQ, -1, -1)
        h = hermitian_form(H, 1, 2, -3)
        data = restriction_complex(h, QQ.element(-1))
        assert data.dim == 3 and data.field is QQ
        assert extend_complex(data, H).coeffs == h.coeffs

    def test_square_parameter_rejected(self):
        with pytest.raises(SquareArgumentError):
            ComplexRestrictionData(QQ.element(4), (QQ.element(1),))
        k = Field(5)
        with pytest.raises(SquareArgumentError):
            ComplexRestrictionData(k.element(9, 4), (k.one,))

    def test_parameter_field_must_match_coefficients(self):
        k = Field(5)
        with pytest.raises(FieldMismatchError):
            ComplexRestrictionData(k.element(-1), (QQ.element(1),))

    def test_restriction_needs_embedded_subfield(self):
        H = quaternion_algebra(QQ, -1, -1)
        h = hermitian_form(H, 1, -3)
        with pytest.raises(SubfieldEmbeddingError, match="does not embed"):
            restriction_complex(h, QQ.element(-7))

    def test_extension_needs_embedded_subfield(self):
        H = quaternion_algebra(QQ, -1, -1)
        data = ComplexRestrictionData(QQ.element(-7), (QQ.element(1), QQ.element(-1)))
        with pytest.raises(SubfieldEmbeddingError):
            extend_complex(data, H)

    def test_extension_field_mismatch(self):
        k = Field(5)
        Hk = quaternion_algebra(k, k.element(-1), k.element(-1))
        with pytest.raises(FieldMismatchError):
            extend_real(diagonal_form(QQ, 1, -3), Hk)


class TestEmbeddingVerdict:
    def test_failed_condition_only_on_negative_verdicts(self):
        with pytest.raises(ValueError):
            EmbeddingVerdict(True, failed_condition="subfield-does-not-embed")

    def test_witness_only_on_positive_verdicts(self):
        H = quaternion_algebra(QQ, -1, -1)
        with pytest.raises(ValueError):
            EmbeddingVerdict(False, witness=hermitian_form(H, 1))


class TestEmbedsReal:
    def test_hyperbolic_plane_witness(self):
        t, amb = hamilton_ambient()
        verdict = embeds_real(diagonal_form(QQ, 1, 1, -3), amb)
        assert verdict.embeds and verdict.failed_condition is None
        assert verdict.witness is not None
        assert hermitian_isometric(verdict.witness, amb.form)

    def test_lower_dimension_padded(self):
        t, amb = hamilton_ambient()
        verdict = embeds_real(diagonal_form(QQ, 1, -3), amb)
        assert verdict.embeds
        assert verdict.witness.dim == 3

    def test_signature_precondition(self):
        t, amb = hamilton_ambient()
        with pytest.raises(SignaturePreconditionError, match=r"\(3, 0\)"):
            embeds_real(diagonal_form(QQ, 1, 1, 3), amb)
        with pytest.raises(SignaturePreconditionError):
            embeds_real(diagonal_form(QQ, 1, -1, -3), amb)

    def test_quadratic_field_signature_preconditions_cover_all_places(self):
        # indefinite at the distinguished place, definite at the other
        k = Field(2)
        Hk = quaternion_algebra(k, k.element(-1), k.element(-1))
        t = AdmissibleTriple(k, k.real_places()[0], Hk)
        amb = OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 2))
        good = diagonal_form(k, k.one, k.one, -k.sqrt_d)
        assert embeds_real(good, amb).embeds
        bad = diagonal_form(k, k.one, k.one, k.element(-1))  # indefinite at both places
        with pytest.raises(SignaturePreconditionError):
            embeds_real(bad, amb)

    def test_dimension_bounds(self):
        t, amb = hamilton_ambient()
        with pytest.raises(DimensionMismatchError, match="between 2"):
            embeds_real(diagonal_form(QQ, -1), amb)
        with pytest.raises(DimensionMismatchError):
            embeds_real(diagonal_form(QQ, 1, 1, 1, -1, -3), amb)

    def test_field_mismatch(self):
        t, amb = hamilton_ambient()
        k = Field(5)
        with pytest.raises(FieldMismatchError):
            embeds_real(diagonal_form(k, k.one, k.one, -k.sqrt_d), amb)

    def test_split_ambient_rejected(self):
        with pytest.raises(NotQuaternionicHyperbolicError):
            embeds_real(diagonal_form(QQ, 1, -3), OrbifoldClassDescriptor.split(QQ, 3))


class TestEmbedsComplex:
    def test_discriminating_parameter(self):
        """c = -7 separates the two rational algebras ramified at 2 and 3.

        -7 is a square in Q_2 (it is 1 mod 8) but not in Q_3, so k(sqrt(-7))
        embeds in the algebra ramified at {inf, 3} and misses the one
        ramified at {inf, 2}.
        """
        _, amb2 = hamilton_ambient()
        t3 = AdmissibleTriple(QQ, QQ.real_places()[0], quaternion_algebra(QQ, -1, -3))
        amb3 = OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t3, 2))
        data = ComplexRestrictionData(
            QQ.element(-7), (QQ.element(1), QQ.element(1), QQ.element(-1))
        )
        refused = embeds_complex(data, amb2)
        assert not refused.embeds
        assert refused.failed_condition == "subfield-does-not-embed"
        accepted = embeds_complex(data, amb3)
        assert accepted.embeds and accepted.witness is not None
        assert hermitian_isometric(accepted.witness, amb3.form)

    def test_gaussian_parameter_into_hamilton(self):
        _, amb = hamilton_ambient()
        data = ComplexRestrictionData(
            QQ.element(-1), (QQ.element(1), QQ.element(1), QQ.element(-1))
        )
        assert embeds_complex(data, amb).embeds

    def test_dimension_must_match_exactly(self):
        _, amb = hamilton_ambient()
        data = ComplexRestrictionData(QQ.element(-1), (QQ.element(1), QQ.element(-1)))
        with pytest.raises(DimensionMismatchError, match="does not match"):
            embeds_complex(data, amb)

    def test_signature_precondition(self):
        _, amb = hamilton_ambient()
        data = ComplexRestrictionData(
            QQ.element(-1), (QQ.element(1), QQ.element(1), QQ.element(1))
        )
        with pytest.raises(SignaturePreconditionError):
            embeds_complex(data, amb)


class TestSurfaceWitness:
    def test_rational_triple(self):
        t, amb = hamilton_ambient()
        w = surface_witness(t)
        assert [c.a0 for c in w.coeffs] == [1, 1, -3]
        assert signature_at(w, t.v0) == (2, 1)
        assert not isotropic_global(w)
        assert embeds_real(w, amb).embeds

    def test_real_quadratic_triple(self):
        k = Field(2)
        Hk = quaternion_algebra(k, k.element(-1), k.element(-1))
        t = AdmissibleTriple(k, k.real_places()[0], Hk)
        w = surface_witness(t)
        assert [str(c) for c in w.coeffs] == ["1", "1", "-sqrt(2)"]
        v0, v1 = k.real_places()
        assert signature_at(w, v0) == (2, 1)
        assert signature_at(w, v1) == (3, 0)
        assert not isotropic_global(w)
        amb = OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 2))
        assert embeds_real(w, amb).embeds

    def test_inadmissible_triple_rejected(self):
        t = AdmissibleTriple(QQ, QQ.real_places()[0], quaternion_algebra(QQ, 2, 5))
        with pytest.raises(ValueError):
            surface_witness(t)

    def test_ladder_bound_is_fixed(self):
        assert LADDER_BOUND == 100
