"""Tests for subspace restriction/extension and embedding verdicts."""

import random

import pytest

from quathyp.algebras import quaternion_algebra, subfield_embeds
from quathyp.commensurability import (
    AdmissibleTriple,
    OrbifoldClassDescriptor,
    canonical_hermitian,
    quaternionic_commensurable,
)
from quathyp.errors import (
    DimensionMismatchError,
    FieldMismatchError,
    NotQuaternionicHyperbolicError,
    SignaturePreconditionError,
    SquareArgumentError,
    SubfieldEmbeddingError,
)
from quathyp.fields import QQ, Field, real_signature, sign_at_real_place
from quathyp.hermitian import hermitian_form, hermitian_isometric
from quathyp.quadratic import diagonal_form, isotropic_global, signature_at
from quathyp.subspaces import (
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

from oracles import finite_volume_flag, surface_witness_by_ladder


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


def _signs(x, places):
    return tuple(sign_at_real_place(x, v) for v in places)


def _element_with_signs(rng, field, signs):
    """A random element with the given sign at each real place."""
    places = field.real_places()
    while True:
        x = field.element(rng.randint(-9, 9), 0 if field.is_rational else rng.randint(-3, 3))
        if x and _signs(x, places) == signs:
            return x


def _random_hyperbolic_coeffs(rng, t, dim):
    """dim coefficients of signature (dim-1, 1) at v0, positive elsewhere."""
    places = t.field.real_places()
    negative = tuple(-1 if v == t.v0 else 1 for v in places)
    coeffs = [_element_with_signs(rng, t.field, (1,) * len(places)) for _ in range(dim - 1)]
    coeffs.insert(rng.randrange(dim), _element_with_signs(rng, t.field, negative))
    return tuple(coeffs)


class TestVerdictsDependOnlyOnTheClass:
    """Scaling the ambient form, the quadratic form or the complex data
    by lam positive at v0 keeps its class, so neither embedding verdict
    may change, even where lam is negative at the other real place."""

    def test_negative_definite_away_from_v0(self):
        k = Field(5)
        s = k.sqrt_d
        H = quaternion_algebra(k, k.element(-1), k.element(-1))
        a = hermitian_form(H, k.one, k.one, -s)
        b = hermitian_form(H, *((k.one + s) * c for c in a.coeffs))
        A, B = OrbifoldClassDescriptor.nonsplit(a), OrbifoldClassDescriptor.nonsplit(b)
        assert quaternionic_commensurable(A, B)
        q = diagonal_form(k, k.one, k.one, -s)
        data = ComplexRestrictionData(k.element(-1), q.coeffs)
        for ambient in (A, B):
            for verdict in (embeds_real(q, ambient), embeds_complex(data, ambient)):
                assert verdict.embeds, verdict.failed_condition
                assert hermitian_isometric(verdict.witness, ambient.form)
        assert real_signature(embeds_real(q, B).witness.coeffs, k.real_places()[1]) == (0, 3)

    @pytest.mark.parametrize("d", [5, 3, 6, 17])
    def test_scaling_positive_at_v0(self, d):
        rng = random.Random(f"scaled-ambient:{d}")
        k = Field(d)
        places = k.real_places()
        seen = set()

        def scalar(t):
            signs = tuple(1 if v == t.v0 else rng.choice((-1, 1)) for v in places)
            return signs, _element_with_signs(rng, k, signs)

        for _ in range(10):
            a, b = (_element_with_signs(rng, k, (-1, -1)) for _ in range(2))
            t = AdmissibleTriple(k, rng.choice(places), quaternion_algebra(k, a, b))
            n = rng.randint(3, 5)
            h = hermitian_form(t.algebra, *_random_hyperbolic_coeffs(rng, t, n))
            q = diagonal_form(k, *_random_hyperbolic_coeffs(rng, t, rng.randint(2, n)))
            c = _element_with_signs(rng, k, (-1, -1))
            data = ComplexRestrictionData(c, _random_hyperbolic_coeffs(rng, t, n))
            (h_signs, lam), (q_signs, mu), (data_signs, nu) = (scalar(t) for _ in range(3))
            verdicts = set()
            for form in (h, hermitian_form(t.algebra, *(lam * x for x in h.coeffs))):
                ambient = OrbifoldClassDescriptor.nonsplit(form)
                for q_ in (q, diagonal_form(k, *(mu * x for x in q.coeffs))):
                    real = embeds_real(q_, ambient)
                    assert real.embeds and hermitian_isometric(real.witness, form)
                    verdicts.add(("real", real.failed_condition))
                for data_ in (data, ComplexRestrictionData(c, tuple(nu * x for x in data.coeffs))):
                    cplx = embeds_complex(data_, ambient)
                    assert cplx.embeds is subfield_embeds(t.algebra, c), cplx.failed_condition
                    assert not cplx.embeds or hermitian_isometric(cplx.witness, form)
                    verdicts.add(("complex", cplx.embeds, cplx.failed_condition))
            assert len(verdicts) == 2
            seen.add((h_signs + q_signs + data_signs, cplx.embeds))
        assert {embeds for _, embeds in seen} == {True, False}
        assert -1 in {sign for signs, _ in seen for sign in signs[0:2]}
        assert -1 in {sign for signs, _ in seen for sign in signs[2:4]}
        assert -1 in {sign for signs, _ in seen for sign in signs[4:6]}

    @pytest.mark.parametrize("d", [5, 3, 6, 17])
    def test_restrictions_of_the_ambient_embed_in_it(self, d):
        """Both restrictions of an ambient form embed in it, whichever
        sign the form has away from v0."""
        rng = random.Random(f"round-trip:{d}")
        k = Field(d)
        places = k.real_places()
        for _ in range(3):
            a, b = (_element_with_signs(rng, k, (-1, -1)) for _ in range(2))
            t = AdmissibleTriple(k, rng.choice(places), quaternion_algebra(k, a, b))
            coeffs = _random_hyperbolic_coeffs(rng, t, rng.randint(3, 5))
            c = _element_with_signs(rng, k, (-1, -1))
            while not subfield_embeds(t.algebra, c):
                c = _element_with_signs(rng, k, (-1, -1))
            for away in (1, -1):
                signs = tuple(1 if v == t.v0 else away for v in places)
                lam = _element_with_signs(rng, k, signs)
                h = hermitian_form(t.algebra, *(lam * x for x in coeffs))
                ambient = OrbifoldClassDescriptor.nonsplit(h)
                for verdict in (
                    embeds_real(restriction_real(h), ambient),
                    embeds_complex(restriction_complex(h, c), ambient),
                ):
                    assert verdict.embeds, verdict.failed_condition
                    assert hermitian_isometric(verdict.witness, h)


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

    @pytest.mark.parametrize("d", [None, 5, 3, 6, 17])
    def test_closed_form_is_the_first_ladder_form(self, d):
        rng = random.Random(f"surface-witness:{d}")
        k = QQ if d is None else Field(d)
        for v0 in k.real_places():
            for _ in range(4):
                a, b = (_element_with_signs(rng, k, (-1,) * k.degree) for _ in range(2))
                t = AdmissibleTriple(k, v0, quaternion_algebra(k, a, b))
                assert surface_witness(t) == surface_witness_by_ladder(t)
