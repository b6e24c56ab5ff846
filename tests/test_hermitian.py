"""Tests for quaternionic Hermitian forms and their trace-form invariants."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from quathyp.algebras import quaternion_algebra, ramification_set, ramified_real_places
from quathyp.errors import (
    AlgebraMismatchError,
    DimensionMismatchError,
    NotRamifiedAtPlaceError,
    PlaceKindError,
)
from quathyp.fields import QQ, Field, places_above, real_signature
from quathyp.hermitian import (
    HermitianForm,
    hermitian_form,
    hermitian_isometric,
    hermitian_isotropic_global,
    signature_at_ramified,
    trace_form,
    trace_invariants_closed,
)
from quathyp.quadratic import (
    forms_isometric,
    local_invariants,
    same_square_class,
)
from quathyp.subspaces import restriction_real

RNG = random.Random(417)

ALGEBRA_POOL = [(-1, -1), (-1, -3), (-2, -5), (2, 5), (-1, 7), (3, -6), (-7, -13)]
COEFF_POOL = [-10, -7, -5, -3, -2, -1, 1, 2, 3, 5, 6, 10]


def random_hermitian(max_dim=4):
    D = quaternion_algebra(QQ, *RNG.choice(ALGEBRA_POOL))
    dim = RNG.randint(1, max_dim)
    return hermitian_form(D, *(RNG.choice(COEFF_POOL) for _ in range(dim)))


LANDHERR_FIELDS = [QQ, Field(5), Field(3), Field(6), Field(13), Field(7)]


@st.composite
def hermitian_pairs(draw):
    """Two diagonal Hermitian forms of one rank over one algebra, with
    small entries so that signatures often agree."""
    field = draw(st.sampled_from(LANDHERR_FIELDS))

    def element(lo, hi):
        a1 = 0 if field.is_rational else draw(st.sampled_from([0, 0, 1, -1]))
        x = field.element(draw(st.integers(lo, hi)), a1)
        return x if x else field.one

    D = quaternion_algebra(field, element(-9, 3), element(-9, 3))
    rank = draw(st.integers(1, 4))
    h1 = hermitian_form(D, *(element(-5, 5) for _ in range(rank)))
    h2 = hermitian_form(D, *(element(-5, 5) for _ in range(rank)))
    return h1, h2


class TestConstruction:
    def test_zero_coefficient_rejected(self):
        H = quaternion_algebra(QQ, -1, -1)
        with pytest.raises(ValueError, match="zero"):
            hermitian_form(H, 1, 0)

    def test_empty_rejected(self):
        H = quaternion_algebra(QQ, -1, -1)
        with pytest.raises(ValueError):
            HermitianForm(H, ())

    def test_coefficients_coerced_into_base_field(self):
        H = quaternion_algebra(QQ, -1, -1)
        h = hermitian_form(H, 1, -3)
        assert h.dim == 2
        assert all(c.field is QQ for c in h.coeffs)

    def test_coefficient_field_must_match(self):
        H = quaternion_algebra(QQ, -1, -1)
        k = Field(5)
        with pytest.raises(Exception):
            HermitianForm(H, (k.element(1, 1),))


class TestTraceForm:
    def test_coefficient_pattern(self):
        """Each diagonal entry c contributes the scaled norm block c, -ac, -bc, abc."""
        D = quaternion_algebra(QQ, -2, 7)
        h = hermitian_form(D, 3)
        assert [c.a0 for c in trace_form(h).coeffs] == [3, 6, -21, -42]

    def test_dimension_quadruples(self):
        h = random_hermitian()
        assert trace_form(h).dim == 4 * h.dim

    def test_restriction_keeps_diagonal(self):
        D = quaternion_algebra(QQ, -1, -1)
        h = hermitian_form(D, 1, -3, 5)
        r = restriction_real(h)
        assert r.field is QQ
        assert [c.a0 for c in r.coeffs] == [1, -3, 5]


class TestClosedInvariants:
    def test_matches_direct_computation_over_rationals(self):
        """The closed-form local data of any trace form depends only on the
        algebra and the number of variables, never on the coefficients."""
        for _ in range(20):
            h = random_hermitian()
            q = trace_form(h)
            for p in (2, 3, 5, 7, 11, 13):
                v = places_above(QQ, p)[0]
                closed = trace_invariants_closed(h.dim, h.algebra, v)
                direct = local_invariants(q, v)
                assert closed.dim == direct.dim
                assert closed.hasse == direct.hasse
                assert same_square_class(closed.det_class, direct.det_class)

    def test_matches_direct_computation_over_quadratic_field(self):
        k = Field(5)
        algebras = [
            quaternion_algebra(k, k.element(-1), k.element(-1)),
            quaternion_algebra(k, k.sqrt_d, k.element(3)),
            quaternion_algebra(k, k.element(4, 1), k.element(-1)),
        ]
        for D in algebras:
            h = hermitian_form(D, D.field.one, D.field.element(-3), D.field.element(2, 1))
            q = trace_form(h)
            for p in (2, 3, 5, 11):
                for v in places_above(k, p):
                    closed = trace_invariants_closed(h.dim, D, v)
                    direct = local_invariants(q, v)
                    assert (closed.dim, closed.hasse) == (direct.dim, direct.hasse)
                    assert same_square_class(closed.det_class, direct.det_class)

    def test_determinant_class_is_trivial(self):
        D = quaternion_algebra(QQ, -2, -5)
        v = places_above(QQ, 5)[0]
        inv = trace_invariants_closed(3, D, v)
        assert same_square_class(inv.det_class, QQ.one)
        assert inv.dim == 12

    def test_even_rank_trivializes_hasse(self):
        D = quaternion_algebra(QQ, -1, -1)
        for p in (2, 3, 5):
            v = places_above(QQ, p)[0]
            assert trace_invariants_closed(2, D, v).hasse == 1
            assert trace_invariants_closed(4, D, v).hasse == 1

    def test_real_place_rejected(self):
        D = quaternion_algebra(QQ, -1, -1)
        with pytest.raises(PlaceKindError):
            trace_invariants_closed(2, D, QQ.real_places()[0])


class TestRamifiedSignatures:
    def test_hamilton_reference_values(self):
        H = quaternion_algebra(QQ, -1, -1)
        v = QQ.real_places()[0]
        assert signature_at_ramified(hermitian_form(H, 1, -3), v) == (1, 1)
        assert signature_at_ramified(hermitian_form(H, 1, 1, 2), v) == (3, 0)
        assert signature_at_ramified(hermitian_form(H, -1, -5), v) == (0, 2)

    def test_quadratic_field_embeddings_flip_sqrt_coefficients(self):
        k = Field(5)
        Hk = quaternion_algebra(k, k.element(-1), k.element(-1))
        h = hermitian_form(Hk, k.one, k.sqrt_d)
        v0, v1 = k.real_places()
        assert signature_at_ramified(h, v0) == (2, 0)
        assert signature_at_ramified(h, v1) == (1, 1)

    def test_unramified_place_rejected(self):
        D = quaternion_algebra(QQ, 2, 5)
        with pytest.raises(NotRamifiedAtPlaceError, match="split at inf"):
            signature_at_ramified(hermitian_form(D, 1), QQ.real_places()[0])

    def test_finite_place_rejected(self):
        H = quaternion_algebra(QQ, -1, -1)
        with pytest.raises(PlaceKindError):
            signature_at_ramified(hermitian_form(H, 1), places_above(QQ, 2)[0])


class TestIsometry:
    def test_definite_reference_cases(self):
        H = quaternion_algebra(QQ, -1, -1)
        assert hermitian_isometric(hermitian_form(H, 1, 1), hermitian_form(H, 5, 7))
        assert not hermitian_isometric(hermitian_form(H, 1, 1), hermitian_form(H, 1, -1))

    def test_indefinite_algebra_has_a_single_class_per_rank(self):
        # (2, 5) is unramified at infinity, so no signature survives and the
        # coefficient-free finite invariants identify all forms of one rank.
        D = quaternion_algebra(QQ, 2, 5)
        assert hermitian_isometric(hermitian_form(D, 1), hermitian_form(D, -7))
        assert hermitian_isometric(hermitian_form(D, 1, 2), hermitian_form(D, -3, 10))

    def test_scaling_by_reduced_norms(self):
        """Rescaling a diagonal entry by a nonzero reduced norm of the
        algebra gives an isometric form."""
        for _ in range(15):
            a, b = RNG.choice(ALGEBRA_POOL)
            D = quaternion_algebra(QQ, a, b)
            coeffs = [RNG.choice(COEFF_POOL) for _ in range(RNG.randint(1, 3))]
            x, y, z, w = (RNG.randint(-3, 3) for _ in range(4))
            n = x * x - a * y * y - b * z * z + a * b * w * w
            if n == 0:
                continue
            i = RNG.randrange(len(coeffs))
            scaled = coeffs[:]
            scaled[i] = scaled[i] * n
            assert hermitian_isometric(
                hermitian_form(D, *coeffs), hermitian_form(D, *scaled)
            )

    def test_permutation_invariance(self):
        H = quaternion_algebra(QQ, -1, -3)
        h1 = hermitian_form(H, 1, -2, 5)
        h2 = hermitian_form(H, 5, 1, -2)
        assert hermitian_isometric(h1, h2)

    def test_isometric_trace_forms(self):
        for _ in range(10):
            D = quaternion_algebra(QQ, *RNG.choice(ALGEBRA_POOL))
            dim = RNG.randint(1, 3)
            h1 = hermitian_form(D, *(RNG.choice(COEFF_POOL) for _ in range(dim)))
            h2 = hermitian_form(D, *(RNG.choice(COEFF_POOL) for _ in range(dim)))
            assert hermitian_isometric(h1, h2) == forms_isometric(
                trace_form(h1), trace_form(h2)
            )

    @settings(max_examples=120, deadline=None, derandomize=True, database=None)
    @given(hermitian_pairs())
    def test_agrees_with_landherr(self, pair):
        """Rank and the signatures at the ramified real places classify
        Hermitian forms over a quaternion algebra (Landherr)."""
        h1, h2 = pair
        landherr = all(
            real_signature(h1.coeffs, v) == real_signature(h2.coeffs, v)
            for v in ramified_real_places(h1.algebra)
        )
        assert hermitian_isometric(h1, h2) == landherr

    def test_dimension_mismatch_raises(self):
        H = quaternion_algebra(QQ, -1, -1)
        with pytest.raises(DimensionMismatchError, match="dimensions 1 and 2"):
            hermitian_isometric(hermitian_form(H, 1), hermitian_form(H, 1, 1))

    def test_algebra_mismatch_raises(self):
        H = quaternion_algebra(QQ, -1, -1)
        D = quaternion_algebra(QQ, 2, 5)
        with pytest.raises(AlgebraMismatchError):
            hermitian_isometric(hermitian_form(H, 1), hermitian_form(D, 1))


class TestIsotropy:
    def test_rank_one_detects_division(self):
        H = quaternion_algebra(QQ, -1, -1)
        M = quaternion_algebra(QQ, 1, 3)
        assert not hermitian_isotropic_global(hermitian_form(H, 1))
        assert hermitian_isotropic_global(hermitian_form(M, 1))

    def test_definite_forms_are_anisotropic(self):
        H = quaternion_algebra(QQ, -1, -1)
        assert not hermitian_isotropic_global(hermitian_form(H, 1, 1, 1))

    def test_mixed_signs_over_hamilton(self):
        H = quaternion_algebra(QQ, -1, -1)
        assert hermitian_isotropic_global(hermitian_form(H, 1, -1))
        assert hermitian_isotropic_global(hermitian_form(H, 2, -7, 1))

    def test_finite_ramification_only(self):
        D = quaternion_algebra(QQ, 2, 5)
        assert ramification_set(D) and all(v.is_finite for v in ramification_set(D))
        assert hermitian_isotropic_global(hermitian_form(D, 1, 1))

    def test_agrees_with_trace_form_isotropy(self):
        """The local-global decision against the trace-form oracle on 150
        seeded forms of rank 1-4 over each field, 2-split Q(sqrt(17))
        included; both verdicts occur at rank 1 and above."""
        for field in (QQ, Field(5), Field(3), Field(6), Field(17)):
            rng = random.Random(field.d or 1)

            def element(lo, hi):
                a1 = 0 if field.is_rational else rng.choice([0, 0, 1, -1])
                return field.element(rng.randint(lo, hi), a1) or field.one

            verdicts = set()
            for _ in range(150):
                D = quaternion_algebra(field, element(-9, 5), element(-9, 5))
                h = hermitian_form(D, *(element(-5, 5) for _ in range(rng.randint(1, 4))))
                got = hermitian_isotropic_global(h)
                assert got == oracles.hermitian_isotropic_by_trace_form(h), str(h)
                verdicts.add((h.dim == 1, got))
            assert len(verdicts) == 4, (field, verdicts)
