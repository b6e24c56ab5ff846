"""Tests for quaternion algebras: ramification, isomorphism, and subfields."""

import random

import pytest

from quathyp.algebras import (
    QuaternionAlgebra,
    algebras_isomorphic,
    conjugate_algebra,
    is_division,
    is_split,
    norm_form,
    quaternion_algebra,
    ramification_set,
    ramified_real_places,
    subfield_embeds,
)
from fractions import Fraction

from quathyp.errors import FieldMismatchError, SquareArgumentError
from quathyp.fields import QQ, Field, conjugate_place, is_global_square, places_above
from quathyp.quadratic import diagonal_form, isotropic_at, isotropic_global

from oracles import KNOWN_RAMIFICATION, qp_hilbert

RNG = random.Random(1105)

# Sample coefficients kept small so oracle cross-checks stay fast.
RATIONAL_POOL = [-19, -17, -13, -11, -7, -6, -5, -3, -2, -1, 2, 3, 5, 6, 7, 10, 13, 15]


def random_pair():
    return RNG.choice(RATIONAL_POOL), RNG.choice(RATIONAL_POOL)


class TestConstruction:
    def test_coercion(self):
        D = quaternion_algebra(QQ, -1, -1)
        assert D.a == QQ.element(-1)
        assert D.b == QQ.element(-1)
        assert D.field is QQ

    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError, match="nonzero"):
            quaternion_algebra(QQ, 0, -1)
        with pytest.raises(ValueError, match="nonzero"):
            quaternion_algebra(QQ, -1, 0)

    def test_coefficients_must_live_in_the_field(self):
        k = Field(5)
        with pytest.raises(FieldMismatchError):
            QuaternionAlgebra(QQ, k.element(1, 1), QQ.element(3))

    def test_str_mentions_both_coefficients(self):
        D = quaternion_algebra(QQ, -2, 15)
        assert "-2" in str(D) and "15" in str(D)


class TestRamification:
    @pytest.mark.parametrize("pair,expected", sorted(KNOWN_RAMIFICATION.items()))
    def test_known_ramification_sets(self, pair, expected):
        D = quaternion_algebra(QQ, *pair)
        assert {str(v) for v in ramification_set(D)} == expected

    def test_ramification_matches_hilbert_oracle(self):
        """Every finite place in the computed set carries symbol -1 per the oracle.

        The enumeration oracle scans p^6 residue pairs, so the cross-check
        stays at small primes; larger ones are covered by the frozen sets.
        """
        for _ in range(12):
            a, b = random_pair()
            D = quaternion_algebra(QQ, a, b)
            ram = ramification_set(D)
            finite = {v.p for v in ram if v.is_finite}
            for p in (2, 3, 5, 7):
                assert (p in finite) == (qp_hilbert(a, b, p) == -1)

    def test_even_cardinality_over_rationals(self):
        for _ in range(50):
            a, b = random_pair()
            D = quaternion_algebra(QQ, a, b)
            assert len(ramification_set(D)) % 2 == 0

    @pytest.mark.parametrize("d", [2, 3, 5, 13])
    def test_even_cardinality_over_quadratic_fields(self, d):
        k = Field(d)
        for _ in range(12):
            a = k.element(RNG.randint(-9, 9), RNG.randint(-4, 4))
            b = k.element(RNG.randint(-9, 9), RNG.randint(-4, 4))
            if not a or not b:
                continue
            assert len(ramification_set(quaternion_algebra(k, a, b))) % 2 == 0

    def test_split_iff_empty(self):
        assert ramification_set(quaternion_algebra(QQ, 1, 7)) == frozenset()
        assert ramification_set(quaternion_algebra(QQ, 3, -3)) == frozenset()
        assert ramification_set(quaternion_algebra(QQ, 5, -4)) == frozenset()
        H = quaternion_algebra(QQ, -1, -1)
        assert ramification_set(H)

    def test_ramified_real_places_read_signs(self):
        """The sign rule agrees with the real part of the full
        ramification set, which factors the parameters."""
        rng = random.Random(5)
        for field in (QQ, Field(5), Field(3), Field(6)):
            for _ in range(25):
                a0, b0 = random_pair()
                a1 = 0 if field.is_rational else rng.randint(-4, 4)
                b1 = 0 if field.is_rational else rng.randint(-4, 4)
                D = quaternion_algebra(field, field.element(a0, a1), field.element(b0, b1))
                expected = {v for v in ramification_set(D) if v.is_real}
                assert set(ramified_real_places(D)) == expected, str(D)

    def test_division_vs_split(self):
        H = quaternion_algebra(QQ, -1, -1)
        M = quaternion_algebra(QQ, 1, -1)
        assert is_division(H) and not is_split(H)
        assert is_split(M) and not is_division(M)

    def test_hamilton_over_real_quadratic_ramifies_at_both_infinities(self):
        # Only the dyadic place could join the two real places, and parity
        # forbids a set of size three.
        for d in (2, 5, 13):
            k = Field(d)
            D = quaternion_algebra(k, k.element(-1), k.element(-1))
            assert {str(v) for v in ramification_set(D)} == {"inf_0", "inf_1"}

    def test_ramified_exactly_where_norm_form_is_anisotropic(self):
        """The reduced norm is anisotropic precisely at the ramified places."""
        k = Field(5)
        samples = [
            quaternion_algebra(QQ, -1, -1),
            quaternion_algebra(QQ, -2, -5),
            quaternion_algebra(QQ, 3, 7),
            quaternion_algebra(k, k.element(-1), k.element(-1)),
            quaternion_algebra(k, k.element(4, 1), k.element(-1)),
        ]
        for D in samples:
            nf = norm_form(D)
            ram = ramification_set(D)
            probe = set(ram)
            probe.update(D.field.real_places())
            for p in (2, 3, 5, 7, 11):
                probe.update(places_above(D.field, p))
            for v in probe:
                assert isotropic_at(nf, v) == (v not in ram)


class TestNormForm:
    def test_coefficients(self):
        D = quaternion_algebra(QQ, -2, 7)
        nf = norm_form(D)
        assert nf.coeffs == (
            QQ.element(1),
            QQ.element(2),
            QQ.element(-7),
            QQ.element(-14),
        )

    def test_hamilton_norm_is_four_squares(self):
        nf = norm_form(quaternion_algebra(QQ, -1, -1))
        assert nf.coeffs == tuple(QQ.element(1) for _ in range(4))
        assert not isotropic_global(nf)


class TestIsomorphism:
    def test_swap_and_square_scaling(self):
        for _ in range(20):
            a, b = random_pair()
            D = quaternion_algebra(QQ, a, b)
            assert algebras_isomorphic(D, quaternion_algebra(QQ, b, a))
            assert algebras_isomorphic(D, quaternion_algebra(QQ, 9 * a, 4 * b))

    def test_twisting_by_a_norm_preserves_the_class(self):
        """(a, b) and (a, b(x^2 - a y^2)) are the same algebra."""
        for _ in range(20):
            a, b = random_pair()
            x, y = RNG.randint(1, 9), RNG.randint(1, 9)
            t = x * x - a * y * y
            if t == 0:
                continue
            D1 = quaternion_algebra(QQ, a, b)
            D2 = quaternion_algebra(QQ, a, b * t)
            assert algebras_isomorphic(D1, D2)

    def test_twisting_by_a_norm_over_quadratic_field(self):
        k = Field(5)
        for _ in range(8):
            a = k.element(RNG.randint(-6, 6), RNG.randint(-3, 3))
            b = k.element(RNG.randint(-6, 6), RNG.randint(-3, 3))
            if not a or not b:
                continue
            x = k.element(RNG.randint(1, 4), RNG.randint(0, 2))
            t = x * x - a * k.element(RNG.randint(0, 3)) ** 2
            if not t:
                continue
            assert algebras_isomorphic(
                quaternion_algebra(k, a, b), quaternion_algebra(k, a, b * t)
            )

    def test_distinct_classes(self):
        H = quaternion_algebra(QQ, -1, -1)
        assert not algebras_isomorphic(H, quaternion_algebra(QQ, -1, -3))
        assert not algebras_isomorphic(H, quaternion_algebra(QQ, -2, -5))
        assert not algebras_isomorphic(H, quaternion_algebra(QQ, 1, -1))

    def test_field_mismatch_rejected(self):
        H = quaternion_algebra(QQ, -1, -1)
        k = Field(5)
        Hk = quaternion_algebra(k, k.element(-1), k.element(-1))
        with pytest.raises(FieldMismatchError):
            algebras_isomorphic(H, Hk)


class TestConjugation:
    def test_rational_coefficients_are_fixed(self):
        k = Field(5)
        D = quaternion_algebra(k, k.element(-1), k.element(-3))
        assert algebras_isomorphic(D, conjugate_algebra(D))

    def test_conjugation_transports_ramification(self):
        k = Field(5)
        for coeffs in [(k.element(4, 1), k.element(-1)), (k.sqrt_d, k.element(3))]:
            D = quaternion_algebra(k, *coeffs)
            expected = {conjugate_place(v) for v in ramification_set(D)}
            assert set(ramification_set(conjugate_algebra(D))) == expected

    @pytest.mark.parametrize("d", [5, 3, 6, 17])
    def test_ramification_is_galois_equivariant(self, d):
        """Ram(conj D) = conj(Ram D) on seeded algebras.  Over Q(sqrt(17))
        2 splits, so the two dyadic places must trade labels."""
        k = Field(d)
        rng = random.Random(f"equivariance:{d}")
        moved = set()
        for _ in range(40):
            a = k.element(rng.randint(-40, 40), rng.randint(-9, 9))
            b = k.element(rng.randint(-40, 40), rng.randint(-9, 9))
            if not a or not b:
                continue
            D = quaternion_algebra(k, a, b)
            ram = ramification_set(D)
            image = {conjugate_place(v) for v in ram}
            assert ramification_set(conjugate_algebra(D)) == image, str(D)
            moved |= {v.p for v in ram if v.is_finite and conjugate_place(v) not in ram}
        if d == 17:
            assert 2 in moved

    def test_conjugation_can_change_the_isomorphism_class(self):
        # (4 + sqrt(5), -1) is ramified at one of the two places over 11;
        # its conjugate is ramified at the other one.
        k = Field(5)
        D = quaternion_algebra(k, k.element(4, 1), k.element(-1))
        assert not algebras_isomorphic(D, conjugate_algebra(D))

    def test_involution(self):
        k = Field(3)
        D = quaternion_algebra(k, k.element(1, 1), k.element(-2, 1))
        DD = conjugate_algebra(conjugate_algebra(D))
        assert DD.a == D.a and DD.b == D.b


class TestSubfieldEmbeddings:
    def test_gaussian_rationals_embed_in_hamilton(self):
        H = quaternion_algebra(QQ, -1, -1)
        assert subfield_embeds(H, QQ.element(-1))

    def test_frozen_hamilton_cases(self):
        H = quaternion_algebra(QQ, -1, -1)
        # -7 is a dyadic square (-7 = 1 mod 8), so the test at the ramified
        # place 2 fails even though -7 < 0 handles the real place.
        assert not subfield_embeds(H, QQ.element(-7))
        assert subfield_embeds(H, QQ.element(-3))
        assert subfield_embeds(H, QQ.element(-2))
        assert not subfield_embeds(H, QQ.element(7))

    def test_square_argument_rejected(self):
        H = quaternion_algebra(QQ, -1, -1)
        with pytest.raises(SquareArgumentError):
            subfield_embeds(H, QQ.element(4))
        with pytest.raises(SquareArgumentError):
            subfield_embeds(H, QQ.element(Fraction(9, 4)))
        k = Field(5)
        Hk = quaternion_algebra(k, k.element(-1), k.element(-1))
        with pytest.raises(SquareArgumentError):
            subfield_embeds(Hk, k.element(9, 4))

    def test_split_algebra_admits_every_quadratic_subfield(self):
        M = quaternion_algebra(QQ, 1, 3)
        for c in (-5, -1, 2, 7, 15):
            assert subfield_embeds(M, QQ.element(c))

    def test_field_mismatch_rejected(self):
        H = quaternion_algebra(QQ, -1, -1)
        with pytest.raises(FieldMismatchError):
            subfield_embeds(H, Field(5).element(-3))

    def test_real_places_constrain_embeddings(self):
        k = Field(5)
        Hk = quaternion_algebra(k, k.element(-1), k.element(-1))
        assert subfield_embeds(Hk, k.element(-1))
        assert subfield_embeds(Hk, k.element(-3, 1))  # both conjugates negative
        assert not subfield_embeds(Hk, k.sqrt_d)
        assert not subfield_embeds(Hk, -k.sqrt_d)

    def test_embedding_agrees_with_pure_norm_representation(self):
        """k(sqrt(c)) embeds exactly when <-a, -b, ab, c> is isotropic.

        A pure quaternion squaring to c has reduced norm -c, so the embedding
        question is a representation question for the pure part of the norm
        form.  This reroutes the check through Hasse-Minkowski machinery that
        shares no code with the local-square test used by subfield_embeds.
        """
        for _ in range(30):
            a, b = random_pair()
            c = RNG.choice(RATIONAL_POOL)
            if is_global_square(QQ.element(c)):
                continue
            D = quaternion_algebra(QQ, a, b)
            quaternary = diagonal_form(QQ, -a, -b, a * b, c)
            assert subfield_embeds(D, QQ.element(c)) == isotropic_global(quaternary)

    def test_embedding_agrees_with_pure_norm_representation_quadratic(self):
        k = Field(5)
        Hk = quaternion_algebra(k, k.element(-1), k.element(-1))
        for c in (k.element(-1), k.element(2), k.element(-3, 1), k.sqrt_d, k.element(3)):
            quaternary = diagonal_form(k, k.one, k.one, k.one, c)
            assert subfield_embeds(Hk, c) == isotropic_global(quaternary)
