"""Tests for diagonal quadratic forms: invariants, isotropy, isometry."""

import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from quathyp.errors import FieldMismatchError
from quathyp.fields import (
    QQ,
    Field,
    is_global_square,
    is_local_square,
    places_above,
    sign_at_real_place,
)
from quathyp.quadratic import (
    QuadraticForm,
    diagonal_form,
    form_support,
    forms_isometric,
    hasse_invariant,
    isotropic_at,
    isotropic_global,
    local_invariants,
    same_square_class,
    signature_at,
)

import oracles
from oracles import (
    forms_isometric_every_place,
    hasse_invariant_pairwise,
    hilbert_symbol_by_kind,
    orthogonal_sum,
    qp_hilbert,
    qp_is_square,
    qp_ternary_isotropic_fast,
    square_class_rep,
)
from test_symbols import PROPERTY, PROPERTY_FIELDS

RNG = random.Random(2203)

COEFF_POOL = [-15, -11, -10, -7, -6, -5, -3, -2, -1, 1, 2, 3, 5, 6, 7, 10, 14]


def random_form(dim):
    return diagonal_form(QQ, *(RNG.choice(COEFF_POOL) for _ in range(dim)))



@st.composite
def elements(draw, field):
    a0 = Fraction(draw(st.integers(-15, 15)), draw(st.sampled_from([1, 1, 2, 3])))
    a1 = 0 if field.is_rational else draw(st.integers(-6, 6))
    x = field.element(a0, a1)
    return x if x else field.one


@st.composite
def forms(draw, max_dim=12):
    field = draw(st.sampled_from(PROPERTY_FIELDS))
    dim = draw(st.integers(1, max_dim))
    return QuadraticForm(field, tuple(draw(elements(field)) for _ in range(dim)))


@st.composite
def form_pairs(draw):
    """Two forms of one dimension over one field.  The second is a random
    form, a relabeling of the first (permuted, square-scaled, a pair
    <a, b> replaced by <a + b, ab(a + b)>), or the first with two
    coefficients scaled by one element, which keeps the determinant
    class and the dimension but can move Hasse invariants."""
    q1 = draw(forms(max_dim=8))
    field, coeffs = q1.field, list(q1.coeffs)
    kind = draw(st.sampled_from(["random", "relabel", "rescale"]))
    if kind == "random":
        coeffs = [draw(elements(field)) for _ in coeffs]
    elif kind == "relabel":
        coeffs = draw(st.permutations(coeffs))
        coeffs = [c * draw(elements(field)) ** 2 for c in coeffs]
        if len(coeffs) > 1 and coeffs[0] + coeffs[1]:
            a, b = coeffs[0], coeffs[1]
            coeffs[:2] = [a + b, a * b * (a + b)]
    elif len(coeffs) > 1:
        u = draw(elements(field))
        i, j = draw(st.permutations(range(len(coeffs))))[:2]
        coeffs[i], coeffs[j] = coeffs[i] * u, coeffs[j] * u
    return q1, QuadraticForm(field, tuple(coeffs))


class TestConstruction:
    def test_zero_coefficient_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            diagonal_form(QQ, 1, 0, 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            QuadraticForm(QQ, ())

    def test_coercion_and_dim(self):
        q = diagonal_form(QQ, 1, Fraction(-3, 2), 5)
        assert q.dim == 3
        assert q.coeffs[1] == QQ.element(Fraction(-3, 2))

    def test_orthogonal_sum_concatenates(self):
        q = orthogonal_sum(diagonal_form(QQ, 1, 2), diagonal_form(QQ, -3))
        assert q.coeffs == diagonal_form(QQ, 1, 2, -3).coeffs

    def test_orthogonal_sum_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            orthogonal_sum(diagonal_form(QQ, 1), diagonal_form(Field(5), 1))


class TestSquareClasses:
    def test_scaling_by_squares(self):
        k = Field(5)
        for x in (QQ.element(-6), k.element(2, 1), k.sqrt_d):
            t = x.field.element(Fraction(9, 4))
            assert same_square_class(x, x * t)
            assert not same_square_class(x, -x) or is_global_square(-x * x.inverse())

    def test_representative_stays_in_class(self):
        for c in (8, -27, Fraction(50, 9), Fraction(-1, 3)):
            x = QQ.element(c)
            rep = square_class_rep(x)
            assert same_square_class(x, rep)
            assert square_class_rep(x * QQ.element(49)) == rep

    @PROPERTY
    @given(st.sampled_from(PROPERTY_FIELDS).flatmap(lambda k: st.tuples(elements(k), elements(k))))
    def test_representative_matches_fraction_route(self, xy):
        # the integer route gives the coordinates the Fraction route gave
        x, y = xy
        for z in (x, x * y, x * y * y * Fraction(4, 9), x / 12):
            rep = square_class_rep(z)
            assert (rep.a0, rep.a1) == oracles.square_class_rep_by_fractions(z), str(z)
            assert same_square_class(z, rep)


class TestLocalInvariants:
    def test_reference_values(self):
        q = diagonal_form(QQ, 1, 1, -3)
        v2 = places_above(QQ, 2)[0]
        inv = local_invariants(q, v2)
        assert inv.dim == 3
        assert same_square_class(inv.det_class, QQ.element(-3))
        assert inv.hasse == 1
        assert inv.signature is None
        at_inf = local_invariants(q, QQ.real_places()[0])
        assert at_inf.signature == (2, 1)

    def test_hasse_against_hilbert_oracle(self):
        """Hasse invariant is the pairwise symbol product, oracle-computed."""
        for _ in range(10):
            q = random_form(RNG.randint(2, 4))
            for p in (2, 3, 5, 7):
                v = places_above(QQ, p)[0]
                expected = 1
                cs = [c.a0 for c in q.coeffs]
                for i in range(len(cs)):
                    for j in range(i + 1, len(cs)):
                        expected *= qp_hilbert(cs[i], cs[j], p)
                assert hasse_invariant(q, v) == expected

    def test_hasse_of_unary_form_is_trivial(self):
        v3 = places_above(QQ, 3)[0]
        assert hasse_invariant(diagonal_form(QQ, 7), v3) == 1

    @PROPERTY
    @given(forms())
    def test_hasse_by_classes_equals_pairwise_product(self, q):
        for v in form_support(q):
            assert hasse_invariant(q, v) == hasse_invariant_pairwise(q, v), str(v)

    def test_hasse_place_field_mismatch(self):
        with pytest.raises(FieldMismatchError):
            hasse_invariant(diagonal_form(QQ, 1, 3), places_above(Field(5), 3)[0])


class TestSignatures:
    def test_rational(self):
        q = diagonal_form(QQ, 1, -2, 3, -4)
        assert signature_at(q, QQ.real_places()[0]) == (2, 2)

    def test_quadratic_field_embeddings_differ(self):
        k = Field(5)
        q = diagonal_form(k, k.one, k.sqrt_d)
        v0, v1 = k.real_places()
        assert signature_at(q, v0) == (2, 0)
        assert signature_at(q, v1) == (1, 1)

    def test_finite_place_rejected(self):
        with pytest.raises(Exception):
            signature_at(diagonal_form(QQ, 1), places_above(QQ, 2)[0])


class TestLocalIsotropy:
    def test_unary_never(self):
        for v in [QQ.real_places()[0], places_above(QQ, 3)[0]]:
            assert not isotropic_at(diagonal_form(QQ, 5), v)

    def test_binary_iff_negative_determinant_square(self):
        for _ in range(25):
            a, b = RNG.choice(COEFF_POOL), RNG.choice(COEFF_POOL)
            q = diagonal_form(QQ, a, b)
            for p in (2, 3, 5, 7):
                v = places_above(QQ, p)[0]
                assert isotropic_at(q, v) == qp_is_square(Fraction(-a * b), p)

    def test_ternary_against_enumeration_oracle(self):
        for _ in range(10):
            coeffs = [RNG.choice(COEFF_POOL) for _ in range(3)]
            q = diagonal_form(QQ, *coeffs)
            for p in (2, 3, 5):
                v = places_above(QQ, p)[0]
                assert isotropic_at(q, v) == qp_ternary_isotropic_fast(*coeffs, p)

    def test_dim_five_always_isotropic_at_finite_places(self):
        for _ in range(10):
            q = random_form(5)
            for p in (2, 3, 5, 7, 11):
                assert isotropic_at(q, places_above(QQ, p)[0])

    def test_real_isotropy_is_indefiniteness(self):
        v = QQ.real_places()[0]
        assert isotropic_at(diagonal_form(QQ, 1, -1), v)
        assert not isotropic_at(diagonal_form(QQ, 1, 2, 3), v)
        assert not isotropic_at(diagonal_form(QQ, -1, -2), v)

    def test_sum_of_two_squares_versus_three(self):
        """x^2 + y^2 = 3 z^2 has no 2-adic or 3-adic solution."""
        q = diagonal_form(QQ, 1, 1, -3)
        assert not isotropic_at(q, places_above(QQ, 3)[0])
        assert not isotropic_at(q, places_above(QQ, 2)[0])
        assert isotropic_at(q, places_above(QQ, 5)[0])
        assert isotropic_at(q, QQ.real_places()[0])

    def test_four_squares_anisotropic_only_at_two(self):
        q = diagonal_form(QQ, 1, 1, 1, 1)
        assert not isotropic_at(q, places_above(QQ, 2)[0])
        for p in (3, 5, 7, 13):
            assert isotropic_at(q, places_above(QQ, p)[0])

    def test_split_place_branches_decided_independently(self):
        # 6 + 4*sqrt(5) has odd valuation at one place over 11 (anisotropic
        # there) while its image at the other is the square 26 mod 11 = 4.
        k = Field(5)
        u = k.element(6, 4)
        q = diagonal_form(k, k.one, -u)
        w1, w2 = places_above(k, 11)
        assert isotropic_at(q, w1) == is_local_square(u, w1)
        assert isotropic_at(q, w2) == is_local_square(u, w2)
        assert isotropic_at(q, w1) != isotropic_at(q, w2)


class TestGlobalIsotropy:
    def test_rational_reference_cases(self):
        assert isotropic_global(diagonal_form(QQ, 1, 1, -2))
        assert not isotropic_global(diagonal_form(QQ, 1, 1, -3))
        assert not isotropic_global(diagonal_form(QQ, 1, 1, 1, -7))
        assert isotropic_global(diagonal_form(QQ, 1, 1, 1, 1, -7))
        assert not isotropic_global(diagonal_form(QQ, 1, 1, 1, 1, 7))
        assert not isotropic_global(diagonal_form(QQ, -1, -1, -1))

    def test_binary_reduces_to_global_squares(self):
        assert isotropic_global(diagonal_form(QQ, 1, -4))
        assert not isotropic_global(diagonal_form(QQ, 1, -2))
        assert isotropic_global(diagonal_form(QQ, 3, -27))

    def test_hyperbolic_summand_forces_isotropy(self):
        for _ in range(8):
            q = orthogonal_sum(diagonal_form(QQ, 1, -1), random_form(RNG.randint(1, 3)))
            assert isotropic_global(q)

    def test_unit_locally_square_on_support_but_not_globally(self):
        """Support-local checks cannot decide binary forms.

        The unit u = 35 + 6*sqrt(34) is totally positive and a local square
        at both finite places in the support of <1, -u> (the ramified places
        over 2 and 17), yet it is not a global square: the form is isotropic
        at every place of its support and still anisotropic over the field.
        Only the exact global square test gets this right.
        """
        k = Field(34)
        u = k.element(35, 6)
        assert u.norm() == 1
        assert all(sign_at_real_place(u, v) > 0 for v in k.real_places())
        assert not is_global_square(u)
        q = diagonal_form(k, k.one, -u)
        for v in form_support(q):
            assert isotropic_at(q, v)
        assert not isotropic_global(q)
        # the obstruction is visible away from the support, e.g. over 3
        assert not any(is_local_square(u, w) for w in places_above(k, 3))

    def test_indefinite_everywhere_dim_five_over_quadratic_field(self):
        k = Field(5)
        q = diagonal_form(k, 1, 1, 1, 1, -3)
        assert isotropic_global(q)

    def test_totally_definite_forms_are_anisotropic(self):
        k = Field(2)
        q = diagonal_form(k, k.one, k.element(3, 1))  # 3 + sqrt(2) > 0 at both
        assert not isotropic_global(q)

    def test_global_matches_support_scan_in_dim_three_plus(self):
        """Hasse-Minkowski: for dim >= 3 only support places can obstruct."""
        for _ in range(15):
            q = random_form(RNG.randint(3, 4))
            expected = all(isotropic_at(q, v) for v in form_support(q))
            assert isotropic_global(q) == expected


class TestIsometry:
    def test_two_squares_represent_two(self):
        assert forms_isometric(diagonal_form(QQ, 1, 1), diagonal_form(QQ, 2, 2))

    def test_two_squares_do_not_represent_three(self):
        assert not forms_isometric(diagonal_form(QQ, 1, 1), diagonal_form(QQ, 3, 3))

    def test_signature_obstruction(self):
        assert not forms_isometric(diagonal_form(QQ, 1, 1), diagonal_form(QQ, 1, -1))
        k = Field(5)
        assert not forms_isometric(
            diagonal_form(k, k.one, k.one), diagonal_form(k, k.sqrt_d, k.sqrt_d)
        )

    def test_hyperbolic_plane_is_unique(self):
        h = diagonal_form(QQ, 1, -1)
        assert forms_isometric(h, diagonal_form(QQ, 3, -3))
        assert forms_isometric(h, diagonal_form(QQ, 1, -4))
        assert forms_isometric(h, diagonal_form(QQ, 2, -2))

    def test_permutation_and_square_scaling_invariance(self):
        for _ in range(12):
            dim = RNG.randint(2, 5)
            coeffs = [RNG.choice(COEFF_POOL) for _ in range(dim)]
            q1 = diagonal_form(QQ, *coeffs)
            shuffled = coeffs[:]
            RNG.shuffle(shuffled)
            scaled = [c * RNG.choice([1, 4, 9, 25]) for c in shuffled]
            assert forms_isometric(q1, diagonal_form(QQ, *scaled))

    def test_dimension_mismatch_is_not_isometric(self):
        assert not forms_isometric(diagonal_form(QQ, 1, 1), diagonal_form(QQ, 1, 1, 1))

    def test_field_mismatch_rejected(self):
        with pytest.raises(FieldMismatchError):
            forms_isometric(diagonal_form(QQ, 1, 1), diagonal_form(Field(5), 1, 1))

    def test_isometric_forms_share_local_invariants(self):
        pairs = [
            (diagonal_form(QQ, 1, 1), diagonal_form(QQ, 2, 2)),
            (diagonal_form(QQ, 1, -1, 6), diagonal_form(QQ, 6, 4, -9)),
        ]
        for q1, q2 in pairs:
            if not forms_isometric(q1, q2):
                continue
            for v in set(form_support(q1)) | set(form_support(q2)):
                i1, i2 = local_invariants(q1, v), local_invariants(q2, v)
                assert i1.dim == i2.dim
                assert i1.hasse == i2.hasse
                assert i1.signature == i2.signature
                assert same_square_class(i1.det_class, i2.det_class)

    def test_stable_under_orthogonal_sum(self):
        q1, q2 = diagonal_form(QQ, 1, 1), diagonal_form(QQ, 2, 2)
        r = diagonal_form(QQ, -7, 3)
        assert forms_isometric(orthogonal_sum(q1, r), orthogonal_sum(q2, r))

    def test_isometry_over_quadratic_field(self):
        k = Field(5)
        q1 = diagonal_form(k, k.one, -k.element(9, 4))  # 9+4*sqrt(5) = (2+sqrt(5))^2
        q2 = diagonal_form(k, k.one, -k.one)
        assert forms_isometric(q1, q2)

    @PROPERTY
    @given(form_pairs())
    def test_matches_comparison_at_every_place(self, pair):
        q1, q2 = pair
        assert forms_isometric(q1, q2) == forms_isometric_every_place(q1, q2)


class TestTwoSplit:
    """2 splits in Q(sqrt(17)): both dyadic places have completion Q_2,
    and the invariants there match the Q_2 kernel on the 2-adic images."""

    k = Field(17)
    forms = [
        diagonal_form(k, 1, 3, -5),
        diagonal_form(k, k.element(1, 1), -3, k.element(Fraction(5, 2), -1)),
        diagonal_form(k, k.sqrt_d, -1, 2, k.element(3, -1)),
        diagonal_form(k, -1, -1, -1),
    ]

    def test_isometry_matches_every_place(self):
        q1 = diagonal_form(self.k, 1, 1)
        q2 = diagonal_form(self.k, 2, 2)
        assert forms_isometric(q1, q2) and forms_isometric_every_place(q1, q2)
        # same dimension, determinant and signatures; the Hasse invariants
        # differ at 2#1 and 2#2 and nowhere else
        q3 = diagonal_form(self.k, 1, -6)
        q4 = diagonal_form(self.k, 2, -12)
        differ = [w for w in form_support(q3) if hasse_invariant(q3, w) != hasse_invariant(q4, w)]
        assert differ == list(places_above(self.k, 2))
        assert not forms_isometric(q3, q4) and not forms_isometric_every_place(q3, q4)
        for a in self.forms:
            for b in self.forms:
                if a.dim == b.dim:
                    assert forms_isometric(a, b) == forms_isometric_every_place(a, b)

    def test_hasse_at_each_dyadic_place_matches_the_kernel(self):
        for q in self.forms:
            for w in places_above(self.k, 2):
                expected = 1
                for i, a in enumerate(q.coeffs):
                    for b in q.coeffs[i + 1:]:
                        expected *= hilbert_symbol_by_kind(a, b, w)
                assert hasse_invariant(q, w) == expected, (str(q), str(w))

    def test_ternary_isotropy_matches_the_symbol_oracle(self):
        """<a, b, c> is isotropic exactly when (-ac, -bc) is +1 at every
        place (Hasse-Minkowski)."""
        for q in self.forms:
            if q.dim != 3:
                continue
            a, b, c = q.coeffs
            expected = all(
                hilbert_symbol_by_kind(-a * c, -b * c, w) == 1 for w in form_support(q)
            )
            assert isotropic_global(q) == expected, str(q)
        assert not isotropic_global(diagonal_form(self.k, -1, -1, -1))


class TestFormSupport:
    def test_contains_infinite_and_dyadic_places(self):
        sup = {str(v) for v in form_support(diagonal_form(QQ, 1, 1, -3))}
        assert {"inf", "2", "3"} <= sup

    def test_denominator_primes_included(self):
        k = Field(5)
        u = k.element(21, 8) / 11  # norm 1, but valuations (1, -1) over 11
        sup = form_support(diagonal_form(k, k.one, -u))
        assert {v.p for v in sup if v.is_finite} >= {2, 5, 11}
