"""Hilbert symbols against enumeration oracles and reciprocity."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quathyp.errors import FieldMismatchError, UnsupportedDyadicPlaceError
from quathyp.fields import QQ, Field, Place, places_above
from quathyp.symbols import by_reciprocity, hilbert_symbol, product_formula_check, symbol_support

import oracles

#: Q, 2 inert (Q(sqrt5), Q(sqrt13)) and 2 ramified (Q(sqrt3), Q(sqrt6),
#: Q(sqrt7), Q(sqrt2)): every field with a single dyadic place
PROPERTY_FIELDS = [QQ, Field(5), Field(3), Field(6), Field(13), Field(7), Field(2)]

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)


@st.composite
def elements(draw, field):
    """Small elements whose norms and denominators reach split, inert and
    ramified primes of every property field."""
    den = st.sampled_from([1, 1, 1, 2, 3, 5, 7, 11])
    a0 = Fraction(draw(st.integers(-40, 40)), draw(den))
    a1 = 0 if field.is_rational else Fraction(draw(st.integers(-12, 12)), draw(den))
    x = field.element(a0, a1)
    return x if x else field.one


@st.composite
def element_pairs(draw):
    field = draw(st.sampled_from(PROPERTY_FIELDS))
    return draw(elements(field)), draw(elements(field))


def random_rational(rng, bound=60):
    x = Fraction(rng.randint(-bound, bound), rng.randint(1, 20))
    return x if x else Fraction(1)


class TestRationalSymbols:
    def test_against_isotropy_enumeration(self):
        """(a,b)_p must match the brute-force solvability of
        z^2 = a x^2 + b y^2 over Z/p^k with lifting checks."""
        rng = random.Random(101)
        values = [-1, 2, -2, 3, 5, -5, 7, -7, 10, 15, -30, 6]
        for p in (2, 3, 5, 7):
            v = Place.finite(QQ, p)
            for _ in range(25):
                a, b = rng.choice(values), rng.choice(values)
                got = hilbert_symbol(QQ.element(a), QQ.element(b), v)
                assert got == oracles.qp_hilbert(Fraction(a), Fraction(b), p), (a, b, p)

    def test_real_symbol(self):
        v = QQ.real_places()[0]
        assert hilbert_symbol(QQ.element(-1), QQ.element(-1), v) == -1
        assert hilbert_symbol(QQ.element(-1), QQ.element(2), v) == 1
        assert hilbert_symbol(QQ.element(3), QQ.element(5), v) == 1

    def test_frozen_dyadic_values(self):
        v2 = Place.finite(QQ, 2)
        minus_one = QQ.element(-1)
        assert hilbert_symbol(minus_one, minus_one, v2) == -1
        assert hilbert_symbol(QQ.element(2), QQ.element(5), v2) == -1
        assert hilbert_symbol(QQ.element(17), minus_one, v2) == 1

    def test_frozen_odd_values(self):
        v3 = Place.finite(QQ, 3)
        assert hilbert_symbol(QQ.element(-1), QQ.element(-1), v3) == 1
        assert hilbert_symbol(QQ.element(-1), QQ.element(-3), v3) == -1
        v5 = Place.finite(QQ, 5)
        assert hilbert_symbol(QQ.element(-2), QQ.element(-5), v5) == -1

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            hilbert_symbol(QQ.zero, QQ.element(3), Place.finite(QQ, 3))


class TestSymbolAlgebra:
    """Structural identities that pin the symbol beyond spot values."""

    @pytest.mark.parametrize("field", [QQ, Field(5), Field(2)])
    def test_symmetry(self, field):
        rng = random.Random(7)
        places = list(field.real_places())
        for p in (3, 5, 7, 11):
            places.extend(places_above(field, p))
        for _ in range(30):
            a = field.element(rng.randint(-20, 20), 0 if field.is_rational else rng.randint(-5, 5))
            b = field.element(rng.randint(-20, 20), 0 if field.is_rational else rng.randint(-5, 5))
            if not a or not b:
                continue
            for v in places:
                assert hilbert_symbol(a, b, v) == hilbert_symbol(b, a, v)

    @pytest.mark.parametrize("field", [QQ, Field(5)])
    def test_bimultiplicative(self, field):
        rng = random.Random(13)
        places = list(field.real_places())
        for p in (2, 3, 5, 7, 11, 13):
            places.extend(places_above(field, p))
        for _ in range(25):
            a = field.element(rng.randint(-15, 15), 0 if field.is_rational else rng.randint(-4, 4))
            b1 = field.element(rng.randint(-15, 15), 0 if field.is_rational else rng.randint(-4, 4))
            b2 = field.element(rng.randint(-15, 15), 0 if field.is_rational else rng.randint(-4, 4))
            if not a or not b1 or not b2:
                continue
            for v in places:
                lhs = hilbert_symbol(a, b1 * b2, v)
                rhs = hilbert_symbol(a, b1, v) * hilbert_symbol(a, b2, v)
                assert lhs == rhs, (str(a), str(b1), str(b2), str(v))

    def test_square_class_invariance(self):
        rng = random.Random(19)
        k = Field(5)
        for _ in range(20):
            a = k.element(rng.randint(-10, 10), rng.randint(-10, 10))
            b = k.element(rng.randint(-10, 10), rng.randint(-10, 10))
            s = k.element(rng.randint(1, 6), rng.randint(-3, 3))
            if not a or not b or not s:
                continue
            for p in (3, 7, 11):
                for v in places_above(k, p):
                    assert hilbert_symbol(a * s * s, b, v) == hilbert_symbol(a, b, v)

    def test_norm_value_gives_plus_one(self):
        """(a, b) = +1 whenever b is a norm from k(sqrt(a)); in
        particular (a, -a) = +1 and (a, 1-a) = +1 always."""
        rng = random.Random(29)
        for field in (QQ, Field(5), Field(13)):
            places = list(field.real_places())
            for p in (2, 3, 5, 7):
                places.extend(places_above(field, p))
            for _ in range(15):
                a = field.element(rng.randint(-12, 12), 0 if field.is_rational else rng.randint(-4, 4))
                if not a:
                    continue
                one_minus = field.one - a
                for v in places:
                    assert hilbert_symbol(a, -a, v) == 1
                    if one_minus:
                        assert hilbert_symbol(a, one_minus, v) == 1


class TestInertSymbolOracle:
    def test_tame_symbol_via_fp2_character(self):
        """At an odd inert place the tame formula evaluated with an
        independent F_p^2 character must agree."""
        k = Field(5)
        rng = random.Random(31)
        for p in (3, 7, 13, 17):
            w = places_above(k, p)[0]
            for _ in range(20):
                a = k.element(rng.randint(-20, 20), rng.randint(-20, 20))
                b = k.element(rng.randint(-20, 20), rng.randint(-20, 20))
                if not a or not b:
                    continue
                from quathyp.fields import local_valuation

                alpha, beta = local_valuation(a, w), local_valuation(b, w)
                ua = a / k.element(p) ** alpha
                ub = b / k.element(p) ** beta
                chi = lambda u: 1 if oracles.fp2_is_square(u.a0, u.a1, 5, p) else -1
                chi_m1 = 1  # -1 is always a square in F_{p^2}
                expected = (chi_m1 ** (alpha * beta)) * chi(ua) ** beta * chi(ub) ** alpha
                assert hilbert_symbol(a, b, w) == expected, (str(a), str(b), p)


class TestSymbolByKind:
    @PROPERTY
    @given(element_pairs())
    def test_matches_the_kernel_per_kind_of_place(self, pair):
        """The symbol read off two square-class keys equals the real, tame
        and dyadic kernels at every support place but the lone dyadic
        place of a quadratic field."""
        a, b = pair
        for v in symbol_support(a, b):
            if v.is_dyadic and not v.field.is_rational:
                continue
            assert hilbert_symbol(a, b, v) == oracles.hilbert_symbol_by_kind(a, b, v), (
                str(a), str(b), str(v))


class TestSupport:
    def test_superset_guarantee(self):
        """Places outside the computed support must carry symbol +1; we
        verify against every place over primes up to 60."""
        rng = random.Random(37)
        check_primes = [p for p in range(2, 60) if oracles.sympy.isprime(p)]
        for field in (QQ, Field(5), Field(2)):
            for _ in range(12):
                a = field.element(rng.randint(-30, 30), 0 if field.is_rational else rng.randint(-6, 6))
                b = field.element(rng.randint(-30, 30), 0 if field.is_rational else rng.randint(-6, 6))
                if not a or not b:
                    continue
                support = set(symbol_support(a, b))
                for p in check_primes:
                    for w in places_above(field, p):
                        if w in support:
                            continue
                        if w.is_dyadic and not field.is_rational:
                            continue  # inferred places are always in support
                        assert hilbert_symbol(a, b, w) == 1, (str(a), str(b), str(w))

    def test_support_covers_coordinate_denominators(self):
        k = Field(5)
        x = k.element(Fraction(21, 11), Fraction(8, 11))
        support = symbol_support(x, k.one)
        assert any(v.p == 11 for v in support if v.is_finite)
        # n-ary: the joint support of several elements is the union of
        # their pairwise supports, and every element is checked
        y = k.element(7, -3)
        joint = symbol_support(x, k.one, y)
        assert set(joint) == set(support) | set(symbol_support(y, k.one))
        assert list(joint) == sorted(joint, key=Place.sort_key)
        with pytest.raises(ValueError):
            symbol_support()
        with pytest.raises(ValueError):
            symbol_support(x, k.one, k.element(0))
        with pytest.raises(FieldMismatchError):
            symbol_support(x, QQ.one, k.one)


class TestReciprocity:
    def test_product_formula_rational(self):
        rng = random.Random(41)
        for _ in range(300):
            a, b = random_rational(rng), random_rational(rng)
            assert product_formula_check(QQ.element(a), QQ.element(b))

    def test_product_formula_quadratic_inert_two(self):
        rng = random.Random(43)
        k = Field(5)
        for _ in range(60):
            a = k.element(random_rational(rng, 20), random_rational(rng, 20))
            b = k.element(random_rational(rng, 20), random_rational(rng, 20))
            assert product_formula_check(a, b)

    def test_product_formula_quadratic_ramified_two(self):
        rng = random.Random(47)
        k = Field(3)
        for _ in range(40):
            a = k.element(rng.randint(-20, 20), rng.randint(-20, 20))
            b = k.element(rng.randint(-20, 20), rng.randint(-20, 20))
            if not a or not b:
                continue
            assert product_formula_check(a, b)


class TestDyadicQuadraticConsistency:
    """The lone dyadic symbol over a quadratic field is inferred from
    reciprocity, so we check it against facts it cannot see directly."""

    def test_known_split_algebra_everywhere(self):
        # (x, 1-x) splits; all symbols +1 including the inferred dyadic one
        k = Field(5)
        w2 = places_above(k, 2)[0]
        for a0, a1 in [(3, 1), (2, 1), (-1, 2), (7, -2)]:
            a = k.element(a0, a1)
            b = k.one - a
            assert hilbert_symbol(a, b, w2) == 1

    def test_dyadic_square_forces_plus_one(self):
        k = Field(5)
        w2 = places_above(k, 2)[0]
        rng = random.Random(53)
        from quathyp.fields import is_local_square

        for _ in range(25):
            a = k.element(rng.randint(-12, 12), rng.randint(-12, 12))
            b = k.element(rng.randint(-12, 12), rng.randint(-12, 12))
            if not a or not b:
                continue
            if is_local_square(a, w2):
                assert hilbert_symbol(a, b, w2) == 1

    def test_split_dyadic_place_unsupported(self):
        k = Field(17)
        w = places_above(k, 2)[0]
        with pytest.raises(UnsupportedDyadicPlaceError):
            hilbert_symbol(k.element(3), k.element(5), w)

    def test_by_reciprocity_is_the_product_of_the_other_places(self):
        k = Field(5)
        support = symbol_support(k.element(3, 1), k.element(-7))
        w2 = places_above(k, 2)[0]
        seen = []
        values = {v: (-1 if v.is_real else 1) for v in support}
        got = by_reciprocity(w2, support, lambda v: seen.append(v) or values[v])
        assert seen == [v for v in support if v != w2]
        assert got == (-1) ** len(k.real_places())
        split = symbol_support(Field(17).element(3), Field(17).element(5))
        with pytest.raises(UnsupportedDyadicPlaceError, match="2 splits"):
            by_reciprocity(split[2], split, lambda v: pytest.fail("evaluated a place"))
