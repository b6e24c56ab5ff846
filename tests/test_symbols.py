"""Hilbert symbols against enumeration oracles and reciprocity."""

import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from quathyp import numtheory
from quathyp.errors import FieldMismatchError
from quathyp.fields import (
    QQ,
    Field,
    Place,
    _dyadic_unit_classes,
    dyadic_class_element,
    is_local_square,
    local_square_class,
    places_above,
)
from quathyp.symbols import class_symbol, hilbert_symbol, product_formula_check, symbol_support

import oracles

#: Q, 2 inert (Q(sqrt5), Q(sqrt13)), 2 ramified (Q(sqrt3), Q(sqrt6),
#: Q(sqrt7), Q(sqrt2)) and 2 split (Q(sqrt17), Q(sqrt41)): every kind of
#: dyadic place
PROPERTY_FIELDS = [
    QQ, Field(5), Field(3), Field(6), Field(13), Field(7), Field(2), Field(17), Field(41),
]

#: every squarefree 1 < d <= 50
SQUAREFREE_D = [d for d in range(2, 51) if all(d % (q * q) for q in range(2, 8))]

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
        and dyadic kernels at every support place, and reciprocity over
        those kernels at the lone dyadic place of a quadratic field."""
        a, b = pair
        for v in symbol_support(a, b):
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

    @pytest.mark.parametrize("d", SQUAREFREE_D)
    @settings(max_examples=12, deadline=None, derandomize=True, database=None)
    @given(data=st.data())
    def test_product_formula_every_small_field(self, d, data):
        """Each factor comes from the two elements' own keys, dyadic
        places included, so this fails when any key is wrong."""
        field = Field(d)
        a, b = data.draw(elements(field)), data.draw(elements(field))
        assert product_formula_check(a, b), (str(a), str(b))


#: 2 inert (5, 13, 21, 29) and 2 ramified (2, 3, 6, 7, 10, 11)
TABLE_D = [2, 3, 5, 6, 7, 10, 11, 13, 21, 29]


def dyadic_keys(d):
    """The 16 square-class keys at the dyadic place of Q(sqrt(d)), 2 inert
    or ramified."""
    return [(n, c) for n in (0, 1) for c in sorted(set(_dyadic_unit_classes(d).values()))]


def _witness(field, ra, rb, v):
    """x, y with ra x^2 + rb y^2 a nonzero square at v: found by the
    library's square test, certified by the digit-search oracle.  x and
    y run over i + j*theta, theta = (1+sqrt(d))/2 (2 inert) or sqrt(d)."""
    theta = field.element(Fraction(1, 2), Fraction(1, 2)) if field.d % 8 == 5 else field.sqrt_d
    box = [field.element(i) + j * theta for i in range(-3, 4) for j in range(-3, 4)]
    for x in box:
        for y in box:
            z = ra * x * x + rb * y * y
            if z and is_local_square(z, v) and oracles.is_local_square_by_kind(z, v):
                return x, y
    return None


class TestDyadicTable:
    """The dyadic symbol table of a field in which 2 is inert or ramified.

    Symmetric, bilinear and nondegenerate, with a certified solution of
    z^2 = a x^2 + b y^2 behind every +1: its +1 set then lies in the true
    symbol's, and two nondegenerate bilinear forms on the 16 classes with
    that property are equal."""

    @pytest.mark.parametrize("d", TABLE_D)
    def test_table_is_the_hilbert_symbol(self, d):
        field = Field(d)
        v = places_above(field, 2)[0]
        keys = dyadic_keys(d)
        assert len(keys) == 16
        reps = {k: dyadic_class_element(field, k) for k in keys}
        assert all(local_square_class(reps[k], v) == k for k in keys)
        table = {(ka, kb): class_symbol(ka, kb, v) for ka in keys for kb in keys}
        for ka in keys:
            assert any(table[ka, kb] == -1 for kb in keys) == (ka != (0, 1))
            for kb in keys:
                assert table[ka, kb] == table[kb, ka]
                for kc in keys:
                    kbc = local_square_class(reps[kb] * reps[kc], v)
                    assert table[ka, kbc] == table[ka, kb] * table[ka, kc]
        for i, ka in enumerate(keys):
            for kb in keys[i:]:
                if table[ka, kb] == 1:
                    assert _witness(field, reps[ka], reps[kb], v), (d, ka, kb)

    @pytest.mark.parametrize("residue", [3, 5])
    def test_large_field_needs_no_hard_factoring(self, residue, monkeypatch):
        """Over Q(sqrt(p)) for a 200-bit prime p (2 ramified or inert),
        the class representatives' norms split by trial division and one
        primality test, so no table entry runs Pollard-Brent."""
        p = sympy.nextprime(2**200)
        while p % 8 != residue:
            p = sympy.nextprime(p)
        k = Field(p)
        v = places_above(k, 2)[0]
        monkeypatch.setattr(numtheory, "_pollard_brent", lambda n: pytest.fail(f"split {n}"))
        keys = dyadic_keys(p)
        kb, kc = keys[5], keys[12]
        kbc = local_square_class(dyadic_class_element(k, kb) * dyadic_class_element(k, kc), v)
        for ka in keys:
            assert local_square_class(dyadic_class_element(k, ka), v) == ka
            assert class_symbol(ka, kb, v) * class_symbol(ka, kc, v) == class_symbol(ka, kbc, v)
        assert product_formula_check(k.sqrt_d, k.element(-3))


class TestDyadicQuadraticConsistency:
    """The dyadic symbols over a quadratic field against facts they
    cannot see directly."""

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

    def test_split_dyadic_places_read_the_q2_images(self):
        """When 2 splits, sqrt(17) goes to the 2-adic root r = 1 mod 4 at
        2#1 and to -r at 2#2, so (sqrt(17), -1) is +1 at 2#1 and -1 at
        2#2; random symbols at both places match the Q_2 kernel."""
        k = Field(17)
        w1, w2 = places_above(k, 2)
        assert hilbert_symbol(k.sqrt_d, k.element(-1), w1) == 1
        assert hilbert_symbol(k.sqrt_d, k.element(-1), w2) == -1
        rng = random.Random(59)
        for d in (17, 33, 41):
            k = Field(d)
            for _ in range(20):
                a = k.element(random_rational(rng, 20), random_rational(rng, 6))
                b = k.element(random_rational(rng, 20), random_rational(rng, 6))
                for w in places_above(k, 2):
                    assert hilbert_symbol(a, b, w) == oracles.hilbert_symbol_by_kind(a, b, w), (
                        str(a), str(b), str(w))

    def test_by_reciprocity_is_the_product_of_the_other_places(self):
        k = Field(5)
        support = symbol_support(k.element(3, 1), k.element(-7))
        w2 = places_above(k, 2)[0]
        seen = []
        values = {v: (-1 if v.is_real else 1) for v in support}
        got = oracles.by_reciprocity(w2, support, lambda v: seen.append(v) or values[v])
        assert seen == [v for v in support if v != w2]
        assert got == (-1) ** len(k.real_places())
        split = symbol_support(Field(17).element(3), Field(17).element(5))
        with pytest.raises(AssertionError, match="a second dyadic place"):
            oracles.by_reciprocity(split[2], split, lambda v: pytest.fail("evaluated a place"))
