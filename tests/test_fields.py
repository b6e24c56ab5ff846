"""Exact field arithmetic, places, and local/global square tests."""

import copy
import math
import pickle
import random
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import quathyp.fields
from quathyp.algebras import quaternion_algebra, ramification_set
from quathyp.errors import FieldMismatchError
from quathyp.fields import (
    QQ,
    SPLIT_FIRST,
    SPLIT_SECOND,
    Field,
    FieldElement,
    Place,
    conjugate_place,
    dyadic_class_element,
    element_support_primes,
    is_global_square,
    is_local_square,
    local_square_class,
    local_valuation,
    places_above,
    sign_at_real_place,
    split_prime,
)
from quathyp.symbols import symbol_support

import oracles
from test_geometry import child_stdout
from test_symbols import PROPERTY, PROPERTY_FIELDS, dyadic_keys, elements

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53]
PRIMES_BELOW_300 = [p for p in range(2, 300) if all(p % q for q in range(2, p))]
FIELDS = [Field(d) for d in (2, 3, 5, 6, 7, 10, 13, 21, 29)]


class TestFieldConstruction:
    def test_rational_field(self):
        assert QQ.is_rational
        assert QQ.degree == 1
        assert len(QQ.real_places()) == 1

    def test_quadratic_field(self):
        k = Field(5)
        assert not k.is_rational
        assert k.degree == 2
        assert k.discriminant == 5
        assert Field(2).discriminant == 8
        assert len(k.real_places()) == 2

    @pytest.mark.parametrize("bad", [1, 0, -5, 4, 12, 45, 50])
    def test_rejects_non_squarefree_or_small(self, bad):
        with pytest.raises(ValueError):
            Field(bad)

    def test_equality(self):
        assert Field(5) == Field(5)
        assert Field(5) != Field(13)
        assert Field(5) != QQ

    @pytest.mark.parametrize("d", [None, 5, 17])
    def test_real_places_are_built_once(self, d):
        k = QQ if d is None else Field(d)
        places = k.real_places()
        assert k.real_places() is places and k._real_places is places
        assert [v.embedding for v in places] == list(range(k.degree))
        assert all(v.is_real and v.field is k for v in places)

    @pytest.mark.parametrize("d", [None, 5])
    def test_real_places_memo_is_not_a_field(self, d):
        filled, empty = Field(d), Field(d)
        filled.real_places()
        assert empty._real_places is None and filled._real_places is not None
        assert filled == empty and hash(filled) == hash(empty) and len({filled, empty}) == 1
        assert repr(filled) == repr(empty) == f"Field(d={d})"
        copies = copy.copy(filled), copy.deepcopy(filled), pickle.loads(pickle.dumps(filled))
        for again in copies:
            assert again == filled and repr(again) == repr(filled) and again._real_places is None

    def test_hashes_repeat_across_processes(self):
        # CPython 3.11 hashes None by its address, which differs from one
        # process to the next; a hash of Q must not depend on it
        code = (
            "from quathyp.fields import QQ, Place; "
            "from quathyp.algebras import quaternion_algebra, ramification_set; "
            "print(hash(QQ), hash(Place.finite(QQ, 7)), "
            "list(ramification_set(quaternion_algebra(QQ, -28, 26))))"
        )
        outputs = {child_stdout(code, PYTHONHASHSEED="0") for _ in range(3)}
        assert len(outputs) == 1


class TestElementArithmetic:
    def test_norm_and_conjugate(self):
        k = Field(5)
        x = k.element(1, 1)  # 1 + sqrt(5)
        assert x.norm() == Fraction(-4)
        assert x.conjugate() == k.element(1, -1)
        assert (x * x.conjugate()).a0 == -4
        assert (x * x.conjugate()).a1 == 0

    def test_inverse_roundtrip(self):
        k = Field(7)
        rng = random.Random(11)
        for _ in range(50):
            x = k.element(
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
                Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
            )
            if not x:
                continue
            assert x * x.inverse() == k.one
            assert x.inverse().inverse() == x

    def test_zero_inverse(self):
        with pytest.raises(ZeroDivisionError):
            QQ.zero.inverse()

    def test_power(self):
        k = Field(2)
        u = k.element(1, 1)  # 1 + sqrt(2), fundamental-unit-ish
        assert u**2 == k.element(3, 2)
        assert u**0 == k.one
        assert u**5 == u * u * u * u * u

    def test_rational_coercion_in_ops(self):
        k = Field(5)
        x = k.sqrt_d
        assert x + 1 == k.element(1, 1)
        assert 2 * x == k.element(0, 2)
        assert (x / 2).a1 == Fraction(1, 2)

    def test_str(self):
        k = Field(5)
        assert str(k.element(1, 2)) == "1 + 2*sqrt(5)"
        assert str(k.element(0, -1)) == "-sqrt(5)"
        assert str(QQ.element(Fraction(-3, 2))) == "-3/2"


@st.composite
def operands(draw, field):
    """Elements with small coordinates (so common factors come up) or
    coordinates up to 2^40 over denominators up to 2^20; 0 included."""
    if draw(st.booleans()):
        return draw(elements(field))

    def coordinate():
        return Fraction(draw(st.integers(-(2**40), 2**40)), draw(st.integers(1, 2**20)))

    return field.element(coordinate(), 0 if field.is_rational else coordinate())


@st.composite
def operand_pairs(draw):
    field = draw(st.sampled_from(PROPERTY_FIELDS))
    return draw(operands(field)), draw(operands(field))


def in_normal_form(x) -> bool:
    return (
        x.den > 0
        and math.gcd(x.n0, x.n1, x.den) == 1
        and (x.n1 == 0 or not x.field.is_rational)
        and all(type(n) is int for n in (x.n0, x.n1, x.den))
    )


ARITHMETIC = settings(max_examples=150, deadline=None, derandomize=True, database=None)


class TestIntegerCoordinates:
    """Elements are integers (n0 + n1 sqrt(d)) / den in normal form; every
    operation agrees with arithmetic on Fraction coordinate pairs."""

    @ARITHMETIC
    @given(operand_pairs())
    def test_operations_match_fraction_pairs(self, xy):
        x, y = xy
        d = x.field.d or 0
        px, py = oracles.pair(x), oracles.pair(y)
        q = Fraction(-7, 12)
        pq = (q, Fraction(0))
        cases = [
            (x + y, oracles.pair_add(px, py)),
            (x - y, oracles.pair_add(px, oracles.pair_neg(py))),
            (x * y, oracles.pair_mul(px, py, d)),
            (-x, oracles.pair_neg(px)),
            (x.conjugate(), oracles.pair_conjugate(px)),
            (x + 3, oracles.pair_add(px, (3, 0))),
            (3 - x, oracles.pair_add((3, 0), oracles.pair_neg(px))),
            (q * x, oracles.pair_mul(pq, px, d)),
            (x ** 3, oracles.pair_pow(px, 3, d)),
            (x ** 0, (1, 0)),
        ]
        if y:
            cases += [
                (x / y, oracles.pair_mul(px, oracles.pair_inverse(py, d), d)),
                (y.inverse(), oracles.pair_inverse(py, d)),
                (q / y, oracles.pair_mul(pq, oracles.pair_inverse(py, d), d)),
                (y ** -2, oracles.pair_pow(py, -2, d)),
                (y ** -3, oracles.pair_pow(py, -3, d)),
            ]
        if x:
            cases.append((x / q, oracles.pair_mul(px, oracles.pair_inverse(pq, d), d)))
        for i, (got, want) in enumerate(cases):
            assert oracles.pair(got) == want, (i, str(x), str(y))
            assert in_normal_form(got), (i, got.n0, got.n1, got.den)
        for z, pz in ((x, px), (y, py)):
            assert z.norm() == oracles.pair_norm(pz, d) and type(z.norm()) is Fraction
            assert z.trace() == oracles.pair_trace(pz, d) and type(z.trace()) is Fraction

    @ARITHMETIC
    @given(operand_pairs())
    def test_equal_values_by_different_routes(self, xy):
        x, y = xy
        if not y:
            y = x.field.one
        routes = [
            (x * y) / y,
            (x + y) - y,
            x * 1 + 0,
            (x * 6) / Fraction(6),
            -(-x),
            x.conjugate().conjugate(),
            FieldElement(x.field, x.a0, x.a1),
            x.field.element(str(x.a0), str(x.a1)),
        ]
        if x:
            routes += [x.inverse().inverse(), (x**2) / x, x**-1 * x**2]
        for i, z in enumerate(routes):
            assert z == x and not z != x, (i, str(x), str(y))
            assert hash(z) == hash(x) and repr(z) == repr(x), i
            assert (z.n0, z.n1, z.den) == (x.n0, x.n1, x.den), i
            assert in_normal_form(z), i

    @ARITHMETIC
    @given(operand_pairs())
    def test_coordinates_are_the_fractions(self, xy):
        for x in xy:
            assert type(x.a0) is Fraction and type(x.a1) is Fraction
            assert (x.a0, x.a1) == (Fraction(x.n0, x.den), Fraction(x.n1, x.den))
            assert repr(x) == f"FieldElement(field={x.field!r}, a0={x.a0!r}, a1={x.a1!r})"
            assert in_normal_form(x)

    @ARITHMETIC
    @given(operand_pairs())
    def test_global_squares_match_fraction_route(self, xy):
        x, y = xy
        for z in (x, y, x * x, -(x * x), x * x * x.field.element(x.field.d or 4), x * y * y):
            assert is_global_square(z) == oracles.is_global_square_by_fractions(z), str(z)

    def test_known_normal_forms(self):
        k = Field(5)
        x = k.element(Fraction(3, 4), Fraction(-5, 6))
        assert (x.n0, x.n1, x.den) == (9, -10, 12)
        assert (k.element(Fraction(2, 4), 1).n0, k.element(Fraction(2, 4), 1).den) == (1, 2)
        for z in (k.zero, x - x, QQ.element(0), QQ.element(5) - 5):
            assert (z.n0, z.n1, z.den) == (0, 0, 1) and not z
        # an inverse whose norm is negative: the sign moves to the numerators
        y = k.element(1, 1).inverse()  # (1 - sqrt5)/(-4) = (-1 + sqrt5)/4
        assert (y.n0, y.n1, y.den) == (-1, 1, 4)
        assert QQ.element(Fraction(-3, 6)).inverse().den == 1

    @pytest.mark.parametrize("field", PROPERTY_FIELDS, ids=str)
    def test_zero_has_no_inverse(self, field):
        x = field.element(Fraction(5, 3))
        for attempt in (
            lambda: field.zero.inverse(),
            lambda: (x - x).inverse(),
            lambda: x / field.zero,
            lambda: 1 / field.zero,
            lambda: field.zero ** -1,
        ):
            with pytest.raises(ZeroDivisionError, match="field element 0 has no inverse"):
                attempt()

    def test_other_fields_and_types_refused(self):
        with pytest.raises(FieldMismatchError):
            Field(5).one + Field(13).one
        with pytest.raises(FieldMismatchError):
            Field(5).one * QQ.one
        with pytest.raises(TypeError):
            Field(5).one * 1.5


class TestPlaces:
    def test_split_behavior_matches_root_counting(self):
        for k in FIELDS:
            for p in SMALL_PRIMES:
                assert split_prime(p, k) == oracles.split_prime_kind(p, k.d), (
                    p,
                    k.d,
                )

    def test_places_above_counts(self):
        k = Field(5)
        assert len(places_above(k, 11)) == 2  # 5 is a QR mod 11
        assert len(places_above(k, 2)) == 1
        assert len(places_above(k, 5)) == 1
        assert len(places_above(QQ, 7)) == 1

    def test_places_above_matches_checked_constructor(self):
        for k in PROPERTY_FIELDS:
            for p in PRIMES_BELOW_300:
                if split_prime(p, k) == "split":
                    checked = (Place.finite(k, p, SPLIT_FIRST), Place.finite(k, p, SPLIT_SECOND))
                else:
                    checked = (Place.finite(k, p),)
                above = places_above(k, p)
                assert above == checked, (k, p)
                assert [hash(v) for v in above] == [hash(v) for v in checked]
                assert [v.sort_key() for v in above] == [v.sort_key() for v in checked]

    @pytest.mark.parametrize("n", [0, 1, 4, 15, -7])
    def test_non_primes_rejected(self, n):
        for k in PROPERTY_FIELDS:
            with pytest.raises(ValueError, match="not prime"):
                places_above(k, n)
            for position in (None, SPLIT_FIRST):
                with pytest.raises(ValueError, match="not prime"):
                    Place.finite(k, n, position)

    def test_factored_primes_are_not_tested_again(self, monkeypatch):
        # 20-, 24- and 28-bit primes, inert and split in Q(sqrt5) and Q(sqrt17)
        p20, p24, p28 = 1048573, 16777213, 268435399
        algebras = [
            quaternion_algebra(QQ, -p20 * p24, p28),
            quaternion_algebra(Field(5), -p20, -p24 * p28),
            quaternion_algebra(Field(17), Field(17).element(-p28, 1), p20 * p24),
        ]
        answers = [(symbol_support(D.a, D.b), ramification_set(D)) for D in algebras]
        assert all(p24 in {v.p for v in support} for support, _ in answers)

        def refuse(n):
            raise AssertionError(f"is_prime({n}) called on a factored prime")

        monkeypatch.setattr(quathyp.fields, "is_prime", refuse)
        assert [(symbol_support(D.a, D.b), ramification_set(D)) for D in algebras] == answers

    def test_conjugate_place_involution(self):
        for k in PROPERTY_FIELDS:
            for v in [*k.real_places(), *(w for p in PRIMES_BELOW_300 for w in places_above(k, p))]:
                assert conjugate_place(conjugate_place(v)) == v
                if v.is_finite and split_prime(v.p, k) != "split":
                    assert conjugate_place(v) == v
            for p in PRIMES_BELOW_300:
                if split_prime(p, k) == "split":
                    v1, v2 = places_above(k, p)
                    assert (conjugate_place(v1), conjugate_place(v2)) == (v2, v1)

    def test_real_place_validation(self):
        with pytest.raises(ValueError):
            Place.real(QQ, 1)
        with pytest.raises(ValueError):
            Place.finite(Field(5), 11)  # split: position required


class TestRealSigns:
    def test_sqrt_sign_at_embeddings(self):
        k = Field(2)
        v0, v1 = k.real_places()
        s = k.sqrt_d
        assert sign_at_real_place(s, v0) == 1
        assert sign_at_real_place(s, v1) == -1

    def test_exact_near_tie(self):
        """Convergents of sqrt(2) differ from it by ~1e-4; the sign test
        must stay exact where floats would wobble."""
        k = Field(2)
        v0 = k.real_places()[0]
        # 17/12 > sqrt(2) because 289 > 288
        assert sign_at_real_place(k.element(Fraction(17, 12), -1), v0) == 1
        # 41/29 < sqrt(2) because 1681 < 1682
        assert sign_at_real_place(k.element(Fraction(41, 29), -1), v0) == -1

    def test_rational_place(self):
        v = QQ.real_places()[0]
        assert sign_at_real_place(QQ.element(-3), v) == -1
        assert sign_at_real_place(QQ.element(Fraction(1, 7)), v) == 1


class TestLocalValuation:
    def test_rational(self):
        v3 = Place.finite(QQ, 3)
        assert local_valuation(QQ.element(18), v3) == 2
        assert local_valuation(QQ.element(Fraction(5, 27)), v3) == -3

    def test_inert_is_half_norm_valuation(self):
        k = Field(5)
        w = Place.finite(k, 3)
        rng = random.Random(5)
        for _ in range(40):
            x = k.element(rng.randint(-40, 40), rng.randint(-40, 40))
            if not x:
                continue
            n = x.norm()
            vp = 0
            num, den = n.numerator, n.denominator
            while num % 3 == 0:
                num //= 3
                vp += 1
            assert local_valuation(x, w) * 2 == vp

    def test_ramified_is_norm_valuation(self):
        k = Field(5)
        w = Place.finite(k, 5)
        assert local_valuation(k.sqrt_d, w) == 1
        assert local_valuation(k.element(5), w) == 2
        assert local_valuation(k.element(2, 1), w) == 0  # norm -1

    def test_split_images_match_newton_oracle(self):
        k = Field(5)
        w1, w2 = places_above(k, 11)
        rng = random.Random(17)
        for _ in range(30):
            a0 = Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 3, 11]))
            a1 = Fraction(rng.randint(-30, 30), rng.choice([1, 1, 2, 5, 11]))
            x = k.element(a0, a1)
            if not x:
                continue
            expected = oracles.split_images(a0, a1, 5, 11, 6)
            for w, (val, _unit) in zip((w1, w2), expected):
                if val is None:
                    continue
                assert local_valuation(x, w) == val

    def test_split_conjugate_valuations_sum_to_norm(self):
        """At a split prime only the sum of the two valuations is pinned
        by the norm; the parts can be individually nonzero even when the
        norm is a unit."""
        k = Field(5)
        w1, w2 = places_above(k, 11)
        x = k.element(Fraction(21, 11), Fraction(8, 11))
        assert x.norm() == 1
        v1, v2 = local_valuation(x, w1), local_valuation(x, w2)
        assert v1 + v2 == 0
        assert {v1, v2} == {1, -1}


class TestLocalSquaresRational:
    def test_against_enumeration(self):
        rng = random.Random(23)
        for p in (2, 3, 5, 7, 11, 13):
            v = Place.finite(QQ, p)
            for _ in range(60):
                x = Fraction(rng.randint(-100, 100), rng.randint(1, 60))
                if x == 0:
                    continue
                assert is_local_square(QQ.element(x), v) == oracles.qp_is_square(
                    x, p
                ), (x, p)

    def test_real(self):
        v = QQ.real_places()[0]
        assert is_local_square(QQ.element(2), v)
        assert not is_local_square(QQ.element(-2), v)

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            is_local_square(QQ.zero, Place.finite(QQ, 3))

    def test_known_dyadic_square_classes(self):
        v2 = Place.finite(QQ, 2)
        assert is_local_square(QQ.element(17), v2)
        assert is_local_square(QQ.element(-7), v2)
        assert not is_local_square(QQ.element(5), v2)
        assert not is_local_square(QQ.element(2), v2)
        assert is_local_square(QQ.element(Fraction(9, 4)), v2)


class TestLocalSquaresQuadratic:
    @pytest.mark.parametrize("d,p", [(5, 3), (5, 7), (13, 5), (2, 5), (21, 11)])
    def test_inert_units_match_fp2_character(self, d, p):
        k = Field(d)
        assert split_prime(p, k) == "inert"
        w = Place.finite(k, p)
        rng = random.Random(d * p)
        for _ in range(40):
            x = k.element(rng.randint(-20, 20), rng.randint(-20, 20))
            if not x or local_valuation(x, w) != 0:
                continue
            assert is_local_square(x, w) == oracles.fp2_is_square(
                x.a0, x.a1, d, p
            ), str(x)

    def test_inert_odd_valuation_never_square(self):
        k = Field(5)
        w = Place.finite(k, 3)
        assert not is_local_square(k.element(3), w)
        assert not is_local_square(k.element(3, 3), w)

    @pytest.mark.parametrize(
        "d,p",
        [(5, 5), (13, 13), (3, 3), (21, 3), (21, 7), (10, 5)],
    )
    def test_ramified_odd_against_digit_search(self, d, p):
        k = Field(d)
        w = Place.finite(k, p)
        rng = random.Random(d + p)
        for _ in range(25):
            x = k.element(rng.randint(-15, 15), rng.randint(-15, 15))
            if not x:
                continue
            expected = oracles.quadratic_local_is_square(x.a0, x.a1, d, p, digits=7)
            assert is_local_square(x, w) == expected, str(x)

    @pytest.mark.parametrize("d", [5, 13, 21, 29])
    def test_dyadic_inert_against_digit_search(self, d):
        k = Field(d)
        w = Place.finite(k, 2)
        rng = random.Random(d)
        for _ in range(30):
            x = k.element(
                Fraction(rng.randint(-15, 15), rng.choice([1, 1, 2])),
                Fraction(rng.randint(-15, 15), rng.choice([1, 1, 2])),
            )
            if not x:
                continue
            expected = oracles.quadratic_local_is_square(x.a0, x.a1, d, 2, digits=16)
            assert is_local_square(x, w) == expected, str(x)

    @pytest.mark.parametrize("d", [2, 3, 6, 7, 10, 11])
    def test_dyadic_ramified_against_digit_search(self, d):
        k = Field(d)
        w = Place.finite(k, 2)
        rng = random.Random(3 * d)
        for _ in range(30):
            x = k.element(rng.randint(-15, 15), rng.randint(-15, 15))
            if not x:
                continue
            expected = oracles.quadratic_local_is_square(x.a0, x.a1, d, 2, digits=16)
            assert is_local_square(x, w) == expected, str(x)

    def test_split_place_square_depends_on_branch(self):
        k = Field(5)
        w1, w2 = places_above(k, 11)
        # norm(4 + sqrt(5)) = 11: valuation 1 at exactly one branch
        x = k.element(4, 1)
        odd = [w for w in (w1, w2) if local_valuation(x, w) == 1]
        assert len(odd) == 1
        assert not is_local_square(x, odd[0])
        sq = x * x
        assert is_local_square(sq, w1) and is_local_square(sq, w2)

    def test_squares_are_squares_everywhere(self):
        rng = random.Random(31)
        for k in (Field(5), Field(2), Field(13), Field(7)):
            for p in (2, 3, 5, 7, 11, 13):
                for w in places_above(k, p):
                    for _ in range(8):
                        x = k.element(rng.randint(-9, 9), rng.randint(-9, 9))
                        if not x:
                            continue
                        assert is_local_square(x * x, w), (str(x), str(w))

    def test_split_dyadic_against_q2_images(self):
        """2 splits: x is a square at 2#i exactly when its image in Q_2
        (sympy's 2-adic root of d) has even valuation and unit 1 mod 8."""
        rng = random.Random(17)
        for k in (Field(17), Field(33), Field(41)):
            for _ in range(30):
                x = k.element(
                    Fraction(rng.randint(-40, 40), rng.choice([1, 1, 2, 3, 4])),
                    Fraction(rng.randint(-12, 12), rng.choice([1, 1, 2, 5])),
                )
                if not x:
                    continue
                for w in places_above(k, 2):
                    assert is_local_square(x, w) == oracles.is_local_square_by_kind(x, w), (
                        str(x), str(w))
                    assert is_local_square(x * x, w)


@st.composite
def class_pairs(draw):
    """(x, y) over one field: y is random, x times a square, or x times
    -1, a small prime or a random element, so both equal and unequal
    square classes come up at every kind of place."""
    field = draw(st.sampled_from(PROPERTY_FIELDS))
    x = draw(elements(field))
    kind = draw(st.sampled_from(["random", "square", "twist"]))
    if kind == "random":
        return x, draw(elements(field))
    if kind == "square":
        return x, x * draw(elements(field)) ** 2
    t = draw(st.one_of(st.sampled_from([-1, 2, 3, 5, 7, 11, 13]), elements(field)))
    return x, x * t


class TestLocalSquareClass:
    @PROPERTY
    @given(class_pairs())
    def test_keys_agree_exactly_when_the_ratio_is_a_square(self, pair):
        x, y = pair
        for v in symbol_support(x, y):
            same = local_square_class(x, v) == local_square_class(y, v)
            assert same == oracles.is_local_square_by_kind(x / y, v), (str(x), str(y), str(v))

    def test_key_values(self):
        v2 = Place.finite(QQ, 2)
        assert local_square_class(QQ.element(-24), v2) == (1, 5)
        assert local_square_class(QQ.element(Fraction(7, 4)), v2) == (0, 7)
        assert local_square_class(QQ.element(-5), QQ.real_places()[0]) == (0, -1)
        k = Field(5)
        assert local_square_class(k.element(1, -1), k.real_places()[1]) == (0, 1)
        assert local_square_class(k.element(0, 3), Place.finite(k, 5)) == (1, -1)
        assert local_square_class(k.element(3), Place.finite(k, 3)) == (1, 1)

    def test_split_unit_divides_by_the_denominator(self):
        """1/2 and 2 differ by the square 4, and 2 is not a square mod 11,
        so neither is a square at either place over 11 in Q(sqrt 5)."""
        k = Field(5)
        for w in places_above(k, 11):
            assert local_square_class(k.element(Fraction(1, 2)), w) == (0, -1)
            assert local_square_class(k.element(2), w) == (0, -1)
            assert not is_local_square(k.element(Fraction(1, 2)), w)

    def test_dyadic_keys_name_16_classes(self):
        """2 inert (d = 5, 13) or ramified: 16 keys, one per class of
        K_v^x / K_v^x2.  The class representatives give back their keys,
        and the digit search finds no square among the products of two
        of them."""
        for d in (5, 13, 2, 3, 6, 7, 10, 11):
            k = Field(d)
            v = Place.finite(k, 2)
            keys = dyadic_keys(d)
            assert len(keys) == 16
            reps = [dyadic_class_element(k, key) for key in keys]
            assert [local_square_class(r, v) for r in reps] == keys
            for i, x in enumerate(reps):
                for y in reps[i + 1:]:
                    assert not oracles.is_local_square_by_kind(x * y, v), (d, str(x), str(y))

    def test_split_dyadic_keys_are_the_q2_images(self):
        for d in (17, 33, 41):
            k = Field(d)
            for x in (k.element(3), k.sqrt_d, k.element(Fraction(5, 4), -3), k.element(1, 1)):
                images = oracles.split_images(x.a0, x.a1, d, 2, 3)
                for w, (n, unit) in zip(places_above(k, 2), images):
                    assert local_square_class(x, w) == (n % 2, unit), (str(x), str(w))

    def test_arguments_checked(self):
        with pytest.raises(ValueError):
            local_square_class(QQ.zero, Place.finite(QQ, 3))
        with pytest.raises(FieldMismatchError):
            local_square_class(QQ.element(3), Place.finite(Field(5), 3))


class TestGlobalSquares:
    def test_perfect_squares(self):
        rng = random.Random(37)
        for k in (QQ, Field(5), Field(2), Field(13)):
            for _ in range(40):
                x = k.element(
                    Fraction(rng.randint(-12, 12), rng.randint(1, 7)),
                    0
                    if k.is_rational
                    else Fraction(rng.randint(-12, 12), rng.randint(1, 7)),
                )
                if not x:
                    continue
                assert is_global_square(x * x)

    def test_known_nonsquares(self):
        k = Field(5)
        assert not is_global_square(k.sqrt_d)
        assert not is_global_square(k.element(3, 1))  # norm 4, but (3±2)/2 not squares
        assert not is_global_square(k.element(-1))
        assert not is_global_square(QQ.element(8))

    def test_sqrt_d_squared_is_square(self):
        k = Field(2)
        assert is_global_square(k.element(2))  # = (sqrt 2)^2
        assert not is_global_square(k.element(0, 2))  # 2 sqrt(2)

    def test_9_plus_4_sqrt5(self):
        k = Field(5)
        assert is_global_square(k.element(9, 4))  # (2 + sqrt 5)^2
        assert is_global_square(k.element(9, -4))

    def test_rational_multiples_of_sqrt_d(self):
        # (a + b sqrt 2)^2 has rational part a^2 + 2b^2 >= 0, so a pure
        # multiple of sqrt(2) other than 0 is never a square
        k = Field(2)
        assert not is_global_square(k.element(0, 3))

    def test_global_implies_local(self):
        rng = random.Random(41)
        k = Field(5)
        for _ in range(20):
            x = k.element(rng.randint(-9, 9), rng.randint(-9, 9))
            if not x:
                continue
            sq = x * x
            for p in (2, 3, 5, 11):
                for w in places_above(k, p):
                    assert is_local_square(sq, w)


class TestSupportPrimes:
    def test_includes_coordinate_denominators(self):
        k = Field(5)
        x = k.element(Fraction(21, 11), Fraction(8, 11))
        assert x.norm() == 1
        assert 11 in element_support_primes(x)

    def test_includes_norm_primes(self):
        k = Field(5)
        assert 11 in element_support_primes(k.element(4, 1))  # norm 11
        assert element_support_primes(QQ.element(Fraction(6, 35))) == {3, 5, 7}

    def test_two_integers_carry_the_four_sources_primes(self, monkeypatch):
        # 20- to 28-bit primes in the numerators and denominators: a
        # rational or small element scaled by P/Q, or (P/Q) sqrt(d), so
        # that every norm stays within the factoring budget
        rng = random.Random(1928)
        big = [sympy.nextprime(rng.randrange(2**19, 2**28)) for _ in range(12)]
        factored = []
        real_factor = quathyp.fields.factor
        monkeypatch.setattr(
            quathyp.fields, "factor", lambda n: factored.append(n) or real_factor(n)
        )

        def part():
            return math.prod(rng.sample(big, rng.randint(0, 2))) * rng.choice([1, 2, 3, 9, 11, 25])

        for k in PROPERTY_FIELDS:
            small = [k.one, k.element(Fraction(7, 6))]
            if not k.is_rational:
                small += [k.sqrt_d, k.element(Fraction(-1, 2), Fraction(3, 10)), k.element(4, 1)]
            for _ in range(12):
                x = rng.choice(small) * Fraction(rng.choice([1, -1]) * part(), part())
                factored.clear()
                assert element_support_primes(x) == oracles.support_primes_four_sources(x), str(x)
                assert len(factored) == 2
