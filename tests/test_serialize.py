"""Round-trip and error-pointer tests for the JSON descriptor layer."""

from fractions import Fraction

import pytest

from quathyp.algebras import quaternion_algebra
from quathyp.commensurability import AdmissibleTriple, OrbifoldClassDescriptor, canonical_hermitian
from quathyp.errors import DescriptorError, NotQuaternionicHyperbolicError
from quathyp.fields import QQ, Field, Place, places_above
from quathyp.hermitian import hermitian_form
from quathyp.quadratic import diagonal_form
from quathyp.serialize import (
    MAX_BITS,
    algebra_to_json,
    ambient_to_json,
    element_to_json,
    field_to_json,
    hermitian_to_json,
    parse_algebra,
    parse_ambient,
    parse_element,
    parse_field,
    parse_hermitian_form,
    parse_place,
    parse_quadratic_form,
    parse_restriction_data,
    parse_triple,
    place_to_str,
    quadratic_to_json,
    restriction_data_to_json,
    triple_to_json,
)
from quathyp.subspaces import ComplexRestrictionData


class TestFields:
    def test_round_trip(self):
        for field in (QQ, Field(5), Field(34)):
            assert parse_field(field_to_json(field)) == field

    def test_bad_payloads(self):
        with pytest.raises(DescriptorError, match="base"):
            parse_field({"base": "R"})
        with pytest.raises(DescriptorError):
            parse_field({"base": "quadratic", "d": 4})
        with pytest.raises(DescriptorError):
            parse_field({"base": "quadratic", "d": True})
        with pytest.raises(DescriptorError):
            parse_field([])


class TestElements:
    def test_scalar_shorthand(self):
        assert parse_element(-3, QQ) == QQ.element(-3)
        assert parse_element("3/4", QQ) == QQ.element(Fraction(3, 4))

    def test_coordinate_dict(self):
        k = Field(5)
        x = parse_element({"a0": "1/2", "a1": -2}, k)
        assert x == k.element(Fraction(1, 2), -2)

    def test_round_trip(self):
        k = Field(5)
        for x in (k.element(3, -1), k.element(Fraction(9, 4)), QQ.element(-7)):
            field = x.field
            assert parse_element(element_to_json(x), field) == x

    def test_rational_payload_omits_second_coordinate(self):
        assert "a1" not in element_to_json(QQ.element(5))

    def test_sqrt_coordinate_rejected_over_rationals(self):
        with pytest.raises(DescriptorError, match="a1"):
            parse_element({"a0": 1, "a1": 2}, QQ)

    def test_unknown_keys_rejected(self):
        with pytest.raises(DescriptorError):
            parse_element({"a0": 1, "b": 2}, Field(5))

    def test_booleans_rejected(self):
        with pytest.raises(DescriptorError):
            parse_element(True, QQ)

    @pytest.mark.parametrize("value", [1.5, None, [1, 2]])
    def test_other_json_values_name_the_accepted_forms(self, value):
        with pytest.raises(DescriptorError) as info:
            parse_element(value, Field(5), "/a")
        assert str(info.value) == (
            "expected an integer, a 'p/q' string or an object with keys a0, a1, "
            f"got {type(value).__name__} (at /a)"
        )

    def test_bit_size_cap(self):
        top = 2**MAX_BITS - 1  # MAX_BITS bits
        assert MAX_BITS == 256
        assert parse_element(-top, QQ) == QQ.element(-top)
        assert parse_element(f"1/{top}", QQ) == QQ.element(Fraction(1, top))
        for value, ptr in (
            (top + 1, ""),
            (f"-1/{top + 1}", ""),
            ({"a0": 1, "a1": -(top + 1)}, "/a1"),
        ):
            with pytest.raises(DescriptorError) as info:
                parse_element(value, Field(5))
            assert info.value.pointer == ptr
            assert "257-bit" in str(info.value)

    def test_bit_size_cap_on_field_and_place(self):
        prime = 2**256 - 189  # the largest prime below 2^256
        assert parse_place(str(prime), QQ, "/place") == Place.finite(QQ, prime)
        with pytest.raises(DescriptorError, match="257-bit prime exceeds 256 bits") as info:
            parse_place(str(2**256 + 1), QQ, "/place")
        assert info.value.pointer == "/place"
        with pytest.raises(DescriptorError, match="257-bit d exceeds 256 bits") as info:
            parse_field({"base": "quadratic", "d": 2**256 + 1}, "/field")
        assert info.value.pointer == "/field/d"


class TestAlgebrasAndForms:
    def test_algebra_round_trip(self):
        D = quaternion_algebra(Field(5), Field(5).sqrt_d, Field(5).element(-2))
        payload = algebra_to_json(D, with_field=True)
        assert parse_algebra(payload, None) == D

    def test_zero_coefficient_pointer(self):
        with pytest.raises(DescriptorError, match="nonzero"):
            parse_algebra({"a": 0, "b": 1}, QQ)

    def test_quadratic_round_trip(self):
        q = diagonal_form(QQ, 1, Fraction(-3, 2), 5)
        assert parse_quadratic_form(quadratic_to_json(q)).coeffs == q.coeffs

    def test_hermitian_round_trip(self):
        h = hermitian_form(quaternion_algebra(QQ, -1, -3), 1, -2)
        parsed = parse_hermitian_form(hermitian_to_json(h))
        assert parsed.coeffs == h.coeffs and parsed.algebra == h.algebra

    def test_empty_coefficients_rejected(self):
        with pytest.raises(DescriptorError, match="coeffs"):
            parse_quadratic_form({"field": {"base": "Q"}, "coeffs": []})

    def test_nested_error_pointer(self):
        payload = {
            "field": {"base": "Q"},
            "algebra": {"a": -1, "b": -1},
            "coeffs": [1, {"a0": 1, "a1": 1}],
        }
        with pytest.raises(DescriptorError, match="coeffs/1"):
            parse_hermitian_form(payload)


class TestTriplesAndAmbients:
    def test_triple_round_trip(self):
        k = Field(5)
        t = AdmissibleTriple(
            k, k.real_places()[1], quaternion_algebra(k, k.element(-1), k.element(-1))
        )
        assert parse_triple(triple_to_json(t)) == t

    def test_rational_triple_embedding_must_be_zero(self):
        payload = {
            "field": {"base": "Q"},
            "v0": {"embedding": 1},
            "algebra": {"a": -1, "b": -1},
        }
        with pytest.raises(DescriptorError, match="embedding"):
            parse_triple(payload)

    def test_split_ambient_round_trip(self):
        amb = OrbifoldClassDescriptor.split(Field(2), 4)
        assert parse_ambient(ambient_to_json(amb)) == amb

    def test_nonsplit_ambient_round_trip(self):
        t = AdmissibleTriple(QQ, QQ.real_places()[0], quaternion_algebra(QQ, -1, -1))
        amb = OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 2))
        payload = ambient_to_json(amb)
        assert payload["m"] == 2
        assert parse_ambient(payload) == amb

    def test_inconsistent_rank_annotation_rejected(self):
        t = AdmissibleTriple(QQ, QQ.real_places()[0], quaternion_algebra(QQ, -1, -1))
        payload = ambient_to_json(OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 2)))
        payload["m"] = 3
        with pytest.raises(DescriptorError, match="m"):
            parse_ambient(payload)

    def test_split_rank_must_be_positive(self):
        with pytest.raises(DescriptorError):
            parse_ambient({"kind": "split", "field": {"base": "Q"}, "n": 0})


class TestParseDoesNotFactor:
    @pytest.mark.parametrize("field", [QQ, Field(5), Field(3)])
    def test_admissible_nonsplit_ambient(self, field, monkeypatch):
        """An algebra ramified at a real place is a division algebra by
        its signs alone, so parsing an admissible ambient never builds
        the ramification set, which factors the parameters."""
        hamilton = quaternion_algebra(field, field.element(-1), field.element(-1))
        t = AdmissibleTriple(field, field.real_places()[0], hamilton)
        amb = OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 2))
        payload = ambient_to_json(amb)

        def refuse(*args):
            raise AssertionError("ramification set built while parsing")

        monkeypatch.setattr("quathyp.algebras.symbol_support", refuse)
        assert parse_ambient(payload) == amb

    def test_division_algebra_unramified_at_infinity_still_parses(self):
        # (-1, 3) over Q ramifies at {2, 3} only: the finite places decide
        D = quaternion_algebra(QQ, -1, 3)
        amb = OrbifoldClassDescriptor.nonsplit(hermitian_form(D, 1, 1, -1))
        assert parse_ambient(ambient_to_json(amb)) == amb

    def test_split_algebra_still_rejected(self):
        D = quaternion_algebra(QQ, -1, 2)
        with pytest.raises(NotQuaternionicHyperbolicError, match="division"):
            OrbifoldClassDescriptor.nonsplit(hermitian_form(D, 1, 1, -1))
        payload = {
            "kind": "nonsplit",
            "form": {"field": {"base": "Q"}, "algebra": {"a": -1, "b": 2}, "coeffs": [1, 1, -1]},
        }
        with pytest.raises(DescriptorError, match="division"):
            parse_ambient(payload)

    def test_internal_errors_are_not_input_errors(self, monkeypatch):
        # (-1, 3) is unramified at infinity: only its finite places decide
        payload = {
            "kind": "nonsplit",
            "form": {"field": {"base": "Q"}, "algebra": {"a": -1, "b": 3}, "coeffs": [1, 1, -1]},
        }

        def broken(*args):
            raise AssertionError("internal failure")

        monkeypatch.setattr("quathyp.algebras.symbol_support", broken)
        with pytest.raises(AssertionError, match="internal failure"):
            parse_ambient(payload)


class TestRestrictionData:
    def test_round_trip(self):
        data = ComplexRestrictionData(
            QQ.element(-7), (QQ.element(1), QQ.element(1), QQ.element(-1))
        )
        parsed = parse_restriction_data(restriction_data_to_json(data))
        assert parsed.c == data.c and parsed.coeffs == data.coeffs

    @pytest.mark.parametrize(
        "c, coeffs, match",
        [(0, [1], "nonzero"), (4, [1], "square"), (-7, [], "empty"), (-7, [1, 0], "nonzero")],
    )
    def test_bad_data_is_an_input_error(self, c, coeffs, match):
        payload = {"field": {"base": "Q"}, "c": c, "coeffs": coeffs}
        with pytest.raises(DescriptorError, match=match):
            parse_restriction_data(payload)


class TestPlaces:
    def test_compact_forms(self):
        assert parse_place("inf", QQ) == QQ.real_places()[0]
        k = Field(5)
        assert parse_place("inf_1", k) == k.real_places()[1]
        assert parse_place("7", QQ) == places_above(QQ, 7)[0]
        assert parse_place("11#2", k) == places_above(k, 11)[1]
        inert = places_above(k, 3)[0]
        assert parse_place("3", k) == inert

    @pytest.mark.parametrize("text", ["0", "1", "4", "4#1", "15", "-7"])
    def test_non_prime_is_a_descriptor_error(self, text):
        for k in (QQ, Field(5)):
            with pytest.raises(DescriptorError, match="is not prime") as info:
                parse_place(text, k, "/place")
            assert info.value.pointer == "/place"

    def test_split_prime_needs_a_branch(self):
        with pytest.raises(DescriptorError, match="11#1"):
            parse_place("11", Field(5))

    def test_round_trip(self):
        k = Field(5)
        sample = [QQ.real_places()[0], places_above(QQ, 2)[0], *k.real_places()]
        sample += list(places_above(k, 11)) + list(places_above(k, 5))
        for v in sample:
            assert parse_place(place_to_str(v), v.field) == v
