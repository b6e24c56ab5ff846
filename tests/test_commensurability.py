"""Tests for admissible triples, canonical forms, and commensurability."""

import copy
import json
import random
from collections import Counter

import pytest

from quathyp.algebras import (
    algebras_isomorphic,
    is_division,
    quaternion_algebra,
    ramification_set,
)
from quathyp.commensurability import (
    CONJUGATION,
    IDENTITY,
    AdmissibleTriple,
    OrbifoldClassDescriptor,
    MAX_CANONICAL_M,
    canonical_hermitian,
    field_automorphisms,
    general_cn_commensurable,
    incommensurability_reason,
    is_admissible,
    is_compact,
    place_image,
    quaternionic_commensurable,
    triple_of,
    triples_equivalent,
)
from quathyp.errors import (
    DimensionMismatchError,
    NotQuaternionicHyperbolicError,
    QuathypError,
    UnsupportedRankError,
)
from quathyp.fields import QQ, Field, is_global_square, places_above
from quathyp.hermitian import hermitian_form, hermitian_isometric, signature_at_ramified
from quathyp.quadratic import diagonal_form
from quathyp.serialize import hermitian_to_json, parse_ambient
from quathyp.subspaces import ComplexRestrictionData, embeds_complex, embeds_real

from oracles import (
    algebra_image,
    conjugate_algebra,
    hermitian_image,
    nonsplit_commensurable_by_images,
    triples_equivalent_by_images,
)
from test_subspaces import _element_with_signs, _random_hyperbolic_coeffs


def rational_triple(a, b):
    return AdmissibleTriple(QQ, QQ.real_places()[0], quaternion_algebra(QQ, a, b))


def hamilton_over(k):
    return quaternion_algebra(k, k.element(-1), k.element(-1))


class TestRealPlaceQuestionsDoNotFactor:
    @pytest.mark.parametrize("field", [QQ, Field(5), Field(6)])
    def test_no_ramification_set_behind_real_place_questions(self, field, monkeypatch):
        """Admissibility, triple extraction, the canonical form and
        signatures only look at real places, where (a,b)_v is read off
        the signs; none of them may build the ramification set, which
        factors the parameters."""
        t = AdmissibleTriple(field, field.real_places()[0], hamilton_over(field))
        desc = OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 3))

        def refuse(*args):
            raise AssertionError("ramification set built for a real-place question")

        monkeypatch.setattr("quathyp.algebras.symbol_support", refuse)
        assert is_admissible(t)
        assert triple_of(desc) == t
        h = canonical_hermitian(t, 3)
        for v in field.real_places():
            assert signature_at_ramified(h, v) == ((3, 1) if v == t.v0 else (4, 0))


class TestFieldAutomorphisms:
    def test_enumeration(self):
        assert field_automorphisms(QQ) == (IDENTITY,)
        assert field_automorphisms(Field(5)) == (IDENTITY, CONJUGATION)

    def test_place_transport(self):
        k = Field(5)
        v0, v1 = k.real_places()
        assert place_image(IDENTITY, v0) == v0
        assert place_image(CONJUGATION, v0) == v1
        assert place_image(CONJUGATION, v1) == v0
        w1, w2 = places_above(k, 11)
        assert place_image(CONJUGATION, w1) == w2
        inert = places_above(k, 3)[0]
        assert place_image(CONJUGATION, inert) == inert

    def test_algebra_transport(self):
        k = Field(5)
        D = quaternion_algebra(k, k.sqrt_d, k.element(1, 1))
        img = algebra_image(CONJUGATION, D)
        assert img.a == -k.sqrt_d
        assert img.b == k.element(1, -1)
        assert algebra_image(IDENTITY, D) is D

    def test_hermitian_transport(self):
        k = Field(5)
        h = hermitian_form(hamilton_over(k), k.one, k.sqrt_d)
        img = hermitian_image(CONJUGATION, h)
        assert img.coeffs[1] == -k.sqrt_d


class TestAdmissibleTriples:
    def test_validation(self):
        H = quaternion_algebra(QQ, -1, -1)
        with pytest.raises(Exception):
            AdmissibleTriple(QQ, places_above(QQ, 2)[0], H)
        k = Field(5)
        with pytest.raises(Exception):
            AdmissibleTriple(QQ, k.real_places()[0], H)
        with pytest.raises(Exception):
            AdmissibleTriple(k, k.real_places()[0], H)

    def test_admissibility_requires_full_real_ramification(self):
        assert is_admissible(rational_triple(-1, -1))
        assert is_admissible(rational_triple(-2, -5))
        assert not is_admissible(rational_triple(2, 5))
        assert not is_admissible(rational_triple(1, -1))
        k = Field(5)
        assert is_admissible(AdmissibleTriple(k, k.real_places()[0], hamilton_over(k)))
        split_at_reals = quaternion_algebra(k, k.element(4, 1), k.element(-1))
        assert not is_admissible(AdmissibleTriple(k, k.real_places()[0], split_at_reals))

    def test_compactness_tracks_the_field(self):
        assert not is_compact(rational_triple(-1, -1))
        k = Field(5)
        assert is_compact(AdmissibleTriple(k, k.real_places()[0], hamilton_over(k)))

    def test_compactness_requires_admissibility(self):
        with pytest.raises(ValueError):
            is_compact(rational_triple(2, 5))


class TestTripleEquivalence:
    def test_isomorphic_algebras_same_place(self):
        t1 = rational_triple(-1, -1)
        t2 = rational_triple(-1, -4)  # same class: -4 = -1 * 2^2
        assert triples_equivalent(t1, t2)
        assert not triples_equivalent(t1, rational_triple(-1, -3))

    def test_conjugation_can_move_the_distinguished_place(self):
        k = Field(5)
        v0, v1 = k.real_places()
        Hk = hamilton_over(k)
        assert triples_equivalent(
            AdmissibleTriple(k, v0, Hk), AdmissibleTriple(k, v1, Hk)
        )

    def test_conjugation_must_match_algebra_and_place_together(self):
        # D ramifies at one place over 11 only, so it is not isomorphic to
        # its conjugate; twisting works only if the place moves along.
        k = Field(5)
        v0, v1 = k.real_places()
        D = quaternion_algebra(k, k.element(-1), -k.element(4, 1))
        assert {str(v) for v in ramification_set(D)} >= {"inf_0", "inf_1"}
        assert not algebras_isomorphic(D, conjugate_algebra(D))
        t = AdmissibleTriple(k, v0, D)
        assert triples_equivalent(t, AdmissibleTriple(k, v1, conjugate_algebra(D)))
        assert not triples_equivalent(t, AdmissibleTriple(k, v0, conjugate_algebra(D)))
        assert not triples_equivalent(t, AdmissibleTriple(k, v1, D))

    def test_different_fields_never_equivalent(self):
        k2, k5 = Field(2), Field(5)
        t2 = AdmissibleTriple(k2, k2.real_places()[0], hamilton_over(k2))
        t5 = AdmissibleTriple(k5, k5.real_places()[0], hamilton_over(k5))
        assert not triples_equivalent(t2, t5)


class TestCanonicalForms:
    def test_rational_reference(self):
        c = canonical_hermitian(rational_triple(-1, -1), 2)
        assert [x.a0 for x in c.coeffs] == [1, 1, -1]

    def test_quadratic_field_scales_by_sqrt_d(self):
        k = Field(5)
        v0, v1 = k.real_places()
        Hk = hamilton_over(k)
        c0 = canonical_hermitian(AdmissibleTriple(k, v0, Hk), 2)
        c1 = canonical_hermitian(AdmissibleTriple(k, v1, Hk), 2)
        assert c0.coeffs[-1] == -k.sqrt_d
        assert c1.coeffs[-1] == k.sqrt_d

    @pytest.mark.parametrize("m", [2, 3, 5])
    def test_signatures(self, m):
        k = Field(5)
        v0, v1 = k.real_places()
        c = canonical_hermitian(AdmissibleTriple(k, v0, hamilton_over(k)), m)
        assert c.dim == m + 1
        assert signature_at_ramified(c, v0) == (m, 1)
        assert signature_at_ramified(c, v1) == (m + 1, 0)

    def test_rank_below_two_rejected(self):
        with pytest.raises(ValueError):
            canonical_hermitian(rational_triple(-1, -1), 1)

    def test_rank_above_bound_rejected(self):
        t = rational_triple(-1, -1)
        assert canonical_hermitian(t, MAX_CANONICAL_M).dim == MAX_CANONICAL_M + 1
        with pytest.raises(ValueError, match="2 <= m <= 1024, got m = 1025"):
            canonical_hermitian(t, MAX_CANONICAL_M + 1)

    def test_inadmissible_triple_rejected(self):
        with pytest.raises(ValueError):
            canonical_hermitian(rational_triple(2, 5), 2)


class TestDescriptors:
    def test_split_descriptor(self):
        s = OrbifoldClassDescriptor.split(QQ, 3)
        assert s.kind == "split" and s.n == 3 and s.field is QQ

    def test_nonsplit_descriptor_rank_is_form_dimension(self):
        c = canonical_hermitian(rational_triple(-1, -1), 2)
        d = OrbifoldClassDescriptor.nonsplit(c)
        assert d.kind == "nonsplit" and d.n == 3

    def test_nonsplit_requires_division_algebra(self):
        M = quaternion_algebra(QQ, 1, 3)
        with pytest.raises(NotQuaternionicHyperbolicError, match="division"):
            OrbifoldClassDescriptor.nonsplit(hermitian_form(M, 1, 1, -1))


class TestTripleExtraction:
    def test_roundtrip_from_canonical_form(self):
        t = rational_triple(-2, -5)
        desc = OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 3))
        back = triple_of(desc)
        assert back.field is QQ
        assert back.v0 == t.v0
        assert algebras_isomorphic(back.algebra, t.algebra)

    def test_split_descriptors_carry_no_triple(self):
        with pytest.raises(NotQuaternionicHyperbolicError, match="no triple"):
            triple_of(OrbifoldClassDescriptor.split(QQ, 3))

    def test_definite_forms_rejected(self):
        H = quaternion_algebra(QQ, -1, -1)
        with pytest.raises(NotQuaternionicHyperbolicError, match="definite"):
            triple_of(OrbifoldClassDescriptor.nonsplit(hermitian_form(H, 1, 1, 1)))

    def test_wrong_signature_rejected(self):
        H = quaternion_algebra(QQ, -1, -1)
        with pytest.raises(NotQuaternionicHyperbolicError, match=r"\(1, 2\)"):
            triple_of(OrbifoldClassDescriptor.nonsplit(hermitian_form(H, 1, -1, -1)))

    def test_unramified_real_place_rejected(self):
        D = quaternion_algebra(QQ, 2, 5)
        with pytest.raises(NotQuaternionicHyperbolicError, match="does not ramify"):
            triple_of(OrbifoldClassDescriptor.nonsplit(hermitian_form(D, 1, 1, -1)))

    def test_two_indefinite_places_rejected(self):
        k = Field(5)
        h = hermitian_form(hamilton_over(k), k.one, k.one, k.element(-1))
        with pytest.raises(NotQuaternionicHyperbolicError, match="more than one"):
            triple_of(OrbifoldClassDescriptor.nonsplit(h))


class TestQuaternionicCommensurability:
    def test_distinct_rational_classes(self):
        descs = []
        for a, b in [(-1, -1), (-1, -3), (-2, -5)]:
            t = rational_triple(a, b)
            descs.append(OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 2)))
        for i in range(3):
            for j in range(3):
                expected = i == j
                assert quaternionic_commensurable(descs[i], descs[j]) == expected

    def test_representation_changes_do_not_matter(self):
        t = rational_triple(-1, -1)
        canonical = canonical_hermitian(t, 2)
        H4 = quaternion_algebra(QQ, -4, -9)  # same class as (-1, -1)
        rearranged = hermitian_form(H4, 1, -25, 4)
        d1 = OrbifoldClassDescriptor.nonsplit(canonical)
        d2 = OrbifoldClassDescriptor.nonsplit(rearranged)
        assert quaternionic_commensurable(d1, d2)

    def test_distinguished_place_twist(self):
        k = Field(5)
        v0, v1 = k.real_places()
        Hk = hamilton_over(k)
        d0 = OrbifoldClassDescriptor.nonsplit(
            canonical_hermitian(AdmissibleTriple(k, v0, Hk), 2)
        )
        d1 = OrbifoldClassDescriptor.nonsplit(
            canonical_hermitian(AdmissibleTriple(k, v1, Hk), 2)
        )
        assert quaternionic_commensurable(d0, d1)

    def test_dimension_mismatch_raises(self):
        t = rational_triple(-1, -1)
        d2 = OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 2))
        d3 = OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 3))
        with pytest.raises(DimensionMismatchError, match="ambient dimensions"):
            quaternionic_commensurable(d2, d3)

    def test_fields_must_agree(self):
        k = Field(5)
        dq = OrbifoldClassDescriptor.nonsplit(
            canonical_hermitian(rational_triple(-1, -1), 2)
        )
        dk = OrbifoldClassDescriptor.nonsplit(
            canonical_hermitian(AdmissibleTriple(k, k.real_places()[0], hamilton_over(k)), 2)
        )
        assert not quaternionic_commensurable(dq, dk)


class TestGeneralCnCommensurability:
    def test_split_classes_compare_by_field_and_rank(self):
        assert general_cn_commensurable(
            OrbifoldClassDescriptor.split(QQ, 3), OrbifoldClassDescriptor.split(QQ, 3)
        )
        assert not general_cn_commensurable(
            OrbifoldClassDescriptor.split(QQ, 3), OrbifoldClassDescriptor.split(QQ, 4)
        )
        assert not general_cn_commensurable(
            OrbifoldClassDescriptor.split(QQ, 3),
            OrbifoldClassDescriptor.split(Field(5), 3),
        )

    def test_split_never_matches_nonsplit(self):
        c = canonical_hermitian(rational_triple(-1, -1), 2)
        assert not general_cn_commensurable(
            OrbifoldClassDescriptor.split(QQ, 3), OrbifoldClassDescriptor.nonsplit(c)
        )

    def test_agrees_with_quaternionic_decision(self):
        params = [(-1, -1), (-1, -4), (-1, -3), (-2, -5)]
        for field in (QQ, Field(5), Field(17)):
            algebras = [quaternion_algebra(field, *map(field.element, ab)) for ab in params]
            if not field.is_rational:
                # -4 - sqrt(5) and -6 - sqrt(17) are totally negative, and
                # the algebra is not isomorphic to its conjugate
                a0 = {5: -4, 17: -6}[field.d]
                D = quaternion_algebra(field, field.element(a0, -1), field.element(-1))
                assert not algebras_isomorphic(D, conjugate_algebra(D))
                algebras += [D, conjugate_algebra(D)]
            triples = [AdmissibleTriple(field, v, E) for E in algebras for v in field.real_places()]
            descs = [OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 2)) for t in triples]
            verdicts = set()
            for d1 in descs:
                for d2 in descs:
                    got = general_cn_commensurable(d1, d2)
                    assert got == quaternionic_commensurable(d1, d2), (str(d1.form), str(d2.form))
                    verdicts.add((got, triple_of(d1).v0 == triple_of(d2).v0))
            assert (False, True) in verdicts
            # over Q(sqrt(d)) the conjugation twist: commensurable across v0
            assert (True, field.is_rational) in verdicts

    def test_low_rank_rejected(self):
        with pytest.raises(UnsupportedRankError, match="n >= 3"):
            general_cn_commensurable(
                OrbifoldClassDescriptor.split(QQ, 2), OrbifoldClassDescriptor.split(QQ, 2)
            )

    def test_conjugation_twist_in_rank_three(self):
        k = Field(5)
        v0, v1 = k.real_places()
        Hk = hamilton_over(k)
        d0 = OrbifoldClassDescriptor.nonsplit(
            canonical_hermitian(AdmissibleTriple(k, v0, Hk), 2)
        )
        d1 = OrbifoldClassDescriptor.nonsplit(
            canonical_hermitian(AdmissibleTriple(k, v1, Hk), 2)
        )
        assert general_cn_commensurable(d0, d1)


class TestIncommensurabilityReason:
    @pytest.mark.parametrize(
        "left,right,reason",
        [
            ((QQ, 3), (QQ, 3), None),
            ((QQ, 3), (QQ, 4), "ranks differ"),
            ((QQ, 3), (Field(5), 3), "fields differ"),
            ((QQ, 3), (Field(5), 4), "ranks differ"),
            ((Field(17), 5), (Field(17), 5), None),
        ],
    )
    def test_split_pairs(self, left, right, reason):
        d1, d2 = OrbifoldClassDescriptor.split(*left), OrbifoldClassDescriptor.split(*right)
        assert incommensurability_reason(d1, d2) == reason
        assert general_cn_commensurable(d1, d2) is (reason is None)

    def test_split_and_nonsplit(self):
        k = Field(5)
        split = OrbifoldClassDescriptor.split(k, 3)
        for t in (AdmissibleTriple(k, v, hamilton_over(k)) for v in k.real_places()):
            nonsplit = OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 2))
            for d1, d2 in ((split, nonsplit), (nonsplit, split)):
                assert incommensurability_reason(d1, d2) == "one class is split, the other is not"
        wide = OrbifoldClassDescriptor.split(k, 4)
        assert incommensurability_reason(split, wide) == "ranks differ"

    def test_low_rank_raises(self):
        nonsplit = OrbifoldClassDescriptor.nonsplit(canonical_hermitian(rational_triple(-1, -1), 2))
        with pytest.raises(UnsupportedRankError, match="n >= 3"):
            incommensurability_reason(OrbifoldClassDescriptor.split(QQ, 2), nonsplit)


def _element(rng, field, bound):
    """A nonzero element whose coordinates are integers of size at most bound."""
    while True:
        a1 = 0 if field.is_rational else rng.randint(-bound, bound)
        x = field.element(rng.randint(-bound, bound), a1)
        if x:
            return x


def _algebra(rng, field, division=False):
    while True:
        D = quaternion_algebra(field, _element(rng, field, 12), _element(rng, field, 12))
        if is_division(D) or not division:
            return D


def _presented_again(rng, D, coeffs):
    """(tau, E, image): the algebra tau(D) with parameters scaled by
    squares and perhaps swapped, and the coefficients moved by tau,
    scaled by one element and shuffled.  The class stays the same up to
    tau."""
    field = D.field
    tau = rng.choice(field_automorphisms(field))
    E = algebra_image(tau, D)
    x, y, s = (_element(rng, field, 4) for _ in range(3))
    params = [E.a * x * x, E.b * y * y]
    rng.shuffle(params)
    image = [s * (c if tau == IDENTITY else c.conjugate()) for c in coeffs]
    rng.shuffle(image)
    return tau, quaternion_algebra(field, *params), image


PAIR_FIELDS = (QQ, Field(5), Field(3), Field(6), Field(17))


class TestGaloisImageRoute:
    """The decisions compare Galois images of ramification sets; the
    oracle builds tau(D2) as an algebra for each automorphism tau and
    reads signatures through ``signature_at_ramified``.  Over Q(sqrt(17))
    2 splits, so conjugation swaps the two dyadic places."""

    @pytest.mark.parametrize("field", PAIR_FIELDS, ids=str)
    def test_general_cn_commensurable_matches_the_oracle(self, field):
        rng = random.Random(f"general-cn:{field}")
        verdicts = []
        for _ in range(8):
            D = _algebra(rng, field, division=True)
            coeffs = [_element(rng, field, 9) for _ in range(3)]
            _, E, image = _presented_again(rng, D, coeffs)
            other = [_element(rng, field, 9) for _ in range(3)]
            d1 = OrbifoldClassDescriptor.nonsplit(hermitian_form(D, *coeffs))
            for D2, c2 in ((E, image), (_algebra(rng, field, division=True), image), (E, other)):
                d2 = OrbifoldClassDescriptor.nonsplit(hermitian_form(D2, *c2))
                got = general_cn_commensurable(d1, d2)
                assert got == nonsplit_commensurable_by_images(d1, d2), (str(d1.form), str(d2.form))
                verdicts.append(got)
        assert verdicts[::3] == [True] * 8
        assert False in verdicts

    @pytest.mark.parametrize("field", PAIR_FIELDS, ids=str)
    def test_triples_equivalent_matches_the_oracle(self, field):
        rng = random.Random(f"triples:{field}")
        verdicts = []
        for _ in range(8):
            D = _algebra(rng, field)
            v0 = rng.choice(field.real_places())
            tau, E, _ = _presented_again(rng, D, [])
            t1 = AdmissibleTriple(field, v0, D)
            moved = AdmissibleTriple(field, place_image(tau, v0), E)
            for t2 in (
                moved,
                AdmissibleTriple(field, v0, _algebra(rng, field)),
                AdmissibleTriple(field, place_image(CONJUGATION, v0), E),
            ):
                got = triples_equivalent(t1, t2)
                assert got == triples_equivalent_by_images(t1, t2), (str(t1), str(t2))
                verdicts.append(got)
        assert verdicts[::3] == [True] * 8
        assert False in verdicts


class TestRamificationSetsPerDecision:
    """Each decision builds each algebra's ramification set at most once."""

    @staticmethod
    def _pairs():
        # D ramifies at one place over 11, its conjugate at the other
        k = Field(5)
        v0, v1 = k.real_places()
        D = quaternion_algebra(k, k.element(-4, -1), k.element(-1))
        first = OrbifoldClassDescriptor.nonsplit(canonical_hermitian(AdmissibleTriple(k, v0, D), 2))
        for t, expected in (
            (AdmissibleTriple(k, v1, conjugate_algebra(D)), True),
            (AdmissibleTriple(k, v0, conjugate_algebra(D)), False),
            (AdmissibleTriple(k, v1, D), False),
            (AdmissibleTriple(k, v0, hamilton_over(k)), False),
        ):
            yield first, OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 2)), expected

    @pytest.mark.parametrize("decide", [general_cn_commensurable, quaternionic_commensurable])
    def test_commensurability_over_a_quadratic_field(self, decide, ramification_calls):
        for d1, d2, expected in self._pairs():
            ramification_calls.clear()
            assert decide(d1, d2) is expected
            assert len(ramification_calls) <= 2

    def test_hermitian_isometry_over_one_algebra(self, ramification_calls):
        k = Field(5)
        h1 = hermitian_form(hamilton_over(k), k.one, k.one, -k.sqrt_d)
        h2 = hermitian_form(hamilton_over(k), k.element(4), k.one, -k.sqrt_d)
        assert hermitian_isometric(h1, h2)
        assert ramification_calls == []

    def test_embeddings(self, ramification_calls):
        t = rational_triple(-1, -1)
        ambient = OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 2))
        assert embeds_real(diagonal_form(QQ, 1, 1, -3), ambient).embeds
        assert ramification_calls == []
        # only the subfield test needs the finite ramified places
        data = ComplexRestrictionData(QQ.element(-1), tuple(ambient.form.coeffs))
        assert embeds_complex(data, ambient).embeds
        assert len(ramification_calls) == 1


def _outcome(decide, *args):
    """What a decision returns, or the class and message of the error it
    raises."""
    try:
        return decide(*args)
    except QuathypError as exc:
        return type(exc), str(exc)


def _ambient_payload(h):
    return json.loads(json.dumps({"kind": "nonsplit", "form": hermitian_to_json(h)}))


class TestTripleMemo:
    """A descriptor keeps the triple that `triple_of` builds; a copy
    starts without it, and a descriptor that fails keeps nothing."""

    @staticmethod
    def _descriptor():
        k = Field(5)
        D = quaternion_algebra(k, k.element(-4, -1), k.element(-1))
        return OrbifoldClassDescriptor.nonsplit(hermitian_form(D, k.one, 3, k.element(0, -1)))

    def test_one_triple_per_descriptor(self):
        d = self._descriptor()
        assert d._triple is None
        t = triple_of(d)
        assert triple_of(d) is t and d._triple is t
        assert t == AdmissibleTriple(d.field, d.field.real_places()[0], d.form.algebra)

    def test_descriptors_parsed_from_one_payload_have_equal_triples(self):
        payload = _ambient_payload(self._descriptor().form)
        d1, d2 = parse_ambient(payload), parse_ambient(payload)
        assert d1 is not d2 and d1 == d2
        assert triple_of(d1) is not triple_of(d2) and triple_of(d1) == triple_of(d2)

    def test_deep_copy_equals_and_rebuilds_the_same_triple(self):
        d = self._descriptor()
        t = triple_of(d)
        again = copy.deepcopy(d)
        assert again == d and hash(again) == hash(d) and again._triple is None
        assert triple_of(again) == t and triple_of(d) is t

    def test_the_memo_keeps_no_ramification_set(self, ramification_calls):
        d1 = self._descriptor()
        t = AdmissibleTriple(d1.field, d1.field.real_places()[0], hamilton_over(d1.field))
        d2 = OrbifoldClassDescriptor.nonsplit(canonical_hermitian(t, 2))
        for _ in range(2):
            ramification_calls.clear()
            assert incommensurability_reason(d1, d2) == "ramification sets differ"
            assert len(ramification_calls) == 2

    @pytest.mark.parametrize(
        "form, message",
        [
            (
                lambda: hermitian_form(quaternion_algebra(QQ, -1, -1), 1, 2, 3),
                "form is definite at every real place; no distinguished place",
            ),
            (
                lambda: hermitian_form(quaternion_algebra(QQ, -1, 3), 1, 1, -1),
                "algebra does not ramify at the real place inf",
            ),
            (
                lambda: hermitian_form(
                    quaternion_algebra(Field(17), Field(17).sqrt_d, -1), 1, 1, -1
                ),
                "algebra does not ramify at the real place inf_0",
            ),
        ],
        ids=["definite", "split-at-inf", "split-at-inf_0"],
    )
    def test_a_failure_is_raised_again(self, form, message):
        d = OrbifoldClassDescriptor.nonsplit(form())
        failures = [_outcome(triple_of, d) for _ in range(2)]
        assert failures == [(NotQuaternionicHyperbolicError, message)] * 2
        assert d._triple is None


MEMO_FIELDS = (QQ, Field(5), Field(3), Field(17))


def _memo_forms(rng, field):
    """Nine Hermitian forms over ``field`` for nonsplit descriptors: eight
    of rank 2 or 3 over three totally definite algebras, some of them
    presented again under a field automorphism or scaled to be negative
    definite away from v0, and one definite at every real place."""
    places = field.real_places()
    negative = (-1,) * len(places)
    algebras = [
        quaternion_algebra(field, *(_element_with_signs(rng, field, negative) for _ in range(2)))
        for _ in range(3)
    ]
    forms = []
    while len(forms) < 8:
        D = rng.choice(algebras)
        t = AdmissibleTriple(field, rng.choice(places), D)
        coeffs = _random_hyperbolic_coeffs(rng, t, rng.choice((2, 3)))
        if len(places) == 2 and rng.random() < 0.3:
            signs = tuple(1 if v == t.v0 else -1 for v in places)
            coeffs = [_element_with_signs(rng, field, signs) * c for c in coeffs]
        forms.append(hermitian_form(D, *coeffs))
        if rng.random() < 0.5:
            _, E, image = _presented_again(rng, D, coeffs)
            forms.append(hermitian_form(E, *image))
    definite = (_element_with_signs(rng, field, (1,) * len(places)) for _ in range(3))
    return forms[:8] + [hermitian_form(rng.choice(algebras), *definite)]


class TestSameAnswersWithTheTripleMemo:
    """Every decision that reads a triple answers alike whether the
    triple is built afresh, read from the memo or built again on a
    deep copy."""

    def test_every_pair_decides_alike(self):
        rng = random.Random("triple-memo")
        forms = [h for field in MEMO_FIELDS for h in _memo_forms(rng, field)]
        pairs = [(i, j) for i in range(len(forms)) for j in range(len(forms))]
        fresh = {
            (i, j): _outcome(
                incommensurability_reason,
                OrbifoldClassDescriptor.nonsplit(forms[i]),
                OrbifoldClassDescriptor.nonsplit(forms[j]),
            )
            for i, j in pairs
        }
        descriptors = [OrbifoldClassDescriptor.nonsplit(h) for h in forms]
        triples = [_outcome(triple_of, d) for d in descriptors]
        assert [d._triple for d in descriptors] == [
            t if isinstance(t, AdmissibleTriple) else None for t in triples
        ]
        copies = copy.deepcopy(descriptors)
        assert copies == descriptors and all(d._triple is None for d in copies)
        for again in (descriptors, copies):
            assert {(i, j): _outcome(incommensurability_reason, again[i], again[j])
                    for i, j in pairs} == fresh
        kinds = Counter(r if r is None or isinstance(r, str) else r[0] for r in fresh.values())
        assert set(kinds) == {
            None, "fields differ", "ramification sets differ",
            "signatures differ at a real place", DimensionMismatchError,
            NotQuaternionicHyperbolicError,
        }, kinds

    @pytest.mark.parametrize("field", MEMO_FIELDS, ids=str)
    def test_embeddings_on_a_reused_ambient(self, field):
        rng = random.Random(f"triple-memo-embeddings:{field}")
        places = field.real_places()
        D = quaternion_algebra(
            field, *(_element_with_signs(rng, field, (-1,) * len(places)) for _ in range(2))
        )
        t = AdmissibleTriple(field, rng.choice(places), D)
        payload = _ambient_payload(hermitian_form(D, *_random_hyperbolic_coeffs(rng, t, 4)))
        ambient = parse_ambient(payload)
        verdicts = Counter()
        for _ in range(8):
            c = field.one
            while is_global_square(c):
                c = _element_with_signs(rng, field, tuple(rng.choice((-1, 1)) for _ in places))
            q = diagonal_form(field, *_random_hyperbolic_coeffs(rng, t, rng.randint(2, 4)))
            data = ComplexRestrictionData(c, _random_hyperbolic_coeffs(rng, t, 4))
            for decide, arg in ((embeds_real, q), (embeds_complex, data)):
                got = _outcome(decide, arg, ambient)
                assert got == _outcome(decide, arg, parse_ambient(payload))
                verdicts[decide.__name__, got.embeds] += 1
            assert ambient._triple is not None
        assert verdicts["embeds_real", True] == 8 and verdicts["embeds_complex", True] > 0
