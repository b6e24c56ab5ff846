"""End-to-end tests of the command line interface."""

import contextlib
import io
import json
import math
import os
import random
import subprocess
import sys
import time
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import quathyp
from quathyp.cli import load_payload, main
from quathyp.commensurability import canonical_hermitian
from quathyp.errors import PreconditionError
from quathyp.fields import QQ, element_support_primes
from quathyp.geometry import geometry_report
from quathyp.hermitian import hermitian_isometric
from quathyp.serialize import (
    parse_ambient,
    parse_element,
    parse_field,
    parse_hermitian_form,
    parse_triple,
    place_to_str,
)
from quathyp.subspaces import ComplexRestrictionData, surface_witness

RATIONAL = '{"base": "Q"}'
HAMILTON_TRIPLE = (
    '{"field": {"base": "Q"}, "v0": {"embedding": 0}, "algebra": {"a": -1, "b": -1}}'
)


def triple(a, b, d=None, embedding=0):
    field = '{"base": "Q"}' if d is None else f'{{"base": "quadratic", "d": {d}}}'
    return (
        f'{{"field": {field}, "v0": {{"embedding": {embedding}}}, '
        f'"algebra": {{"a": {a}, "b": {b}}}}}'
    )


def ambient(a, b, coeffs="[1, 1, -1]"):
    return (
        f'{{"kind": "nonsplit", "form": {{"field": {RATIONAL}, '
        f'"algebra": {{"a": {a}, "b": {b}}}, "coeffs": {coeffs}}}}}'
    )


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSymbol:
    def test_default_field_lists_support(self, capsys):
        code, out, _ = run(capsys, "symbol", "--", "-1", "-1")
        assert code == 0
        assert "(-1, -1)_inf = -1" in out
        assert "(-1, -1)_2 = -1" in out

    def test_single_place_json(self, capsys):
        code, out, _ = run(capsys, "symbol", "--json", "--place", "2", "--", "-1", "-1")
        assert code == 0
        payload = json.loads(out)
        assert payload["symbols"] == {"2": -1}

    def test_oversized_argument_is_an_input_error(self, capsys):
        code, out, _ = run(capsys, "symbol", "--place", "2", str(2**256 - 1), "-1")
        assert code == 0 and "= " in out
        code, _, err = run(capsys, "symbol", str(2**256), "-1")
        assert code == 2
        assert err.startswith("input error: ") and err.rstrip().endswith("(at /a)")

    @pytest.mark.parametrize(
        "argv,pointer",
        [
            (["--field", f'{{"base": "quadratic", "d": {2**256 + 1}}}'], "/d"),
            (["--place", str(2**256 + 1)], "/place"),
        ],
    )
    def test_oversized_field_or_place_is_an_input_error(self, capsys, argv, pointer):
        start = time.perf_counter()
        code, out, err = run(capsys, "symbol", *argv, "--", "-1", "-1")
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("input error: a 257-bit ")
        assert err.rstrip().endswith(f"exceeds 256 bits (at {pointer})")

    @pytest.mark.parametrize("place", [[], ["--place", "3"], ["--place", "inf"]])
    @pytest.mark.parametrize("a,b,pointer", [("0", "1", "/a"), ("3", "0/5", "/b")])
    def test_zero_argument_is_an_input_error(self, capsys, place, a, b, pointer):
        code, out, err = run(capsys, "symbol", *place, "--", a, b)
        assert code == 2 and out == ""
        assert err == f"input error: Hilbert symbol arguments must be nonzero (at {pointer})\n"

    def test_float_argument_names_the_accepted_forms(self, capsys):
        code, out, err = run(capsys, "symbol", "--", "1.5", "3")
        assert code == 2 and out == ""
        assert err == (
            "input error: expected an integer, a 'p/q' string or an object with keys a0, a1, "
            "got float (at /a)\n"
        )

    def test_fraction_shorthand(self, capsys):
        code, out, _ = run(capsys, "symbol", "--place", "2", "2/9", "5")
        assert code == 0
        assert "= -1" in out

    def test_quadratic_field_place(self, capsys):
        field = '{"base": "quadratic", "d": 5}'
        code, out, _ = run(
            capsys, "symbol", "--field", field, "--place", "11#1", "--", '{"a0": 4, "a1": 1}', "-1"
        )
        assert code == 0


class TestTwoSplit:
    """Q(sqrt(17)), where 2 splits: every command answers."""

    field = '{"base": "quadratic", "d": 17}'

    def test_ramification_symbols_and_isometry(self, capsys):
        code, out, _ = run(
            capsys, "ramification", "--json", f'{{"field": {self.field}, "a": -1, "b": 3}}'
        )
        ramified = json.loads(out)["ramified"]
        assert code == 0 and ramified == ["2#1", "2#2"]  # an even number of places
        values = []
        for place in ("2#1", "2#2"):
            code, out, _ = run(
                capsys, "symbol", "--json", "--field", self.field, "--place", place,
                "--", '{"a0": 0, "a1": 1}', "-1",
            )
            assert code == 0
            values.append(json.loads(out)["symbols"][place])
        assert values == [1, -1]
        q1 = f'{{"field": {self.field}, "coeffs": [1, -6]}}'
        q2 = f'{{"field": {self.field}, "coeffs": [2, -12]}}'
        code, out, _ = run(capsys, "isometric", q1, q2)
        assert code == 0 and out == "<1, -6> and <2, -12>: not isometric\n"


class TestRamification:
    def test_division_algebra(self, capsys):
        code, out, _ = run(
            capsys, "ramification", f'{{"field": {RATIONAL}, "a": -1, "b": -3}}'
        )
        assert code == 0
        assert "ramifies at: inf, 3" in out
        assert "division algebra: yes" in out

    def test_split_algebra(self, capsys):
        code, out, _ = run(
            capsys, "ramification", f'{{"field": {RATIONAL}, "a": 1, "b": 3}}'
        )
        assert code == 0
        assert "nowhere" in out and "division algebra: no" in out

    def test_factors_once_per_invocation(self, capsys, ramification_calls):
        code, out, _ = run(
            capsys, "ramification", "--json", f'{{"field": {RATIONAL}, "a": -1, "b": -3}}'
        )
        assert code == 0 and json.loads(out)["division"] is True
        assert len(ramification_calls) == 1

    def test_listing_is_not_a_decision(self, capsys):
        # --strict only demotes negative yes/no answers, not empty listings
        code, _, _ = run(
            capsys, "ramification", "--strict", f'{{"field": {RATIONAL}, "a": 1, "b": 3}}'
        )
        assert code == 0


class TestInvariants:
    def test_hermitian_report(self, capsys):
        payload = f'{{"field": {RATIONAL}, "algebra": {{"a": -1, "b": -1}}, "coeffs": [1, -3]}}'
        code, out, _ = run(capsys, "invariants", payload)
        assert code == 0
        assert "signature at inf: (1, 1)" in out
        assert "dim 8, det class 1, hasse +1" in out

    def test_hermitian_signatures_read_each_ramified_place_once(self, capsys, hilbert_calls):
        # <1, 1, -sqrt(5)> over (-1, -1 / Q(sqrt(5))): one symbol per real place,
        # and the closed form's (a, b)_v and (-1, -1)_v at each finite place
        payload = (
            '{"field": {"base": "quadratic", "d": 5}, "algebra": {"a": -1, "b": -1}, '
            '"coeffs": [1, 1, {"a0": 0, "a1": -1}]}'
        )
        code, out, _ = run(capsys, "invariants", payload)
        places = Counter(place_to_str(v) for _, _, v in hilbert_calls)
        assert code == 0 and places == {"inf_0": 1, "inf_1": 1, "2": 2, "5": 2}
        assert out == (
            "trace-form invariants of <1, 1, -sqrt(5)> over (-1, -1 / Q(sqrt(5)))\n"
            "  signature at inf_0: (2, 1)\n"
            "  signature at inf_1: (3, 0)\n"
            "  at 2: dim 12, det class 1, hasse +1\n"
            "  at 5: dim 12, det class 1, hasse +1\n"
        )

    def test_hermitian_det_class_is_trivial_over_a_quadratic_field(self, capsys):
        # the trace form's determinant is a square; its class prints as 1
        payload = (
            '{"field": {"base": "quadratic", "d": 5}, "algebra": {"a": {"a0": 1, "a1": 1}, '
            '"b": -1}, "coeffs": [1, {"a0": 2, "a1": 1}, -3]}'
        )
        code, out, _ = run(capsys, "invariants", payload)
        assert code == 0
        assert out.splitlines()[2:] == [
            "  at 2: dim 12, det class 1, hasse -1",
            "  at 3: dim 12, det class 1, hasse +1",
            "  at 5: dim 12, det class 1, hasse +1",
        ]

    @pytest.mark.parametrize("hermitian", [False, True], ids=["quadratic", "hermitian"])
    def test_hostile_coefficients_keep_their_report(self, capsys, hermitian):
        # the determinant (eight 38-bit primes) is reduced, not factored
        primes = [p for pair in HOSTILE_PRIMES for p in pair]
        code, out, _ = run(capsys, "invariants", hostile_payload(hermitian))
        coeffs = ", ".join(str(c) for c in HOSTILE_COEFFS)
        if hermitian:
            header = f"trace-form invariants of <{coeffs}> over (-1, -1 / Q)"
            local = ["dim 16, det class 1, hasse +1"] * 9
        else:
            header = f"invariants of <{coeffs}>"
            local = [
                f"dim 4, det class {math.prod(primes)}, hasse {s:+d}"
                for s in (-1, -1, -1, 1, -1, 1, -1, -1, -1)
            ]
        assert code == 0
        assert out.splitlines() == [header, "  signature at inf: (2, 2)"] + [
            f"  at {p}: {entry}" for p, entry in zip([2, *primes], local)
        ]

    def test_quadratic_json(self, capsys):
        payload = f'{{"field": {RATIONAL}, "coeffs": [1, 1, -3]}}'
        code, out, _ = run(capsys, "invariants", "--json", payload)
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "quadratic"
        entries = {entry["place"]: entry for entry in data["local"]}
        assert entries["2"]["dim"] == 3 and entries["2"]["hasse"] == 1


#: four products of two 38-bit primes (the first eight primes above 2**37)
HOSTILE_PRIMES = [
    (137438953481, 137438953501), (137438953513, 137438953541),
    (137438953567, 137438953577), (137438953591, 137438953657),
]
HOSTILE_COEFFS = [(-1) ** i * p * q for i, (p, q) in enumerate(HOSTILE_PRIMES)]


def hostile_payload(hermitian):
    algebra = {"algebra": {"a": -1, "b": -1}} if hermitian else {}
    return json.dumps({"field": {"base": "Q"}, **algebra, "coeffs": HOSTILE_COEFFS})


def _payload_element(rng, d, sign=0):
    """A seeded element as payload JSON, over Q when d is None; totally
    positive or totally negative when sign is +1 or -1."""
    den = rng.choice((1, 1, 2, 9, 35))
    a1 = 0 if d is None else rng.randint(-60, 60)
    a0 = rng.choice((1, -1)) * rng.randint(1, 5000)
    if sign:
        a0 = sign * (abs(a1) * (math.isqrt(d or 0) + 1) + rng.randint(1, 5000))
    return f"{a0}/{den}" if d is None else {"a0": f"{a0}/{den}", "a1": f"{a1}/{den}"}


def _factor_cases():
    """(argv, field JSON, payload elements) for seeded payloads of every
    subcommand the factor-size guard covers, over Q, Q(sqrt(3)),
    Q(sqrt(5)) and Q(sqrt(17)), and for the two hostile payloads."""
    rng = random.Random(25)
    cases = []
    for d in (None, 3, 5, 17):
        field = {"base": "Q"} if d is None else {"base": "quadratic", "d": d}

        def add(argv, *payloads, elements):
            cases.append((argv + [json.dumps(p) for p in payloads], field, elements))

        def elements(n, sign=0):
            return [_payload_element(rng, d, sign) for _ in range(n)]

        def triple_(a, b):
            return {"field": field, "v0": {"embedding": 0}, "algebra": {"a": a, "b": b}}

        for n in (3, 5):
            coeffs = elements(n)
            add(["invariants"], {"field": field, "coeffs": coeffs}, elements=coeffs)
        for n in (2, 4):
            a, b, *coeffs = elements(n + 2)
            herm = {"field": field, "algebra": {"a": a, "b": b}, "coeffs": coeffs}
            add(["invariants"], herm, elements=[a, b, *coeffs])
        a, b = elements(2)
        add(["symbol", "--field", json.dumps(field), "--"], a, b, elements=[a, b])
        a, b = elements(2)
        add(["ramification"], {"field": field, "a": a, "b": b}, elements=[a, b])
        a, b = elements(2, sign=-1)
        add(["admissible"], triple_(a, b), elements=[a, b])
        a, b = elements(2, sign=-1)
        add(["canonical-form", "--m", "3"], triple_(a, b), elements=[a, b])
        a, b, c, e = elements(4, sign=-1)
        add(["commensurable"], triple_(a, b), triple_(c, e), elements=[a, b, c, e])
        if d is None:  # class descriptors: a form of signature (2, 1)
            a, b, c, e = elements(4, sign=-1)
            coeffs = elements(2, sign=1) + elements(1, sign=-1)
            left, right = (
                {"kind": "nonsplit", "form": {"field": field, "algebra": {"a": x, "b": y},
                                              "coeffs": coeffs}}
                for x, y in ((a, b), (c, e))
            )
            add(["commensurable"], left, right, elements=[a, b, c, e, *coeffs])
    for hermitian in (False, True):
        cases.append((
            ["invariants", hostile_payload(hermitian)],
            {"base": "Q"},
            HOSTILE_COEFFS + ([-1, -1] if hermitian else []),
        ))
    return cases


class TestFactorSizes:
    """No subcommand factors an integer wider than 32 bits (room for the
    field discriminant and the dyadic class representatives) or than the
    widest one `element_support_primes` takes from a single payload
    element: a reduced norm numerator or a denominator.

    Left out: `isometric` on Hermitian forms, `embeds-real`,
    `embeds-complex` and `surface-witness`.  They decide through
    `hermitian_isometric`, which builds trace forms and so factors
    products of parameters such as a*b.
    """

    @pytest.mark.parametrize(
        "argv,field,elements",
        [
            pytest.param(*case, id=f"{case[0][0]}-{case[1].get('d', 'Q')}-{i}")
            for i, case in enumerate(_factor_cases())
        ],
    )
    def test_no_integer_wider_than_a_payload_element(
        self, capsys, factor_calls, argv, field, elements
    ):
        code, _, err = run(capsys, *argv)
        assert code == 0, err
        factored = [n for (n,) in factor_calls]
        factor_calls.clear()
        k = parse_field(field)
        for x in elements:
            element_support_primes(parse_element(x, k))
        bound = max([32] + [abs(n).bit_length() for (n,) in factor_calls])
        assert max((abs(n).bit_length() for n in factored), default=0) <= bound


class TestIsometric:
    def test_positive(self, capsys):
        q1 = f'{{"field": {RATIONAL}, "coeffs": [1, 1]}}'
        q2 = f'{{"field": {RATIONAL}, "coeffs": [2, 2]}}'
        code, out, _ = run(capsys, "isometric", q1, q2)
        assert code == 0 and "isometric" in out

    def test_negative_with_strict_exit(self, capsys):
        q1 = f'{{"field": {RATIONAL}, "coeffs": [1, 1]}}'
        q2 = f'{{"field": {RATIONAL}, "coeffs": [3, 3]}}'
        code, out, _ = run(capsys, "isometric", "--strict", q1, q2)
        assert code == 1 and "not isometric" in out

    def test_mixed_kinds_rejected(self, capsys):
        quad = f'{{"field": {RATIONAL}, "coeffs": [1, 1]}}'
        herm = f'{{"field": {RATIONAL}, "algebra": {{"a": -1, "b": -1}}, "coeffs": [1, 1]}}'
        code, _, err = run(capsys, "isometric", quad, herm)
        assert code == 2 and "input error" in err


class TestCommensurable:
    def test_triples(self, capsys):
        code, out, _ = run(capsys, "commensurable", triple(-1, -1), triple(-1, -4))
        assert code == 0 and "commensurable: yes" in out
        code, out, _ = run(capsys, "commensurable", triple(-1, -1), triple(-1, -3))
        assert code == 0 and "ramification sets differ" in out

    def test_descriptors(self, capsys):
        code, out, _ = run(capsys, "commensurable", ambient(-1, -1), ambient(-1, -3))
        assert code == 0 and "no" in out
        code, out, _ = run(
            capsys, "commensurable", "--json", ambient(-1, -1), ambient(-4, -9)
        )
        assert json.loads(out)["commensurable"] is True

    def test_split_versus_nonsplit(self, capsys):
        split = f'{{"kind": "split", "field": {RATIONAL}, "n": 3}}'
        code, out, _ = run(capsys, "commensurable", split, ambient(-1, -1))
        assert code == 0 and "one class is split" in out

    def test_conjugate_twist_over_quadratic_field(self, capsys):
        t1 = triple(-1, -1, d=5, embedding=0)
        t2 = triple(-1, -1, d=5, embedding=1)
        code, out, _ = run(capsys, "commensurable", t1, t2)
        assert code == 0 and "yes" in out

    def test_fields_differ(self, capsys):
        code, out, _ = run(capsys, "commensurable", triple(-1, -1), triple(-1, -1, d=5))
        assert code == 0 and out == "commensurable: no (fields differ)\n"

    def test_triple_reason_reads_the_verdict(self, capsys, ramification_calls):
        # one ramification set per triple, both built by triples_equivalent;
        # the reason follows from the verdict and builds none
        code, out, _ = run(capsys, "commensurable", triple(-1, -1), triple(-1, -3))
        assert code == 0 and out == "commensurable: no (ramification sets differ)\n"
        assert len(ramification_calls) == 2

    def test_descriptor_reasons_over_a_quadratic_field(self, capsys, ramification_calls):
        """A negative nonsplit verdict at one field and rank names its reason
        from the Galois images of the two ramification sets: one set per
        algebra, built once for the verdict and its reason together."""

        def amb(a1, b):  # <1, 1, -sqrt(5)> is indefinite at inf_0 only
            return (
                '{"kind": "nonsplit", "form": {"field": {"base": "quadratic", "d": 5}, '
                f'"algebra": {{"a": {{"a0": -4, "a1": {a1}}}, "b": {b}}}, '
                '"coeffs": [1, 1, {"a1": -1}]}}'
            )

        # the conjugate algebra: isomorphic only under the conjugation,
        # which moves the distinguished place
        code, out, _ = run(capsys, "commensurable", amb(-1, -1), amb(1, -1))
        assert code == 0 and out == "commensurable: no (signatures differ at a real place)\n"
        assert len(ramification_calls) == 2
        code, out, _ = run(capsys, "commensurable", amb(-1, -1), amb(-1, -3))
        assert code == 0 and out == "commensurable: no (ramification sets differ)\n"
        assert len(ramification_calls) == 4


class TestAdmissible:
    def test_positive_reports_compactness(self, capsys):
        code, out, _ = run(capsys, "admissible", HAMILTON_TRIPLE)
        assert code == 0
        assert "admissible" in out and "compact quotients: no" in out

    def test_cocompact_case(self, capsys):
        code, out, _ = run(capsys, "admissible", triple(-1, -1, d=5))
        assert code == 0 and "compact quotients: yes" in out

    def test_negative(self, capsys):
        code, out, _ = run(capsys, "admissible", "--strict", triple(2, 5))
        assert code == 1 and "not admissible" in out


class TestCanonicalForm:
    def test_rational(self, capsys):
        code, out, _ = run(capsys, "canonical-form", "--m", "2", HAMILTON_TRIPLE)
        assert code == 0 and "<1, 1, -1>" in out

    def test_json_coefficients(self, capsys):
        code, out, _ = run(
            capsys, "canonical-form", "--json", "--m", "3", triple(-1, -1, d=5)
        )
        data = json.loads(out)
        assert len(data["form"]["coeffs"]) == 4

    def test_m_bound_exits_2(self, capsys):
        code, out, err = run(capsys, "canonical-form", "--m", "1025", HAMILTON_TRIPLE)
        assert code == 2 and out == ""
        assert err == "error: the canonical form needs 2 <= m <= 1024, got m = 1025\n"


class TestEmbeddings:
    def test_real_embedding(self, capsys):
        q = f'{{"field": {RATIONAL}, "coeffs": [1, 1, -3]}}'
        code, out, _ = run(capsys, "embeds-real", q, ambient(-1, -1))
        assert code == 0 and "embeds: yes" in out

    def test_complex_refusal_and_acceptance(self, capsys):
        data = f'{{"field": {RATIONAL}, "c": -7, "coeffs": [1, 1, -1]}}'
        code, out, _ = run(capsys, "embeds-complex", "--strict", "0", data, ambient(-1, -1))
        assert code == 1 and "subfield-does-not-embed" in out
        code, out, _ = run(capsys, "embeds-complex", "0", data, ambient(-1, -3))
        assert code == 0 and "embeds: yes" in out

    def test_complex_with_separate_parameter(self, capsys):
        q = f'{{"field": {RATIONAL}, "coeffs": [1, 1, -1]}}'
        code, out, _ = run(capsys, "embeds-complex", "--", "-7", q, ambient(-1, -3))
        assert code == 0 and "embeds: yes" in out

    def test_form_negative_definite_away_from_v0(self, capsys):
        # (1 + sqrt 5) <1, 1, -sqrt 5>, of signature (0, 3) at inf_1, is
        # the class of <1, 1, -sqrt 5>
        field = '{"base": "quadratic", "d": 5}'
        unit = '{"a0": 1, "a1": 1}'
        q = f'{{"field": {field}, "coeffs": [{unit}, {unit}, {{"a0": -5, "a1": -1}}]}}'
        amb = (
            f'{{"kind": "nonsplit", "form": {{"field": {field}, '
            f'"algebra": {{"a": -1, "b": -1}}, "coeffs": [1, 1, {{"a1": -1}}]}}}}'
        )
        code, out, err = run(capsys, "embeds-real", "--json", q, amb)
        assert code == 0 and err == ""
        data = json.loads(out)
        assert data["embeds"] is True
        witness = parse_hermitian_form(data["witness"])
        assert hermitian_isometric(witness, parse_ambient(json.loads(amb)).form)


class TestSurfaceWitness:
    def test_rational(self, capsys):
        code, out, _ = run(capsys, "surface-witness", HAMILTON_TRIPLE)
        assert code == 0 and "<1, 1, -3>" in out

    def test_quadratic_field_json(self, capsys):
        code, out, _ = run(capsys, "surface-witness", "--json", triple(-1, -1, d=2))
        data = json.loads(out)
        assert data["form"]["coeffs"][-1] == {"a0": "0", "a1": "-1"}


class TestVerifyGeometry:
    def test_reports_check_lines(self, capsys):
        code, out, _ = run(capsys, "verify-geometry", "--m", "2", "--samples", "5")
        assert code == 0
        assert "10/10 checks passed" in out
        assert "bracket-identities" in out and "✓" in out and "✗" not in out

    def test_strict_exit_reflects_failures(self, capsys, monkeypatch):
        code, _, _ = run(
            capsys, "verify-geometry", "--m", "2", "--samples", "5", "--strict"
        )
        assert code == 0

        failing = {
            "m": 2,
            "seed": 7,
            "samples": 5,
            "checks": [
                {"name": "ok", "value": 0.0, "reference": 0.0, "passed": True, "detail": "fine"},
                {"name": "bad", "value": 1.0, "reference": 0.0, "passed": False, "detail": "off"},
            ],
            "all_passed": False,
        }
        monkeypatch.setattr("quathyp.cli.geometry_report", lambda *a, **k: failing)
        code, out, _ = run(
            capsys, "verify-geometry", "--m", "2", "--samples", "5", "--strict"
        )
        assert code == 1
        assert "bad: off ✗" in out and "1/2 checks passed" in out

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--m", "2", "--samples", "0"], "at least one sample, got 0"),
            (["--m", "2", "--samples", "-1"], "at least one sample, got -1"),
            (["--m", "17"], "2 <= m <= 16, got m = 17"),
        ],
    )
    def test_bounds_exit_2(self, capsys, flags, message):
        code, out, err = run(capsys, "verify-geometry", *flags)
        assert code == 2 and out == ""
        assert err == f"error: the report needs {message}\n"

    def test_sample_bound_exits_2_at_once(self, capsys):
        start = time.monotonic()
        code, out, err = run(capsys, "verify-geometry", "--m", "2", "--samples", "1000000000")
        assert time.monotonic() - start < 1.0
        assert code == 2 and out == ""
        assert err == "error: the report needs at most 10000 samples, got 1000000000\n"

    def test_json_payload(self, capsys):
        code, out, _ = run(
            capsys, "verify-geometry", "--json", "--m", "2", "--samples", "5"
        )
        data = json.loads(out)
        assert data["all_passed"] is True
        assert len(data["checks"]) == 10


class TestErrorHandling:
    def test_malformed_json(self, capsys):
        code, _, err = run(capsys, "ramification", '{"field": ')
        assert code == 2 and "input error" in err

    def test_missing_key_pointer(self, capsys):
        code, _, err = run(capsys, "ramification", '{"a": -1, "b": -1}')
        assert code == 2 and "/field" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "ramification", "/no/such/payload.json")
        assert code == 2 and "error" in err

    def test_unknown_place(self, capsys):
        code, _, err = run(
            capsys, "symbol", "--place", "11", "--field",
            '{"base": "quadratic", "d": 5}', "--", "-1", "-1",
        )
        assert code == 2 and "11#1" in err

    @pytest.mark.parametrize("place", ["0", "1", "4", "4#1"])
    def test_non_prime_place(self, capsys, place):
        code, out, err = run(
            capsys, "symbol", "--field", '{"base": "quadratic", "d": 5}', "--place", place,
            "--", "-1", "-1",
        )
        assert code == 2 and out == ""
        n = place.partition("#")[0]
        assert err == f"input error: {n} is not prime (at /place)\n"

    def test_factoring_budget_exhausted(self, capsys, monkeypatch):
        import quathyp.numtheory

        # two distinct ~24-bit primes: about 2**12 Pollard-Brent steps to split
        b = 12582917 * 12583007
        monkeypatch.setattr(quathyp.numtheory, "FACTOR_STEP_BUDGET", 64)
        quathyp.numtheory._factor.cache_clear()
        code, out, err = run(capsys, "ramification", f'{{"field": {RATIONAL}, "a": -1, "b": {b}}}')
        assert code == 2 and out == ""
        assert err.startswith("error: could not split a 48-bit integer")
        assert "Traceback" not in err

    def test_factoring_budget_while_parsing_is_not_an_input_error(self, capsys, monkeypatch):
        import quathyp.numtheory

        # (-1, b) with b > 0 is unramified at infinity, so parsing factors b
        b = 16777259 * 16777289
        monkeypatch.setattr(quathyp.numtheory, "FACTOR_STEP_BUDGET", 64)
        quathyp.numtheory._factor.cache_clear()
        code, out, err = run(capsys, "commensurable", ambient(-1, b), ambient(-1, -1))
        assert code == 2 and out == ""
        assert err.startswith("error: could not split a 49-bit integer")


class TestExitCodes:
    """Exit 2 belongs to input errors and to input a decision does not
    accept, raised as `PreconditionError`; any other exception is a bug
    and propagates."""

    def test_preconditions_are_typed(self):
        t = parse_triple(json.loads(triple(2, 5)))  # not admissible
        cases = [
            (lambda: canonical_hermitian(t, 2), f"{t} is not admissible"),
            (
                lambda: canonical_hermitian(t, 1025),
                "the canonical form needs 2 <= m <= 1024, got m = 1025",
            ),
            (lambda: surface_witness(t), f"{t} is not admissible"),
            (lambda: geometry_report(1), "the report needs 2 <= m <= 16, got m = 1"),
            (lambda: geometry_report(2, samples=0), "the report needs at least one sample, got 0"),
            (
                lambda: ComplexRestrictionData(QQ.zero, (QQ.one,)),
                "subfield generator must be nonzero",
            ),
        ]
        for build, message in cases:
            with pytest.raises(PreconditionError) as info:
                build()
            assert isinstance(info.value, ValueError) and str(info.value) == message

    def test_other_exceptions_are_not_input_errors(self, monkeypatch):
        def broken(*args):
            raise ValueError("internal")

        monkeypatch.setattr("quathyp.cli.surface_witness", broken)
        with pytest.raises(ValueError, match="internal"):
            main(["surface-witness", HAMILTON_TRIPLE])

    @pytest.mark.parametrize(
        "payload,message",
        [
            ("[" * 100_000, "maximum recursion depth exceeded"),
            ("1" * 5000, "Exceeds the limit (4300 digits)"),
        ],
    )
    def test_hostile_json_is_an_input_error(self, capsys, payload, message):
        code, out, err = run(capsys, "ramification", payload)
        assert code == 2 and out == ""
        assert err.startswith("input error: not valid JSON: ") and message in err

    def test_undecodable_file_is_an_input_error(self, capsys, tmp_path):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\xff\xfe{")
        code, out, err = run(capsys, "ramification", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"input error: not valid JSON in {path}: 'utf-8' codec")



class TestPayloadArguments:
    ALGEBRA = '{"field": {"base": "Q"}, "a": -1, "b": -3}'

    @pytest.mark.parametrize("name", ["7alg.json", "-alg.json", "12/alg", "1e5.json"])
    def test_paths_starting_with_a_digit_or_minus(self, capsys, tmp_path, monkeypatch, name):
        (tmp_path / name).parent.mkdir(exist_ok=True)
        (tmp_path / name).write_text(self.ALGEBRA, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, "ramification", "--", name)
        assert (code, err) == (0, "")
        assert "ramifies at: inf, 3" in out

    @pytest.mark.parametrize(
        "arg, value",
        [("-7", -7), ("1/2", "1/2"), (" -3/4 ", "-3/4"), ("1.5", 1.5), ("1e5", 1e5),
         (str(2**300), 2**300), ('"2/9"', "2/9"), ("[1, 2]", [1, 2])],
    )
    def test_numbers_and_fractions_are_inline(self, tmp_path, monkeypatch, arg, value):
        # a file of the same name is not read
        (tmp_path / arg.strip()).parent.mkdir(exist_ok=True)
        (tmp_path / arg.strip()).write_text(self.ALGEBRA, encoding="utf-8")
        monkeypatch.chdir(tmp_path)
        assert load_payload(arg) == value


FIELD_JSON = [{"base": "Q"}] + [{"base": "quadratic", "d": d} for d in (5, 3, 6, 17)]
PAYLOAD_KEYS = ["a0", "a1", "a", "b", "c", "base", "d", "coeffs", "kind", "n"]
#: arbitrary JSON: what a malformed payload may hold in place of any part
JUNK = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-50, 50)
    | st.sampled_from([0, 1.5, 2**300, "1/0", "3/4", "-7", "x", "inf_1", "11#1"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(PAYLOAD_KEYS), inner, max_size=3),
    max_leaves=6,
)
DROP = object()


def _parts(obj, path=()):
    """The paths to every part of a JSON value, itself included."""
    yield path
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
    else:
        items = ()
    for key, value in items:
        yield from _parts(value, path + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    if len(path) == 1 and value is DROP:
        del out[path[0]]
    else:
        out[path[0]] = _replaced(out[path[0]], path[1:], value)
    return out


@st.composite
def mutated(draw, template):
    """The template with up to two parts replaced by arbitrary JSON or
    dropped."""
    for path in draw(st.lists(st.sampled_from(list(_parts(template))), max_size=2, unique=True)):
        try:
            template = _replaced(template, path, draw(JUNK | st.just(DROP) if path else JUNK))
        except (KeyError, IndexError, TypeError):  # inside a part replaced before
            pass
    return template


@st.composite
def malformed_invocations(draw):
    field = draw(st.sampled_from(FIELD_JSON))
    irrational = [{"a0": -1, "a1": 1}] if "d" in field else []
    elem = st.sampled_from([-1, -2, -3, 2, 3, 5, -7] + irrational)
    algebra = {"a": draw(elem), "b": draw(elem)}
    qform = {"field": field, "coeffs": draw(st.lists(elem, min_size=1, max_size=4))}
    hform = {**qform, "algebra": algebra}
    v0 = {"embedding": draw(st.sampled_from([0, 1]))}
    triple_ = {"field": field, "v0": v0, "algebra": algebra}
    ambient_ = {"kind": "nonsplit", "form": {**hform, "coeffs": [1, 1, -1]}}
    split = {"kind": "split", "field": field, "n": 3}
    m = draw(st.sampled_from(["-1", "1", "2", "3", "1025"]))
    # the report's cost grows like m^4: one value in range
    report = ["--m", draw(st.sampled_from(["-1", "1", "2", "17"])),
              "--samples", draw(st.sampled_from(["-1", "0", "1"]))]
    command, options, templates = draw(
        st.sampled_from(
            [
                ("symbol", ["--field", json.dumps(field)], [-1, {"a0": 3, "a1": 1}]),
                ("ramification", [], [{**algebra, "field": field}]),
                ("invariants", [], [hform]),
                ("isometric", [], [qform, qform]),
                ("isometric", [], [hform, hform]),
                ("commensurable", [], [triple_, triple_]),
                ("commensurable", [], [ambient_, ambient_]),
                ("commensurable", [], [ambient_, split]),
                ("admissible", [], [triple_]),
                ("canonical-form", ["--m", m], [triple_]),
                ("embeds-real", [], [qform, ambient_]),
                ("embeds-complex", [], [draw(elem), qform, ambient_]),
                ("embeds-complex", [], [0, {**qform, "c": -7}, ambient_]),
                ("surface-witness", [], [triple_]),
                ("verify-geometry", report, []),
            ]
        )
    )
    flags = draw(st.lists(st.sampled_from(["--json", "--strict"]), unique=True))
    payloads = [json.dumps(draw(mutated(t))) for t in templates]
    return [command, *flags, *options] + (["--", *payloads] if payloads else [])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(malformed_invocations())
def test_malformed_payloads_exit_0_1_or_2(argv):
    """No payload, however malformed, ends in anything but a decision or
    an error message: no other exit code and no traceback."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1) or (code == 2 and err.getvalue().startswith(("input error: ", "error: ")))


def test_console_script_is_installed():
    # the child interpreter imports the same quathyp as this test process
    root = os.path.dirname(os.path.dirname(quathyp.__file__))
    path = os.pathsep.join(filter(None, (root, os.environ.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-m", "quathyp.cli", "symbol", "--place", "3", "--", "-1", "-3"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert "(-1, -3)_3 = -1" in proc.stdout
