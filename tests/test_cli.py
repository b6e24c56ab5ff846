"""End-to-end tests of the command line interface."""

import json
import os
import subprocess
import sys
import time

import pytest

import quathyp
from quathyp.cli import main

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
        # <1, 1, -sqrt(5)> over (-1, -1 / Q(sqrt(5))): one symbol per real place
        payload = (
            '{"field": {"base": "quadratic", "d": 5}, "algebra": {"a": -1, "b": -1}, '
            '"coeffs": [1, 1, {"a0": 0, "a1": -1}]}'
        )
        code, out, _ = run(capsys, "invariants", payload)
        assert code == 0 and len(hilbert_calls) == 2
        assert out == (
            "trace-form invariants of <1, 1, -sqrt(5)> over (-1, -1 / Q(sqrt(5)))\n"
            "  signature at inf_0: (2, 1)\n"
            "  signature at inf_1: (3, 0)\n"
            "  at 2: dim 12, det class 1, hasse +1\n"
            "  at 5: dim 12, det class 1, hasse +1\n"
        )

    def test_quadratic_json(self, capsys):
        payload = f'{{"field": {RATIONAL}, "coeffs": [1, 1, -3]}}'
        code, out, _ = run(capsys, "invariants", "--json", payload)
        assert code == 0
        data = json.loads(out)
        assert data["kind"] == "quadratic"
        entries = {entry["place"]: entry for entry in data["local"]}
        assert entries["2"]["dim"] == 3 and entries["2"]["hasse"] == 1


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
        algebra for the verdict and one per algebra for the reason."""

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
        assert len(ramification_calls) == 4
        code, out, _ = run(capsys, "commensurable", amb(-1, -1), amb(-1, -3))
        assert code == 0 and out == "commensurable: no (ramification sets differ)\n"
        assert len(ramification_calls) == 8


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
