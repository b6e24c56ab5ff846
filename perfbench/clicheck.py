"""Checks of the ``quathyp ... --json`` outputs of a cli-oneshot round.

``check(op, code, out)`` returns "" when the output of one invocation
matches what the generator derived for it (see ``workloads.cli_round``),
else a description of the first mismatch.  The checks recompute what
they can with :mod:`oracle` (Hilbert symbols over Q, signs, square
classes) instead of trusting stored outputs.
"""

from __future__ import annotations

import json
from fractions import Fraction

import oracle


def _place(name: str):
    return "inf" if name == "inf" else int(name)


def _rational(x) -> Fraction:
    if isinstance(x, dict):
        if Fraction(x.get("a1", 0)) != 0:
            raise ValueError(f"irrational value {x} over Q")
        return Fraction(x["a0"])
    return Fraction(x)


def _witness(result: dict, want: list) -> str:
    coeffs = [_rational(c) for c in result["witness"]["coeffs"]]
    if coeffs != [Fraction(c) for c in want]:
        return f"witness {coeffs}, expected {want}"
    if oracle.signature([(c, 0) for c in coeffs], None, 0) != (len(want) - 1, 1):
        return "witness is not hyperbolic at inf"
    return ""


def check(op: dict, code: int, out: str) -> str:
    if code != 0:
        return f"exit code {code}"
    try:
        result = json.loads(out)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    e = op["expect"]
    label = op["label"]
    if label == "symbol-reference":
        return "" if result["symbols"] == e["symbols"] else f"symbols {result['symbols']}"
    if label == "symbol":
        a, b = Fraction(e["a"]), Fraction(e["b"])
        for name, value in result["symbols"].items():
            if value != oracle.hilbert_q(a, b, _place(name)):
                return f"({a}, {b}) at {name} = {value}"
        minus = sorted(n for n, v in result["symbols"].items() if v == -1)
        return "" if minus == e["minus"] else f"-1 at {minus}, expected {e['minus']}"
    if label.startswith("ramification"):
        if sorted(result["ramified"]) != e["ramified"]:
            return f"ramified at {result['ramified']}, expected {e['ramified']}"
        return "" if result["division"] is bool(e["ramified"]) else "division flag"
    if label == "invariants":
        coeffs = [Fraction(c) for c in e["coeffs"]]
        plus = sum(1 for c in coeffs if c > 0)
        if result["signatures"] != {"inf": [plus, len(coeffs) - plus]}:
            return f"signatures {result['signatures']}"
        det = Fraction(1)
        for c in coeffs:
            det *= c
        for entry in result["local"]:
            p = int(entry["place"])
            if entry["dim"] != len(coeffs):
                return f"dim at {p}"
            if not oracle.is_rational_square(_rational(entry["det"]) / det):
                return f"det class {entry['det']} at {p}"
            if entry["hasse"] != oracle.hasse_q(coeffs, p):
                return f"hasse at {p} = {entry['hasse']}"
        minus = sorted(x["place"] for x in result["local"] if x["hasse"] == -1)
        return "" if minus == e["minus"] else f"hasse -1 at {minus}, expected {e['minus']}"
    if label in ("isometric", "commensurable", "admissible"):
        if result[label] is not e[label]:
            return f"{label} {result[label]}, expected {e[label]}"
        if label == "admissible":
            if sorted(result["ramified"]) != e["ramified"]:
                return f"ramified at {result['ramified']}"
            # Q has one real place, where the trace form is indefinite of
            # dimension >= 12, hence isotropic (Meyer): never compact
            if result["compact"] is not (False if e["admissible"] else None):
                return f"compact {result['compact']}"
        return ""
    if label == "canonical-form":
        form = result["form"]
        coeffs = [_rational(c) for c in form["coeffs"]]
        if coeffs != [Fraction(c) for c in e["coeffs"]]:
            return f"canonical form {coeffs}"
        alg = [_rational(form["algebra"]["a"]), _rational(form["algebra"]["b"])]
        return "" if alg == [Fraction(x) for x in e["algebra"]] else f"algebra {alg}"
    if label in ("embeds-real", "embeds-complex"):
        if result["embeds"] is not e["embeds"]:
            return f"embeds {result['embeds']} ({result['failed_condition']})"
        if e["embeds"]:
            return _witness(result, e["witness"])
        return "" if result["failed_condition"] == "subfield-does-not-embed" else "failed condition"
    if label == "surface-witness":
        coeffs = [_rational(c) for c in result["form"]["coeffs"]]
        lam = coeffs[-1]
        if coeffs[:2] != [1, 1] or lam >= 0 or lam.denominator != 1:
            return f"surface witness {coeffs}"
        # <1, 1, lam> is anisotropic over Q iff -lam is not a sum of two squares
        isotropic = oracle.sum_of_two_squares(-lam.numerator)
        return f"<1, 1, {lam}> is isotropic" if isotropic else ""
    if label.startswith("verify-geometry"):
        if result["all_passed"] is not True:
            failed = [c["name"] for c in result["checks"] if not c["passed"]]
            return f"geometry checks failed: {failed}"
        kappa = next(c["value"] for c in result["checks"] if c["name"] == "killing-x1")
        ok = abs(kappa - e["killing"]) <= 1e-9
        return "" if ok else f"killing-x1 {kappa}, expected {e['killing']}"
    return f"no check for {label}"
