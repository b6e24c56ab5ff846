"""Command-line front end.

One executable, subcommand per decision; descriptor arguments are either
inline JSON or paths to JSON files.  An argument is inline when it starts
with ``{``, ``[`` or ``"``, or when it is a JSON number (``-7``, ``1.5``)
or a fraction ``p/q`` (``1/2``); anything else, ``7alg.json`` included,
is a path.  ``--json`` switches to machine-readable output.  Exit status:
0 normally, 1 when ``--strict`` is set and the decision came out
negative, 2 on malformed input (the error message carries the JSON
pointer of the offending field) and on input a decision does not accept,
such as an inadmissible triple or a rank out of range.  Any other
exception is a bug and ends in a traceback.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from functools import partial

from . import serialize
from .algebras import ramification_set, ramified_real_places
from .commensurability import (
    canonical_hermitian,
    incommensurability_reason,
    inequivalence_reason,
    is_admissible,
    is_compact,
)
from .errors import DescriptorError, QuathypError
from .fields import real_signature
from .geometry import geometry_report
from .hermitian import hermitian_isometric, trace_invariants_closed
from .quadratic import forms_isometric, form_support, local_invariants
from .subspaces import (
    ComplexRestrictionData,
    embeds_complex,
    embeds_real,
    surface_witness,
)
from .symbols import hilbert_symbol, symbol_support


def load_payload(arg: str):
    """Inline JSON (objects, lists, strings, numbers, p/q strings) or a
    path to a JSON file."""
    text = arg.strip()
    # a JSON number, or p/q fraction shorthand (group 1)
    scalar = re.fullmatch(r"-?\d+(?:(\s*/\s*\d+)|(?:\.\d+)?(?:[eE][-+]?\d+)?)", text)
    if scalar and scalar[1]:
        return text  # fraction shorthand like 1/2
    inline = bool(scalar) or text[:1] in ("{", "[", '"')
    where = "" if inline else f" in {arg}"
    try:
        if not inline:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # bad UTF-8, syntax, digit count, nesting
        raise DescriptorError(f"not valid JSON{where}: {exc}") from None


def _emit(result: dict, lines: list[str], args) -> None:
    if args.json:
        print(json.dumps(result, indent=2, sort_keys=True))
    else:
        print("\n".join(lines))


# ---------------------------------------------------------------------------
# handlers; each returns (json-result, text-lines, negative-decision)


def _cmd_symbol(args):
    field = serialize.parse_field(load_payload(args.field))
    a = serialize.parse_element(load_payload(args.a), field, "/a")
    b = serialize.parse_element(load_payload(args.b), field, "/b")
    for ptr, x in (("/a", a), ("/b", b)):
        if not x:
            raise DescriptorError("Hilbert symbol arguments must be nonzero", ptr)
    if args.place is not None:
        places = [serialize.parse_place(args.place, field, "/place")]
    else:
        places = symbol_support(a, b)
    symbols = {serialize.place_to_str(v): hilbert_symbol(a, b, v) for v in places}
    result = {
        "field": serialize.field_to_json(field),
        "a": serialize.element_to_json(a),
        "b": serialize.element_to_json(b),
        "symbols": symbols,
    }
    lines = [f"({a}, {b})_{name} = {s:+d}" for name, s in symbols.items()]
    return result, lines, False


def _cmd_ramification(args):
    payload = load_payload(args.algebra)
    D = serialize.parse_algebra(payload, None)
    ram = sorted(ramification_set(D), key=lambda v: v.sort_key())
    names = [serialize.place_to_str(v) for v in ram]
    result = {
        "algebra": serialize.algebra_to_json(D, with_field=True),
        "ramified": names,
        "division": bool(ram),
    }
    lines = [
        f"{D} ramifies at: {', '.join(names) if names else '(nowhere: split)'}",
        f"division algebra: {'yes' if names else 'no'}",
    ]
    return result, lines, False


def _cmd_invariants(args):
    payload = load_payload(args.form)
    if isinstance(payload, dict) and "algebra" in payload:
        h = serialize.parse_hermitian_form(payload)
        D, coeffs = h.algebra, h.coeffs
        kind, header = "hermitian", f"trace-form invariants of {h}"
        real, places = ramified_real_places(D), symbol_support(D.a, D.b, *coeffs)
        at = partial(trace_invariants_closed, h.dim, D)  # one for every form of rank h.dim
    else:
        q = serialize.parse_quadratic_form(payload)
        coeffs, kind, header = q.coeffs, "quadratic", f"invariants of {q}"
        real, places, at = q.field.real_places(), form_support(q), partial(local_invariants, q)
    sig = {serialize.place_to_str(v): list(real_signature(coeffs, v)) for v in real}
    local = {serialize.place_to_str(v): at(v) for v in places if v.is_finite}
    entries = [
        {"place": name, "dim": inv.dim, "det": serialize.element_to_json(inv.det_class),
         "hasse": inv.hasse}
        for name, inv in local.items()
    ]
    result = {"kind": kind, "signatures": sig, "local": entries}
    lines = [header]
    for name, s in sig.items():
        lines.append(f"  signature at {name}: ({s[0]}, {s[1]})")
    for name, inv in local.items():
        lines.append(f"  at {name}: dim {inv.dim}, det class {inv.det_class}, hasse {inv.hasse:+d}")
    return result, lines, False


def _cmd_isometric(args):
    p1, p2 = load_payload(args.form1), load_payload(args.form2)
    hermitian = isinstance(p1, dict) and "algebra" in p1
    if hermitian != (isinstance(p2, dict) and "algebra" in p2):
        raise DescriptorError("cannot compare quadratic with hermitian forms")
    if hermitian:
        f1 = serialize.parse_hermitian_form(p1)
        f2 = serialize.parse_hermitian_form(p2)
        verdict = hermitian_isometric(f1, f2)
    else:
        f1 = serialize.parse_quadratic_form(p1)
        f2 = serialize.parse_quadratic_form(p2)
        verdict = forms_isometric(f1, f2)
    result = {"isometric": verdict}
    lines = [f"{f1} and {f2}: {'isometric' if verdict else 'not isometric'}"]
    return result, lines, not verdict


def _cmd_commensurable(args):
    p1, p2 = load_payload(args.left), load_payload(args.right)
    if isinstance(p1, dict) and "v0" in p1:
        t1 = serialize.parse_triple(p1, "/left")
        t2 = serialize.parse_triple(p2, "/right")
        why_not, positive = inequivalence_reason(t1, t2), "equivalent triples"
    else:
        d1 = serialize.parse_ambient(p1, "/left")
        d2 = serialize.parse_ambient(p2, "/right")
        why_not, positive = incommensurability_reason(d1, d2), "commensurable"
    verdict = why_not is None
    reason = why_not or positive
    result = {"commensurable": verdict, "reason": reason}
    lines = [f"commensurable: {'yes' if verdict else 'no'} ({reason})"]
    return result, lines, not verdict


def _cmd_admissible(args):
    t = serialize.parse_triple(load_payload(args.triple))
    verdict = is_admissible(t)
    ram = sorted(ramification_set(t.algebra), key=lambda v: v.sort_key())
    result = {
        "admissible": verdict,
        "ramified": [serialize.place_to_str(v) for v in ram],
        "compact": is_compact(t) if verdict else None,
    }
    lines = [f"{t}: {'admissible' if verdict else 'not admissible'}"]
    if verdict:
        lines.append(f"compact quotients: {'yes' if result['compact'] else 'no'}")
    return result, lines, not verdict


def _cmd_canonical_form(args):
    t = serialize.parse_triple(load_payload(args.triple))
    h = canonical_hermitian(t, args.m)
    result = {"form": serialize.hermitian_to_json(h)}
    return result, [str(h)], False


def _cmd_embeds_real(args):
    q = serialize.parse_quadratic_form(load_payload(args.form), "/form")
    ambient = serialize.parse_ambient(load_payload(args.ambient), "/ambient")
    return _embedding_output(embeds_real(q, ambient), print_witness=True)


def _cmd_embeds_complex(args):
    ambient = serialize.parse_ambient(load_payload(args.ambient), "/ambient")
    data_payload = load_payload(args.data)
    if isinstance(data_payload, dict) and "c" in data_payload:
        data = serialize.parse_restriction_data(data_payload, "/data")
    else:
        base = serialize.parse_quadratic_form(data_payload, "/data")
        c = serialize.parse_element(load_payload(args.c), base.field, "/c")
        data = ComplexRestrictionData(c, base.coeffs)
    return _embedding_output(embeds_complex(data, ambient), print_witness=False)


def _embedding_output(verdict, print_witness: bool):
    result = {
        "embeds": verdict.embeds,
        "witness": serialize.hermitian_to_json(verdict.witness) if verdict.witness else None,
        "failed_condition": verdict.failed_condition,
    }
    lines = [f"embeds: {'yes' if verdict.embeds else 'no'}"]
    if not verdict.embeds:
        lines.append(f"failed condition: {verdict.failed_condition}")
    elif print_witness:
        lines.append(f"witness: {verdict.witness}")
    return result, lines, not verdict.embeds


def _cmd_surface_witness(args):
    t = serialize.parse_triple(load_payload(args.triple))
    q = surface_witness(t)
    result = {"form": serialize.quadratic_to_json(q)}
    return result, [str(q)], False


def _cmd_verify_geometry(args):
    report = geometry_report(args.m, samples=args.samples, seed=args.seed)
    lines = [f"geometry checks at m = {args.m} (seed {args.seed})"]
    for check in report["checks"]:
        mark = "✓" if check["passed"] else "✗"
        lines.append(f"  {check['name']}: {check['detail']} {mark}")
    passed = sum(1 for c in report["checks"] if c["passed"])
    lines.append(f"{passed}/{len(report['checks'])} checks passed")
    return report, lines, not report["all_passed"]


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quathyp",
        description="arithmetic of quaternionic hyperbolic commensurability classes",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--json", action="store_true", help="machine-readable output")
        p.add_argument(
            "--strict",
            action="store_true",
            help="exit 1 when the decision is negative",
        )
        return p

    p = add("symbol", _cmd_symbol, "Hilbert symbols of a pair of elements")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--place", help="compact place syntax, e.g. inf_0, 7, 11#1")
    p.add_argument("--field", default='{"base":"Q"}', help="field descriptor")

    p = add("ramification", _cmd_ramification, "ramification set of an algebra")
    p.add_argument("algebra")

    p = add("invariants", _cmd_invariants, "local invariants of a form")
    p.add_argument("form")

    p = add("isometric", _cmd_isometric, "decide isometry of two forms")
    p.add_argument("form1")
    p.add_argument("form2")

    p = add(
        "commensurable",
        _cmd_commensurable,
        "decide commensurability of two triples or class descriptors",
    )
    p.add_argument("left")
    p.add_argument("right")

    p = add("admissible", _cmd_admissible, "check admissibility of a triple")
    p.add_argument("triple")

    p = add("canonical-form", _cmd_canonical_form, "canonical form of a triple")
    p.add_argument("triple")
    p.add_argument("--m", type=int, required=True, help="quaternionic dimension")

    p = add("embeds-real", _cmd_embeds_real, "real hyperbolic embedding decision")
    p.add_argument("form")
    p.add_argument("ambient")

    p = add(
        "embeds-complex", _cmd_embeds_complex, "complex hyperbolic embedding decision"
    )
    p.add_argument("c", help="subfield generator element")
    p.add_argument("data", help="coefficient form or full restriction data")
    p.add_argument("ambient")

    p = add("surface-witness", _cmd_surface_witness, "ternary surface form")
    p.add_argument("triple")

    p = add("verify-geometry", _cmd_verify_geometry, "run the numeric model checks")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--samples", type=int, default=25)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        result, lines, negative = args.handler(args)
    except DescriptorError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (OSError, QuathypError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    _emit(result, lines, args)
    if negative and args.strict:
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
