"""JSON descriptors for fields, elements, forms, algebras and triples.

The wire schema:

* field: ``{"base": "Q"}`` or ``{"base": "quadratic", "d": 5}``
* element: ``{"a0": "p/q", "a1": "p/q"}`` (``a1`` defaults to 0;
  a bare number or "p/q" string is accepted as shorthand for ``a0``)
* algebra: ``{"a": element, "b": element}``, plus a ``"field"`` key when
  it does not inherit one from an enclosing descriptor
* quadratic form: ``{"field": ..., "coeffs": [element, ...]}``
* hermitian form: the same with an ``"algebra"`` key
* triple: ``{"field": ..., "v0": {"embedding": 0}, "algebra": ...}``
* ambient: ``{"kind": "nonsplit", "form": hermitian}`` or
  ``{"kind": "split", "field": ..., "n": 3}``

Parse errors raise :class:`~quathyp.errors.DescriptorError` carrying the
JSON pointer of the offending field; so does any integer a descriptor
carries (a numerator or denominator, a field's d, the prime of a place)
longer than `MAX_BITS` bits, which keeps factoring within reach.  Finite
places are written in a compact text syntax: ``inf_0``, ``7``, ``11#1``
(first place over a split prime).
"""

from __future__ import annotations

from fractions import Fraction

from .algebras import QuaternionAlgebra
from .commensurability import AdmissibleTriple, OrbifoldClassDescriptor
from .errors import (
    DescriptorError,
    FieldMismatchError,
    NotQuaternionicHyperbolicError,
    SquareArgumentError,
)
from .fields import (
    Field,
    FieldElement,
    Place,
    QQ,
    SPLIT_FIRST,
    SPLIT_SECOND,
    _places_above,
)
from .hermitian import HermitianForm
from .numtheory import is_prime
from .quadratic import QuadraticForm
from .subspaces import ComplexRestrictionData

#: longest numerator or denominator a descriptor may hold, in bits
MAX_BITS = 256


def _require_bits(bits: int, what: str, ptr: str) -> None:
    if bits > MAX_BITS:
        raise DescriptorError(f"a {bits}-bit {what} exceeds {MAX_BITS} bits", ptr)


def _require_dict(obj, ptr: str) -> dict:
    if not isinstance(obj, dict):
        raise DescriptorError(f"expected an object, got {type(obj).__name__}", ptr)
    return obj


def _get(obj: dict, key: str, ptr: str):
    if key not in obj:
        raise DescriptorError(f"missing key {key!r}", f"{ptr}/{key}")
    return obj[key]


def parse_field(obj, ptr: str = "") -> Field:
    obj = _require_dict(obj, ptr)
    base = _get(obj, "base", ptr)
    if base == "Q":
        return QQ
    if base != "quadratic":
        raise DescriptorError(f"unknown base {base!r}", f"{ptr}/base")
    d = _get(obj, "d", ptr)
    if not isinstance(d, int) or isinstance(d, bool):
        raise DescriptorError("d must be an integer", f"{ptr}/d")
    _require_bits(d.bit_length(), "d", f"{ptr}/d")
    try:
        return Field(d)
    except ValueError as exc:
        raise DescriptorError(str(exc), f"{ptr}/d") from None


def field_to_json(field: Field) -> dict:
    if field.is_rational:
        return {"base": "Q"}
    return {"base": "quadratic", "d": field.d}


def _parse_fraction(value, ptr: str) -> Fraction:
    if isinstance(value, bool):
        raise DescriptorError("expected a rational number", ptr)
    if isinstance(value, (int, str)):
        try:
            x = Fraction(value)
        except (ValueError, ZeroDivisionError):
            raise DescriptorError(f"cannot read {value!r} as p/q", ptr) from None
        bits = max(x.numerator.bit_length(), x.denominator.bit_length())
        _require_bits(bits, "numerator or denominator", ptr)
        return x
    raise DescriptorError(
        f"expected an integer or 'p/q' string, got {type(value).__name__}", ptr
    )


def parse_element(obj, field: Field, ptr: str = "") -> FieldElement:
    if isinstance(obj, (int, str)) and not isinstance(obj, bool):
        return FieldElement(field, _parse_fraction(obj, ptr), 0)
    if not isinstance(obj, dict):
        what = f"an integer, a 'p/q' string or an object with keys a0, a1, got {type(obj).__name__}"
        raise DescriptorError(f"expected {what}", ptr)
    unknown = set(obj) - {"a0", "a1"}
    if unknown:
        raise DescriptorError(
            f"unknown element keys {sorted(unknown)}", ptr
        )
    a0 = _parse_fraction(obj.get("a0", 0), f"{ptr}/a0")
    a1 = _parse_fraction(obj.get("a1", 0), f"{ptr}/a1")
    if a1 and field.is_rational:
        raise DescriptorError("a1 must be 0 over Q", f"{ptr}/a1")
    return FieldElement(field, a0, a1)


def _fraction_str(x: Fraction) -> str:
    return str(x)


def element_to_json(x: FieldElement) -> dict:
    out = {"a0": _fraction_str(x.a0)}
    if not x.field.is_rational:
        out["a1"] = _fraction_str(x.a1)
    return out


def parse_algebra(obj, field: Field | None, ptr: str = "") -> QuaternionAlgebra:
    obj = _require_dict(obj, ptr)
    if field is None:
        field = parse_field(_get(obj, "field", ptr), f"{ptr}/field")
    a = parse_element(_get(obj, "a", ptr), field, f"{ptr}/a")
    b = parse_element(_get(obj, "b", ptr), field, f"{ptr}/b")
    try:
        return QuaternionAlgebra(field, a, b)
    except ValueError as exc:
        raise DescriptorError(str(exc), ptr) from None


def algebra_to_json(D: QuaternionAlgebra, with_field: bool = False) -> dict:
    out = {"a": element_to_json(D.a), "b": element_to_json(D.b)}
    if with_field:
        out = {"field": field_to_json(D.field), **out}
    return out


def _parse_coeffs(obj: dict, field: Field, ptr: str) -> tuple[FieldElement, ...]:
    raw = _get(obj, "coeffs", ptr)
    if not isinstance(raw, list) or not raw:
        raise DescriptorError("coeffs must be a nonempty list", f"{ptr}/coeffs")
    return tuple(
        parse_element(c, field, f"{ptr}/coeffs/{i}") for i, c in enumerate(raw)
    )


def parse_quadratic_form(obj, ptr: str = "") -> QuadraticForm:
    obj = _require_dict(obj, ptr)
    field = parse_field(_get(obj, "field", ptr), f"{ptr}/field")
    coeffs = _parse_coeffs(obj, field, ptr)
    try:
        return QuadraticForm(field, coeffs)
    except ValueError as exc:
        raise DescriptorError(str(exc), f"{ptr}/coeffs") from None


def quadratic_to_json(q: QuadraticForm) -> dict:
    return {
        "field": field_to_json(q.field),
        "coeffs": [element_to_json(c) for c in q.coeffs],
    }


def parse_hermitian_form(obj, ptr: str = "") -> HermitianForm:
    obj = _require_dict(obj, ptr)
    field = parse_field(_get(obj, "field", ptr), f"{ptr}/field")
    algebra = parse_algebra(_get(obj, "algebra", ptr), field, f"{ptr}/algebra")
    coeffs = _parse_coeffs(obj, field, ptr)
    try:
        return HermitianForm(algebra, coeffs)
    except ValueError as exc:
        raise DescriptorError(str(exc), f"{ptr}/coeffs") from None


def hermitian_to_json(h: HermitianForm) -> dict:
    return {
        "field": field_to_json(h.field),
        "algebra": algebra_to_json(h.algebra),
        "coeffs": [element_to_json(c) for c in h.coeffs],
    }


def parse_triple(obj, ptr: str = "") -> AdmissibleTriple:
    obj = _require_dict(obj, ptr)
    field = parse_field(_get(obj, "field", ptr), f"{ptr}/field")
    v0_obj = _require_dict(_get(obj, "v0", ptr), f"{ptr}/v0")
    embedding = _get(v0_obj, "embedding", f"{ptr}/v0")
    if embedding not in (0, 1) or isinstance(embedding, bool):
        raise DescriptorError("embedding must be 0 or 1", f"{ptr}/v0/embedding")
    if field.is_rational and embedding != 0:
        raise DescriptorError("Q has a single real place", f"{ptr}/v0/embedding")
    algebra = parse_algebra(_get(obj, "algebra", ptr), field, f"{ptr}/algebra")
    return AdmissibleTriple(field, Place.real(field, embedding), algebra)


def triple_to_json(t: AdmissibleTriple) -> dict:
    return {
        "field": field_to_json(t.field),
        "v0": {"embedding": t.v0.embedding},
        "algebra": algebra_to_json(t.algebra),
    }


def parse_ambient(obj, ptr: str = "") -> OrbifoldClassDescriptor:
    obj = _require_dict(obj, ptr)
    kind = _get(obj, "kind", ptr)
    if kind == "split":
        field = parse_field(_get(obj, "field", ptr), f"{ptr}/field")
        n = _get(obj, "n", ptr)
        if not isinstance(n, int) or isinstance(n, bool) or n < 1:
            raise DescriptorError("n must be a positive integer", f"{ptr}/n")
        return OrbifoldClassDescriptor.split(field, n)
    if kind != "nonsplit":
        raise DescriptorError(f"unknown kind {kind!r}", f"{ptr}/kind")
    form = parse_hermitian_form(_get(obj, "form", ptr), f"{ptr}/form")
    if "m" in obj and obj["m"] != form.dim - 1:
        raise DescriptorError(
            f"m = {obj['m']} contradicts a form of dimension {form.dim}",
            f"{ptr}/m",
        )
    try:
        return OrbifoldClassDescriptor.nonsplit(form)
    except NotQuaternionicHyperbolicError as exc:
        raise DescriptorError(str(exc), f"{ptr}/form") from None


def ambient_to_json(desc: OrbifoldClassDescriptor) -> dict:
    if desc.kind == "split":
        return {"kind": "split", "field": field_to_json(desc.field), "n": desc.n}
    return {
        "kind": "nonsplit",
        "form": hermitian_to_json(desc.form),
        "m": desc.form.dim - 1,
    }


def parse_restriction_data(obj, ptr: str = "") -> ComplexRestrictionData:
    obj = _require_dict(obj, ptr)
    field = parse_field(_get(obj, "field", ptr), f"{ptr}/field")
    c = parse_element(_get(obj, "c", ptr), field, f"{ptr}/c")
    coeffs = _parse_coeffs(obj, field, ptr)
    try:
        return ComplexRestrictionData(c, coeffs)
    except (ValueError, SquareArgumentError, FieldMismatchError) as exc:
        raise DescriptorError(str(exc), ptr) from None


def restriction_data_to_json(data: ComplexRestrictionData) -> dict:
    return {
        "field": field_to_json(data.field),
        "c": element_to_json(data.c),
        "coeffs": [element_to_json(c) for c in data.coeffs],
    }


def parse_place(text: str, field: Field, ptr: str = "") -> Place:
    """Read the compact place syntax: ``inf``/``inf_0``/``inf_1`` for
    real places, ``p`` for a finite prime, ``p#1``/``p#2`` to pick one
    of the two places over a split prime."""
    text = text.strip()
    if text in ("inf", "inf_0", "inf_1"):
        embedding = 1 if text == "inf_1" else 0
        if field.is_rational and embedding == 1:
            raise DescriptorError("Q has a single real place", ptr)
        return Place.real(field, embedding)
    body, _, pos = text.partition("#")
    try:
        p = int(body)
    except ValueError:
        raise DescriptorError(f"cannot read place {text!r}", ptr) from None
    _require_bits(p.bit_length(), "prime", ptr)
    if not is_prime(p):
        raise DescriptorError(f"{p} is not prime", ptr)
    above = _places_above(field, p)
    if pos:
        if len(above) == 1 or pos not in ("1", "2"):
            raise DescriptorError(f"position #{pos} needs a split prime", ptr)
        return above[int(pos) - 1]
    if len(above) == 2:
        raise DescriptorError(f"{p} splits in {field}; pick {p}#1 or {p}#2", ptr)
    return above[0]


def place_to_str(v: Place) -> str:
    if v.is_real:
        return f"inf_{v.embedding}" if not v.field.is_rational else "inf"
    if v.position == SPLIT_FIRST:
        return f"{v.p}#1"
    if v.position == SPLIT_SECOND:
        return f"{v.p}#2"
    return str(v.p)
