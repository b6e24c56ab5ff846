"""Exact arithmetic in Q and real quadratic fields Q(sqrt(d)).

The module provides the base-field layer everything else sits on:

* :class:`Field` -- Q or Q(sqrt(d)) with d > 1 squarefree;
* :class:`FieldElement` -- exact elements (n0 + n1*sqrt(d)) / den, held as
  integers in normal form (den > 0, gcd(n0, n1, den) = 1) and computed on
  as integers; :class:`fractions.Fraction` appears only at the boundary:
  `Field.element` input, the coordinates `a0`, `a1`, `norm` and `trace`;
* :class:`Place` -- real embeddings and finite places (primes of the
  field, tagged by how the rational prime below them splits);
* local predicates: exact signs at real embeddings, valuations, and
  local/global square tests.  `local_square_class` is the one square-class
  decision: (valuation mod 2, unit class) of an element at any place of
  any field.  Local squares, Hilbert symbols and Hasse invariants are read
  off these keys (:mod:`quathyp.symbols`, :mod:`quathyp.quadratic`).

At a dyadic place the unit class is the unit mod 8: over Q, and over
Q(sqrt(d)) when 2 splits (d = 1 mod 8: both completions are Q_2, sqrt(d)
going to the 2-adic root that is 1 mod 4 or to its negative).  When 2 is
inert or ramified the unit's coordinates mod 8 in a 2-integral basis fix
its class, and the 8 unit classes are labeled once per field.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import count
from typing import Union

from .errors import FieldMismatchError, PlaceKindError
from .numtheory import (
    factor,
    factors_without_splitting,
    is_prime,
    is_square_int,
    legendre,
    sqrt_mod_prime_power,
    squarefree_part,
    val,
)
from .records import Record, set_field

Rationalish = Union[int, Fraction, str]


class Field(Record):
    """Q (``d is None``) or the real quadratic field Q(sqrt(d)).  Its real
    places are built on first use and kept (``_real_places``)."""

    __slots__ = ("d", "_real_places")

    def __init__(self, d: int | None = None):
        if d is not None:
            if d <= 1:
                raise ValueError("d must be an integer > 1")
            if squarefree_part(d) != d:
                raise ValueError(f"d = {d} is not squarefree")
        set_field(self, "d", d)
        set_field(self, "_real_places", None)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.d == other.d
        return NotImplemented

    def __hash__(self) -> int:
        # not hash(None), an address in CPython 3.11: sets of places keep one order
        return hash(self.d or 0)

    @property
    def is_rational(self) -> bool:
        return self.d is None

    @property
    def discriminant(self) -> int:
        if self.d is None:
            return 1
        return self.d if self.d % 4 == 1 else 4 * self.d

    @property
    def degree(self) -> int:
        return 1 if self.d is None else 2

    def element(self, a0: Rationalish, a1: Rationalish = 0) -> "FieldElement":
        a0, a1 = Fraction(a0), Fraction(a1)
        if self.is_rational and a1 != 0:
            raise ValueError("rational field elements have no sqrt(d) part")
        return FieldElement(self, a0, a1)

    @property
    def zero(self) -> "FieldElement":
        return self.element(0)

    @property
    def one(self) -> "FieldElement":
        return self.element(1)

    @property
    def sqrt_d(self) -> "FieldElement":
        if self.is_rational:
            raise ValueError("Q has no adjoined square root")
        return self.element(0, 1)

    def real_places(self) -> tuple["Place", ...]:
        if self._real_places is None:
            set_field(self, "_real_places", tuple(Place.real(self, e) for e in range(self.degree)))
        return self._real_places

    def __str__(self) -> str:
        return "Q" if self.is_rational else f"Q(sqrt({self.d}))"


QQ = Field()


def _coerce(field: Field, other) -> "FieldElement":
    if isinstance(other, FieldElement):
        if other.field is not field and other.field != field:
            raise FieldMismatchError(
                f"cannot combine elements of {field} and {other.field}"
            )
        return other
    if isinstance(other, (int, Fraction)):
        return _make(field, other.numerator, 0, other.denominator)
    return NotImplemented


def _make(field: Field, n0: int, n1: int, den: int) -> "FieldElement":
    """The element (n0 + n1*sqrt(d)) / den of coordinates in normal form."""
    x = _alloc(FieldElement)
    set_field(x, "field", field)
    set_field(x, "n0", n0)
    set_field(x, "n1", n1)
    set_field(x, "den", den)
    return x


def _reduced(field: Field, n0: int, n1: int, den: int) -> "FieldElement":
    """The element (n0 + n1*sqrt(d)) / den, den != 0, brought to normal form."""
    g = math.gcd(n0, n1, den)
    if den < 0:
        g = -g
    if g != 1:
        n0, n1, den = n0 // g, n1 // g, den // g
    return _make(field, n0, n1, den)


class FieldElement(Record):
    """An exact element a0 + a1*sqrt(d) of its field (a1 = 0 over Q), held
    as (n0 + n1*sqrt(d)) / den in normal form, so equal elements have equal
    (n0, n1, den)."""

    __slots__ = ("field", "n0", "n1", "den")

    def __init__(self, field: Field, a0: Fraction, a1: Fraction):
        q0, q1 = a0.denominator, a1.denominator
        den = q0 * q1 // math.gcd(q0, q1)
        # reduced fractions over their lcm: no prime divides den, n0 and n1
        set_field(self, "field", field)
        set_field(self, "n0", a0.numerator * (den // q0))
        set_field(self, "n1", a1.numerator * (den // q1))
        set_field(self, "den", den)

    @property
    def a0(self) -> Fraction:
        return Fraction(self.n0, self.den)

    @property
    def a1(self) -> Fraction:
        return Fraction(self.n1, self.den)

    def __repr__(self) -> str:
        return f"FieldElement(field={self.field!r}, a0={self.a0!r}, a1={self.a1!r})"

    def __reduce__(self):
        return FieldElement, (self.field, self.a0, self.a1)

    def __bool__(self) -> bool:
        return self.n0 != 0 or self.n1 != 0

    def conjugate(self) -> "FieldElement":
        """The Galois conjugate a0 - a1*sqrt(d) (identity over Q)."""
        return _make(self.field, self.n0, -self.n1, self.den)

    def norm(self) -> Fraction:
        """Norm down to Q: x * conjugate(x) = a0^2 - a1^2 * d."""
        if self.field.is_rational:
            return Fraction(self.n0, self.den)
        return Fraction(_norm_numerator(self), self.den * self.den)

    def trace(self) -> Fraction:
        return Fraction(self.n0 if self.field.is_rational else 2 * self.n0, self.den)

    def __add__(self, other):
        if other.__class__ is not FieldElement or other.field is not self.field:
            other = _coerce(self.field, other)
            if other is NotImplemented:
                return NotImplemented
        A, B = self.den, other.den
        if A == B:
            return _reduced(self.field, self.n0 + other.n0, self.n1 + other.n1, A)
        return _reduced(
            self.field, self.n0 * B + other.n0 * A, self.n1 * B + other.n1 * A, A * B
        )

    __radd__ = __add__

    def __neg__(self):
        return _make(self.field, -self.n0, -self.n1, self.den)

    def __sub__(self, other):
        other = _coerce(self.field, other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        if other.__class__ is not FieldElement or other.field is not self.field:
            other = _coerce(self.field, other)
            if other is NotImplemented:
                return NotImplemented
        a0, a1, b0, b1 = self.n0, self.n1, other.n0, other.n1
        return _reduced(
            self.field,
            a0 * b0 + a1 * b1 * (self.field.d or 0),
            a0 * b1 + a1 * b0,
            self.den * other.den,
        )

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        # 1/x = den (n0 - n1 sqrt(d)) / (n0^2 - n1^2 d)
        if not self:
            raise ZeroDivisionError("field element 0 has no inverse")
        n0, n1 = self.n0, self.n1
        return _reduced(
            self.field, self.den * n0, -self.den * n1, n0 * n0 - n1 * n1 * (self.field.d or 0)
        )

    def __truediv__(self, other):
        other = _coerce(self.field, other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = _make(self.field, 1, 0, 1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self) -> str:
        a0, a1 = self.a0, self.a1
        if a1 == 0:
            return str(a0)
        d = self.field.d
        root = f"sqrt({d})"
        if a1 == 1:
            second = root
        elif a1 == -1:
            second = f"-{root}"
        else:
            second = f"{a1}*{root}"
        if a0 == 0:
            return second
        sign = "+" if a1 > 0 else "-"
        mag = second.lstrip("-")
        return f"{a0} {sign} {mag}"


_alloc = FieldElement.__new__


def _norm_numerator(x: FieldElement) -> int:
    """n0^2 - n1^2 d, the norm of x times den^2 (x over Q(sqrt(d)))."""
    return x.n0 * x.n0 - x.n1 * x.n1 * x.field.d


# ---------------------------------------------------------------------------
# Places
# ---------------------------------------------------------------------------

SPLIT_FIRST = "split-first"
SPLIT_SECOND = "split-second"
INERT = "inert"
RAMIFIED = "ramified"
RATIONAL = "rational"  # the single place of Q over p

_POSITION_ORDER = {RATIONAL: 0, SPLIT_FIRST: 0, SPLIT_SECOND: 1, INERT: 0, RAMIFIED: 0}


class Place(Record):
    """A place of the base field.

    Real places carry the embedding index (0: sqrt(d) -> +sqrt(d),
    1: sqrt(d) -> -sqrt(d)); finite places carry the rational prime p
    below them and their position over p.
    """

    __slots__ = ("field", "kind", "embedding", "p", "position")

    def __init__(
        self, field: Field, kind: str, embedding: int = 0, p: int = 0, position: str = RATIONAL
    ):
        set_field(self, "field", field)
        set_field(self, "kind", kind)  # "real" | "finite"
        set_field(self, "embedding", embedding)
        set_field(self, "p", p)
        set_field(self, "position", position)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.field, self.kind, self.embedding, self.p, self.position) == (
                other.field, other.kind, other.embedding, other.p, other.position
            )
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.kind, self.embedding, self.p, self.position))

    @classmethod
    def real(cls, field: Field, embedding: int = 0) -> "Place":
        if embedding not in (0, 1) or (embedding == 1 and field.is_rational):
            raise ValueError(f"no real embedding {embedding} for {field}")
        return cls(field, "real", embedding=embedding)

    @classmethod
    def finite(cls, field: Field, p: int, position: str | None = None) -> "Place":
        """The place over p (at `position` when p splits), for a p from
        outside the library: p is tested for primality."""
        if not is_prime(p):
            raise ValueError(f"{p} is not prime")
        kind = split_prime(p, field)
        if kind == "split":
            if position not in (SPLIT_FIRST, SPLIT_SECOND):
                raise ValueError(f"{p} splits in {field}; specify which place")
        else:
            if position is None:
                position = kind
            if position != kind:
                raise ValueError(f"{p} is {kind} in {field}, not {position}")
        return cls(field, "finite", p=p, position=position)

    @property
    def is_real(self) -> bool:
        return self.kind == "real"

    @property
    def is_finite(self) -> bool:
        return self.kind == "finite"

    @property
    def is_dyadic(self) -> bool:
        return self.is_finite and self.p == 2

    def sort_key(self):
        if self.is_real:
            return (0, self.embedding, 0)
        return (1, self.p, _POSITION_ORDER[self.position])

    def __str__(self) -> str:
        if self.is_real:
            if self.field.is_rational:
                return "inf"
            return f"inf_{self.embedding}"
        if self.position in (RATIONAL, INERT, RAMIFIED):
            tag = "" if self.position == RATIONAL else f" ({self.position})"
            return f"{self.p}{tag}"
        which = "1" if self.position == SPLIT_FIRST else "2"
        return f"{self.p} (split #{which})"


def split_prime(p: int, field: Field) -> str:
    """How the rational prime p behaves in the field.

    Returns "split", "inert" or "ramified" for quadratic fields and the
    degenerate marker "rational" for Q (a single place, no splitting).
    """
    if field.is_rational:
        return RATIONAL
    d = field.d
    if p == 2:
        if d % 8 == 1:
            return "split"
        if d % 8 == 5:
            return INERT
        return RAMIFIED  # d even or d = 3 mod 4: 2 divides the discriminant
    if d % p == 0:
        return RAMIFIED
    return "split" if legendre(d, p) == 1 else INERT


def places_above(field: Field, p: int) -> tuple[Place, ...]:
    """All places of the field over the rational prime p."""
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    return _places_above(field, p)


def _places_above(field: Field, p: int) -> tuple[Place, ...]:
    """`places_above` for a p already known to be prime, such as one that
    `numtheory.factor` returned: no second primality test."""
    kind = split_prime(p, field)
    if kind == "split":
        return (
            Place(field, "finite", p=p, position=SPLIT_FIRST),
            Place(field, "finite", p=p, position=SPLIT_SECOND),
        )
    return (Place(field, "finite", p=p, position=kind),)


def conjugate_place(v: Place) -> Place:
    """Image of a place under the nontrivial Galois automorphism.

    Swaps the two real embeddings and the two places over a split prime;
    fixes inert and ramified places.  Identity over Q.
    """
    if v.field.is_rational:
        return v
    if v.is_real:
        return Place.real(v.field, 1 - v.embedding)
    if v.position == SPLIT_FIRST:
        return Place(v.field, "finite", p=v.p, position=SPLIT_SECOND)
    if v.position == SPLIT_SECOND:
        return Place(v.field, "finite", p=v.p, position=SPLIT_FIRST)
    return v


# ---------------------------------------------------------------------------
# Real embeddings
# ---------------------------------------------------------------------------


def _require_nonzero(x: FieldElement):
    if not x:
        raise ValueError("operation undefined at 0")


def _require_same_field(x: FieldElement, v: Place):
    if x.field != v.field:
        raise FieldMismatchError("element and place belong to different fields")


def sign_at_real_place(x: FieldElement, v: Place) -> int:
    """Exact sign (+1, -1 or 0) of the image of x under the embedding v.

    Decided by comparing a0^2 against a1^2 * d, never by floating point:
    a0 + a1*sqrt(d) and a0 share a sign exactly when a0^2 > a1^2 * d.
    """
    if not v.is_real:
        raise PlaceKindError(f"{v} is not a real embedding")
    _require_same_field(x, v)
    return _real_sign(x, v)


def _real_sign(x: FieldElement, v: Place) -> int:
    """`sign_at_real_place` without the checks: the sign of n0 +- n1*sqrt(d)."""
    n0, n1 = x.n0, x.n1
    if v.embedding == 1:
        n1 = -n1
    s0, s1 = (n0 > 0) - (n0 < 0), (n1 > 0) - (n1 < 0)
    if s0 == s1 or not s1:
        return s0
    if not s0:
        return s1
    # opposite signs: the larger of n0^2, n1^2 d wins (they are never equal
    # because d is not a rational square)
    return s0 if n0 * n0 > n1 * n1 * x.field.d else s1


def real_signature(coeffs, v: Place) -> tuple[int, int]:
    """Counts (positive, negative) of a tuple of nonzero diagonal
    coefficients under the real embedding v."""
    plus = sum(1 for c in coeffs if sign_at_real_place(c, v) > 0)
    return plus, len(coeffs) - plus


# ---------------------------------------------------------------------------
# Valuations and square classes at finite places
# ---------------------------------------------------------------------------


def _split_image(x: FieldElement, v: Place) -> tuple[int, int]:
    """Valuation and unit part of x in the completion at a split place,
    the unit mod p (mod 8 when p = 2).

    The completion is Q_p; sqrt(d) goes to the labeled root of
    `sqrt_mod_prime_power` (split-first: the lift of the smaller square
    root of d mod p, or the 2-adic root that is 1 mod 4; split-second:
    its negative).
    """
    p = v.p
    digits = 3 if p == 2 else 1
    # The valuation of n0 + n1*r is at most v_p of the integer norm
    # n0^2 - n1^2 d, because the conjugate image is also a p-adic integer.
    m = val(_norm_numerator(x), p) + digits
    r = sqrt_mod_prime_power(x.field.d, p, m)
    if v.position == SPLIT_SECOND:
        r = p**m - r
    t = (x.n0 + x.n1 * r) % p**m
    vt, e = val(t, p), val(x.den, p)
    # the image is t / den: its unit part divides by den's as well
    return vt - e, t // p**vt * pow(x.den // p**e, -1, p**digits) % p**digits


def local_valuation(x: FieldElement, v: Place) -> int:
    """Normalized valuation of x at a finite place (uniformizer -> 1)."""
    _require_nonzero(x)
    if not v.is_finite:
        raise PlaceKindError(f"{v} is not a finite place")
    return _valuation(x, v)


def _valuation(x: FieldElement, v: Place) -> int:
    """`local_valuation` without the argument checks."""
    p = v.p
    if v.position == RATIONAL:
        return val(x.n0, p) - val(x.den, p)
    if v.position in (SPLIT_FIRST, SPLIT_SECOND):
        return _split_image(x, v)[0]
    # inert or ramified: v_p(norm(x)) = f v(x), residue degree f = 2 or 1;
    # the norm is (n0^2 - n1^2 d) / den^2
    return (val(_norm_numerator(x), p) - 2 * val(x.den, p)) // (2 if v.position == INERT else 1)


def local_square_class(x: FieldElement, v: Place) -> tuple[int, int]:
    """The square class of x at v as (valuation mod 2, unit class).

    Two elements share the key exactly when their ratio is a square in
    the completion at v, and the squares have the key (0, 1).  The unit
    class is the sign at a real place (where the valuation is taken as
    0), the quadratic character of the unit part in the residue field at
    an odd place, and the unit part mod 8 at a dyadic place with
    completion Q_2.  When 2 is inert or ramified it is the label that
    `_dyadic_unit_classes` gives the unit's residue mod 8.
    """
    _require_nonzero(x)
    _require_same_field(x, v)
    return _square_class(x, v)


def _square_class(x: FieldElement, v: Place) -> tuple[int, int]:
    """`local_square_class` without the argument checks."""
    if v.kind == "real":
        return 0, _real_sign(x, v)
    p, position = v.p, v.position
    if position == RATIONAL:
        # x = p^(e0 - e1) u0/u1, and u0/u1, u0*u1 differ by the square u1^2
        e0, e1 = val(x.n0, p), val(x.den, p)
        u0, u1 = x.n0 // p**e0, x.den // p**e1
        return (e0 - e1) % 2, u0 * pow(u1, -1, 8) % 8 if p == 2 else legendre(u0 * u1, p)
    if position in (SPLIT_FIRST, SPLIT_SECOND):
        n, u = _split_image(x, v)
        return n % 2, u if p == 2 else legendre(u, p)
    if p == 2:
        return _dyadic_key(x, v)
    if position == INERT:
        # v_p(norm(x)) = 2 v(x), and a unit of F_{p^2} is a square exactly
        # when its norm is one in F_p; the norm of x is N / den^2
        N = _norm_numerator(x)
        e = val(N, p)
        return (e // 2 - val(x.den, p)) % 2, legendre(N // p**e, p)
    n = _valuation(x, v)
    # ramified: divide by the uniformizer sqrt(d); the unit's residue is
    # its rational coordinate c/(den d^k), c = n0 (n = 2k) or n1 (n = 2k+1),
    # in the class of c den d^(k mod 2); the character reads its p-free part
    c = (x.n1 if n % 2 else x.n0) * x.den * (x.field.d if n // 2 % 2 else 1)
    return n % 2, legendre(c // p ** val(c, p), p)


# ---------------------------------------------------------------------------
# Square classes at the dyadic place when 2 is inert or ramified
# ---------------------------------------------------------------------------


def _dyadic_basis(d: int) -> tuple[int, int]:
    """(s, r) with theta^2 = s + r*theta for the 2-integral basis
    {1, theta}: theta = omega = (1+sqrt(d))/2 when 2 is inert (d = 5 mod
    8), theta = sqrt(d) when 2 ramifies."""
    return ((d - 1) // 4, 1) if d % 8 == 5 else (d, 0)


def _mul8(x: tuple[int, int], y: tuple[int, int], d: int) -> tuple[int, int]:
    """The product mod 8 of two elements in the basis of `_dyadic_basis`."""
    (a, b), (c, e), (s, r) = x, y, _dyadic_basis(d)
    return (a * c + b * e * s) % 8, (a * e + b * c + b * e * r) % 8


@lru_cache(maxsize=64)
def _dyadic_unit_classes(d: int) -> dict[tuple[int, int], int]:
    """Unit residues mod 8 in the basis of `_dyadic_basis` -> the least
    code a + 8b over their square class, so the squares get 1.

    By the local square theorem a unit is a square exactly when it is a
    square mod 4*pi, and 8 lies in 4*pi, so the residue mod 8 fixes the
    class.  The residues of squares form a subgroup of index 8: 8 unit
    classes, 16 classes in all.
    """
    s, r = _dyadic_basis(d)
    units = [(a, b) for a in range(8) for b in range(8) if (a * a + r * a * b - s * b * b) % 2]
    squares = {_mul8(y, y, d) for y in units}
    return {u: min(a + 8 * b for a, b in (_mul8(u, h, d) for h in squares)) for u in units}


def _dyadic_key(x: FieldElement, v: Place) -> tuple[int, int]:
    """`local_square_class` at the dyadic place of Q(sqrt(d)) when 2 is
    inert (uniformizer 2) or ramified (uniformizer pi = c + sqrt(d),
    c = d mod 2, with 2 = pi^2 eta and N(pi) = 2 nu for units eta, nu)."""
    d = x.field.d
    # x and the integral z = (n0 + n1 sqrt(d)) den differ by the square den^2
    a, b = x.n0 * x.den, x.n1 * x.den
    if v.position == INERT:
        a, b = a - b, 2 * b  # coordinates in {1, omega}
    k = min(val(t, 2) for t in (a, b) if t)
    a, b = a >> k, b >> k  # z = 2^k (a + b theta), the second factor of valuation 0 or 1
    if v.position == INERT:
        return k % 2, _dyadic_unit_classes(d)[a % 8, b % 8]
    c = d % 2
    odd = (a - d * b) % 2 == 0  # a + b sqrt(d) has even norm: valuation 1
    if odd:
        # divide by pi: (a + b sqrt(d)) pibar / 2 times nu = (c - d)/2
        nu = (c - d) // 2
        a, b = (a * c - b * d) // 2 * nu, (b * c - a) // 2 * nu
    u = (a % 8, b % 8)
    if k % 2:
        u = _mul8(u, ((c + d) // 2, c), d)  # 2^k = pi^(2k) eta^k: times eta
    return int(odd), _dyadic_unit_classes(d)[u]


@lru_cache(maxsize=256)
def dyadic_class_element(field: Field, key: tuple[int, int]) -> FieldElement:
    """An element with `local_square_class` key at the dyadic place (2
    inert or ramified): x0 + 16t, x0 the unit a + b*theta of code a + 8b
    (times the uniformizer when the valuation is odd), for the first t >= 0
    whose norm factors without a Pollard-Brent split.  16/x0 lies in 4*pi,
    so x0 + 16t = x0 (1 + 16t/x0) lies in x0's class."""
    n, code = key
    a, b = code % 8, code // 8
    if field.d % 8 == 5:
        x0 = field.element(a + Fraction(b, 2), Fraction(b, 2)) * (2 if n else 1)
    else:
        x0 = field.element(a, b) * (field.element(field.d % 2, 1) if n else 1)
    return next(x for t in count() if factors_without_splitting((x := x0 + 16 * t).norm().numerator))


# ---------------------------------------------------------------------------
# Local and global square tests
# ---------------------------------------------------------------------------


def is_local_square(x: FieldElement, v: Place) -> bool:
    """Whether x is a square in the completion of its field at v."""
    return local_square_class(x, v) == (0, 1)


def is_global_square(x: FieldElement) -> bool:
    """Exact test that x is a square in its field.

    Over Q(sqrt(d)): x = (y0 + y1*sqrt(d))^2 forces norm(x) = s^2 with
    s = +-(y0^2 - y1^2 d) rational, and then 2*y0^2 = a0 +- s.  So x is a
    square iff norm(x) is a rational square and one of (a0 +- s)/2 is a
    nonzero rational square (x with a1 = 0 reduces to a0 or a0*d being a
    rational square).  A rational r/s is a square exactly when the
    integer r*s is, so every test runs on integers: with N = n0^2 - n1^2 d,
    s = sqrt(N)/den and (a0 +- s)/2 = (n0 +- sqrt(N)) / (2 den).
    """
    if not x:
        return True
    if x.n1 == 0:
        r = x.n0 * x.den
        return is_square_int(r) or (not x.field.is_rational and is_square_int(r * x.field.d))
    n = _norm_numerator(x)
    if not is_square_int(n):
        return False
    s = math.isqrt(n)
    return any(u and is_square_int(u * 2 * x.den) for u in (x.n0 + s, x.n0 - s))


def element_support_primes(x: FieldElement) -> set[int]:
    """Odd rational primes at which some place could see x non-unit.

    The primes of the norm's numerator and denominator and of the
    coordinate denominators: at a split place the two valuations only sum
    to v_p(norm), so a clean norm does not preclude opposite nonzero
    valuations at the two places -- those need p in a denominator.  Two
    integers carry them all: the norm's numerator N/gcd(N, den^2) (N =
    n0^2 - n1^2 d; n0 over Q) and den, the lcm of the coordinate
    denominators.  Its primes are theirs, and every prime of the norm's
    denominator divides it.
    """
    _require_nonzero(x)
    if x.field.is_rational:
        top = x.n0
    else:
        top = _norm_numerator(x)
        top //= math.gcd(top, x.den * x.den)
    primes = set(factor(top))
    primes.update(factor(x.den))
    primes.discard(2)
    return primes
