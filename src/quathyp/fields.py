"""Exact arithmetic in Q and real quadratic fields Q(sqrt(d)).

The module provides the base-field layer everything else sits on:

* :class:`Field` -- Q or Q(sqrt(d)) with d > 1 squarefree;
* :class:`FieldElement` -- exact elements a0 + a1*sqrt(d) with
  :class:`fractions.Fraction` coordinates;
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
    is_square_fraction,
    legendre,
    sqrt_mod_prime_power,
    squarefree_part,
    unit_mod,
    val,
    val_fraction,
)
from .records import Record, set_field

Rationalish = Union[int, Fraction, str]


class Field(Record):
    """Q (``d is None``) or the real quadratic field Q(sqrt(d))."""

    __slots__ = ("d",)

    def __init__(self, d: int | None = None):
        if d is not None:
            if d <= 1:
                raise ValueError("d must be an integer > 1")
            if squarefree_part(d) != d:
                raise ValueError(f"d = {d} is not squarefree")
        set_field(self, "d", d)

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
        if self.is_rational:
            return (Place.real(self, 0),)
        return (Place.real(self, 0), Place.real(self, 1))

    def __str__(self) -> str:
        return "Q" if self.is_rational else f"Q(sqrt({self.d}))"


QQ = Field()


def _coerce(field: Field, other) -> "FieldElement":
    if isinstance(other, FieldElement):
        if other.field != field:
            raise FieldMismatchError(
                f"cannot combine elements of {field} and {other.field}"
            )
        return other
    if isinstance(other, (int, Fraction)):
        return field.element(other)
    return NotImplemented


class FieldElement(Record):
    """An exact element a0 + a1*sqrt(d) of its field (a1 = 0 over Q)."""

    __slots__ = ("field", "a0", "a1")

    def __init__(self, field: Field, a0: Fraction, a1: Fraction):
        set_field(self, "field", field)
        set_field(self, "a0", a0)
        set_field(self, "a1", a1)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.field, self.a0, self.a1) == (other.field, other.a0, other.a1)
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.field, self.a0, self.a1))

    def __bool__(self) -> bool:
        return self.a0 != 0 or self.a1 != 0

    @property
    def is_rational_value(self) -> bool:
        return self.a1 == 0

    def conjugate(self) -> "FieldElement":
        """The Galois conjugate a0 - a1*sqrt(d) (identity over Q)."""
        return FieldElement(self.field, self.a0, -self.a1)

    def norm(self) -> Fraction:
        """Norm down to Q: x * conjugate(x) = a0^2 - a1^2 * d."""
        if self.field.is_rational:
            return self.a0
        return self.a0 * self.a0 - self.a1 * self.a1 * self.field.d

    def trace(self) -> Fraction:
        return self.a0 if self.field.is_rational else 2 * self.a0

    def __add__(self, other):
        other = _coerce(self.field, other)
        if other is NotImplemented:
            return NotImplemented
        return FieldElement(self.field, self.a0 + other.a0, self.a1 + other.a1)

    __radd__ = __add__

    def __neg__(self):
        return FieldElement(self.field, -self.a0, -self.a1)

    def __sub__(self, other):
        other = _coerce(self.field, other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = _coerce(self.field, other)
        if other is NotImplemented:
            return NotImplemented
        d = self.field.d or 0
        return FieldElement(
            self.field,
            self.a0 * other.a0 + self.a1 * other.a1 * d,
            self.a0 * other.a1 + self.a1 * other.a0,
        )

    __rmul__ = __mul__

    def inverse(self) -> "FieldElement":
        if not self:
            raise ZeroDivisionError("field element 0 has no inverse")
        n = self.norm()
        if self.field.is_rational:
            return FieldElement(self.field, 1 / self.a0, Fraction(0))
        return FieldElement(self.field, self.a0 / n, -self.a1 / n)

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
        out = self.field.one
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self) -> str:
        if self.a1 == 0:
            return str(self.a0)
        d = self.field.d
        root = f"sqrt({d})"
        if self.a1 == 1:
            second = root
        elif self.a1 == -1:
            second = f"-{root}"
        else:
            second = f"{self.a1}*{root}"
        if self.a0 == 0:
            return second
        sign = "+" if self.a1 > 0 else "-"
        mag = second.lstrip("-")
        return f"{self.a0} {sign} {mag}"


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
    n0, n1 = x.a0.numerator, x.a1.numerator
    if v.embedding == 1:
        n1 = -n1
    s0, s1 = (n0 > 0) - (n0 < 0), (n1 > 0) - (n1 < 0)
    if s0 == s1 or not s1:
        return s0
    if not s0:
        return s1
    # opposite signs: the larger of a0^2, a1^2 d wins (they are never equal
    # because d is not a rational square)
    if (n0 * x.a1.denominator) ** 2 > (n1 * x.a0.denominator) ** 2 * x.field.d:
        return s0
    return s1


def real_signature(coeffs, v: Place) -> tuple[int, int]:
    """Counts (positive, negative) of a tuple of nonzero diagonal
    coefficients under the real embedding v."""
    plus = sum(1 for c in coeffs if sign_at_real_place(c, v) > 0)
    return plus, len(coeffs) - plus


# ---------------------------------------------------------------------------
# Valuations and square classes at finite places
# ---------------------------------------------------------------------------


def _integer_coords(x: FieldElement) -> tuple[int, int, int]:
    """(A0, A1, L) with x = (A0 + A1*sqrt(d)) / L, L the least common
    denominator of the coordinates."""
    L = math.lcm(x.a0.denominator, x.a1.denominator)
    return x.a0.numerator * (L // x.a0.denominator), x.a1.numerator * (L // x.a1.denominator), L


def _char(n: int, p: int) -> int:
    """Quadratic character mod p of the p-free part of an integer n != 0."""
    return legendre(n // p ** val(n, p), p)


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
    A0, A1, lcm = _integer_coords(x)
    # The valuation of A0 + A1*r is at most v_p of the integer norm
    # A0^2 - A1^2 d, because the conjugate image is also a p-adic integer.
    nrm = A0 * A0 - A1 * A1 * x.field.d
    m = val(nrm, p) + digits
    r = sqrt_mod_prime_power(x.field.d, p, m)
    if v.position == SPLIT_SECOND:
        r = p**m - r
    t = (A0 + A1 * r) % p**m
    vt, e = val(t, p), val(lcm, p)
    # the image is t / lcm: its unit part divides by lcm's as well
    return vt - e, t // p**vt * pow(lcm // p**e, -1, p**digits) % p**digits


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
        return val_fraction(x.a0, p)
    if v.position in (SPLIT_FIRST, SPLIT_SECOND):
        return _split_image(x, v)[0]
    # inert or ramified: v_p(norm(x)) = f v(x), residue degree f = 2 or 1;
    # the norm is (A0^2 - A1^2 d) / L^2
    A0, A1, L = _integer_coords(x)
    return (val(A0 * A0 - A1 * A1 * x.field.d, p) - 2 * val(L, p)) // (2 if v.position == INERT else 1)


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
    if v.is_real:
        return 0, sign_at_real_place(x, v)
    _require_same_field(x, v)
    p = v.p
    if v.position in (SPLIT_FIRST, SPLIT_SECOND):
        n, u = _split_image(x, v)
        return n % 2, u if p == 2 else legendre(u, p)
    if p == 2:
        if v.position == RATIONAL:
            return val_fraction(x.a0, 2) % 2, unit_mod(x.a0, 2, 8)
        return _dyadic_key(x, v)
    n = _valuation(x, v)
    if v.position == RATIONAL:
        # num/den and num*den differ by the square den^2
        return n % 2, _char(x.a0.numerator * x.a0.denominator, p)
    if v.position == INERT:
        # a unit of F_{p^2} is a square exactly when its norm is one in
        # F_p; the norm of x is (A0^2 - A1^2 d) / L^2
        A0, A1, _ = _integer_coords(x)
        return n % 2, _char(A0 * A0 - A1 * A1 * x.field.d, p)
    # ramified: divide by the uniformizer sqrt(d); the unit's residue is
    # its rational coordinate a0/d^(n/2) (n even) or a1/d^((n-1)/2)
    u = (x.a1 if n % 2 else x.a0) / Fraction(x.field.d) ** (n // 2)
    return n % 2, _char(u.numerator * u.denominator, p)


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
    A0, A1, L = _integer_coords(x)
    # x and the integral z = (A0 + A1 sqrt(d)) L differ by the square L^2
    a, b = A0 * L, A1 * L
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


def fraction_sqrt(x: Fraction) -> Fraction:
    """Exact square root of a rational square."""
    return Fraction(math.isqrt(x.numerator), math.isqrt(x.denominator))


def is_global_square(x: FieldElement) -> bool:
    """Exact test that x is a square in its field.

    Over Q(sqrt(d)): x = (y0 + y1*sqrt(d))^2 forces norm(x) = s^2 with
    s = +-(y0^2 - y1^2 d) rational, and then 2*y0^2 = a0 +- s.  So x is a
    square iff norm(x) is a rational square and one of (a0 +- s)/2 is a
    nonzero rational square (x with a1 = 0 reduces to a0 or a0*d being a
    rational square).
    """
    if not x:
        return True
    if x.field.is_rational:
        return is_square_fraction(x.a0)
    if x.a1 == 0:
        return is_square_fraction(x.a0) or is_square_fraction(x.a0 * x.field.d)
    n = x.norm()
    if not is_square_fraction(n):
        return False
    s = fraction_sqrt(n)
    for u in ((x.a0 + s) / 2, (x.a0 - s) / 2):
        if u != 0 and is_square_fraction(u):
            return True
    return False


def element_support_primes(x: FieldElement) -> set[int]:
    """Odd rational primes at which some place could see x non-unit.

    Covers the numerator and denominator of the norm and the coordinate
    denominators: at a split place the two valuations only sum to
    v_p(norm), so a clean norm does not preclude opposite nonzero
    valuations at the two places -- those need p in a denominator.
    """
    _require_nonzero(x)
    primes: set[int] = set()
    n = x.norm()
    for source in (n.numerator, n.denominator, x.a0.denominator, x.a1.denominator):
        primes.update(factor(source))
    primes.discard(2)
    return primes
