"""Hilbert symbols (a,b)_v over completions of Q and Q(sqrt(d)).

The symbol is +1 when z^2 = a x^2 + b y^2 has a nontrivial solution over
the completion at v and -1 otherwise.  It depends only on the square
classes of a and b at v, so `class_symbol` evaluates it from the two keys
of :func:`~quathyp.fields.local_square_class`, at every place: signs at
real places, the tame formula at odd places, the classical exponent
formula at a dyadic place with completion Q_2 (over Q, and over
Q(sqrt(d)) when 2 splits).  When 2 is inert or ramified in Q(sqrt(d)) the
16 x 16 table of dyadic symbols is filled on demand, one entry per pair
of classes, by Hilbert reciprocity over two fixed representatives of the
classes (Serre, *A Course in Arithmetic*, Ch. III).  Every symbol of
given elements is then read off their own keys, so the product formula
is a real check of those keys.
"""

from __future__ import annotations

import math
from functools import lru_cache

from .errors import FieldMismatchError
from .fields import (
    INERT,
    RAMIFIED,
    Field,
    FieldElement,
    Place,
    dyadic_class_element,
    element_support_primes,
    _places_above,
    _square_class,
)
from .numtheory import factor


def _epsilon(u: int) -> int:
    """(u-1)/2 mod 2 for odd u: 0 when u = 1 mod 4, 1 when u = 3 mod 4."""
    return (u - 1) // 2 % 2


def _omega(u: int) -> int:
    """(u^2-1)/8 mod 2 for odd u: 0 when u = +-1 mod 8, else 1."""
    return (u * u - 1) // 8 % 2


def class_symbol(ka: tuple[int, int], kb: tuple[int, int], v: Place) -> int:
    """The Hilbert symbol (a,b)_v from ka = local_square_class(a, v) and
    kb = local_square_class(b, v).

    At an odd place, with valuations alpha, beta and chi the residue
    character of the unit parts, (a,b)_v = chi(-1)^(alpha beta)
    chi(a)^beta chi(b)^alpha.  At a dyadic place with completion Q_2 the
    exponent is eps(a) eps(b) + alpha omega(b) + beta omega(a) in the
    units mod 8; the other dyadic places read `_dyadic_symbol`.  At a real
    place the symbol is -1 exactly when both signs are negative.
    """
    (alpha, ua), (beta, ub) = ka, kb
    if v.is_real:
        return -1 if ua < 0 and ub < 0 else 1
    if v.p != 2:
        sym = _square_class(v.field.element(-1), v)[1] if alpha and beta else 1
        if beta:
            sym *= ua
        if alpha:
            sym *= ub
        return sym
    if v.position in (INERT, RAMIFIED):
        return _dyadic_symbol(v.field.d, ka, kb)
    exponent = _epsilon(ua) * _epsilon(ub) + alpha * _omega(ub) + beta * _omega(ua)
    return -1 if exponent % 2 else 1


@lru_cache(maxsize=4096)
def _dyadic_symbol(d: int, ka: tuple[int, int], kb: tuple[int, int]) -> int:
    """The symbol of the classes ka, kb at the one dyadic place of
    Q(sqrt(d)) (2 inert or ramified): the product of the symbols of their
    representatives `dyadic_class_element` at every other place of the
    representatives' support (Hilbert reciprocity)."""
    field = Field(d)
    a, b = dyadic_class_element(field, ka), dyadic_class_element(field, kb)
    return math.prod(
        class_symbol(_square_class(a, w), _square_class(b, w), w)
        for w in symbol_support(a, b)
        if not w.is_dyadic
    )


def hilbert_symbol(a: FieldElement, b: FieldElement, v: Place) -> int:
    """The Hilbert symbol (a,b) at the place v, as +1 or -1."""
    if not a or not b:
        raise ValueError("Hilbert symbol arguments must be nonzero")
    if a.field != b.field or a.field != v.field:
        raise FieldMismatchError("symbol arguments and place must share one field")
    return class_symbol(_square_class(a, v), _square_class(b, v), v)


def symbol_support(*elements: FieldElement) -> tuple[Place, ...]:
    """A finite set of places guaranteed to contain every place where a
    Hilbert symbol of two of the elements is -1.

    All real places; all places over 2 and over odd primes dividing the
    field discriminant, the numerators/denominators of the elements'
    norms, or their coordinate denominators.  At any place outside this
    set every element is a unit at an odd unramified place, where the
    tame symbol is +1.  (Coordinate denominators matter: at a split
    place the two valuations only sum to the valuation of the norm, so
    they can be nonzero with a clean norm.)
    """
    if not elements or not all(elements):
        raise ValueError("symbol support requires one or more nonzero elements")
    field = elements[0].field
    if any(x.field != field for x in elements):
        raise FieldMismatchError("support arguments must share one field")
    odd_primes: set[int] = set(factor(field.discriminant))
    for x in elements:
        odd_primes |= element_support_primes(x)
    odd_primes.discard(2)
    places = list(field.real_places())
    places.extend(_places_above(field, 2))
    for p in sorted(odd_primes):
        places.extend(_places_above(field, p))
    return tuple(sorted(places, key=Place.sort_key))


def product_formula_check(a: FieldElement, b: FieldElement) -> bool:
    """Whether the product of (a,b)_v over the support is +1.

    Every factor, the dyadic ones included, is computed from a's and b's
    own square-class keys at that place, so a wrong key shows up here as
    a failed check.  (The dyadic table entries come from reciprocity
    over fixed class representatives, never from a and b.)
    """
    prod = 1
    for v in symbol_support(a, b):
        prod *= hilbert_symbol(a, b, v)
    return prod == 1
