"""Hilbert symbols (a,b)_v over completions of Q and Q(sqrt(d)).

The symbol is +1 when z^2 = a x^2 + b y^2 has a nontrivial solution over
the completion at v and -1 otherwise.  It depends only on the square
classes of a and b at v, so `class_symbol` evaluates it from the two keys
of :func:`~quathyp.fields.local_square_class`: signs at real places, the
tame formula at odd places, the classical exponent formula at the dyadic
place of Q.  For a quadratic field with a *single* place over 2 (2 inert
or ramified) the dyadic symbol is recovered exactly from the product
formula over all other places of the support (`by_reciprocity`); when 2
splits the dyadic symbols are unsupported.
"""

from __future__ import annotations

import math

from .errors import FieldMismatchError, UnsupportedDyadicPlaceError
from .fields import (
    FieldElement,
    Place,
    element_support_primes,
    local_square_class,
    places_above,
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
    chi(a)^beta chi(b)^alpha.  At the dyadic place of Q the exponent is
    eps(a) eps(b) + alpha omega(b) + beta omega(a) in the units mod 8.  At
    a real place the symbol is -1 exactly when both signs are negative.
    """
    (alpha, ua), (beta, ub) = ka, kb
    if v.is_real:
        return -1 if ua < 0 and ub < 0 else 1
    if v.p != 2:
        sym = local_square_class(v.field.element(-1), v)[1] if alpha and beta else 1
        if beta:
            sym *= ua
        if alpha:
            sym *= ub
        return sym
    exponent = _epsilon(ua) * _epsilon(ub) + alpha * _omega(ub) + beta * _omega(ua)
    return -1 if exponent % 2 else 1


def by_reciprocity(v: Place, support, local) -> int:
    """The factor at v that makes the product of `local` over `support`
    +1: the product of local(w) over its other places (Hilbert
    reciprocity).  Used at the single dyadic place of Q(sqrt(d)); a
    second dyadic place in the support (2 splits) raises
    UnsupportedDyadicPlaceError."""
    others = [w for w in support if w != v]
    if any(w.is_dyadic for w in others):
        raise UnsupportedDyadicPlaceError(
            f"2 splits in {v.field}; dyadic symbols are unsupported"
        )
    return math.prod(local(w) for w in others)


def hilbert_symbol(a: FieldElement, b: FieldElement, v: Place) -> int:
    """The Hilbert symbol (a,b) at the place v, as +1 or -1."""
    if not a or not b:
        raise ValueError("Hilbert symbol arguments must be nonzero")
    if a.field != b.field or a.field != v.field:
        raise FieldMismatchError("symbol arguments and place must share one field")
    if v.is_dyadic and not v.field.is_rational:
        return by_reciprocity(v, symbol_support(a, b), lambda w: hilbert_symbol(a, b, w))
    return class_symbol(local_square_class(a, v), local_square_class(b, v), v)


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
    places.extend(places_above(field, 2))
    for p in sorted(odd_primes):
        places.extend(places_above(field, p))
    return tuple(sorted(places, key=Place.sort_key))


def product_formula_check(a: FieldElement, b: FieldElement) -> bool:
    """Whether the product of (a,b)_v over the support is +1.

    Over Q every factor is computed from its own pair of square-class
    keys, so this genuinely checks reciprocity.  Over a quadratic field
    the lone dyadic factor is `by_reciprocity` of the others, so the
    product is +1 by construction there (the nontrivial content lives in
    the other factors; see the test suite's direct dyadic square
    cross-checks).
    """
    prod = 1
    for v in symbol_support(a, b):
        prod *= hilbert_symbol(a, b, v)
    return prod == 1
