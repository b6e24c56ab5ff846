"""Independent oracles used to cross-check the library's arithmetic.

Everything here deliberately avoids the code paths under test: squares
and isotropy in p-adic fields are decided by brute-force enumeration of
residues with explicit lifting-precision bounds, quadratic residue
characters over F_p^2 are computed by exponentiation in a polynomial
model of the field, and sympy supplies an unrelated implementation of
Legendre symbols, modular square roots (2-adic ones included) and
factoring.  Hilbert symbols are evaluated by one kernel per kind of place
(sign, tame formula, dyadic exponent formula on Q_2 images) from
valuations and residue characters computed here, not from the library's
square-class keys; at the lone dyadic place of Q(sqrt(d)) the symbol is
the product of the kernels at the other places (Hilbert reciprocity).
Hasse invariants
are products of one Hilbert symbol per coefficient pair, and isometry
compares them at every place, the dyadic ones included.  For the numeric
sp(m,1) model, the Killing form is the trace of ad(A) ad(B) in basis
coordinates, Lie-triple closure is tested one triple at a time and the
structural bracket identities one bracket at a time.  Commensurability
is decided one field automorphism at a time, with the conjugate algebra's
ramification set built from its own parameters, and the surface witness
is the first form of a search over a ladder of candidates.  The oracles
are slow and simple on purpose.  Field elements are checked against
arithmetic on pairs of Fraction coordinates, with a gcd on every
operation.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import product

import numpy as np
import sympy

import quathyp.geometry as geo
from quathyp.algebras import algebras_isomorphic, conjugate_algebra, ramified_real_places
from quathyp.commensurability import IDENTITY, field_automorphisms, place_image
from quathyp.fields import INERT, RAMIFIED, SPLIT_FIRST, SPLIT_SECOND, Place, real_signature
from quathyp.hermitian import HermitianForm, signature_at_ramified, trace_form
from quathyp.quadratic import (
    QuadraticForm,
    form_support,
    isotropic_global,
    same_square_class,
    signature_at,
)
from quathyp.symbols import symbol_support

# ---------------------------------------------------------------------------
# field arithmetic on Fraction coordinate pairs (a0, a1), d = 0 over Q


def pair(x) -> tuple[Fraction, Fraction]:
    return Fraction(x.a0), Fraction(x.a1)


def pair_add(x, y):
    return x[0] + y[0], x[1] + y[1]


def pair_neg(x):
    return -x[0], -x[1]


def pair_mul(x, y, d: int):
    return x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0]


def pair_conjugate(x):
    return x[0], -x[1]


def pair_norm(x, d: int) -> Fraction:
    """a0 over Q; a0^2 - a1^2 d over Q(sqrt(d))."""
    return x[0] if not d else x[0] * x[0] - x[1] * x[1] * d


def pair_trace(x, d: int) -> Fraction:
    return x[0] if not d else 2 * x[0]


def pair_inverse(x, d: int):
    if x == (0, 0):
        raise ZeroDivisionError("field element 0 has no inverse")
    if not d:
        return 1 / x[0], Fraction(0)
    n = pair_norm(x, d)
    return x[0] / n, -x[1] / n


def pair_pow(x, n: int, d: int):
    if n < 0:
        return pair_pow(pair_inverse(x, d), -n, d)
    out = (Fraction(1), Fraction(0))
    for _ in range(n):
        out = pair_mul(out, x, d)
    return out


def _is_square_fraction(q: Fraction) -> bool:
    return q >= 0 and all(math.isqrt(n) ** 2 == n for n in (q.numerator, q.denominator))


def is_global_square_by_fractions(x) -> bool:
    """Whether x is a square in its field, on Fraction coordinates:
    norm(x) = s^2 and one of (a0 +- s)/2 a nonzero rational square."""
    (a0, a1), d = pair(x), x.field.d or 0
    if a1 == 0:
        return _is_square_fraction(a0) or (d != 0 and _is_square_fraction(a0 * d))
    n = pair_norm((a0, a1), d)
    if not _is_square_fraction(n):
        return False
    s = Fraction(math.isqrt(n.numerator), math.isqrt(n.denominator))
    return any(u != 0 and _is_square_fraction(u) for u in ((a0 + s) / 2, (a0 - s) / 2))


def square_class_rep_by_fractions(x) -> tuple[Fraction, Fraction]:
    """The coordinates of `quadratic.square_class_rep(x)`, on Fraction
    coordinates: the squarefree part of num*den for a rational value;
    else x times (a0.den a1.den)^2, divided by the largest square that
    divides the gcd of its integer coordinates."""
    a0, a1 = pair(x)
    if a1 == 0:
        return Fraction(_squarefree_numerator(a0)), Fraction(0)
    y0, y1 = a0 * (a0.denominator * a1.denominator) ** 2, a1 * (a0.denominator * a1.denominator) ** 2
    g = math.gcd(int(y0), int(y1))
    t2 = g // _squarefree_numerator(Fraction(g))
    return y0 / t2, y1 / t2


def support_primes_four_sources(x) -> set[int]:
    """The odd primes of the norm's numerator and denominator and of both
    coordinate denominators, factored by sympy."""
    a0, a1 = pair(x)
    n = pair_norm((a0, a1), x.field.d or 0)
    primes: set[int] = set()
    for source in (n.numerator, n.denominator, a0.denominator, a1.denominator):
        primes.update(sympy.primefactors(source))
    primes.discard(2)
    return primes


# ---------------------------------------------------------------------------
# p-adic squares over Q by enumeration


def qp_is_square(x: Fraction, p: int) -> bool:
    """Square test in Q_p: strip the p-part, then decide the unit.

    A p-adic unit u is a square iff u is a square mod p (odd p) or mod 8
    (p = 2); these moduli exceed twice the valuation of the derivative
    of t^2 - u, so a residue solution lifts.
    """
    x = Fraction(x)
    if x == 0:
        return False
    v = 0
    num, den = x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    if v % 2:
        return False
    modulus = 8 if p == 2 else p
    u = (num * pow(den, -1, modulus)) % modulus
    if p == 2:
        return u % 8 == 1
    return sympy.legendre_symbol(u, p) == 1


def qp_ternary_isotropic(a: int, b: int, c: int, p: int) -> bool:
    """Whether a x^2 + b y^2 + c z^2 = 0 has a nonzero solution over Q_p,
    by scanning primitive solutions modulo p^k.

    For odd p a primitive zero mod p^3 lifts (the form's gradient at a
    primitive point has valuation <= 1, and 3 > 2*1); for p = 2 a
    primitive zero mod 2^5 lifts (gradient valuation <= 2 after scaling,
    and 5 > 2*2).  Conversely a genuine zero reduces to a primitive zero
    mod any power.  Scaling x, y, z by p shows it suffices to scan
    triples where some coordinate is a unit.
    """
    k = 5 if p == 2 else 3
    mod = p**k
    squares = [(x * x) % mod for x in range(mod)]
    for x, y in product(range(mod), repeat=2):
        lhs = a * squares[x] + b * squares[y]
        for z in range(mod):
            if (lhs + c * squares[z]) % mod:
                continue
            if x % p and _lifts(a, x, p, k):
                return True
            if y % p and _lifts(b, y, p, k):
                return True
            if z % p and _lifts(c, z, p, k):
                return True
    return False


def _lifts(coeff: int, coord: int, p: int, k: int) -> bool:
    # gradient component 2*coeff*coord must not vanish too deeply
    g = 2 * coeff * coord
    v = 0
    while g and g % p == 0:
        g //= p
        v += 1
    return g != 0 and k > 2 * v


def qp_ternary_isotropic_fast(a: int, b: int, c: int, p: int) -> bool:
    """Same decision as :func:`qp_ternary_isotropic` but with the inner
    coordinate scan replaced by a hash join on z^2 residues."""
    k = 5 if p == 2 else 3
    mod = p**k
    zs: dict[int, list[int]] = {}
    for z in range(mod):
        zs.setdefault((z * z) % mod, []).append(z)
    for x in range(mod):
        ax2 = a * x * x
        for y in range(mod):
            need = (-(ax2 + b * y * y)) * pow(c, -1, mod) if c % p else None
            if need is None:
                break
            for z in zs.get(need % mod, ()):
                for coeff, coord in ((a, x), (b, y), (c, z)):
                    if coord % p and _lifts(coeff, coord, p, k):
                        return True
    if c % p == 0:
        return qp_ternary_isotropic(a, b, c, p)
    return False


def qp_hilbert(a: Fraction, b: Fraction, p: int) -> int:
    """Hilbert symbol over Q_p straight from its definition: +1 iff
    z^2 = a x^2 + b y^2 has a nontrivial solution, i.e. the ternary form
    a x^2 + b y^2 - z^2 is isotropic."""
    a, b = Fraction(a), Fraction(b)
    an = _squarefree_numerator(a)
    bn = _squarefree_numerator(b)
    return 1 if qp_ternary_isotropic_fast(an, bn, -1, p) else -1


def _squarefree_numerator(x: Fraction) -> int:
    """Integer in the same square class as x (multiply by den^2, strip
    square factors)."""
    n = x.numerator * x.denominator
    out = 1 if n > 0 else -1
    n = abs(n)
    for q, e in sympy.factorint(n).items():
        if e % 2:
            out *= q
    return out


def real_hilbert(a: Fraction, b: Fraction) -> int:
    return -1 if a < 0 and b < 0 else 1


# ---------------------------------------------------------------------------
# quadratic-field helpers, all in terms of rational data


def fp2_is_square(a0: Fraction, a1: Fraction, d: int, p: int) -> bool:
    """Whether a0 + a1 sqrt(d) is a nonzero square in F_{p^2} = F_p[t]/(t^2-d),
    for odd inert p, decided by computing u^((p^2-1)/2) by square-and-
    multiply in the polynomial model."""
    c0 = int(a0 % p) if a0.denominator == 1 else int(
        (a0.numerator * pow(a0.denominator, -1, p)) % p
    )
    c1 = int(a1 % p) if a1.denominator == 1 else int(
        (a1.numerator * pow(a1.denominator, -1, p)) % p
    )
    if c0 == 0 and c1 == 0:
        raise ValueError("zero residue")
    e = (p * p - 1) // 2
    r0, r1 = 1, 0
    b0, b1 = c0, c1
    dd = d % p
    while e:
        if e & 1:
            r0, r1 = (r0 * b0 + r1 * b1 * dd) % p, (r0 * b1 + r1 * b0) % p
        b0, b1 = (b0 * b0 + b1 * b1 * dd) % p, (2 * b0 * b1) % p
        e >>= 1
    return (r0, r1) == (1, 0)


def quadratic_norm(a0: Fraction, a1: Fraction, d: int) -> Fraction:
    return a0 * a0 - a1 * a1 * d


def split_prime_kind(p: int, d: int) -> str:
    """How p behaves in Q(sqrt(d)): by counting roots of t^2 - d."""
    if p == 2:
        if d % 8 == 1:
            return "split"
        return "inert" if d % 4 == 1 else "ramified"
    if d % p == 0:
        return "ramified"
    return "split" if sympy.legendre_symbol(d % p, p) == 1 else "inert"


@lru_cache(maxsize=1024)
def _split_roots(d: int, p: int, prec: int) -> tuple[int, int]:
    """The two square roots of d mod p^prec in the labeling order of
    `split_images`."""
    mod = p**prec
    if p == 2:
        # mod 2^(prec+1) the roots are +-r and +-r + 2^prec, r the 2-adic root
        r = next(r for r in sympy.sqrt_mod(d, 2 * mod, all_roots=True) if r % 4 == 1)
        return r % mod, -r % mod
    roots = []
    for r in sorted(sympy.sqrt_mod(d % p, p, all_roots=True)):
        # Newton lifting of the chosen root of t^2 - d
        k = 1
        while k < prec:
            k = min(2 * k, prec)
            mk = p**k
            r = (r - (r * r - d) * pow(2 * r, -1, mk)) % mk
        roots.append(r)
    return tuple(roots)


def split_images(a0: Fraction, a1: Fraction, d: int, p: int, digits: int):
    """The two images of a0 + a1 sqrt(d) in Q_p under a split prime,
    as residues mod p^digits paired with the labeling convention that
    the first image substitutes the smaller lift of sqrt(d) mod p (for
    p = 2: the 2-adic root that is 1 mod 4).

    Returns [(val, unit mod p^digits or None), ...] for both places;
    None marks precision exhaustion (the scan digits ran out before the
    unit emerged), which callers treat as a skip.
    """
    prec = digits + 40
    mod = p**prec
    out = []
    for r in _split_roots(d, p, prec):
        num = a0.numerator * a1.denominator + a1.numerator * a0.denominator * r
        den = a0.denominator * a1.denominator
        v = 0
        while den % p == 0:
            den //= p
            v -= 1
        if num % mod == 0:
            out.append((None, None))
            continue
        while num % p == 0:
            num //= p
            v += 1
        unit_mod = p**digits
        out.append((v, (num * pow(den, -1, unit_mod)) % unit_mod))
    return out


def real_sign(x, v) -> int:
    """Sign of x under the real embedding v, exactly, by sympy."""
    root = sympy.sqrt(x.field.d) if not x.field.is_rational else 0
    if v.embedding == 1:
        root = -root
    return int(sympy.sign(sympy.Rational(x.a0) + sympy.Rational(x.a1) * root))


def _vp(x: Fraction, p: int) -> int:
    x = Fraction(x)
    v, num, den = 0, x.numerator, x.denominator
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v


def _residue(x: Fraction, modulus: int) -> int:
    """x mod modulus for a fraction whose denominator is a unit there."""
    x = Fraction(x)
    return x.numerator * pow(x.denominator, -1, modulus) % modulus


def _split_index(v) -> int:
    return {SPLIT_FIRST: 0, SPLIT_SECOND: 1}[v.position]


def odd_place_unit(x, v) -> tuple[int, int]:
    """(valuation, quadratic residue character of the unit part) of x at
    an odd finite place: sympy Legendre symbols over Q and at split
    places (through the Newton-lifted images of `split_images`), the
    F_{p^2} power test at inert places, and the leading coordinate after
    dividing by powers of the uniformizer sqrt(d) at ramified places."""
    p, a0, a1 = v.p, x.a0, x.a1
    if x.field.is_rational:
        n = _vp(a0, p)
        return n, sympy.legendre_symbol(_residue(a0 / Fraction(p) ** n, p), p)
    d = x.field.d
    if v.position in (SPLIT_FIRST, SPLIT_SECOND):
        n, unit = split_images(a0, a1, d, p, 1)[_split_index(v)]
        assert n is not None, "split image precision exhausted"
        return n, sympy.legendre_symbol(unit, p)
    if d % p:
        n = min(_vp(c, p) for c in (a0, a1) if c)
        scale = Fraction(p) ** n
        return n, 1 if fp2_is_square(a0 / scale, a1 / scale, d, p) else -1
    # ramified: v(a0) = 2 v_p(a0) and v(a1 sqrt d) = 2 v_p(a1) + 1 differ
    # in parity, so the smaller one is the valuation and its term leads
    n = min(2 * _vp(a0, p) if a0 else math.inf, 2 * _vp(a1, p) + 1 if a1 else math.inf)
    lead = a1 if n % 2 else a0
    return n, sympy.legendre_symbol(_residue(lead / Fraction(d) ** (n // 2), p), p)


def by_reciprocity(v, support, local) -> int:
    """The factor at v that makes the product of `local` over `support`
    +1: the product of local(w) over its other places (Hilbert
    reciprocity).  Sound only when v is the one place of the support
    where `local` is unknown."""
    others = [w for w in support if w != v]
    assert not any(w.is_dyadic for w in others), "a second dyadic place"
    return math.prod(local(w) for w in others)


def hilbert_symbol_by_kind(a, b, v) -> int:
    """(a,b)_v with one kernel per kind of place: both signs negative at
    a real place; the tame formula chi(-1)^(alpha beta) chi(a)^beta
    chi(b)^alpha at an odd place; the dyadic exponent eps(a) eps(b) +
    alpha omega(b) + beta omega(a) in the units mod 8 of Q_2 at the
    dyadic place of Q and, through `split_images`, at the two dyadic
    places of Q(sqrt(d)) when 2 splits.  When 2 is inert or ramified it
    is `by_reciprocity` of these kernels at the other places."""
    if v.is_real:
        return -1 if real_sign(a, v) < 0 and real_sign(b, v) < 0 else 1
    if v.p != 2:
        alpha, chi_a = odd_place_unit(a, v)
        beta, chi_b = odd_place_unit(b, v)
        sym = 1
        if alpha % 2 and beta % 2:
            sym *= odd_place_unit(v.field.element(-1), v)[1]
        if beta % 2:
            sym *= chi_a
        if alpha % 2:
            sym *= chi_b
        return sym
    if v.position in (INERT, RAMIFIED):
        return by_reciprocity(v, symbol_support(a, b), lambda w: hilbert_symbol_by_kind(a, b, w))
    if v.field.is_rational:
        alpha, beta = _vp(a.a0, 2), _vp(b.a0, 2)
        ua = _residue(a.a0 / Fraction(2) ** alpha, 8)
        ub = _residue(b.a0 / Fraction(2) ** beta, 8)
    else:
        (alpha, ua), (beta, ub) = (
            split_images(x.a0, x.a1, x.field.d, 2, 3)[_split_index(v)] for x in (a, b)
        )
    eps = lambda u: (u - 1) // 2 % 2  # noqa: E731
    omega = lambda u: (u * u - 1) // 8 % 2  # noqa: E731
    exponent = eps(ua) * eps(ub) + alpha * omega(ub) + beta * omega(ua)
    return -1 if exponent % 2 else 1


def is_local_square_by_kind(x, v) -> bool:
    """Square test at any place: a positive sign, `qp_is_square` over Q,
    the Newton-lifted `split_images` at split places (a unit 1 mod 8 at
    a dyadic one), `fp2_is_square` at odd inert places, and the digit
    search `quadratic_local_is_square` at odd ramified places and at the
    dyadic place when 2 is inert or ramified."""
    if v.is_real:
        return real_sign(x, v) > 0
    if x.field.is_rational:
        return qp_is_square(x.a0, v.p)
    p, d = v.p, x.field.d
    if p == 2 and v.position in (SPLIT_FIRST, SPLIT_SECOND):
        n, unit = split_images(x.a0, x.a1, d, 2, 3)[_split_index(v)]
        assert n is not None, "split image precision exhausted"
        return n % 2 == 0 and unit == 1
    if p != 2 and (v.position in (SPLIT_FIRST, SPLIT_SECOND) or d % p):
        n, chi = odd_place_unit(x, v)
        return n % 2 == 0 and chi == 1
    # strip square factors p^2 from the integer coordinates so the digit
    # search stays within its certified valuation range
    den = x.a0.denominator * x.a1.denominator
    c0, c1 = x.a0 * den * den, x.a1 * den * den
    while c0 % (p * p) == 0 and c1 % (p * p) == 0:
        c0, c1 = c0 / (p * p), c1 / (p * p)
    return quadratic_local_is_square(Fraction(c0), Fraction(c1), d, p, digits=16 if p == 2 else 7)


# ---------------------------------------------------------------------------
# square tests in quadratic local rings by digit lifting
#
# A survivor of the breadth-first digit search certifies a genuine
# square root (high component precision dominates the derivative), and
# a true root always reduces; so for moderate valuations the search is
# an exact decision, independent of any closed residue criterion.


def _bfs_square(x0: int, x1: int, square_components, p: int, digits: int) -> bool:
    candidates = {(0, 0)}
    for k in range(1, digits + 1):
        mod = p**k
        step = p ** (k - 1)
        new = set()
        for y0, y1 in candidates:
            for d0 in range(p):
                for d1 in range(p):
                    z0, z1 = y0 + d0 * step, y1 + d1 * step
                    s0, s1 = square_components(z0, z1)
                    if (s0 - x0) % mod == 0 and (s1 - x1) % mod == 0:
                        new.add((z0 % mod, z1 % mod))
        if not new:
            return False
        if len(new) > 4096:
            raise RuntimeError("digit search exploded; input valuation too high")
        candidates = new
    return True


def quadratic_local_is_square(
    a0: Fraction, a1: Fraction, d: int, p: int, digits: int = 14
) -> bool:
    """Square test for a0 + a1 sqrt(d) in the completion of Q(sqrt(d))
    at the unique place over an inert/ramified prime p, by digit search.

    Denominators are cleared by squares first (odd parts squared, and
    4^s for the 2-part), which does not change the square class.  Works
    for p = 2 with d = 2, 3 mod 4 or d = 5 mod 8, and for odd p; keep
    the input's valuation modest so the certification bound applies.
    """
    den = (a0.denominator * a1.denominator) ** 2
    x0, x1 = a0 * den, a1 * den
    assert x0.denominator == 1 and x1.denominator == 1
    x0, x1 = int(x0), int(x1)
    if x0 == 0 and x1 == 0:
        raise ValueError("zero input")
    if p == 2 and d % 8 == 5:
        # integral basis 1, (1 + sqrt(d))/2: coordinates (x0 - x1, 2 x1)
        e = (d - 1) // 4
        c0, c1 = x0 - x1, 2 * x1
        return _bfs_square(
            c0, c1, lambda y0, y1: (y0 * y0 + e * y1 * y1, 2 * y0 * y1 + y1 * y1),
            2, digits,
        )
    if p == 2 and d % 8 == 1:
        raise ValueError("2 splits; not a single place")
    return _bfs_square(
        x0, x1, lambda y0, y1: (y0 * y0 + d * y1 * y1, 2 * y0 * y1), p, digits
    )


# ---------------------------------------------------------------------------
# Hasse invariants one symbol per pair, isometry at every place


def hasse_invariant_pairwise(q, v) -> int:
    """Product of the Hilbert symbols (a_i, a_j)_v over all pairs i < j,
    each from `hilbert_symbol_by_kind`, not from square-class keys."""
    out = 1
    for i in range(q.dim):
        for j in range(i + 1, q.dim):
            out *= hilbert_symbol_by_kind(q.coeffs[i], q.coeffs[j], v)
    return out


def forms_isometric_every_place(q1, q2) -> bool:
    """Isometry by dimension, determinant class, real signatures and the
    pairwise Hasse invariants at every finite place of the joint
    support, the dyadic place included."""
    if q1.dim != q2.dim or not same_square_class(q1.det(), q2.det()):
        return False
    places = set(form_support(q1)) | set(form_support(q2))
    for v in sorted(places, key=Place.sort_key):
        if v.is_real:
            if signature_at(q1, v) != signature_at(q2, v):
                return False
        elif hasse_invariant_pairwise(q1, v) != hasse_invariant_pairwise(q2, v):
            return False
    return True


# ---------------------------------------------------------------------------
# commensurability one field automorphism at a time


def algebra_image(tau, D):
    """tau(D): the algebra with parameters moved by the field automorphism."""
    return D if tau == IDENTITY else conjugate_algebra(D)


def hermitian_image(tau, h):
    """tau(h): the form over tau(D) with coefficients moved by tau."""
    if tau == IDENTITY:
        return h
    return HermitianForm(conjugate_algebra(h.algebra), tuple(c.conjugate() for c in h.coeffs))


def finite_volume_flag(h) -> bool:
    """Whether the subspace cut out by ``h`` is a nonflat piece of
    positive dimension with finite covolume: dimension at least 2 and
    indefinite (hence isotropic) at some real place."""
    if h.dim < 2:
        return False
    return any(0 not in real_signature(h.coeffs, v) for v in h.field.real_places())


def hermitian_isotropic_by_trace_form(h) -> bool:
    """Isotropy of a Hermitian form read off its 4n-dimensional trace
    form over the base field, which is isotropic exactly when h is."""
    return isotropic_global(trace_form(h))


def triples_equivalent_by_images(t1, t2) -> bool:
    """Whether some field automorphism tau sends t2.v0 to t1.v0 and
    makes t1.algebra isomorphic to tau(t2.algebra), the algebra with
    conjugated parameters, whose ramification set is built afresh."""
    return t1.field == t2.field and any(
        place_image(tau, t2.v0) == t1.v0
        and algebras_isomorphic(t1.algebra, algebra_image(tau, t2.algebra))
        for tau in field_automorphisms(t1.field)
    )


def nonsplit_commensurable_by_images(d1, d2) -> bool:
    """The type C_n decision for two nonsplit descriptors, tau by tau:
    tau(D2) as an algebra, and the unordered signature pairs read by
    ``signature_at_ramified``, which checks each place ramifies."""
    unordered = lambda sig: frozenset((sig, sig[::-1]))
    if d1.n != d2.n or d1.field != d2.field:
        return False
    h1, h2 = d1.form, d2.form
    for tau in field_automorphisms(d1.field):
        if algebras_isomorphic(h1.algebra, algebra_image(tau, h2.algebra)) and all(
            unordered(signature_at_ramified(h1, v))
            == unordered(signature_at_ramified(h2, place_image(tau, v)))
            for v in ramified_real_places(h1.algebra)
        ):
            return True
    return False


def surface_witness_by_ladder(t):
    """The first ternary form <1, 1, lam> with signature (2, 1) at v0,
    positive definite at every other real place and globally
    anisotropic, with lam walking a fixed ladder: for n = 1, ..., 100,
    -n over Q, and -n sqrt(d), n sqrt(d), -n, n over Q(sqrt(d)).  None
    when the ladder runs out."""
    field = t.field
    for n in range(1, 101):
        if field.is_rational:
            lams = (field.element(-n),)
        else:
            s = field.sqrt_d
            lams = (-n * s, n * s, field.element(-n), field.element(n))
        for lam in lams:
            coeffs = (field.one, field.one, lam)
            if all(
                real_signature(coeffs, v) == ((2, 1) if v == t.v0 else (3, 0))
                for v in field.real_places()
            ):
                q = QuadraticForm(field, coeffs)
                if not isotropic_global(q):
                    return q
    return None


# ---------------------------------------------------------------------------
# recipes: algebras over Q with prescribed ramification


#: (a, b) -> ramification set over Q, each verified by classical results:
#: (-1, -p) for p = 3 mod 4 ramifies at {inf, p}; (2, 5): 2 and 5;
#: norms/Legendre checks done by hand in the decisions record.
KNOWN_RAMIFICATION = {
    (-1, -1): {"inf", "2"},
    (-1, -3): {"inf", "3"},
    (-2, -5): {"inf", "5"},
    (-1, -7): {"inf", "7"},
    (-1, -11): {"inf", "11"},
    (-7, -13): {"inf", "13"},
    (-3, -17): {"inf", "17"},
    (-1, -19): {"inf", "19"},
    (2, 5): {"2", "5"},
    (3, 5): {"3", "5"},
}


# ---------------------------------------------------------------------------
# the sp(m,1) model by brute force: ad-trace Killing form, per-triple closure


def ad_matrix(A, m: int) -> np.ndarray:
    """The adjoint action bracket(A, -) as a real matrix in the
    coordinates of ``geometry.lie_basis(m)``."""
    cols = [geo.coordinates(geo.bracket(A, E), m) for E in geo.lie_basis(m)]
    return np.stack(cols, axis=1)


@lru_cache(maxsize=None)
def killing_gram(m: int) -> np.ndarray:
    """tr(ad(E_i) ad(E_j)) over the ordered basis: O(N^2) traces of
    N x N products, N = 2m^2 + 5m + 3."""
    ads = [ad_matrix(E, m) for E in geo.lie_basis(m)]
    N = len(ads)
    K = np.empty((N, N))
    for i in range(N):
        for j in range(i, N):
            K[i, j] = K[j, i] = np.trace(ads[i] @ ads[j])
    K.setflags(write=False)
    return K


def killing_adtrace(A, B, m: int) -> float:
    """The Killing form as the trace of ad(A) ad(B)."""
    return float(geo.coordinates(A, m) @ killing_gram(m) @ geo.coordinates(B, m))


def distance_by_floats(v1, v2) -> float:
    """The distance between the negative lines of two (m+1, 4) vectors,
    one pair at a time in Python floats: 2 arccosh sqrt of
    |h(v1,v2)|^2 / (h(v1,v1) h(v2,v2)), 0 within ``geo.ZERO_BAND`` of 1."""
    def h(v, w):
        terms = [geo.quat_mul(geo.quat_conj(a), b) for a, b in zip(v, w)]
        return sum(terms[:-1]) - terms[-1]

    arg = float((h(v1, v2) ** 2).sum()) / (float(h(v1, v1)[0]) * float(h(v2, v2)[0]))
    return 0.0 if arg <= 1.0 + geo.ZERO_BAND else 2.0 * math.acosh(math.sqrt(arg))


def triple_product(v, w, u) -> np.ndarray:
    """v h0(w,u) - w h0(v,u) - u (h0(v,w) - h0(w,v)) for one triple of
    tangent vectors (entrywise right multiplication)."""
    return (
        geo.quat_mul(v, geo.h0(w, u))
        - geo.quat_mul(w, geo.h0(v, u))
        - geo.quat_mul(u, geo.h0(v, w) - geo.h0(w, v))
    )


def lie_triple_closure_loop(W) -> bool:
    """Closure of a ``geometry.SubspaceSpan`` under the triple product,
    one triple at a time."""
    Q = W.orthonormal_flat()
    vecs = W.vectors
    for i, j, l in product(range(W.count), repeat=3):
        t = triple_product(vecs[i], vecs[j], vecs[l]).ravel()
        resid = t - Q @ (Q.T @ t)
        if np.linalg.norm(resid) > geo.SPAN_TOLERANCE * max(1.0, np.linalg.norm(t)):
            return False
    return True


def sectional_curvature(X, Y, c: float = 1.0) -> float:
    """K(X, Y) = -c (1 + 3 sum_q <X, Y q>^2) over q = i, j, k, for
    tangent vectors X, Y in H^m orthonormal for <,> = Re h0: the
    curvature tensor of quaternionic hyperbolic space whose curvatures
    span [-4c, -c]."""
    pairings = [float(geo.h0(X, geo.quat_mul(Y, q))[0]) for q in geo.QUAT_UNITS[1:]]
    return -c * (1.0 + 3.0 * sum(p * p for p in pairings))


def bracket_identity_dev_loop(m: int) -> float:
    """``geometry.bracket_identity_dev`` one bracket at a time: every
    index pattern of the four families and every unit pair, with each
    right-hand side built from its quaternion product."""
    X, Y, H = geo.X_element, geo.Y_element, geo.H_element
    units = geo.QUAT_UNITS
    pure_units = geo.QUAT_UNITS[1:]
    dev = 0.0
    for l1, l2 in product(range(1, m + 1), repeat=2):
        if l1 < l2:
            for a, b in product(units, repeat=2):
                lhs = geo.bracket(X(m, l1, a), X(m, l2, b))
                rhs = Y(m, l1, l2, geo.quat_mul(a, geo.quat_conj(b)))
                dev = max(dev, float(np.abs(lhs - rhs).max()))
                lhs = geo.bracket(X(m, l1, a), Y(m, l1, l2, b))
                rhs = X(m, l2, geo.quat_mul(geo.quat_conj(b), a))
                dev = max(dev, float(np.abs(lhs - rhs).max()))
        if l1 != l2:
            for a, b in product(units, pure_units):
                lhs = geo.bracket(X(m, l1, a), H(m, l2, b))
                dev = max(dev, float(np.abs(lhs).max()))
    for l2 in range(1, m + 1):
        for l3 in range(l2 + 1, m + 1):
            for l1 in range(1, m + 2):
                if l1 in (l2, l3):
                    continue
                for a, b in product(pure_units, units):
                    lhs = geo.bracket(H(m, l1, a), Y(m, l2, l3, b))
                    dev = max(dev, float(np.abs(lhs).max()))
    return dev
