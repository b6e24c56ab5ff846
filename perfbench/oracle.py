"""Independent arithmetic used to build and check the benchmark's inputs.

Nothing here imports quathyp.  Elements of Q(sqrt(d)) are pairs
(a0, a1) of Fractions standing for a0 + a1*sqrt(d); d is None for Q.
Real signs are exact comparisons, local squares at odd primes are read
off p-adic images, and Hilbert symbols over Q use the textbook formulas
(Serre, *A Course in Arithmetic*, Ch. III) on factorizations by trial
division, or by sympy from 2**32 up.  sympy is imported only then, so the
workers that time the program never load it.
"""

from __future__ import annotations

import math
from fractions import Fraction


def sign(x, d, embedding: int = 0) -> int:
    """Exact sign of x under the real embedding sqrt(d) -> (-1)**embedding*sqrt(d)."""
    a0, a1 = Fraction(x[0]), Fraction(x[1])
    if d is None or a1 == 0:
        return (a0 > 0) - (a0 < 0)
    if embedding:
        a1 = -a1
    if a0 == 0 or (a0 > 0) == (a1 > 0):
        return 1 if (a0 > 0 or (a0 == 0 and a1 > 0)) else -1
    big0 = a0 * a0 > a1 * a1 * d
    return (1 if a0 > 0 else -1) if big0 else (1 if a1 > 0 else -1)


def signs(x, d) -> tuple[int, ...]:
    """Signs at every real place: one over Q, two over Q(sqrt(d))."""
    return (sign(x, d, 0),) if d is None else (sign(x, d, 0), sign(x, d, 1))


def signature(coeffs, d, embedding: int) -> tuple[int, int]:
    s = [sign(c, d, embedding) for c in coeffs]
    return s.count(1), s.count(-1)


def mul(x, y, d):
    d = 0 if d is None else d
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])


def conj(x):
    return (x[0], -x[1])


def is_rational_square(q: Fraction) -> bool:
    q = Fraction(q)
    if q < 0:
        return False
    n, m = q.numerator, q.denominator
    return math.isqrt(n) ** 2 == n and math.isqrt(m) ** 2 == m


def is_global_square(x, d) -> bool:
    """x = y^2 in the field, by solving for the coordinates of y."""
    a0, a1 = Fraction(x[0]), Fraction(x[1])
    if d is None or a1 == 0:
        return is_rational_square(a0) or (d is not None and is_rational_square(a0 * d))
    # (y0 + y1 r)^2 = a0 + a1 r gives y0^2 + d y1^2 = a0 and 2 y0 y1 = a1;
    # so y0^2 is a root of t^2 - a0 t + d a1^2 / 4.
    disc = a0 * a0 - d * a1 * a1
    if not is_rational_square(disc):
        return False
    s = Fraction(math.isqrt(disc.numerator), math.isqrt(disc.denominator))
    return any(t > 0 and is_rational_square(t) for t in ((a0 + s) / 2, (a0 - s) / 2))


# ---------------------------------------------------------------------------
# p-adic squares


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def qp_is_square(q: Fraction, p: int) -> bool:
    """Square test in Q_p: even valuation and a unit that is a quadratic
    residue mod p (Euler's criterion), or 1 mod 8 when p = 2."""
    q = Fraction(q)
    v = _vp(q.numerator, p) - _vp(q.denominator, p)
    if v % 2:
        return False
    modulus = 8 if p == 2 else p
    u = (q.numerator // p ** _vp(q.numerator, p)) * pow(
        q.denominator // p ** _vp(q.denominator, p), -1, modulus
    )
    if p == 2:
        return u % 8 == 1
    return pow(u % p, (p - 1) // 2, p) == 1


def sqrt_d_mod(d: int, p: int, k: int) -> tuple[int, int]:
    """Both square roots of d modulo p**k, for an odd prime p with
    (d|p) = 1, by exhaustive search mod p and digit-by-digit lifting."""
    roots = [r for r in range(1, p) if (r * r - d) % p == 0]
    out = []
    for r in roots:
        mod = p
        for _ in range(k - 1):
            nxt = mod * p
            r = next(
                r + t * mod for t in range(p) if ((r + t * mod) ** 2 - d) % nxt == 0
            )
            mod = nxt
        out.append(r)
    return tuple(out)


def split_place_squares(x, d: int, p: int) -> tuple[bool, bool]:
    """Square tests of x at the two places over an odd split prime p:
    the images of x in Q_p under sqrt(d) -> r and sqrt(d) -> -r."""
    a0, a1 = Fraction(x[0]), Fraction(x[1])
    den = a0.denominator * a1.denominator
    A0, A1 = int(a0 * den), int(a1 * den)
    k = _vp(abs(A0 * A0 - d * A1 * A1), p) + 3
    out = []
    for r in sqrt_d_mod(d, p, k):
        t = (A0 + A1 * r) % p**k
        out.append(qp_is_square(Fraction(t, den), p))
    return out[0], out[1]


def legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# ---------------------------------------------------------------------------
# Hilbert symbols and ramification over Q


def factorint(n: int) -> dict[int, int]:
    """Factorization of |n|: trial division below 2**32, sympy above."""
    n = abs(n)
    if n >= 2**32:
        import sympy

        return sympy.factorint(n)
    out: dict[int, int] = {}
    p = 2
    while p * p <= n:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
        p += 1 if p == 2 else 2
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def hilbert_q(a: Fraction, b: Fraction, p) -> int:
    """(a, b)_p over Q; p is a prime or "inf" (Serre III.1, Thm. 1)."""
    a, b = Fraction(a), Fraction(b)
    if p == "inf":
        return -1 if a < 0 and b < 0 else 1
    # work with integers in the same square classes
    a = a.numerator * a.denominator
    b = b.numerator * b.denominator
    alpha, beta = _vp(abs(a), p), _vp(abs(b), p)
    u, v = a // p**alpha, b // p**beta
    if p == 2:
        eps = lambda t: ((t - 1) // 2) % 2
        omg = lambda t: ((t * t - 1) // 8) % 2
        e = eps(u) * eps(v) + alpha * omg(v) + beta * omg(u)
        return -1 if e % 2 else 1
    sym = 1
    if alpha % 2 and beta % 2 and p % 4 == 3:
        sym = -sym
    if beta % 2:
        sym *= legendre(u, p)
    if alpha % 2:
        sym *= legendre(v, p)
    return sym


def primes_of(*xs) -> set[int]:
    out: set[int] = {2}
    for x in xs:
        x = Fraction(x)
        out |= set(factorint(x.numerator)) | set(factorint(x.denominator))
    out.discard(1)
    return out


def ramification_q(a, b) -> set:
    """Ramification set over Q of (a, b), as {"inf", p, ...}."""
    places = {"inf"} | primes_of(a, b)
    return {p for p in places if hilbert_q(a, b, p) == -1}


def split_kind(p: int, d: int) -> str:
    """How the rational prime p behaves in Q(sqrt(d))."""
    if p == 2:
        return "split" if d % 8 == 1 else ("inert" if d % 8 == 5 else "ramified")
    if d % p == 0:
        return "ramified"
    return "split" if legendre(d, p) == 1 else "inert"


def base_change_ramification(ram_q: set, d) -> frozenset:
    """Ramification of B (x) Q(sqrt(d)) from that of B over Q.

    A local algebra of degree-2 extension splits; so a place over p is
    ramified exactly when p is ramified in B and splits in the field (local
    degree 1).  Both real places lie over a ramified infinity.  Places
    are named as in the quathyp CLI: inf_0, inf_1, p#1, p#2.
    """
    if d is None:
        return frozenset(str(p) for p in ram_q)
    out = set()
    for p in ram_q:
        if p == "inf":
            out |= {"inf_0", "inf_1"}
        elif split_kind(p, d) == "split":
            out |= {f"{p}#1", f"{p}#2"}
    return frozenset(out)


def squarefree_class(q: Fraction) -> int:
    """The squarefree integer in the square class of a nonzero rational."""
    q = Fraction(q)
    n = q.numerator * q.denominator
    out = -1 if n < 0 else 1
    for p, e in factorint(n).items():
        if e % 2:
            out *= p
    return out


def hasse_q(coeffs, p) -> int:
    out = 1
    for i in range(len(coeffs)):
        for j in range(i + 1, len(coeffs)):
            out *= hilbert_q(coeffs[i], coeffs[j], p)
    return out


def forms_isometric_q(c1, c2) -> bool:
    """Hasse-Minkowski over Q: dimension, discriminant, signature and
    Hasse invariant at every prime."""
    if len(c1) != len(c2):
        return False
    det1, det2 = Fraction(1), Fraction(1)
    for c in c1:
        det1 *= c
    for c in c2:
        det2 *= c
    if squarefree_class(det1) != squarefree_class(det2):
        return False
    if sum(1 for c in c1 if c > 0) != sum(1 for c in c2 if c > 0):
        return False
    return all(hasse_q(c1, p) == hasse_q(c2, p) for p in primes_of(*c1, *c2))


def sum_of_two_squares(n: int) -> bool:
    """Whether a positive integer is a sum of two squares (Fermat)."""
    return all(e % 2 == 0 for p, e in factorint(n).items() if p % 4 == 3)
