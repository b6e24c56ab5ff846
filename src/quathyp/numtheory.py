"""Elementary integer number theory used by the exact arithmetic layer.

Everything here operates on plain Python integers.  The routines are the
classical ones: deterministic Miller-Rabin below 3.3 * 10**24 and the
Baillie-PSW test (Miller-Rabin plus a strong Lucas test) above it,
Pollard's rho with Brent's cycle search for splitting, Tonelli-Shanks for
square roots modulo an odd prime, and Hensel lifting for roots modulo
prime powers (2-adic Newton steps for p = 2).

Factoring is the one expensive primitive.  Its results are kept in a bounded
cache, so an integer that several layers ask about is factored once, and
each split runs under a step budget, so an integer with two large prime
factors fails with `FactoringBudgetError` instead of running for hours.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import count

from .errors import FactoringBudgetError

# Deterministic Miller-Rabin witnesses, valid for all n < _MR_BOUND
# (Sorenson & Webster); without 41, 318665857834031151167461 passes.
_MR_WITNESSES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)

# The least strong pseudoprime to all of _MR_WITNESSES; from here on a
# strong Lucas test follows Miller-Rabin (Baillie-PSW).
_MR_BOUND = 3317044064679887385961981

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

#: Iterations of x -> x^2 + c one Pollard-Brent split may take.  A prime
#: factor p is found after about sqrt(p) of them, so 2**22 covers factors
#: up to about 40 bits; two larger prime factors exhaust it in seconds.
FACTOR_STEP_BUDGET = 1 << 22

#: Iterations per gcd in Brent's search: the differences are multiplied
#: together modulo n and tested once per block.
_BRENT_BLOCK = 128


def is_prime(n: int) -> bool:
    """Primality: deterministic below `_MR_BOUND`, Baillie-PSW above it.

    No composite is known to pass Baillie-PSW, and none exists below
    2**64 (the bound here is above 2**81).
    """
    if n < 2:
        return False
    for p in _SMALL_PRIMES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_WITNESSES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return n < _MR_BOUND or _strong_lucas_probable_prime(n)


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a|n) for odd n > 0."""
    a %= n
    out = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                out = -out
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            out = -out
        a %= n
    return out if n == 1 else 0


def _strong_lucas_probable_prime(n: int) -> bool:
    """Strong Lucas probable-prime test of an odd n > 47 with Selfridge's
    parameters: D is the first of 5, -7, 9, -11, ... with (D|n) = -1,
    P = 1 and Q = (1 - D)/4.  Writing n + 1 = d * 2**s, n passes when
    U_d = 0 or V_(d 2**r) = 0 (mod n) for some 0 <= r < s (Baillie and
    Wagstaff, "Lucas pseudoprimes", Math. Comp. 35, 1980).
    """
    if math.isqrt(n) ** 2 == n:
        return False  # no D with (D|n) = -1 exists
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0:
            return False  # |D| < n shares a factor with n
        D = -D - 2 if D > 0 else -D + 2
    P, Q = 1, (1 - D) // 4
    d, s = n + 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    half = (n + 1) // 2  # the inverse of 2 mod n
    U, V, Qk = 0, 2, 1  # U_k, V_k and Q^k mod n, from k = 0
    for bit in bin(d)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n  # k -> 2k
        if bit == "1":  # k -> k + 1
            U, V = (P * U + V) * half % n, (D * U + P * V) * half % n
            Qk = Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


def _pollard_brent(n: int) -> int:
    """A nontrivial factor of an odd composite n that is not a square.

    Pollard's rho with Brent's cycle search (R. P. Brent, "An improved
    Monte Carlo factorization algorithm", BIT 20, 1980): y runs ahead of
    a saved x in stretches of doubling length, and the product of the
    differences x - y is tested by one gcd per block of `_BRENT_BLOCK`
    steps.  When a block's gcd is n, its steps are retraced one gcd at a
    time.  Raises `FactoringBudgetError` after `FACTOR_STEP_BUDGET` steps.
    """
    budget = FACTOR_STEP_BUDGET
    steps = 0
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            steps += 2 * r
            if steps > budget:
                raise FactoringBudgetError(
                    f"could not split a {n.bit_length()}-bit integer within "
                    f"{budget} Pollard-Brent steps"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                block = min(_BRENT_BLOCK, r - k)
                for _ in range(block):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += block
            r *= 2
        if g == n:
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def factor(n: int) -> dict[int, int]:
    """Prime factorization of |n| as {prime: exponent}; ignores the sign.

    factor(0) and factor(+-1) return {}.  Each call returns a fresh dict
    built from the cached factorization, so callers may mutate it.
    """
    return dict(_factor(abs(n)))


@lru_cache(maxsize=256)
def _factor(n: int) -> tuple[tuple[int, int], ...]:
    """The factorization of n >= 0 as sorted (prime, exponent) pairs."""
    if n <= 1:
        return ()
    out: dict[int, int] = {}
    for p in _SMALL_PRIMES:
        while n % p == 0:
            out[p] = out.get(p, 0) + 1
            n //= p
    stack = [n] if n > 1 else []
    while stack:
        m = stack.pop()
        if is_prime(m):
            out[m] = out.get(m, 0) + 1
            continue
        root = math.isqrt(m)
        if root * root == m:
            stack.extend([root, root])
            continue
        d = _pollard_brent(m)
        stack.extend([d, m // d])
    return tuple(sorted(out.items()))


def factors_without_splitting(n: int) -> bool:
    """Whether `factor(n)` needs no Pollard-Brent split: |n| is a product
    of primes below 50 and at most one larger prime."""
    n = abs(n)
    for p in _SMALL_PRIMES:
        while n % p == 0:
            n //= p
    return n == 1 or is_prime(n)


def squarefree_part(n: int) -> int:
    """The squarefree integer s with n = s * t**2 (sign preserved)."""
    if n == 0:
        return 0
    s = -1 if n < 0 else 1
    for p, e in factor(n).items():
        if e % 2:
            s *= p
    return s


def is_square_int(n: int) -> bool:
    return n >= 0 and math.isqrt(n) ** 2 == n


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a|p) in {-1, 0, +1} for an odd prime p."""
    a %= p
    if a == 0:
        return 0
    r = pow(a, (p - 1) // 2, p)
    return 1 if r == 1 else -1


def val(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def sqrt_mod_prime(a: int, p: int) -> int:
    """A square root of a modulo an odd prime p (Tonelli-Shanks).

    Requires a to be a quadratic residue; raises ValueError otherwise.
    """
    a %= p
    if a == 0:
        return 0
    if legendre(a, p) != 1:
        raise ValueError(f"{a} is not a residue mod {p}")
    if p % 4 == 3:
        return pow(a, (p + 1) // 4, p)
    # write p - 1 = q * 2^s with q odd
    q, s = p - 1, 0
    while q % 2 == 0:
        q //= 2
        s += 1
    z = 2
    while legendre(z, p) != -1:
        z += 1
    m, c, t, r = s, pow(z, q, p), pow(a, q, p), pow(a, (q + 1) // 2, p)
    while t != 1:
        t2, i = t * t % p, 1
        while t2 != 1:
            t2 = t2 * t2 % p
            i += 1
        b = pow(c, 1 << (m - i - 1), p)
        m, c = i, b * b % p
        t, r = t * c % p, r * b % p
    return r


@lru_cache(maxsize=1024)
def sqrt_mod_prime_power(a: int, p: int, k: int) -> int:
    """A square root of a modulo p**k, labeled deterministically.

    p odd, a a unit residue mod p: the Hensel lift of the smaller root
    min(r, p - r) mod p.  p = 2, a = 1 mod 8: the 2-adic square root that
    is 1 mod 4, reduced mod 2**k.  The label fixes which root is which
    (and hence which of the two places over a split prime is which).
    """
    if p == 2:
        if a % 8 != 1:
            raise ValueError(f"{a} is not 1 mod 8")
        # r^2 = a mod 2^j pins r mod 2^(j-1); a Newton step takes j to 2j - 2
        r, j = 1, 3
        while j <= k:
            j = 2 * j - 2
            r = (r - (r * r - a) // 2 * pow(r, -1, 1 << j)) % (1 << (j - 1))
        return r % (1 << k)
    r = sqrt_mod_prime(a % p, p)
    r = min(r, p - r)
    mod = p
    while mod < p ** k:
        mod = min(mod * mod, p ** k)
        # Newton step: r <- r - (r^2 - a) / (2r)
        r = (r - (r * r - a) * pow(2 * r, -1, mod)) % mod
    return r % p ** k
