"""Factoring, primality, the factoring budget and 2-adic square roots, checked against sympy."""

import random

import pytest
import sympy

from quathyp import numtheory
from quathyp.errors import FactoringBudgetError, QuathypError
from quathyp.numtheory import factor, is_prime, sqrt_mod_prime_power

SMALL_PRIMES = [2, 3, 5, 7, 11, 13, 47, 53, 97, 65537]


def random_prime(rng, bits):
    return sympy.nextprime(rng.getrandbits(bits) | (1 << (bits - 1)))


def two_large_primes(bits=24):
    """A product of two distinct primes of about `bits` bits each: Brent's
    search needs about 2**(bits / 2) steps to split it."""
    rng = random.Random(f"budget:{bits}")
    p = random_prime(rng, bits)
    q = sympy.nextprime(p + rng.getrandbits(bits - 2))
    return p * q


@pytest.fixture
def cold_cache():
    """Each test that needs a factorization computed, not looked up,
    starts and ends with an empty cache."""
    numtheory._factor.cache_clear()
    yield
    numtheory._factor.cache_clear()


class TestFactor:
    @pytest.mark.parametrize("n", [0, 1, -1])
    def test_units_and_zero(self, n):
        assert factor(n) == {}

    def test_small_primes_and_prime_powers(self):
        for p in SMALL_PRIMES:
            assert factor(p) == {p: 1}
            for e in (2, 3, 5):
                assert factor(p**e) == sympy.factorint(p**e)

    def test_negative_inputs_ignore_the_sign(self):
        rng = random.Random("negative")
        for _ in range(50):
            n = rng.randrange(2, 1 << 40)
            assert factor(-n) == factor(n) == sympy.factorint(n)

    def test_squares_of_semiprimes(self):
        rng = random.Random("squares")
        for bits in (8, 16, 24):
            p, q = random_prime(rng, bits), random_prime(rng, bits + 3)
            for n in (p * q, (p * q) ** 2, p**2 * q, p**3 * q**2):
                assert factor(n) == sympy.factorint(n)

    def test_seeded_random_integers(self):
        rng = random.Random("random-integers")
        for bits in (8, 16, 32, 48, 64):
            for _ in range(40):
                n = rng.getrandbits(bits) or 1
                assert factor(n) == sympy.factorint(n), n

    def test_catalogue_scale_semiprimes(self, cold_cache):
        """A 20-28-bit prime times a 31-32-bit prime times a small prime,
        and its square: the shape of the catalogue algebra parameters, up
        to about 137 bits."""
        rng = random.Random("catalogue-scale")
        for bits in (20, 22, 24, 26, 28):
            second = random_prime(rng, bits)
            largest = random_prime(rng, rng.choice((31, 32)))
            n = rng.choice(SMALL_PRIMES[1:6]) * second * largest
            for m in (n, n * n):
                assert factor(m) == sympy.factorint(m), m
                assert factor(-m) == factor(m)

    def test_callers_own_the_returned_dict(self):
        n = 2**3 * 3 * 1000003
        first = factor(n)
        first[2] = 99
        first[7] = 1
        del first[3]
        assert factor(n) == {2: 3, 3: 1, 1000003: 1}
        assert factor(n) is not factor(n)

    def test_cache_is_bounded(self, cold_cache):
        maxsize = numtheory._factor.cache_info().maxsize
        assert maxsize is not None
        for n in range(10**6, 10**6 + maxsize + 50):
            factor(n)
        assert numtheory._factor.cache_info().currsize <= maxsize
        assert sqrt_mod_prime_power.cache_info().maxsize is not None

    def test_repeats_are_cache_hits(self, cold_cache):
        n = two_large_primes()
        factor(n)
        factor(-n)
        info = numtheory._factor.cache_info()
        assert (info.misses, info.hits) == (1, 1)


class TestBudget:
    def test_exhausted_budget_raises_a_typed_error(self, cold_cache, monkeypatch):
        n = two_large_primes()
        monkeypatch.setattr(numtheory, "FACTOR_STEP_BUDGET", 64)
        with pytest.raises(FactoringBudgetError, match="Pollard-Brent") as info:
            factor(n)
        assert isinstance(info.value, QuathypError)
        assert f"{n.bit_length()}-bit" in str(info.value)

    def test_failures_are_not_cached(self, cold_cache, monkeypatch):
        n = two_large_primes()
        monkeypatch.setattr(numtheory, "FACTOR_STEP_BUDGET", 64)
        with pytest.raises(FactoringBudgetError):
            factor(n)
        monkeypatch.undo()
        assert factor(n) == sympy.factorint(n)

    def test_small_factors_need_no_budget(self, cold_cache, monkeypatch):
        """Trial division, prime powers and primes spend no Brent steps."""
        monkeypatch.setattr(numtheory, "FACTOR_STEP_BUDGET", 0)
        for n in (2**10 * 3**4 * 47, -(43**5), 1000003**2, 2**61 - 1):
            assert factor(n) == sympy.factorint(abs(n))


class TestIsPrime:
    def test_matches_sympy_on_a_seeded_sample(self):
        rng = random.Random("is-prime")
        sample = list(range(-5, 2000))
        sample += [rng.getrandbits(bits) for bits in (16, 32, 64, 80) for _ in range(100)]
        sample += [random_prime(rng, bits) for bits in (20, 32, 64, 80)]
        for n in sample:
            assert is_prime(n) == sympy.isprime(n), n

    def test_strong_pseudoprimes(self):
        # Carmichael numbers, and the smallest strong pseudoprimes to the
        # first 4, 9 and 12 prime bases (the last one passes every base up
        # to 37, so it needs the thirteenth witness, 41)
        pseudoprimes = (3215031751, 3825123056546413051, 318665857834031151167461)
        for n in (561, 1105, 1729, 2047, *pseudoprimes):
            assert not is_prime(n)
            assert not sympy.isprime(n)

    def test_pseudoprime_to_every_witness_is_split(self, cold_cache):
        # the least strong pseudoprime to all thirteen bases 2..41: only
        # the strong Lucas test above the deterministic range rejects it
        n = 3317044064679887385961981
        assert not is_prime(n)
        assert factor(n) == {1287836182261: 1, 2575672364521: 1}

    def test_matches_sympy_above_the_deterministic_range(self):
        rng = random.Random("baillie-psw")
        sample = []
        for _ in range(60):
            bits = rng.randint(80, 140)
            n = rng.getrandbits(bits) | (1 << (bits - 1))
            p = sympy.nextprime(n)
            sample += [n, p, p * random_prime(rng, 40), p * p]
        for n in sample:
            assert is_prime(n) == sympy.isprime(n), n

    def test_strong_lucas_matches_sympy(self):
        # every odd n in the range, composites included: the deterministic
        # range never reaches the Lucas test, so it is checked directly
        from sympy.ntheory.primetest import is_strong_lucas_prp

        for n in range(49, 30000, 2):
            assert numtheory._strong_lucas_probable_prime(n) == is_strong_lucas_prp(n), n


class TestSquareRootModPrimePower:
    def test_two_adic_root_is_one_mod_four(self):
        """p = 2, a = 1 mod 8: the root mod 2^k is the one of sympy's
        roots mod 2^(k+1) that is 1 mod 4, reduced mod 2^k."""
        for a in (1, 9, 17, 33, 41, -7, -15, 2**61 + 1, 12345 * 8 + 1):
            for k in (1, 2, 3, 4, 5, 8, 13, 40):
                roots = sympy.sqrt_mod(a, 2 ** (k + 1), all_roots=True)
                expected = next(r for r in roots if r % 4 == 1) % 2**k
                assert sqrt_mod_prime_power(a, 2, k) == expected, (a, k)
        with pytest.raises(ValueError):
            sqrt_mod_prime_power(5, 2, 6)
