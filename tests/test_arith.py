import random

import pytest

from legdet.arith import OddPrime, is_prime, legendre, legendre_table, primes_in_range


def sieve(limit):
    """Independent primality oracle."""
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for k in range(2, int(limit ** 0.5) + 1):
        if flags[k]:
            for m in range(k * k, limit + 1, k):
                flags[m] = False
    return flags


def euler_symbol(a, p):
    """Independent Legendre oracle: a^((p-1)/2) mod p."""
    r = pow(a % p, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def test_is_prime_matches_sieve():
    flags = sieve(5000)
    for n in range(5000):
        assert is_prime(n) == flags[n], n


def test_is_prime_carmichael_and_large():
    for n in (561, 1105, 1729, 2465, 6601, 8911):
        assert not is_prime(n)
    assert is_prime(2147483647)
    assert is_prime(4294967291)


def test_is_prime_bounds():
    with pytest.raises(ValueError):
        is_prime(1 << 32)
    with pytest.raises(ValueError):
        is_prime(-1)


def test_odd_prime_validation():
    assert OddPrime(7).n == 3
    assert OddPrime(3).n == 1
    for bad in (1, 2, 9, 15, 561):
        with pytest.raises(ValueError):
            OddPrime(bad)


def test_legendre_frozen_values():
    assert legendre(0, OddPrime(5)) == 0
    assert legendre(1, OddPrime(7)) == 1
    assert legendre(3, OddPrime(7)) == -1
    assert legendre(2, OddPrime(7)) == 1
    assert legendre(-1, OddPrime(5)) == 1
    assert legendre(-1, OddPrime(7)) == -1
    assert legendre(10, OddPrime(5)) == 0


def test_legendre_against_euler_criterion():
    for q in primes_in_range(3, 200):
        for a in range(q.p):
            assert legendre(a, q) == euler_symbol(a, q.p), (a, q.p)


def test_legendre_multiplicative():
    rng = random.Random(1)
    for _ in range(300):
        q = OddPrime(rng.choice([3, 5, 7, 11, 13, 101, 997]))
        a, b = rng.randint(-500, 500), rng.randint(-500, 500)
        assert legendre(a * b, q) == legendre(a, q) * legendre(b, q)


def test_legendre_supplement_laws():
    # (-1/p) = (-1)^((p-1)/2) and (2/p) = (-1)^((p^2-1)/8)
    for q in primes_in_range(3, 1000):
        assert legendre(-1, q) == (-1) ** ((q.p - 1) // 2)
        assert legendre(2, q) == (-1) ** ((q.p * q.p - 1) // 8)


def test_legendre_sums_to_zero():
    for q in primes_in_range(3, 1000):
        assert sum(legendre(a, q) for a in range(q.p)) == 0


def test_legendre_table_matches_jacobi():
    for q in primes_in_range(3, 1999):
        chi = legendre_table(q)
        assert len(chi) == q.p
        assert chi == [legendre(a, q) for a in range(q.p)], q.p
        # the builders index chi[j - i]; negative indices wrap mod p
        assert [chi[-k] for k in range(1, q.p)] == [
            legendre(-k, q) for k in range(1, q.p)
        ], q.p


def test_primes_in_range_frozen():
    assert [q.p for q in primes_in_range(3, 12)] == [3, 5, 7, 11]
    assert [q.p for q in primes_in_range(5, 5)] == [5]
    assert primes_in_range(14, 16) == []
    assert [q.p for q in primes_in_range(4, 10)] == [5, 7]


def test_primes_in_range_errors():
    with pytest.raises(ValueError):
        primes_in_range(10, 5)
    with pytest.raises(ValueError):
        primes_in_range(2, 10)
    with pytest.raises(ValueError):
        primes_in_range(3, 1 << 32)
