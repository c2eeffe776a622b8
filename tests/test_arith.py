import itertools
import math
import random

import numpy as np
import pytest

from legdet import arith, cyclotomic, exactlinalg
from legdet.arith import (
    OddPrime,
    _modular_primes,
    _take_primes,
    is_prime,
    legendre,
    legendre_array,
    legendre_table,
    primes_in_range,
)
from legdet.cyclotomic import build_mtilde, lemma32_check, mtilde_det_check
from legdet.errors import DiscrepancyError
from legdet.exactlinalg import toeplitz_det_mod
from legdet.quadfield import ClassNumberReport


def sieve(limit):
    """Independent primality oracle."""
    flags = [True] * (limit + 1)
    flags[0] = flags[1] = False
    for k in range(2, int(limit ** 0.5) + 1):
        if flags[k]:
            for m in range(k * k, limit + 1, k):
                flags[m] = False
    return flags


def test_split_primes_match_a_brute_force_walk():
    # the primes q = kp + 1 below 2^30 with k even, descending
    for p in (3, 5, 13, 449):
        top = ((1 << 30) - 2) // p
        walk = (k * p + 1 for k in range(top - top % 2, 0, -2) if is_prime(k * p + 1))
        assert list(itertools.islice(_modular_primes(p), 40)) == list(itertools.islice(walk, 40)), p


def test_modular_primes_run_to_the_sieve(monkeypatch):
    # below a limit of 1000 the whole stream is every prime q = 1 (mod 2s)
    # above the sieve's primes, none skipped at either end
    monkeypatch.setattr(arith, "_MODULAR_PRIME_LIMIT", 1000)
    flags = sieve(1000)
    for s in (1, 2, 3, 5, 7, 13, 449):
        assert list(_modular_primes(s)) == [q for q in range(999, 100, -1)
                                            if flags[q] and q % (2 * s) == 1], s


def test_take_primes_stops_just_past_the_bound():
    rng = random.Random(31)
    for _ in range(300):
        bound = rng.randrange(1, 1 << rng.randrange(1, 400))
        chosen = _take_primes(_modular_primes(1), bound, "unused")
        assert math.prod(chosen[:-1]) <= bound < math.prod(chosen)


def test_take_primes_refills_after_the_survivors():
    stream = iter([11, 13, 17, 19])
    assert _take_primes(stream, 1000, "unused", [5, 7]) == [5, 7, 11, 13]
    assert next(stream) == 17
    # survivors already past the bound draw nothing
    assert _take_primes(stream, 100, "unused", (7, 19)) == [7, 19]
    assert next(stream) == 19


def test_take_primes_raises_each_callers_message(monkeypatch):
    with pytest.raises(DiscrepancyError, match="^too few$"):
        _take_primes(iter([3, 5]), 15, "too few")
    # the lanes' message: [[0, 1], [1, 0]] has H = 3, and 5 is not past 6;
    # 7 is, but leaves no spare prime
    for primes in ([5], [7]):
        monkeypatch.setattr(exactlinalg, "_lane_primes", lambda: iter(primes))
        with pytest.raises(DiscrepancyError, match="^lane primes ran out below the CRT bound$"):
            toeplitz_det_mod(np.array([1, 0, 1]))
    monkeypatch.undo()
    # the split primes' message, naming p
    monkeypatch.setattr(cyclotomic, "_modular_primes", lambda s: iter([]))
    q = OddPrime(23)
    h23 = ClassNumberReport(3, {}, None)
    for check in (lambda: lemma32_check(q, h23), lambda: mtilde_det_check(build_mtilde(q))):
        with pytest.raises(DiscrepancyError, match=r"^primes q = 1 \(mod 23\) ran out "
                                                   r"below the embedding bound at p=23$"):
            check()


def jacobi(a, n):
    """Independent Legendre oracle: the binary Jacobi algorithm by quadratic
    reciprocity, for 0 <= a < n, n odd; for prime n it is (a/n)."""
    if a == 0:
        return 0
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


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


def test_legendre_against_the_squares():
    # Euler's criterion against the definition: a is a residue when it is
    # some k^2 mod p, found by squaring every k; a runs over three periods
    for q in primes_in_range(3, 200):
        squares = {k * k % q.p for k in range(1, q.p)}
        for a in range(-q.p, 2 * q.p):
            expected = 0 if a % q.p == 0 else 1 if a % q.p in squares else -1
            assert legendre(a, q) == expected, (a, q.p)


def test_legendre_against_jacobi():
    # Euler's criterion against reciprocity: every residue below 2000, and a
    # seeded sample at the two largest primes below 2^32
    for q in primes_in_range(3, 1999):
        assert [legendre(a, q) for a in range(q.p)] == [jacobi(a, q.p) for a in range(q.p)]
    rng = random.Random(31)
    for p in (4294967291, 4294967279):
        q = OddPrime(p)
        for a in [rng.randrange(p) for _ in range(2000)] + [0, 1, 2, p - 1]:
            assert legendre(a, q) == jacobi(a, p), (a, p)


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


def test_legendre_table_entries_are_python_ints():
    # Bareiss on the IntMatrix builders and ztau_text multiply table
    # entries; an int64 would wrap silently
    for q in primes_in_range(3, 400) + [OddPrime(10007)]:
        chi = legendre_table(q)
        assert type(chi) is list
        assert all(type(x) is int for x in chi), q.p
        assert chi == legendre_array(q).tolist()
    big = 1 << 80
    assert legendre_table(OddPrime(7))[1] * big == big


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
