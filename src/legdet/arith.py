"""Primality testing, prime enumeration, the modular primes and the Legendre symbol."""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DiscrepancyError

# Deterministic witness set, valid for every n < 4_759_123_141 > 2**32.
_MR_WITNESSES = (2, 7, 61)
_LIMIT = 1 << 32
_SMALL = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < 2**32."""
    if not 0 <= n < _LIMIT:
        raise ValueError(f"primality test supports 0 <= n < 2**32, got {n}")
    if n < 2:
        return False
    for q in _SMALL:
        if n % q == 0:
            return n == q
    d = n - 1
    r = 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue  # witness is a multiple of n; says nothing
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class OddPrime:
    """A validated odd prime p, carrying n = (p - 1) // 2."""

    p: int
    n: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.p < 3 or self.p % 2 == 0 or not is_prime(self.p):
            raise ValueError(f"{self.p} is not an odd prime below 2**32")
        object.__setattr__(self, "n", (self.p - 1) // 2)

    def __str__(self) -> str:
        return str(self.p)


def legendre(a: int, p: OddPrime) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1}, by Euler's criterion
    a^((p-1)/2) = (a/p) (mod p), with p - 1 read as -1."""
    r = pow(a % p.p, p.n, p.p)
    return -1 if r == p.p - 1 else r


def _half_squares(p: OddPrime) -> np.ndarray:
    """k^2 mod p for k = 1..n, as int64.

    These are the n nonzero residues, each once (k and p - k share a
    square), so each residue a <= n appears exactly once.  It is the one
    routine for k^2 mod p: `legendre_array` scatters on it, the class
    numbers keep its values <= n, and the square sums and the split-prime
    products of `lemma32_check` and `mtilde_det_check` read it.  The remainder
    is k^2 - (k^2 // p)*p: numpy floor-divides by a scalar in vectorised
    form but takes % element by element (k^2 < 2**62 since p < 2**32)."""
    k = np.arange(1, p.n + 1, dtype=np.int64)
    k *= k
    k -= k // p.p * p.p
    return k


def legendre_array(p: OddPrime) -> np.ndarray:
    """The quadratic character as an int64 array chi with chi[a] = (a/p),
    0 <= a < p, scattered on the squares `_half_squares(p)`.

    It is the one table of the character.  The `IntMatrix` builders index
    it and take Python ints through `tolist`; the Toeplitz symbols of
    `det_cp`, `det_ep`, `det_mp` and `mtilde_det`, the structure of C_p^2
    in `charpoly_cp`, the Gauss sum tau and its square, `ztau_text`, the
    square-sum check, the split-prime embeddings of `cyclotomic` and the
    `vsemirnov` diagnostic read it as it is.  numpy's negative indexing
    wraps mod p, so chi[-k] = (-k/p) for 0 < k < p.  The class numbers
    build no table: they keep the squares <= n.  `legendre` serves single
    symbols."""
    chi = np.full(p.p, -1, dtype=np.int64)
    chi[0] = 0
    chi[_half_squares(p)] = 1
    return chi


# Every modular route (integer lanes, Z[tau], split primes) works modulo primes
# below 2^30: a sum of three products of residues stays below 2^62 in int64,
# and CPython's three-argument pow, which is_prime and the roots of unity
# take, runs about 2.5x faster on one-digit ints than on 31 bits.
_MODULAR_PRIME_LIMIT = 1 << 30
# One numpy remainder by the odd primes below 100 drops most composite
# candidates before is_prime, and its three pows, sees them.
_SIEVE = np.array([q for q in range(3, 100, 2) if is_prime(q)])[:, None]


def _modular_primes(s: int):
    """The primes q = ks + 1 between 100 and 2^30 with k even, descending:
    the primes q = 1 (mod 2s), every odd prime for s = 1.  Candidates are
    sieved 64 at a time."""
    top = (_MODULAR_PRIME_LIMIT - 2) // s
    for k in range(top - top % 2, 0, -128):
        candidates = (k - np.arange(0, min(128, k), 2)) * s + 1
        for q in candidates[(candidates % _SIEVE).all(axis=0)].tolist():
            if is_prime(q):
                yield q


def _take_primes(primes, bound: int, message: str, kept=()) -> list:
    """kept, then primes taken in order from the iterator primes, until
    their product exceeds bound; DiscrepancyError(message) when primes runs
    out first."""
    chosen = list(kept)
    product = math.prod(chosen)
    while product <= bound:
        q = next(primes, None)
        if q is None:
            raise DiscrepancyError(message)
        chosen.append(q)
        product *= q
    return chosen


def primes_in_range(lo: int, hi: int) -> list[OddPrime]:
    """All odd primes p with lo <= p <= hi, ascending."""
    if lo > hi:
        raise ValueError(f"range is reversed: lo={lo} > hi={hi}")
    if lo < 3 or hi >= _LIMIT:
        raise ValueError("supported range is 3 <= lo <= hi < 2**32")
    start = lo if lo % 2 == 1 else lo + 1
    return [OddPrime(k) for k in range(start, hi + 1, 2) if is_prime(k)]
