"""Primality testing, prime enumeration and the Legendre symbol."""
from __future__ import annotations

from dataclasses import dataclass, field

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
    """Legendre symbol (a/p) in {-1, 0, 1}.

    Binary Jacobi algorithm via quadratic reciprocity; the argument is
    reduced mod p first, so only the residue class of a matters.
    """
    return _jacobi(a % p.p, p.p)


def legendre_table(p: OddPrime) -> list[int]:
    """The quadratic character as a list chi with chi[a] = (a/p), 0 <= a < p.

    Built from the squares k^2 mod p, k = 1..n, which are exactly the n
    nonzero residues.  Python's negative indexing wraps mod p, so
    chi[-k] = (-k/p) for 0 < k < p.  Sweeps over a residue range read this
    table; `legendre` serves single symbols.
    """
    chi = [-1] * p.p
    chi[0] = 0
    for k in range(1, p.n + 1):
        chi[k * k % p.p] = 1
    return chi


def _jacobi(a: int, n: int) -> int:
    # requires 0 <= a < n, n odd; for prime n this is the Legendre symbol
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


def primes_in_range(lo: int, hi: int) -> list[OddPrime]:
    """All odd primes p with lo <= p <= hi, ascending."""
    if lo > hi:
        raise ValueError(f"range is reversed: lo={lo} > hi={hi}")
    if lo < 3 or hi >= _LIMIT:
        raise ValueError("supported range is 3 <= lo <= hi < 2**32")
    start = lo if lo % 2 == 1 else lo + 1
    return [OddPrime(k) for k in range(start, hi + 1, 2) if is_prime(k)]
