"""Builders for the three Legendre-symbol matrices under study, and their
determinants (and the characteristic polynomial of C_p) by the Toeplitz
route."""
from __future__ import annotations

import math

from .arith import OddPrime, legendre_table
from .errors import DiscrepancyError
from .exactlinalg import (
    IntMatrix,
    IntPolynomial,
    toeplitz_charpoly,
    toeplitz_det,
    toeplitz_det_mod,
)

# Dimension from which det_cp/det_ep/det_mp take the multimodular lanes
# (toeplitz_det_mod) instead of the bigint PRS (toeplitz_det).  Timed on
# det_ep and det_mp (det_mp on its value bound), best of 9 with the two
# routes interleaved, three rounds on a shared 2-core Xeon (Python 3.11,
# numpy 2.4): they break even at m = 63-64, near 2.2-3.7 ms each; the lanes
# take 0.73-0.97x the bigint time at m = 65-70, 0.74-0.82x at m = 75,
# 0.63-0.73x at m = 100 and 0.3x at m = 199.
_LANES_FROM = 65


def _toeplitz(t, m: int, bound=None) -> int:
    """toeplitz_det_mod (with bound, a bound on |det|, when given) from
    dimension _LANES_FROM on, else toeplitz_det."""
    return toeplitz_det_mod(t, m, bound) if m >= _LANES_FROM else toeplitz_det(t, m)


def build_cp(p: OddPrime) -> IntMatrix:
    """(p-1) x (p-1) matrix with entry ((j - i)/p), rows/cols indexed 1..p-1."""
    chi = legendre_table(p)
    rng = range(1, p.p)
    return IntMatrix([[chi[j - i] for j in rng] for i in rng])


def build_ep(p: OddPrime) -> IntMatrix:
    """(n+1) x (n+1) matrix with entry ((j - i)/p), indices 0..n."""
    chi = legendre_table(p)
    rng = range(p.n + 1)
    return IntMatrix([[chi[j - i] for j in rng] for i in rng])


def build_mp(p: OddPrime) -> IntMatrix:
    """(n+1) x (n+1) matrix: entry ((i - j)/p) with row 0 replaced by all ones."""
    chi = legendre_table(p)
    rng = range(p.n + 1)
    rows = [[1] * (p.n + 1)]
    rows.extend([chi[i - j] for j in rng] for i in range(1, p.n + 1))
    return IntMatrix(rows)


def det_cp(p: OddPrime) -> int:
    """det of build_cp(p): Toeplitz with t(k) = (-k/p), dimension p-1."""
    chi = legendre_table(p)
    return _toeplitz(lambda k: chi[-k], p.p - 1)


def charpoly_cp(p: OddPrime) -> IntPolynomial:
    """det(tI - build_cp(p)): Toeplitz with t(k) = (-k/p), dimension p-1.

    C_p is similar to -C_p: with g the least nonresidue and P the
    permutation k -> g k mod p of the indices 1..p-1, P C_p P^T has entry
    chi(g j - g i) = chi(g) chi(j - i) = -chi(j - i).  That rests on
    chi(g k mod p) = -chi(k) for every k, which is checked exactly on the
    table that builds the matrix, else DiscrepancyError; only then is the
    polynomial interpolated as one in t^2 (toeplitz_charpoly's even)."""
    chi = legendre_table(p)
    g = chi.index(-1)
    if any(chi[g * k % p.p] != -chi[k] for k in range(p.p)):
        raise DiscrepancyError(
            f"chi(g k) = -chi(k) fails for the least nonresidue g = {g}: "
            f"C_{p.p} is not shown similar to -C_{p.p}"
        )
    return toeplitz_charpoly(lambda k: chi[-k], p.p - 1, even=True)


def det_ep(p: OddPrime) -> int:
    """det of build_ep(p): Toeplitz with t(k) = (-k/p), dimension n+1."""
    chi = legendre_table(p)
    return _toeplitz(lambda k: chi[-k], p.n + 1)


def det_mp(p: OddPrime) -> int:
    """det of build_mp(p).  Subtracting column j+1 from column j, j < n,
    turns row 0 into e_n; expanding along it leaves (-1)^n times the n x n
    Toeplitz determinant with t(k) = ((k+1)/p) - (k/p).

    On the lanes, the CRT limit is Hadamard's bound on the rows of
    build_mp(p) itself, isqrt((n+1) n^n) + 1: row 0 is all ones and each
    other row has one zero, on the diagonal.  That bounds the value alone,
    and is smaller than the Toeplitz matrix's own bound H, whose entries
    lie in -2..2 (at p = 397, 760 bits and 26 primes against 954 bits and
    32 primes)."""
    chi = legendre_table(p)
    n = p.n
    bound = math.isqrt((n + 1) * n**n) + 1
    return (-1) ** n * _toeplitz(lambda k: chi[k + 1] - chi[k], n, bound)
