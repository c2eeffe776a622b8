"""Builders for the three Legendre-symbol matrices under study, and their
determinants by the Toeplitz route."""
from __future__ import annotations

from .arith import OddPrime, legendre_table
from .exactlinalg import IntMatrix, toeplitz_det


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
    return toeplitz_det(lambda k: chi[-k], p.p - 1)


def det_ep(p: OddPrime) -> int:
    """det of build_ep(p): Toeplitz with t(k) = (-k/p), dimension n+1."""
    chi = legendre_table(p)
    return toeplitz_det(lambda k: chi[-k], p.n + 1)


def det_mp(p: OddPrime) -> int:
    """det of build_mp(p).  Subtracting column j+1 from column j, j < n,
    turns row 0 into e_n; expanding along it leaves (-1)^n times the n x n
    Toeplitz determinant with t(k) = ((k+1)/p) - (k/p)."""
    chi = legendre_table(p)
    return (-1) ** p.n * toeplitz_det(lambda k: chi[k + 1] - chi[k], p.n)
