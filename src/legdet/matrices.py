"""Builders for the three Legendre-symbol matrices under study."""
from __future__ import annotations

from .arith import OddPrime, legendre_table
from .exactlinalg import IntMatrix


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
