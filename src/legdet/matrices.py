"""Builders for the three Legendre-symbol matrices under study, and their
determinants (and the characteristic polynomial of C_p) by the Toeplitz
route."""
from __future__ import annotations

from .arith import OddPrime, legendre_table
from .exactlinalg import (
    IntMatrix,
    IntPolynomial,
    toeplitz_charpoly,
    toeplitz_det,
    toeplitz_det_mod,
)

# Dimension from which det_cp/det_ep/det_mp take the multimodular lanes
# (toeplitz_det_mod) instead of the bigint PRS (toeplitz_det).  Timed on
# det_ep and det_mp, best of 9 on a shared 2-core Xeon (Python 3.11, numpy
# 2.4), the two routes break even near m = 70, at about 3 ms each; the
# lanes take about 0.7x the bigint time at m = 100 and 0.35x at m = 199.
# With 75, perfbench's acceptance workload (sweeps to p = 199) ran 13%
# faster than on the bigint route alone.
_LANES_FROM = 75


def _toeplitz(t, m: int) -> int:
    return (toeplitz_det_mod if m >= _LANES_FROM else toeplitz_det)(t, m)


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
    """det(tI - build_cp(p)): Toeplitz with t(k) = (-k/p), dimension p-1."""
    chi = legendre_table(p)
    return toeplitz_charpoly(lambda k: chi[-k], p.p - 1)


def det_ep(p: OddPrime) -> int:
    """det of build_ep(p): Toeplitz with t(k) = (-k/p), dimension n+1."""
    chi = legendre_table(p)
    return _toeplitz(lambda k: chi[-k], p.n + 1)


def det_mp(p: OddPrime) -> int:
    """det of build_mp(p).  Subtracting column j+1 from column j, j < n,
    turns row 0 into e_n; expanding along it leaves (-1)^n times the n x n
    Toeplitz determinant with t(k) = ((k+1)/p) - (k/p)."""
    chi = legendre_table(p)
    return (-1) ** p.n * _toeplitz(lambda k: chi[k + 1] - chi[k], p.n)
