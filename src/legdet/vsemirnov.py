"""Numeric check of the unitary-style factorization of the symbol matrix
with entries ((j - i)/p), indices 0..n: the matrix should equal
lambda * V D U D V at double precision."""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .arith import OddPrime, legendre_table
from .errors import DiscrepancyError
from .matrices import build_ep

_CAP = 61  # double-precision conditioning cap for the diagnostic


def _roots(p: int) -> list[complex]:
    return [cmath.exp(2j * math.pi * k / p) for k in range(p)]


@dataclass(frozen=True)
class Decomposition:
    """Factor matrices and scalar of the numeric factorization."""

    prime: OddPrime
    u: np.ndarray
    v: np.ndarray
    d: np.ndarray
    lam: complex


def build_uvd(p: OddPrime, alt_diag: bool = False) -> Decomposition:
    """Build U, V, D ((n+1) x (n+1), indices 0..n) and the scalar lambda.

        u_ij = ((i/p) z^(-j-2i) + ((-j)/p) z^(-2j-i))
                 / (z^(-i-j) + (i/p)((-j)/p))
        v_ij = z^(2ij)
        d_ii = prod_{k != i} 1/(z^(2i) - z^(2k))
        lambda = ((-1)/p) * t2 * z^((p^2-1)/4),  t2 = sum_k (k/p) z^(2k)

    alt_diag flips the difference order inside d_ii, the other plausible
    reading of the diagonal; the default reading is the one that works.
    """
    if p.p > _CAP:
        raise ValueError(f"numeric diagnostic capped at p <= {_CAP}")
    pp = p.p
    dim = p.n + 1
    z = _roots(pp)
    sym = legendre_table(p)

    u = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        for j in range(dim):
            num = sym[i] * z[(-j - 2 * i) % pp] + sym[(-j) % pp] * z[(-2 * j - i) % pp]
            den = z[(-i - j) % pp] + sym[i] * sym[(-j) % pp]
            if abs(den) <= 1e-9:
                raise DiscrepancyError(f"vanishing denominator at ({i},{j}), p={pp}")
            u[i, j] = num / den

    v = np.array([[z[(2 * i * j) % pp] for j in range(dim)] for i in range(dim)])

    d = np.zeros((dim, dim), dtype=complex)
    for i in range(dim):
        acc = 1 + 0j
        for k in range(dim):
            if k == i:
                continue
            diff = z[(2 * i) % pp] - z[(2 * k) % pp]
            acc *= (1 / diff) if not alt_diag else (1 / -diff)
        d[i, i] = acc

    t2 = sum(sym[k] * z[(2 * k) % pp] for k in range(1, pp))
    lam = sym[pp - 1] * t2 * z[((pp * pp - 1) // 4) % pp]
    return Decomposition(p, u, v, d, lam)


def decomposition_residual(p: OddPrime, alt_diag: bool = False) -> float:
    """Max entrywise |E - lambda V D U D V| for the symbol matrix E."""
    dec = build_uvd(p, alt_diag=alt_diag)
    e = np.array(build_ep(p).rows, dtype=complex)
    rebuilt = dec.lam * dec.v @ dec.d @ dec.u @ dec.d @ dec.v
    return float(np.max(np.abs(e - rebuilt)))
