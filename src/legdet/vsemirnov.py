"""Numeric check of the unitary-style factorization of the symbol matrix
with entries ((j - i)/p), indices 0..n: the matrix should equal
lambda * V D U D V at double precision."""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .arith import OddPrime, legendre_array
from .errors import DiscrepancyError

# a time cap, as in verify._TARGET_TABLE: one prime takes about 20 ms at
# 601, where the residual is 2.0e-13 (5.4e-13 at 479 is the most over 3..601);
# it stays at 601 until the single time budget of ROADMAP item 8 sets it
_CAP = 601


@dataclass(frozen=True)
class Decomposition:
    """Factor matrices and scalar of the numeric factorization."""

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

    Every factor reads the table chi of the symbol and one table of the
    roots z^k, 0 <= k < p, by index arrays mod p.  alt_diag flips the
    difference order inside d_ii, the other plausible reading of the
    diagonal; the default reading is the one that works.
    """
    if p.p > _CAP:
        raise ValueError(f"numeric diagnostic capped at p <= {_CAP}")
    pp = p.p
    k = np.arange(p.n + 1)
    i = k[:, None]
    z = np.exp(2j * np.pi * np.arange(pp) / pp)
    chi = legendre_array(p)
    num = chi[i] * z[(-k - 2 * i) % pp] + chi[-k] * z[(-2 * k - i) % pp]
    den = z[(-i - k) % pp] + chi[i] * chi[-k]
    vanishing = np.argwhere(np.abs(den) <= 1e-9)
    if vanishing.size:
        row, col = vanishing[0].tolist()
        raise DiscrepancyError(f"vanishing denominator at ({row},{col}), p={pp}")
    u = num / den
    v = z[2 * i * k % pp]

    diff = z[2 * i % pp] - z[2 * k % pp]
    if alt_diag:
        diff = -diff
    np.fill_diagonal(diff, 1)
    d = np.diag(np.prod(1 / diff, axis=1))

    t2 = chi[1:] @ z[2 * np.arange(1, pp) % pp]
    lam = chi[-1] * t2 * z[(pp * pp - 1) // 4 % pp]
    return Decomposition(u, v, d, complex(lam))


def decomposition_residual(p: OddPrime, alt_diag: bool = False) -> float:
    """Max entrywise |E - lambda V D U D V| for the symbol matrix E, entry
    ((j - i)/p) as in `matrices.build_ep`."""
    dec = build_uvd(p, alt_diag=alt_diag)
    k = np.arange(p.n + 1)
    e = legendre_array(p)[k - k[:, None]]
    rebuilt = dec.lam * dec.v @ dec.d @ dec.u @ dec.d @ dec.v
    return float(np.max(np.abs(e - rebuilt)))
