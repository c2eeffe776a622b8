"""Builders for the three Legendre-symbol matrices under study, their
determinants by the Toeplitz route, and the characteristic polynomial of
C_p from the structure of C_p^2."""
from __future__ import annotations

import math

import numpy as np

from .arith import OddPrime, legendre_array
from .errors import DiscrepancyError
from .exactlinalg import IntMatrix, toeplitz_det_mod


def build_cp(p: OddPrime) -> IntMatrix:
    """(p-1) x (p-1) matrix with entry ((j - i)/p), rows/cols indexed 1..p-1."""
    k = np.arange(1, p.p)
    return IntMatrix(legendre_array(p)[k - k[:, None]].tolist())


def build_ep(p: OddPrime) -> IntMatrix:
    """(n+1) x (n+1) matrix with entry ((j - i)/p), indices 0..n."""
    k = np.arange(p.n + 1)
    return IntMatrix(legendre_array(p)[k - k[:, None]].tolist())


def build_mp(p: OddPrime) -> IntMatrix:
    """(n+1) x (n+1) matrix: entry ((i - j)/p) with row 0 replaced by all ones."""
    k = np.arange(p.n + 1)
    rows = legendre_array(p)[k[:, None] - k]
    rows[0] = 1
    return IntMatrix(rows.tolist())


def det_cp(p: OddPrime) -> int:
    """det of build_cp(p): Toeplitz with t(k) = (-k/p), dimension p-1, whose
    symbol t(p-2), ..., t(2-p) reads chi at 2-p, ..., p-2 mod p."""
    chi = legendre_array(p)
    return toeplitz_det_mod(chi[np.arange(2 - p.p, p.p - 1) % p.p])


def charpoly_cp(p: OddPrime) -> tuple[int, int]:
    """(a, b) with det(tI - build_cp(p)) = (t^2 - a)^((p-3)/2) (t^2 - b).

    Every check reads the table chi of the symbol; C_p itself is never
    built.  With s = (-1)^((p-1)/2) and chi also the vector (chi(1), ...,
    chi(p-1)), four steps decide the polynomial:

    1. C_p is similar to -C_p.  With g the least nonresidue and P the
       permutation k -> g k mod p of the indices 1..p-1, P C_p P^T has
       entry chi(g j - g i) = -chi(j - i), given chi(g k mod p) = -chi(k)
       for every k.  So f(t) = det(tI - C_p) = G(t^2), G monic of degree
       (p-1)/2.
    2. f(t) f(-t) = det(t^2 I - C_p^2), p - 1 being even, so G(u)^2 =
       det(uI - C_p^2), and G is the monic square root of the latter.
    3. C_p^2 = a I - s (J + chi chi^T), J all ones, a = s p by the
       Jacobsthal sum.  chi(-k) = s chi(k) for every k gives C_p^T = s C_p,
       so C_p^2 is symmetric, and it gives C_p^2 the displacement of the
       closed form: C_p is Toeplitz, so (C_p^2)_(i+1,j+1) - (C_p^2)_(i,j)
       = chi(-i) chi(j) - chi(-1-i) chi(j+1), which is -s (chi(i+1)
       chi(j+1) - chi(i) chi(j)).  Two symmetric matrices with one
       displacement are equal when their first rows are.  Row 1 of C_p^2
       is s (R(j-1) - chi(-1) chi(-j)), j = 1..p-1, with R the cyclic
       autocorrelation of chi over Z/p, whose term k = 0 lies outside
       1..p-1.  It must equal the closed form off the diagonal; a is read
       off the diagonal, never assumed.
    4. With X = [1 | chi], C_p^2 = a I - s X X^T, and det(uI - C_p^2) =
       (u - a)^(p-3) det((u - a) I_2 + s X^T X).  X^T X = (p-1) I_2 (sum
       chi = 0 and sum chi^2 = p - 1) makes it (u - a)^(p-3) (u - b)^2,
       b = a - s (p-1); any other X^T X leaves it no square.  So G(u) =
       (u - a)^((p-3)/2) (u - b).

    A check that fails raises DiscrepancyError naming its step."""
    n = p.p
    chi = legendre_array(p)
    k = np.arange(n)
    s = (-1) ** p.n
    g = int(np.argmax(chi == -1))
    if not np.array_equal(chi[g * k % n], -chi):
        raise DiscrepancyError(
            f"step 1: chi(g k) = -chi(k) fails for the least nonresidue g = {g}: "
            f"C_{n} is not shown similar to -C_{n}"
        )
    bad = np.flatnonzero(chi[-k % n] != s * chi)
    if bad.size:
        raise DiscrepancyError(
            f"step 3: chi(-k) = s chi(k) fails at k = {bad[0]} for s = {s}: "
            f"C_{n}^T is not s C_{n}"
        )
    x = chi[1:]
    row = s * (_cyclic_autocorrelation(chi)[:-1] - chi[-1] * x[::-1])
    closed = -s * (1 + x[0] * x)
    a = int(row[0] - closed[0])
    closed[0] += a
    bad = np.flatnonzero(row != closed)
    if bad.size:
        raise DiscrepancyError(
            f"step 3: row 1 of C_{n}^2 leaves the closed form a I - s (J + chi chi^T) "
            f"at column {bad[0] + 1}"
        )
    gram = _gram(x)
    if not np.array_equal(gram, np.diag([n - 1, n - 1])):
        raise DiscrepancyError(
            f"step 4: X^T X = {gram.tolist()} for X = [1 | chi] is not {n - 1} I_2: "
            f"det(uI - C_{n}^2) is no square"
        )
    return a, a - s * (n - 1)


def charpoly_cp_text(p: OddPrime, a: int, b: int) -> str:
    """(t^2 - a)^((p-3)/2)*(t^2 - b) as text, e.g. "(t^2 + 131)^64*(t^2 + 1)"
    for p = 131; a power 1 is written without its exponent, and a power 0
    without its factor."""
    def factor(c):
        return f"(t^2 {'+' if c < 0 else '-'} {abs(c)})"

    e = p.n - 1
    head = "" if e == 0 else factor(a) + ("" if e == 1 else f"^{e}") + "*"
    return head + factor(b)


def _cyclic_autocorrelation(chi):
    """R(d) = sum over m mod p of chi(m + d) chi(m), d = 0..p-1, for the
    (p,) int64 table chi, as int64.

    One float64 np.correlate of chi with chi extended by its first h =
    (p-1)/2 entries gives the lags 0..h, about p^2/2 products, and R(p - d)
    = R(d) the rest.  It is exact: for a table of symbols every product is
    0 or +-1, and every partial sum is an integer below p < 2^53.  Step 3
    of `charpoly_cp` reads it, and so does `cyclotomic.gauss_square`, since
    the table is the Gauss sum tau's exponent vector."""
    h = len(chi) // 2
    c = chi.astype(np.float64)
    half = np.correlate(np.concatenate((c, c[:h])), c, "valid").astype(np.int64)
    return np.concatenate((half, half[:0:-1]))


def _gram(x):
    """X^T X for X = [1 | x], a 2 x 2 int64 array."""
    xt = np.stack((np.ones_like(x), x))
    return xt @ xt.T


def det_ep(p: OddPrime) -> int:
    """det of build_ep(p): Toeplitz with t(k) = (-k/p), dimension n+1, whose
    symbol t(n), ..., t(-n) reads chi at -n, ..., n mod p."""
    chi = legendre_array(p)
    return toeplitz_det_mod(chi[np.arange(-p.n, p.n + 1) % p.p])


def det_mp(p: OddPrime) -> int:
    """det of build_mp(p).  Subtracting column j+1 from column j, j < n,
    turns row 0 into e_n; expanding along it leaves (-1)^n times the n x n
    Toeplitz determinant with t(k) = ((k+1)/p) - (k/p).

    The CRT limit is Hadamard's bound on the rows of build_mp(p) itself,
    isqrt((n+1) n^n) + 1: row 0 is all ones and each other row has one
    zero, on the diagonal.  That bounds the value alone, and is smaller
    than the Toeplitz matrix's own bound H, whose entries lie in -2..2 (at
    p = 397, 760 bits and 26 primes against 954 bits and 32 primes)."""
    chi = legendre_array(p)
    n = p.n
    k = np.arange(n - 1, -n, -1)
    bound = math.isqrt((n + 1) * n**n) + 1
    return (-1) ** n * toeplitz_det_mod(chi[(k + 1) % p.p] - chi[k % p.p], bound)
