"""Exact linear algebra over the integers: dense elimination, and the
Toeplitz determinant on numpy lanes mod many primes."""
from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .arith import _modular_primes, _take_primes
from .errors import DiscrepancyError


class IntMatrix:
    """Square matrix of Python integers, immutable by convention."""

    __slots__ = ("dim", "rows")

    def __init__(self, rows) -> None:
        rows = tuple(tuple(int(x) for x in row) for row in rows)
        if not rows:
            raise ValueError("matrix must be non-empty")
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        self.rows = rows
        self.dim = len(rows)

    def __eq__(self, other) -> bool:
        return isinstance(other, IntMatrix) and self.rows == other.rows

    def __hash__(self):
        return hash(self.rows)

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.rows]})"


def _bareiss(a: list) -> int:
    """Determinant of the square integer list-of-rows a by fraction-free
    (Bareiss) elimination, overwriting a.

    Every interior division is exact in theory, so a nonzero remainder
    means a broken invariant and raises DiscrepancyError.  A zero column
    with no pivot available means the matrix is singular: the result is 0.
    """
    n = len(a)
    negate = False
    prev = 1
    for k in range(n - 1):
        if not a[k][k]:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    negate = not negate
                    break
            else:
                return a[k][k]
        pivot = a[k][k]
        row_k = a[k]
        for i in range(k + 1, n):
            row_i = a[i]
            aik = row_i[k]
            for j in range(k + 1, n):
                q, r = divmod(pivot * row_i[j] - aik * row_k[j], prev)
                if r:
                    raise DiscrepancyError("fraction-free step did not divide exactly")
                row_i[j] = q
        prev = pivot
    return -a[n - 1][n - 1] if negate else a[n - 1][n - 1]


def det(m: IntMatrix) -> int:
    """Exact determinant of an integer matrix by fraction-free elimination."""
    return _bareiss([list(r) for r in m.rows])


_LANE_PRIMES: list = []  # the odd primes descending from 2^30, filled on first use
_LANE_STREAM = _modular_primes(1)


def _lane_primes():
    """The odd primes below 2^30 in descending order, each found once and kept."""
    for i in itertools.count():
        if i == len(_LANE_PRIMES):
            _LANE_PRIMES.append(next(_LANE_STREAM))
        yield _LANE_PRIMES[i]


def _lane_pow(x, e: int, q):
    """x^e mod q, elementwise over the lanes, for an int e >= 0; x itself
    when e = 1."""
    acc = None
    while True:
        if e & 1:
            acc = x if acc is None else acc * x % q
        e >>= 1
        if not e:
            return np.ones_like(x) if acc is None else acc
        x = x * x % q


def _lane_mod(w, q):
    """w %= q for a (width, L) lane window w, kept nonnegative (numpy's %
    takes about twice as long on mixed signs), and the (L,) moduli q."""
    w %= q


def _lane_lead(w):
    """The first row of the lane windows w, a (width, L) int64 array, that
    is nonzero in some lane, and the (L,) mask of the unlucky lanes, whose
    own first nonzero row lies further down (None when there are none).

    Lanes that are not unlucky agree on that row: in each of them it is
    the first nonzero row, a unit mod the lane's prime.  An all-zero window
    gives its width.
    """
    if np.count_nonzero(w[0]) == w.shape[1]:
        return 0, None
    nz = w != 0
    first = np.where(nz.any(axis=0), nz.argmax(axis=0), len(w))
    lead = first.min()
    unlucky = first > lead
    return int(lead), (unlucky if unlucky.any() else None)


def _lane_dets(f1, q, m: int, points=()):
    """The m x m Toeplitz determinants of L lanes, lane l mod q[l], by the
    windowed Brown-Collins subresultant PRS over F_q, run in every lane at
    once.

    Reversing the rows of T = [t(i - j)], 0 <= i, j < m, gives a Hankel
    matrix, whose determinant is the principal subresultant coefficient of
    index m - 1 of F0 = X^(2m-1) and F1 = sum_k t(m-1-k) X^(2m-2-k); the
    two sign changes cancel (Brown & Traub 1971).

    Windows.  Each step keeps only the coefficients that this answer reads.
    In prem(A, B), the coefficient of degree e reads A at degree e and at
    degrees >= deg B, and B at degrees >= e - (deg A - deg B).  Working back
    from degree m - 1, the step whose divisor has degree d needs its
    remainder only at degrees >= 2m - 1 - d.  So the dividend is cut to
    that floor, and the divisor's own window (its floor was set one step
    earlier, by the dividend's degree) is exactly what the step reads: the
    two windows have equal length, and each step's is 2 shorter than the
    last when the degrees fall by 1.  Coefficients below a window are never
    computed.  The divisor has degree >= m, so every floor is <= m - 1: the
    remainder's true degree is known whenever it is >= m - 1, and an
    all-zero window means degree < m - 1, hence determinant 0.

    f1 is a (2m - 1, L) int64 array: column l holds the residues mod q[l],
    in [0, q[l]), of the coefficients of lane l's F1, leading first, down
    axis 0, and q is the (L,) int64 array of moduli.
    Every lane takes the same steps on its own residues, so one (width, L)
    array holds each window, with the lanes on the contiguous last axis,
    along which each step's (L,) per-lane scalars broadcast.  Each step
    negates its scalars, as q - x, so that every window _lane_mod reduces
    is a sum of at most three products of numbers in [0, q], nonnegative
    and below 3 * 2^60.

    The stored windows are plain pseudo-remainders, W_(i+1) = prem(W_(i-1),
    W_i) = L_i^(delta_i + 1) * rem(W_(i-1), W_i), with no division; W_0 =
    F0, W_1 = F1, L_i is W_i's leading coefficient, n_i its degree, delta_i
    = n_(i-1) - n_i and gap_i = n_i - n_(i+1).  With j = m - 1 <= n_(i+1),
    the subresultant coefficients obey sigma_j(A, B) = (-1)^((n_(i-1) - j)
    (n_i - j)) * L_i^(delta_i + gap_i) * sigma_j(B, rem(A, B)) for A =
    W_(i-1), B = W_i over the field, and sigma_j = 0 when n_(i+1) < j <
    n_i.  sigma_j(B, c R) = c^(deg B - j) sigma_j(B, R), as c scales
    deg B - j rows of the Sylvester matrix, so sigma_j(B, rem(A, B)) =
    sigma_j(W_i, W_(i+1)) / L_i^((delta_i + 1)(n_i - j)).  At the end,
    n_k = j and sigma_j(W_(k-1), W_k) = L_k^gap_(k-1).  Since n_i - j =
    sum_(t >= i) gap_t, the divisors gather by step: the determinant is
    sign * P_(k-1) * extra * L_k^gap_(k-1) / prod_t P_t^gap_t, with the
    prefix P_t = prod_(i <= t) L_i^(delta_i + 1) and extra = prod_i
    L_i^(gap_i - 1).  The sign is a Python int shared by every lane; each
    lane keeps P, the denominator and extra, three (L,) arrays, and
    inverts the denominator once, at the end.

    The loop's first step has divisor W_0 = F0 and remainder W_1 = F1.  As
    L_0 = 1, it adds no factor to P, extra or the denominator, and n_(-1) =
    j gives it sign (-1)^0: it only reads W_1's degree, like every step.

    Points.  A run given points, a tuple of (K, x), K = m - 1 or m and x an
    int or None, is a Hankel run: f1 holds h_0, ..., h_(2m-1), the last one
    row below F1, so every window runs a row deeper and the last step's
    quotient is whole, and it returns the (len(points), L) array of S_K(x)
    mod q, S_K being toeplitz_det_mod's bordered Hankel determinant and
    x = None reading H_m.  Beside the windows each lane carries V_(i-1) and
    V_i at each x: V_0 = 0, V_1 = 1 and V_(i+1) = L_i^(delta_i + 1)
    V_(i-1) + Q_i V_i, Q_i being the step's pseudo-quotient, whose
    coefficients are the w[0] that its elimination reads (l a_0 X + r1 in
    the two-step case).  So W_i = (-1)^(i-1) V_i F1 mod F0, W_i = alpha_i
    R_i and (-1)^(i-1) V_i = alpha_i V'_i, R_i and V'_i being the lemma's,
    and lc(V_i) = P_(i-1) / L_(i-1) by induction.  Let W_i be the last
    remainder and s = (-1)^(m(m-1)/2) sign, so that H_m = s num / den.
    When n_i = m - 1, (b) gives S_(m-1) = (-1)^(i-1) H_m V_i / L_i, and (a)
    on h_0, ..., h_(2m) gives S_m = H_m V_(i+1) L_i / P_i = s extra
    V_(i+1) / den.  When n_i < m - 1, H_m = 0, and 0 stands for S_m, as
    each value that reads S_m vanishes with H_m; by (c), S_(m-1) = 0
    unless n_(i-1) = m, when it is E = (-1)^(i-1) s extra V_i / den, with
    den and extra before the last gap enters them.  Proof: E, the degrees
    up to n_(i-1) and S_(m-1) read only window rows above the floors 2m -
    1 - d, which reach F1 at degrees >= 1, not h_(2m-2).  With h_(2m-2) + t
    for h_(2m-2), H_m becomes H_m + t H_(m-1), and H_(m-1) != 0: it is
    +-sigma_m(F0, F1), m being the degree of a remainder (Brown & Traub
    1971).  So at all t but one, n_i = m - 1, the last gap is 1, and (b)
    reads E.

    All lanes follow one degree sequence.  Returns (values, None), the
    determinant mod q[l] for each lane l as a list of L ints or the array
    of readings; or (None, unlucky) when some row reads zero in some lanes
    only, unlucky being the (L,) bool mask of those lanes.
    """
    j = m - 1
    window, f1 = f1, np.zeros_like(f1)
    f1[0] = 1  # F0 = X^(2m-1)
    n0, n1 = j, 2 * m - 1
    prefix = den = extra = np.ones_like(q)
    sign = turn = 1  # turn = (-1)^(i-1) for the remainder W_i in window
    hankel = (-1) ** (m * (m - 1) // 2)
    if points:
        xs = sorted({x for _, x in points if x is not None})
        x = np.array(xs, dtype=np.int64)[:, None] % q
        v0, v1 = np.zeros_like(x), np.ones_like(x)
    while True:
        lead, unlucky = _lane_lead(window)
        if unlucky is not None:
            return None, unlucky
        gap = lead + 1
        n2 = n1 - gap
        # sigma_j(A, B) against sigma_j(B, rem(A, B)): (-1)^((n0 - j)(n1 - j))
        if (n0 - j) * (n1 - j) % 2:
            sign = -sign
        if n2 < j:
            if not points:
                return [0] * len(q), None
            # H_m = 0 = S_m, and S_(m-1) by (a) when n_(i-1) = m, else (c)
            low = hankel * sign * turn * (extra if n1 == m else 0) * v1
            return _lane_readings(points, xs, m, q, den, 0 * den, low, 0 * v1), None
        den = den * _lane_pow(prefix, gap, q) % q
        if gap > 1:
            extra = extra * _lane_pow(f1[0], gap - 1, q) % q
        f0, f1, n0, n1 = f1, window[lead:], n1, n2
        lc = f1[0]
        if n1 == j:
            num = prefix * extra % q * _lane_pow(lc, gap, q) % q
            if not points:
                return [sign * x * pow(y, -1, qk) % qk
                        for x, y, qk in zip(num.tolist(), den.tolist(), q.tolist())], None
            low = prefix * extra % q * _lane_pow(lc, gap - 1, q) % q  # (b)
        delta = n0 - n1
        a = f0[:len(f1)]
        if delta == 1:
            # the two elimination steps as one expression, one reduction,
            # on the negated scalars -(l a_0) and -r1, r1 being the first
            # step's leading coefficient; the quotient is l a_0 X + r1
            lcd, la = lc * lc % q, lc * a[0] % q
            nr1 = (a[0] * f1[1] - lc * a[1]) % q
            window = lcd * a[2:]
            window += (q - la) * f1[2:]
            window += nr1 * f1[1:-1]
            _lane_mod(window, q)
            if points:
                qx = x * la
                qx += q - nr1
                _lane_mod(qx, q)
        else:
            lcd = _lane_pow(lc, delta + 1, q)
            window, qx = a, 0
            if points:
                lx = lc * x % q
            for _ in range(delta + 1):
                w = window
                if points:  # Horner on the quotient's coefficients w[0]
                    qx = qx * lx + w[0]
                    _lane_mod(qx, q)
                window = lc * w[1:]
                window += (q - w[0]) * f1[1:len(w)]
                _lane_mod(window, q)
        if points:
            v0, v1 = v1, lcd * v0 + qx * v1
            _lane_mod(v1, q)
            turn = -turn
        prefix = prefix * lcd % q
        if n1 == j:  # S_(m-1) by (b) on V_i, S_m by (a) on V_(i+1)
            s = hankel * sign
            return _lane_readings(points, xs, m, q, den, s * num, -turn * s * low * v0,
                                  s * extra * v1), None


def _lane_readings(points, xs, m: int, q, den, top, low, high):
    """The (len(points), L) array of _lane_dets's readings mod q: H_m =
    top / den, and S_(m-1)(x) = low[r] / den and S_m(x) = high[r] / den,
    row r of low and high being x = xs[r]."""
    inv = np.array([pow(y, -1, qk) for y, qk in zip(den.tolist(), q.tolist())])
    rows = [top if x is None else (low if k < m else high)[xs.index(x)]
            for k, x in points]
    return np.array(rows) % q * inv % q


def _hadamard_bound(row, m: int, row0=None) -> int:
    """toeplitz_det_mod's bound H for the 2m - 1 values |t(k)| <= row, an
    int64 or an object array of Python ints; with row0, its bound
    isqrt(m row0^2 S^(m-1)) + 1 on |det M|.  The uint64 cast of an int64
    row keeps |-2^63| = 2^63."""
    top = np.abs(row).astype(object if row.dtype == object else np.uint64)
    top = np.sort(top, axis=None)[-m:].astype(object)
    s = int((top * top).sum())
    return math.isqrt(s**m if row0 is None else m * row0 * row0 * s ** (m - 1)) + 1


def _lane_run(dets, primes, bound: int):
    """(run, residues) of dets(q), q the (K,) int64 array of run: the
    primes taken in order from primes until their product exceeds 2 bound,
    so that the symmetric residue of a value at most bound is the value,
    then one spare prime more.  dets(q) returns what _lane_dets returns for
    lanes read mod q[l % K]: (residues, None), or (None, unlucky), unlucky
    the mask of the lanes of some run that dets made on q.  The spare only
    checks the CRT value (see _crt); it is no stopping rule, as the count of
    primes is set by bound alone.  The primes of unlucky lanes are dropped,
    and the next run takes the surviving chosen primes, then the stream
    again from the spare if it survived, by the same rule."""
    message = "lane primes ran out below the CRT bound"
    primes, chosen = iter(primes), []
    while True:
        chosen = _take_primes(primes, 2 * bound, message, chosen)
        spare = next(primes, None)
        if spare is None:
            raise DiscrepancyError(message)
        run = chosen + [spare]
        residues, unlucky = dets(np.array(run, dtype=np.int64))
        if unlucky is None:
            return run, residues
        bad = unlucky.reshape(-1, len(run)).any(axis=0).tolist()
        chosen = [qk for qk, b in zip(chosen, bad) if not b]
        if not bad[-1]:
            primes = itertools.chain([spare], primes)


def _crt(residues, run: list, bound: int) -> int:
    """The symmetric residue mod the product of the chosen primes run[:-1]
    of the value with these residues, by Garner's method.  A value of
    absolute value above bound raises DiscrepancyError, and so does one
    whose residue mod the spare prime run[-1] is not residues[-1].  The
    spare checks the lanes' arithmetic: a wrong residue passes it only if
    the rebuilt value's error is a multiple of the spare prime."""
    # value = sum over k of q_0 ... q_(k-1) * digit_k, each digit in [0, q_k)
    value, modulus = 0, 1
    for r, qk in zip(residues, run[:-1]):
        value += modulus * ((r - value % qk) * pow(modulus % qk, -1, qk) % qk)
        modulus *= qk
    if 2 * value > modulus:
        value -= modulus
    if abs(value) > bound:
        raise DiscrepancyError("multimodular determinant exceeds its Hadamard bound")
    if value % run[-1] != residues[-1]:
        raise DiscrepancyError("multimodular determinant disagrees with the spare prime")
    return value


def _lane_moments(u, q, symmetric: bool):
    """The moments of a symmetric or a skew symbol on the lanes, in place.

    u is an (r, L) int64 array of residues in [0, q[l]) down axis 0, lane l
    mod q[l]: t(0), ..., t(m - 1) for a symmetric symbol, or t(1), ...,
    t(m - 1) for a skew one.  With tau_n(e) = sum_r C(n, r) t(n + e - 2r),
    on return row n of u holds c_n = tau_n(0) (symmetric) or d_n = tau_n(1)
    (skew) mod q.

    tau_0 = t and tau_(n+1)(e) = tau_n(e - 1) + tau_n(e + 1).  At layer n,
    row i holds tau_n(i - n) (symmetric) or tau_n(i - n + 1) (skew), so the
    step to layer n + 1 adds row i - 2 to row i for every i >= n + 2, and
    row n is then final.  Row n + 1 becomes tau_(n+1)(0) = 2 tau_n(1) when
    t(-e) = t(e), and tau_(n+1)(1) = tau_n(2), as it stands, when t(-e) =
    -t(e) (tau_n(0) = 0).  The layers alternate between u and a second
    buffer, so no add reads what it writes, and row r is final in the
    buffer of layer r.  A step at most doubles the largest entry, so
    residues below 2^30 are reduced every 32 steps, below 2^62.
    """
    layers = (u, np.empty_like(u))
    for n in range(len(u) - 1):
        a, b = layers[n % 2], layers[1 - n % 2]
        np.add(a[n + 2:], a[n:-2], out=b[n + 2:])
        if symmetric:
            np.add(a[n + 1], a[n + 1], out=b[n + 1])
        else:
            b[n + 1] = a[n + 1]
        if n % 32 == 31:
            b[n + 1:] %= q
    u[1::2] = layers[1][1::2]
    u %= q
    return u


def _symbol_column(symbol):
    """symbol, t(m - 1), ..., t(1 - m), as a (2m - 1, 1) int64 column, and
    m; an empty, even-length, not 1-D or not integer symbol, or one with an
    unsigned value >= 2^63, raises ValueError."""
    f1 = np.asarray(symbol)
    if f1.ndim != 1 or len(f1) % 2 == 0 or f1.dtype.kind not in "iu":
        raise ValueError("a Toeplitz symbol is a 1-D integer array of odd length 2m - 1")
    column = f1.astype(np.int64, copy=False)
    if f1.dtype.kind == "u" and (column < 0).any():
        raise ValueError("a Toeplitz symbol's values must fit in int64")
    return column[:, None], (len(f1) + 1) // 2


def toeplitz_det_mod(symbol, row0=None) -> int:
    """Exact determinant of the m x m integer Toeplitz matrix T = [t(i - j)],
    0 <= i, j < m, by the windowed subresultant PRS of _lane_dets over F_q
    for many primes q < 2^30 at once, rebuilt by the Chinese remainder
    theorem.

    symbol is the 1-D integer array t(m - 1), ..., t(1 - m), F1's
    coefficients leading first, and m is read off its length 2m - 1.  The
    run keeps only the windows of coefficients that its answer reads (see
    _lane_dets).

    Bound.  Let S be the sum of the m largest of the squares t(k)^2,
    |k| < m, and H = isqrt(S^m) + 1.  Each row of T holds m of the t(k),
    each at most once, so its squared norm is at most S, and Hadamard's
    inequality gives |det T| <= S^(m/2) < H.  H bounds the value only.
    Primes are taken until their product Q exceeds 2H, and one spare prime
    more checks the CRT value (see _crt).  The lanes are the columns of one
    (2m - 1, L) array, lane l mod q[l].

    The field argument.  A coefficient the PRS reads may be nonzero over Z
    and vanish mod every prime taken; the lanes then follow another degree
    sequence than Z takes.  A coefficient that is zero in some lanes but
    not in all makes the primes of those lanes unlucky: they are dropped
    and the whole run repeats with the next primes, so the verdict is
    deterministic.  Every lane kept agrees with the others on each step's
    leading row, which is its own first nonzero row, a unit mod its q: it
    runs the subresultant PRS over the field F_q on its own residues, and
    yields the determinant mod q whatever sequence Z takes.  With |det T| <
    H and Q > 2H, the symmetric residue of the CRT value mod Q is det T.  A
    CRT value of absolute value above H raises DiscrepancyError, as does
    running out of primes.  The values t(k) must fit in int64.

    Symmetric and skew symbols.  When t(-k) = t(k) for every |k| < m, or
    t(-k) = -t(k), det T comes from Hankel determinants of about half the
    size (Cantoni & Butler, Linear Algebra Appl. 13, 1976).  Let H_K[h] =
    det[h_(i+j)], 0 <= i, j < K, c_n = sum_r C(n, r) t(n - 2r) and d_n =
    sum_r C(n, r) t(n + 1 - 2r).  Then, with k = floor(m/2):

    - symmetric, m = 2k + 1: det T = H_(k+1)[c] H_k[nu] / 4^k, with
      nu_n = 4 c_n - c_(n+2);
    - symmetric, m = 2k: det T = H_k[c_(n+1) + 2 c_n] H_k[2 c_n - c_(n+1)]
      / 4^k;
    - skew, m = 2k: det T = H_k[d]^2;
    - skew, m odd: det T = 0, as T^T = -T.

    Proof.  Index T by the exponents e = i - (m - 1)/2, half-integers for
    even m, and let L(z^e) = t(e), so that u^T T v = L(P(z) Q(1/z)) for
    the Laurent polynomials P and Q with coefficients u and v.  The
    polynomials z^e + z^-e and z^e - z^-e, e > 0, with 1 when m is odd, are
    a basis of determinant (-2)^k against the z^e.  A symmetric polynomial
    (P(1/z) = P(z)) and an antisymmetric one pair to L of an antisymmetric
    polynomial, which is 0 for a symmetric symbol; two of one kind pair to
    L of a symmetric one, 0 for a skew symbol.  So in this basis T is block
    diagonal (symmetric symbol) or block antidiagonal (skew).  With x = z
    + 1/z, the monic bases x^i (m odd) or (z^(1/2) + z^(-1/2)) x^i (m even)
    of the symmetric polynomials, and (z - 1/z) x^i (m odd) or (z^(1/2) -
    z^(-1/2)) x^i (m even) of the antisymmetric ones, are unimodular and
    triangular against it, and their Gram matrices are Hankel: L(x^n) =
    c_n; L((4 - x^2) x^n) = nu_n, as -(z - 1/z)^2 = 4 - x^2; L((2 +- x)
    x^n), as (z^(1/2) + z^(-1/2))^2 = 2 + x and -(z^(1/2) - z^(-1/2))^2 =
    2 - x; and, across the two blocks of a skew symbol, -+ L((z - 1/z)
    x^n) = -+2 d_n.  Dividing by the basis's squared determinant 4^k gives
    the identities.

    A constant row 0.  For a symmetric or skew symbol (another raises
    ValueError), row0 = r asks for det M, M being T with row 0 replaced by
    r, ..., r.  With h'_n = 2 h_n - h_(n+1) for a sequence h:

    - symmetric, m = 2k + 1: det M = r H_k[nu] H_k[c'] / 4^k;
    - symmetric, m = 2k: det M = 2 r H_k[c'] H_(k-1)[nu] / 4^k;
    - skew, m = 2k: det M = -r H_k[d] H_(k-1)[d'];
    - skew, m = 2k + 1: det M = r H_k[d] H_k[d'].

    Proof.  Expanding along row 0, det M = r 1^T adj(T) e_0.  Let B hold
    the two bases above as columns, in the z^e, so that G = B^T T B holds
    the Gram blocks above and adj(T) = B adj(G) B^T / 4^k.  1^T B evaluates
    each basis polynomial at z = 1, that is x = 2: it is u, u_i = 2^i (m
    odd) or 2^(i+1) (m even), on the symmetric basis and 0 on the
    antisymmetric one.  B^T e_0 is the coefficient of z^(-(m-1)/2), which
    only the top polynomial of each basis has: 1 in the symmetric one, -1
    in the other.  A symmetric symbol's adj(G) is block diagonal, so 1^T
    adj(T) reads only the symmetric part (e_0 + e_(m-1))/2 of e_0, and det
    M = r det G_a u^T adj(G_s) e_top / 4^k.  A skew symbol's G is [[0, X],
    [Y, 0]], X = -Y^T = -2 [d_(i+j)], and 1^T adj(T) reads only (e_0 -
    e_(m-1))/2.  For m even, adj(G) = det G G^-1 = (-1)^k det X det Y [[0,
    Y^-1], [X^-1, 0]] (each identity is polynomial in the t(k), so T may be
    taken invertible), and det M = -r (-1)^k det X u^T adj(Y) e_top / 4^k.
    For m odd, removing an antisymmetric row and a symmetric column leaves
    k symmetric columns nonzero in k - 1 rows, so only adj(G)'s symmetric
    block is read, and its cofactors give det M = r (-1)^k det X' det [Y;
    u^T] / 4^k, X' being X less its last row.  u^T adj(Z) e_top is det Z
    with its last row replaced by u^T.  K rows [h_(i+j)] of K + 1 columns
    over the row (1, 2, 4, ..., 2^K) have determinant H_K[h'] (Christoffel's
    formula, Szego, Orthogonal Polynomials, 2.5): subtracting 2 times
    column j from column j + 1, for j from K - 1 down to 0, leaves the row
    e_0^T over rows h_(i+j+1) - 2 h_(i+j), and expanding along it gives
    (-1)^K (-1)^K H_K[h'].  For m even, G_s's moments are g_n =
    c_(n+1) + 2 c_n, and g'_n = nu_n.  Collecting the powers of 2 and the
    signs gives the identities.

    In S form.  Let S_K(x) be the determinant of the K rows [h_(i+j)], 0 <=
    j <= K, over the row (1, x, ..., x^K), so that H_K[h'] = S_K(2) and,
    likewise, H_K[2 h_n + h_(n+1)] = (-1)^K S_K(-2) (nu_n = 2 c'_n +
    c'_(n+1)).  With S for c, or S' for c', the identities read:

    - symmetric T: det T = (-1)^(k+1) (S_k(2) S_(k+1)(-2) - S_k(-2)
      S_(k+1)(2)) / 4^(k+1) (m = 2k + 1), or (-1)^k S_k(2) S_k(-2) / 4^k;
    - symmetric M: det M = (-1)^k r H_k[c'] S'_k(-2) / 4^k (m = 2k + 1), or
      2 (-1)^(k-1) r H_k[c'] S'_(k-1)(-2) / 4^k;
    - skew M: det M = -r H_k[d] S_(k-1)(2) (m = 2k), or r H_k[d] S_k(2).

    For the first, let D be the determinant of the k rows [c_(i+j)], j <=
    k + 1, over the rows (2^j) and ((-2)^j).  The column steps above, at x
    = 2, then expanding along the row e_0, give D = -4 (-1)^k H_k[nu].
    Desnanot-Jacobi on D's matrix and on S_(k+1)(x)'s, rows and columns k
    and k + 1, give H_k D = S_k(2) A(-2) - S_k(-2) A(2) and H_k S_(k+1)(x)
    = H_(k+1) A(x) - G S_k(x), A and G being minors without column k, so
    H_(k+1) D = S_k(2) S_(k+1)(-2) - S_k(-2) S_(k+1)(2).  c_(2k+1) is read
    only at row k, column k + 1 of S_(k+1), whose cofactor is S_k, and so
    cancels: any value of it will do.

    The cofactor lemma.  Let h_0, ..., h_(2N-2) lie in a field, L(x^n) =
    h_n, and run Euclid on R_0 = X^(2N-1), R_1 = sum_n h_n X^(2N-2-n), with
    V_0 = 0, V_1 = 1 and V_(i+1) = V_(i-1) - Q_i V_i, so R_i = V_i R_1 + U_i
    R_0.  With n_i = deg R_i and K_i = deg V_i = 2N - 1 - n_(i-1), for K <=
    N - 1 and the i with K_i <= K < K_(i+1):
    (a) S_K = H_K V_i / lc(V_i) at K = K_i;
    (b) S_K = H_(K+1) V_i / lc(R_i) at K = K_(i+1) - 1 = 2N - 2 - n_i;
    (c) S_K = 0 in between.
    Proof.  While e + K_i <= 2N - 2, the coefficient of X^(2N-2-e) in V_i
    R_1 is L(x^e V_i), and in R_i - U_i R_0 it is 0 for n_i < 2N - 2 - e <
    2N - 1 and lc(R_i) at n_i: L(x^e V_i) = 0 for e < K_(i+1) - 1, and
    L(x^(K_(i+1)-1) V_i) = lc(R_i).  A polynomial P of degree <= K with
    L(x^e P) = 0 for e < K is a null vector of the rows of S_K, and so is S_K
    (each row against it is a determinant with a repeated row); S_K != 0
    only if those K rows have rank K, and then S_K spans their null space.
    So in (a) and (b), S_K = lambda V_i: comparing the coefficients of x^K
    gives (a), and H_(K+1) = L(x^K S_K) (expand its last row) = lambda
    lc(R_i) gives (b).  In (c), V_i and x V_i are independent null vectors,
    so S_K = 0.  Every moment read has index <= 2K <= 2N - 2.

    One run.  Each split is one _lane_dets run on the moments, from the
    recurrence of _lane_moments, that reads its S_K(x) and H_K off the
    lemma (see _lane_dets): c of size k + 1 (symmetric T), c' (symmetric
    M) or d (skew M) of size k, padded with zeros that no value depends on
    (c_(2k+1) cancels, and no reading reads the others); a skew det T is
    the plain run of d.  The lanes multiply the readings by the identity's
    scale, such as 4^(-k) mod q (q is odd), and the CRT rebuilds the value
    on a bound B: H, or with row0 Hadamard's bound on M's rows, isqrt(m
    r^2 S^(m-1)) + 1.  A skew
    symbol's det T alone is a square: its CRT rebuilds +-D, D = H_k[d] (the
    square drops the sign), with |D| = |det T|^(1/2) <= isqrt(H) + 1 = B,
    so its primes multiply past 2B, about half as many; det T = D^2.  The
    lemma holds over every F_q, so by the field argument every lane kept
    yields the readings mod q, and with |value| <= B and a prime product
    above 2B, the symmetric residue is the value.
    """
    f1, m = _symbol_column(symbol)
    bound = _hadamard_bound(f1, m, row0)
    half, k = f1[m - 1::-1], m // 2  # t(0), ..., t(m - 1)
    symmetric = np.array_equal(f1, f1[::-1])
    # -f1 wraps -2^63 to itself, and no skew int64 symbol holds -2^63
    skew = not symmetric and np.array_equal(f1, -f1[::-1]) and f1.min() > -2**63
    if row0 is not None and not (symmetric or skew):
        raise ValueError("a constant row 0 needs a symmetric or skew symbol")
    if row0 is not None and m == 1:
        return row0  # M = [r]
    square = skew and row0 is None  # det T = H_k[d]^2
    if square:
        if m % 2:
            return 0
        bound = math.isqrt(bound) + 1  # bounds |H_k[d]| = |det T|^(1/2)
    # one run of size `size`: T itself for a general symbol, or the Hankel
    # run of the split, reading S_K(x) at the points (K, x), x = None
    # reading H_size, whose product times scale is the value
    size, points = (k if square else m), ()
    if symmetric and row0 is None:
        size, odd = k + 1, m % 2
        points = ((k, 2), (k + 1, -2), (k, -2), (k + 1, 2)) if odd else ((k, 2), (k, -2))
        scale = Fraction((-1) ** (k + odd), 4 ** (k + odd))
    elif row0 is not None:
        size, top = k, k - 1 + m % 2
        points = ((k, None), (top, -2 if symmetric else 2))
        scale = (Fraction((2 - m % 2) * (-1) ** top * row0, 4**k) if symmetric
                 else Fraction((-1) ** (m + 1) * row0))

    def dets(q):
        if symmetric or skew:
            h = _lane_moments(half % q if symmetric else half[1:] % q, q, symmetric)
            if symmetric and row0 is not None:
                h = (2 * h[:-1] + q - h[1:]) % q  # c'
            if points:
                h = np.concatenate([h, np.zeros((2 * size - len(h), len(q)), dtype=np.int64)])
        else:
            h = f1 % q
        values, unlucky = _lane_dets(h, q, size, points)
        if unlucky is not None or not points:
            return values, unlucky  # det T, or +-H_k[d] for a skew T
        value = values[0] * values[1] % q
        if len(values) == 4:
            value = (value + q - values[2] * values[3] % q) % q
        s = [scale.numerator * pow(scale.denominator, -1, qk) % qk for qk in q.tolist()]
        return (value * s % q).tolist(), None

    run, residues = _lane_run(dets, _lane_primes(), bound)
    value = _crt(residues, run, bound)
    return value**2 if square else value


def toeplitz_det_ztau(a, b, pstar: int) -> tuple[int, int]:
    """Exact (c, d), meaning c + d*tau, of det [a(i - j) + b(i - j)*tau],
    0 <= i, j < m, tau^2 = pstar, |pstar| no square.  a and b are symbols
    as toeplitz_det_mod takes them, 1-D int64 arrays a(m - 1), ..., a(1 - m)
    and b(m - 1), ..., b(1 - m) of one odd length 2m - 1.

    At primes q = 3 (mod 4) with pstar a nonzero square, s = pstar^((q+1)/4)
    is a root of it, and tau -> +-s map the matrix to a +- s*b, two lanes
    mod q of one _lane_run, whose determinants D+- = c +- d*s give c and d
    mod q.  On the last axis of the (2m - 1, 2K) lanes, the + lanes of the
    K primes precede the - lanes, so lane l is read mod q[l % K].

    Bound.  In each complex embedding, tau -> +-sqrt(pstar), every entry
    has absolute value at most |a| + r|b|, r = isqrt(|pstar|) + 1, and
    toeplitz_det_mod's bound h on that row bounds the embedded determinant
    c +- d*sqrt(pstar).  So |c| <= h and |d| <= h, and primes are taken
    until their product passes 2h, then one spare.  The row is built from
    Python ints, so no entry near 2^63 wraps.

    The field argument of toeplitz_det_mod carries over: a prime whose
    lanes, + or -, disagree with the others on a leading coefficient is
    unlucky and dropped, and every lane kept runs the subresultant PRS over
    F_q on its own residues, yielding c +- d*s mod q.  c and d are each
    rebuilt from the chosen primes and checked mod the spare prime (see
    _crt); one above h raises DiscrepancyError.
    """
    (av, m), (bv, _) = _symbol_column(a), _symbol_column(b)
    if av.shape != bv.shape or math.isqrt(abs(pstar)) ** 2 == abs(pstar):
        raise ValueError("need symbols a and b of one length and |pstar| not a square")
    r = math.isqrt(abs(pstar)) + 1
    h = _hadamard_bound(np.abs(av.astype(object)) + r * np.abs(bv.astype(object)), m)

    roots = {}  # q -> s, for every prime q that primes() has yielded

    def primes():
        # s^2 = (pstar/q) pstar mod q: s is a root exactly when pstar is a
        # nonzero square mod q
        for q in _lane_primes():
            if q % 4 == 3:
                s = pow(pstar, (q + 1) // 4, q)
                if s and s * s % q == pstar % q:
                    roots[q] = s
                    yield q

    def lanes(q):
        sb = np.array([roots[qk] for qk in q.tolist()]) * (bv % q) % q
        aq = av % q
        return np.concatenate([(aq + sb) % q, (aq - sb) % q], axis=1)

    run, residues = _lane_run(lambda q: _lane_dets(lanes(q), np.tile(q, 2), m), primes(), h)
    pairs = list(zip(residues[:len(run)], residues[len(run):], run))
    cs = [(x + y) * ((qk + 1) // 2) % qk for x, y, qk in pairs]
    ds = [(x - y) * pow(2 * roots[qk], -1, qk) % qk for x, y, qk in pairs]
    return _crt(cs, run, h), _crt(ds, run, h)
