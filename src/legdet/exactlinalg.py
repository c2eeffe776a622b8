"""Exact linear algebra over the integers: dense elimination, the Toeplitz
determinant on bigints and on numpy lanes mod many primes, and the
characteristic polynomial of a Toeplitz matrix."""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class IntPolynomial:
    """Integer polynomial, coefficients ascending by degree."""

    coeffs: tuple

    def __post_init__(self) -> None:
        cs = tuple(int(c) for c in self.coeffs)
        while len(cs) > 1 and cs[-1] == 0:
            cs = cs[:-1]
        object.__setattr__(self, "coeffs", cs)

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, t: int) -> int:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * t + c
        return acc

    def __str__(self) -> str:
        terms = []
        for k in range(self.degree, -1, -1):
            c = self.coeffs[k]
            if c == 0 and self.degree > 0:
                continue
            if k == 0:
                body = str(abs(c))
            else:
                mag = "" if abs(c) == 1 else f"{abs(c)}*"
                body = f"{mag}t" if k == 1 else f"{mag}t^{k}"
            if not terms:
                terms.append(("-" if c < 0 else "") + body)
            else:
                terms.append(("- " if c < 0 else "+ ") + body)
        return " ".join(terms)


def poly_mul(a: IntPolynomial, b: IntPolynomial) -> IntPolynomial:
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, ca in enumerate(a.coeffs):
        if ca == 0:
            continue
        for j, cb in enumerate(b.coeffs):
            out[i + j] += ca * cb
    return IntPolynomial(tuple(out))


def poly_pow(a: IntPolynomial, k: int) -> IntPolynomial:
    if k < 0:
        raise ValueError("negative power")
    acc = IntPolynomial((1,))
    base = a
    while k:
        if k & 1:
            acc = poly_mul(acc, base)
        base = poly_mul(base, base)
        k >>= 1
    return acc


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


def _exact_div(a, b):
    q, r = divmod(a, b)
    if r:
        raise DiscrepancyError("exact division left a remainder")
    return q


def _lstrip0(c: list) -> list:
    k = 0
    while k < len(c) and not c[k]:
        k += 1
    return c[k:]


def _prem_window(a: list, b: list, steps: int, beta) -> list:
    """The top coefficients of the pseudo-remainder lc(b)^steps * a mod b,
    divided exactly by beta.

    a and b are coefficient windows of equal length, leading coefficient
    first: a starts at degree deg b + steps - 1, b at its leading
    coefficient.  Each step eliminates a's current leading term, so the
    result is the window steps shorter that starts at degree deg b - 1.
    Its coefficient of degree e reads a at degree e and up and b at degree
    e - steps + 1 and up, all inside the windows, so it equals the full
    pseudo-remainder's.  Every coefficient computed is divided by beta, and
    a nonzero remainder raises DiscrepancyError.

    Two steps, the normal case, are one expression per coefficient: with
    l = lc(b) and r1 = l a_1 - a_0 b_1 the first step's leading coefficient,
    coefficient k is l^2 a_(k+2) - (l a_0) b_(k+2) - r1 b_(k+1).

    One check covers every division: floor division leaves remainders that
    all share beta's sign, so they all vanish exactly when their sum does,
    and that sum is the numerators' sum minus beta times the quotients'.
    In the two-step case the numerators' sum is l^2 sum a_(k+2) - (l a_0)
    sum b_(k+2) - r1 sum b_(k+1), three sums of the inputs.
    """
    lb, tail_b = b[0], b[1:]
    if steps == 2:
        l2, la0, r1 = lb * lb, lb * a[0], lb * a[1] - a[0] * b[1]
        q = [(l2 * x - la0 * y - r1 * z) // beta for x, y, z in zip(a[2:], b[2:], tail_b)]
        total = l2 * sum(a[2:]) - la0 * sum(b[2:]) - r1 * sum(b[1:-1])
    else:
        r = a
        for _ in range(steps):
            c = r[0]
            if c:
                r = [lb * x - c * y for x, y in zip(r[1:], tail_b)]
            else:
                r = [lb * x for x in r[1:]]
        q = [x // beta for x in r]
        total = sum(r)
    if total != beta * sum(q):
        raise DiscrepancyError("subresultant step did not divide exactly")
    return q


def toeplitz_det(t, m: int) -> int:
    """Exact determinant of the integer m x m Toeplitz matrix [t(i - j)], 0 <= i, j < m.

    Reversing the rows gives a Hankel matrix, whose determinant is the
    principal subresultant coefficient of index m - 1 of F0 = X^(2m-1) and
    F1 = sum_k t(m-1-k) X^(2m-2-k); the two sign changes cancel.  The
    Brown-Collins subresultant PRS reaches it (Brown & Traub 1971) as the
    scaled leading coefficient of the remainder of degree m - 1.

    Each step keeps only the window of coefficients that this answer reads.
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

    Every division is exact in theory, so a nonzero remainder of any
    computed coefficient raises DiscrepancyError.
    """
    if m < 1:
        raise ValueError("Toeplitz dimension must be at least 1")
    f1 = _lstrip0([t(m - 1 - k) for k in range(2 * m - 1)])
    d = len(f1) - 1
    delta = 2 * m - 1 - d
    if d < m - 1:
        return 0
    if d == m - 1:
        return f1[0] ** delta
    # X^(2m-1) down to the first floor, 2m - 1 - d
    f0 = [1] + [0] * d
    beta, psi = (-1) ** (delta + 1), -1
    while True:
        lc = f1[0]
        window = _prem_window(f0[: len(f1)], f1, delta + 1, beta)
        psi = _exact_div((-lc) ** delta, psi ** (delta - 1))
        r = _lstrip0(window)
        # deg f1 - deg r; an all-zero window gives d - gap = floor - 1
        gap = len(window) - len(r) + 1
        if d - gap < m - 1:
            return 0
        if d - gap == m - 1:
            return _exact_div((-1) ** (gap - 1) * r[0] ** gap, psi ** (gap - 1))
        beta = -lc * psi**gap
        f0, f1, d, delta = f1, r, d - gap, gap


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


# From this many lanes per prime on, _lane_reduce divides prime by prime.
# Timed on 6 and 25 primes (shared 2-core Xeon, numpy 2.4), one % over
# the whole array is faster below 500-1000 lanes per prime and up to 4x
# slower above 3000.
_REDUCE_BY_PRIME_FROM = 1024


def _lane_reduce(w, q3, ql: list):
    """w mod q in place, for a nonnegative (K, R, width) lane array w, q3
    the (K, 1, 1) moduli and ql the same as Python ints; returns w.

    Callers keep w nonnegative: numpy's % and // take about twice as long
    on mixed signs, 99 against 52 us on a (26, 1, 400) array, though the
    same on small ones (11 us on (6, 20, 15)).

    On large windows it reduces one prime at a time, as w[k] -
    (w[k] // ql[k]) * ql[k]: numpy divides by a scalar with a multiply
    and shifts, not a hardware division, so this is several times faster
    than w % q3 per element, at the cost of 3 calls per prime.
    """
    if w[0].size < _REDUCE_BY_PRIME_FROM:
        w %= q3
        return w
    for wk, qk in zip(w, ql):
        t = wk // qk
        t *= qk
        wk -= t
    return w


def _lane_lead(w):
    """The first nonzero column over Z of each row's lane windows w, a
    (K, R, width) int64 array; the mask of the rows whose column is the
    most common one (None when all are); and the mask of the unlucky
    primes, of shape (K,) (None when there are none).

    Column k of a row is zero over Z exactly when it is zero in every lane
    of the row, and nonzero over Z when it is nonzero in some lane; the
    primes of the lanes whose own first nonzero column lies further right
    are then unlucky.  An all-zero window gives its width.  Only when no
    prime is unlucky are the columns exact and the rows compared.
    """
    if np.count_nonzero(w[:, :, 0]) == w.shape[0] * w.shape[1]:
        return 0, None, None
    nz = w != 0
    first = np.where(nz.any(axis=2), nz.argmax(axis=2), w.shape[2])
    lead = first.min(axis=0)
    unlucky = (first > lead).any(axis=1)
    if unlucky.any():
        return None, None, unlucky
    common = np.bincount(lead).argmax()
    keep = lead == common
    return int(common), (None if keep.all() else keep), None


def _lane_dets(f1, q, m: int):
    """The m x m Toeplitz determinants of a batch of R rows mod each of K
    lane primes, by the windowed Brown-Collins PRS of toeplitz_det run over
    F_q in every lane at once.

    f1 is a (K, R, 2m - 1) int64 array: f1[k, r] holds the residues mod
    q[k], in [0, q[k]), of the coefficients of row r's F1 (toeplitz_det's
    F1, leading first).  The lanes are the (prime, row) pairs, and every
    lane takes the same steps on its own residues, so one array of shape
    (K, R, width) holds each polynomial window; each prime's lanes are one
    contiguous block, which _lane_reduce reduces by a scalar modulus.  Each
    step negates its scalars, as q - x, so that every window it reduces is
    a sum of at most three products of numbers in [0, q], nonnegative and
    below 3 * 2^60.

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
    lane keeps P, the denominator and extra, three (K, R) arrays, and
    inverts the denominator once, at the end.

    A row whose leading column over Z differs from the most common one has
    its own degree sequence: it leaves the batch there and is reported
    dropped, never carried on in lockstep.  Returns (alive, residues, None),
    alive the indices of the rows kept and residues their determinants mod
    q, one list of K ints per row kept; or (None, None, unlucky) when some
    column of some row reads zero in some lanes of the row only, unlucky
    being the (K,) bool mask of those lanes' primes.
    """
    j = m - 1
    ql, qr, q3 = q.tolist(), q[:, None], q[:, None, None]
    alive = np.arange(f1.shape[1])
    lead, keep, unlucky = _lane_lead(f1)
    if unlucky is not None:
        return None, None, unlucky
    if keep is not None:
        alive, f1 = alive[keep], f1[:, keep]
    f1 = f1[:, :, lead:]
    n0, n1 = 2 * m - 1, 2 * m - 2 - lead
    if n1 < j:
        return alive, [[0] * len(ql) for _ in alive], None
    if n1 == j:
        return alive, _lane_pow(f1[:, :, 0], n0 - n1, qr).T.tolist(), None
    f0 = np.zeros_like(f1)
    f0[:, :, 0] = 1
    prefix = den = extra = np.ones(f1.shape[:2], dtype=np.int64)
    sign = 1
    while True:
        lc = f1[:, :, 0]
        delta = n0 - n1
        a = f0[:, :, : f1.shape[2]]
        if delta == 1:
            # the two elimination steps as one expression, one reduction,
            # on the negated scalars -(l a_0) and -r1, r1 being the first
            # step's leading coefficient
            lcd = lc * lc % qr
            lcc, a0 = lc[:, :, None], a[:, :, :1]
            nr1 = (a0 * f1[:, :, 1:2] - lcc * a[:, :, 1:2]) % q3
            window = lcd[:, :, None] * a[:, :, 2:]
            window += (q3 - lcc * a0 % q3) * f1[:, :, 2:]
            window += nr1 * f1[:, :, 1:-1]
            _lane_reduce(window, q3, ql)
        else:
            lcd = _lane_pow(lc, delta + 1, qr)
            window = a
            for _ in range(delta + 1):
                w = window
                window = lc[:, :, None] * w[:, :, 1:]
                window += (q3 - w[:, :, :1]) * f1[:, :, 1:w.shape[2]]
                _lane_reduce(window, q3, ql)
        prefix = prefix * lcd % qr
        lead, keep, unlucky = _lane_lead(window)
        if unlucky is not None:
            return None, None, unlucky
        if keep is not None:
            alive, window, f1, lc = alive[keep], window[:, keep], f1[:, keep], lc[:, keep]
            prefix, den, extra = prefix[:, keep], den[:, keep], extra[:, keep]
        gap = lead + 1
        n2 = n1 - gap
        if n2 < j:
            return alive, [[0] * len(ql) for _ in alive], None
        # sigma_j(A, B) against sigma_j(B, rem(A, B)): (-1)^((n0 - j)(n1 - j))
        if (n0 - j) * (n1 - j) % 2:
            sign = -sign
        den = den * _lane_pow(prefix, gap, qr) % qr
        if gap > 1:
            extra = extra * _lane_pow(lc, gap - 1, qr) % qr
        f2 = window[:, :, lead:]
        if n2 == j:
            num = prefix * extra % qr * _lane_pow(f2[:, :, 0], gap, qr) % qr
            return alive, [
                [sign * x * pow(y, -1, qk) % qk for x, y, qk in zip(nr, dr, ql)]
                for nr, dr in zip(num.T.tolist(), den.T.tolist())
            ], None
        f0, f1, n0, n1 = f1, f2, n1, n2


def _hadamard_bounds(rows, m: int) -> list:
    """toeplitz_det_mod's bound H for each row of the (R, 2m - 1) array rows."""
    top = np.sort(np.abs(rows), axis=1)[:, -m:].astype(object)
    return [math.isqrt(s ** m) + 1 for s in (top * top).sum(axis=1)]


def _lane_run(lanes, m: int, primes, limit: int):
    """(chosen, alive, residues) of _lane_dets on lanes(q), a batch mod the
    (K,) array q of the primes taken in order from primes until their
    product exceeds limit; unlucky ones are dropped, the survivors refilled
    by _take_primes and the run repeated."""
    primes, chosen = iter(primes), []
    while True:
        chosen = _take_primes(primes, limit, "lane primes ran out below the CRT bound", chosen)
        q = np.array(chosen, dtype=np.int64)
        alive, residues, unlucky = _lane_dets(lanes(q), q, m)
        if unlucky is None:
            return chosen, alive, residues
        chosen = [qk for qk, bad in zip(chosen, unlucky.tolist()) if not bad]


def _crt(residues, chosen: list, bounds) -> list:
    """By Garner's method, the symmetric residue mod prod(chosen) of each
    list in residues, whose entries are residues mod the primes chosen; one
    of absolute value above its entry in bounds raises DiscrepancyError."""
    # value = sum of moduli[k] * digit_k, each digit in [0, q_k)
    moduli, inverses, modulus = [], [], 1
    for qk in chosen:
        moduli.append(modulus)
        inverses.append(pow(modulus % qk, -1, qk))
        modulus *= qk
    values = []
    for res, bound in zip(residues, bounds):
        value = 0
        for r, qk, mk, ik in zip(res, chosen, moduli, inverses):
            value += mk * ((r - value % qk) * ik % qk)
        values.append(value - modulus if 2 * value > modulus else value)
        if abs(values[-1]) > bound:
            raise DiscrepancyError("multimodular determinant exceeds its Hadamard bound")
    return values


def _toeplitz_dets_crt(rows, m: int, primes, bound=None) -> list:
    """The m x m Toeplitz determinants of the F1s rows, an (R, 2m - 1) int64
    array, on lanes whose primes multiply past 2 max H_row (see
    toeplitz_det_mod), None for each row _lane_dets dropped.  A CRT value
    above its row's own H_row raises DiscrepancyError.

    bound, when given, bounds |det| of every row and replaces each H_row,
    both as the CRT limit and as the check on each CRT value.  The zero
    tests are then no longer exact, but every kept lane still yields its
    row's determinant mod q (see toeplitz_det_mod)."""
    bounds = _hadamard_bounds(rows, m) if bound is None else [bound] * len(rows)
    chosen, alive, residues = _lane_run(lambda q: rows % q[:, None, None], m,
                                        primes, 2 * max(bounds))
    alive, values = alive.tolist(), [None] * len(rows)
    for i, value in zip(alive, _crt(residues, chosen, [bounds[i] for i in alive])):
        values[i] = value
    return values


def toeplitz_det_mod(t, m: int, bound=None) -> int:
    """Exact determinant of the m x m integer Toeplitz matrix [t(i - j)],
    0 <= i, j < m, by toeplitz_det's windowed PRS over F_q for many primes
    q < 2^30 at once, rebuilt by the Chinese remainder theorem.

    Bound.  Let S be the sum of the m largest of the squares t(k)^2,
    |k| < m, and H = isqrt(S^m) + 1.  Every coefficient the PRS reads, the
    determinant included, belongs to a subresultant of F0 = X^(2m-1) and
    F1 of index j >= m - 1 (Brown & Traub 1971), so it is a determinant of
    Sylvester rows of F0 and F1.  F0's rows are unit vectors; expanding
    along them leaves +- a minor of 2m - 1 - j <= m rows and as many
    columns.  Each of its rows holds at most m of F1's coefficients, each
    at most once, so its squared norm is at most S, and Hadamard's
    inequality gives |c| <= S^(m/2) < H.  Primes are taken until their
    product Q exceeds 2H; then a coefficient is zero over Z exactly when it
    is zero mod every q, and the symmetric residue of the CRT value mod Q
    is the determinant.

    Against H, zero tests are exact.  A column that is zero in some lanes
    but not in all is nonzero over Z, and the primes of those lanes are
    unlucky: they are dropped and the whole run repeats with the next
    primes, so the verdict is deterministic.  In agreeing lanes every
    leading coefficient is a unit mod q, and each lane computes the
    determinant mod q.  A CRT value of absolute value above H raises
    DiscrepancyError, as does running out of primes.  The values t(k) must
    fit in int64.

    A value bound.  bound, when given, is a bound on |det| alone.  It
    replaces H both as the CRT limit (primes multiply past 2 bound) and as
    the check on the CRT value.  The zero tests are then no longer exact:
    a coefficient nonzero over Z may vanish mod every prime taken, and then
    all lanes follow another degree sequence than Z takes.  But every lane
    kept agrees with the other lanes of its row on each leading column, so
    it follows its own residues' degree sequence with leading coefficients
    that are units mod q: it runs the subresultant PRS over the field F_q,
    and so yields det mod q whatever sequence Z takes.  With |det| <= bound
    and a prime product above 2 bound, the symmetric residue is again the
    determinant.

    This is the batch of one of _toeplitz_dets_crt, whose single row is
    always the most common and so is never dropped.
    """
    if m < 1:
        raise ValueError("Toeplitz dimension must be at least 1")
    rows = np.array([[t(m - 1 - k) for k in range(2 * m - 1)]], dtype=np.int64)
    return _toeplitz_dets_crt(rows, m, _lane_primes(), bound)[0]


def toeplitz_det_ztau(a, b, m: int, pstar: int) -> tuple[int, int]:
    """Exact (c, d), meaning c + d*tau, of det [a(i - j) + b(i - j)*tau],
    0 <= i, j < m, tau^2 = pstar, for int64-valued a and b, |pstar| no square.

    At primes q = 3 (mod 4) with pstar a nonzero square, s = pstar^((q+1)/4)
    is a root of it, and tau -> +-s map the matrix to the rows a +- s*b of
    one _lane_run batch, whose determinants D+- = c +- d*s give c and d mod
    q.  toeplitz_det_mod's bound, in each complex embedding on |a| + r|b|,
    r = isqrt(|pstar|) + 1, bounds every coefficient kappa the PRS reads by
    h, so |N(kappa)| <= h^2, and tau -> s kills kappa only if q | N(kappa):
    primes multiply past 2h^2, zero tests are exact, and the conjugate rows
    share one degree sequence.  A row leaving the batch, or c or d above h,
    raises DiscrepancyError.
    """
    if m < 1 or math.isqrt(abs(pstar)) ** 2 == abs(pstar):
        raise ValueError("need m >= 1 and |pstar| not a square")
    av, bv = (np.array([f(k) for k in range(m - 1, -m, -1)], np.int64) for f in (a, b))
    [h] = _hadamard_bounds([np.abs(av) + (math.isqrt(abs(pstar)) + 1) * np.abs(bv)], m)

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
        s = np.array([roots[qk] for qk in q.tolist()])[:, None]
        sb = s * (bv % q[:, None]) % q[:, None]
        return np.stack([av + sb, av - sb], axis=1) % q[:, None, None]

    chosen, alive, residues = _lane_run(lanes, m, primes(), 2 * h * h)
    if len(alive) < 2:
        raise DiscrepancyError("the conjugate rows left each other's degree sequence")
    cs = [(x + y) * ((qk + 1) // 2) % qk for x, y, qk in zip(*residues, chosen)]
    ds = [(x - y) * pow(2 * roots[qk], -1, qk) % qk for x, y, qk in zip(*residues, chosen)]
    return tuple(_crt([cs, ds], chosen, [h, h]))


# Points evaluated beyond the d + 2 that toeplitz_charpoly needs, d = m, or
# m/2 when even.  They stand in for points whose PRS leaves the batch, so
# that one batch nearly always suffices: for C_p, p <= 131, on the even path,
# at most 5 of the m/2 + 8 points leave (x = 0, 1, 2, 3, 5 at p = 89), all
# at x <= 11 (x = 11 at p = 79).
_SPARE_POINTS = 6


def toeplitz_charpoly(t, m: int, *, even: bool = False) -> IntPolynomial:
    """Characteristic polynomial det(xI - T) of the m x m Toeplitz matrix
    T = [t(i - j)], 0 <= i, j < m.

    xI - T is Toeplitz with t'(0) = x - t(0) and t'(k) = -t(k): its F1s
    differ only in the coefficient of t'(0).  The values at x = 0, 1, 2, ...
    are one batch of _toeplitz_dets_crt, on the multimodular lanes.  A
    point whose PRS leaves the batch's degree sequence is dropped there;
    further points are evaluated until at least d + 2 values are known,
    d being the degree interpolated: m, or m/2 when even.

    even is the caller's contract that T is similar to -T and m is even.
    Then f(x) = det(xI - T) = det(xI + T) = (-1)^m f(-x) = f(-x), so f(x)
    = g(x^2) with g an integer polynomial of degree m/2, and only x =
    0..m/2 + 1 (plus the spares) are evaluated.  The caller must have
    checked the similarity; the values here need not show it.

    Newton's divided differences interpolate through every known point,
    on the nodes x (on the nodes x^2 for g when even).  At integer nodes
    the divided differences of an integer polynomial are integers, so every
    division is exact, and an inexact one raises DiscrepancyError.  The
    polynomial interpolated has degree d, so every divided difference of
    order above d must be exactly 0, else DiscrepancyError: with d + 1
    correct values fixing it, one wrong value can never pass.  A Horner
    loop expands the Newton form of order d into monomials, and g is
    spread to the even degrees; the monic leading term is computed, not
    assumed.
    """
    if even and m % 2:
        raise ValueError("an even characteristic polynomial needs an even dimension")
    degree = m // 2 if even else m
    row = np.array([-t(m - 1 - k) for k in range(2 * m - 1)], dtype=np.int64)
    nodes, values = [], []
    start = 0
    while len(nodes) < degree + 2:
        xs = np.arange(start, start + degree + 2 + _SPARE_POINTS - len(nodes), dtype=np.int64)
        rows = np.tile(row, (len(xs), 1))
        rows[:, m - 1] += xs
        for x, value in zip(xs.tolist(), _toeplitz_dets_crt(rows, m, _lane_primes())):
            if value is not None:
                nodes.append(x * x if even else x)
                values.append(value)
        start += len(xs)
    # in place: newton[i] becomes the divided difference over nodes[0..i]
    newton = values
    for k in range(1, len(nodes)):
        for i in range(len(nodes) - 1, k - 1, -1):
            newton[i] = _exact_div(newton[i] - newton[i - 1], nodes[i] - nodes[i - k])
    if any(newton[degree + 1:]):
        raise DiscrepancyError("a divided difference of order above the degree is nonzero")
    coeffs = [newton[degree]]
    for k in range(degree - 1, -1, -1):  # coeffs = coeffs * (y - nodes[k]) + newton[k]
        yk = nodes[k]
        coeffs = [a - yk * b for a, b in zip([0] + coeffs, coeffs + [0])]
        coeffs[0] += newton[k]
    if even:
        coeffs = [c for g in coeffs for c in (g, 0)][:-1]
    return IntPolynomial(tuple(coeffs))

