"""Exact arithmetic in the cyclotomic field Q(zeta_p).

An element is a length-p integer exponent vector, one slot per power
zeta^0..zeta^(p-1).  Two vectors name the same element exactly when they
differ by a constant, since 1 + zeta + ... + zeta^(p-1) = 0 spans the
kernel: identities are decided by that constant difference, and
`_power_basis_text` prints an element on the power basis 1, zeta, ...,
zeta^(p-2), folding zeta^(p-1) away.  No other module knows this storage:
the verifiers receive verdicts, integers and text.  The products of
Lemma 3.2 and of the mtilde closed form are never expanded: their
identities are decided by evaluation at primes q = 1 (mod p), in integer
numpy lanes (`_embeddings`).  Both sides of each lie in K = Q(sqrt(p*)),
fixed by sigma_r: zeta -> zeta^r for each square r mod p, which permutes
the squares and so fixes tau, P1 and P2^2; two embeddings decide them.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arith import OddPrime, _modular_primes, _take_primes, legendre_array, legendre_table
from .errors import DiscrepancyError
from .exactlinalg import IntMatrix, det, toeplitz_det_ztau
from .quadfield import ClassNumberReport, quad_pow


def _constant(vec: np.ndarray) -> int | None:
    """The integer c that an exponent vector names, or None if it names an
    element outside Z: vec - c*e_0 must be constant, so c = vec[0] - vec[1]
    and the slots 1..p-1 agree."""
    return int(vec[0] - vec[1]) if (vec[1:] == vec[1]).all() else None


def _power_basis_text(vec: list) -> str:
    """The element of an integer exponent vector as text on the power basis,
    "-2 + 2*z" for -2 + 2*zeta: zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2))
    is folded away by subtracting its slot from every other, so equal
    elements print alike."""
    coeffs = [c - vec[-1] for c in vec[:-1]]
    if not any(coeffs[1:]):
        return str(coeffs[0])
    terms = []
    for i, c in enumerate(coeffs):
        if c:
            power = "z" if i == 1 else f"z^{i}"
            body = str(abs(c)) if i == 0 else power if abs(c) == 1 else f"{abs(c)}*{power}"
            terms.append(("- " if c < 0 else "+ ") + body)
    text = " ".join(terms)
    return text[2:] if text.startswith("+ ") else "-" + text[2:]


def gauss_sum(p: OddPrime) -> np.ndarray:
    """Quadratic Gauss sum tau = sum over k of (k/p) * zeta^k: its exponent
    vector is the character's table."""
    return legendre_array(p)


def _cyclic_square(vec: np.ndarray) -> np.ndarray:
    """vec * vec on int64 exponent vectors, out[s] = sum_k vec[s + k] vec[-k]:
    the windows of vec twice over against that doubled vector read backwards
    from slot p, exact while sum_k vec[k]^2 fits."""
    p = len(vec)
    twice = np.concatenate((vec, vec))
    return sliding_window_view(twice[:-1], p) @ twice[p:0:-1]


def gauss_square(p: OddPrime) -> tuple[str, int | None]:
    """tau^2 as power-basis text, and the integer it is (None if not in Z);
    its vector's entries are at most p in absolute value, so int64 is exact."""
    square = _cyclic_square(gauss_sum(p))
    return _power_basis_text(square.tolist()), _constant(square)


def ztau_text(p: OddPrime, c: int, d: int) -> str:
    """c + d*tau as power-basis text; slot 0 of tau is (0/p) = 0."""
    return _power_basis_text([c] + [d * x for x in legendre_table(p)[1:]])


def frakp_residue(vec) -> int:
    """Residue of an integral element modulo the prime ideal (1 - zeta),
    from its exponent vector: zeta = 1 there, so it is the entry sum mod p,
    which a constant shift leaves alone."""
    if any(c != int(c) for c in vec):
        raise ValueError("residue defined for integer-coefficient elements only")
    return int(sum(vec)) % len(vec)


def square_sums(p: OddPrime) -> np.ndarray:
    """The exponent vectors of 1 + 2*sum_{k=1..n} zeta^(a k^2), a = 0..p-1,
    as the rows of one (p, p) int64 array, by one bincount."""
    a = np.arange(p.p)
    slots = np.multiply.outer(a, np.arange(1, p.n + 1) ** 2 % p.p)
    slots %= p.p
    slots += p.p * a[:, None]
    sums = np.bincount(slots.ravel(), minlength=p.p * p.p).reshape(p.p, p.p)
    sums *= 2
    sums[:, 0] += 1
    return sums


def check_square_sums(p: OddPrime, sums) -> None:
    """Exact check of the quadratic Gauss identity on the p exponent vectors
    of square_sums: 1 + 2*sum_{k=1..n} zeta^(a k^2) is (a/p) * gauss_sum(p)
    for a != 0, and the constant p for a = 0.  The rows are compared in
    blocks of at most _BLOCK_ENTRIES entries, and the first failing a is
    named."""
    if len(sums) != p.p:
        raise ValueError(f"need {p.p} square sums, got {len(sums)}")
    chi = legendre_array(p)
    rows = max(1, _BLOCK_ENTRIES // p.p)
    for lo in range(0, p.p, rows):
        diff = np.multiply.outer(chi[lo: lo + rows], chi)
        if not lo:
            diff[0, 0] = p.p
        np.subtract(sums[lo: lo + rows], diff, out=diff)
        bad = (diff != diff[:, :1]).any(axis=1)
        if bad.any():
            raise DiscrepancyError(f"square-sum identity failed at p={p.p}, "
                                   f"a={lo + bad.argmax()}")


def cauchy_det(u: list, v: list) -> Fraction:
    """det [ 1/(1 + u_i v_j) ] by exact elimination and by the closed form

        prod_{i<j} (u_i - u_j)(v_j - v_i) / prod_{i,j} (1 + u_i v_j),

    with the denominator running over all index pairs.  Both routes run on
    integers.  With u_i = a_i/b_i and v_j = c_j/d_j in lowest terms and
    N_ij = b_i d_j + a_i c_j, entry (i, j) is b_i d_j / N_ij: the
    elimination scales row i by lcm_j N_ij and takes one det over Z, and
    the closed form is

        prod_{i<j} (a_i b_j - a_j b_i)(c_j d_i - c_i d_j) * prod_i b_i d_i / prod_{i,j} N_ij,

    the prod_{i,j} b_i d_j of the pair factors over the prod_{i<j} b_i b_j
    d_i d_j of the differences leaving prod_i b_i d_i.  The two routes must
    agree exactly; their quotients are compared by cross-multiplication."""
    if len(u) != len(v) or not u:
        raise ValueError("need two equal-length non-empty node lists")
    u = [Fraction(x) for x in u]
    v = [Fraction(x) for x in v]
    a, b = [x.numerator for x in u], [x.denominator for x in u]
    c, d = [x.numerator for x in v], [x.denominator for x in v]
    m = len(u)
    pairs = [[bi * dj + ai * cj for cj, dj in zip(c, d)] for ai, bi in zip(a, b)]
    if not all(map(all, pairs)):
        raise ValueError("node pair with 1 + u*v = 0")
    rows = []
    scale = 1
    for bi, row in zip(b, pairs):
        mult = math.lcm(*row)
        rows.append([bi * dj * (mult // n) for dj, n in zip(d, row)])
        scale *= mult
    direct = det(IntMatrix(rows))
    num = math.prod(b) * math.prod(d)
    for i in range(m):
        for j in range(i + 1, m):
            num *= (a[i] * b[j] - a[j] * b[i]) * (c[j] * d[i] - c[i] * d[j])
    den = math.prod(map(math.prod, pairs))
    if direct * den != num * scale:
        raise DiscrepancyError(
            f"Cauchy determinant mismatch: elimination {Fraction(direct, scale)}, "
            f"closed {Fraction(num, den)}"
        )
    return Fraction(direct, scale)


@dataclass(frozen=True)
class MtildeParts:
    """The structured matrix by its distinct entries, with the witnesses of
    its rank-one-update structure: row 0 is all top, entry (i, j) of a row
    i >= 1 is classes[(i - j) % p], nu is all ones, and the monomial A and
    B have entry (i, j) zeta^a_exp[i][j] and zeta^b_exp[i][j], except that
    row 0 of A is zero and is stored empty.  top is an exponent vector and
    classes the (p, p) array of them."""

    prime: OddPrime
    top: np.ndarray
    classes: np.ndarray
    nu: tuple
    a_exp: tuple
    b_exp: tuple


def build_mtilde(p: OddPrime) -> MtildeParts:
    """Row 0 all -1, class d entry -1 + 2 * sum_{k=0..n} zeta^(d k^2), and
    witnesses A = [zeta^(i j^2)] with row 0 zeroed, B = [zeta^(-i j^2)]."""
    rng = range(p.n + 1)
    a_exp = ((),) + tuple(tuple(i * j * j % p.p for j in rng) for i in rng[1:])
    b_exp = tuple(tuple(-i * j * j % p.p for j in rng) for i in rng)
    top = np.array([-1] + [0] * (p.p - 1))
    return MtildeParts(p, top, square_sums(p), (1,) * len(rng), a_exp, b_exp)


def mtilde_structure_check(parts: MtildeParts) -> bool:
    """Exact entrywise check that the matrix equals -nu nu^T + 2 A B^T.

    A and B are monomial, so entry (i, j) of the right side is
    -nu_i nu_j + 2 * sum_k zeta^(a_exp[i][k] + b_exp[j][k]), an exponent
    count taken by integer arithmetic mod p: one bincount per row i, with
    column j's exponents offset by j*p.  Each count is compared with the
    exponent vector of its entry's class (row 0 being one class)."""
    p = parts.prime
    dim = p.n + 1
    nu, b_exp = np.array(parts.nu), np.array(parts.b_exp)
    offsets = p.p * np.arange(dim)[:, None]
    for i in range(dim):
        a = np.array(parts.a_exp[i], dtype=np.int64)
        exps = (a + b_exp[:, : len(a)]) % p.p + offsets
        vecs = 2 * np.bincount(exps.ravel(), minlength=dim * p.p).reshape(dim, p.p)
        vecs[:, 0] -= nu[i] * nu
        diff = vecs - (parts.classes[(i - np.arange(dim)) % p.p] if i else parts.top)
        bad = (diff != diff[:, :1]).any(axis=1)
        if bad.any():
            raise DiscrepancyError(f"structure identity failed at p={p.p}, "
                                   f"entry ({i},{bad.argmax()})")
    return True


# Entries of the largest array that check_square_sums compares for one block
# of rows.
_BLOCK_ENTRIES = 1 << 20


def _root_of_order(p: int, q: int) -> int:
    """An element of order p in F_q, for a prime q = 1 (mod p): the first
    g^((q-1)/p), g = 2, 3, ..., that is not 1."""
    for g in itertools.count(2):
        w = pow(g, (q - 1) // p, q)
        if w != 1:
            return w


def _powers(x, count: int, q):
    """x^0, ..., x^(count-1) mod q as a (K, count) array, for x and the
    moduli q of shape (K, 1), by doubling."""
    out = np.empty((len(q), count), np.int64)
    out[:, 0] = 1
    done = 1
    while done < count:  # here x is the original x^done
        size = min(done, count - done)
        block = out[:, done:done + size]
        np.multiply(out[:, :size], x, out=block)
        block %= q
        x = x * x % q
        done += size
    return out


def _product(x, q3):
    """The product mod q along axis 1 of the (K, length, columns) array x,
    for q3 the (K, 1, 1) moduli; x is overwritten.  Each step folds the top
    half of axis 1 onto the bottom half, so an odd length leaves its middle
    entry for later, and reduces the (K, half, columns) result by one %
    against the column of primes."""
    while x.shape[1] > 1:
        length, half = x.shape[1], x.shape[1] // 2
        low = x[:, :half]
        low *= x[:, length - half:]
        low %= q3
        x = x[:, :length - half]
    return x[:, 0]


def _embeddings(p: OddPrime, bound: int, products):
    """The residues of tau and of zeta^shift prod_{e=1..p-1} (1 - zeta^e)^x[e],
    for each (shift, x) of products, under zeta -> omega^j for j = 1 and
    the least nonresidue g, modulo primes q = 1 (mod p) whose product Q
    exceeds bound.  Returns (q, tau, values): q of shape (K, 1), tau and
    each value (K, 2), column 1 for g.

    omega has order p mod q, so the maps zeta -> omega^j, j = 1..p-1, are
    the residue maps of the primes of Z[zeta] above q.  The callers'
    differences D lie in K = Q(sqrt(p*)), fixed by sigma_r for r a square,
    so D's residue at omega^j is sigma_j(D)'s at omega: it depends on
    (j/p) only.  If it vanishes at 1 and g for every q, D is in Q O_K, and
    a nonzero D there has |N(D)| >= Q^2, so an embedding above Q > bound.
    The primes below 2^30 run out from p near 15000 on (DiscrepancyError).
    The factors 1 - omega^(j d) are raised to x[d] by binary
    exponentiation and folded by _product; each (K, S, 2) array, S the
    support of x, is reduced by one % against the column of primes."""
    message = f"primes q = 1 (mod {p.p}) ran out below the embedding bound at p={p.p}"
    ql = _take_primes(_modular_primes(p.p), bound, message)
    q = np.array(ql, np.int64)[:, None]
    q3 = q[:, :, None]
    roots = np.array([_root_of_order(p.p, qk) for qk in ql], np.int64)[:, None]
    table = _powers(roots, p.p, q)
    chi = legendre_array(p)
    js = np.array([1, int(np.argmax(chi < 0))])
    tau = (table * chi).sum(axis=1, keepdims=True) * chi[js] % q
    values = []
    for shift, exponents in products:
        support = np.flatnonzero(exponents)
        x = exponents[support, None]
        base = (1 - table[:, support[:, None] * js % p.p]) % q3
        power = np.where(x & 1, base, 1)
        for bit in range(1, int(x.max()).bit_length()):
            base *= base
            base %= q3
            power *= np.where(x >> bit & 1, base, 1)
            power %= q3
        values.append(_product(power, q3) * table[:, shift * js % p.p] % q)
    return q, tau, values


def mtilde_det(parts: MtildeParts) -> tuple[int, int]:
    """det of the structured matrix as (c, d), meaning c + d*tau with
    tau = gauss_sum, tau^2 = p* = (-1)^((p-1)/2) * p.

    Row 0 must be all -1, and check_square_sums must prove each class d's
    entry equal to f(d): f(0) = p, f(d) = (d/p)*tau.  Subtracting column
    j+1 from column j, j < n, turns row 0 into -e_n, leaving (-1)^(n+1)
    times the n x n Toeplitz determinant of t(k) = f(k+1) - f(k) over Z[tau],
    whose parts a(k), from f(0), and b(k) = chi(k+1) - chi(k) are integers:
    as |k| < n, a(-1) = p, a(0) = -p and a(k) = 0 otherwise."""
    p = parts.prime
    if _constant(parts.top) != -1:
        raise DiscrepancyError(f"row 0 is not -1 at p={p.p}")
    check_square_sums(p, parts.classes)
    chi = legendre_array(p)
    k = np.arange(p.n - 1, -p.n, -1)
    c, d = toeplitz_det_ztau(p.p * (k == -1) - p.p * (k == 0),
                             chi[(k + 1) % p.p] - chi[k % p.p], (-1) ** p.n * p.p)
    return (c, d) if p.n % 2 else (-c, -d)


@dataclass(frozen=True)
class MtildeCheck:
    """The structured determinant c + d*tau, proved equal to its closed form."""

    c: int
    d: int

    def __str__(self) -> str:
        if self.d == 0:
            return str(self.c)
        tau = f"{abs(self.d)}*tau"
        if self.c == 0:
            return tau if self.d > 0 else f"-{tau}"
        return f"{self.c} {'+' if self.d > 0 else '-'} {tau}"


def mtilde_det_check(parts: MtildeParts) -> MtildeCheck:
    """Check det of the structured matrix against
    -(-2)^n * conj(prod(1 - zeta^(k^2))) * |prod(zeta^(k^2) - zeta^(j^2))|^2
    exactly, for p >= 5, by evaluation at primes q = 1 (mod p): both sides
    are in Z[zeta], and every embedding of their difference has absolute
    value at most |c| + |d|(isqrt(p) + 1) + 4^n n^n, since |1 - zeta^e| <= 2
    and, by Hadamard on the Vandermonde matrix of the zeta^(k^2),
    |P2| <= n^(n/2).  Both sides lie in K = Q(sqrt(p*)), as _embeddings
    needs: for r a square, sigma_r permutes the squares, so it fixes tau,
    P1 and P2 conj(P2) (P2 up to one sign), and it commutes with conj.

    The closed form needs sum_{k<=n} k^2 = p(p^2-1)/24 to vanish mod p,
    which holds for every prime p >= 5 but not for p = 3."""
    p = parts.prime
    if p.p < 5:
        raise ValueError("closed form requires p >= 5")
    c, d = mtilde_det(parts)
    # conj(P1) = prod_k (1 - zeta^(-k^2)), and P2 conj(P2) is the product
    # over ordered pairs a != b of (1 - zeta^(a^2 - b^2)): in
    # zeta^(b^2) - zeta^(a^2) = zeta^(b^2) (1 - zeta^(a^2 - b^2)) and its
    # conjugate the powers of zeta cancel.  The n pairs a = b are counted
    # at 0 and taken off again.
    squares = np.arange(1, p.n + 1) ** 2 % p.p
    exponents = np.bincount(np.append(squares[:, None] - squares, -squares) % p.p,
                            minlength=p.p)
    exponents[0] -= p.n
    bound = abs(c) + abs(d) * (math.isqrt(p.p) + 1) + 4 ** p.n * p.n ** p.n
    q, tau, (closed,) = _embeddings(p, bound, [(0, exponents)])
    rc, rd, coef = _residues(q, c, d, -((-2) ** p.n))
    if ((rc + rd * tau - closed * coef) % q).any():
        raise DiscrepancyError(f"exact determinant mismatch at p={p.p}")
    return MtildeCheck(c, d)


def _residues(q, *values: int):
    """Each integer of values mod each prime of the (K, 1) array q, as one
    (K, 1) array per value."""
    return np.array([[v % qk for qk in q[:, 0].tolist()] for v in values],
                    np.int64)[:, :, None]


def _closed_form(sign: int, base: int, k: int, tau: bool, eps_exp: int = 0) -> str:
    """sign * base^k * tau * eps^eps_exp as text, unit factors left out."""
    factors = []
    if k:
        factors.append(str(base) if k == 1 else f"{base}^{k}")
    if tau:
        factors.append("tau")
    if eps_exp:
        factors.append("eps" if eps_exp == 1 else f"eps^{eps_exp}")
    text = "*".join(factors) or "1"
    return "-" + text if sign < 0 else text


def lemma32_check(p: OddPrime, report: ClassNumberReport) -> tuple[str, str]:
    """Check P1 = prod_{k=1..n} (1 - zeta^(k^2)) and
    P2^2 = prod_{j<k} (zeta^(j^2) - zeta^(k^2))^2 against their closed
    forms exactly, by evaluation at primes q = 1 (mod p); return the two
    closed forms.  report is the class-number report of the quadratic
    field Q(sqrt(p*)), p* = (-1)^((p-1)/2) p: h = report.h and, for
    p = 1 (mod 4), eps = report.unit.

    For p = 3 (mod 4), h is the class number of Q(sqrt(-p)) and

        P1 = (-1)^((h+1)/2) * tau,   P2^2 = (-p)^((p-3)/4).

    For p = 1 (mod 4), h is the class number of Q(sqrt(p)) and eps its
    fundamental unit.  There tau = sqrt(p), so
    2*eps^h = A + B*tau for eps^h = (A + B*sqrt(p))/2, and both identities
    are checked with the unit multiplied out, never inverted:

        P1 * 2eps^h = 2*tau,
        2 * P2^2 = (-1)^((p-1)/4) * p^((p-5)/4) * tau * 2eps^h.

    Every identity has integral sides, and the bound on the embeddings of
    their difference takes |sigma(P1)| <= 2^n, |sigma(P2^2)| <= n^n
    (Hadamard), sqrt(p) <= isqrt(p) + 1 and |sigma(2eps^h)| <= |A| +
    |B|(isqrt(p) + 1); A and B enter reduced mod q.  Every side lies in
    K = Q(sqrt(p*)), as _embeddings needs: for r a square, sigma_r permutes
    the squares, so it fixes tau, P1 and P2^2 (P2 up to one sign)."""
    if p.p < 5:
        raise ValueError("closed forms require p >= 5")
    if (report.unit is None) != (p.p % 4 == 3):
        raise ValueError("the report carries the fundamental unit exactly when p = 1 (mod 4)")
    h = report.h
    r = math.isqrt(p.p) + 1
    if p.p % 4 == 3:
        sign = (-1) ** ((h + 1) // 2)
        k = (p.p - 3) // 4
        bound = max(2 ** p.n + r, p.n ** p.n + p.p ** k)
        form_one = _closed_form(sign, p.p, 0, True)
        form_two = _closed_form((-1) ** k, p.p, k, False)
    else:
        power = quad_pow(report.unit, h)
        sign = (-1) ** ((p.p - 1) // 4)
        k = (p.p - 5) // 4
        unit = abs(power.a) + abs(power.b) * r
        bound = max(2 ** p.n * unit + 2 * r, 2 * p.n ** p.n + p.p ** k * r * unit)
        form_one = _closed_form(1, p.p, 0, True, -h)
        form_two = _closed_form(sign, p.p, k, True, h)
    # P2 = zeta^E prod_d (1 - zeta^d)^m(d): zeta^(b^2) - zeta^(a^2) is
    # zeta^(b^2) (1 - zeta^d) with d = a^2 - b^2, m(d) counts the pairs
    # a < b with that d, and E sums their b^2
    i = np.arange(p.n)
    squares = (i + 1) ** 2 % p.p
    m = np.bincount(((squares[:, None] - squares) % p.p)[i[:, None] < i], minlength=p.p)
    products = [(0, np.bincount(squares, minlength=p.p)), (int(i @ squares) % p.p, m)]
    q, tau, (one, two) = _embeddings(p, bound, products)
    two = two * two % q
    if p.p % 4 == 3:
        [const] = _residues(q, (-p.p) ** k)
        diff_one = one - sign * tau
        diff_two = two - const
    else:
        a, b, const = _residues(q, power.a, power.b, sign * p.p ** k)
        twice = (a + b * tau) % q
        diff_one = one * twice - 2 * tau
        diff_two = 2 * two - const * (tau * twice % q)
    if (diff_one % q).any():
        raise DiscrepancyError(
            f"first identity failed at p={p.p}: prod(1 - zeta^(k^2)) != {form_one}"
        )
    if (diff_two % q).any():
        raise DiscrepancyError(
            f"second identity failed at p={p.p}: "
            f"prod_(j<k) (zeta^(j^2) - zeta^(k^2))^2 != {form_two}"
        )
    return form_one, form_two
