"""Exact arithmetic in the cyclotomic field Q(zeta_p).

Elements are stored on the power basis 1, zeta, ..., zeta^(p-2); the single
relation zeta^(p-1) = -(1 + zeta + ... + zeta^(p-2)) keeps every element in
canonical form.  Exponents are always reduced mod p first since zeta^p = 1.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from operator import add, sub

from .arith import OddPrime, legendre_table
from .errors import DiscrepancyError
from .exactlinalg import IntMatrix, det, toeplitz_det
from .quadfield import QuadElem, fundamental_unit, quad_pow


def _norm_coeff(c):
    if isinstance(c, Fraction) and c.denominator == 1:
        return int(c)
    return c


class CycElem:
    """Element of Q(zeta_p) with exact rational coefficients."""

    __slots__ = ("prime", "coeffs")

    def __init__(self, prime: OddPrime, coeffs) -> None:
        coeffs = tuple(_norm_coeff(c) for c in coeffs)
        if len(coeffs) != prime.p - 1:
            raise ValueError(f"need {prime.p - 1} coefficients, got {len(coeffs)}")
        self.prime = prime
        self.coeffs = coeffs

    @classmethod
    def from_exponents(cls, prime: OddPrime, vec) -> "CycElem":
        # vec has length p, one slot per exponent; fold zeta^(p-1) away
        top = vec[prime.p - 1]
        return cls(prime, [vec[i] - top for i in range(prime.p - 1)])

    @classmethod
    def const(cls, prime: OddPrime, c) -> "CycElem":
        return cls(prime, [c] + [0] * (prime.p - 2))

    @classmethod
    def zeta_pow(cls, prime: OddPrime, e: int) -> "CycElem":
        vec = [0] * prime.p
        vec[e % prime.p] = 1
        return cls.from_exponents(prime, vec)

    def _check(self, other: "CycElem") -> None:
        if self.prime.p != other.prime.p:
            raise ValueError("mixed cyclotomic fields")

    def is_integral(self) -> bool:
        return all(isinstance(c, int) for c in self.coeffs)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, CycElem)
            and self.prime.p == other.prime.p
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.prime.p, self.coeffs))

    def __add__(self, other: "CycElem") -> "CycElem":
        self._check(other)
        return CycElem(self.prime, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "CycElem") -> "CycElem":
        self._check(other)
        return CycElem(self.prime, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self) -> "CycElem":
        return CycElem(self.prime, [-a for a in self.coeffs])

    def __mul__(self, other: "CycElem") -> "CycElem":
        self._check(other)
        p = self.prime.p
        out = [0] * p
        for i, ci in enumerate(self.coeffs):
            if ci == 0:
                continue
            for j, cj in enumerate(other.coeffs):
                if cj == 0:
                    continue
                out[(i + j) % p] += ci * cj
        return CycElem.from_exponents(self.prime, out)

    def scale(self, c) -> "CycElem":
        return CycElem(self.prime, [c * a for a in self.coeffs])

    def conj(self) -> "CycElem":
        """Complex conjugation, the field automorphism zeta -> zeta^(-1)."""
        p = self.prime.p
        vec = [0] * p
        for i, c in enumerate(self.coeffs):
            vec[(p - i) % p] += c
        return CycElem.from_exponents(self.prime, vec)

    def __str__(self) -> str:
        if all(c == 0 for c in self.coeffs[1:]):
            return str(self.coeffs[0])
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            mag = abs(c)
            body = "1" if i == 0 else ("z" if i == 1 else f"z^{i}")
            if i > 0 and mag != 1:
                body = f"{mag}*{body}"
            elif i == 0:
                body = str(mag)
            parts.append(("- " if c < 0 else "+ ") + body)
        text = " ".join(parts)
        return text[2:] if text.startswith("+ ") else "-" + text[2:]


def gauss_sum(p: OddPrime) -> CycElem:
    """Quadratic Gauss sum: sum over k of (k/p) * zeta^k, exact."""
    return CycElem.from_exponents(p, legendre_table(p))


def gauss_sum_scaled(p: OddPrime, a: int) -> CycElem:
    """Twisted sum over k of (k/p) * zeta^(a*k), exact."""
    chi = legendre_table(p)
    vec = [0] * p.p
    for k in range(1, p.p):
        vec[(a * k) % p.p] += chi[k]
    return CycElem.from_exponents(p, vec)


def frakp_residue(x: CycElem) -> int:
    """Residue of an integral element modulo the prime ideal (1 - zeta):
    the coefficient sum mod p."""
    if not x.is_integral():
        raise ValueError("residue defined for integer-coefficient elements only")
    return sum(x.coeffs) % x.prime.p


def _square_sum(p: OddPrime, a: int) -> CycElem:
    """1 + 2*sum_{k=1..n} zeta^(a k^2), exact."""
    vec = [0] * p.p
    vec[0] = 1
    for k in range(1, p.n + 1):
        vec[(a * k * k) % p.p] += 2
    return CycElem.from_exponents(p, vec)


def quadratic_gauss_identity(p: OddPrime, a: int) -> bool:
    """Exact check of 1 + 2*sum_{k=1..n} zeta^(a k^2) = (a/p) * gauss_sum(p).

    For a divisible by p the left side degenerates to the constant p,
    whose (1 - zeta)-residue is 0; both facts are checked instead.
    """
    lhs = _square_sum(p, a)
    if a % p.p == 0:
        if lhs != CycElem.const(p, p.p) or frakp_residue(lhs) != 0:
            raise DiscrepancyError(f"degenerate square sum wrong at p={p.p}")
        return True
    chi = legendre_table(p)
    rhs = CycElem.from_exponents(p, chi).scale(chi[a % p.p])
    if lhs != rhs:
        raise DiscrepancyError(f"square-sum identity failed at p={p.p}, a={a}")
    return True


def cauchy_det(u: list, v: list) -> Fraction:
    """det [ 1/(1 + u_i v_j) ] by exact elimination and by the closed form

        prod_{i<j} (u_i - u_j)(v_j - v_i) / prod_{i,j} (1 + u_i v_j),

    with the denominator running over all index pairs.  The two routes
    must agree exactly."""
    if len(u) != len(v) or not u:
        raise ValueError("need two equal-length non-empty node lists")
    u = [Fraction(x) for x in u]
    v = [Fraction(x) for x in v]
    m = len(u)
    for ui in u:
        for vj in v:
            if 1 + ui * vj == 0:
                raise ValueError("node pair with 1 + u*v = 0")
    # clear each row's denominators, eliminate over Z, divide back out
    rows = []
    scale = 1
    for ui in u:
        row = [1 / (1 + ui * vj) for vj in v]
        mult = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (mult // x.denominator) for x in row])
        scale *= mult
    direct = Fraction(det(IntMatrix(rows)), scale)
    num = Fraction(1)
    for i in range(m):
        for j in range(i + 1, m):
            num *= (u[i] - u[j]) * (v[j] - v[i])
    den = Fraction(1)
    for ui in u:
        for vj in v:
            den *= 1 + ui * vj
    closed = num / den
    if direct != closed:
        raise DiscrepancyError(
            f"Cauchy determinant mismatch: elimination {direct}, closed {closed}"
        )
    return direct


@dataclass(frozen=True)
class MtildeParts:
    """The structured matrix by its distinct entries, with the witnesses of
    its rank-one-update structure: row 0 is all top, entry (i, j) of a row
    i >= 1 is classes[(i - j) % p], nu is all ones, and the monomial A and
    B have entry (i, j) zeta^a_exp[i][j] and zeta^b_exp[i][j], except that
    row 0 of A is zero and is stored empty."""

    prime: OddPrime
    top: CycElem
    classes: tuple
    nu: tuple
    a_exp: tuple
    b_exp: tuple


def build_mtilde(p: OddPrime) -> MtildeParts:
    """Row 0 all -1, class d entry -1 + 2 * sum_{k=0..n} zeta^(d k^2), and
    witnesses A = [zeta^(i j^2)] with row 0 zeroed, B = [zeta^(-i j^2)]."""
    rng = range(p.n + 1)
    a_exp = ((),) + tuple(tuple(i * j * j % p.p for j in rng) for i in rng[1:])
    b_exp = tuple(tuple(-i * j * j % p.p for j in rng) for i in rng)
    classes = tuple(_square_sum(p, d) for d in range(p.p))
    return MtildeParts(p, CycElem.const(p, -1), classes, (1,) * len(rng), a_exp, b_exp)


def mtilde_structure_check(parts: MtildeParts) -> bool:
    """Exact entrywise check that the matrix equals -nu nu^T + 2 A B^T.

    A and B are monomial, so entry (i, j) of the right side is
    -nu_i nu_j + 2 * sum_k zeta^(a_exp[i][k] + b_exp[j][k]), an exponent
    count taken by integer arithmetic mod p.  Two counts are the same
    element of Q(zeta_p) exactly when they differ by a constant, so only
    the first count of each class (row 0 being one class) becomes a
    CycElem, compared with that class's entry."""
    p = parts.prime
    dim = p.n + 1
    first = {}
    for i in range(dim):
        for j in range(dim):
            vec = [0] * p.p
            vec[0] = -parts.nu[i] * parts.nu[j]
            for e in map(add, parts.a_exp[i], parts.b_exp[j]):
                vec[e % p.p] += 2
            key = (i - j) % p.p if i else None
            if key in first:
                same = len(set(map(sub, vec, first[key]))) == 1
            else:
                first[key] = vec
                entry = parts.classes[key] if i else parts.top
                same = CycElem.from_exponents(p, vec) == entry
            if not same:
                raise DiscrepancyError(
                    f"structure identity failed at p={p.p}, entry ({i},{j})"
                )
    return True


def _times_difference(vec: list, a: int, b: int) -> list:
    """vec * (zeta^a - zeta^b) on length-p exponent vectors, 0 <= a, b < p:
    one shift-subtract, out[i] = vec[i - a] - vec[i - b]."""
    return [vec[i - a] - vec[i - b] for i in range(len(vec))]


def exact_product_one(p: OddPrime) -> CycElem:
    """Exact product over k=1..n of (1 - zeta^(k^2))."""
    vec = [1] + [0] * (p.p - 1)
    for k in range(1, p.n + 1):
        vec = _times_difference(vec, 0, k * k % p.p)
    return CycElem.from_exponents(p, vec)


def exact_product_two(p: OddPrime) -> CycElem:
    """Exact product over pairs j < k of (zeta^(k^2) - zeta^(j^2))."""
    vec = [1] + [0] * (p.p - 1)
    for k in range(2, p.n + 1):
        for j in range(1, k):
            vec = _times_difference(vec, k * k % p.p, j * j % p.p)
    return CycElem.from_exponents(p, vec)


def mtilde_det(parts: MtildeParts) -> tuple[int, int]:
    """det of the structured matrix as (c, d), meaning c + d*tau with
    tau = gauss_sum, tau^2 = p* = (-1)^((p-1)/2) * p.

    Row 0 must be all -1 and class d's entry the square sum that
    quadratic_gauss_identity proves equal to f(d): f(0) = p, f(d) =
    (d/p)*tau.  Subtracting column j+1 from column j, j < n, turns row 0
    into -e_n, leaving (-1)^(n+1) times the n x n Toeplitz determinant of
    t(k) = f(k+1) - f(k), taken over Z[tau] inside the integers of
    Q(sqrt(p*))."""
    p = parts.prime
    if parts.top != CycElem.const(p, -1):
        raise DiscrepancyError(f"row 0 is not -1 at p={p.p}")
    for d in range(p.p):
        if parts.classes[d] != _square_sum(p, d):
            raise DiscrepancyError(f"class {d} entry is not a square sum at p={p.p}")
        quadratic_gauss_identity(p, d)
    pstar = (-1) ** p.n * p.p
    f = [QuadElem(pstar, 0, 2 * c) for c in legendre_table(p)]
    f[0] = QuadElem(pstar, 2 * p.p, 0)
    value = toeplitz_det(lambda k: f[k + 1] - f[k], p.n, QuadElem(pstar, 2, 0))
    if value.a % 2 or value.b % 2:
        raise DiscrepancyError(f"determinant left Z[tau] at p={p.p}")
    sign = (-1) ** (p.n + 1)
    return sign * value.a // 2, sign * value.b // 2


def ztau_to_cyc(p: OddPrime, c: int, d: int) -> CycElem:
    """c + d*tau on the power basis of Q(zeta_p)."""
    return CycElem.const(p, c) + gauss_sum(p).scale(d)


@dataclass(frozen=True)
class MtildeCheck:
    """The structured determinant c + d*tau, proved equal to its closed form."""

    p: int
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
    by exact equality in Q(zeta_p), for p >= 5.

    The closed form needs sum_{k<=n} k^2 = p(p^2-1)/24 to vanish mod p,
    which holds for every prime p >= 5 but not for p = 3."""
    p = parts.prime
    if p.p < 5:
        raise ValueError("closed form requires p >= 5")
    c, d = mtilde_det(parts)
    p2 = exact_product_two(p)
    closed = (exact_product_one(p).conj() * p2 * p2.conj()).scale(-((-2) ** p.n))
    if ztau_to_cyc(p, c, d) != closed:
        raise DiscrepancyError(f"exact determinant mismatch at p={p.p}")
    return MtildeCheck(p.p, c, d)


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


def lemma32_check(p: OddPrime, h: int) -> tuple[str, str]:
    """Check P1 = prod_{k=1..n} (1 - zeta^(k^2)) and
    P2^2 = prod_{j<k} (zeta^(j^2) - zeta^(k^2))^2 against their closed
    forms by exact equality in Q(zeta_p); return the two closed forms.

    For p = 3 (mod 4), h is the class number of Q(sqrt(-p)) and

        P1 = (-1)^((h+1)/2) * tau,   P2^2 = (-p)^((p-3)/4).

    For p = 1 (mod 4), h is the class number of Q(sqrt(p)) and eps its
    fundamental unit.  There tau = sqrt(p), so
    2*eps^h = A + B*tau for eps^h = (A + B*sqrt(p))/2, and both identities
    are checked with the unit multiplied out, never inverted:

        P1 * 2eps^h = 2*tau,
        2 * P2^2 = (-1)^((p-1)/4) * p^((p-5)/4) * tau * 2eps^h."""
    if p.p < 5:
        raise ValueError("closed forms require p >= 5")
    tau = gauss_sum(p)
    one = exact_product_one(p)
    two = exact_product_two(p)
    two_sq = two * two
    if p.p % 4 == 3:
        sign = (-1) ** ((h + 1) // 2)
        k = (p.p - 3) // 4
        ok_one = one == tau.scale(sign)
        ok_two = two_sq == CycElem.const(p, (-p.p) ** k)
        form_one = _closed_form(sign, p.p, 0, True)
        form_two = _closed_form((-1) ** k, p.p, k, False)
    else:
        power = quad_pow(fundamental_unit(p), h)
        twice = ztau_to_cyc(p, power.a, power.b)
        sign = (-1) ** ((p.p - 1) // 4)
        k = (p.p - 5) // 4
        ok_one = one * twice == tau.scale(2)
        ok_two = two_sq.scale(2) == (tau * twice).scale(sign * p.p ** k)
        form_one = _closed_form(1, p.p, 0, True, -h)
        form_two = _closed_form(sign, p.p, k, True, h)
    if not ok_one:
        raise DiscrepancyError(
            f"first identity failed at p={p.p}: prod(1 - zeta^(k^2)) != {form_one}"
        )
    if not ok_two:
        raise DiscrepancyError(
            f"second identity failed at p={p.p}: "
            f"prod_(j<k) (zeta^(j^2) - zeta^(k^2))^2 != {form_two}"
        )
    return form_one, form_two
