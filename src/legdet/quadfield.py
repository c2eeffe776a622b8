"""Quadratic fields: integers of Q(sqrt(d)), units and class numbers of
Q(sqrt(+-p)), unit powers.

Elements are written (a + b*sqrt(d))/2 with the integrality convention of
the maximal order: a = b (mod 2) when d = 1 (mod 4), both even otherwise.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .arith import OddPrime, legendre, legendre_table
from .errors import DiscrepancyError, PrecisionError


def _in_order(d: int, a: int, b: int) -> bool:
    if d % 4 == 1:
        return (a - b) % 2 == 0
    return a % 2 == 0 and b % 2 == 0


@dataclass(frozen=True)
class QuadElem:
    """The number (a + b*sqrt(d))/2 in the ring of integers of Q(sqrt(d))."""

    d: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.d == 0 or (self.d > 0 and isqrt(self.d) ** 2 == self.d):
            raise ValueError("d must be a non-square integer")
        if not _in_order(self.d, self.a, self.b):
            raise ValueError(
                "need a = b (mod 2) when d = 1 (mod 4), a and b even otherwise"
            )

    def _check(self, other: "QuadElem") -> None:
        if self.d != other.d:
            raise ValueError("mixed quadratic fields")

    def __bool__(self) -> bool:
        return bool(self.a or self.b)

    def __mul__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        na, ra = divmod(self.a * other.a + self.b * other.b * self.d, 2)
        nb, rb = divmod(self.a * other.b + self.b * other.a, 2)
        if ra or rb:
            raise DiscrepancyError("product left the order")
        return QuadElem(self.d, na, nb)

    def __add__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        return QuadElem(self.d, self.a + other.a, self.b + other.b)

    def __sub__(self, other: "QuadElem") -> "QuadElem":
        self._check(other)
        return QuadElem(self.d, self.a - other.a, self.b - other.b)

    def __neg__(self) -> "QuadElem":
        return QuadElem(self.d, -self.a, -self.b)

    def __pow__(self, k: int) -> "QuadElem":
        return quad_pow(self, k)

    def __divmod__(self, other: "QuadElem") -> tuple["QuadElem", "QuadElem"]:
        """(q, r) with self = q*other + r, where r is zero exactly when other
        divides self in the order: q = self*conj(other)/norm(other) then.
        Otherwise q = 0 and r = self."""
        t = self * other.conj()
        n = other.norm()
        qa, ra = divmod(t.a, n)
        qb, rb = divmod(t.b, n)
        if ra or rb or not _in_order(self.d, qa, qb):
            return QuadElem(self.d, 0, 0), self
        return QuadElem(self.d, qa, qb), QuadElem(self.d, 0, 0)

    def conj(self) -> "QuadElem":
        return QuadElem(self.d, self.a, -self.b)

    def norm(self) -> int:
        num, r = divmod(self.a * self.a - self.d * self.b * self.b, 4)
        if r:
            raise DiscrepancyError("norm must be integral on the maximal order")
        return num

    def __str__(self) -> str:
        return f"({self.a} + {self.b}*sqrt({self.d}))/2"


def quad_pow(x: QuadElem, k: int) -> QuadElem:
    """k-th power by binary exponentiation, k >= 0."""
    if k < 0:
        raise ValueError("negative exponent")
    acc = QuadElem(x.d, 2, 0)
    base = x
    while k:
        if k & 1:
            acc = acc * base
        base = base * base
        k >>= 1
    return acc


def _pell_unit(p: int) -> tuple[int, int]:
    """Minimal (x, y) with x^2 - p*y^2 = +-1, from the continued fraction
    of sqrt(p).  Every solution is a convergent, and convergents grow, so
    the first hit is the fundamental one."""
    a0 = isqrt(p)
    m, d, a = 0, 1, a0
    h_prev, h = 1, a0
    k_prev, k = 0, 1
    steps = 0
    while h * h - p * k * k not in (1, -1):
        m = d * a - m
        d = (p - m * m) // d
        a = (a0 + m) // d
        h, h_prev = a * h + h_prev, h
        k, k_prev = a * k + k_prev, k
        steps += 1
        if steps > 10 * p + 100:
            raise ArithmeticError(f"continued fraction of sqrt({p}) did not close")
    return h, k


def _icbrt(v: int) -> int:
    """Floor cube root by integer Newton iteration."""
    if v <= 0:
        raise ValueError("positive argument required")
    x = 1 << ((v.bit_length() + 2) // 3)
    while True:
        y = (2 * x + v // (x * x)) // 3
        if y >= x:
            return x
        x = y


def fundamental_unit(p: OddPrime) -> QuadElem:
    """Fundamental unit > 1 of the ring of integers of Q(sqrt(p)).

    The continued fraction of sqrt(p) yields the smallest unit u of
    Z[sqrt(p)].  For p = 1 (mod 4) the maximal order can be larger by
    index 3 only, in which case u is the cube of a half-integer unit
    (a + b*sqrt(p))/2 with a, b odd; a then satisfies a^3 - 3Na = 2x
    with N = norm(u), which an integer cube root locates exactly.
    """
    x1, y1 = _pell_unit(p.p)
    if p.p % 4 == 1:
        nrm = x1 * x1 - p.p * y1 * y1
        root = _icbrt(2 * x1)
        for cand in range(max(1, root - 2), root + 3):
            if cand ** 3 - 3 * nrm * cand != 2 * x1:
                continue
            bb, r = divmod(cand * cand - 4 * nrm, p.p)
            if r != 0:
                continue
            b = isqrt(bb)
            if b * b == bb and b > 0 and (cand - b) % 2 == 0:
                return QuadElem(p.p, cand, b)
    return QuadElem(p.p, 2 * x1, 2 * y1)


@dataclass(frozen=True)
class ClassNumberReport:
    """Class number with the per-method values that produced it."""

    p: OddPrime
    field_sign: str
    h: int
    method_values: dict


def _reduced_form_count(p: int) -> int:
    # reduced positive forms (a, b, c) of discriminant -p:
    # |b| <= a <= c, with b > 0 whenever |b| = a or a = c
    count = 0
    for a in range(1, isqrt(p // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b + p
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if b < 0 and a == c:
                continue
            if math.gcd(math.gcd(a, abs(b)), c) != 1:
                continue
            count += 1
    return count


def class_number_imag(p: OddPrime) -> ClassNumberReport:
    """Class number of Q(sqrt(-p)) for p = 3 (mod 4), p > 3, computed by
    reduced-form enumeration and by the half-range character sum

        h = (sum_{0 < k < p/2} (k/p)) / (2 - (2/p)).

    The two methods must agree."""
    if p.p % 4 != 3 or p.p == 3:
        raise ValueError("requires p = 3 (mod 4), p > 3")
    forms = _reduced_form_count(p.p)
    chi = legendre_table(p)
    q, r = divmod(sum(chi[1:p.n + 1]), 2 - chi[2])
    if r != 0 or q < 1:
        raise DiscrepancyError(f"character sum for p={p.p} is not a class number")
    if q != forms:
        raise DiscrepancyError(
            f"class number methods disagree at p={p.p}: forms {forms}, sum {q}"
        )
    return ClassNumberReport(p, "imag", forms,
                             {"reduced_forms": forms, "character_sum": q})


def _log_value(x: QuadElem) -> float:
    if max(abs(x.a).bit_length(), abs(x.b).bit_length()) < 900:
        return math.log((x.a + x.b * math.sqrt(x.d)) / 2)
    # unit too large for floats; floor error is negligible at this size
    return math.log(x.a + isqrt(x.b * x.b * x.d)) - math.log(2)


def _round_to_count(estimate: float, what: str) -> int:
    nearest = round(estimate)
    if abs(estimate - nearest) >= 0.3:
        raise PrecisionError(
            f"{what} estimate {estimate!r} is not near an integer"
        )
    if nearest < 1:
        raise PrecisionError(f"{what} rounded to {nearest}, expected >= 1")
    return nearest


def _numeric_product_one(p: int) -> complex:
    """prod over k=1..n of (1 - zeta^(k^2)) at zeta = exp(2*pi*i/p), in
    double precision."""
    z = 1 + 0j
    for k in range(1, (p + 1) // 2):
        z *= 1 - cmath.exp(2j * math.pi * (k * k % p) / p)
    return z


def _log_sin_sum(p: OddPrime) -> float:
    """sum_{a=1..p-1} (a/p) log sin(pi a / p) for p = 1 (mod 4).

    The terms at a and p - a are equal, since (-1/p) = 1 and
    sin(pi (p - a) / p) = sin(pi a / p), so only a = 1..n are summed."""
    chi = legendre_table(p)
    half = sum(
        chi[a] * math.log(math.sin(math.pi * a / p.p)) for a in range(1, p.n + 1)
    )
    return 2 * half


def class_number_real(p: OddPrime, unit: QuadElem | None = None) -> ClassNumberReport:
    """Class number of Q(sqrt(p)) for p = 1 (mod 4), by the analytic formula

        h = -(sum_{a=1..p-1} (a/p) log sin(pi a / p)) / (2 log eps)

    and, as an independent route, by inverting the numeric cyclotomic
    product prod(1 - zeta^(k^2)) = sqrt(p) * eps^(-h).  The analytic value
    is authoritative; the methods must agree."""
    if p.p % 4 != 1:
        raise ValueError("requires p = 1 (mod 4)")
    eps = unit or fundamental_unit(p)
    log_eps = _log_value(eps)

    analytic = _round_to_count(
        -_log_sin_sum(p) / (2 * log_eps), "analytic class number"
    )

    prod = _numeric_product_one(p.p)
    if abs(prod.imag) > 1e-6 * max(abs(prod.real), 1.0):
        raise PrecisionError(f"cyclotomic product not real at p={p.p}")
    if prod.real <= 0:
        raise PrecisionError(f"cyclotomic product not positive at p={p.p}")
    from_product = _round_to_count(
        math.log(math.sqrt(p.p) / prod.real) / log_eps, "product class number"
    )

    if analytic != from_product:
        raise DiscrepancyError(
            f"class number methods disagree at p={p.p}: "
            f"analytic {analytic}, product {from_product}"
        )
    return ClassNumberReport(p, "real", analytic,
                             {"analytic": analytic, "cyclotomic_product": from_product})


def _chapman_power(p: OddPrime) -> tuple[QuadElem, int, int, tuple[Fraction, Fraction]]:
    """(eps, h, e, (a_p, b_p)) with e = (2 - (2/p)) * h and
    eps^e = a_p + b_p sqrt(p), for p = 1 (mod 4)."""
    if p.p % 4 != 1:
        raise ValueError("requires p = 1 (mod 4)")
    eps = fundamental_unit(p)
    h = class_number_real(p, unit=eps).h
    exponent = (2 - legendre(2, p)) * h
    power = quad_pow(eps, exponent)
    return eps, h, exponent, (Fraction(power.a, 2), Fraction(power.b, 2))


def chapman_ap(p: OddPrime) -> tuple[Fraction, Fraction]:
    """Coefficients (a_p, b_p) with eps_p^((2 - (2/p)) h_p) = a_p + b_p sqrt(p),
    for p = 1 (mod 4).  Returned as exact rationals (halves of the stored
    numerator pair); integrality of a_p is reported, not assumed."""
    return _chapman_power(p)[3]
