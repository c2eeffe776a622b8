"""Quadratic fields: integers of Q(sqrt(d)), units and class numbers of
Q(sqrt(+-p)), unit powers.

Elements are written (a + b*sqrt(d))/2 with the integrality convention of
the maximal order: a = b (mod 2) when d = 1 (mod 4), both even otherwise.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

import numpy as np

from .arith import OddPrime, _half_squares, legendre
from .errors import DiscrepancyError, PrecisionError


@dataclass(frozen=True)
class QuadElem:
    """The number (a + b*sqrt(d))/2 in the ring of integers of Q(sqrt(d))."""

    d: int
    a: int
    b: int

    def __post_init__(self) -> None:
        if self.d == 0 or (self.d > 0 and isqrt(self.d) ** 2 == self.d):
            raise ValueError("d must be a non-square integer")
        if (self.a - self.b) % 2 or (self.a % 2 and self.d % 4 != 1):
            raise ValueError("need a = b (mod 2), and both even unless d = 1 (mod 4)")

    def __mul__(self, other: "QuadElem") -> "QuadElem":
        if self.d != other.d:
            raise ValueError("mixed quadratic fields")
        na, ra = divmod(self.a * other.a + self.b * other.b * self.d, 2)
        nb, rb = divmod(self.a * other.b + self.b * other.a, 2)
        if ra or rb:
            raise DiscrepancyError("product left the order")
        return QuadElem(self.d, na, nb)

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


def fundamental_unit(p: OddPrime) -> QuadElem:
    """Fundamental unit > 1 of the ring of integers of Q(sqrt(p)).

    The ring is Z[omega], omega = (P0 + sqrt(p))/Q0 with (P0, Q0) = (1, 2)
    for p = 1 (mod 4) and (0, 1) otherwise.  A unit eps = h - g*conj(omega)
    > 1 has g > 0 and |h - g*omega| = 1/eps, with eps close to
    g*(omega - conj(omega)) = 2g*sqrt(p)/Q0 > 2g, so |h/g - omega| < 1/(2g^2)
    and h/g is a convergent of omega (Legendre).  Convergents grow, so the
    first one that gives a unit gives the fundamental one.  The expansion
    of (P + sqrt(p))/Q takes a = floor((P + sqrt(p))/Q) and steps
    P <- aQ - P, Q <- (p - P^2)/Q.

    The k-th convergent h/g satisfies
    (Q0*h - P0*g)^2 - p*g^2 = (-1)^(k+1) * Q0 * Q(k+1), so
    h - g*conj(omega) has norm +-Q(k+1)/Q0 (Jacobson & Williams, Solving the
    Pell Equation, Springer 2009, ch. 3); Q returns to Q0 exactly at the
    convergents that give units.  Only there is the bigint norm computed,
    and it must be +-1."""
    n, s = p.p, isqrt(p.p)
    one_mod_4 = n % 4 == 1
    pk, qk = (1, 2) if one_mod_4 else (0, 1)
    q0 = qk
    h_prev, h = 0, 1
    g_prev, g = 1, 0
    for _ in range(10 * n + 100):
        a = (pk + s) // qk
        h, h_prev = a * h + h_prev, h
        g, g_prev = a * g + g_prev, g
        pk = a * qk - pk
        qk = (n - pk * pk) // qk
        if qk != q0:
            continue
        # h - g*conj(omega) = (x + y*sqrt(p))/2
        x, y = (2 * h - g, g) if one_mod_4 else (2 * h, 2 * g)
        if x * x - n * y * y not in (4, -4):
            raise DiscrepancyError(
                f"convergent {h}/{g} of the generator for p={n} is no unit at Q = Q0"
            )
        return QuadElem(n, x, y)
    raise ArithmeticError(f"continued fraction of the generator for p={n} did not close")


@dataclass(frozen=True)
class ClassNumberReport:
    """Class number with the per-method values that produced it, and the
    fundamental unit of the real field (None for the imaginary one)."""

    h: int
    method_values: dict
    unit: QuadElem | None


def _reduced_form_count(p: int) -> int:
    """Number of reduced positive forms (a, b, c) of discriminant -p, for a
    prime p = 3 (mod 4), p > 3: |b| <= a <= c, with b >= 0 whenever |b| = a
    or a = c.

    b^2 + p = 4ac with p odd forces b odd, so b != 0 and each triple
    (a, |b|, c) with |b| < a < c gives two forms.  |b| = a forces a | p,
    so a = 1: the one form (1, 1, (p + 1)/4).  a = c forces
    (2a - b)(2a + b) = p, so b = (p - 1)/2 > a: no form.  The count is
    therefore 2 * #{(a, b) : b > 0 odd, b <= a <= c} - 1, one pass over the
    grid of a and odd b (3a^2 <= p).  A prime p admits only primitive forms,
    since a common factor g has g^2 | p.

    The grid is in float64: b^2 + p < 2^33 and 4a < 2^18 are exact, and a
    quotient that is an integer rounds to itself, while any other lies at
    least 1/(4a) > 2^-18 from every integer, beyond the 2^-20 that rounding
    can move a value below 2^33.  So c == floor(c) tests 4a | b^2 + p
    exactly, and float division is vectorised where int64 % by an array is
    not."""
    top = isqrt(p // 3)
    b = np.arange(1, top + 1, 2, dtype=np.float64)
    a = np.arange(1, top + 1, dtype=np.float64)[:, None]
    c = (b * b + p) / (4 * a)
    return 2 * np.count_nonzero((c == np.floor(c)) & (b <= a) & (a <= c)) - 1


def class_number_imag(p: OddPrime) -> ClassNumberReport:
    """Class number of Q(sqrt(-p)) for p = 3 (mod 4), p > 3, computed by
    reduced-form enumeration and by the half-range character sum

        h = (sum_{0 < k < p/2} (k/p)) / (2 - (2/p)).

    The two methods must agree.  Each residue a <= n is one of the
    `_half_squares`, and the rest of 1..n are nonresidues, so the sum is
    2 * #{squares <= n} - n."""
    if p.p % 4 != 3 or p.p == 3:
        raise ValueError("requires p = 3 (mod 4), p > 3")
    forms = _reduced_form_count(p.p)
    residues = np.count_nonzero(_half_squares(p) <= p.n)
    q, r = divmod(2 * residues - p.n, 2 - legendre(2, p))
    if r != 0 or q < 1:
        raise DiscrepancyError(f"character sum for p={p.p} is not a class number")
    if q != forms:
        raise DiscrepancyError(
            f"class number methods disagree at p={p.p}: forms {forms}, sum {q}"
        )
    return ClassNumberReport(forms, {"reduced_forms": forms, "character_sum": q}, None)


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


def _cycle_count(p: int) -> int:
    """Number of cycles of the reduction operator rho on the reduced
    indefinite forms (a, b, c) of discriminant p = 1 (mod 4), p prime.

    Reduced means 0 < b < sqrt(p) and sqrt(p) - b < 2|a| < sqrt(p) + b, with
    b odd and a*c = (b^2 - p)/4 < 0.  rho(a, b, c) = (c, b', .) with b' the
    largest integer below sqrt(p) that is = -b (mod 2|c|); it permutes the
    reduced forms, and its cycles are the proper equivalence classes
    (Buchmann & Vollmer, Binary Quadratic Forms, ch. 6).  A prime p admits
    only primitive forms, since a common factor g has g^2 | p.

    The forms with a > 0 are the integral cells of one float grid of
    -c = (p - b^2)/(4a) over a and odd b, inside the band; rho is then one
    lookup by grid cell, and the cycles are counted by pointer doubling."""
    s = isqrt(p)
    w = (s + 1) // 2
    # sqrt(p) is irrational, so b < sqrt(p) is b <= s, and the band on 2a
    # is s < 2a + b, 2a - b <= s, that is |4a - 2s - 1| < 2b.  One float
    # pass over the grid of a (rows) and odd b (columns) finds the forms
    # with a > 0, as the cells in the band where 4a | p - b^2 (exact as in
    # _reduced_form_count, since p - b^2 < 2^32); form k sits at flat cell
    # hits[k] = (a - 1) * w + (b - 1)/2
    b = np.arange(1, s + 1, 2, dtype=np.float64)
    four_a = np.arange(4, 4 * s + 1, 4, dtype=np.float64)[:, None]
    neg_c = (p - b * b) / four_a
    band = np.abs(four_a - (2 * s + 1)) < 2 * b
    hits = ((neg_c == np.floor(neg_c)) & band).ravel().nonzero()[0]
    neg_c = neg_c.ravel().take(hits).astype(np.int64)
    m = hits.size
    ids = np.arange(m)
    # form indices by cell; the extra last cell holds no form and marks a miss
    index = np.full(s * w + 1, -1, dtype=np.int64)
    index[hits] = ids
    # b' depends on |c| only, so rho commutes with (a, b, c) -> (-a, b, -c):
    # it sends form k (a > 0) to the negative of the form to[k] at (|c|, b'),
    # and the negative of form k to form to[k].  b' = s - r with
    # r = (s + b) mod 2|c|, and (|c|, b') is a cell when |c| <= s and r < s.
    r = (hits % w * 2 + (s + 1)) % (2 * neg_c)
    cell = (neg_c - 1) * w + (s - 1 - r) // 2
    to = index[np.where((neg_c <= s) & (r < s), cell, s * w)]
    if (np.sort(to) != ids).any():
        raise DiscrepancyError(f"reduction does not permute the reduced forms of {p}")
    # rho alternates the sign of a (ac < 0), so each rho-cycle holds exactly
    # one cycle of rho^2 = to[to] on the forms with a > 0.  Pointer doubling:
    # after k rounds low[i] is the least index among the first 2^k points of
    # i's rho^2 orbit, so at 2^k >= m it is the least index of i's cycle
    perm = to[to]
    low = ids
    for _ in range((m - 1).bit_length()):
        low = np.minimum(low, low[perm])
        perm = perm[perm]
    return int(np.count_nonzero(low == ids))


def _log_sin_sum(p: OddPrime) -> float:
    """sum_{a=1..p-1} (a/p) log sin(pi a / p) for p = 1 (mod 4).

    prod_{a=1..p-1} 2 sin(pi a / p) = p, so the terms over all a sum to
    log p - (p - 1) log 2, and the sum is twice the residues' part less
    that.  Since (-1/p) = 1 and sin(pi (p - a) / p) = sin(pi a / p), the
    residues' part is twice its part over the residues a <= n:

        4 * sum_{a in R, a <= n} log sin(pi a / p) - log p + (p - 1) log 2,

    which takes n/2 sines."""
    a = _half_squares(p)
    a = a.take((a <= p.n).nonzero()[0])
    below_half = float(np.log(np.sin(a * (np.pi / p.p))).sum())
    return 4 * below_half - math.log(p.p) + (p.p - 1) * math.log(2)


def class_number_real(p: OddPrime) -> ClassNumberReport:
    """Class number of Q(sqrt(p)) for p = 1 (mod 4), exactly, as the number
    of cycles of reduced indefinite forms of discriminant p, checked against
    the analytic formula

        h = -(sum_{a=1..p-1} (a/p) log sin(pi a / p)) / (2 log eps).

    The cycles are the proper classes of forms, whose number is the narrow
    class number h+.  h+ = h when the fundamental unit has norm -1 (and 2h
    when it has norm +1); for a prime p = 1 (mod 4) it does, and the norm is
    checked on eps rather than assumed.  The two routes must agree.  The
    report carries eps.

    The numeric product prod(1 - zeta^(k^2)) = sqrt(p) * eps^(-h) is no
    independent second route: |1 - zeta^a| = 2 sin(pi a / p) and
    prod_{a=1..p-1} 2 sin(pi a / p) = p give
    log(sqrt(p) / |prod|) = -(1/2) sum (a/p) log sin(pi a / p), the analytic
    formula's numerator again."""
    if p.p % 4 != 1:
        raise ValueError("requires p = 1 (mod 4)")
    eps = fundamental_unit(p)
    if eps.norm() != -1:
        raise DiscrepancyError(
            f"fundamental unit {eps} of Q(sqrt({p.p})) has norm {eps.norm()}, expected -1"
        )
    cycles = _cycle_count(p.p)
    analytic = _round_to_count(
        -_log_sin_sum(p) / (2 * _log_value(eps)), "analytic class number"
    )
    if analytic != cycles:
        raise DiscrepancyError(
            f"class number methods disagree at p={p.p}: "
            f"reduced-form cycles {cycles}, analytic {analytic}"
        )
    return ClassNumberReport(
        cycles, {"analytic": analytic, "reduced_form_cycles": cycles}, eps
    )


def _chapman_power(p: OddPrime) -> tuple[QuadElem, int, int, tuple[Fraction, Fraction]]:
    """(eps, h, e, (a_p, b_p)) with e = (2 - (2/p)) * h and
    eps^e = a_p + b_p sqrt(p), for p = 1 (mod 4)."""
    report = class_number_real(p)
    exponent = (2 - legendre(2, p)) * report.h
    power = quad_pow(report.unit, exponent)
    return report.unit, report.h, exponent, (Fraction(power.a, 2), Fraction(power.b, 2))


def chapman_ap(p: OddPrime) -> tuple[Fraction, Fraction]:
    """Coefficients (a_p, b_p) with eps_p^((2 - (2/p)) h_p) = a_p + b_p sqrt(p),
    for p = 1 (mod 4).  Returned as exact rationals (halves of the stored
    numerator pair); integrality of a_p is reported, not assumed."""
    return _chapman_power(p)[3]
