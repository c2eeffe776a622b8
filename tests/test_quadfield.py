import cmath
import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from legdet import quadfield
from legdet.arith import OddPrime, _half_squares, legendre, legendre_array, primes_in_range
from legdet.errors import DiscrepancyError
from legdet.quadfield import (
    QuadElem,
    _cycle_count,
    _log_sin_sum,
    _log_value,
    _reduced_form_count,
    chapman_ap,
    class_number_imag,
    class_number_real,
    fundamental_unit,
    quad_pow,
)
from legdet.verify import FAIL, run_sweep

from exact_products import numeric_product_one
from pell_unit import pell_unit


def brute_unit(p, cap=50000):
    """Smallest unit > 1 of the maximal order, found by scanning b upward.

    For each b we look for a making (a^2 - p b^2)/4 equal +-1, allowing
    half-integer coordinates when p = 1 (mod 4).  The first hit with the
    smallest value wins, which is exactly the fundamental unit.
    """
    best = None
    for b in range(1, cap):
        for target in (4, -4):
            aa = p * b * b + target
            if aa <= 0:
                continue
            a = math.isqrt(aa)
            if a * a != aa:
                continue
            if p % 4 == 1:
                if (a - b) % 2 != 0:
                    continue
            elif a % 2 or b % 2:
                continue
            value = (a + b * math.sqrt(p)) / 2
            if best is None or value < best[0]:
                best = (value, a, b)
        if best is not None:
            return best[1], best[2]
    raise AssertionError(f"no unit found below cap for p={p}")


def test_fundamental_unit_matches_brute_force():
    for q in primes_in_range(3, 120):
        u = fundamental_unit(q)
        assert (u.a, u.b) == brute_unit(q.p), q.p
        assert u.norm() in (1, -1)
        # a unit is > 1 exactly when both of its coordinates are positive
        assert u.a > 0 and u.b > 0


def test_fundamental_unit_matches_the_pell_route():
    # the continued fraction of the maximal order's generator against the
    # Pell unit of Z[sqrt(p)] and its cube-root repair, every odd prime < 20000
    primes = primes_in_range(3, 20000)
    assert len(primes) == 2261
    for q in primes:
        u = fundamental_unit(q)
        assert (u.a, u.b) == pell_unit(q.p), q.p


def test_fundamental_unit_frozen():
    assert (fundamental_unit(OddPrime(5)).a, fundamental_unit(OddPrime(5)).b) == (1, 1)
    assert (fundamental_unit(OddPrime(13)).a, fundamental_unit(OddPrime(13)).b) == (3, 1)
    assert (fundamental_unit(OddPrime(17)).a, fundamental_unit(OddPrime(17)).b) == (8, 2)
    assert (fundamental_unit(OddPrime(229)).a, fundamental_unit(OddPrime(229)).b) == (15, 1)
    assert (fundamental_unit(OddPrime(7)).a, fundamental_unit(OddPrime(7)).b) == (16, 6)
    assert (fundamental_unit(OddPrime(3)).a, fundamental_unit(OddPrime(3)).b) == (4, 2)
    assert str(fundamental_unit(OddPrime(17))) == "(8 + 2*sqrt(17))/2"


def test_convergent_norms_follow_the_denominators():
    # the identity fundamental_unit rests on: the k-th convergent h/g of
    # omega = (P0 + sqrt(p))/Q0 has N(h - g*conj(omega)) = (-1)^(k+1) Q(k+1)/Q0,
    # so the first unit comes exactly where Q first returns to Q0
    for q in primes_in_range(3, 1999):
        p, s = q.p, math.isqrt(q.p)
        p0, q0 = (1, 2) if p % 4 == 1 else (0, 1)
        pk, qk, h_prev, h, g_prev, g = p0, q0, 0, 1, 1, 0
        for k in range(10 * p):
            a = (pk + s) // qk
            h, h_prev = a * h + h_prev, h
            g, g_prev = a * g + g_prev, g
            pk = a * qk - pk
            qk = (p - pk * pk) // qk
            assert (q0 * h - p0 * g) ** 2 - p * g * g == (-1) ** (k + 1) * q0 * qk, (p, k)
            if qk == q0:
                break
        unit = fundamental_unit(q)
        assert (unit.a, unit.b) == ((2 * h - g, g) if p % 4 == 1 else (2 * h, 2 * g)), p


def test_unit_norm_sign_pattern():
    # For p = 3 (mod 4) the norm is always +1; for the p = 1 (mod 4)
    # primes in this range the fundamental unit happens to have norm -1.
    for q in primes_in_range(3, 200):
        nrm = fundamental_unit(q).norm()
        if q.p % 4 == 3:
            assert nrm == 1
        else:
            assert nrm == -1


def test_quad_elem_arithmetic():
    x = QuadElem(5, 1, 1)
    assert (x * x).a == 3 and (x * x).b == 1
    assert x.norm() == -1
    assert (x * x).norm() == 1


def test_quad_elem_validation():
    with pytest.raises(ValueError):
        QuadElem(5, 1, 2)  # parity mismatch for d = 1 (mod 4)
    with pytest.raises(ValueError):
        QuadElem(7, 1, 1)  # odd coordinates outside d = 1 (mod 4)
    with pytest.raises(ValueError):
        QuadElem(9, 2, 2)  # square d
    with pytest.raises(ValueError):
        QuadElem(5, 2, 0) * QuadElem(13, 2, 0)


def test_quad_elem_negative_d():
    # Z[tau] for p = 7 sits in the integers of Q(sqrt(-7)), tau^2 = -7
    tau = QuadElem(-7, 0, 2)
    assert tau * tau == QuadElem(-7, -14, 0)
    assert tau.norm() == 7
    half = QuadElem(-7, 1, 1)  # (1 + sqrt(-7))/2, integral since -7 = 1 (mod 4)
    assert half * tau == QuadElem(-7, -7, 1)
    assert (half * tau).norm() == half.norm() * tau.norm() == 14
    with pytest.raises(ValueError):
        QuadElem(0, 2, 0)
    with pytest.raises(ValueError):
        QuadElem(-7, 1, 2)


def test_quad_pow():
    eps5 = QuadElem(5, 1, 1)
    cube = quad_pow(eps5, 3)
    assert (cube.a, cube.b) == (4, 2)
    eps13 = QuadElem(13, 3, 1)
    cube13 = quad_pow(eps13, 3)
    assert (cube13.a, cube13.b) == (36, 10)
    ident = quad_pow(eps5, 0)
    assert (ident.a, ident.b) == (2, 0)
    with pytest.raises(ValueError):
        quad_pow(eps5, -1)


def test_class_number_imag_frozen():
    assert class_number_imag(OddPrime(7)).h == 1
    assert class_number_imag(OddPrime(23)).h == 3
    assert class_number_imag(OddPrime(47)).h == 5
    assert class_number_imag(OddPrime(163)).h == 1
    assert class_number_imag(OddPrime(71)).h == 7
    report = class_number_imag(OddPrime(23))
    assert report.method_values == {"reduced_forms": 3, "character_sum": 3}


def test_class_number_report_carries_the_unit():
    for q in primes_in_range(5, 1999):
        if q.p % 4 == 1:
            unit = class_number_real(q).unit
            assert unit == fundamental_unit(q), q.p
            assert unit.norm() == -1, q.p
    for p in (7, 23, 10007):
        assert class_number_imag(OddPrime(p)).unit is None


def test_class_number_imag_domain():
    with pytest.raises(ValueError):
        class_number_imag(OddPrime(3))
    with pytest.raises(ValueError):
        class_number_imag(OddPrime(5))


def test_class_number_real_frozen():
    assert class_number_real(OddPrime(5)).h == 1
    assert class_number_real(OddPrime(13)).h == 1
    assert class_number_real(OddPrime(17)).h == 1
    assert class_number_real(OddPrime(229)).h == 3
    report = class_number_real(OddPrime(401))
    assert report.h == 5
    assert report.method_values["analytic"] == report.method_values["reduced_form_cycles"]


def test_class_number_real_domain():
    with pytest.raises(ValueError):
        class_number_real(OddPrime(7))


def test_class_number_methods_agree_over_ranges():
    for q in primes_in_range(7, 499):
        if q.p % 4 == 3:
            class_number_imag(q)
    # class_number_real raises unless the cycle count and the analytic
    # route agree, at every p = 1 (mod 4) below 20000; the analytic estimate
    # itself stays far closer to h than the 0.3 that rounding allows
    worst = 0.0
    for q in primes_in_range(5, 19999):
        if q.p % 4 == 1:
            report = class_number_real(q)
            estimate = -_log_sin_sum(q) / (2 * _log_value(report.unit))
            worst = max(worst, abs(estimate - report.h))
    assert worst <= 1e-9


def test_half_squares_are_the_residues():
    for q in primes_in_range(3, 400):
        squares = _half_squares(q)
        assert squares.dtype == np.int64
        assert sorted(squares.tolist()) == sorted({k * k % q.p for k in range(1, q.p)}), q.p


def test_residue_count_gives_the_half_range_sum():
    # class_number_imag's character sum, 2 * #{squares <= n} - n, is the
    # half-range sum of the table exactly, at every p = 3 (mod 4) below 20000
    for q in primes_in_range(3, 19999):
        if q.p % 4 == 3:
            count = np.count_nonzero(_half_squares(q) <= q.n)
            assert 2 * count - q.n == sum(legendre_array(q).tolist()[1:q.n + 1]), q.p


def test_log_sin_sum_parity_fold_matches_full_sum():
    # the sum over the residues a <= n against the full sum over a = 1..p-1,
    # symbol by symbol
    primes = primes_in_range(5, 2000) + [OddPrime(p) for p in (10009, 15017, 19997)]
    for q in primes:
        if q.p % 4 != 1:
            continue
        full = sum(
            legendre(a, q) * math.log(math.sin(math.pi * a / q.p))
            for a in range(1, q.p)
        )
        assert _log_sin_sum(q) == pytest.approx(full, rel=1e-9), q.p


def loop_log_sin_sum(q):
    """The folded log-sin sum term by term, as a scalar loop."""
    chi = legendre_array(q).tolist()
    return 2 * sum(
        chi[a] * math.log(math.sin(math.pi * a / q.p)) for a in range(1, q.n + 1)
    )


def loop_numeric_product_one(p):
    """prod(1 - zeta^(k^2)) factor by factor, as a scalar loop."""
    z = 1 + 0j
    for k in range(1, (p + 1) // 2):
        z *= 1 - cmath.exp(2j * math.pi * (k * k % p) / p)
    return z


def full_b_form_count(p):
    """Reduced forms of discriminant -p, trying every b with |b| <= a."""
    count = 0
    for a in range(1, math.isqrt(p // 3) + 1):
        for b in range(-a + 1, a + 1):
            num = b * b + p
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (b < 0 and a == c):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                count += 1
    return count


def test_float_routes_match_scalar_loops():
    primes = [q for q in primes_in_range(5, 1999) if q.p % 4 == 1]
    for q in primes + [OddPrime(10009), OddPrime(10273), OddPrime(12497)]:
        assert _log_sin_sum(q) == pytest.approx(loop_log_sin_sum(q), rel=1e-9), q.p
        ref = loop_numeric_product_one(q.p)
        assert abs(numeric_product_one(q.p) - ref) <= 1e-9 * abs(ref), q.p


def walk_cycle_count(p):
    """Cycles of rho on the reduced forms of discriminant p, one form at a
    time: a by trial division of (p - b^2)/4 over the band, then a walk
    from each form not yet seen."""
    s = math.isqrt(p)
    unseen = set()
    for b in range(1, s + 1, 2):
        for a in range((s - b) // 2 + 1, (s + b) // 2 + 1):
            if (p - b * b) % (4 * a) == 0:
                unseen.update({(a, b), (-a, b)})
    cycles = 0
    while unseen:
        start = a, b = min(unseen)
        unseen.remove(start)
        cycles += 1
        while True:
            c = (b * b - p) // (4 * a)
            a, b = c, s - (s + b) % (2 * abs(c))
            if (a, b) == start:
                break
            unseen.remove((a, b))  # KeyError: rho left the forms or met one twice
    return cycles


def test_cycle_count_matches_the_walk():
    for q in primes_in_range(5, 19999):
        if q.p % 4 == 1:
            assert _cycle_count(q.p) == walk_cycle_count(q.p), q.p


def test_cycle_count_rejects_a_wrong_band(monkeypatch):
    # one less than isqrt(p) moves the band; at these p, rho then leaves the
    # forms found, and the count raises instead of counting
    monkeypatch.setattr(quadfield, "isqrt", lambda n: math.isqrt(n) - 1)
    for p in (13, 29, 229):
        with pytest.raises(DiscrepancyError, match="does not permute"):
            _cycle_count(p)


def test_a_unit_of_norm_plus_one_raises(monkeypatch):
    # eps^2 has norm +1; with it the cycles would count 2h, and the analytic
    # route h/2, so the norm is checked, not assumed
    real = quadfield.fundamental_unit
    monkeypatch.setattr(quadfield, "fundamental_unit", lambda q: quad_pow(real(q), 2))
    with pytest.raises(DiscrepancyError, match="norm"):
        class_number_real(OddPrime(13))
    with pytest.raises(DiscrepancyError, match="norm"):
        chapman_ap(OddPrime(13))


def test_a_shifted_analytic_route_raises(monkeypatch):
    # _log_sin_sum moved down by 2 log eps: the analytic route reads h + 1
    real = quadfield._log_sin_sum
    monkeypatch.setattr(quadfield, "_log_sin_sum",
                        lambda q: real(q) - 2 * _log_value(fundamental_unit(q)))
    for p in (5, 13, 229, 10009):
        with pytest.raises(DiscrepancyError, match="disagree"):
            class_number_real(OddPrime(p))
    (record,) = run_sweep("chapman", 13, 13).records
    assert record.status == FAIL
    assert "disagree" in record.aux["error"]


def test_reduced_form_count_matches_full_b_loop():
    # the count skips even b; every p = 3 (mod 4) below 20000 is checked
    for q in primes_in_range(7, 19999):
        if q.p % 4 == 3:
            assert _reduced_form_count(q.p) == full_b_form_count(q.p), q.p


def loop_reduced_form_count(p):
    """Reduced forms of discriminant -p, one odd b at a time."""
    count = 0
    for a in range(1, math.isqrt(p // 3) + 1):
        for b in range(-a + 1 + a % 2, a + 1, 2):
            num = b * b + p
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (b < 0 and a == c):
                continue
            if math.gcd(math.gcd(a, abs(b)), c) == 1:
                count += 1
    return count


def test_reduced_form_count_matches_the_loop():
    # the numpy grid pass against the odd-b loop it replaced
    for q in primes_in_range(7, 5000):
        if q.p % 4 == 3:
            assert _reduced_form_count(q.p) == loop_reduced_form_count(q.p), q.p


EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
)


def test_class_numbers_near_ten_thousand():
    # every class number the benchmark expects: criterion 10's small primes
    # and the band near 10^4
    for p, h in EXPECTED["imag"].items():
        assert class_number_imag(OddPrime(int(p))).h == h, p
    for p, h in EXPECTED["real"].items():
        assert class_number_real(OddPrime(int(p))).h == h, p
    # a_p and b_p depend on h of Q(sqrt(p)), on which both routes agree;
    # their digests are the benchmark's expected values
    for p, expected in EXPECTED["chapman"].items():
        a, b = chapman_ap(OddPrime(int(p)))
        digest = hashlib.sha256(f"{a}|{b}".encode()).hexdigest()[:16]
        assert digest == expected, p
    for p, h in ((10009, 1), (10069, 3), (10273, 9), (10313, 7), (10613, 5)):
        assert class_number_real(OddPrime(p)).h == h, p


def test_chapman_ap_frozen():
    assert chapman_ap(OddPrime(5)) == (Fraction(2), Fraction(1))
    assert chapman_ap(OddPrime(13)) == (Fraction(18), Fraction(5))
    assert chapman_ap(OddPrime(17)) == (Fraction(4), Fraction(1))
    with pytest.raises(ValueError):
        chapman_ap(OddPrime(7))


def test_chapman_ap_integral_over_range():
    # a_p is conjectured integral; it holds throughout this sweep and the
    # pair always satisfies a^2 - p b^2 = +-1 exactly.
    for q in primes_in_range(5, 101):
        if q.p % 4 != 1:
            continue
        a, b = chapman_ap(q)
        assert a.denominator == 1
        assert b.denominator == 1
        assert (a * a - q.p * b * b) in (1, -1)
