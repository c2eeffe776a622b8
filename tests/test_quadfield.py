import hashlib
import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from legdet.arith import OddPrime, legendre, primes_in_range
from legdet.quadfield import (
    QuadElem,
    _log_sin_sum,
    chapman_ap,
    class_number_imag,
    class_number_real,
    fundamental_unit,
    quad_pow,
)


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


def test_fundamental_unit_frozen():
    assert (fundamental_unit(OddPrime(5)).a, fundamental_unit(OddPrime(5)).b) == (1, 1)
    assert (fundamental_unit(OddPrime(13)).a, fundamental_unit(OddPrime(13)).b) == (3, 1)
    assert (fundamental_unit(OddPrime(17)).a, fundamental_unit(OddPrime(17)).b) == (8, 2)
    assert (fundamental_unit(OddPrime(229)).a, fundamental_unit(OddPrime(229)).b) == (15, 1)
    assert (fundamental_unit(OddPrime(7)).a, fundamental_unit(OddPrime(7)).b) == (16, 6)
    assert (fundamental_unit(OddPrime(3)).a, fundamental_unit(OddPrime(3)).b) == (4, 2)
    assert str(fundamental_unit(OddPrime(17))) == "(8 + 2*sqrt(17))/2"


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
    assert x.conj().b == -1
    assert (x + x).a == 2
    assert (-x).a == -1
    assert (x * x.conj()).a == -2 and (x * x.conj()).b == 0


def test_quad_elem_validation():
    with pytest.raises(ValueError):
        QuadElem(5, 1, 2)  # parity mismatch for d = 1 (mod 4)
    with pytest.raises(ValueError):
        QuadElem(7, 1, 1)  # odd coordinates outside d = 1 (mod 4)
    with pytest.raises(ValueError):
        QuadElem(9, 2, 2)  # square d
    with pytest.raises(ValueError):
        QuadElem(5, 2, 0) * QuadElem(13, 2, 0)


def test_quad_elem_negative_d_and_exact_division():
    # Z[tau] for p = 7 sits in the integers of Q(sqrt(-7)), tau^2 = -7
    tau = QuadElem(-7, 0, 2)
    assert tau * tau == QuadElem(-7, -14, 0)
    assert tau.norm() == 7
    assert tau and not (tau - tau)
    half = QuadElem(-7, 1, 1)  # (1 + sqrt(-7))/2, integral since -7 = 1 (mod 4)
    for x, y in ((half, tau), (tau, half), (QuadElem(-7, 6, 4), QuadElem(-7, 2, 0))):
        q, r = divmod(x * y, y)
        assert q == x and not r
    # 1 / tau is not integral: the remainder is nonzero and q*y + r == x
    one = QuadElem(-7, 2, 0)
    q, r = divmod(one, tau)
    assert r and q * tau + r == one
    two = QuadElem(5, 4, 0)
    for x in (QuadElem(5, 1, 1), QuadElem(5, 2, 0)):  # x/2 is not in the order
        q, r = divmod(x, two)
        assert r and q * two + r == x
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
    assert report.field_sign == "imag"


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
    assert report.method_values["analytic"] == report.method_values["cyclotomic_product"]


def test_class_number_real_domain():
    with pytest.raises(ValueError):
        class_number_real(OddPrime(7))


def test_class_number_methods_agree_over_ranges():
    for q in primes_in_range(7, 499):
        if q.p % 4 == 3:
            class_number_imag(q)
    for q in primes_in_range(5, 229):
        if q.p % 4 == 1:
            class_number_real(q)


def test_log_sin_sum_parity_fold_matches_full_sum():
    # the folded sum over a = 1..n against the full Jacobi-driven sum
    for q in primes_in_range(5, 2000):
        if q.p % 4 != 1:
            continue
        full = sum(
            legendre(a, q) * math.log(math.sin(math.pi * a / q.p))
            for a in range(1, q.p)
        )
        assert _log_sin_sum(q) == pytest.approx(full, rel=1e-9), q.p


EXPECTED = json.loads(
    (Path(__file__).resolve().parents[1] / "perfbench" / "expected.json").read_text()
)


def test_class_numbers_near_ten_thousand():
    for p in (10007, 10039, 12263, 12479):
        assert class_number_imag(OddPrime(p)).h == EXPECTED["imag"][str(p)], p
    # h of Q(sqrt(p)), on which both routes agree; a_p and b_p depend on h,
    # and their digests are the benchmark's expected values
    for p, h in ((10009, 1), (10069, 3), (10273, 9), (10313, 7), (10613, 5)):
        assert class_number_real(OddPrime(p)).h == h, p
        a, b = chapman_ap(OddPrime(p))
        digest = hashlib.sha256(f"{a}|{b}".encode()).hexdigest()[:16]
        assert digest == EXPECTED["chapman"][str(p)], p


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
