"""End-to-end acceptance gate.

Each test checks one numbered criterion over its full stated range and
prints a single pass/fail line; run with -s (or -rA) to see the lines.
"""
import random
from fractions import Fraction

from legdet.arith import OddPrime, primes_in_range
from legdet.cyclotomic import build_mtilde, cauchy_det, mtilde_det_check
from legdet.exactlinalg import (
    IntMatrix,
    IntPolynomial,
    charpoly,
    det,
    poly_mul,
    poly_pow,
    rank_one_update_det,
)
from legdet.matrices import build_cp, build_ep, build_mp
from legdet.quadfield import class_number_imag, class_number_real, fundamental_unit
from legdet.verify import PASS, SKIPPED, run_sweep, verify_decomposition, verify_sun


def _report(num, description, ok):
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {description}")
    assert ok, f"criterion {num} failed: {description}"


def test_criterion_01_ones_row_det_sweep():
    report = run_sweep("sun", 5, 199)
    ok = all(r.status == PASS for r in report.records)
    ok = ok and len(report.records) == 44
    ok = ok and report.elapsed_s < 60.0
    ok = ok and verify_sun(OddPrime(3)).status == SKIPPED
    spots = {r.p: r.computed for r in report.records}
    ok = ok and spots[5] == "-1" and spots[17] == "1" and spots[23] == "-1"
    ok = ok and class_number_imag(OddPrime(23)).h == 3
    _report(1, "ones-row determinant sweep 5..199, exact, under 60 s", ok)


def test_criterion_02_unit_magnitude_sweep():
    report = run_sweep("unit", 3, 199)
    ok = all(r.status == PASS for r in report.records)
    ok = ok and all(r.computed in ("1", "-1") for r in report.records)
    ok = ok and len(report.records) == 45
    _report(2, "|det| = 1 for the ones-row matrix, 3 <= p <= 199", ok)


def test_criterion_03_zero_indexed_det_sweep():
    one_mod_4 = run_sweep("chapman", 5, 101)
    ok = all(
        r.status == PASS for r in one_mod_4.records if r.p % 4 == 1
    )
    three_mod_4 = run_sweep("chapman", 3, 199)
    ok = ok and all(
        r.status == PASS for r in three_mod_4.records if r.p % 4 == 3
    )
    ok = ok and det(build_ep(OddPrime(5))) == -2
    ok = ok and det(build_ep(OddPrime(13))) == -18
    ok = ok and det(build_ep(OddPrime(17))) == -4
    _report(3, "zero-indexed determinant: -a_p on 5..101 and 1 on 3..199", ok)


def test_criterion_04_charpoly_closed_form():
    report = run_sweep("carlitz", 3, 31)
    ok = all(r.status == PASS for r in report.records)
    ok = ok and len(report.records) == 10
    s5 = 1  # (-1)^((5-1)/2)
    expanded = poly_mul(
        poly_pow(IntPolynomial((-s5 * 5, 0, 1)), 1), IntPolynomial((-s5, 0, 1))
    )
    ok = ok and charpoly(build_cp(OddPrime(5))) == expanded
    _report(4, "characteristic polynomial closed form, odd p <= 31, exact", ok)


def test_criterion_05_product_identities():
    report = run_sweep("lemma32", 5, 61)
    ok = all(r.status == PASS for r in report.records)
    ok = ok and report.skipped == 0
    three_branch = [r for r in report.records if r.p % 4 == 3 and 7 <= r.p <= 61]
    ok = ok and len(three_branch) == 8 and all(r.status == PASS for r in three_branch)
    by_p = {r.p: r for r in report.records}
    ok = ok and by_p[5].computed == by_p[5].predicted == "tau*eps^-1"
    ok = ok and by_p[7].computed == by_p[7].predicted == "-tau"
    _report(5, "cyclotomic square products vs closed forms, 5..61, exact", ok)


def test_criterion_06_gauss_sum_identities():
    report = run_sweep("gauss", 3, 61)
    ok = all(r.status == PASS for r in report.records)
    small = [r for r in report.records if r.p <= 31]
    ok = ok and all(r.aux["square_sum_identity"] == "exact for all a" for r in small)
    _report(6, "tau^2 exact for p <= 61; square-sum identity all a, p <= 31", ok)


def test_criterion_07_factorization_residual():
    report = run_sweep("decomposition", 3, 13)
    ok = all(r.status == PASS for r in report.records)
    ok = ok and [r.p for r in report.records] == [3, 5, 7, 11, 13]
    forced = verify_decomposition(OddPrime(5), tolerance=0.0)
    ok = ok and "alt_diag_residual" in forced.aux
    _report(7, "factorization residual < 1e-6 for p in {3,5,7,11,13}", ok)


def test_criterion_08_shifted_matrix_determinant():
    report = run_sweep("mtilde", 3, 31)
    by_p = {r.p: r for r in report.records}
    ok = by_p[3].status == SKIPPED and by_p[3].aux["structure"] == "ok"
    ok = ok and all(
        by_p[p].status == PASS for p in (5, 7, 11, 13, 17, 19, 23, 29, 31)
    )
    ok = ok and all(
        by_p[p].aux["exact"] == "equal" for p in (5, 7, 11, 13, 17, 19, 23, 29, 31)
    )
    ok = ok and by_p[5].computed == "-20"
    ok = ok and by_p[3].aux["observed_det"] == "-2 + 2*z"
    chk5 = mtilde_det_check(build_mtilde(OddPrime(5)))
    chk13 = mtilde_det_check(build_mtilde(OddPrime(13)))
    ok = ok and (chk5.c, chk5.d) == (-20, 0)
    ok = ok and (chk13.c, chk13.d) == (-140608, 0)
    _report(8, "shifted matrix: structure and exact det p <= 31", ok)


def test_criterion_09_random_property_suites():
    rng = random.Random(2024)
    cauchy_done = 0
    while cauchy_done < 100:
        m = rng.randint(1, 6)
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        try:
            cauchy_det(u, v)
        except ValueError:
            continue
        cauchy_done += 1
    mdl_done = 0
    for _ in range(500):
        dim = rng.randint(1, 6)
        h = IntMatrix([[rng.randint(-9, 9) for _ in range(dim)] for _ in range(dim)])
        u = [rng.randint(-9, 9) for _ in range(dim)]
        v = [rng.randint(-9, 9) for _ in range(dim)]
        rank_one_update_det(h, u, v)
        mdl_done += 1
    ok = cauchy_done == 100 and mdl_done == 500
    _report(9, "100 exact rational Cauchy dets and 500 exact integer updates", ok)


def test_criterion_10_class_number_cross_validation():
    ok = True
    for q in primes_in_range(7, 499):
        if q.p % 4 == 3:
            class_number_imag(q)  # raises if the two methods disagree
    for q in primes_in_range(5, 229):
        if q.p % 4 == 1:
            class_number_real(q)  # raises if the two methods disagree
    ok = ok and class_number_imag(OddPrime(7)).h == 1
    ok = ok and class_number_imag(OddPrime(23)).h == 3
    ok = ok and class_number_imag(OddPrime(47)).h == 5
    ok = ok and class_number_imag(OddPrime(163)).h == 1
    ok = ok and class_number_real(OddPrime(5)).h == 1
    ok = ok and class_number_real(OddPrime(229)).h == 3
    u5 = fundamental_unit(OddPrime(5))
    u13 = fundamental_unit(OddPrime(13))
    u17 = fundamental_unit(OddPrime(17))
    ok = ok and (u5.a, u5.b) == (1, 1)
    ok = ok and (u13.a, u13.b) == (3, 1)
    ok = ok and (u17.a, u17.b) == (8, 2)
    _report(10, "class-number methods agree on [7,499] and [5,229] with spot values", ok)
