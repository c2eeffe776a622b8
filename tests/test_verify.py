import inspect
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import legdet
from legdet import cyclotomic
from legdet.arith import OddPrime
from legdet.matrices import det_mp
from legdet.verify import (
    FAIL,
    PASS,
    SKIPPED,
    TARGETS,
    _TARGET_TABLE,
    run_sweep,
    verify_carlitz,
    verify_cauchy,
    verify_chapman,
    verify_decomposition,
    verify_gauss,
    verify_lemma32,
    verify_mtilde,
    verify_sun,
    verify_unit,
)

from exact_products import CycElem


def test_targets_registry():
    assert len(TARGETS) == 9
    assert len(set(TARGETS)) == 9
    assert TARGETS == tuple(_TARGET_TABLE)
    uncapped = {t for t, row in _TARGET_TABLE.items() if row.cap is None}
    assert uncapped == {"sun", "unit", "chapman", "cauchy"}


def test_only_the_tolerance_reader_takes_a_tolerance():
    for target, row in _TARGET_TABLE.items():
        takes = "tolerance" in inspect.signature(row.verifier).parameters
        assert takes == row.reads_tolerance, target
    assert [t for t, row in _TARGET_TABLE.items() if row.reads_tolerance] == [
        "decomposition"
    ]


# first prime above each cap, and the SKIP reason it gets there
_CAP_BOUNDARY = {
    "carlitz": (56659, "characteristic polynomial capped at p <= 56633"),
    "gauss": (3011, "exact square capped at p <= 3001"),
    "decomposition": (607, "numeric diagnostic capped at p <= 601"),
    "lemma32": (1789, "exact products capped at p <= 1787"),
    "mtilde": (313, "determinant check capped at p <= 311"),
}


def test_every_capped_row_skips_above_its_cap():
    capped = {t for t, row in _TARGET_TABLE.items() if row.cap is not None}
    assert capped == set(_CAP_BOUNDARY)
    for target, (q, reason) in _CAP_BOUNDARY.items():
        report = run_sweep(target, q, q)
        assert len(report.records) == 1, target
        r = report.records[0]
        assert (r.p, r.status, r.computed, r.predicted) == (q, SKIPPED, "", "")
        assert r.aux == {"reason": reason}


def test_verify_sun_records():
    r5 = verify_sun(OddPrime(5))
    assert (r5.status, r5.computed, r5.predicted) == (PASS, "-1", "-1")
    r13 = verify_sun(OddPrime(13))
    assert (r13.status, r13.computed, r13.predicted) == (PASS, "-1", "-1")
    r17 = verify_sun(OddPrime(17))
    assert (r17.status, r17.computed, r17.predicted) == (PASS, "1", "1")
    r23 = verify_sun(OddPrime(23))
    assert r23.status == PASS
    assert r23.aux["h_imag"] == "3"
    assert r23.computed == "-1"
    assert r23.aux["congruence_mod_p"] == "ok"


def test_verify_sun_skips_p3_with_observed_value():
    r = verify_sun(OddPrime(3))
    assert r.status == SKIPPED
    assert r.computed == "-1"
    assert "reason" in r.aux


def test_verify_chapman_records():
    r13 = verify_chapman(OddPrime(13))
    assert (r13.status, r13.computed, r13.predicted) == (PASS, "-18", "-18")
    assert r13.aux == {"a_p": "18", "b_p": "5", "a_p_integral": "yes"}
    r7 = verify_chapman(OddPrime(7))
    assert (r7.status, r7.computed, r7.predicted) == (PASS, "1", "1")
    assert r7.aux == {}


def test_verify_carlitz_records():
    r3 = verify_carlitz(OddPrime(3))
    assert (r3.status, r3.computed, r3.predicted) == (PASS, "(t^2 + 1)", "(t^2 + 1)")
    r5 = verify_carlitz(OddPrime(5))
    assert (r5.status, r5.computed, r5.predicted) == (
        PASS, "(t^2 - 5)*(t^2 - 1)", "(t^2 - 5)*(t^2 - 1)"
    )
    r131 = verify_carlitz(OddPrime(131))
    assert (r131.status, r131.computed) == (PASS, "(t^2 + 131)^64*(t^2 + 1)")
    above = run_sweep("carlitz", 56659, 56659).records[0]
    assert above.status == SKIPPED
    assert "reason" in above.aux


def test_verify_unit_records():
    assert verify_unit(OddPrime(3)).status == PASS
    r = verify_unit(OddPrime(19))
    assert r.status == PASS
    assert r.predicted == "+1 or -1"
    assert r.computed in ("1", "-1")


def test_verify_lemma32_records():
    r3 = verify_lemma32(OddPrime(3))
    assert r3.status == SKIPPED
    r67 = verify_lemma32(OddPrime(67))
    assert r67.status == PASS
    r1789 = run_sweep("lemma32", 1789, 1789).records[0]
    assert r1789.status == SKIPPED
    assert r1789.aux == {"reason": "exact products capped at p <= 1787"}
    r5 = verify_lemma32(OddPrime(5))
    assert r5.status == PASS
    assert r5.aux["h_real"] == "1"
    assert "product_two" in r5.aux and "closed_two" in r5.aux
    r7 = verify_lemma32(OddPrime(7))
    assert r7.status == PASS
    assert r7.aux["h_imag"] == "1"


def test_verify_lemma32_exact_records():
    r5 = verify_lemma32(OddPrime(5))
    assert (r5.status, r5.computed, r5.predicted) == (PASS, "tau*eps^-1", "tau*eps^-1")
    assert r5.aux == {
        "h_real": "1",
        "eps": "(1 + 1*sqrt(5))/2",
        "product_two": "-tau*eps",
        "closed_two": "-tau*eps",
    }
    r7 = verify_lemma32(OddPrime(7))
    assert (r7.status, r7.computed, r7.predicted) == (PASS, "-tau", "-tau")
    assert r7.aux == {"h_imag": "1", "product_two": "-7", "closed_two": "-7"}


def corrupt_last_product(monkeypatch):
    """Patch cyclotomic._embeddings to add 1 to a single residue of the last
    product it evaluates (P2 for lemma32, the closed form for mtilde): the
    last embedding at the last prime."""
    real = cyclotomic._embeddings

    def corrupted(p, bound, products):
        q, tau, values = real(p, bound, products)
        values[-1][-1, -1] = (values[-1][-1, -1] + 1) % q[-1, 0]
        return q, tau, values

    monkeypatch.setattr(cyclotomic, "_embeddings", corrupted)


def assert_fail_records(report, error: str) -> None:
    assert [r.status for r in report.records] == [FAIL, FAIL]
    for r in report.records:
        assert error in r.aux["error"]
        assert "exception" not in r.aux


# at p = 29 and 31 both checks take at least two split primes, so the
# corrupted residue is not at the first prime or the first embedding
def test_lemma32_mismatch_is_a_fail_record(monkeypatch):
    corrupt_last_product(monkeypatch)
    assert_fail_records(run_sweep("lemma32", 29, 31), "second identity failed")


def test_mtilde_mismatch_is_a_fail_record(monkeypatch):
    corrupt_last_product(monkeypatch)
    assert_fail_records(run_sweep("mtilde", 29, 31), "exact determinant mismatch")


def test_verify_gauss_records():
    r5 = verify_gauss(OddPrime(5))
    assert (r5.status, r5.computed, r5.predicted) == (PASS, "5", "5")
    assert r5.aux["frakp_residue_tau"] == "0"
    assert r5.aux["square_sum_identity"] == "exact for all a"
    for top in (37, 61):
        r = verify_gauss(OddPrime(top))
        assert r.status == PASS
        assert r.aux["square_sum_identity"] == "exact for all a"
    report = run_sweep("gauss", 3001, 3011)
    assert [(r.p, r.status) for r in report.records] == [(3001, PASS), (3011, SKIPPED)]


def test_wrong_gauss_square_is_a_fail_record(monkeypatch):
    # the autocorrelation R moved by zeta or by zeta^(p-1), so tau^2 =
    # (-1)^n R by +-zeta or +-zeta^(p-1): a FAIL record whose computed text
    # is the reference's text of the moved vector times (-1)^n
    real = cyclotomic._cyclic_autocorrelation
    moved = []

    def wrong(chi):
        out = real(chi)
        out[slot] += 1
        moved.append(out.tolist())
        return out

    monkeypatch.setattr(cyclotomic, "_cyclic_autocorrelation", wrong)
    for p, slot in ((5, 1), (7, 1), (13, 1), (5, 4), (13, 12)):
        r = verify_gauss(OddPrime(p))
        assert (r.status, r.predicted) == (FAIL, str((-1) ** (p // 2) * p))
        square = [(-1) ** (p // 2) * x for x in moved[-1]]
        assert r.computed == str(CycElem.from_exponents(OddPrime(p), square))
        assert r.computed != r.predicted


def test_verify_cauchy_record():
    r = verify_cauchy(OddPrime(11))
    assert (r.status, r.computed, r.predicted) == (PASS, "5", "5")
    assert "sample_det" in r.aux
    again = verify_cauchy(OddPrime(11))
    assert again.aux == r.aux  # seeded by p, so reproducible


def test_verify_decomposition_records():
    r = verify_decomposition(OddPrime(5))
    assert r.status == PASS
    assert run_sweep("decomposition", 607, 607).records[0].status == SKIPPED
    forced = verify_decomposition(OddPrime(5), tolerance=0.0)
    assert forced.status == FAIL
    assert "alt_diag_residual" in forced.aux


def test_verify_mtilde_records():
    r3 = verify_mtilde(OddPrime(3))
    assert r3.status == SKIPPED
    assert r3.aux["structure"] == "ok"
    assert r3.aux["observed_det"] == "-2 + 2*z"
    r5 = verify_mtilde(OddPrime(5))
    assert r5.status == PASS
    assert r5.computed == "-20"
    assert r5.aux["exact"] == "equal"
    r7 = verify_mtilde(OddPrime(7))
    assert (r7.status, r7.computed, r7.predicted) == (PASS, "56*tau", "56*tau")
    r23 = verify_mtilde(OddPrime(23))
    assert r23.status == PASS
    assert r23.aux["exact"] == "equal"
    assert r23.computed == "-13181630464*tau"
    r37 = verify_mtilde(OddPrime(37))
    assert (r37.status, r37.aux["exact"]) == (PASS, "equal")
    assert run_sweep("mtilde", 313, 313).records[0].status == SKIPPED


def test_run_sweep_counts():
    report = run_sweep("sun", 5, 30)
    assert [r.p for r in report.records] == [5, 7, 11, 13, 17, 19, 23, 29]
    assert (report.passed, report.failed, report.skipped) == (8, 0, 0)
    assert report.exit_code == 0

    empty = run_sweep("sun", 14, 16)
    assert empty.records == []
    assert empty.exit_code == 0

    carlitz = run_sweep("carlitz", 3, 31)
    assert (carlitz.passed, carlitz.failed, carlitz.skipped) == (10, 0, 0)


def test_toeplitz_route_reaches_past_the_old_frontier():
    # dimension 301..307; Bareiss took 8.5-8.8 s per determinant at p = 601
    for target in ("sun", "chapman"):
        report = run_sweep(target, 601, 613)
        assert [r.p for r in report.records] == [601, 607, 613]
        assert (report.passed, report.failed, report.skipped) == (3, 0, 0)
    assert det_mp(OddPrime(613)) == -1


def test_mtilde_sweep_reaches_the_exact_product_cap():
    # the Toeplitz route over Z[tau] and the closed form by evaluation; the
    # dense route stopped at p = 31, the exact products at 199
    report = run_sweep("mtilde", 307, 313)
    assert [(r.p, r.status) for r in report.records] == [
        (307, PASS), (311, PASS), (313, SKIPPED)
    ]
    assert report.records[2].aux["reason"] == "determinant check capped at p <= 311"


def test_carlitz_sweep_reaches_its_cap():
    # the structure of C_p^2 on the symbol table; Faddeev-LeVerrier stopped
    # at p = 31, the bigint evaluation route at 79, the lanes at 131
    report = run_sweep("carlitz", 56629, 56659)
    assert [(r.p, r.status) for r in report.records] == [
        (56629, PASS), (56633, PASS), (56659, SKIPPED)
    ]
    assert report.records[2].aux["reason"] == "characteristic polynomial capped at p <= 56633"


def test_lemma32_sweep_reaches_its_cap():
    # two embeddings per split prime; the p - 1 embeddings stopped at 449
    report = run_sweep("lemma32", 1777, 1789)
    assert [(r.p, r.status) for r in report.records] == [
        (1777, PASS), (1783, PASS), (1787, PASS), (1789, SKIPPED)
    ]
    assert report.records[3].aux["reason"] == "exact products capped at p <= 1787"


def test_one_bad_prime_never_sinks_a_sweep(monkeypatch):
    row = _TARGET_TABLE["unit"]

    def flaky(p):
        if p.p == 11:
            raise ZeroDivisionError("boom")
        return row.verifier(p)

    monkeypatch.setitem(_TARGET_TABLE, "unit", replace(row, verifier=flaky))
    report = run_sweep("unit", 3, 20)
    by_p = {r.p: r for r in report.records}
    assert [r.p for r in report.records] == [3, 5, 7, 11, 13, 17, 19]
    assert by_p[11].status == FAIL
    assert by_p[11].aux == {"error": "boom", "exception": "ZeroDivisionError"}
    assert all(r.status == PASS for p, r in by_p.items() if p != 11)
    assert report.exit_code == 1


def test_run_sweep_rejects_bad_input():
    with pytest.raises(ValueError):
        run_sweep("nonsense", 3, 10)
    with pytest.raises(ValueError):
        run_sweep("sun", 3, 10, jobs=0)


def test_run_sweep_rejects_a_nan_or_negative_tolerance():
    # a NaN tolerance would write a FAIL for every prime, and an infinite
    # one a PASS whatever the residual; 0 stays legal
    for tolerance in (float("nan"), -1e-6, float("-inf"), float("inf")):
        with pytest.raises(ValueError, match="tolerance"):
            run_sweep("decomposition", 5, 7, tolerance=tolerance)
    report = run_sweep("decomposition", 5, 5, tolerance=0)
    assert [r.status for r in report.records] == [FAIL]


def test_run_sweep_parallel_is_deterministic():
    solo = run_sweep("sun", 5, 60, jobs=1)
    duo = run_sweep("sun", 5, 60, jobs=2)
    assert solo.records == duo.records
    a = solo.to_json_dict()
    b = duo.to_json_dict()
    a.pop("elapsed_s")
    b.pop("elapsed_s")
    assert a == b


def test_import_leaves_out_the_process_pool():
    # multiprocessing (with socket and logging) is imported by a parallel
    # sweep only, not on every start of the package or the CLI
    src = str(Path(legdet.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", "import sys, legdet, legdet.cli; "
                               "print('multiprocessing' in sys.modules)"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert out.stdout == "False\n"


def test_report_json_schema():
    report = run_sweep("gauss", 3, 20)
    data = json.loads(report.to_json())
    assert set(data) == {
        "target", "from", "to", "records", "pass", "fail", "skipped", "elapsed_s"
    }
    assert data["target"] == "gauss"
    assert data["from"] == 3 and data["to"] == 20
    assert data["pass"] == 7 and data["fail"] == 0 and data["skipped"] == 0
    for rec in data["records"]:
        assert set(rec) == {"p", "status", "computed", "predicted", "aux"}
        assert isinstance(rec["aux"], dict)


def test_report_csv_and_text():
    report = run_sweep("unit", 3, 20)
    csv_text = report.to_csv()
    lines = csv_text.splitlines()
    assert lines[0] == "p,status,computed,predicted,aux"
    assert len(lines) == 1 + len(report.records)

    text = report.to_text()
    assert text.startswith("target=unit from=3 to=20")
    assert text.rstrip().splitlines()[-1].startswith("pass=7 fail=0 skipped=0")


def test_text_header_shows_tolerance_only_for_decomposition():
    # only decomposition reads the tolerance; the header stays one line
    text = run_sweep("unit", 3, 7, tolerance=0.5).to_text()
    assert text.splitlines()[0] == "target=unit from=3 to=7"
    text = run_sweep("decomposition", 3, 7, tolerance=0.5).to_text()
    assert text.splitlines()[0] == "target=decomposition from=3 to=7 tolerance=0.5"


def test_failed_sweep_exit_code():
    report = run_sweep("decomposition", 5, 11, tolerance=0.0)
    assert report.failed == len(report.records) == 3
    assert report.exit_code == 1
    for r in report.records:
        assert "alt_diag_residual" in r.aux
