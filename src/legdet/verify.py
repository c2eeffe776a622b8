"""Per-prime identity verification and sweep reports.

Each verifier returns a record; a sweep maps a target over every odd prime
in a closed range, in order, and aggregates PASS/FAIL/SKIPPED counts.
`_TARGET_TABLE` declares every target once: its verifier, its cap, the
phrase of its capped SKIP, and whether its verdict reads the tolerance.
Report content is deterministic for a given (target, range, tolerance):
parallel workers only change elapsed_s, never the records.
"""
from __future__ import annotations

import csv
import io
import json
import random
import time
from collections.abc import Callable
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .arith import OddPrime, primes_in_range
from .cyclotomic import (
    CycElem,
    build_mtilde,
    cauchy_det,
    frakp_residue,
    gauss_sum,
    mtilde_det,
    mtilde_det_check,
    mtilde_structure_check,
    lemma32_check,
    quadratic_gauss_identity,
    ztau_to_cyc,
)
from .errors import LegdetError
from .exactlinalg import IntPolynomial, charpoly, poly_mul, poly_pow
from .matrices import build_cp, det_ep, det_mp
from .quadfield import chapman_ap, class_number_imag, class_number_real, fundamental_unit
from .vsemirnov import _CAP as _DECOMP_CAP, decomposition_residual

PASS = "PASS"
FAIL = "FAIL"
SKIPPED = "SKIPPED"


@dataclass
class VerificationRecord:
    p: int
    target: str
    status: str
    computed: str
    predicted: str
    aux: dict


def verify_sun(p: OddPrime) -> VerificationRecord:
    """det of the ones-row symbol matrix against the class-number formula."""
    computed = det_mp(p)
    if p.p == 3:
        return VerificationRecord(
            p.p, "sun", SKIPPED, str(computed), "1",
            {"reason": "formula does not hold at p=3; observed value recorded"},
        )
    aux: dict = {}
    if p.p % 4 == 1:
        predicted = (-1) ** ((p.p - 1) // 4)
    else:
        h = class_number_imag(p).h
        predicted = (-1) ** ((h - 1) // 2)
        aux["h_imag"] = str(h)
    aux["congruence_mod_p"] = "ok" if (computed - predicted) % p.p == 0 else "violated"
    status = PASS if computed == predicted else FAIL
    return VerificationRecord(p.p, "sun", status, str(computed), str(predicted), aux)


def verify_chapman(p: OddPrime) -> VerificationRecord:
    """det of the symbol matrix, indices 0..n, against -a_p or 1."""
    computed = det_ep(p)
    if p.p % 4 == 3:
        status = PASS if computed == 1 else FAIL
        return VerificationRecord(p.p, "chapman", status, str(computed), "1", {})
    a_p, b_p = chapman_ap(p)
    predicted = -a_p
    status = PASS if Fraction(computed) == predicted else FAIL
    aux = {
        "a_p": str(a_p),
        "b_p": str(b_p),
        "a_p_integral": "yes" if a_p.denominator == 1 else "no",
    }
    return VerificationRecord(p.p, "chapman", status, str(computed), str(predicted), aux)


def verify_carlitz(p: OddPrime) -> VerificationRecord:
    """Characteristic polynomial of the circulant-style symbol matrix
    against (t^2 - s*p)^((p-3)/2) * (t^2 - s), s = (-1)^((p-1)/2)."""
    computed = charpoly(build_cp(p))
    s = (-1) ** ((p.p - 1) // 2)
    predicted = poly_mul(
        poly_pow(IntPolynomial((-s * p.p, 0, 1)), (p.p - 3) // 2),
        IntPolynomial((-s, 0, 1)),
    )
    status = PASS if computed == predicted else FAIL
    return VerificationRecord(
        p.p, "carlitz", status, str(computed), str(predicted), {}
    )


def verify_unit(p: OddPrime) -> VerificationRecord:
    """|det| of the ones-row symbol matrix must be exactly 1."""
    computed = det_mp(p)
    status = PASS if abs(computed) == 1 else FAIL
    return VerificationRecord(p.p, "unit", status, str(computed), "+1 or -1", {})


def verify_lemma32(p: OddPrime) -> VerificationRecord:
    """Both cyclotomic square products against their closed forms, by
    exact equality in Q(zeta_p)."""
    if p.p < 5:
        return VerificationRecord(
            p.p, "lemma32", SKIPPED, "", "",
            {"reason": "closed forms require p > 3"},
        )
    if p.p % 4 == 1:
        eps = fundamental_unit(p)
        h = class_number_real(p, unit=eps).h
        aux = {"h_real": str(h), "eps": str(eps)}
    else:
        h = class_number_imag(p).h
        aux = {"h_imag": str(h)}
    form_one, form_two = lemma32_check(p, h)
    aux["product_two"] = form_two
    aux["closed_two"] = form_two
    return VerificationRecord(p.p, "lemma32", PASS, form_one, form_one, aux)


_GAUSS_ALL_A_CAP = 31


def verify_gauss(p: OddPrime) -> VerificationRecord:
    """tau^2 = (-1)^((p-1)/2) * p exactly; for small p also the exact
    square-sum identity for every residue a."""
    tau = gauss_sum(p)
    sq = tau * tau
    predicted = CycElem.const(p, (-1) ** ((p.p - 1) // 2) * p.p)
    aux = {"frakp_residue_tau": str(frakp_residue(tau))}
    if p.p <= _GAUSS_ALL_A_CAP:
        for a in range(p.p):
            quadratic_gauss_identity(p, a)
        aux["square_sum_identity"] = "exact for all a"
    else:
        aux["square_sum_identity"] = f"capped at p <= {_GAUSS_ALL_A_CAP}"
    status = PASS if sq == predicted else FAIL
    return VerificationRecord(p.p, "gauss", status, str(sq), str(predicted), aux)


_CAUCHY_BATCH = 5


def verify_cauchy(p: OddPrime) -> VerificationRecord:
    """Seeded batch of exact Cauchy-determinant cross-checks."""
    rng = random.Random(p.p)
    checked = 0
    sample = None
    while checked < _CAUCHY_BATCH:
        m = rng.randint(1, 6)
        u = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        v = [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(m)]
        try:
            sample = cauchy_det(u, v)
        except ValueError:
            continue  # a node pair hit 1 + u*v = 0; draw again
        checked += 1
    return VerificationRecord(
        p.p, "cauchy", PASS, str(checked), str(_CAUCHY_BATCH),
        {"sample_det": str(sample)},
    )


def verify_decomposition(p: OddPrime, tolerance: float = 1e-6) -> VerificationRecord:
    """Max entrywise residual of the numeric factorization."""
    residual = decomposition_residual(p)
    status = PASS if residual < tolerance else FAIL
    aux = {}
    if status == FAIL:
        aux["alt_diag_residual"] = f"{decomposition_residual(p, alt_diag=True):.3e}"
    return VerificationRecord(
        p.p, "decomposition", status, f"{residual:.3e}", f"< {tolerance:g}", aux
    )


def verify_mtilde(p: OddPrime) -> VerificationRecord:
    """Structure identity plus determinant closed form for the shifted
    matrix, both by exact equality."""
    parts = build_mtilde(p)
    mtilde_structure_check(parts)
    if p.p == 3:
        observed = ztau_to_cyc(p, *mtilde_det(parts))
        return VerificationRecord(
            p.p, "mtilde", SKIPPED, "", "",
            {
                "reason": "closed form requires p >= 5",
                "structure": "ok",
                "observed_det": str(observed),
            },
        )
    chk = mtilde_det_check(parts)
    aux = {"structure": "ok", "exact": "equal"}
    return VerificationRecord(p.p, "mtilde", PASS, str(chk), str(chk), aux)


@dataclass(frozen=True)
class Target:
    """One row of the target table.  Above `cap` a prime is SKIPPED with
    the reason "<cap_reason> capped at p <= <cap>" and the verifier is not
    called; only a row that reads the tolerance is passed it."""

    verifier: Callable[..., VerificationRecord]
    cap: int | None = None
    cap_reason: str = ""
    reads_tolerance: bool = False


# lemma32 and mtilde share one sweep time budget, not a domain limit;
# decomposition's cap is build_uvd's double-precision conditioning limit
_EXACT_PRODUCT_CAP = 199
_TARGET_TABLE = {
    "sun": Target(verify_sun),
    "chapman": Target(verify_chapman),
    "carlitz": Target(verify_carlitz, 31, "characteristic polynomial"),
    "unit": Target(verify_unit),
    "lemma32": Target(verify_lemma32, _EXACT_PRODUCT_CAP, "exact products"),
    "gauss": Target(verify_gauss, 61, "exact square"),
    "cauchy": Target(verify_cauchy),
    "decomposition": Target(
        verify_decomposition, _DECOMP_CAP, "numeric diagnostic", reads_tolerance=True
    ),
    "mtilde": Target(verify_mtilde, _EXACT_PRODUCT_CAP, "determinant check"),
}
TARGETS = tuple(_TARGET_TABLE)


def _run_one(target: str, p_int: int, tolerance: float) -> VerificationRecord:
    row = _TARGET_TABLE[target]
    if row.cap is not None and p_int > row.cap:
        return VerificationRecord(
            p_int, target, SKIPPED, "", "",
            {"reason": f"{row.cap_reason} capped at p <= {row.cap}"},
        )
    p = OddPrime(p_int)
    try:
        if row.reads_tolerance:
            return row.verifier(p, tolerance)
        return row.verifier(p)
    except LegdetError as exc:
        aux = {"error": str(exc)}
    except Exception as exc:  # one bad prime becomes a FAIL, never a lost sweep
        aux = {"error": str(exc), "exception": type(exc).__name__}
    return VerificationRecord(p_int, target, FAIL, "", "", aux)


def _run_one_packed(args) -> VerificationRecord:
    return _run_one(*args)


@dataclass
class SweepReport:
    target: str
    lo: int
    hi: int
    tolerance: float
    records: list
    elapsed_s: float

    @property
    def passed(self) -> int:
        return sum(r.status == PASS for r in self.records)

    @property
    def failed(self) -> int:
        return sum(r.status == FAIL for r in self.records)

    @property
    def skipped(self) -> int:
        return sum(r.status == SKIPPED for r in self.records)

    @property
    def exit_code(self) -> int:
        return 1 if self.failed else 0

    def to_json_dict(self) -> dict:
        return {
            "target": self.target,
            "from": self.lo,
            "to": self.hi,
            "records": [
                {
                    "p": r.p,
                    "status": r.status,
                    "computed": r.computed,
                    "predicted": r.predicted,
                    "aux": {k: str(v) for k, v in r.aux.items()},
                }
                for r in self.records
            ],
            "pass": self.passed,
            "fail": self.failed,
            "skipped": self.skipped,
            "elapsed_s": self.elapsed_s,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["p", "status", "computed", "predicted", "aux"])
        for r in self.records:
            aux = ";".join(f"{k}={v}" for k, v in sorted(r.aux.items()))
            writer.writerow([r.p, r.status, r.computed, r.predicted, aux])
        return buf.getvalue()

    def to_text(self) -> str:
        header = f"target={self.target} from={self.lo} to={self.hi}"
        if _TARGET_TABLE[self.target].reads_tolerance:
            header += f" tolerance={self.tolerance:g}"
        lines = [header]
        width_c = max([len("computed")] + [len(r.computed) for r in self.records])
        width_p = max([len("predicted")] + [len(r.predicted) for r in self.records])
        lines.append(
            f"{'p':>6}  {'status':<8} {'computed':<{width_c}}  "
            f"{'predicted':<{width_p}}  aux"
        )
        for r in self.records:
            aux = "; ".join(f"{k}={v}" for k, v in sorted(r.aux.items()))
            lines.append(
                f"{r.p:>6}  {r.status:<8} {r.computed:<{width_c}}  "
                f"{r.predicted:<{width_p}}  {aux}"
            )
        lines.append(
            f"pass={self.passed} fail={self.failed} skipped={self.skipped} "
            f"elapsed_s={self.elapsed_s:.3f}"
        )
        return "\n".join(lines) + "\n"


def run_sweep(
    target: str,
    lo: int,
    hi: int,
    tolerance: float = 1e-6,
    jobs: int = 1,
) -> SweepReport:
    """Verify one target for every odd prime in [lo, hi].

    Records are sorted by p, so the report content does not depend on the
    worker count; only elapsed_s reflects the actual wall clock."""
    if target not in TARGETS:
        raise ValueError(f"unknown target {target!r}; choose from {TARGETS}")
    if jobs < 1:
        raise ValueError("jobs must be >= 1")
    primes = primes_in_range(lo, hi)
    start = time.perf_counter()
    if jobs == 1 or len(primes) <= 1:
        records = [_run_one(target, q.p, tolerance) for q in primes]
    else:
        work = [(target, q.p, tolerance) for q in primes]
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_one_packed, work))
    records.sort(key=lambda r: r.p)
    elapsed = time.perf_counter() - start
    return SweepReport(target, lo, hi, tolerance, records, elapsed)
