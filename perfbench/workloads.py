"""The benchmark's workloads: inputs made from the seed, one timed pass, and
the correctness gate that every pass applies.

A pass runs the workload's sweeps through ``legdet.run_sweep``, one prime at
a time so that the reference kernel (below) can run between primes; the
records are the same as for one sweep over the range.  Each report is
rendered to text, JSON and CSV.  Then come the class-number calls.  Every
record must be PASS, except the documented p = 3 SKIPs of ``sun`` and
``mtilde``; every class number (and every ``chapman_ap`` pair, by digest)
must equal the value the seed commit computed, stored in ``expected.json``.
Only statuses and exact values are compared, never float-formatted
``computed`` strings or ``aux``.  A mismatch or any exception counts as a
failed operation and the pass moves on.  An operation is one prime verdict
or one class-number call.
"""
from __future__ import annotations

import hashlib
import json
import random
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import legdet

_perf = time.perf_counter

ACCEPTANCE_SWEEPS = (
    ("sun", 5, 199), ("unit", 3, 199), ("chapman", 3, 199), ("carlitz", 3, 31),
    ("lemma32", 5, 61), ("gauss", 3, 61), ("cauchy", 3, 61),
    ("decomposition", 3, 61), ("mtilde", 3, 31),
)
ALGEBRAIC_SWEEPS = (
    ("carlitz", 3, 31), ("mtilde", 3, 31), ("gauss", 3, 61), ("lemma32", 5, 61),
)
# criterion 10 of the acceptance gate: (kind, lo, hi, residue of p mod 4)
CRITERION10 = (("imag", 7, 499, 3), ("real", 5, 229, 1))
# det-band: 2 consecutive primes of this band (389, 397, 401); sun and
# chapman on each, so a pass (4 determinants) fits 3 times in a 30 s run
DET_BAND = (389, 401)
DET_WINDOW = 2
# class-numbers: a window of this width starting at 10000 + randrange(501)
CLASS_START, CLASS_SHIFT, CLASS_WIDTH = 10000, 501, 2000

WHY = {
    "acceptance": "every target over its acceptance range plus criterion-10 class "
                  "numbers: many small primes, builders and small det",
    "det-band": "sun and chapman just below the det frontier: integer det on "
                "bigints is ~95% of the work, no cyclotomic or class-number code",
    "algebraic": "carlitz, mtilde, gauss, lemma32: Q(zeta_p) arithmetic and "
                 "charpoly, no integer det",
    "class-numbers": "class_number_imag and chapman_ap on ~209 primes near 10^4: "
                     "quadfield and legendre are >90% of the work",
}
NAMES = tuple(WHY)

_EXPECTED_SKIPS = {("sun", 3), ("mtilde", 3)}

# Speed normalisation.  On a shared machine the speed drifts (by up to 2x
# within minutes on a shared 2-core Xeon host), far more than a regression
# bound.
# So a fixed reference kernel runs between operations, at least every
# REF_GAP seconds of work, and every chunk of work is rescaled by REF_S over
# the mean time of the two reference runs around it.  The kernel is plain
# Python integer work of the kinds legdet does (fraction-free elimination on
# bigints, a Jacobi-symbol loop) and imports nothing from legdet, so no
# change to the package moves it.  REF_S fixes the unit: a normalised second
# is a second on a box where one reference run takes REF_S seconds.  It must
# never change, or results stop being comparable with the baseline.
REF_S = 0.012
REF_GAP = 0.1
_REF_DIM = 40
# diagonally dominant, so elimination meets no zero pivot
_REF_ROWS = [[(i * 7 + j * 13) % 19 - 9 + (200 if i == j else 0) for j in range(_REF_DIM)]
             for i in range(_REF_DIM)]


def _ref_kernel() -> int:
    a = [list(r) for r in _REF_ROWS]
    prev = 1
    for k in range(_REF_DIM - 1):
        pk, rk = a[k][k], a[k]
        for i in range(k + 1, _REF_DIM):
            ri = a[i]
            aik = ri[k]
            for j in range(k + 1, _REF_DIM):
                ri[j] = (pk * ri[j] - aik * rk[j]) // prev
        prev = pk
    acc = a[-1][-1]
    for x in range(1, 6000):
        y, n, s = x, 10007, 1
        while y:
            while y % 2 == 0:
                y //= 2
                if n % 8 in (3, 5):
                    s = -s
            y, n = n, y
            if y % 4 == 3 and n % 4 == 3:
                s = -s
            y %= n
        acc += s
    return acc


def reference_run() -> float:
    """Seconds one run of the reference kernel takes now."""
    t0 = _perf()
    _ref_kernel()
    return _perf() - t0


class _Clock:
    """Adds up work time, raw and rescaled to the reference speed."""

    def __init__(self) -> None:
        self.raw = self.norm = self._pending = 0.0
        self._last_ref = reference_run()

    def add(self, seconds: float) -> None:
        self._pending += seconds
        if self._pending >= REF_GAP:
            self.flush()

    def flush(self) -> None:
        if not self._pending:
            return
        ref = reference_run()
        self.norm += self._pending * REF_S * 2 / (self._last_ref + ref)
        self.raw += self._pending
        self._pending, self._last_ref = 0.0, ref


def chapman_digest(a, b) -> str:
    """Short digest of an exact chapman_ap pair, for the expected-value table."""
    return hashlib.sha256(f"{a}|{b}".encode()).hexdigest()[:16]


def load_expected() -> dict:
    path = Path(__file__).with_name("expected.json")
    raw = json.loads(path.read_text())
    return {kind: {int(p): v for p, v in table.items()} for kind, table in raw.items()}


@dataclass
class Workload:
    name: str
    seed: int
    window: str
    sweeps: tuple  # (target, p)
    calls: tuple   # (kind, OddPrime, expected value)


def _sweeps(spec) -> tuple:
    return tuple((t, q.p) for t, lo, hi in spec for q in legdet.primes_in_range(lo, hi))


def _calls(kind: str, lo: int, hi: int, residue: int, expected: dict) -> tuple:
    return tuple((kind, q, expected[kind][q.p])
                 for q in legdet.primes_in_range(lo, hi) if q.p % 4 == residue)


def build(name: str, seed: int, expected: dict) -> Workload:
    """The workload's inputs; ``seed`` moves the det-band and class-numbers
    windows inside their bands and is ignored by the fixed-range workloads."""
    rng = random.Random(seed)
    if name == "acceptance":
        calls = sum((_calls(k, lo, hi, r, expected) for k, lo, hi, r in CRITERION10), ())
        return Workload(name, seed, "fixed", _sweeps(ACCEPTANCE_SWEEPS), calls)
    if name == "algebraic":
        return Workload(name, seed, "fixed", _sweeps(ALGEBRAIC_SWEEPS), ())
    if name == "det-band":
        band = [q.p for q in legdet.primes_in_range(*DET_BAND)]
        i = rng.randrange(len(band) - DET_WINDOW + 1)
        lo, hi = band[i], band[i + DET_WINDOW - 1]
        return Workload(name, seed, f"{lo}..{hi}",
                        _sweeps((t, lo, hi) for t in ("sun", "chapman")), ())
    if name == "class-numbers":
        lo = CLASS_START + rng.randrange(CLASS_SHIFT)
        hi = lo + CLASS_WIDTH - 1
        calls = _calls("imag", lo, hi, 3, expected) + _calls("chapman", lo, hi, 1, expected)
        calls = tuple(sorted(calls, key=lambda c: c[1].p))
        return Workload(name, seed, f"{lo}..{hi}", (), calls)
    raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")


@dataclass
class PassResult:
    wall_s: float = 0.0       # time spent in the operations
    wall_norm_s: float = 0.0  # the same, rescaled to the reference speed
    attempted: int = 0
    failed: int = 0
    records: dict = field(default_factory=lambda: {"PASS": 0, "FAIL": 0, "SKIPPED": 0})
    sweep_s: dict = field(default_factory=dict)

    def fail(self, n: int, what: str) -> None:
        self.failed += n
        print(f"perfbench: FAILED {what}", file=sys.stderr)


def _rendered_ok(report, text: str, js: str, csv: str) -> bool:
    n = len(report.records)
    doc = json.loads(js)
    return (
        [r["status"] for r in doc["records"]] == [r.status for r in report.records]
        and csv.count("\n") == n + 1
        and text.count("\n") == n + 3
    )


def _value(kind: str, q):
    if kind == "imag":
        return legdet.class_number_imag(q).h
    if kind == "real":
        return legdet.class_number_real(q).h
    return chapman_digest(*legdet.chapman_ap(q))


def _sweep(res: PassResult, target: str, p: int) -> None:
    res.attempted += 1
    t0 = _perf()
    try:
        report = legdet.run_sweep(target, p, p)
        rendered = (report.to_text(), report.to_json(), report.to_csv())
        res.sweep_s[target] = res.sweep_s.get(target, 0.0) + _perf() - t0
        rendered_ok = _rendered_ok(report, *rendered)
    except Exception as exc:  # the gate counts every exception, not only LegdetError
        res.fail(1, f"{target} p={p}: {type(exc).__name__}: {exc}")
        return
    want = "SKIPPED" if (target, p) in _EXPECTED_SKIPS else "PASS"
    for r in report.records:
        res.records[r.status] = res.records.get(r.status, 0) + 1
    if not rendered_ok or [(r.p, r.status) for r in report.records] != [(p, want)]:
        res.fail(1, f"{target} p={p}: records {[(r.p, r.status) for r in report.records]}, "
                    f"expected {[(p, want)]}, or rendering wrong")


def _call(res: PassResult, kind: str, q, want) -> None:
    res.attempted += 1
    try:
        got = _value(kind, q)
    except Exception as exc:  # a failed call is one failed operation
        res.fail(1, f"{kind} p={q.p}: {type(exc).__name__}: {exc}")
        return
    if got != want:
        res.fail(1, f"{kind} p={q.p}: got {got}, expected {want}")


def run_pass(w: Workload) -> PassResult:
    """One pass over the workload, with the correctness gate."""
    res = PassResult()
    clock = _Clock()
    for op, args in [(_sweep, s) for s in w.sweeps] + [(_call, c) for c in w.calls]:
        t0 = _perf()
        op(res, *args)
        clock.add(_perf() - t0)
    clock.flush()
    res.wall_s, res.wall_norm_s = clock.raw, clock.norm
    return res
