"""Self-test of the benchmark: the work counts of two traced runs must be
identical, and every run must report exactly the metrics BENCHMARK.json
names.  Run from the repository root (about 30 s):

    python3 perfbench/check_counts.py [--workload acceptance] [--seed 1]

Exits 0 when both hold, 1 otherwise.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
EXACT = ("exactlinalg.det.cells", "arith.legendre.calls", "cyclotomic.mul.calls",
         "verify.records.pass", "verify.records.fail", "verify.records.skipped")


def _run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", default="acceptance")
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []

    plain = _run(args.workload, args.seed, 0)
    first, second = (_run(args.workload, args.seed, 1) for _ in range(2))
    for res, key, trace in ((plain, "end_to_end", 0), (first, "per_layer", 1)):
        want = {m["name"] for m in spec[key]}
        if set(res["metrics"]) != want:
            problems.append(f"--trace {trace} metrics differ from BENCHMARK.json {key}: "
                            f"{sorted(set(res['metrics']) ^ want)}")
        if not res["correct"]:
            problems.append(f"--trace {trace} run failed its correctness gate")
    for name in EXACT:
        a, b = first["metrics"][name]["value"], second["metrics"][name]["value"]
        print(f"{name:<28} {a:>12} {b:>12}")
        if a != b:
            problems.append(f"{name} differs between traced runs: {a} != {b}")
    for p in problems:
        print(f"check_counts: {p}", file=sys.stderr)
    print("check_counts: " + ("FAIL" if problems else "ok"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
