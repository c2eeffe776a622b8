"""legdet benchmark driver: a single-process, closed-loop run of one workload.

Each pass starts when the previous one ends (``jobs=1``) and calls only
legdet's public API.  Run from the repository root:

    python3 perfbench/run.py --workload det-band --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

With ``--trace 0`` the passes run untraced and the last line of standard
output is a JSON object with the end-to-end metrics:

* ``wall_norm_s``: median over passes of the time one pass spends in its
  operations (legdet calls and their checks), rescaled to the reference
  speed (see ``workloads.py``);
* ``setup_s``: median time for a fresh process to import legdet (numpy
  included) up to its first call, over several processes, rescaled alike;
* ``peak_rss_mb``: peak resident set size of this process.

The rescaling cancels the drift of a shared machine's speed; the summary
line also gives the raw median ``wall_s``.

With ``--trace 1`` untraced and traced passes alternate and the JSON carries
the per-layer metrics of the traced passes (see ``tracer.py``; times are
raw seconds) plus ``trace.overhead_s``, the traced minus the untraced
``wall_norm_s``; the
raw spans go to ``.bench_out/``.  The line before the JSON gives the seed,
the input window, the sample count and ``failed_share``.
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median, median_low

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_SAMPLES = 5
TARGETS = ("sun", "chapman", "carlitz", "unit", "lemma32", "gauss", "cauchy",
           "decomposition", "mtilde")
# Imports legdet and makes a first call, notes the time, then times three
# runs of the reference kernel in the same process for the rescaling.
_SETUP_CODE = ("import time, legdet\n"
               "legdet.primes_in_range(3, 3)\n"
               "t = time.perf_counter()\n"
               "from workloads import reference_run\n"
               "print(repr(t), *(repr(reference_run()) for _ in range(3)))\n")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def measure_setup(ref_s: float) -> float:
    """Median seconds from spawning a fresh interpreter until legdet is
    imported and has answered a first call, each sample rescaled to the
    reference speed measured in that process (the first of its three
    reference runs is a warm-up).  perf_counter is the system-wide monotonic
    clock, so the child's reading compares with the parent's.  One untimed
    spawn first lets the bytecode cache fill."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(SRC), str(HERE))))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        t0 = time.perf_counter()
        out = subprocess.run([sys.executable, "-c", _SETUP_CODE], env=env, cwd=ROOT,
                             capture_output=True, text=True, timeout=60, check=True)
        ready, _, *refs = (float(x) for x in out.stdout.split())
        if i:
            samples.append((ready - t0) * ref_s / (sum(refs) / len(refs)))
    return median(samples)


def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


# (group, field) pairs reported as "<group>.<field>"
LAYER_FIELDS = (
    *((g, f) for g in ("arith.legendre", "matrices.build", "exactlinalg.charpoly")
      for f in ("calls", "self_s")),
    *(("exactlinalg.det", f) for f in ("calls", "self_s", "max_dim", "cells")),
    ("cyclotomic.mul", "calls"),
    *((f"cyclotomic.{g}", "self_s") for g in (
        "build_mtilde", "mtilde_structure", "mtilde_det", "gauss", "numeric_products")),
    *((f"quadfield.{fn}", f)
      for fn in ("class_number_imag", "class_number_real", "fundamental_unit", "chapman_ap")
      for f in ("calls", "self_s", "fail")),
    ("vsemirnov.decomposition", "self_s"),
)


def _accept_ratio(stats: dict) -> float:
    c = stats["cyclotomic.cauchy"]
    return (c["calls"] - c["fail"]) / c["calls"] if c["calls"] else 0.0


def layer_metrics(passes, stats) -> dict:
    """Per-layer metrics, each the (low) median over the traced passes, so
    counts, which are the same in every pass, stay whole numbers."""
    m = {}

    def put(name, unit, fn):
        m[name] = _metric(median_low(fn(p, s) for p, s in zip(passes, stats)), unit)

    for g, f in LAYER_FIELDS:
        put(f"{g}.{f}", "s" if f == "self_s" else "count", lambda p, s: s[g][f])
    put("cyclotomic.cauchy.accept_ratio", "ratio", lambda p, s: _accept_ratio(s))
    for t in TARGETS:
        put(f"verify.sweep_s.{t}", "s", lambda p, s: p.sweep_s.get(t, 0.0))
    put("verify.self_s", "s", lambda p, s: s["verify.sweep"]["self_s"])
    put("verify.render_s", "s", lambda p, s: s["verify.render"]["self_s"])
    for status in ("pass", "fail", "skipped"):
        put(f"verify.records.{status}", "count", lambda p, s: p.records[status.upper()])
    return m


def run(args) -> int:
    import legdet
    if Path(legdet.__file__).resolve().parent != SRC / "legdet":
        print(f"perfbench: imported legdet from {legdet.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import workloads
    from tracer import Tracer

    if args.workload not in workloads.NAMES:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.NAMES)} or all", file=sys.stderr)
        return 2
    setup_s = None if args.trace else measure_setup(workloads.REF_S)
    w = workloads.build(args.workload, args.seed, workloads.load_expected())

    plain, traced, stats, dumps, rounds = [], [], [], [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        plain.append(workloads.run_pass(w))
        if args.trace:
            with Tracer() as tr:
                traced.append(workloads.run_pass(w))
            stats.append(tr.group_stats())
            dumps.append(tr.dump())
        rounds.append(time.perf_counter() - t0)
        if time.perf_counter() - start + median(rounds) > args.seconds:
            break

    passes = plain + traced
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    wall = median(p.wall_s for p in plain)
    wall_norm = median(p.wall_norm_s for p in plain)
    summary = (f"workload={w.name} seed={w.seed} window={w.window} trace={args.trace} "
               f"passes={len(plain)} wall_s={wall:.4f} s (median; max "
               f"{max(p.wall_s for p in plain):.4f} s) wall_norm_s={wall_norm:.4f} s "
               f"failed_share={failed / attempted:.4g} ({failed}/{attempted})")
    if args.trace:
        metrics = layer_metrics(traced, stats)
        metrics["trace.overhead_s"] = _metric(
            median(p.wall_norm_s for p in traced) - wall_norm, "s")
        OUT.mkdir(exist_ok=True)
        (OUT / f"trace-{w.name}-seed{w.seed}.json").write_text(json.dumps(
            {"workload": w.name, "seed": w.seed, "window": w.window, "passes": dumps}))
        absent = sorted({a for d in dumps for a in d["absent"]})
        if absent:
            print(f"perfbench: absent from legdet: {', '.join(absent)}", file=sys.stderr)
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        metrics = {
            "wall_norm_s": _metric(wall_norm, "s"),
            "setup_s": _metric(setup_s, "s"),
            "peak_rss_mb": _metric(rss, "MB"),
        }
        summary += f" setup_s={setup_s:.4f} s peak_rss_mb={rss:.1f} MB"
    print(summary)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Run every workload untraced, each in its own process, and print the
    summary line of each."""
    import workloads
    status = 0
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600)
        sys.stderr.write(proc.stderr)
        if proc.returncode:
            status = proc.returncode
            continue
        print(proc.stdout.strip().splitlines()[-2], flush=True)
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "legdet" / "__init__.py").is_file():
        print(f"perfbench: no legdet sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    sys.exit(main())
