"""Outside-in tracer for legdet.

The tracer replaces legdet's public functions, wherever a legdet module
binds them (``legdet.verify.det``, ``legdet.quadfield.legendre``, ...), with
timing wrappers, and restores the originals on exit.  Nothing inside the
package changes.

Two kinds of wrapper exist:

* span groups record one span per call (group, parent, start, end, child
  time, failed, matrix dimension), kept in memory and written out at the end;
* counted groups, for functions called more than about 10^5 times in a run,
  keep only a call count and aggregate time.  Their time is charged to the
  enclosing span as child time, so every self time excludes it.

A name that no longer exists after a refactor is listed in ``absent`` and
skipped, never raised.
"""
from __future__ import annotations

import sys
import time

_perf = time.perf_counter

# metric prefix -> (module under legdet, names in that module; "Cls.meth" for methods)
SPAN_GROUPS = {
    "matrices.build": ("matrices", ("build_mp", "build_ep", "build_cp")),
    "exactlinalg.det": ("exactlinalg", ("det",)),
    "exactlinalg.charpoly": ("exactlinalg", ("charpoly",)),
    "cyclotomic.build_mtilde": ("cyclotomic", ("build_mtilde",)),
    "cyclotomic.mtilde_structure": ("cyclotomic", ("mtilde_structure_check",)),
    "cyclotomic.mtilde_det": ("cyclotomic", ("mtilde_det_check", "cyc_det")),
    "cyclotomic.gauss": (
        "cyclotomic", ("gauss_sum", "gauss_sum_scaled", "quadratic_gauss_identity"),
    ),
    "cyclotomic.numeric_products": ("cyclotomic", ("sun_product_one", "sun_product_two")),
    "cyclotomic.cauchy": ("cyclotomic", ("cauchy_det",)),
    "quadfield.class_number_imag": ("quadfield", ("class_number_imag",)),
    "quadfield.class_number_real": ("quadfield", ("class_number_real",)),
    "quadfield.fundamental_unit": ("quadfield", ("fundamental_unit",)),
    "quadfield.chapman_ap": ("quadfield", ("chapman_ap",)),
    "vsemirnov.decomposition": ("vsemirnov", ("decomposition_residual", "build_uvd")),
    "verify.sweep": ("verify", ("run_sweep",)),
    "verify.render": (
        "verify", ("SweepReport.to_text", "SweepReport.to_json", "SweepReport.to_csv"),
    ),
}
COUNTED_GROUPS = {
    "arith.legendre": ("arith", ("legendre",)),
    "cyclotomic.mul": ("cyclotomic", ("CycElem.__mul__",)),
}
# the matrix dimension is recorded on spans of these groups (first argument)
_SIZED = {"exactlinalg.det"}

# span record fields
GROUP, PARENT, START, END, CHILD, FAILED, DIM = range(7)


class Tracer:
    """Context manager: patches legdet while active, restores it on exit."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counted = {g: [0, 0.0] for g in COUNTED_GROUPS}  # calls, seconds
        self.absent: list[str] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        modules = [m for n, m in list(sys.modules.items())
                   if (n == "legdet" or n.startswith("legdet.")) and m is not None]
        for groups, make in ((SPAN_GROUPS, self._span), (COUNTED_GROUPS, self._count)):
            for group, (mod, names) in groups.items():
                module = sys.modules.get(f"legdet.{mod}")
                for name in names:
                    self._patch(module, mod, name, make(group), modules)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def _patch(self, module, mod: str, name: str, make, modules) -> None:
        owner_name, _, attr = name.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        orig = getattr(owner, attr, None) if owner is not None else None
        if not callable(orig):
            self.absent.append(f"{mod}.{name}")
            return
        wrapped = make(orig)
        if owner_name:
            sites = [(owner, attr)]
        else:
            sites = [(m, k) for m in modules for k, v in vars(m).items() if v is orig]
        for site, key in sites:
            self._patches.append((site, key, orig))
            setattr(site, key, wrapped)

    def _span(self, group: str):
        spans, stack = self.spans, self._stack
        sized = group in _SIZED

        def make(fn):
            def wrapper(*args, **kwargs):
                rec = [group, stack[-1] if stack else -1, 0.0, 0.0, 0.0, False,
                       args[0].dim if sized else 0]
                stack.append(len(spans))
                spans.append(rec)
                rec[START] = _perf()
                try:
                    return fn(*args, **kwargs)
                except BaseException:
                    rec[FAILED] = True
                    raise
                finally:
                    rec[END] = _perf()
                    stack.pop()
                    if stack:
                        spans[stack[-1]][CHILD] += rec[END] - rec[START]
            return wrapper
        return make

    def _count(self, group: str):
        spans, stack, agg = self.spans, self._stack, self.counted[group]

        def make(fn):
            def wrapper(*args, **kwargs):
                t0 = _perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = _perf() - t0
                    agg[0] += 1
                    agg[1] += dt
                    if stack:
                        spans[stack[-1]][CHILD] += dt
            return wrapper
        return make

    def group_stats(self) -> dict:
        """Per group: calls, fail, self_s, max_dim and cells = sum n(n-1)(2n-1)/6."""
        stats = {g: {"calls": 0, "fail": 0, "self_s": 0.0, "max_dim": 0, "cells": 0}
                 for g in SPAN_GROUPS}
        for rec in self.spans:
            st = stats[rec[GROUP]]
            st["calls"] += 1
            st["fail"] += rec[FAILED]
            st["self_s"] += rec[END] - rec[START] - rec[CHILD]
            n = rec[DIM]
            st["max_dim"] = max(st["max_dim"], n)
            st["cells"] += n * (n - 1) * (2 * n - 1) // 6
        for g, (calls, seconds) in self.counted.items():
            stats[g] = {"calls": calls, "fail": 0, "self_s": seconds,
                        "max_dim": 0, "cells": 0}
        return stats

    def dump(self) -> dict:
        """Spans and counters in a JSON-ready form."""
        names = ("group", "parent", "start", "end", "child_s", "failed", "dim")
        return {
            "absent": self.absent,
            "counted": {g: {"calls": c, "seconds": s} for g, (c, s) in self.counted.items()},
            "spans": [dict(zip(names, rec)) for rec in self.spans],
        }
