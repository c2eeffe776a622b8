"""Regenerate expected.json, the values the correctness gate compares against.

The table was made once on the seed commit and must not be regenerated from
a later commit, or the gate would accept whatever that commit computes.
Run from the repository root:

    python3 perfbench/make_expected.py
"""
from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import legdet  # noqa: E402
from workloads import (  # noqa: E402
    CLASS_SHIFT, CLASS_START, CLASS_WIDTH, CRITERION10, chapman_digest,
)


def main() -> None:
    table = {"imag": {}, "real": {}, "chapman": {}}
    class_hi = CLASS_START + CLASS_SHIFT - 1 + CLASS_WIDTH - 1
    for kind, lo, hi, residue in CRITERION10 + (("imag", CLASS_START, class_hi, 3),):
        for q in legdet.primes_in_range(lo, hi):
            if q.p % 4 == residue:
                fn = legdet.class_number_imag if kind == "imag" else legdet.class_number_real
                table[kind][q.p] = fn(q).h
    for q in legdet.primes_in_range(CLASS_START, class_hi):
        if q.p % 4 == 1:
            table["chapman"][q.p] = chapman_digest(*legdet.chapman_ap(q))
    out = HERE / "expected.json"
    out.write_text(json.dumps(table, indent=0, sort_keys=True) + "\n")
    print(f"wrote {out}: " + ", ".join(f"{k} {len(v)}" for k, v in table.items()))


if __name__ == "__main__":
    main()
