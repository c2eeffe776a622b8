"""Command-line interface.

Exit codes: 0 = success / no FAIL records, 1 = any FAIL or falsified
identity, 2 = usage error (bad arguments, out-of-domain input or an
unwritable --out).
"""
from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .arith import OddPrime, legendre
from .errors import LegdetError
from .matrices import (
    build_cp,
    build_ep,
    build_mp,
    charpoly_cp,
    charpoly_cp_text,
    det_cp,
    det_ep,
    det_mp,
)
from .quadfield import (
    _chapman_power,
    class_number_imag,
    class_number_real,
    fundamental_unit,
)
from .verify import TARGETS, run_sweep

_BUILDERS = {"cp": build_cp, "ep": build_ep, "mp": build_mp}
_DETS = {"cp": det_cp, "ep": det_ep, "mp": det_mp}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="legdet",
        description="Verify determinant and class-number identities for "
        "Legendre-symbol matrices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("symbol", help="Legendre symbol (a/p)")
    sp.add_argument("a", type=int)
    sp.add_argument("p", type=int)

    for name, extra in (("matrix", True), ("det", False)):
        mp = sub.add_parser(
            name,
            help="build a symbol matrix" if extra else "exact determinant",
        )
        mp.add_argument("--kind", choices=sorted(_BUILDERS), required=True)
        mp.add_argument("--p", type=int, required=True)
        if extra:
            mp.add_argument("--print", action="store_true", dest="show")

    cp = sub.add_parser("charpoly", help="characteristic polynomial of the cp matrix")
    cp.add_argument("--p", type=int, required=True)

    cn = sub.add_parser("class-number", help="class number of Q(sqrt(+-p))")
    cn.add_argument("--field", choices=("real", "imag"), required=True)
    cn.add_argument("--p", type=int, required=True)

    fu = sub.add_parser("fundamental-unit", help="fundamental unit of Q(sqrt(p))")
    fu.add_argument("--p", type=int, required=True)

    ch = sub.add_parser("chapman", help="unit-power coefficients a_p, b_p")
    ch.add_argument("--p", type=int, required=True)

    vf = sub.add_parser("verify", help="sweep one identity over a prime range")
    vf.add_argument("--target", choices=TARGETS, required=True)
    vf.add_argument("--from", dest="lo", type=int, required=True)
    vf.add_argument("--to", dest="hi", type=int, required=True)
    vf.add_argument("--tolerance", type=float, default=1e-6,
                    help="decomposition's residual bound, a finite number >= 0 "
                         "(default 1e-6); write a negative or exponent value "
                         "as --tolerance=VALUE")
    vf.add_argument("--jobs", type=int, default=1)
    vf.add_argument("--format", choices=("text", "json", "csv"), default="text",
                    dest="fmt")
    vf.add_argument("--out", default=None)
    return parser


def _cmd_symbol(args) -> int:
    print(legendre(args.a, OddPrime(args.p)))
    return 0


def _cmd_matrix(args) -> int:
    m = _BUILDERS[args.kind](OddPrime(args.p))
    print(f"kind={args.kind} p={args.p} dim={m.dim}")
    if args.show:
        width = max(len(str(x)) for row in m.rows for x in row)
        for row in m.rows:
            print(" ".join(f"{x:>{width}}" for x in row))
    return 0


def _cmd_det(args) -> int:
    print(_DETS[args.kind](OddPrime(args.p)))
    return 0


def _cmd_charpoly(args) -> int:
    p = OddPrime(args.p)
    print(charpoly_cp_text(p, *charpoly_cp(p)))
    return 0


def _cmd_class_number(args) -> int:
    p = OddPrime(args.p)
    report = class_number_real(p) if args.field == "real" else class_number_imag(p)
    methods = ", ".join(f"{k}={v}" for k, v in sorted(report.method_values.items()))
    label = p.p if args.field == "real" else -p.p
    print(f"h({label}) = {report.h} ({methods})")
    return 0


def _cmd_fundamental_unit(args) -> int:
    p = OddPrime(args.p)
    eps = fundamental_unit(p)
    print(f"eps_{p.p} = {eps} norm={eps.norm()}")
    return 0


def _cmd_chapman(args) -> int:
    p = OddPrime(args.p)
    eps, h, exponent, (a_p, b_p) = _chapman_power(p)
    print(f"p={p.p} h={h} exponent={exponent} eps={eps} a_p={a_p} b_p={b_p}")
    return 0


def _cmd_verify(args) -> int:
    # refuse an --out that cannot be opened before the sweep, without
    # creating or truncating the file: it is written only after the sweep
    out = Path(args.out) if args.out else None
    if out and (out.is_dir() or not out.parent.is_dir()):
        reason = "is a directory" if out.is_dir() else "no such directory"
        print(f"legdet: cannot write --out {args.out}: {reason}", file=sys.stderr)
        return 2
    report = run_sweep(
        args.target, args.lo, args.hi, tolerance=args.tolerance, jobs=args.jobs
    )
    if args.fmt == "json":
        rendered = report.to_json() + "\n"
    elif args.fmt == "csv":
        rendered = report.to_csv()
    else:
        rendered = report.to_text()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(rendered)
        except OSError as exc:
            print(f"legdet: {exc}", file=sys.stderr)
            return 2
    else:
        sys.stdout.write(rendered)
    return report.exit_code


_COMMANDS = {
    "symbol": _cmd_symbol,
    "matrix": _cmd_matrix,
    "det": _cmd_det,
    "charpoly": _cmd_charpoly,
    "class-number": _cmd_class_number,
    "fundamental-unit": _cmd_fundamental_unit,
    "chapman": _cmd_chapman,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        print(f"legdet: {exc}", file=sys.stderr)
        return 2
    except LegdetError as exc:
        print(f"legdet: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
