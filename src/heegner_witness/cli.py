"""Command line front end.

    witness --curves FILE [--label L] [--depth N] [--out DIR] [--config FILE]
    witness ap --curve LABEL --pmax B [--curves FILE]
    witness scan-k --curve LABEL [--bound B] [--curves FILE]
    witness tower --q Q --primes P1,P2,... [--r R] [--m M] [--c C]

Exit code 0 iff every selected witness run passes. Nothing is written but
the reports under --out.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

from .arith import primes_upto
from .ec_core import POINT_COUNT_CEILING, CurveQ, ap_many
from .galois_tower import FormalMWModel, divisibility_contradiction, tower_structure
from .pipeline import Config, emit_report, parse_curve_file, run_witness
from .searcher import FieldSearchExhausted, find_K

BUILTIN_CURVES = [
    CurveQ(0, -1, 1, -10, -20, 11, "11a"),
    CurveQ(0, 0, 1, -1, 0, 37, "37a"),
    CurveQ(0, 1, 1, -2, 0, 389, "389a"),
]


def _curve_pool(path: str | None) -> list[CurveQ]:
    if not path:
        return list(BUILTIN_CURVES)
    try:
        return parse_curve_file(path)
    except (OSError, ValueError) as e:
        raise SystemExit(f"cannot read curve table: {e}")


def _lookup(pool, label):
    for c in pool:
        if c.label == label:
            return c
    raise SystemExit(f"unknown curve label {label!r}; known: {[c.label for c in pool]}")


def _cmd_witness(args) -> int:
    try:
        config = Config.from_file(args.config) if args.config else Config()
        if args.depth is not None:
            config = dataclasses.replace(config, depth=args.depth)  # re-runs the checks
    except (OSError, ValueError) as e:
        print(f"cannot read config: {e}", file=sys.stderr)
        return 2
    try:
        curves = parse_curve_file(args.curves)
    except (OSError, ValueError) as e:
        print(f"cannot read curve table: {e}", file=sys.stderr)
        return 2
    if args.label:
        curves = [c for c in curves if c.label == args.label]
        if not curves:
            print(f"no curve labelled {args.label!r} in {args.curves}", file=sys.stderr)
            return 2
    all_pass = True
    for curve in curves:
        report = run_witness(curve, config)
        for chk in report.checks:
            status = "pass" if chk["pass"] else "FAIL"
            print(f"[{report.label}] {chk['name']:28s} {status}")
        verdict = "PASS" if report.passed else f"FAIL (at {report.failed_at})"
        print(f"[{report.label}] => {verdict}")
        if args.out:
            path = os.path.join(args.out, f"{report.label}.json")
            emit_report(report, path)
            print(f"[{report.label}] report written to {path}")
        all_pass = all_pass and report.passed
    return 0 if all_pass else 1


def _cmd_ap(args) -> int:
    pool = _curve_pool(args.curves)
    curve = _lookup(pool, args.curve)
    if args.pmax > POINT_COUNT_CEILING:
        print(f"--pmax {args.pmax} exceeds the point count ceiling {POINT_COUNT_CEILING}",
              file=sys.stderr)
        return 2
    primes = [p for p in primes_upto(args.pmax) if curve.N % p]
    for p, a in zip(primes, ap_many(curve, primes).tolist()):
        print(p, a)
    return 0


def _cmd_scan_k(args) -> int:
    pool = _curve_pool(args.curves)
    curve = _lookup(pool, args.curve)
    try:
        res = find_K(curve, scan_bound=args.bound)
        rejected = res.rejected
    except FieldSearchExhausted as e:
        res, rejected = None, e.rejected
    for d, reason in rejected:
        print(f"  d_K={d} rejected: {reason}")
    if res is None:
        print(f"no admissible field below {args.bound}")
        return 1
    print(f"d_K = {res.d_K}")
    print(f"  L'(E/K,1) ~ {res.l_value_data.value:.9g}")
    return 0


def _cmd_tower(args) -> int:
    primes = [int(t) for t in args.primes.split(",") if t]
    t = tower_structure(args.q, primes)
    print(f"full degree {t.full_degree} = " + " * ".join(str(f) for f in t.full_factors))
    print(f"quotient C_{args.q}^{t.n}, degree {t.quotient_degree}")
    model = FormalMWModel(
        q=args.q, k=1, c=(args.c,), ap_values=tuple(args.ap or [1] * t.n),
        m=args.m, r=args.r,
    )
    res = divisibility_contradiction(model)
    if res.derivable:
        print(f"contradiction witness at level n = {res.witness_n} "
              f"(m={args.m}, r={args.r}, v_q(c_j)={res.v_q_cj})")
        for row in res.ledger:
            print(f"  level {row['level']}: needs q^{row['required_power']} | c_j, "
                  f"v_q available {row['v_q_rhs']}: "
                  + ("ok" if row["divisible"] else "IMPOSSIBLE"))
        return 0
    print(f"no contradiction derivable: {res.reason}")
    return 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = argparse.ArgumentParser(prog="witness", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command")

    w = sub.add_parser("run", help="run witness pipelines (default command)")
    w.add_argument("--curves", required=True, help="curve table file")
    w.add_argument("--label", help="restrict to one label")
    w.add_argument("--depth", type=int, default=None, help="tower prime count")
    w.add_argument("--out", help="directory for JSON reports")
    w.add_argument("--config", help="JSON config file")
    w.set_defaults(func=_cmd_witness)

    a = sub.add_parser("ap", help="dump a_p values")
    a.add_argument("--curve", required=True)
    a.add_argument("--pmax", type=int, required=True)
    a.add_argument("--curves", help="curve table file (default: builtin test curves)")
    a.set_defaults(func=_cmd_ap)

    s = sub.add_parser("scan-k", help="search the auxiliary imaginary quadratic field")
    s.add_argument("--curve", required=True)
    s.add_argument("--bound", type=int, default=499)
    s.add_argument("--curves", help="curve table file (default: builtin test curves)")
    s.set_defaults(func=_cmd_scan_k)

    t = sub.add_parser("tower", help="exact tower certificate")
    t.add_argument("--q", type=int, required=True)
    t.add_argument("--primes", required=True, help="comma separated tower primes")
    t.add_argument("--r", type=int, default=1)
    t.add_argument("--m", type=int, default=0)
    t.add_argument("--c", type=int, default=1)
    t.add_argument("--ap", type=int, nargs="*", help="a_p values along the tower")
    t.set_defaults(func=_cmd_tower)

    # default command: bare `witness --curves ...` runs the pipeline
    if argv and argv[0] not in {"run", "ap", "scan-k", "tower", "-h", "--help"}:
        argv = ["run"] + argv
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_help()
        return 2
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
