"""Command-line interface: rerun benchmark problems, export boundary-curve
data, and run the invariant check suites.

A key=value config file can seed any flag; explicit flags win.  Exit codes:
0 ok, 1 a row or a check failed, 2 bad input or config.
"""
from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

from .benchmark import (
    FORMATTERS,
    RunConfig,
    SUITES,
    curves_to_csv,
    export_boundary_curves,
    run_benchmark,
)
from .divdiff import DividedDifferenceKind
from .efficiency import estimate_mu
from .methods import MethodKind
from .problems import REGISTRY


def _read_config(path: str) -> dict:
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw!r}")
            key, _, value = line.partition("=")
            values[key.strip().replace("-", "_")] = value.strip()
    return values


def _subparser_for(parser: argparse.ArgumentParser, command: str) -> argparse.ArgumentParser:
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            return action.choices[command]
    raise LookupError(command)


def _apply_config(parser: argparse.ArgumentParser, argv: Sequence[str]) -> argparse.Namespace:
    # parse once to find --config, seed the subcommand's defaults from it,
    # then parse again so explicit flags win
    probe, _ = parser.parse_known_args(argv)
    if getattr(probe, "config", None):
        raw = _read_config(probe.config)
        defaults = {}
        for key, value in raw.items():
            if key in ("method", "dd"):
                defaults[key] = value.split(",")
            elif key in ("digits", "max_iters", "samples"):
                defaults[key] = int(value)
            elif key in ("m_min", "m_max"):
                defaults[key] = float(value)
            elif key == "estimate_mu":
                defaults[key] = value.lower() in ("1", "true", "yes")
            else:
                defaults[key] = value
        sub = _subparser_for(parser, probe.command)
        known = {a.dest for a in sub._actions}
        unknown = set(defaults) - known
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        sub.set_defaults(**defaults)
    return parser.parse_args(argv)


def _cmd_run(args: argparse.Namespace) -> int:
    problem = REGISTRY[args.problem]
    mu = args.mu
    if args.estimate_mu:
        if mu is not None:  # both can come from a config file
            raise ValueError("--mu and --estimate-mu are exclusive")
        mu = repr(estimate_mu(problem.op_profile, m=problem.m))
    methods = tuple(MethodKind(m) for m in args.method) if args.method else None
    dds = tuple(DividedDifferenceKind(d) for d in args.dd) if args.dd else None
    config = RunConfig(
        digits=args.digits,
        methods=methods,
        dd_kinds=dds,
        max_iters=args.max_iters,
        ell=args.ell,
        mu=mu,
    )
    rows = run_benchmark(problem, config)
    print(FORMATTERS[args.format](rows).rstrip("\n"))
    return 1 if any(r.error for r in rows) else 0


def _cmd_curves(args: argparse.Namespace) -> int:
    rows = export_boundary_curves(
        args.which, ell=args.ell, m_min=args.m_min, m_max=args.m_max, samples=args.samples
    )
    print(curves_to_csv(rows), end="")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    kwargs = {}
    if args.suite in ("operators", "counters") and args.digits is not None:
        kwargs["digits"] = args.digits
    results = SUITES[args.suite](**kwargs)
    failed = [r for r in results if not r.passed]
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        print(f"[{status}] {r.name}: {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ddroots",
        description=(
            "Derivative-free nonlinear-system solving in arbitrary precision: "
            "benchmark reruns, efficiency boundary curves, invariant checks."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="rerun a benchmark problem")
    run.add_argument("--problem", required=True, choices=sorted(REGISTRY))
    run.add_argument("--method", action="append", choices=[m.value for m in MethodKind])
    run.add_argument("--dd", action="append", choices=[d.value for d in DividedDifferenceKind])
    run.add_argument("--digits", type=int, default=4096)
    run.add_argument("--ell", default="2.5")
    mu = run.add_mutually_exclusive_group()
    mu.add_argument("--mu", default=None)
    mu.add_argument("--estimate-mu", action="store_true", dest="estimate_mu",
                    help="price mu from the problem's operation profile")
    run.add_argument("--max-iters", type=int, default=200, dest="max_iters")
    run.add_argument("--format", default="md", choices=sorted(FORMATTERS))
    run.add_argument("--config", default=None, help="key=value file seeding these flags")
    run.set_defaults(func=_cmd_run)

    curves = sub.add_parser("curves", help="sample an equal-efficiency boundary curve")
    curves.add_argument("--which", required=True, choices=("g20", "g22", "g11"))
    curves.add_argument("--ell", default="2.5")
    curves.add_argument("--m-min", type=float, default=2.0, dest="m_min")
    curves.add_argument("--m-max", type=float, default=20.0, dest="m_max")
    curves.add_argument("--samples", type=int, default=64)
    curves.add_argument("--config", default=None)
    curves.set_defaults(func=_cmd_curves)

    check = sub.add_parser("check", help="run an invariant check suite")
    check.add_argument("--suite", required=True, choices=sorted(SUITES))
    check.add_argument("--digits", type=int, default=None,
                       help="working digits for the operators/counters suites")
    check.add_argument("--config", default=None)
    check.set_defaults(func=_cmd_check)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = _apply_config(parser, list(argv) if argv is not None else sys.argv[1:])
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.func(args)
    except ValueError as exc:  # an out-of-range value met by the library
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
