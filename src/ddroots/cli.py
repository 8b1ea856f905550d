"""Command-line interface: rerun benchmark problems, export boundary-curve
data, and run the invariant check suites.

A key=value config file can supply any flag; the command line's own flags
win.  Exit codes:
0 ok, 1 a row or a check failed or the reader closed stdout, 2 bad input
or config.
"""
from __future__ import annotations

import argparse
import os
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


def _config_args(path: str) -> list[str]:
    """The flags a key=value config file stands for, in file order.

    ``key=value`` is ``--key=value`` (underscores in the key read as
    dashes), a comma-separated value repeats the flag, and ``true`` or
    ``false`` gives the bare flag or nothing.
    """
    args = []
    with open(path) as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"malformed config line: {raw!r}")
            key, _, value = line.partition("=")
            flag = "--" + key.strip().replace("_", "-")
            value = value.strip()
            if value.lower() == "true":
                args.append(flag)
            elif value.lower() != "false":
                args += [f"{flag}={item.strip()}" for item in value.split(",")]
    return args


def _parse_args(parser: argparse.ArgumentParser, argv: list[str]) -> argparse.Namespace:
    """Parse argv with the flags of its --config file, if any, inserted
    right after the command.  A flag the command line names, in full or
    abbreviated, is not taken from the file, so a repeatable flag such as
    --method replaces the file's list instead of extending it."""
    probe = argparse.ArgumentParser(add_help=False)
    probe.add_argument("--config")
    path = probe.parse_known_args(argv)[0].config
    if path:
        named = [a.partition("=")[0] for a in argv[1:] if a.startswith("--") and a != "--"]
        seeded = [
            a for a in _config_args(path)
            if not any(a.partition("=")[0].startswith(n) for n in named)
        ]
        argv = argv[:1] + seeded + argv[1:]
    return parser.parse_args(argv)


def _cmd_run(args: argparse.Namespace) -> int:
    problem = REGISTRY[args.problem]
    mu = args.mu
    if args.estimate_mu:
        if mu is not None:
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
    if args.digits is not None:
        if args.suite not in ("operators", "counters"):
            raise ValueError("--digits applies only to the operators and counters suites")
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
    run.add_argument("--mu", default=None)
    run.add_argument("--estimate-mu", action="store_true", dest="estimate_mu",
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
        args = _parse_args(parser, list(argv) if argv is not None else sys.argv[1:])
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse has printed the help or a usage error
        return exc.code
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout
        # on devnull, the interpreter's exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ValueError as exc:  # an out-of-range value met by the library
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
