"""Benchmark of the ddroots solvers, one workload per run.

Usage, from the repository root:

    python3 perfbench/run.py --workload transc-4096 --seed 1 --seconds 30 --trace 0

One caller in one process and one thread runs the rows in a closed loop: the
next row starts only after the previous one has returned.  The run consists of
whole passes over the workload's rows and starts another pass only while it is
expected to end within ``--seconds``.  Every row's result is checked after its
timer stops.

Row times are also reported in products: a row's wall time divided by the
mean time of one multiplication at the workload's precision, sampled every
20 ms while the row runs.  That is the unit of the paper's cost model, and it
cancels the slow spells of a shared machine, which ran the same code 1.9 times
as slowly for a second or two at a time (2-core VM, Python 3.11, mpmath 1.3 on
its pure-Python backend).  BENCHMARK.json bounds the product-unit figures;
wall seconds are printed and written to the results file.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates an
untraced and a traced pass over the same rows and reports the per-layer
metrics, each a mean per traced row, plus the tracing overhead.  The last line
of standard output is one JSON object; results and spans are also written to
``perfbench/results/``.  The exit code is 1 when any row fails its check.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

# fresh processes timed for setup_s; the median is reported
SETUP_PROBES = 31

END_TO_END_UNITS = {
    "row_cost_p50": "products",
    "row_cost_tail": "products",
    "digits_per_kproduct": "digits/kproduct",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s/row"
    if name.endswith("_us"):
        return "us"
    if name == "problems.eval_dps_mean":
        return "digits"
    if name.endswith(("_share", "_ratio")):
        return "ratio"
    return "count/row"


def tail(passes: list[list[float]]) -> tuple[float, str]:
    """The highest percentile of row times with ten rows beyond it.

    Below 20 rows no percentile above the median has ten rows beyond it;
    the median over passes of each pass's slowest row is reported then,
    since the maximum of a few rows measures this shared machine's slow
    spells rather than the program.
    """
    ordered = sorted(t for p in passes for t in p)
    n = len(ordered)
    if n >= 20:
        return ordered[n - 11], f"p{100 * (n - 10) / n:.1f} of {n} rows"
    return (statistics.median(max(p) for p in passes),
            f"median of the slowest row of each of {len(passes)} passes ({n} rows)")


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args, digits: int) -> dict:
    import mpmath

    return {
        "python": f"{platform.python_implementation()} {platform.python_version()}",
        "mpmath": mpmath.__version__,
        "mpmath_backend": mpmath.libmp.BACKEND,
        "nproc": len(os.sched_getaffinity(0)),
        "digits": digits,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
    }


def setup_probe(name: str) -> None:
    """Time a fresh process's import and workload set-up; print the seconds."""
    start = time.perf_counter()
    import workloads

    workloads.WORKLOADS[name].setup()
    print(time.perf_counter() - start)


def measure_setup(name: str) -> float:
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", name,
             "--seed", "0", "--seconds", "1", "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=150, check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return statistics.median(times)


class ProductSampler:
    """Samples the time of one product while rows run.

    Inside ``with sampler:``, a SIGALRM handler runs every ``INTERVAL``
    seconds of wall time and times a few multiplications of two
    full-precision numbers at ``digits``, through mpmath's context-free
    ``mpf_mul`` so that the precision the package has set does not matter.
    Samples fall evenly over wall time, so their mean over a row weights
    each slow spell as the row's time does.  The handler's own time is
    summed in ``spent`` so that rows can leave it out.
    """

    INTERVAL = 0.02

    def __init__(self, digits: int):
        from mpmath import libmp, mp

        self.mul = libmp.mpf_mul
        self.prec = libmp.dps_to_prec(digits)
        with mp.workdps(digits):
            self.a, self.b = mp.sqrt(2)._mpf_, mp.sqrt(3)._mpf_
        # about 0.4 ms per sample at 4096 digits, 2 % of the interval
        self.count = max(4, 16384 // digits)
        self.samples: list[float] = []
        self.spent = 0.0
        self._previous = None

    def sample(self, *_) -> None:
        """Time one batch of products and record seconds per product."""
        mul, a, b, prec = self.mul, self.a, self.b, self.prec
        clock = time.perf_counter
        start = clock()
        for _ in range(self.count):
            mul(a, b, prec, "n")
        self.samples.append((clock() - start) / self.count)
        self.spent += clock() - start

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, self.INTERVAL, self.INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def product_s(self, first: int) -> float:
        """Mean seconds per product of the samples from index ``first`` on;
        a row too short to receive a sample takes one right after it."""
        if len(self.samples) <= first:
            self.sample()
        return statistics.fmean(self.samples[first:])


def run_one(row, runner=None, sampler: ProductSampler | None = None) -> dict:
    """Time one row's call, then check its result.

    With a sampler, the seconds leave out the sampler's time and the row
    carries the mean product time sampled while it ran.
    """
    first, spent = (len(sampler.samples), sampler.spent) if sampler else (0, 0.0)
    start = time.perf_counter()
    result = runner(row.call) if runner else row.call()
    seconds = time.perf_counter() - start
    sample = {"row": row.label}
    if sampler:
        seconds -= sampler.spent - spent
        sample["product_s"] = sampler.product_s(first)
    outcome = row.check(result)
    sample.update({
        "seconds": seconds,
        "q": outcome.q,
        "iterations": outcome.iterations,
        "failures": outcome.failures,
    })
    return sample


def measure(workload, rng: random.Random, seconds: float, tracer=None):
    """Whole passes, each repeated traced when a tracer is given.

    Returns the untraced and the traced passes, each a list of row samples.
    Untraced passes run under a ``ProductSampler``, returned third; traced
    passes run without it, so that its time falls in no layer's span.
    """
    sampler = ProductSampler(workload.digits)
    untraced, traced = [], []
    start = time.perf_counter()
    while True:
        rows = workload.next_pass(rng)
        with sampler:
            untraced.append([run_one(row, sampler=sampler) for row in rows])
        if tracer is not None:
            traced.append([run_one(row, tracer.run_row) for row in rows])
        elapsed = time.perf_counter() - start
        if elapsed * (len(untraced) + 1) / len(untraced) > seconds:
            return untraced, traced, sampler


def end_to_end(passes: list[list[dict]], in_products: bool) -> tuple[tuple, str]:
    """(row time median, row time tail, digits per time) and the tail's note.

    Times are in wall seconds, or in products of each row's product time.
    Mean row time is first taken per pass, whose rows are always the same
    kinds, and the median over passes is reported: a plain median over rows
    of several kinds sits in the gap between two kinds and jumps with any
    shift in their ranks.  Digits per time is all the run's correct decimals
    over all its row time, since the decimals a pass reaches vary with its
    start point.
    """
    times, digits = [], 0
    for p in passes:
        times.append([s["seconds"] / (s["product_s"] if in_products else 1.0) for s in p])
        digits += sum(s["q"] for s in p)
    tail_value, tail_note = tail(times)
    values = (
        statistics.median(sum(t) / len(t) for t in times),
        tail_value,
        digits / sum(sum(t) for t in times),
    )
    return values, tail_note


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "ddroots" / "__init__.py").is_file():
        print(f"perfbench: no ddroots sources in {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        setup_probe(args.workload)
        return 0
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload]
    env = environment(args, workload.digits)
    print("environment " + json.dumps(env), flush=True)
    setup_s = None if args.trace else measure_setup(args.workload)
    workload.setup()
    workload.prepare()
    rng = random.Random(args.seed)

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
    untraced, traced, sampler = measure(workload, rng, args.seconds, tracer)
    samples = [s for p in untraced + traced for s in p]
    failed = [s for s in samples if s["failures"]]

    if args.trace:
        untraced_s = sum(s["seconds"] for p in untraced for s in p)
        traced_s = sum(s["seconds"] for p in traced for s in p)
        values = tracer.layer_metrics()
        values["benchmark.traced_row_s"] = traced_s / (tracer.row_id + 1)
        values["trace_overhead_ratio"] = traced_s / untraced_s
        values["machine.product_us"] = 1e6 * statistics.median(sampler.samples)
        metrics = {k: {"value": v, "unit": per_layer_unit(k)} for k, v in values.items()}
    else:
        wall, tail_note = end_to_end(untraced, in_products=False)
        print("wall seconds: row_s_p50 {:.6g} s, row_s_tail {:.6g} s, "
              "digits_per_s {:.6g} 1/s".format(*wall))
        cost, _ = end_to_end(untraced, in_products=True)
        print(f"row_s_tail and row_cost_tail are the {tail_note}")
        values = {
            "row_cost_p50": cost[0],
            "row_cost_tail": cost[1],
            "digits_per_kproduct": 1000 * cost[2],
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    for s in failed:
        print(f"FAILED {s['row']}: {'; '.join(s['failures'])}")
    print(f"rows attempted {len(samples)}, failed {len(failed)}, "
          f"fail_ratio {len(failed) / len(samples)}")
    for name, metric in metrics.items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")

    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (RESULTS / f"{stem}.json").write_text(json.dumps(
        {"environment": env, "metrics": metrics, "passes": untraced + traced}, indent=1
    ))
    if tracer is not None:
        tracer.write(RESULTS / f"{stem}.spans.json.gz")

    print(json.dumps({
        "correct": not failed,
        "attempted": len(samples),
        "failed": len(failed),
        "metrics": metrics,
    }))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
