"""Span tracer for the benchmark's traced runs.

Each layer's entry point is wrapped under the name it is looked up by, so
``ddroots.methods.lu_factor`` is patched rather than ``ddroots.core.lu_factor``
(which ``methods`` imported by value).  Every call records one span: name,
start, end, parent span and row id.  Spans stay in memory until the run ends;
a layer's self time is its spans' durations minus the time their child spans
cover.
"""
from __future__ import annotations

import gzip
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

from mpmath import mp

import ddroots.benchmark
import ddroots.divdiff
import ddroots.methods
import workloads
from ddroots import NonlinearSystem

ROW = "benchmark.row"
EVAL = "problems.eval"

# span name -> per-layer metric that receives the span's self time
SELF_METRIC = {
    ROW: "benchmark.row_self_s",
    "methods.solve": "methods.step_self_s",
    "methods.central_dd": "divdiff.assemble_s",
    "divdiff.assemble": "divdiff.assemble_s",
    EVAL: "problems.eval_s",
    "core.factor": "core.factor_s",
    "core.trisolve": "core.trisolve_s",
    "convergence.acoc": "convergence.acoc_s",
    "convergence.decimals": "convergence.decimals_s",
    "efficiency.model": "efficiency.model_s",
}

# span name -> per-layer metric counting its calls
CALL_METRIC = {
    EVAL: "problems.eval_calls",
    "divdiff.assemble": "divdiff.assemble_calls",
    "core.factor": "core.factor_calls",
    "core.trisolve": "core.trisolve_calls",
    "convergence.acoc": "convergence.acoc_calls",
}


class Tracer:
    """Records spans for the calls made between ``install`` and ``uninstall``."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.row_ids: list[int] = []
        self._stack: list[int] = []
        self.row_id = -1
        self.reports: list = []
        self.eval_dps = 0
        self.elem_calls = 0
        self.elem_repeats = 0
        self._build_args = None
        self._patches: list = []

    def _span(self, name: str, fn, kind: str = ""):
        names, starts, ends = self.names, self.starts, self.ends
        parents, row_ids, stack = self.parents, self.row_ids, self._stack
        clock = time.perf_counter
        tracer = self
        build = kind == "build"
        is_eval = kind == "eval"

        def traced(*args, **kwargs):
            i = len(starts)
            names.append(name)
            parents.append(stack[-1] if stack else -1)
            row_ids.append(tracer.row_id)
            ends.append(0.0)
            stack.append(i)
            opened = build and tracer._build_args is None
            if opened:
                tracer._build_args = set()
            if is_eval:
                tracer.eval_dps += mp.dps
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
                if opened:
                    tracer._build_args = None

        return traced

    def _elementary(self, label: str, fn):
        """Count calls of an elementary function made inside a component
        evaluation, and those whose argument the open operator build has
        already passed to it."""
        names, stack, tracer = self.names, self._stack, self

        def counted(x, *args, **kwargs):
            if stack and names[stack[-1]] == EVAL:
                tracer.elem_calls += 1
                seen = tracer._build_args
                if seen is not None:
                    key = (label, getattr(x, "_mpf_", x))
                    if key in seen:
                        tracer.elem_repeats += 1
                    else:
                        seen.add(key)
            return fn(x, *args, **kwargs)

        return counted

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        methods, benchmark = ddroots.methods, ddroots.benchmark
        for owner, attr, name, kind in (
            (methods, "lu_factor", "core.factor", ""),
            (methods, "lu_solve", "core.trisolve", ""),
            (methods, "central_dd", "methods.central_dd", "build"),
            (methods, "_acoc", "convergence.acoc", ""),
            (methods, "_correct_decimals", "convergence.decimals", ""),
            (benchmark, "_acoc", "convergence.acoc", ""),
            (benchmark, "efficiency_columns", "efficiency.model", ""),
            (NonlinearSystem, "eval_component", EVAL, "eval"),
        ):
            self._patch(owner, attr, self._span(name, getattr(owner, attr), kind))
        for owner in (benchmark, workloads):
            self._patch(owner, "solve", self._span("methods.solve", self._capture(owner.solve)))
        builders = {}
        original_operator_for = ddroots.divdiff.operator_for

        def operator_for(kind):
            if kind not in builders:
                builders[kind] = self._span(
                    "divdiff.assemble", original_operator_for(kind), "build"
                )
            return builders[kind]

        for owner in (ddroots.divdiff, methods):
            self._patch(owner, "operator_for", operator_for)
        for label in ("exp", "cos"):
            self._patch(mp, label, self._elementary(label, getattr(mp, label)))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _capture(self, solve):
        reports = self.reports

        def captured(*args, **kwargs):
            report = solve(*args, **kwargs)
            reports.append(report)
            return report

        return captured

    def run_row(self, call):
        """Run one row traced, under a root span with a fresh row id."""
        self.row_id += 1
        self.install()
        try:
            return self._span(ROW, call)()
        finally:
            self.uninstall()

    def self_times(self) -> dict[str, float]:
        """Self seconds per span name, children excluded."""
        covered = [0.0] * len(self.starts)
        for i, parent in enumerate(self.parents):
            if parent >= 0:
                covered[parent] += self.ends[i] - self.starts[i]
        out: dict[str, float] = defaultdict(float)
        for i, name in enumerate(self.names):
            out[name] += self.ends[i] - self.starts[i] - covered[i]
        return dict(out)

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics, each a mean per traced row."""
        rows = self.row_id + 1
        if rows == 0:
            raise ValueError("no traced rows")
        metrics = {metric: 0.0 for metric in SELF_METRIC.values()}
        metrics.update({metric: 0.0 for metric in CALL_METRIC.values()})
        for name, seconds in self.self_times().items():
            metrics[SELF_METRIC[name]] += seconds
        for name, calls in Counter(self.names).items():
            if name in CALL_METRIC:
                metrics[CALL_METRIC[name]] += calls
        evals, products, quotients = (
            sum(r.counters.snapshot()[k] for r in self.reports) for k in range(3)
        )
        eval_calls = metrics["problems.eval_calls"]
        metrics.update(
            {
                "problems.evals": evals,
                "core.products": products,
                "core.quotients": quotients,
                "methods.iterations": sum(r.iterations for r in self.reports),
                "problems.elem_calls": self.elem_calls,
            }
        )
        per_row = {name: value / rows for name, value in metrics.items()}
        per_row["problems.eval_dps_mean"] = self.eval_dps / eval_calls if eval_calls else 0.0
        per_row["problems.repeat_arg_share"] = (
            self.elem_repeats / self.elem_calls if self.elem_calls else 0.0
        )
        return per_row

    def write(self, path: Path) -> None:
        """Write every span as gzipped JSON: names once, then one row per span."""
        labels = sorted(set(self.names))
        index = {name: k for k, name in enumerate(labels)}
        spans = [
            [index[n], s, e, p, r]
            for n, s, e, p, r in zip(
                self.names, self.starts, self.ends, self.parents, self.row_ids
            )
        ]
        with gzip.open(path, "wt") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "row"],
                       "names": labels, "spans": spans}, fh)
