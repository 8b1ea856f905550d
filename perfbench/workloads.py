"""The benchmark's workloads: fixed row lists, seeded pass order, and checks.

A row is one call into the package's public API: ``run_row`` for a registered
problem, or ``solve`` (which computes its own ACOC and correct decimals) for
Broyden's tridiagonal system.  A pass runs every row of a workload once, in an
order drawn from the seed.  Each row's result is checked after its timer has
stopped; a row with any failed check counts as failed, so a fast but wrong
answer never counts as a fast row.
"""
from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from mpmath import mp, mpf

import ddroots.benchmark
from ddroots import (
    REGISTRY,
    DividedDifferenceKind,
    HPVector,
    MethodKind,
    NonlinearSystem,
    PrecisionContext,
    RunConfig,
    SolverError,
    eta,
    expected_iteration_counts,
    inf_norm,
    run_row,
    solve,
    theoretical_order,
)

D1 = DividedDifferenceKind.D1
D2 = DividedDifferenceKind.D2
PHI0 = MethodKind.PHI0
PHI2 = MethodKind.PHI2


@dataclass
class Outcome:
    """Checked result of one row: correct decimals and every failed check."""

    q: int
    iterations: Optional[int]
    failures: list[str] = field(default_factory=list)


@dataclass
class Row:
    """One timed call (``call``) and the untimed check of its result."""

    label: str
    call: Callable[[], Any]
    check: Callable[[Any], Outcome]


def _warm_constants(digits: int) -> None:
    """Pay mpmath's first-use constants (pi, ln 2, log tables) at ``digits``."""
    with mp.workdps(digits):
        +mp.pi
        +mp.ln2
        mp.log(mpf(3))


class RegisteredWorkload:
    """Rows of the registered problems, each run through ``run_row``.

    Published rows are checked against their published iterations and
    correct decimals (q may be one below: the stored root and the published
    tables round the last digit differently).  Rows without a published
    entry, the exp5 d2 rows, are checked against their d1 counterpart, which
    they match because exp5's mixed second derivatives vanish.
    """

    def __init__(self, name: str, digits: int, rows: tuple):
        self.name = name
        self.digits = digits
        self.rows = rows
        self.config = RunConfig(digits=digits)

    def setup(self) -> None:
        """Load the reference roots, build each system and evaluate it once
        at the working precision, so lazy caches fill before timing."""
        ctx = PrecisionContext(self.digits)
        with ctx.activate():
            for name in dict.fromkeys(p for p, _, _ in self.rows):
                problem = REGISTRY[name]
                problem.build_system().eval(problem.x0_vector())
        _warm_constants(self.digits)

    def prepare(self) -> None:
        """Registered rows take no generated inputs."""

    def next_pass(self, rng: random.Random) -> list[Row]:
        rows = [self._row(*spec) for spec in self.rows]
        rng.shuffle(rows)
        return rows

    def _row(self, name: str, method: MethodKind, dd: DividedDifferenceKind) -> Row:
        problem = REGISTRY[name]
        published = problem.rows.get((method, dd)) or problem.rows[(method, D1)]

        def call():
            return run_row(problem, method, dd, self.config)

        def check(row) -> Outcome:
            out = Outcome(q=row.correct_decimals or 0, iterations=row.iterations)
            if row.error:
                out.failures.append(row.error)
            if row.counters_ok is not True:
                out.failures.append("per-iteration counters differ from their closed form")
            if row.iterations != published.iterations:
                out.failures.append(
                    f"I = {row.iterations}, published {published.iterations}"
                )
            if row.correct_decimals is None or (
                row.correct_decimals < published.correct_decimals - 1
            ):
                out.failures.append(
                    f"q = {row.correct_decimals}, published {published.correct_decimals}"
                )
            return out

        return Row(f"{name}/{method.value}/{dd.value}", call, check)


def broyden_tridiagonal(m: int) -> list:
    """Components F_i = (3 - 2 x_i) x_i - x_{i-1} - 2 x_{i+1} + 1, x_0 = x_{m+1} = 0.

    Moré, Garbow & Hillstrom, ACM TOMS 7 (1981), problem 30.
    """

    def make(i):
        def component(p):
            left = p[i - 1] if i > 0 else 0
            right = p[i + 1] if i < m - 1 else 0
            return (3 - 2 * p[i]) * p[i] - left - 2 * right + 1

        return component

    return [make(i) for i in range(m)]


class TridiagWorkload:
    """All six (method, operator) pairs on Broyden's tridiagonal system.

    A row is one ``solve`` (which computes ACOC and correct decimals) plus the
    row's cost-model columns, as ``run_row`` reports them for the registered
    problems.  Each pass draws its own start point x0 = -1 + U(-0.1, 0.1) per
    coordinate from the seed.  Correct decimals are measured against a root
    this benchmark computes at twice the working digits, outside every timed
    section.  Only the second derivative d^2 F_i / d x_i^2 is nonzero, so the
    one-sided operator keeps the design orders 2, 4 and 6.
    """

    pairs = tuple((method, dd) for method in MethodKind for dd in (D1, D2))
    # one product per component evaluation, in the paper's product units
    mu = "1"

    def __init__(self, name: str, digits: int, m: int):
        self.name = name
        self.digits = digits
        self.m = m
        self.ctx = PrecisionContext(digits)
        self.system: Optional[NonlinearSystem] = None

    def setup(self) -> None:
        with self.ctx.activate():
            self.system = NonlinearSystem(
                self.m, broyden_tridiagonal(self.m), name=f"broyden-tridiagonal-{self.m}"
            )
            self.system.eval(HPVector(["-1"] * self.m))
        _warm_constants(self.digits)

    def prepare(self) -> None:
        """Compute the reference root at twice the working digits."""
        digits = 2 * self.digits
        ctx = PrecisionContext(digits + 64)
        with ctx.activate():
            report = solve(
                self.system,
                HPVector(["-1"] * self.m),
                PHI2,
                D2,
                ctx,
                max_iters=60,
                eta_override=2 * eta(6, digits),
            )
            root = report.trace.iterates[-1]
            residual = inf_norm(self.system.eval(root))
            if residual > mpf(10) ** (-digits):
                raise RuntimeError(
                    f"reference root residual {mp.nstr(residual, 5)} exceeds 1e-{digits}"
                )
        with self.ctx.activate():
            self.system = self.system.with_reference_root(root)

    def next_pass(self, rng: random.Random) -> list[Row]:
        x0 = [repr(-1 + rng.uniform(-0.1, 0.1)) for _ in range(self.m)]
        rows = [self._row(method, dd, x0) for method, dd in self.pairs]
        rng.shuffle(rows)
        return rows

    def _row(self, method: MethodKind, dd: DividedDifferenceKind, x0: list) -> Row:
        system = self.system
        ctx = self.ctx
        order = theoretical_order(method, D2)
        expected = expected_iteration_counts(method, dd, self.m)
        with ctx.activate():
            start = HPVector.from_decimals(x0)

        def call():
            try:
                report = solve(system, start, method, dd, ctx, order_hint=order)
            except SolverError as exc:
                return exc
            with ctx.activate():
                columns = ddroots.benchmark.efficiency_columns(
                    self.m, self.mu, "2.5", method, dd, order
                )
            return report, columns

        def check(result) -> Outcome:
            if isinstance(result, SolverError):
                return Outcome(0, None, [f"{type(result).__name__}: {result}"])
            report, columns = result
            out = Outcome(q=report.correct_decimals or 0, iterations=report.iterations)
            with ctx.activate():
                residual = inf_norm(system.eval(report.final_iterate))
                if not residual < mpf(10) ** (-mpf(report.eta_used)):
                    out.failures.append(
                        f"||F(final)|| = {mp.nstr(residual, 5)} >= 1e-{report.eta_used:.1f}"
                    )
                if report.acoc is None or abs(report.acoc - order) > mpf("0.05"):
                    out.failures.append(f"ACOC {report.acoc} is not within 0.05 of {order}")
            bad = [d for d in report.trace.counter_deltas if d != expected]
            if bad:
                out.failures.append(f"counter delta {bad[0]} differs from {expected}")
            if report.correct_decimals is None:
                out.failures.append("no correct-decimals measurement")
            if not float(columns[0]) > 0:
                out.failures.append(f"model cost {columns[0]} is not positive")
            return out

        return Row(f"tridiag{self.m}/{method.value}/{dd.value}", call, check)


# Why each workload exists is recorded in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        # Two of the ten exp5 and cos3 rows, since a pass over all ten takes
        # over 30 s here and a run needs several passes to outlast this
        # machine's slow spells.  They cover both problems and both
        # operators: exp5 phi0/d1 runs the most iterations (11), cos3 phi2/d2
        # the most evaluations per iteration.
        RegisteredWorkload("transc-4096", 4096, (("exp5", PHI0, D1), ("cos3", PHI2, D2))),
        RegisteredWorkload(
            "poly-4096",
            4096,
            tuple(("quad2", method, dd) for method, dd in REGISTRY["quad2"].rows),
        ),
        TridiagWorkload("tridiag-256", 256, 32),
    )
}
