"""Benchmark harness: reruns the registered problems, reproduces the
published result tables, exports boundary-curve data, and bundles the
invariant check suites used by the command line and the test suite.
"""
from __future__ import annotations

import csv
import io
import json
import random
from dataclasses import asdict, dataclass
from typing import Iterable, Optional, Sequence

from mpmath import mp, mpf

from . import efficiency
# unused here since solve reports the ACOC spread; perfbench/tracer.py patches this name
from .convergence import acoc as _acoc  # noqa: F401
from .core import HPVector, OpCounters, PrecisionContext, SolverError, mat_inf_norm, to_decimal
from .divdiff import (
    DividedDifferenceKind,
    check_potra,
    check_secant,
    check_symmetry,
    dd_d1,
    dd_d2,
    integral_dd_oracle,
)
from .efficiency import (
    CostModel,
    cei,
    comparison_ratio,
    cost,
    time_factor,
)
from .methods import MethodKind, expected_iteration_counts, operator_evals, solve, theoretical_order
from .problems import REGISTRY, ProblemSpec

D1 = DividedDifferenceKind.D1
D2 = DividedDifferenceKind.D2


@dataclass(frozen=True)
class RunConfig:
    """Options of one benchmark invocation; ``mu`` None takes the problem's
    published products-per-evaluation ratio."""

    digits: int = 4096
    methods: Optional[tuple[MethodKind, ...]] = None
    dd_kinds: Optional[tuple[DividedDifferenceKind, ...]] = None
    max_iters: int = 200
    ell: str = "2.5"
    mu: Optional[str] = None

    def plan_for(self, problem: ProblemSpec) -> tuple:
        """(method, dd) pairs to run: the problem's published set, filtered.

        Naming both a method and an operator kind explicitly also admits
        pairs outside the published rows.
        """
        plan = [
            (m, d)
            for (m, d) in problem.row_plan
            if (self.methods is None or m in self.methods)
            and (self.dd_kinds is None or d in self.dd_kinds)
        ]
        if self.methods is not None and self.dd_kinds is not None:
            for m in self.methods:
                for d in self.dd_kinds:
                    if (m, d) not in plan:
                        plan.append((m, d))
        if not plan:
            raise ValueError("no (method, divided-difference) pair selected")
        return tuple(plan)


@dataclass
class BenchmarkRow:
    """One solved (problem, method, operator) configuration."""

    problem: str
    method: str
    dd: str
    order: int
    digits: int
    mu: str
    ell: str
    cost: str
    cei: str
    tf: str
    iterations: Optional[int] = None
    acoc: Optional[str] = None
    acoc_full: Optional[str] = None
    acoc_spread: Optional[str] = None
    correct_decimals: Optional[int] = None
    eta: Optional[float] = None
    stop_reason: Optional[str] = None
    counters_ok: Optional[bool] = None
    counts_expected: Optional[tuple] = None
    counts_measured: Optional[tuple] = None
    working_digits: Optional[tuple] = None
    final_iterate: Optional[list] = None
    error: Optional[str] = None


def efficiency_columns(
    m: int, mu: str, ell: str, method: MethodKind, dd: DividedDifferenceKind, order: int
) -> tuple[str, str, str]:
    """(C, CEI, TF) display strings for one row.

    CEI is rounded to its 9 published decimals before the time factor is
    taken; the published tables were produced that way.  The columns are
    floats, so they are computed at 60 digits whatever the working precision.
    """
    with mp.workdps(60):
        c_value = cost(CostModel(m=m, mu=mu, ell=ell, method=method, dd_kind=dd))
        cei_str = f"{float(cei(order, c_value)):.9f}"
        return f"{float(c_value):.1f}", cei_str, f"{float(time_factor(mpf(cei_str))):.2f}"


def run_row(
    problem: ProblemSpec,
    method: MethodKind,
    dd: DividedDifferenceKind,
    config: RunConfig,
) -> BenchmarkRow:
    """Solve one configuration and assemble its result row."""
    ctx = PrecisionContext(config.digits)
    mu = config.mu if config.mu is not None else problem.mu_paper
    order = problem.effective_order(method, dd)
    with ctx.activate():
        cost_s, cei_s, tf_s = efficiency_columns(
            problem.m, mu, config.ell, method, dd, order
        )
        row = BenchmarkRow(
            problem=problem.name,
            method=MethodKind(method).value,
            dd=DividedDifferenceKind(dd).value,
            order=order,
            digits=config.digits,
            mu=mu,
            ell=config.ell,
            cost=cost_s,
            cei=cei_s,
            tf=tf_s,
        )
        try:
            system = problem.build_system()
            report = solve(
                system,
                problem.x0_vector(),
                method,
                dd,
                ctx,
                max_iters=config.max_iters,
                order_hint=order,
            )
        except SolverError as exc:
            row.error = f"{type(exc).__name__}: {exc}"
            return row
        expected = expected_iteration_counts(method, dd, problem.m)
        mismatched = [
            delta for delta in report.trace.counter_deltas if delta != expected
        ]
        row.iterations = report.iterations
        row.acoc = mp.nstr(report.acoc, 12) if report.acoc is not None else None
        row.acoc_full = to_decimal(report.acoc) if report.acoc is not None else None
        if report.acoc_spread is not None:
            row.acoc_spread = mp.nstr(report.acoc_spread, 6)
        row.correct_decimals = report.correct_decimals
        row.eta = report.eta_used
        row.stop_reason = report.stop_reason
        row.counters_ok = not mismatched
        row.counts_expected = expected
        row.counts_measured = (
            report.trace.counter_deltas[0] if report.trace.counter_deltas else None
        )
        row.working_digits = report.trace.working_digits
        row.final_iterate = report.final_iterate.to_decimals()
        if mismatched:
            row.error = (
                f"per-iteration counters {mismatched[0]} differ from formula {expected}"
            )
        return row


def run_benchmark(problem: ProblemSpec, config: RunConfig) -> list[BenchmarkRow]:
    """Run every selected (method, operator) pair of one problem.

    Row failures are reported in the row's ``error`` field; remaining rows
    still run.
    """
    return [
        run_row(problem, method, dd, config)
        for method, dd in config.plan_for(problem)
    ]


_TABLE_COLUMNS = (
    "problem",
    "method",
    "dd",
    "order",
    "iterations",
    "cost",
    "cei",
    "tf",
    "acoc",
    "correct_decimals",
    "counters_ok",
    "error",
)


def _markdown_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):  # counters_ok
        return "ok" if value else "MISMATCH"
    return str(value)


def rows_to_markdown(rows: Sequence[BenchmarkRow]) -> str:
    # headers of _TABLE_COLUMNS, in its order
    head = ("problem", "method", "dd", "rho", "I", "C", "CEI", "TF", "ACOC", "q", "counters", "error")
    body = [tuple(_markdown_cell(getattr(r, c)) for c in _TABLE_COLUMNS) for r in rows]
    widths = [max(len(h), *(len(b[i]) for b in body)) if body else len(h) for i, h in enumerate(head)]
    def line(cells):
        return "| " + " | ".join(c.ljust(w) for c, w in zip(cells, widths)) + " |"
    out = [line(head), "|" + "|".join("-" * (w + 2) for w in widths) + "|"]
    out.extend(line(b) for b in body)
    return "\n".join(out)


def rows_to_csv(rows: Sequence[BenchmarkRow]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_TABLE_COLUMNS)
    for r in rows:
        writer.writerow([getattr(r, c) for c in _TABLE_COLUMNS])
    return buf.getvalue()


def rows_to_json(rows: Sequence[BenchmarkRow]) -> str:
    """Full-precision JSON: every row field, with the final iterate as decimal
    strings that parse back to identical values."""
    return json.dumps([asdict(r) for r in rows], indent=2)


FORMATTERS = {"md": rows_to_markdown, "csv": rows_to_csv, "json": rows_to_json}


def export_boundary_curves(
    which: str,
    ell: str = "2.5",
    m_min: float = 2.0,
    m_max: float = 20.0,
    samples: int = 64,
) -> list[dict]:
    """Sample (m, mu) points of one equal-efficiency boundary curve.

    Samples landing inside a half-step of the curve's vertical asymptote are
    skipped; points with non-positive mu are tagged out of domain.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    with mp.workdps(60):
        pole = float(efficiency.asymptote_m(which))
        step = (m_max - m_min) / (samples - 1)
        rows = []
        for i in range(samples):
            m = m_min + i * step
            if abs(m - pole) < step / 2:
                continue
            mu = efficiency.boundary_g(which, repr(m), ell)
            rows.append(
                {
                    "m": m,
                    "mu": float(mu),
                    "in_domain": float(mu) > 0,
                }
            )
        return rows


def curves_to_csv(rows: Iterable[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("m", "mu", "in_domain"))
    for r in rows:
        writer.writerow((f"{r['m']:.6g}", f"{r['mu']:.12g}", r["in_domain"]))
    return buf.getvalue()


# ---------------------------------------------------------------------------
# check suites


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str = ""


def suite_tables() -> list[CheckResult]:
    """Cost, CEI and TF of every published row, to the printed precision."""
    results = []
    for problem in REGISTRY.values():
        for (method, dd), expected in problem.rows.items():
            got_c, got_cei, got_tf = efficiency_columns(
                problem.m, problem.mu_paper, "2.5", method, dd, expected.order
            )
            ok = (got_c, got_cei, got_tf) == (
                expected.cost,
                expected.cei,
                expected.tf,
            )
            results.append(
                CheckResult(
                    f"tables/{problem.name}/{method.value}/{dd.value}",
                    ok,
                    f"C {got_c} vs {expected.cost}, CEI {got_cei} vs "
                    f"{expected.cei}, TF {got_tf} vs {expected.tf}",
                )
            )
    return results


def _random_pairs(problem: ProblemSpec, count: int) -> list[tuple]:
    rng = random.Random(20130828)  # fixed: every run checks the same pairs
    center = [float(s) for s in problem.x0]
    pairs = []
    for _ in range(count):
        x = [c + rng.uniform(-0.4, 0.4) for c in center]
        y = [
            xi + rng.choice((-1, 1)) * rng.uniform(0.05, 0.35)
            for xi in x
        ]
        fmt = lambda vals: HPVector.from_decimals([f"{v:.8f}" for v in vals])
        pairs.append((fmt(x), fmt(y)))
    return pairs


def suite_operators(digits: int = 256, pairs: int = 100) -> list[CheckResult]:
    """Operator axioms: secant identity, symmetry, the mean-value
    characterization residuals, and the accuracy orders against the
    integral oracle."""
    ctx = PrecisionContext(digits)
    tol = mpf(10) ** (-mpf(digits) / 2)
    results = []
    with ctx.activate():
        for problem in REGISTRY.values():
            system = problem.build_system(with_reference=False)
            worst = {D1: mpf(0), D2: mpf(0)}
            worst_sym = mpf(0)
            for x, y in _random_pairs(problem, pairs):
                for kind, build in ((D1, dd_d1), (D2, dd_d2)):
                    op = build(system, y, x)
                    worst[kind] = max(worst[kind], check_secant(op, system, y, x))
                worst_sym = max(worst_sym, check_symmetry(system, y, x, D2))
            for kind in (D1, D2):
                results.append(
                    CheckResult(
                        f"operators/secant/{problem.name}/{kind.value}",
                        worst[kind] <= tol,
                        f"max residual {mp.nstr(worst[kind], 4)} over {pairs} pairs"
                        f" (tol {mp.nstr(tol, 4)})",
                    )
                )
            results.append(
                CheckResult(
                    f"operators/symmetry-d2/{problem.name}",
                    worst_sym <= tol,
                    f"max residual {mp.nstr(worst_sym, 4)}",
                )
            )

        quad2 = REGISTRY["quad2"].build_system(with_reference=False)
        ones = HPVector(["1", "1"])
        twos = HPVector(["2", "2"])
        asym = check_symmetry(quad2, twos, ones, D1)
        results.append(
            CheckResult(
                "operators/asymmetry-d1/quad2",
                asym > 0,
                f"residual {mp.nstr(asym, 4)} (must be strictly positive)",
            )
        )
        u = HPVector(["1", "0"])
        v = HPVector(["0", "1"])
        potra_d1 = check_potra(quad2, D1, u, v)
        results.append(
            CheckResult(
                "operators/potra-d1/quad2",
                abs(potra_d1 - 2) <= tol,
                f"residual {mp.nstr(potra_d1, 8)} (expected exactly 2)",
            )
        )
        potra_d2 = check_potra(quad2, D2, u, v)
        results.append(
            CheckResult(
                "operators/potra-d2/quad2",
                potra_d2 <= tol,
                f"residual {mp.nstr(potra_d2, 4)}",
            )
        )
        results.extend(_accuracy_order_checks())
    return results


def accuracy_order_ratios(halvings: int = 3) -> dict[DividedDifferenceKind, list[float]]:
    """Error-shrink factors against the integral oracle under step halving.

    Uses the trigonometric benchmark system, a base displacement of
    infinity-norm 1e-3, and the active working precision.  The one-sided
    operator's error is first order in the displacement (factors near 2),
    the symmetrized operator's second order (factors near 4).
    """
    system = REGISTRY["cos3"].build_system(with_reference=False)
    x = HPVector.from_decimals(REGISTRY["cos3"].x0)
    base = [mpf("0.001"), mpf("0.000625"), mpf("-0.00037")]
    out = {}
    for kind, build in ((D1, dd_d1), (D2, dd_d2)):
        errors = []
        h = list(base)
        for _ in range(halvings + 1):
            y = HPVector(xi + hi for xi, hi in zip(x, h))
            op = build(system, y, x)
            oracle = integral_dd_oracle(system, y, x, nodes=24)
            diff = [
                [a - b for a, b in zip(ra, rb)]
                for ra, rb in zip(op.rows, oracle.rows)
            ]
            errors.append(mat_inf_norm(type(op)(diff)))
            h = [hi / 2 for hi in h]
        out[kind] = [float(errors[k] / errors[k + 1]) for k in range(halvings)]
    return out


def _accuracy_order_checks() -> list[CheckResult]:
    ratios = accuracy_order_ratios()
    results = []
    for kind, (lo, hi) in ((D1, (1.7, 2.3)), (D2, (3.4, 4.6))):
        values = ratios[kind]
        ok = all(lo <= v <= hi for v in values)
        results.append(
            CheckResult(
                f"operators/accuracy-order/{kind.value}",
                ok,
                f"halving factors {[round(v, 3) for v in values]} in [{lo}, {hi}]",
            )
        )
    return results


def suite_counters(digits: int = 128) -> list[CheckResult]:
    """Per-iteration counter tallies equal the closed-form counts, exactly,
    for every method/operator pair on every registered problem."""
    ctx = PrecisionContext(digits)
    results = []
    with ctx.activate():
        for problem in REGISTRY.values():
            system = problem.build_system(with_reference=False)
            # operator-level evaluation counts
            x = problem.x0_vector()
            y = HPVector(xi + mpf("0.125") for xi in x)
            for build, kind in ((dd_d1, D1), (dd_d2, D2)):
                fresh, supplied = operator_evals(kind, problem.m)
                c1 = OpCounters()
                build(system, y, x, c1)
                c2 = OpCounters()
                fx = system.eval(x)
                fy = system.eval(y)
                build(system, y, x, c2, fx=fx, fy=fy)
                ok = c1.scalar_fn_evals == fresh and c2.scalar_fn_evals == supplied
                results.append(
                    CheckResult(
                        f"counters/operator-evals/{problem.name}/{kind.value}",
                        ok,
                        f"fresh {c1.scalar_fn_evals} (want {fresh}), "
                        f"supplied {c2.scalar_fn_evals} (want {supplied})",
                    )
                )
            for method in MethodKind:
                for dd in (D1, D2):
                    report = solve(
                        system,
                        problem.x0_vector(),
                        method,
                        dd,
                        ctx,
                        max_iters=60,
                        order_hint=problem.effective_order(method, dd),
                    )
                    expected = expected_iteration_counts(method, dd, problem.m)
                    bad = [
                        d for d in report.trace.counter_deltas if d != expected
                    ]
                    results.append(
                        CheckResult(
                            f"counters/{problem.name}/{method.value}/{dd.value}",
                            not bad,
                            f"{len(report.trace.counter_deltas)} iterations, "
                            f"formula {expected}"
                            + (f", first mismatch {bad[0]}" if bad else ""),
                        )
                    )
    return results


_GRID_M = range(2, 51)
_GRID_MU = ("0.1", "1", "10", "100", "200")
_GRID_ELL = ("1", "2.5", "5")


def suite_theorems() -> list[CheckResult]:
    """Grid certificates of the efficiency-ordering theorems, asymptote
    constants, the worked-case orderings, and boundary-curve consistency."""
    results = []
    with mp.workdps(60):
        violations = []
        marginal_bad = []
        for m in _GRID_M:
            for mu in _GRID_MU:
                for ell in _GRID_ELL:
                    for pair in ("t3_phi2_phi1", "t3_phi1_phi0", "d2_phi2_phi1"):
                        if comparison_ratio(pair, m, mu, ell) <= 1:
                            violations.append((pair, m, mu, ell))
                    r10 = comparison_ratio("d2_phi1_phi0", m, mu, ell)
                    if m == 2:
                        if abs(r10 - 1) > mpf("1e-50"):
                            violations.append(("d2_phi1_phi0:m2", m, mu, ell))
                        if comparison_ratio("g22", m, mu, ell) <= 1:
                            violations.append(("g22:m2", m, mu, ell))
                    elif r10 >= 1:
                        violations.append(("d2_phi1_phi0:m>2", m, mu, ell))
                    for dd in (D1, D2):
                        c1 = cost(CostModel(m, mu, ell, MethodKind.PHI1, dd))
                        c2 = cost(CostModel(m, mu, ell, MethodKind.PHI2, dd))
                        marginal = (
                            m * efficiency.as_mpf(mu)
                            + m * (m - 1)
                            + efficiency.as_mpf(ell) * m
                        )
                        if abs((c2 - c1) - marginal) > mpf("1e-45"):
                            marginal_bad.append((m, mu, ell, dd.value))
        grid_points = len(_GRID_M) * len(_GRID_MU) * len(_GRID_ELL)
        results.append(
            CheckResult(
                "theorems/ordering-grid",
                not violations,
                f"{grid_points} grid points, violations: {violations[:3]}",
            )
        )
        results.append(
            CheckResult(
                "theorems/marginal-cost",
                not marginal_bad,
                "C2 - C1 = m*mu + m(m-1) + ell*m on the full grid",
            )
        )
        for which, printed in (
            ("g20", "2.9468"),
            ("g22", "2.0334"),
            ("g11", "1.7095"),
            ("t3_phi2_phi1", "0.7095"),
            ("d2_phi2_phi1", "0.8548"),
        ):
            found = efficiency.asymptote_m(which)
            ok = abs(found - mpf(printed)) < mpf("1e-4")
            results.append(
                CheckResult(
                    f"theorems/asymptote/{which}",
                    ok,
                    f"found {mp.nstr(found, 6)}, published {printed}",
                )
            )
        for which, m_samples in (
            ("g20", (4, 6, 10, 20)),
            ("g22", (3, 5, 10, 20)),
            ("g11", (2, 3, 5, 10)),
        ):
            ok = True
            detail = []
            for m in m_samples:
                mu_star = efficiency.boundary_g(which, m, "2.5")
                if mu_star <= 0:
                    ok = False
                    detail.append(f"m={m}: boundary mu not positive")
                    continue
                r = comparison_ratio(which, m, mu_star, "2.5")
                if abs(r - 1) > mpf("1e-9"):
                    ok = False
                    detail.append(f"m={m}: R at boundary = {mp.nstr(r, 12)}")
                above = efficiency.classify_region(
                    which, m, mu_star * mpf("1.01"), "2.5"
                )
                below = efficiency.classify_region(
                    which, m, mu_star * mpf("0.99"), "2.5"
                )
                if above == below or "boundary" in (above, below):
                    ok = False
                    detail.append(f"m={m}: no region flip across the curve")
            results.append(
                CheckResult(
                    f"theorems/boundary-consistency/{which}",
                    ok,
                    "; ".join(detail) or f"checked m in {m_samples}",
                )
            )
        results.extend(_worked_case_checks())
    return results


def _worked_case_checks() -> list[CheckResult]:
    """CEI orderings of the two worked parameter sets, exactly as printed."""
    results = []

    def ceis(m, mu):
        pairs = (
            (MethodKind.PHI0, D1), (MethodKind.PHI1, D1), (MethodKind.PHI1, D2),
            (MethodKind.PHI2, D1), (MethodKind.PHI2, D2),
        )
        return [cei(theoretical_order(*p), cost(CostModel(m, mu, "2.5", *p))) for p in pairs]

    c0, c11, c12, c21, c22 = ceis(2, "1.5")
    quad_ok = (
        c22 > c12
        and abs(c12 - c0) < mpf("1e-50")
        and c0 > c11
        and c22 > c21
    )
    results.append(
        CheckResult(
            "theorems/worked-case/quad2",
            quad_ok,
            "CEI2(2) > CEI1(2) = CEI0 > CEI1(1) and CEI2(2) > CEI2(1) at (2, 1.5, 2.5)",
        )
    )
    c0, c11, c12, c21, c22 = ceis(3, "113.3")
    cos_ok = c21 > c0 > c22 > c12 and c11 > c12
    results.append(
        CheckResult(
            "theorems/worked-case/cos3",
            cos_ok,
            "CEI2(1) > CEI0 > CEI2(2) > CEI1(2) and CEI1(1) > CEI1(2) at (3, 113.3, 2.5)",
        )
    )
    return results


SUITES = {
    "operators": suite_operators,
    "counters": suite_counters,
    "tables": suite_tables,
    "theorems": suite_theorems,
}
