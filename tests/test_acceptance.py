"""Acceptance gate: every exit criterion at its stated tolerance.

Each test prints one pass/fail line (run with ``pytest -s`` to see them all
live).  The solve-backed criteria share two cached run sets: the full tier
at 4096 working digits and a smoke tier at 1024.
"""
import hashlib
import json
from pathlib import Path

import pytest
from mpmath import mp, mpf

from ddroots.benchmark import (
    RunConfig,
    accuracy_order_ratios,
    run_row,
    suite_counters,
    suite_operators,
    suite_theorems,
)
from ddroots.core import PrecisionContext
from ddroots.divdiff import DividedDifferenceKind
from ddroots.efficiency import cei, cost, time_factor
from ddroots.methods import MethodKind
from ddroots.problems import REGISTRY

D1 = DividedDifferenceKind.D1
D2 = DividedDifferenceKind.D2
PHI0, PHI1, PHI2 = MethodKind.PHI0, MethodKind.PHI1, MethodKind.PHI2

# the 13 published configurations plus the symmetrized-operator runs of the
# exponential system (needed for the order-recovery criterion)
PUBLISHED = [
    (name, method, dd)
    for name, spec in REGISTRY.items()
    for (method, dd) in spec.row_plan
]
EXTRA = [("exp5", PHI1, D2), ("exp5", PHI2, D2)]


def _report(num: int, ok: bool, detail: str) -> None:
    line = f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'} : {detail}"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def full_runs():
    config = RunConfig(digits=4096)
    return {
        (name, method, dd): run_row(REGISTRY[name], method, dd, config)
        for name, method, dd in PUBLISHED + EXTRA
    }


@pytest.fixture(scope="module")
def smoke_runs():
    config = RunConfig(digits=1024)
    return {
        (name, method, dd): run_row(REGISTRY[name], method, dd, config)
        for name, method, dd in PUBLISHED + EXTRA
    }


def test_criterion_1_cost_table_exactness():
    with mp.workdps(60):
        bad = []
        for name, spec in REGISTRY.items():
            for (method, dd), row in spec.rows.items():
                value = cost(method, dd, spec.m, spec.mu_paper, "2.5")
                if f"{float(value):.1f}" != row.cost:
                    bad.append((name, method.value, dd.value, f"{float(value):.1f}", row.cost))
        _report(1, not bad, f"13 published cost values to the printed decimal; mismatches: {bad}")


def test_criterion_2_cei_tf_exactness():
    with mp.workdps(60):
        bad = []
        for name, spec in REGISTRY.items():
            for (method, dd), row in spec.rows.items():
                c = cost(method, dd, spec.m, spec.mu_paper, "2.5")
                cei_str = f"{float(cei(row.order, c)):.9f}"
                tf_str = f"{float(time_factor(mpf(cei_str))):.2f}"
                if (cei_str, tf_str) != (row.cei, row.tf):
                    bad.append((name, method.value, dd.value, cei_str, tf_str))
        _report(2, not bad, f"13 CEI values to 9 decimals and TF to 2; mismatches: {bad}")


def test_criterion_3_iteration_counts(full_runs, smoke_runs):
    bad = []
    for name, method, dd in PUBLISHED:
        expected = REGISTRY[name].rows[(method, dd)].iterations
        got = full_runs[(name, method, dd)].iterations
        if got is None or abs(got - expected) > 1:
            bad.append((name, method.value, dd.value, got, expected))
    # smoke tolerance 1e-2: the stated 1e-3 belongs to the 4096-digit runs;
    # at 1024 digits the final stopping ratios sit a few 1e-3 from the order
    # on the quadratic system, while adjacent orders differ by a full unit
    smoke_bad = []
    for key, row in smoke_runs.items():
        if row.error or row.acoc is None or abs(mpf(row.acoc_full) - row.order) > mpf("1e-2"):
            smoke_bad.append(key)
    ok = not bad and not smoke_bad
    _report(
        3,
        ok,
        "published iteration counts within +/-1 at 4096 digits"
        f" (exact for all rows: {all(full_runs[k].iterations == REGISTRY[k[0]].rows[(k[1], k[2])].iterations for k in map(tuple, PUBLISHED))});"
        f" 1024-digit smoke tier order checks; failures: {bad + smoke_bad}",
    )


# (I, q) of the 1024-digit smoke tier as a fixed-precision solve gives them;
# the precision ramp in ``solve`` must reproduce every pair
SMOKE_PINS = {
    ("exp5", PHI0, D1): (9, 872),
    ("exp5", PHI1, D1): (4, 277),
    ("exp5", PHI2, D1): (3, 198),
    ("exp5", PHI1, D2): (4, 277),
    ("exp5", PHI2, D2): (3, 198),
    ("quad2", PHI0, D1): (9, 832),
    ("quad2", PHI1, D1): (6, 969),
    ("quad2", PHI1, D2): (4, 487),
    ("quad2", PHI2, D1): (4, 345),
    ("quad2", PHI2, D2): (3, 398),
    ("cos3", PHI0, D1): (11, 644),
    ("cos3", PHI1, D1): (7, 849),
    ("cos3", PHI1, D2): (5, 629),
    ("cos3", PHI2, D1): (5, 378),
    ("cos3", PHI2, D2): (4, 725),
}


def test_smoke_tier_pinned_to_fixed_precision(smoke_runs):
    assert set(SMOKE_PINS) == set(smoke_runs)
    for key, pin in SMOKE_PINS.items():
        row = smoke_runs[key]
        stop = "residual_underflow" if key == ("cos3", PHI1, D1) else "ratio"
        assert (row.iterations, row.correct_decimals, row.stop_reason) == (*pin, stop), key
        assert row.counters_ok, key


# one line "<sha256>  <problem>/<method>/<dd>" per 4096-digit row; rewrite it
# with ``PYTHONPATH=src python tests/test_acceptance.py`` only for a change
# meant to move the bits
PINS_4096 = Path(__file__).parent / "data" / "acceptance_4096.sha256"


def _row_digest(row) -> str:
    """SHA-256 of the fields of a row that carry its bits: the final iterate
    (decimal strings that parse back to the exact binary values), the full
    ACOC and its spread, the working digits, the counter delta, I and the
    stop reason."""
    fields = [
        row.final_iterate, row.acoc_full, row.acoc_spread, row.working_digits,
        row.counts_measured, row.iterations, row.stop_reason,
    ]
    return hashlib.sha256(json.dumps(fields).encode()).hexdigest()


def _digest_lines(runs) -> list[str]:
    return [
        f"{_row_digest(row)}  {name}/{method.value}/{dd.value}"
        for (name, method, dd), row in runs.items()
    ]


def test_4096_digit_rows_pinned_bit_for_bit(full_runs):
    # the golden files pin bits at 256 and 1024 digits; this pins them at
    # the precision of the acceptance tier and the benchmark
    assert _digest_lines(full_runs) == PINS_4096.read_text().splitlines()


def test_criterion_4_acoc_order_recovery(full_runs):
    bad = []
    expectations = {key: REGISTRY[key[0]].rows[(key[1], key[2])].order for key in map(tuple, PUBLISHED)}
    expectations[("exp5", PHI1, D2)] = 4
    expectations[("exp5", PHI2, D2)] = 6
    for key, order in expectations.items():
        row = full_runs[key]
        if row.acoc_full is None or abs(mpf(row.acoc_full) - order) > mpf("1e-3"):
            bad.append((key[0], key[1].value, key[2].value, row.acoc))
    _report(4, not bad, f"ACOC within 1e-3 of the local order on {len(expectations)} runs; failures: {bad}")


def test_criterion_5_operator_axioms():
    results = [
        r for r in suite_operators(digits=256)
        if not r.name.startswith("operators/accuracy-order")
    ]
    failures = [r.name for r in results if not r.passed]
    _report(
        5,
        not failures,
        f"secant/symmetry/characterization residuals over 100 random pairs per system "
        f"at 256 digits ({len(results)} checks); failures: {failures}",
    )


def test_criterion_6_accuracy_orders():
    with PrecisionContext(256).activate():
        ratios = accuracy_order_ratios()
    d1_ok = all(1.7 <= v <= 2.3 for v in ratios[D1])
    d2_ok = all(3.4 <= v <= 4.6 for v in ratios[D2])
    _report(
        6,
        d1_ok and d2_ok,
        f"halving factors vs the integral oracle: one-sided {[round(v, 3) for v in ratios[D1]]} "
        f"in [1.7, 2.3], symmetrized {[round(v, 3) for v in ratios[D2]]} in [3.4, 4.6]",
    )


def test_criterion_7_counter_formula_equality(full_runs):
    bad = [key for key, row in full_runs.items() if not row.counters_ok]
    suite_bad = [r.name for r in suite_counters(digits=128) if not r.passed]
    _report(
        7,
        not bad and not suite_bad,
        "per-iteration scalar evals, products, quotients equal the closed forms exactly "
        f"on all {len(full_runs)} benchmark runs and the full method/operator matrix; "
        f"failures: {bad + suite_bad}",
    )


def test_criterion_8_theorem_certificates():
    results = [
        r for r in suite_theorems()
        if not r.name.startswith("theorems/worked-case")
    ]
    failures = [(r.name, r.detail) for r in results if not r.passed]
    _report(
        8,
        not failures,
        "ordering grid (m in 2..50, mu in {0.1,1,10,100,200}, ell in {1,2.5,5}), asymptote "
        f"constants to 4 decimals, boundary consistency ({len(results)} checks); failures: {failures}",
    )


def test_criterion_9_worked_case_orderings():
    results = [r for r in suite_theorems() if r.name.startswith("theorems/worked-case")]
    failures = [(r.name, r.detail) for r in results if not r.passed]
    _report(9, not failures, f"published efficiency orderings at (2, 1.5, 2.5) and (3, 113.3, 2.5); failures: {failures}")


def test_criterion_10_correct_decimals_loose(full_runs):
    bad = []
    for name, method, dd in PUBLISHED:
        expected = REGISTRY[name].rows[(method, dd)].correct_decimals
        got = full_runs[(name, method, dd)].correct_decimals
        if got is None or abs(got - expected) > 0.10 * expected:
            bad.append((name, method.value, dd.value, got, expected))
    _report(
        10,
        not bad,
        f"correct decimals within 10% of the published column on 13 rows; failures: {bad} "
        "(wall-clock columns and the order-estimate error bounds are excluded by design)",
    )


if __name__ == "__main__":
    runs = {
        key: run_row(REGISTRY[key[0]], key[1], key[2], RunConfig(digits=4096))
        for key in PUBLISHED + EXTRA
    }
    PINS_4096.write_text("".join(line + "\n" for line in _digest_lines(runs)))
