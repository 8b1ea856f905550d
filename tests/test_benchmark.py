import csv
import io
import json

import pytest
from mpmath import mp, mpf

from ddroots.benchmark import (
    RunConfig,
    curves_to_csv,
    efficiency_columns,
    export_boundary_curves,
    rows_to_csv,
    rows_to_json,
    rows_to_markdown,
    run_benchmark,
    run_row,
    suite_tables,
)
from ddroots.core import PrecisionContext, to_decimal
from ddroots.divdiff import DividedDifferenceKind
from ddroots.efficiency import CostModel, cei, cost, estimate_mu, time_factor
from ddroots.methods import MethodKind, theoretical_order
from ddroots.problems import REGISTRY

D1 = DividedDifferenceKind.D1
D2 = DividedDifferenceKind.D2
PHI0, PHI1, PHI2 = MethodKind.PHI0, MethodKind.PHI1, MethodKind.PHI2


@pytest.fixture(scope="module")
def quad2_rows():
    return run_benchmark(REGISTRY["quad2"], RunConfig(digits=512))


def test_full_plan_runs(quad2_rows):
    assert [(r.method, r.dd) for r in quad2_rows] == [
        ("phi0", "d1"),
        ("phi1", "d1"),
        ("phi1", "d2"),
        ("phi2", "d1"),
        ("phi2", "d2"),
    ]
    for row in quad2_rows:
        assert row.error is None
        assert row.counters_ok
        assert row.iterations >= 2
        assert row.correct_decimals > 0


def test_rows_match_efficiency_model(quad2_rows):
    # emitted C/CEI/TF are pure functions of (m, mu, ell, method, dd, order)
    with mp.workdps(60):
        for row in quad2_rows:
            model = CostModel(
                m=2, mu=row.mu, ell=row.ell,
                method=MethodKind(row.method), dd_kind=DividedDifferenceKind(row.dd),
            )
            c_val = cost(model)
            assert row.cost == f"{float(c_val):.1f}"
            cei_val = cei(row.order, c_val)
            assert row.cei == f"{float(cei_val):.9f}"
            assert row.tf == f"{float(time_factor(mpf(row.cei))):.2f}"


def _columns_at(digits, m, mu, ell, method, dd, order):
    """The model columns computed throughout at the given precision."""
    with mp.workdps(digits):
        c_val = cost(CostModel(m=m, mu=mu, ell=ell, method=method, dd_kind=dd))
        cei_str = f"{float(cei(order, c_val)):.9f}"
        return f"{float(c_val):.1f}", cei_str, f"{float(time_factor(mpf(cei_str))):.2f}"


def test_model_columns_do_not_depend_on_the_working_precision():
    # efficiency_columns works at 60 digits; every registered row prints
    # what 4096 digits print
    for spec in REGISTRY.values():
        for method, dd in spec.rows:
            args = (spec.m, spec.mu_paper, "2.5", method, dd, spec.effective_order(method, dd))
            with mp.workdps(4096):
                assert efficiency_columns(*args) == _columns_at(4096, *args)
    # and so does every pair for m = 2..50 at mu = 1 (1024 digits here: the
    # sweep at 4096 takes seconds, and 60 vs 1024 digits tests the same)
    for m in range(2, 51):
        for method in MethodKind:
            for dd in DividedDifferenceKind:
                args = (m, "1", "2.5", method, dd, theoretical_order(method, dd))
                assert efficiency_columns(*args) == _columns_at(1024, *args)


def test_plan_filtering():
    config = RunConfig(digits=256, methods=(PHI2,), dd_kinds=(D2,))
    plan = config.plan_for(REGISTRY["cos3"])
    assert plan == ((PHI2, D2),)
    # pairs beyond the published rows are allowed when named explicitly
    config = RunConfig(digits=256, methods=(PHI0,), dd_kinds=(D2,))
    assert config.plan_for(REGISTRY["quad2"]) == ((PHI0, D2),)
    with pytest.raises(ValueError):
        RunConfig(digits=256, methods=()).plan_for(REGISTRY["quad2"])


def test_off_plan_pair_counts(quad2_rows):
    row = run_row(REGISTRY["quad2"], PHI0, D2, RunConfig(digits=256))
    assert row.error is None
    assert row.counters_ok
    # m=2: evals m(2m+1)=10, products LU+solve 3 plus 4 half-factor, quotients 3 plus 4
    assert row.counts_expected == (10, 7, 7)


def test_estimated_mu_flag():
    quad2 = REGISTRY["quad2"]
    mu = repr(estimate_mu(quad2.op_profile, m=quad2.m))
    row = run_row(quad2, PHI0, D1, RunConfig(digits=128, mu=mu))
    assert row.mu == "1.5"  # estimate agrees with the published ratio here
    row = run_row(REGISTRY["quad2"], PHI0, D1, RunConfig(digits=128, mu="2.0"))
    assert row.mu == "2.0"


def test_json_round_trip(quad2_rows):
    payload = json.loads(rows_to_json(quad2_rows))
    assert len(payload) == len(quad2_rows)
    keys = {
        "problem", "method", "dd", "order", "iterations", "cost", "cei", "tf",
        "acoc", "correct_decimals", "counters_ok", "error",
        "digits", "mu", "ell", "eta", "stop_reason", "acoc_full", "acoc_spread",
        "counts_expected", "counts_measured", "working_digits", "final_iterate",
    }
    assert all(set(entry) == keys for entry in payload)
    with PrecisionContext(512).activate():
        for entry in payload:
            for s in entry["final_iterate"]:
                assert to_decimal(mpf(s)) == s
            assert to_decimal(mpf(entry["acoc_full"])) == entry["acoc_full"]
            assert entry["working_digits"][0] == entry["digits"]
            assert len(entry["working_digits"]) >= entry["iterations"]


def test_csv_and_markdown_shapes(quad2_rows):
    parsed = list(csv.reader(io.StringIO(rows_to_csv(quad2_rows))))
    assert parsed[0][0] == "problem"
    assert len(parsed) == len(quad2_rows) + 1
    md = rows_to_markdown(quad2_rows)
    lines = md.splitlines()
    assert len(lines) == len(quad2_rows) + 2
    assert lines[0].startswith("| problem")


def test_table_suite_green():
    results = suite_tables()
    assert len(results) == 13
    assert all(r.passed for r in results)


def test_boundary_export_skips_pole_and_orders_samples():
    rows = export_boundary_curves("g20", ell="2.5", m_min=3.0, m_max=20.0, samples=24)
    ms = [r["m"] for r in rows]
    assert all(ms[i] < ms[i + 1] for i in range(len(ms) - 1))
    assert all(m > 2.947 for m in ms)  # all beyond the vertical asymptote
    assert all(r["in_domain"] for r in rows)
    assert all(r["mu"] > 0 for r in rows)


def test_boundary_export_tags_out_of_domain():
    rows = export_boundary_curves("g22", ell="2.5", m_min=2.0, m_max=2.03, samples=4)
    assert rows and all(not r["in_domain"] for r in rows)
    assert all(r["mu"] < 0 for r in rows)


def test_boundary_export_g11_at_two():
    rows = export_boundary_curves("g11", ell="2.5", m_min=2.0, m_max=2.0, samples=2)
    assert rows and rows[0]["mu"] > 0


def test_curves_csv_format():
    rows = export_boundary_curves("g20", ell="2.5", m_min=4.0, m_max=6.0, samples=3)
    text = curves_to_csv(rows)
    parsed = list(csv.reader(io.StringIO(text)))
    assert parsed[0] == ["m", "mu", "in_domain"]
    assert len(parsed) == len(rows) + 1


def test_row_error_is_contained():
    # an impossible iteration budget must not abort sibling rows
    rows = run_benchmark(REGISTRY["quad2"], RunConfig(digits=512, max_iters=2))
    assert all(r.error for r in rows)
    assert all("MaxIterationsExceeded" in r.error for r in rows)
