import csv
import io
import json

import pytest
from mpmath import mp, mpf

import ddroots.benchmark
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
from ddroots.cli import main
from ddroots.core import PrecisionContext, to_decimal
from ddroots.divdiff import D1, D2, DividedDifferenceKind
from ddroots.efficiency import cei, cost, estimate_mu, time_factor
from ddroots.methods import PHI0, PHI2, MaxIterationsExceeded, MethodKind, theoretical_order
from ddroots.problems import REGISTRY


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
            c_val = cost(
                MethodKind(row.method), DividedDifferenceKind(row.dd), 2, row.mu, row.ell
            )
            assert row.cost == f"{float(c_val):.1f}"
            cei_val = cei(row.order, c_val)
            assert row.cei == f"{float(cei_val):.9f}"
            assert row.tf == f"{float(time_factor(mpf(row.cei))):.2f}"


def _columns_at(digits, m, mu, ell, method, dd, order):
    """The model columns computed throughout at the given precision."""
    with mp.workdps(digits):
        c_val = cost(method, dd, m, mu, ell)
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
            # iteration 1 runs at 80 digits and is kept on these rows
            assert entry["working_digits"][0] == min(entry["digits"], 80)
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


def test_boundary_export_refuses_fewer_than_two_samples_or_a_fraction():
    with pytest.raises(ValueError, match="need at least 2 samples"):
        export_boundary_curves("g20", samples=1)
    with pytest.raises(ValueError, match="as an integer, got 2.5"):
        export_boundary_curves("g20", samples=2.5)


def test_a_descending_range_skips_the_sample_next_to_the_pole():
    # g20's asymptote is at m = 2.9468, a quarter-step from the middle sample
    for m_min, m_max in ((2.9, 3.0), (3.0, 2.9)):
        rows = export_boundary_curves("g20", ell="2.5", m_min=m_min, m_max=m_max, samples=3)
        assert {r["m"] for r in rows} == {2.9, 3.0}


@pytest.mark.parametrize(
    "m_min, m_max", [(2.0, float("inf")), (float("-inf"), 3.0), (float("nan"), 3.0)]
)
def test_a_non_finite_curve_range_is_refused(m_min, m_max):
    with pytest.raises(ValueError, match=r"the m range \[.*\] must be finite"):
        export_boundary_curves("g20", m_min=m_min, m_max=m_max)


def test_a_row_named_by_strings_is_the_row_named_by_enums():
    # quad2 phi2/d2 keeps order 6; a string "d2" once read as d1's order 4
    config = RunConfig(digits=256)
    by_str = run_row(REGISTRY["quad2"], "phi2", "d2", config)
    by_enum = run_row(REGISTRY["quad2"], PHI2, D2, config)
    fields = ("order", "cost", "cei", "tf", "iterations", "correct_decimals", "acoc_full")
    assert [getattr(by_str, f) for f in fields] == [getattr(by_enum, f) for f in fields]
    assert (by_str.order, by_str.cei, by_str.tf) == (6, "1.024177781", "96.38")


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


def test_a_failed_solve_fails_its_counter_check(monkeypatch, capsys):
    # the counters suite runs every pair through run_row: a solve that
    # raises is a [FAIL] line carrying the error, and the CLI exits 1
    def fail(*args, **kwargs):
        raise MaxIterationsExceeded("no convergence")

    monkeypatch.setattr(ddroots.benchmark, "solve", fail)
    assert main(["check", "--suite", "counters", "--digits", "64"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] counters/quad2/phi0/d1: MaxIterationsExceeded: no convergence" in out
    assert out.count("[FAIL]") == 18  # every solve; the operator-eval checks pass


def test_a_counter_mismatch_fails_the_row(monkeypatch, capsys):
    # a closed form that disagrees with what solve spends: the row names
    # both tuples, the markdown flags it and the CLI exits 1
    monkeypatch.setattr(ddroots.benchmark, "expected_iteration_counts", lambda *args: (1, 2, 3))
    row = run_row(REGISTRY["quad2"], PHI0, D1, RunConfig(digits=128))
    assert row.counters_ok is False
    assert row.counts_measured == (8, 3, 7)
    assert row.error == "per-iteration counters (8, 3, 7) differ from formula (1, 2, 3)"
    header, _, cells = (line.split("|") for line in rows_to_markdown([row]).splitlines())
    counters = [h.strip() for h in header].index("counters")
    assert cells[counters].strip() == "MISMATCH"
    argv = ["run", "--problem", "quad2", "--method", "phi0", "--dd", "d1", "--digits", "128"]
    assert main(argv) == 1
    assert "MISMATCH" in capsys.readouterr().out
