"""Tests of the benchmark itself (run with ``python3 -m pytest perfbench``).

The traced-pass tests run one pass of every workload, about half a minute.
"""
from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import tracer
import workloads

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.fixture(scope="module")
def traced_passes():
    """One traced pass per workload: (tracer, samples)."""
    out = {}
    for name, workload in workloads.WORKLOADS.items():
        workload.setup()
        workload.prepare()
        t = tracer.Tracer()
        rows = workload.next_pass(random.Random(1))
        out[name] = (t, [run.run_one(row, t.run_row) for row in rows])
    return out


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_layer_self_times_account_for_traced_row_wall(traced_passes, name):
    t, samples = traced_passes[name]
    assert not [s for s in samples if s["failures"]]
    wall = sum(s["seconds"] for s in samples)
    layers = t.layer_metrics()
    per_row_self = sum(layers[m] for m in set(tracer.SELF_METRIC.values()))
    assert per_row_self * len(samples) == pytest.approx(wall, rel=0.03)
    # every span belongs to a row and descends from that row's root span
    assert min(t.row_ids) == 0
    for i, parent in enumerate(t.parents):
        if parent < 0:
            assert t.names[i] == tracer.ROW
        else:
            assert t.row_ids[parent] == t.row_ids[i]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_metrics_match_benchmark_json(traced_passes, name):
    t, _ = traced_passes[name]
    reported = set(t.layer_metrics()) | {
        "benchmark.traced_row_s", "trace_overhead_ratio", "machine.product_us"}
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert reported == set(declared)
    assert all(run.per_layer_unit(n) == u for n, u in declared.items())


def test_end_to_end_metrics_match_benchmark_json():
    declared = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert declared == run.END_TO_END_UNITS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


def test_counts_repeat_exactly_across_seeds():
    workload = workloads.WORKLOADS["poly-4096"]
    workload.setup()
    counts = []
    for seed in (1, 2):
        t = tracer.Tracer()
        for row in workload.next_pass(random.Random(seed)):
            run.run_one(row, t.run_row)
        m = t.layer_metrics()
        counts.append([m[k] for k in ("core.products", "core.quotients",
                                       "problems.evals", "convergence.acoc_calls")])
    assert counts[0] == counts[1]
    assert counts[0][3] == 2


def test_tracer_restores_every_patched_name():
    import ddroots.divdiff
    import ddroots.methods
    from mpmath import mp

    before = (ddroots.methods.lu_factor, ddroots.divdiff.operator_for, mp.exp,
              workloads.NonlinearSystem.eval_component, workloads.solve)
    t = tracer.Tracer()
    t.install()
    assert ddroots.methods.lu_factor is not before[0]
    t.uninstall()
    after = (ddroots.methods.lu_factor, ddroots.divdiff.operator_for, mp.exp,
             workloads.NonlinearSystem.eval_component, workloads.solve)
    assert after == before


def test_wrong_registered_row_fails_its_check():
    workload = workloads.WORKLOADS["poly-4096"]
    row = workload.next_pass(random.Random(1))[0]
    good = row.call()
    assert row.check(good).failures == []
    for change in ({"iterations": good.iterations + 1},
                   {"correct_decimals": good.correct_decimals - 50},
                   {"counters_ok": False},
                   {"error": "SingularOperator: boom"}):
        assert row.check(dataclasses.replace(good, **change)).failures, change


def test_false_convergence_fails_the_tridiagonal_check():
    workload = workloads.WORKLOADS["tridiag-256"]
    workload.setup()
    workload.prepare()
    row = workload.next_pass(random.Random(3))[0]
    report, columns = row.call()
    assert row.check((report, columns)).failures == []
    start = report.trace.iterates[0]
    assert row.check((dataclasses.replace(report, final_iterate=start), columns)).failures


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail([[float(i) for i in range(1, 101)]]) == (90.0, "p90.0 of 100 rows")
    value, note = run.tail([[1.0, 2.0], [3.0, 10.0], [1.0, 4.0]])
    assert value == 4.0
    assert note == "median of the slowest row of each of 3 passes (6 rows)"


def test_end_to_end_takes_medians_over_passes():
    def sample(seconds, q, product_s):
        return {"seconds": seconds, "q": q, "product_s": product_s}

    passes = [  # pass means 2, 3 and 2 s; 120 digits in 14 s
        [sample(1.0, 10, 0.5), sample(3.0, 30, 0.5)],
        [sample(1.0, 10, 0.5), sample(5.0, 30, 1.0)],
        [sample(2.0, 10, 2.0), sample(2.0, 30, 0.5)],
    ]
    (p50, tail, rate), note = run.end_to_end(passes, in_products=False)
    assert (p50, tail, rate) == (2.0, 3.0, 120 / 14)
    assert note.startswith("median of the slowest row")
    # in products, each row by its own product time: pass means 4, 3.5 and
    # 2.5; 120 digits in 20 products
    (p50, tail, rate), _ = run.end_to_end(passes, in_products=True)
    assert (p50, tail, rate) == (3.5, 5.0, 6.0)


def test_sampler_times_products_during_a_row_and_leaves_itself_out():
    sampler = run.ProductSampler(256)
    row = workloads.Row("sleep", lambda: time.sleep(0.3), lambda _: workloads.Outcome(1, None))
    with sampler:
        sample = run.run_one(row, sampler=sampler)
    assert len(sampler.samples) >= 10
    assert 0 < sample["product_s"] < 0.01
    assert 0 < sampler.spent < 0.1
    assert sample["seconds"] == pytest.approx(0.3 - sampler.spent, abs=0.05)
    # a row shorter than the interval takes one sample after it
    short = run.ProductSampler(256)
    assert short.product_s(0) > 0 and len(short.samples) == 1


def test_exits_nonzero_without_package_sources(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "poly-4096", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
