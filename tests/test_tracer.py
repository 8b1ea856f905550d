"""The benchmark's span tracer against the solver it patches.

The tracer wraps the solver's entry points by the names it looks them up
by, so a renamed or re-imported entry point breaks only traced benchmark
runs.  Here one reduced tridiagonal row and one registered row run traced
and untraced, and must report the same bits either way.
"""
import random
from pathlib import Path

import pytest
from mpmath import mp

import ddroots.core
import ddroots.methods
from ddroots import MethodKind
from ddroots.divdiff import D2
from digest_sweep import _trace_digest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer
    import workloads

    return tracer, workloads


def _reported(result):
    """I and everything a row reports: a registered row's ``BenchmarkRow``,
    or a tridiagonal row's report, as its ``_trace_digest``, and columns."""
    if isinstance(result, tuple):
        report, columns = result
        return report.iterations, _trace_digest(report), columns
    return result.iterations, result


def test_traced_rows_match_untraced_ones_and_every_patch_is_undone(perfbench):
    tracer, workloads = perfbench
    tridiag = workloads.TridiagWorkload("tridiag-8", 64, 8)
    registered = workloads.RegisteredWorkload("cos3-256", 256, (("cos3", MethodKind.PHI2, D2),))
    rows = []
    for workload in (tridiag, registered):
        workload.setup()
        workload.prepare()
        rows.append(workload.next_pass(random.Random(1))[0])

    t = tracer.Tracer()
    installed = []
    install = t.install

    def recording_install():
        install()
        installed.extend(t._patches)

    t.install = recording_install
    exp, cos, lu_factor = mp.exp, mp.cos, ddroots.methods.lu_factor
    for row in rows:
        untraced = _reported(row.call())
        assert untraced[0], untraced
        assert _reported(t.run_row(row.call)) == untraced

    assert installed
    for owner, attr, original in installed:
        assert getattr(owner, attr) is original, attr
    assert mp.exp is exp and mp.cos is cos
    assert lu_factor is ddroots.methods.lu_factor is ddroots.core.lu_factor
    metrics = t.layer_metrics()
    for metric in (*tracer.SELF_METRIC.values(), *tracer.CALL_METRIC.values()):
        assert metric in metrics
    # both rows called every counted layer
    assert all(metrics[metric] > 0 for metric in tracer.CALL_METRIC.values())
