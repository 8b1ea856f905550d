import re
from collections import Counter
from functools import partial

import pytest
from hypothesis import example, given, settings, strategies as st
from mpmath import mp, mpf

from ddroots.convergence import eta
from ddroots.core import (
    HPVector,
    OpCounters,
    PrecisionContext,
    SingularOperator,
    SolverError,
    count_at,
    inf_norm,
)
from ddroots.divdiff import (
    D1,
    D2,
    DegenerateDividedDifference,
    DividedDifferenceKind,
    NonlinearSystem,
    central_dd,
    dd_d1,
    dd_d2,
)
import ddroots.methods
from ddroots.methods import (
    MEASURED_COUNTS,
    PHI0,
    PHI1,
    PHI2,
    PRICED_COUNTS,
    IterationTrace,
    MaxIterationsExceeded,
    MethodKind,
    PrecisionChanged,
    expected_iteration_counts,
    solve,
    step_phi0,
    step_phi1,
    step_phi2,
    theoretical_order,
)
from ddroots.problems import REGISTRY, broyden_tridiagonal
from digest_sweep import (
    PINS,
    _PLAN,
    _bits,
    _families,
    _lu_at_full,
    _lu_digits_dropped,
    _pinned_solves,
    _ramp_only,
    _record_predictions,
    _registered_solves,
    _rerun_paths,
    _rerun_solves,
    _solve_each,
    _trace_digest,
    _tridiagonal_solves,
    read_pins,
)


@pytest.mark.parametrize(
    "method, dd, order",
    [
        (PHI0, D1, 2),
        (PHI0, D2, 2),
        (PHI1, D1, 3),
        (PHI1, D2, 4),
        (PHI2, D1, 4),
        (PHI2, D2, 6),
    ],
)
def test_order_table(method, dd, order):
    assert theoretical_order(method, dd) == order


@pytest.mark.parametrize("m", [1, 2, 3, 5, 8])
def test_expected_counts_match_cost_polynomials(m):
    # independent derivation: the published per-iteration polynomials
    base_products = {
        PHI0: m * (2 * m * m + 3 * m - 5) // 6,
        PHI1: m * (2 * m * m + 3 * m - 5) // 3,
        PHI2: m * (2 * m * m + 6 * m - 8) // 3,
    }
    quotients = {
        PHI0: m * (3 * m + 1) // 2,
        PHI1: m * (3 * m + 1),
        PHI2: m * (3 * m + 2),
    }
    evals_d1 = {PHI0: m * (m + 2), PHI1: 2 * m * (m + 1), PHI2: m * (2 * m + 3)}
    evals_d2 = {PHI0: m * (2 * m + 1), PHI1: 4 * m * m, PHI2: m * (4 * m + 1)}
    d2_ops = {PHI0: 1, PHI1: 2, PHI2: 2}
    for method in MethodKind:
        assert expected_iteration_counts(method, D1, m) == (
            evals_d1[method],
            base_products[method],
            quotients[method],
        )
        assert expected_iteration_counts(method, D2, m) == (
            evals_d2[method],
            base_products[method] + d2_ops[method] * m * m,
            quotients[method],
        )


def test_priced_view_differs_from_measured_only_where_documented():
    # the paper prices phi0 with d1's m(m + 2) evaluations under d2 as well,
    # and leaves out d2's m^2 one-half products per operator build
    builds = {PHI0: 1, PHI1: 2, PHI2: 2}
    for m in range(2, 51):
        for (method, dd), measured in MEASURED_COUNTS.items():
            priced = PRICED_COUNTS[method, dd]
            gap = tuple(count_at(a, m) - count_at(b, m) for a, b in zip(measured, priced))
            d2 = dd is D2
            evals_gap = m * (2 * m + 1) - m * (m + 2) if d2 and method is PHI0 else 0
            assert gap == (evals_gap, builds[method] * m * m if d2 else 0, 0)


def test_marginal_counts_third_step():
    # adding the third step costs m evals, m(m-1) products, m quotients
    for m in (2, 3, 5):
        for dd in (D1, D2):
            e1, p1, q1 = expected_iteration_counts(PHI1, dd, m)
            e2, p2, q2 = expected_iteration_counts(PHI2, dd, m)
            assert (e2 - e1, p2 - p1, q2 - q1) == (m, m * (m - 1), m)


def test_scalar_first_step_example():
    with PrecisionContext(96).activate():
        f = NonlinearSystem(1, [lambda p: p[0] * p[0] - 1])
        y, _, fx = step_phi0(f, HPVector(["2"]), D1, OpCounters())
        assert y[0] == mpf("1.25")
        assert fx[0] == 3


def affine_system():
    rows = [[3, 1, 0], [1, 4, -1], [0, 2, 5]]
    b = [1, -2, 3]

    def make(i):
        return lambda p: sum(rows[i][j] * p[j] for j in range(3)) + b[i]

    return NonlinearSystem(3, [make(i) for i in range(3)])


@pytest.mark.parametrize("method", list(MethodKind))
@pytest.mark.parametrize("dd", [D1, D2])
def test_affine_one_iteration(method, dd):
    ctx = PrecisionContext(96)
    with ctx.activate():
        report = solve(affine_system(), HPVector(["7", "-3", "0.5"]), method, dd, ctx)
        assert report.iterations == 1
        assert report.stop_reason == "residual_underflow"
        system = affine_system()
        assert inf_norm(system.eval(report.final_iterate)) <= ctx.check_tolerance


def test_steps_compose_like_solve():
    ctx = PrecisionContext(128)
    with ctx.activate():
        system = REGISTRY["quad2"].build_system(with_reference=False)
        x = REGISTRY["quad2"].x0_vector()
        counters = OpCounters()
        # solve runs iteration 1 at 80 digits, and keeps it here
        with mp.workdps(80):
            y, central, fx = step_phi0(system, x, D2, counters)
            z, fact_nu = step_phi1(system, x, y, central, fx, D2, counters)
            x_next = step_phi2(system, z, fact_nu, counters)
        assert counters.snapshot() == expected_iteration_counts(PHI2, D2, 2)
        report = solve(system, x, PHI2, D2, ctx, max_iters=5)
        assert report.trace.working_digits[0] == 80
        assert report.trace.iterates[1].entries == x_next.entries


@pytest.mark.parametrize("name", ["quad2", "exp5"])
@pytest.mark.parametrize("dd", [D1, D2])
def test_first_step_returns_the_central_operator(name, dd):
    # step_phi1 builds M = 2 (pair operator) - central from this matrix
    with PrecisionContext(128).activate():
        spec = REGISTRY[name]
        system = spec.build_system(with_reference=False)
        x = spec.x0_vector()
        _, central, fx = step_phi0(system, x, dd, OpCounters())
        want, want_fx = central_dd(system, x, dd, OpCounters())
        assert [[e._mpf_ for e in row] for row in central.rows] == [
            [e._mpf_ for e in row] for row in want.rows
        ]
        assert [e._mpf_ for e in fx] == [e._mpf_ for e in want_fx]


def test_first_step_contracts_toward_printed_root():
    ctx = PrecisionContext(256)
    with ctx.activate():
        spec = REGISTRY["exp5"]
        system = spec.build_system(with_reference=False)
        alpha = HPVector.from_decimals(spec.root_printed)
        x0 = spec.x0_vector()
        y, _, _ = step_phi0(system, x0, D1, OpCounters())
        assert inf_norm(y - alpha) < inf_norm(x0 - alpha)


def test_solve_counter_deltas_every_pair():
    ctx = PrecisionContext(128)
    with ctx.activate():
        for name in ("quad2", "cos3"):
            spec = REGISTRY[name]
            system = spec.build_system(with_reference=False)
            for method in MethodKind:
                for dd in (D1, D2):
                    report = solve(
                        system,
                        spec.x0_vector(),
                        method,
                        dd,
                        ctx,
                        order_hint=spec.effective_order(method, dd),
                    )
                    expected = expected_iteration_counts(method, dd, spec.m)
                    assert report.trace.counter_deltas, "no iterations recorded"
                    assert all(d == expected for d in report.trace.counter_deltas)
                    totals = tuple(
                        sum(d[i] for d in report.trace.counter_deltas) for i in range(3)
                    )
                    if report.stop_reason == "ratio":
                        assert totals == report.counters.snapshot()
                    else:
                        # an aborted final attempt may have spent a few
                        # evaluations before the underflow was detected
                        assert all(
                            t <= c for t, c in zip(totals, report.counters.snapshot())
                        )


# evaluations per outer iteration at m = 32: m per residual, 4m - 2 for the
# fresh central d1 build and 6m - 4 for d2, and 2m - 2 or 4m - 4 for the
# iterate-pair build, whose ends carry their read sets
@pytest.mark.parametrize(
    "method, dd, performed",
    [
        (PHI0, D1, 158),
        (PHI0, D2, 220),
        (PHI1, D1, 252),
        (PHI1, D2, 376),
        (PHI2, D1, 284),
        (PHI2, D2, 408),
    ],
)
def test_tridiagonal_chains_perform_few_evaluations(method, dd, performed):
    # each component reads at most three coordinates, so a chain evaluates
    # about 2m or 3m components where the model charges m(m+1) or m(m-1)
    m = 32
    calls = []

    def counted(component):
        return lambda p: calls.append(1) or component(p)

    ctx = PrecisionContext(256)
    with ctx.activate():
        system = NonlinearSystem(m, [counted(f) for f in broyden_tridiagonal(m)])
        x0 = HPVector(-1 + mpf(k % 7 - 3) / 100 for k in range(m))
        report = solve(system, x0, method, dd, ctx, order_hint=theoretical_order(method, D2))
    deltas = report.trace.counter_deltas
    assert report.stop_reason == "ratio"
    assert deltas and all(d == expected_iteration_counts(method, dd, m) for d in deltas)
    assert len(calls) == len(deltas) * performed


def test_tridiagonal_builds_evaluate_what_a_changed_coordinate_reaches():
    # a fresh chain evaluates all m components at x, then the two or three
    # that read each changed coordinate: m + 3(m - 2) + 2 * 2 = 4m - 2.  The
    # reversed chain of the symmetrized operator has the forward chain's
    # read sets at both ends, and takes F_{j-2}(x) where step j would
    # evaluate it (2m - 2 more).  After a supplied end value whose read sets
    # are unknown (a plain copy of an eval result), a chain evaluates every
    # component once more; eval results carry their read sets and cost two
    # evaluations per step, 2m - 2 a chain
    m = 32
    calls = []

    def counted(component):
        return lambda p: calls.append(1) or component(p)

    system = NonlinearSystem(m, [counted(f) for f in broyden_tridiagonal(m)])
    with PrecisionContext(64).activate():
        x = HPVector(mpf(k) / 8 for k in range(m))
        y = HPVector(mpf(k) / 8 + 1 for k in range(m))
        recorded = (system.eval(x), system.eval(y))
        ends = tuple(HPVector(end) for end in recorded)
        for build, supplied, performed in (
            (dd_d1, None, 4 * m - 2),
            (dd_d2, None, 6 * m - 4),
            (dd_d1, ends, 4 * m - 6),
            (dd_d2, ends, 8 * m - 12),
            (dd_d1, recorded, 2 * m - 2),
            (dd_d2, recorded, 4 * m - 4),
        ):
            calls.clear()
            build(system, y, x, ends=supplied)
            assert len(calls) == performed


def test_repeated_tridiagonal_solves_are_bit_identical():
    # the read-set chains keep no state between solves: a second round of
    # solves on the same system object repeats the first bit for bit
    m = 32
    ctx = PrecisionContext(256)
    with ctx.activate():
        system = NonlinearSystem(m, broyden_tridiagonal(m))
        x0 = HPVector(-1 + mpf(k % 7 - 3) / 100 for k in range(m))

        def solve_every_pair():
            return [
                _trace_digest(
                    solve(system, x0, method, dd, ctx, order_hint=theoretical_order(method, D2))
                )
                for method in MethodKind
                for dd in (D1, D2)
            ]

        assert solve_every_pair() == solve_every_pair()


@pytest.fixture(scope="module")
def pinned_run():
    """The families whose cases tier-1 pins, each case solved once by
    ``_solve_each``: family -> its (case, digest, report or error, steps,
    predicted digits).  Every case is listed before the first is solved."""
    families = {
        "pinned": [*_pinned_solves()],
        "4096": [*_registered_solves(4096)],
        "tridiagonal": [*_tridiagonal_solves(8, 128), *_tridiagonal_solves(64, 128)],
        "rerun": [*_rerun_solves()],
    }
    with pytest.MonkeyPatch.context() as patch:
        rows = _solve_each([case for cases in families.values() for case in cases], patch)
        return {name: [next(rows) for _ in cases] for name, cases in families.items()}


def test_every_solve_trace_is_pinned_bit_for_bit(pinned_run):
    # the golden files pin the final iterates of the published rows and
    # acceptance_4096.sha256 the acceptance rows; this pins every bit of
    # whole traces: the pinned solves, the registered pairs at 4096 digits
    # and the tridiagonal system at m = 8 and 64, each against its line of
    # the sweep's file
    pins = read_pins()
    rows = [*pinned_run["pinned"], *pinned_run["4096"], *pinned_run["tridiagonal"]]
    digests = [(case, digest) for case, digest, *_ in rows]
    assert digests == [(case, pins.get(case)) for case, _ in digests]


def test_every_rerun_path_is_pinned_bit_for_bit(pinned_run):
    # the pinned solves run one confirming step again and take no other
    # such path; the scaled solves take each, and their traces are pinned
    # in the sweep's file
    pins = read_pins()
    digests = [(case, digest) for case, digest, *_ in pinned_run["rerun"]]
    assert digests == [(case, pins.get(case)) for case, _ in digests]
    census = Counter(path for *_, steps, _ in pinned_run["rerun"] for path in _rerun_paths(steps))
    assert census == {
        "LU redo": 8,
        "confirming retry": 2,
        "start-over during iteration 1": 60,
        "start-over after iteration 1": 54,
    }


def test_the_pin_file_lists_the_sweeps_cases_in_order():
    # a family edited without running the sweep again shows here, without
    # running a solve: the file's case column is the sweep's, 756 distinct
    column = [line.split("  ", 1)[1] for line in PINS.read_text().splitlines()]
    assert [case for case, _ in _families()] == column
    assert len(set(column)) == len(column) == 756


def test_trace_shape_and_contraction():
    ctx = PrecisionContext(512)
    with ctx.activate():
        spec = REGISTRY["quad2"]
        report = solve(spec.build_system(), spec.x0_vector(), PHI1, D2, ctx, order_hint=4)
        trace = report.trace
        assert len(trace.ratios) == len(trace.iterates) - 2
        assert len(trace.correction_norms) == len(trace.iterates) - 1
        norms = trace.correction_norms
        assert all(norms[k + 1] < norms[k] for k in range(1, len(norms) - 1))
        # reported iterate is the one the stopping rule certified
        assert report.final_iterate.entries == trace.iterates[report.iterations].entries
        assert report.stop_reason == "ratio"
        assert report.eta_used == eta(4, 512)


def test_trace_validation():
    v = HPVector(["0"])
    with pytest.raises(ValueError):
        IterationTrace((v, v, v), (mpf(1),), (), ())
    with pytest.raises(ValueError):
        IterationTrace((v, v, v), (mpf(1), mpf("0.5")), (mpf("0.5"), mpf("0.5")), ())


def test_start_at_root_reports_zero_iterations():
    ctx = PrecisionContext(96)
    with ctx.activate():
        f = NonlinearSystem(1, [lambda p: p[0] * p[0] - 1])
        report = solve(f, HPVector(["1"]), PHI2, D2, ctx)
        assert report.iterations == 0
        assert report.final_iterate[0] == 1
        assert report.acoc is None


@pytest.mark.parametrize("start, norm", [(("2", "0.5"), "4.75"), (("4", "0.25"), "7.0625")])
def test_start_on_one_equations_zero_set_is_not_convergence(start, norm):
    # x y - 1 vanishes exactly at the start, so the central operator is
    # degenerate there, but x^2 + y^2 - 9 does not: the start is no root
    ctx = PrecisionContext(128)
    calls = []
    components = REGISTRY["quad2"].component_factory()

    def counted(i):
        return lambda p: calls.append(i) or components[i](p)

    with ctx.activate():
        system = NonlinearSystem(2, [counted(0), counted(1)])
        message = re.escape("coordinates 1 of the two points coincide at working precision at x_0")
        with pytest.raises(DegenerateDividedDifference, match=message) as info:
            solve(system, HPVector(start), PHI1, D1, ctx)
        assert f"||F||_inf = {norm}" in str(info.value)
        assert inf_norm(info.value.residual) == mpf(norm)
    # the norm comes from the F(x_0) the central operator already computed:
    # once at 80 digits, whose degenerate probe pair redoes iteration 1,
    # then at 128
    assert calls == [0, 1, 0, 1]


@pytest.mark.parametrize("method", [PHI1, PHI2])
def test_coincident_iterate_pair_is_not_convergence(method):
    # F_1 depends on the second coordinate alone, so the first step from
    # (0.75, 2) keeps the first one: it lands on y = (0.75, 1.25), the pair
    # operator of the second step is degenerate, and ||F(y)||_inf = 0.5625
    ctx = PrecisionContext(64)
    with ctx.activate():
        system = NonlinearSystem(2, [lambda p: p[0] + p[1] - 2, lambda p: p[1] * p[1] - 1])
        message = re.escape("coordinates 0 of the two points coincide at working precision "
                            "at the first step from x_0")
        with pytest.raises(DegenerateDividedDifference, match=message) as info:
            solve(system, HPVector(["0.75", "2"]), method, D1, ctx)
        assert "||F||_inf = 0.5625" in str(info.value)
        assert info.value.point.entries == (mpf("0.75"), mpf("1.25"))
        assert info.value.residual.entries == (0, mpf("0.5625"))


@pytest.mark.parametrize("method", [PHI1, PHI2])
def test_iterate_pair_coinciding_on_a_root_is_convergence(method):
    # the first step lands on the root (1, 1) of this affine system but keeps
    # the first coordinate of x_0: the pair operator is degenerate, F(y) = 0,
    # and y is the answer, as phi0 finds it
    ctx = PrecisionContext(64)
    with ctx.activate():
        system = NonlinearSystem(2, [lambda p: p[0] + p[1] - 2, lambda p: p[0] + 2 * p[1] - 3])
        report = solve(system, HPVector(["1", "1.5"]), method, D1, ctx)
        assert (report.stop_reason, report.iterations) == ("residual_underflow", 1)
        assert report.final_iterate.entries == (1, 1)
        assert report.trace.iterates[-1] is report.final_iterate
        assert report.trace.correction_norms == (mpf("0.5"),)
        # the unfinished iteration has no delta; F(y) was evaluated once
        assert report.trace.counter_deltas == ()
        first_step_evals = expected_iteration_counts(PHI0, D1, 2)[0]
        assert report.counters.scalar_fn_evals == first_step_evals + 2
        base = solve(system, HPVector(["1", "1.5"]), PHI0, D1, ctx)
        assert base.stop_reason == "residual_underflow"
        assert base.final_iterate.entries == report.final_iterate.entries


def test_iterate_pair_coinciding_on_a_root_after_corrections_closes_the_trace():
    # from this start the fourth first step lands exactly on the dyadic root
    # (1/2, 1/4), so the pair operator is degenerate after three corrections:
    # y is the final iterate and its correction adds a third ratio
    ctx = PrecisionContext(64)
    with ctx.activate():
        system = NonlinearSystem(
            2,
            [
                lambda p: p[0] - mpf(1) / 2 + (p[1] - mpf(1) / 4) ** 2,
                lambda p: p[1] ** 2 - mpf(1) / 16,
            ],
        )
        start = HPVector(["0.5924347857005463", "0.3067945972899728"])
        report = solve(system, start, PHI1, D2, ctx)
        trace = report.trace
        norms = trace.correction_norms
        assert len(trace.ratios) == 3
        assert trace.ratios[-1] == norms[3] / norms[2]
    assert (report.stop_reason, report.iterations) == ("residual_underflow", 4)
    assert report.final_iterate.entries == (mpf("0.5"), mpf("0.25"))
    assert trace.iterates[-1] is report.final_iterate
    assert (len(trace.iterates), len(norms)) == (5, 4)
    assert trace.counter_deltas == (expected_iteration_counts(PHI1, D2, 2),) * 3
    assert trace.working_digits == (64, 59, 64)
    assert abs(report.acoc - 4) < mpf("0.001")


def test_a_landing_after_non_contracting_corrections_is_convergence(monkeypatch):
    # scripted outer steps of 1/2 from x_0 = 2, the fourth landing on the
    # root 0 through a degenerate iterate pair: its ratio is the third of
    # at least 1 in a row, and the landing still ends the run before the
    # divergence guard sees it.  The landing below full precision starts
    # the solve over once, without the ramp
    def scripted(system, x, method, dd_kind, counters, lu_digits=None):
        if x[0] == mpf("0.5"):
            exc = DegenerateDividedDifference("scripted")
            exc.residual = exc.point = HPVector([0])
            raise exc
        return x - HPVector(["0.5"]), system.eval(x)

    monkeypatch.setattr(ddroots.methods, "_outer_step", scripted)
    ctx = PrecisionContext(64)
    with ctx.activate():
        system = NonlinearSystem(1, [lambda p: p[0]])
        report = solve(system, HPVector(["2"]), PHI1, D2, ctx)
    trace = report.trace
    assert (report.stop_reason, report.iterations) == ("residual_underflow", 4)
    assert report.final_iterate.entries == (0,)
    assert trace.ratios == (1, 1, 1)
    assert trace.working_digits == (64, 64, 64)


def test_probe_pair_coinciding_next_to_a_large_root_is_convergence():
    # one ulp from a root near 1e20, F(x_0) ~ 1e-45 is above the working
    # epsilon but the probe points x -/+ F(x) coincide relative to x: the
    # central operator is degenerate, and the start is a root to within
    # the check tolerance
    ctx = PrecisionContext(64)
    with ctx.activate():
        root = mpf(10) ** 20 + mpf(1) / 3
        system = NonlinearSystem(1, [lambda p: p[0] - root])
        start = HPVector([root * (1 + mp.eps)])
        assert system.eval(start)[0] > mpf(10) ** -64
        for method in MethodKind:
            report = solve(system, start, method, D1, ctx)
            assert (report.stop_reason, report.iterations) == ("residual_underflow", 0)


@pytest.mark.parametrize("call, step", [(5, 1), (25, 2)])
def test_foreign_precision_change_is_raised(call, step):
    # a component that sets mp.dps on its k-th call: the step that saw it
    # raises, naming the precision it set and the one it found (quad2
    # phi2/d2 spends 18 evaluations per outer step, the first at 80 digits
    # and the second at 81)
    ctx = PrecisionContext(128)
    components = REGISTRY["quad2"].component_factory()
    calls = []

    def meddling(i):
        def component(p):
            calls.append(i)
            if len(calls) == call:
                mp.dps = 50
            return components[i](p)

        return component

    precs = {}
    for digits in (50, 80, 81):
        with mp.workdps(digits):
            precs[digits] = mp.prec
    with ctx.activate():
        system = NonlinearSystem(2, [meddling(0), meddling(1)])
        with pytest.raises(PrecisionChanged) as info:
            solve(system, REGISTRY["quad2"].x0_vector(), PHI2, D2, ctx)
        assert mp.dps == 128
    found = re.fullmatch(r"mp.prec was (\d+) when outer step (\d+) began and (\d+) when it ended",
                         str(info.value))
    began = precs[80 if step == 1 else 81]
    assert tuple(map(int, found.groups())) == (began, step, precs[50])


def test_max_iters_budget():
    ctx = PrecisionContext(4096)
    with ctx.activate():
        spec = REGISTRY["quad2"]
        with pytest.raises(MaxIterationsExceeded):
            solve(spec.build_system(with_reference=False), spec.x0_vector(), PHI0, D1, ctx, max_iters=3)
    for refused in (1, 2.5):
        with pytest.raises(ValueError):
            solve(spec.build_system(with_reference=False), spec.x0_vector(), PHI0, D1, ctx,
                  max_iters=refused)


def test_singular_central_operator():
    ctx = PrecisionContext(96)
    with ctx.activate():
        # both components identical: the operator matrix is rank one
        system = NonlinearSystem(
            2, [lambda p: p[0] - p[1], lambda p: p[0] - p[1]]
        )
        with pytest.raises(SingularOperator):
            solve(system, HPVector(["2", "0.5"]), PHI0, D1, ctx)


@pytest.mark.parametrize(
    "x0",
    [pytest.param(("3", "0.3", "1"), id="long"), pytest.param(("3",), id="short")],
)
def test_a_start_of_the_wrong_length_is_refused(x0):
    # a long start was truncated to the system's dimension, a short one
    # raised IndexError from inside a component
    ctx = PrecisionContext(64)
    spec = REGISTRY["quad2"]
    with ctx.activate():
        system = spec.build_system()
    message = f"x0 has {len(x0)} entries but the system has dimension 2"
    with pytest.raises(ValueError, match=message):
        solve(system, HPVector(x0), PHI2, D2, ctx)


@pytest.mark.parametrize("entry", ["nan", "inf", "-inf"])
def test_a_start_with_a_non_finite_entry_is_refused(entry):
    ctx = PrecisionContext(64)
    with ctx.activate():
        system = REGISTRY["quad2"].build_system()
    with pytest.raises(ValueError, match="x0 must be finite"):
        solve(system, HPVector([entry, "0.4"]), PHI2, D2, ctx)


@pytest.mark.parametrize("hint", [float("nan"), float("inf"), 1.5])
def test_an_order_hint_that_is_not_finite_and_at_least_2_is_refused(hint):
    ctx = PrecisionContext(64)
    spec = REGISTRY["quad2"]
    with ctx.activate():
        system = spec.build_system()
    for eta_override in (None, 10):
        with pytest.raises(ValueError, match="order must be finite and at least 2"):
            solve(system, spec.x0_vector(), PHI2, D2, ctx, order_hint=hint,
                  eta_override=eta_override)


@pytest.mark.parametrize("value", [0, -5, float("nan"), float("inf")])
@pytest.mark.parametrize("digits", [64, 256])
def test_an_eta_override_that_is_not_positive_and_finite_is_refused(value, digits):
    # eta_override <= 0 made the threshold at least 0.5, so the first ratio
    # stopped cos3 phi0/d1 at a non-root with ||F||_inf = 0.045
    ctx = PrecisionContext(digits)
    spec = REGISTRY["cos3"]
    with ctx.activate():
        system = spec.build_system()
    with pytest.raises(ValueError, match="eta_override must be positive and finite"):
        solve(system, spec.x0_vector(), PHI0, D1, ctx, eta_override=value)


def test_a_correction_that_is_not_finite_raises_max_iterations_exceeded():
    # F is NaN off [0, 5]; the first step from 4.9 jumps out of it
    ctx = PrecisionContext(64)
    with ctx.activate():
        system = NonlinearSystem(1, [lambda p: p[0] - 1 if 0 <= p[0] <= 5 else mpf("nan")])
        with pytest.raises(
            MaxIterationsExceeded, match="outer step 1 gave a correction of norm nan"
        ):
            solve(system, HPVector(["4.9"]), PHI0, D1, ctx)


@pytest.mark.parametrize(
    "method, message, performed",
    [
        pytest.param(PHI0, "no convergence within 150 iterations", 450, id="phi0"),
        pytest.param(PHI1, "failed to contract for 3 consecutive iterations", 120, id="phi1"),
        pytest.param(PHI2, "failed to contract for 3 consecutive iterations", 50, id="phi2"),
    ],
)
def test_divergence_guard(method, message, performed):
    # no real root: x^2 + 1 keeps the correction norms from contracting.
    # phi0 wanders for all 150 iterations; phi1 and phi2 meet three
    # consecutive ratios of at least 1 first, and a streak that a
    # contracting ratio did not reset would stop them earlier
    ctx = PrecisionContext(96)
    calls = []
    with ctx.activate():
        system = NonlinearSystem(1, [lambda p: calls.append(1) or p[0] * p[0] + 1])
        with pytest.raises(MaxIterationsExceeded, match=re.escape(message)):
            solve(system, HPVector(["0.7"]), method, D1, ctx, max_iters=150)
    assert len(calls) == performed


def test_same_prefix_at_higher_precision():
    # rerunning at double precision reproduces the iterate sequence prefix
    spec = REGISTRY["quad2"]
    iterates = {}
    for digits in (192, 384):
        ctx = PrecisionContext(digits)
        with ctx.activate():
            report = solve(
                spec.build_system(with_reference=False),
                spec.x0_vector(),
                PHI2,
                D2,
                ctx,
                order_hint=6,
            )
            iterates[digits] = report.trace.iterates
    with PrecisionContext(384).activate():
        shared = min(len(iterates[192]), len(iterates[384]))
        assert shared >= 3
        for k in range(shared):
            for a, b in zip(iterates[192][k], iterates[384][k]):
                assert abs(a - b) <= mpf(10) ** -150 * max(mpf(1), abs(b))


def test_precision_ramp_on_exp5():
    spec = REGISTRY["exp5"]
    ctx = PrecisionContext(1024)
    with ctx.activate():
        report = solve(spec.build_system(), spec.x0_vector(), PHI0, D1, ctx, order_hint=2)
    digits = report.trace.working_digits
    assert report.iterations == 9 and report.stop_reason == "ratio"
    assert len(digits) == len(report.trace.counter_deltas) == report.iterations + 1
    # iteration 1 runs at 80 digits, the confirming iteration at the target
    # precision, every iteration before the last two below it, and the ramp
    # only rises after iteration 1
    assert digits[0] == 80 and digits[-1] == 1024
    assert all(d < 1024 for d in digits[1:-2])
    assert list(digits[1:]) == sorted(digits[1:])


def test_underflow_below_full_precision_redoes_the_iteration_at_full():
    ctx = PrecisionContext(256)
    start = HPVector(["1.5", "1.7"])
    with ctx.activate():
        unscaled = NonlinearSystem(2, [lambda p: p[0] * p[0] - 2, lambda p: p[1] * p[1] - 3])
        assert solve(unscaled, start, PHI1, D1, ctx).trace.working_digits[1] < 256
        # scaled by 1e-60, F_1 underflows the ~45 digits the ramp picks for
        # iteration 2 while it is still far above the 256-digit target
        scale = mpf(10) ** -60
        system = NonlinearSystem(
            2, [lambda p: scale * (p[0] * p[0] - 2), lambda p: p[1] * p[1] - 3]
        )
        report = solve(system, start, PHI1, D1, ctx)
        trace = report.trace
        assert report.stop_reason == "ratio"
        assert trace.working_digits == (256,) * len(trace.counter_deltas)
        expected = expected_iteration_counts(PHI1, D1, 2)
        assert all(d == expected for d in trace.counter_deltas)
        # iteration 1 at 80 digits is kept until iteration 2 from its x_1
        # underflows; the solve starts over from x_0 at 256 digits and runs
        # every iteration there.  The aborted iteration 2 evaluated F(x_1)
        # before the underflow stopped it: the totals count the discarded
        # iteration 1 and those 2 evaluations, no iteration delta does
        totals = [sum(d[i] for d in trace.counter_deltas) for i in range(3)]
        dropped = (expected[0] + 2, expected[1], expected[2])
        assert report.counters.snapshot() == tuple(t + d for t, d in zip(totals, dropped))
        assert inf_norm(system.eval(report.final_iterate)) < mpf(10) ** -report.eta_used


@pytest.mark.parametrize("method", list(MethodKind))
@pytest.mark.parametrize("dd", [D1, D2])
def test_affine_totals_count_the_dropped_first_step(method, dd):
    # iteration 1 at 80 digits is kept, x_1 holds every digit it has, and
    # iteration 2 from it underflows at 40 digits: the solve starts over
    # from x_0 at 96 digits.  Iteration 2 from the new x_1 then
    # runs at 96 digits too and underflows, which ends the run.  Each of the
    # two evaluated F(x_1), 3 evaluations, without a counter delta
    ctx = PrecisionContext(96)
    with ctx.activate():
        report = solve(affine_system(), HPVector(["7", "-3", "0.5"]), method, dd, ctx)
    expected = expected_iteration_counts(method, dd, 3)
    assert (report.iterations, report.stop_reason) == (1, "residual_underflow")
    assert report.trace.counter_deltas == (expected,)
    assert report.trace.working_digits == (96,)
    assert report.counters.snapshot() == (2 * expected[0] + 6, 2 * expected[1], 2 * expected[2])


# a start 10^-20 from the root asks for 1.25 * 2 * 20 + 40 = 90 digits from
# a completed 80-digit step; one 10^-200 from it underflows F(x_0) at 80
@pytest.mark.parametrize(
    "accuracy, aborted, q",
    [pytest.param(20, (10, 7, 7), 656, id="20"), pytest.param(200, (2, 0, 0), 801, id="200")],
)
def test_start_more_accurate_than_the_first_step_digits_is_redone_at_full(accuracy, aborted, q):
    spec = REGISTRY["quad2"]
    ctx = PrecisionContext(1024)
    with ctx.activate():
        root = spec.build_system().reference_root
        x0 = HPVector(e + mpf(10) ** -accuracy for e in root)
        report = solve(spec.build_system(), x0, PHI0, D2, ctx, order_hint=2)
    trace = report.trace
    assert (report.stop_reason, report.correct_decimals) == ("ratio", q)
    assert trace.working_digits[0] == 1024
    assert all(d == expected_iteration_counts(PHI0, D2, 2) for d in trace.counter_deltas)
    totals = [sum(d[i] for d in trace.counter_deltas) for i in range(3)]
    assert report.counters.snapshot() == tuple(t + a for t, a in zip(totals, aborted))


def test_a_failed_first_step_keeps_the_ramp():
    # iteration 1 from 10^-20 off the root cannot hold x_1 at 80 digits, so
    # the solve starts over at full precision; nothing was kept yet, so
    # iteration 2 still ramps down, and the confirming iteration 3 runs at
    # the digits it checks
    spec = REGISTRY["quad2"]
    ctx = PrecisionContext(1024)
    with ctx.activate():
        system = spec.build_system()
        x0 = HPVector(e + mpf(10) ** -20 for e in system.reference_root)
        report = solve(system, x0, PHI2, D2, ctx, order_hint=6)
    assert (report.stop_reason, report.iterations) == ("ratio", 2)
    assert report.trace.working_digits == (1024, 935, 997)


def _reported(report):
    """Everything a solve reports, its confirming step's iterate, norm,
    ratio and working digits apart: I, q, stop reason, the final iterate,
    every iterate before the confirming one, the counter deltas and totals,
    ACOC and its spread."""
    trace = report.trace
    kept = len(trace.iterates) - (report.stop_reason == "ratio")
    return (
        report.iterations,
        report.correct_decimals,
        report.stop_reason,
        [_bits(e) for e in report.final_iterate],
        [[_bits(e) for e in iterate] for iterate in trace.iterates[:kept]],
        trace.counter_deltas,
        report.counters.snapshot(),
        _bits(report.acoc),
        _bits(report.acoc_spread),
    )


def test_a_confirming_step_at_the_digits_it_checks_moves_no_reported_bit(monkeypatch, pinned_run):
    # the pinned solves with the rule and with the ramp's digits for every
    # step: nothing reported differs, and the rule fired
    rows = pinned_run["pinned"]
    fired = [digits for *_, predicted in rows for digits in predicted]
    monkeypatch.setattr(ddroots.methods, "_plan", _ramp_only)
    assert [(case, _reported(call())) for case, call in _pinned_solves()] == [
        (case, _reported(report)) for case, _, report, *_ in rows
    ]
    assert any(fired)


def test_lu_at_the_digits_the_correction_needs_moves_no_bit(monkeypatch, pinned_run):
    # the pinned solves and the registered ones at 4096 digits, with every
    # factorization and solve at the digits the correction needs and with
    # them at the step's digits: every digest, LU digits apart, is the
    # same, the rule ran below the step's digits in the 4096-digit solves,
    # and no step was run again
    rows = [*pinned_run["pinned"], *pinned_run["4096"]]
    redone = [
        lu for *_, steps, _ in rows for _, digits, lu, error in steps
        if isinstance(error, SingularOperator) and lu < digits
    ]
    below = [
        case for case, _, report, *_ in rows
        if case.endswith("/4096")
        and any(lu < w for lu, w in zip(report.trace.lu_digits, report.trace.working_digits))
    ]
    assert len(below) == 18 and redone == []
    monkeypatch.setattr(ddroots.methods, "_plan", _lu_at_full)
    cases = [*_pinned_solves(), *_registered_solves(4096)]
    assert [(case, _trace_digest(_lu_digits_dropped(report))) for case, _, report, *_ in rows] == [
        (case, _trace_digest(_lu_digits_dropped(call()))) for case, call in cases
    ]


def test_a_failed_prediction_is_run_again_at_the_ramps_digits(monkeypatch):
    # cos3 phi2/d2 at 128 digits: iteration 4 is predicted to confirm at 110
    # digits and does not, so it runs again at the ramp's 128; the attempt
    # is charged nowhere, so the totals are the sum of the deltas
    fired = _record_predictions(monkeypatch)
    spec = REGISTRY["cos3"]
    ctx = PrecisionContext(128)
    with ctx.activate():
        report = solve(spec.build_system(), spec.x0_vector(), PHI2, D2, ctx)
    trace = report.trace
    assert 110 in fired
    assert trace.working_digits == (80, 68, 128, 128)
    totals = tuple(sum(d[i] for d in trace.counter_deltas) for i in range(3))
    assert report.counters.snapshot() == totals


def _unit_correction(x, size):
    return x - HPVector([size] + [0] * (len(x) - 1))


def _degenerate(x):
    raise DegenerateDividedDifference("scripted")


# a predicted step's outcome, scripted: its operator fails, its correction
# is 0, its ratio 1e-100 / 1e-66 misses the threshold of 0.5e-142, or its
# correction of 1e-565 has a ratio that confirms but lies within 80 digits
# of the 575 it ran at
_UNCONFIRMED = {
    "degenerate": _degenerate,
    "repeat": lambda x: x,
    "slow": lambda x: _unit_correction(x, mpf(10) ** -100),
    "unresolved": lambda x: _unit_correction(x, mpf(10) ** (10 - mp.dps)),
}


@pytest.mark.parametrize("outcome", sorted(_UNCONFIRMED))
def test_a_predicted_step_that_does_not_confirm_reruns_at_the_ramps_digits(monkeypatch, outcome):
    # quad2 phi2/d2 at 1024 digits confirms at 575 digits; a predicted step
    # that does not confirm, after spending the whole step, is run again at
    # the ramp's 1024 digits and reports what a solve without the rule does
    spec = REGISTRY["quad2"]
    ctx = PrecisionContext(1024)
    with ctx.activate():
        system, x0 = spec.build_system(), spec.x0_vector()
    call = partial(solve, system, x0, PHI2, D2, ctx)
    assert call().trace.working_digits == (80, 81, 515, 575)
    predicted = _record_predictions(monkeypatch)
    outer_step = ddroots.methods._outer_step

    def scripted(system, x, method, dd_kind, counters, lu_digits=None):
        x_next, fx = outer_step(system, x, method, dd_kind, counters, lu_digits)
        if not predicted or mp.dps != predicted[-1]:
            return x_next, fx
        return _UNCONFIRMED[outcome](x), fx

    monkeypatch.setattr(ddroots.methods, "_outer_step", scripted)
    rerun = call()
    assert predicted[-1] == 575
    assert rerun.trace.working_digits == (80, 81, 515, 1024)
    monkeypatch.setattr(ddroots.methods, "_outer_step", outer_step)
    monkeypatch.setattr(ddroots.methods, "_plan", _ramp_only)
    assert _trace_digest(rerun) == _trace_digest(call())


def test_the_tridiagonal_reference_solve_ends_at_full_precision():
    # the benchmark's tridiagonal workload takes its reference root from
    # the last iterate of this solve, at 576 digits with a doubled eta: the
    # rule does not fire, so that iterate is computed at full precision
    m = 32
    ctx = PrecisionContext(2 * 256 + 64)
    with ctx.activate():
        report = solve(
            NonlinearSystem(m, broyden_tridiagonal(m)), HPVector(["-1"] * m), PHI2, D2, ctx,
            max_iters=60, eta_override=2 * eta(6, 2 * 256),
        )
    assert report.trace.working_digits == (80, 40, 176, 576)


@pytest.mark.parametrize("digits", [32, 64, 80])
def test_at_most_80_digits_the_first_step_is_unchanged(monkeypatch, digits):
    # with ctx.digits <= 80 iteration 1 runs at ctx.digits, full precision:
    # a solve matches one whose first step is pinned to full
    # precision, bit for bit and count for count
    ctx = PrecisionContext(digits)
    scale = mpf(10) ** -20

    def scaled():
        return NonlinearSystem(
            2, [lambda p: scale * (p[0] * p[0] - 2), lambda p: p[1] * p[1] - 3]
        )

    cases = [
        *((REGISTRY[name].build_system, REGISTRY[name].x0, method, dd)
          for name, method, dd in (("quad2", PHI2, D2), ("cos3", PHI1, D1), ("exp5", PHI0, D1))),
        (affine_system, ("7", "-3", "0.5"), PHI1, D2),
        (scaled, ("1.5", "1.7"), PHI1, D1),
    ]

    def run():
        with ctx.activate():
            return [
                solve(make(), HPVector(start), method, dd, ctx)
                for make, start, method, dd in cases
            ]

    now = run()
    monkeypatch.setattr(ddroots.methods, "_FIRST_STEP_DIGITS", 10**6)
    assert [_trace_digest(r) for r in now] == [_trace_digest(r) for r in run()]
    assert all(r.trace.working_digits[0] == digits for r in now)


@pytest.mark.parametrize("exponent, ramps", [(30, True), (60, False)])
def test_singular_operator_below_full_precision_redoes_the_iteration_at_full(
    exponent, ramps
):
    # the rows of F differ by 10^-exponent, so the operator's second pivot
    # is about that small: below the ~45 digits the ramp picks for iteration
    # 2 once the exponent exceeds 45, but far above the 256-digit target
    ctx = PrecisionContext(256)
    with ctx.activate():
        coupling = 1 + mpf(10) ** -exponent
        system = NonlinearSystem(
            2,
            [
                lambda p: (p[0] * p[0] - 2) + (p[1] * p[1] - 3),
                lambda p: (p[0] * p[0] - 2) + coupling * (p[1] * p[1] - 3),
            ],
        )
        report = solve(system, HPVector(["1.5", "1.7"]), PHI0, D2, ctx)
        digits = report.trace.working_digits
        assert report.stop_reason == "ratio"
        assert (digits[1] < 256) is ramps
        assert ramps or digits == (256,) * len(digits)
        expected = expected_iteration_counts(PHI0, D2, 2)
        assert all(d == expected for d in report.trace.counter_deltas)
        assert inf_norm(system.eval(report.final_iterate)) < mpf(10) ** -report.eta_used


@pytest.mark.parametrize("digits", [64, 128, 256])
def test_an_exact_repeat_after_two_corrections_is_reported(digits):
    # x_1 is 1/3 rounded: F(x_1) = 1000 (x_1 - 1/3) is so small that the
    # next correction falls below x_1's last digit, and x_2 = x_1.  The
    # zero correction's ratio goes into the trace with it
    ctx = PrecisionContext(digits)
    with ctx.activate():
        with mp.workdps(4 * digits):
            root = mpf(1) / 3
        system = NonlinearSystem(1, [lambda p: 1000 * (p[0] - root)])
        report = solve(system, HPVector(["0.3"]), PHI0, D1, ctx)
    trace = report.trace
    assert (report.stop_reason, report.iterations) == ("exact_repeat", 2)
    assert trace.correction_norms[1] == 0 and trace.ratios == (0,)
    assert report.final_iterate.entries == trace.iterates[1].entries
    assert trace.working_digits == (digits, digits)


def test_an_exact_repeat_below_full_precision_starts_over(monkeypatch):
    # scripted outer steps that repeat their iterate exactly below 256
    # digits, and step from 1 to 1/2 and then repeat at 256: the repeat of
    # the 80-digit iteration 1 starts over with the ramp, the repeat of the
    # ramped iteration 2 starts over without it, and only the 256-digit
    # repeat stops the run
    def scripted(system, x, method, dd_kind, counters, lu_digits=None):
        if mp.dps < 256 or x[0] != 1:
            return x, system.eval(x)
        return HPVector(["0.5"]), system.eval(x)

    monkeypatch.setattr(ddroots.methods, "_outer_step", scripted)
    ctx = PrecisionContext(256)
    with ctx.activate():
        system = NonlinearSystem(1, [lambda p: p[0] - mpf("0.5")])
        report = solve(system, HPVector(["1"]), PHI0, D1, ctx)
    assert (report.stop_reason, report.iterations) == ("exact_repeat", 2)
    assert report.trace.working_digits == (256, 256)


# systems with dyadic roots, on which rounding at low precision can snap a
# coordinate onto the root exactly
_DYADIC = {
    "x^2 - 1/4": ([lambda p: p[0] * p[0] - mpf(1) / 4], ("0.7",)),
    "x^3 - 1/8": ([lambda p: p[0] ** 3 - mpf(1) / 8], ("0.9",)),
    "x^2 - 1 + y, y^2 - y/2": (
        [lambda p: p[0] * p[0] - 1 + p[1], lambda p: p[1] * p[1] - p[1] / 2],
        ("1.3", "0.6"),
    ),
    "xy - 3/8, x + y - 5/4": (
        [lambda p: p[0] * p[1] - mpf(3) / 8, lambda p: p[0] + p[1] - mpf(5) / 4],
        ("0.9", "0.2"),
    ),
}


def _dyadic_outcome(name, shift, digits, method, dd):
    components, start = _DYADIC[name]
    ctx = PrecisionContext(digits)
    with ctx.activate():
        x0 = HPVector(mpf(v) + mpf(shift) / 1000 for v in start)
        try:
            report = solve(NonlinearSystem(len(components), components), x0, method, dd, ctx)
        except SolverError as exc:
            return type(exc)
    return report.iterations, report.stop_reason, report.trace.counter_deltas


@given(
    name=st.sampled_from(sorted(_DYADIC)),
    shift=st.integers(-200, 200),
    digits=st.integers(96, 1024),
    method=st.sampled_from(list(MethodKind)),
    dd=st.sampled_from(list(DividedDifferenceKind)),
)
@settings(max_examples=100, deadline=None)
# a ramped iterate snapped onto the root: the run ended on an underflow at
# I = 4, and on a degenerate operator at x_9 with ||F|| = 3.7e-277
@example(name="x^2 - 1/4", shift=0, digits=1024, method=PHI1, dd=D1)
@example(name="x^2 - 1 + y, y^2 - y/2", shift=0, digits=1024, method=PHI0, dd=D2)
def test_a_ramped_solve_reports_what_a_fixed_precision_solve_does(
    name, shift, digits, method, dd
):
    # I, stop reason and counter deltas, or the SolverError raised
    ramped = _dyadic_outcome(name, shift, digits, method, dd)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ddroots.methods, "_FIRST_STEP_DIGITS", 10**6)
        # every later step at full digits, as after a start-over
        patch.setattr(ddroots.methods, "_plan", lambda *args: _PLAN(*args[:-1], False))
        fixed = _dyadic_outcome(name, shift, digits, method, dd)
    assert ramped == fixed


# a fixed-precision solve leaves relative errors of 1.4e-977 and 1.5e-554
@pytest.mark.parametrize("method, digits", [(PHI0, 970), (PHI2, 550)])
def test_ramp_keeps_the_digits_of_a_root_of_large_magnitude(method, digits):
    # the working precision is relative, so the ramp must count the
    # correction's digits relative to the iterate: counted absolutely,
    # they starve an iterate near 1e20 and the ratios stop on a root
    # hundreds of digits short of the target
    ctx = PrecisionContext(1024)
    with ctx.activate():
        root = mpf(10) ** 20 + mpf("0.1")
        square = root * root
        system = NonlinearSystem(1, [lambda p: p[0] * p[0] - square])
        report = solve(system, HPVector([2 * mpf(10) ** 20]), method, D2, ctx)
        assert report.stop_reason == "ratio"
        assert report.trace.working_digits[1] < 1024
        assert abs(report.final_iterate[0] / root - 1) < mpf(10) ** -digits


@pytest.mark.parametrize("method", list(MethodKind))
def test_a_system_scaled_far_above_one_still_converges(method):
    # the stall test is relative to F(x_0): at scale 1e60, phi2 stops with
    # ||F||_inf = 1.5e13 on a root correct to 47 digits
    ctx = PrecisionContext(128)
    with ctx.activate():
        s = mpf(10) ** 60
        system = NonlinearSystem(
            2, [lambda p: s * (p[0] * p[0] + p[1] * p[1] - 4), lambda p: s * (p[0] * p[1] - 1)]
        )
        report = solve(system, HPVector(["1.9", "0.6"]), method, D2, ctx)
        root = mp.sqrt(2 + mp.sqrt(3))  # the first coordinate
        assert report.stop_reason == "ratio"
        assert abs(report.final_iterate[0] - root) < mpf(10) ** -40


@given(
    name=st.sampled_from(["quad2", "cos3", "exp5"]),
    shifts=st.lists(st.integers(-300, 300), min_size=5, max_size=5),
    digits=st.integers(128, 256),
    method=st.sampled_from(list(MethodKind)),
    dd=st.sampled_from(list(DividedDifferenceKind)),
)
@settings(max_examples=60, deadline=None)
# a coordinate stalls away from the root while the others converge: the
# ratios collapsed here with ||F||_inf = 234 and 292
@example(name="exp5", shifts=[211, 217, 102, -265, 191], digits=190, method=PHI2, dd=D2)
@example(name="exp5", shifts=[261, -295, 92, 224, -168], digits=180, method=PHI1, dd=D1)
# a diverging iterate: the next step asked for exp near 2^(2.4e23)
@example(name="exp5", shifts=[-77, 233, -77, 252, 233], digits=128, method=PHI2, dd=D1)
def test_every_returned_report_is_accurate(name, shifts, digits, method, dd):
    # from any start, solve either raises or stops on a point whose residual
    # meets the bound its stop reason stands for
    spec = REGISTRY[name]
    ctx = PrecisionContext(digits)
    with ctx.activate():
        x0 = HPVector(x + mpf(k) / 1000 for x, k in zip(spec.x0_vector(), shifts))
        system = spec.build_system(with_reference=False)
        try:
            report = solve(
                system, x0, method, dd, ctx, order_hint=spec.effective_order(method, dd)
            )
        except SolverError:
            return
        residual = inf_norm(system.eval(report.final_iterate))
        if report.stop_reason == "residual_underflow":
            assert residual <= ctx.check_tolerance
        else:
            assert report.stop_reason in ("ratio", "exact_repeat")
            assert residual < mpf(10) ** -mpf(report.eta_used)


@pytest.mark.parametrize("method", [PHI0, PHI2])
def test_a_system_scaled_by_1e_minus_300_is_solved_or_refused(method):
    # the unscaled residual at x_0 is 0.75, yet 1e-300 F(x_0) is below the
    # absolute check tolerance: the degenerate probe pair at x_0 is refused
    # by the size of a Newton step from it, not returned as the root
    ctx = PrecisionContext(128)
    with ctx.activate():
        scale = mpf(10) ** -300
        unscaled = NonlinearSystem(
            2, [lambda p: p[0] * p[0] + p[1] - 3, lambda p: p[0] - p[1] * p[1] + 1]
        )
        system = NonlinearSystem(2, [lambda p, f=f: scale * f(p) for f in unscaled.components])
        try:
            report = solve(system, HPVector(["1.5", "1.5"]), method, D2, ctx)
        except SolverError as exc:
            assert "Newton step" in str(exc)
            return
        assert inf_norm(unscaled.eval(report.final_iterate)) <= ctx.check_tolerance

