import operator
import re

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from ddroots.core import (
    HPMatrix,
    HPVector,
    OpCounters,
    PrecisionContext,
    SingularOperator,
    inf_norm,
    lu_factor,
    mat_entrywise,
    mat_inf_norm,
    working_eps,
)
from ddroots.divdiff import (
    D1,
    D2,
    DegenerateDividedDifference,
    NonlinearSystem,
    Residual,
    _separation,
    central_dd,
    check_potra,
    check_secant,
    check_symmetry,
    dd_d1,
    dd_d2,
    integral_dd_oracle,
)
from ddroots.methods import MethodKind, _combined_operator, solve
from ddroots.problems import REGISTRY

CTX = PrecisionContext(192)


def quad2():
    return REGISTRY["quad2"].build_system(with_reference=False)


def cos3():
    return REGISTRY["cos3"].build_system(with_reference=False)


def affine_system(a_rows, b):
    m = len(b)

    def make(i):
        return lambda p: sum(a_rows[i][j] * p[j] for j in range(m)) + b[i]

    return NonlinearSystem(m, [make(i) for i in range(m)], name="affine"), HPMatrix(a_rows)


def entrywise_close(got: HPMatrix, want_rows, tol) -> bool:
    return all(
        abs(got[i][j] - want_rows[i][j]) <= tol
        for i in range(got.m)
        for j in range(got.m)
    )


# --- the system -------------------------------------------------------------


def test_system_rejects_a_bad_dimension_or_component_count():
    with pytest.raises(ValueError, match="dimension must be at least 1"):
        NonlinearSystem(0, [])
    # a float dimension is refused here, not with a TypeError at the first eval
    with pytest.raises(ValueError, match="as an integer, got 2.0"):
        NonlinearSystem(2.0, [lambda p: p[0], lambda p: p[1]])
    with pytest.raises(ValueError, match="expected 2 components, got 1"):
        NonlinearSystem(2, [lambda p: p[0]])


def test_with_reference_root_keeps_the_system_and_lets_solve_report_q():
    ctx = PrecisionContext(128)
    with ctx.activate():
        system = NonlinearSystem(1, [lambda p: p[0] * p[0] - 2], name="sqrt2")
        rooted = system.with_reference_root(HPVector([mp.sqrt(2)]))
        assert (rooted.m, rooted.components, rooted.name) == (1, system.components, "sqrt2")
        assert system.reference_root is None
        plain = solve(system, HPVector(["1.5"]), MethodKind.PHI0, D1, ctx)
        report = solve(rooted, HPVector(["1.5"]), MethodKind.PHI0, D1, ctx)
    assert plain.correct_decimals is None
    assert report.correct_decimals == 97
    assert report.final_iterate.entries == plain.final_iterate.entries


def test_system_refuses_a_reference_root_of_another_dimension():
    spec = REGISTRY["quad2"]
    ctx = PrecisionContext(64)
    with ctx.activate():
        components = spec.component_factory()
        wrong = HPVector(["2.98118805"])
        with pytest.raises(ValueError, match="reference root has 1 entries .* dimension 2"):
            NonlinearSystem(2, components, reference_root=wrong)
        with pytest.raises(ValueError, match="reference root has 1 entries .* dimension 2"):
            NonlinearSystem(2, components).with_reference_root(wrong)
        # measured against the 1-vector, this solve would report q = 9
        report = solve(spec.build_system(), spec.x0_vector(), MethodKind.PHI0, D1, ctx)
    assert report.correct_decimals == 51


@pytest.mark.parametrize("point", [["1", "2", "3"], ["1"]])
def test_eval_refuses_a_point_of_another_dimension(point):
    with CTX.activate(), pytest.raises(
        ValueError, match=f"point has {len(point)} entries but the system has dimension 2"
    ):
        quad2().eval(HPVector(point))


@pytest.mark.parametrize(
    "build",
    [
        dd_d1,
        dd_d2,
        lambda s, y, x: integral_dd_oracle(s, y, x, 4),
        # checked before w = 2x - y is formed, which a short pair indexes past
        lambda s, y, x: check_potra(s, D1, y, x),
    ],
    ids=["d1", "d2", "oracle", "potra"],
)
@pytest.mark.parametrize(
    "y, x, lengths",
    [
        (["1", "2", "3"], ["4", "5", "6"], "3 and 3"),  # truncating would ignore coordinate 3
        (["1"], ["4"], "1 and 1"),  # a short pair would index past its end
        (["1", "2"], ["4", "5", "6"], "2 and 3"),
    ],
)
def test_operators_refuse_points_of_another_dimension(build, y, x, lengths):
    with CTX.activate(), pytest.raises(
        ValueError, match=f"points have {lengths} entries but the system has dimension 2"
    ):
        build(quad2(), HPVector(y), HPVector(x))


def test_a_degenerate_pair_carries_no_payload_until_a_step_sets_one():
    exc = DegenerateDividedDifference("coordinates 0 of the two points coincide")
    assert (str(exc), exc.residual, exc.point) == (
        "coordinates 0 of the two points coincide",
        None,
        None,
    )


# --- classical operator -----------------------------------------------------


def test_d1_closed_form_on_quadratic():
    # one-sided chain on F = (x1^2 + x2^2 - 9, x1 x2 - 1) has a closed form
    with CTX.activate():
        system = quad2()
        x = HPVector(["1.25", "-0.75"])
        h = HPVector(["0.5", "0.25"])
        y = x + h
        got = dd_d1(system, y, x)
        want = [
            [2 * x[0] + h[0], 2 * x[1] + h[1]],
            [x[1], x[0] + h[0]],
        ]
        assert entrywise_close(got, want, CTX.check_tolerance)


def test_d1_example_values():
    with CTX.activate():
        got = dd_d1(quad2(), HPVector(["2", "2"]), HPVector(["1", "1"]))
        assert entrywise_close(got, [[3, 3], [1, 2]], CTX.check_tolerance)


def test_d2_closed_form_on_quadratic():
    with CTX.activate():
        system = quad2()
        x = HPVector(["1.25", "-0.75"])
        h = HPVector(["0.5", "0.25"])
        y = x + h
        got = dd_d2(system, y, x)
        half = mpf(1) / 2
        want = [
            [2 * x[0] + h[0], 2 * x[1] + h[1]],
            [x[1] + h[1] * half, x[0] + h[0] * half],
        ]
        assert entrywise_close(got, want, CTX.check_tolerance)


def test_d2_example_values():
    with CTX.activate():
        got = dd_d2(quad2(), HPVector(["2", "2"]), HPVector(["1", "1"]))
        assert entrywise_close(got, [[3, 3], [mpf("1.5"), mpf("1.5")]], CTX.check_tolerance)


@given(
    a=st.lists(st.lists(st.integers(-5, 5), min_size=3, max_size=3), min_size=3, max_size=3),
    b=st.lists(st.integers(-5, 5), min_size=3, max_size=3),
    shift=st.lists(st.integers(1, 7), min_size=3, max_size=3),
)
@settings(max_examples=25, deadline=None)
def test_affine_exactness(a, b, shift):
    with CTX.activate():
        system, jac = affine_system(a, b)
        x = HPVector(["0.5", "-1.25", "2"])
        y = HPVector(xi + mpf(s) / 4 for xi, s in zip(x, shift))
        for build in (dd_d1, dd_d2):
            got = build(system, y, x)
            assert entrywise_close(got, jac.rows, CTX.check_tolerance)


def test_evaluation_counts():
    with CTX.activate():
        for name in ("exp5", "quad2", "cos3"):
            system = REGISTRY[name].build_system(with_reference=False)
            m = system.m
            x = REGISTRY[name].x0_vector()
            y = HPVector(xi + mpf("0.25") for xi in x)
            fx, fy = system.eval(x), system.eval(y)
            for build, fresh, supplied in (
                (dd_d1, m * (m + 1), m * (m - 1)),
                (dd_d2, 2 * m * m, 2 * m * (m - 1)),
            ):
                c = OpCounters()
                build(system, y, x, c)
                assert (c.scalar_fn_evals, c.products if build is dd_d1 else c.products) == (
                    fresh,
                    0 if build is dd_d1 else m * m,
                )
                assert c.quotients == m * m
                c = OpCounters()
                build(system, y, x, c, ends=(fx, fy))
                assert c.scalar_fn_evals == supplied


def test_eval_charges_one_residual():
    system = quad2()
    c = OpCounters()
    with CTX.activate():
        system.eval(HPVector(["1", "2"]), c)
        assert c.snapshot() == (2, 0, 0)


# --- structure-aware chains ---------------------------------------------------


def _dense_operator(system, y, x, kind, ends):
    """The operator from chains that evaluate every component at every point:
    the oracle of the chains that keep values no changed coordinate reaches."""
    m = system.m
    fx, fy = ends or (None, None)

    def chain(start, end, first, last):
        current, points = list(start), [tuple(start)]
        for j in range(m):
            current[j] = end[j]
            points.append(tuple(current))
        values = [[f(point) for f in system.components] for point in points]
        values[0] = values[0] if first is None else list(first)
        values[m] = values[m] if last is None else list(last)
        return values

    fwd = chain(x, y, fx, fy)
    if kind is D1:
        return [[(fwd[j + 1][i] - fwd[j][i]) / (y[j] - x[j]) for j in range(m)] for i in range(m)]
    rev = chain(y, x, fwd[m], fwd[0])
    half = mpf(1) / 2
    return [
        [(fwd[j + 1][i] - fwd[j][i] + rev[j][i] - rev[j + 1][i]) / (y[j] - x[j]) * half
         for j in range(m)]
        for i in range(m)
    ]


def _sparse_component(kind, a, b, c, m):
    if kind == "branch":
        return lambda p: p[a] if p[b] > 0 else p[c]
    if kind == "sum":  # iterates the whole point
        return lambda p: sum(p) * p[a]
    if kind == "negative":
        return lambda p: p[a - m] * p[b] + 1
    if kind == "slice":
        lo, hi = min(a, c), max(a, c)
        return lambda p: sum(v * v for v in p[lo:hi + 1])
    if kind == "len":  # sizes the point, which reads no coordinate
        return lambda p: p[len(p) - 1 - a] * p[b]
    return lambda p: p[a] * p[b] - p[c] ** 3


@st.composite
def sparse_case(draw):
    m = draw(st.integers(1, 6))
    index = st.integers(0, m - 1)
    kinds = st.sampled_from(["branch", "sum", "negative", "slice", "len", "cubic"])
    specs = draw(st.lists(st.tuples(kinds, index, index, index), min_size=m, max_size=m))
    quarters = st.integers(-12, 12)
    x = draw(st.lists(quarters, min_size=m, max_size=m))
    y = [draw(quarters.filter(lambda v, xj=xj: v != xj)) for xj in x]
    return m, specs, x, y, draw(st.booleans()), draw(st.booleans()), draw(st.sampled_from([64, 1024]))


@given(sparse_case())
@settings(max_examples=80, deadline=None)
def test_chains_give_the_dense_chains_operators_bit_for_bit(case):
    m, specs, xq, yq, supplied, shifted, digits = case
    system = NonlinearSystem(m, [_sparse_component(*spec, m) for spec in specs])
    with PrecisionContext(digits).activate():
        x = HPVector(mpf(v) / 4 for v in xq)
        y = HPVector(mpf(v) / 4 for v in yq)
        ends = None
        if supplied:
            # the chains may use supplied end values only at their own points
            shift = HPVector([1 if shifted else 0] * m)
            ends = (system.eval(x) + shift, system.eval(y) + shift)
        for build, kind, fresh, with_ends in (
            (dd_d1, D1, m * (m + 1), m * (m - 1)),
            (dd_d2, D2, 2 * m * m, 2 * m * (m - 1)),
        ):
            counters = OpCounters()
            got = build(system, y, x, counters, ends=ends)
            want = _dense_operator(system, y, x, kind, ends)
            assert [[e._mpf_ for e in row] for row in got.rows] == [
                [e._mpf_ for e in row] for row in want
            ]
            assert counters.scalar_fn_evals == (with_ends if supplied else fresh)


@given(sparse_case())
@settings(max_examples=80, deadline=None)
def test_ends_with_read_sets_give_the_dense_chains_operators_for_fewer_evaluations(case):
    # a chain takes a recorded end's value wherever the point agrees with
    # that end on the coordinates its evaluation read, branches included
    m, specs, xq, yq, _, _, digits = case
    calls = []

    def counted(component):
        return lambda p: calls.append(1) or component(p)

    system = NonlinearSystem(m, [counted(_sparse_component(*spec, m)) for spec in specs])
    with PrecisionContext(digits).activate():
        x = HPVector(mpf(v) / 4 for v in xq)
        y = HPVector(mpf(v) / 4 for v in yq)
        recorded = (system.eval(x), system.eval(y))
        plain = tuple(HPVector(end) for end in recorded)
        assert all(isinstance(end, Residual) for end in recorded)
        assert [list(end) for end in plain] == [list(system.eval(x)), list(system.eval(y))]
        for build, kind, with_ends in (
            (dd_d1, D1, m * (m - 1)),
            (dd_d2, D2, 2 * m * (m - 1)),
        ):
            counters = OpCounters()
            calls.clear()
            got = build(system, y, x, counters, ends=recorded)
            performed = len(calls)
            calls.clear()
            build(system, y, x, ends=plain)
            assert performed <= len(calls)
            assert counters.scalar_fn_evals == with_ends
            want = _dense_operator(system, y, x, kind, plain)
            assert [[e._mpf_ for e in row] for row in got.rows] == [
                [e._mpf_ for e in row] for row in want
            ]


def _bits(rows):
    return [[e._mpf_ for e in row] for row in rows]


def _entry_matrix(draw, m):
    """An m x m matrix of entries made at 1024 digits: exact zeros in about
    half the places, so that many are zero in just one of two draws."""
    nonzero = st.tuples(st.integers(-99, 99), st.integers(1, 9))
    rows = draw(st.lists(
        st.lists(st.one_of(st.just(None), nonzero), min_size=m, max_size=m),
        min_size=m, max_size=m,
    ))
    with mp.workdps(1024):
        return [[mpf(0) if e is None else mpf(e[0]) / e[1] for e in row] for row in rows]


def _check_nonzero_storage(op, want_rows, other_rows):
    """``op``'s dense view is ``want_rows`` bit for bit; it factors as that
    dense matrix does; and the second step's combination of it with a
    matrix of ``other_rows``, either way round, is the entrywise one."""
    assert _bits(op.rows) == _bits(want_rows)
    dense = HPMatrix(op.rows)
    try:
        fact = lu_factor(op, OpCounters())
    except SingularOperator as exc:
        with pytest.raises(SingularOperator, match=re.escape(str(exc))):
            lu_factor(dense, OpCounters())
    else:
        want = lu_factor(dense, OpCounters())
        assert (fact.raw, fact.perm) == (want.raw, want.perm)
    other = HPMatrix(other_rows)
    for b, a in ((op, other), (other, op)):
        entrywise = mat_entrywise(lambda b, a: 2 * b - a if b or a else a, b, a)
        assert _bits(_combined_operator(b, a).rows) == _bits(entrywise.rows)


@given(sparse_case(), st.data())
@settings(max_examples=60, deadline=None)
def test_nonzero_storage_is_the_dense_operator_on_sparse_systems(case, data):
    m, specs, xq, yq, supplied, _, digits = case
    system = NonlinearSystem(m, [_sparse_component(*spec, m) for spec in specs])
    other = _entry_matrix(data.draw, m)
    with PrecisionContext(digits).activate():
        x = HPVector(mpf(v) / 4 for v in xq)
        y = HPVector(mpf(v) / 4 for v in yq)
        ends = (system.eval(x), system.eval(y)) if supplied else None
        for build, kind in ((dd_d1, D1), (dd_d2, D2)):
            op = build(system, y, x, ends=ends)
            _check_nonzero_storage(op, _dense_operator(system, y, x, kind, ends), other)


@given(st.integers(1, 6), st.data())
@settings(max_examples=60, deadline=None)
def test_nonzero_storage_is_the_dense_operator_on_dense_random_matrices(m, data):
    # F_i(p) = sum of a_ij p_j over a_ij != 0, plus i: an affine system
    # whose component i reads only the coordinates of row i's nonzeros, so
    # its operators have A's zeros, and A itself as a matrix
    a_rows, other = _entry_matrix(data.draw, m), _entry_matrix(data.draw, m)

    def make(i):
        return lambda p: sum((a * p[j] for j, a in enumerate(a_rows[i]) if a), mpf(i))

    system = NonlinearSystem(m, [make(i) for i in range(m)])
    quarters = st.lists(st.integers(-12, 12), min_size=m, max_size=m)
    xq = data.draw(quarters)
    yq = [data.draw(st.integers(-12, 12).filter(lambda v, xj=xj: v != xj)) for xj in xq]
    with PrecisionContext(data.draw(st.sampled_from([64, 1024]))).activate():
        x = HPVector(mpf(v) / 4 for v in xq)
        y = HPVector(mpf(v) / 4 for v in yq)
        for build, kind in ((dd_d1, D1), (dd_d2, D2)):
            op = build(system, y, x)
            _check_nonzero_storage(op, _dense_operator(system, y, x, kind, None), other)
        _check_nonzero_storage(HPMatrix(a_rows), a_rows, other)


def test_degenerate_pair_rejected():
    with CTX.activate():
        with pytest.raises(DegenerateDividedDifference):
            dd_d1(quad2(), HPVector(["2", "1"]), HPVector(["2", "3"]))
        with pytest.raises(DegenerateDividedDifference):
            dd_d2(quad2(), HPVector(["2", "1"]), HPVector(["2", "3"]))


# --- central operator --------------------------------------------------------


def test_central_scalar_example():
    # f(x) = x^2 - 1 at x = 2 probes f at -1 and 5: slope (0 - 24)/(-6) = 4
    with CTX.activate():
        f = NonlinearSystem(1, [lambda p: p[0] * p[0] - 1])
        counters = OpCounters()
        op, fx = central_dd(f, HPVector(["2"]), D1, counters)
        assert op[0][0] == 4
        assert fx[0] == 3
        assert counters.scalar_fn_evals == 1 * (1 + 2)


def test_central_affine_returns_jacobian():
    with CTX.activate():
        system, jac = affine_system([[2, 1, 0], [0, 3, -1], [1, 0, 1]], [1, -2, 0])
        op, _ = central_dd(system, HPVector(["0.3", "0.7", "-0.2"]), D1)
        assert entrywise_close(op, jac.rows, CTX.check_tolerance)


def test_central_d2_matches_integral_oracle_on_quadratic():
    # degree-2 components make the symmetrized operator integral-exact
    with CTX.activate():
        system = quad2()
        x = HPVector(["3.0", "0.4"])
        op, fx = central_dd(system, x, D2)
        lo, hi = x - fx, x + fx
        oracle = integral_dd_oracle(system, lo, hi, nodes=8)
        assert mat_inf_norm(mat_entrywise(operator.sub, op, oracle)) <= CTX.check_tolerance


def test_central_underflow_raises():
    with CTX.activate():
        f = NonlinearSystem(1, [lambda p: p[0] * p[0] - 1])
        with pytest.raises(DegenerateDividedDifference):
            central_dd(f, HPVector(["1"]), D1)  # exact root: F(x) = 0


# --- integral oracle ----------------------------------------------------------


def test_oracle_affine():
    with CTX.activate():
        system, jac = affine_system([[4, -1], [2, 5]], [1, 1])
        got = integral_dd_oracle(system, HPVector(["2", "3"]), HPVector(["-1", "0.5"]), nodes=4)
        assert entrywise_close(got, jac.rows, mpf(10) ** (-(CTX.digits // 8)))


def test_oracle_closed_form_on_quadratic():
    with CTX.activate():
        system = quad2()
        x = HPVector(["1.1", "0.3"])
        y = HPVector(["2.4", "-0.6"])
        got = integral_dd_oracle(system, y, x, nodes=6)
        want = [
            [x[0] + y[0], x[1] + y[1]],
            [(x[1] + y[1]) / 2, (x[0] + y[0]) / 2],
        ]
        assert entrywise_close(got, want, mpf(10) ** (-(CTX.digits // 8)))


def test_oracle_requires_two_nodes():
    with CTX.activate():
        with pytest.raises(ValueError, match="need at least 2 quadrature nodes"):
            integral_dd_oracle(quad2(), HPVector(["2", "2"]), HPVector(["1", "1"]), nodes=1)
        with pytest.raises(ValueError, match="as an integer, got 2.5"):
            integral_dd_oracle(quad2(), HPVector(["2", "2"]), HPVector(["1", "1"]), nodes=2.5)


def test_d2_second_order_against_oracle():
    # ||dd_d2 - oracle|| shrinks like h^2 between two displacement sizes
    with CTX.activate():
        system = cos3()
        x = HPVector(["0.4", "0.4", "0.9"])
        errs = []
        for scale in ("0.001", "0.0005"):
            h = [mpf(scale), mpf(scale) * mpf("0.7"), -mpf(scale) * mpf("0.4")]
            y = HPVector(xi + hi for xi, hi in zip(x, h))
            op = dd_d2(system, y, x)
            oracle = integral_dd_oracle(system, y, x, nodes=16)
            errs.append(mat_inf_norm(mat_entrywise(operator.sub, op, oracle)))
        ratio = errs[0] / errs[1]
        assert 3.4 <= float(ratio) <= 4.6


# --- residual checks ----------------------------------------------------------


def test_secant_hand_example():
    with CTX.activate():
        system = quad2()
        y, x = HPVector(["2", "2"]), HPVector(["1", "1"])
        op = dd_d1(system, y, x)
        assert check_secant(op, system, y, x) == 0


@given(
    seed=st.lists(st.integers(-20, 20), min_size=2, max_size=2),
    off=st.lists(st.integers(5, 40), min_size=2, max_size=2),
)
@settings(max_examples=30, deadline=None)
def test_secant_identity_property(seed, off):
    with CTX.activate():
        system = quad2()
        x = HPVector(mpf(s) / 10 + mpf("0.05") for s in seed)
        y = HPVector(xi + mpf(o) / 100 for xi, o in zip(x, off))
        scale = max(mpf(1), inf_norm(system.eval(y) - system.eval(x)))
        for build in (dd_d1, dd_d2):
            op = build(system, y, x)
            assert check_secant(op, system, y, x) <= CTX.check_tolerance * scale


def test_secant_no_cancellation_for_tiny_steps():
    # a 1e-100 step leaves ~90 digits of headroom at 192 working digits
    with CTX.activate():
        system = cos3()
        x = HPVector(["0.4", "0.4", "0.9"])
        tiny = mpf(10) ** -100
        y = HPVector(xi + tiny for xi in x)
        for build in (dd_d1, dd_d2):
            op = build(system, y, x)
            assert check_secant(op, system, y, x) <= CTX.check_tolerance


def test_symmetry_checks():
    with CTX.activate():
        system = quad2()
        y, x = HPVector(["2", "2"]), HPVector(["1", "1"])
        assert check_symmetry(system, y, x, D2) <= CTX.check_tolerance
        asym = check_symmetry(system, y, x, D1)
        assert asym > 0
        affine, _ = affine_system([[1, 2], [3, 4]], [0, 1])
        assert check_symmetry(affine, HPVector(["1", "0"]), HPVector(["0", "1"]), D1) == 0


def test_potra_residuals():
    with CTX.activate():
        system = quad2()
        u, v = HPVector(["1", "0"]), HPVector(["0", "1"])
        # the one-sided operator is not integral-consistent on this system
        assert abs(check_potra(system, D1, u, v) - 2) <= CTX.check_tolerance
        # the symmetrized operator is, for quadratic components
        assert check_potra(system, D2, u, v) <= CTX.check_tolerance
        affine, _ = affine_system([[5, 1], [-2, 3]], [2, 2])
        assert check_potra(affine, D1, u, v) == 0
        assert check_potra(affine, D2, u, v) == 0


def _separation_by_product(y, x):
    """The oracle of ``_separation``: the message for the first coordinate
    whose gap is below the 30-digit bound eps max(1, |x_j|), built for every
    pair, or None."""
    eps = working_eps()
    with mp.workdps(30):
        bounds = [+eps * max(1, abs(v)) for v in x]
    for j, bound in enumerate(bounds):
        if abs(y[j] - x[j]) < bound:
            return f"coordinates {j} of the two points coincide at working precision"
    return None


# |x_j| = 2^e (1 + f 2^-53), and a gap of eps max(1, |x_j|) 2^k (1 + t 2^-90).
# Mantissas near 2 put the bound in the top binade its exponents allow,
# where it lies above some gaps of the same binary magnitude
coordinate = st.tuples(
    st.integers(-3000, 3000),
    st.integers(0, 2**53 - 1) | st.integers(2**53 - 2**20, 2**53 - 1),
    st.sampled_from([-1, 1]),
    st.integers(-3, 3),
    st.sampled_from([-1, 0, 1]),
    st.sampled_from([-1, 1]),
)


@given(st.integers(32, 4096), st.lists(coordinate, min_size=1, max_size=4))
@settings(max_examples=300, deadline=None)
def test_separation_decides_as_the_30_digit_product(digits, coordinates):
    with PrecisionContext(digits).activate():
        eps = working_eps()
        x, y = [], []
        for e, f, sign, k, t, direction in coordinates:
            xj = sign * mp.ldexp(1 + mp.ldexp(f, -53), e)
            with mp.extraprec(200):
                gap = eps * max(1, abs(xj)) * mp.ldexp(1 + mp.ldexp(t, -90), k)
            x.append(xj)
            y.append(xj + direction * gap)
        x, y = HPVector(x), HPVector(y)
        want = _separation_by_product(y, x)
        if want is None:
            diffs = _separation(len(x), y, x)
            assert [d._mpf_ for d in diffs] == [(y[j] - x[j])._mpf_ for j in range(len(x))]
        else:
            with pytest.raises(DegenerateDividedDifference) as raised:
                _separation(len(x), y, x)
            assert str(raised.value) == want


@pytest.mark.parametrize("magnitude", ["0.5", "1e40"])
@pytest.mark.parametrize("factor, degenerate", [("0.1", True), ("10", False)])
def test_separation_bound_is_relative_to_the_coordinate(magnitude, factor, degenerate):
    # two points coincide in a coordinate when their gap is below
    # eps max(1, |x_j|); gaps 10x below and 10x above that bound
    with PrecisionContext(256).activate():
        system = NonlinearSystem(2, [lambda p: p[0] * p[1] - 1, lambda p: p[0] + p[1]])
        xj = mpf(magnitude)
        gap = mpf(factor) * working_eps() * max(1, xj)
        x = HPVector([xj, "2"])
        y = HPVector([xj + gap, "3"])
        assert y[0] - x[0] != 0
        for build in (dd_d1, dd_d2):
            if degenerate:
                with pytest.raises(DegenerateDividedDifference, match="coordinates 0"):
                    build(system, y, x)
            else:
                build(system, y, x)
