import math
import operator

import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import finf, fnan, fninf, from_man_exp, fzero

from ddroots.core import (
    FACTOR_COUNTS,
    SOLVE_COUNTS,
    HPMatrix,
    HPVector,
    OpCounters,
    PrecisionContext,
    SingularOperator,
    _quotient,
    count_at,
    inf_norm,
    lu_factor,
    lu_solve,
    mat_entrywise,
    mat_inf_norm,
    mat_vec,
    to_decimal,
    working_eps,
)
import ddroots.methods
from ddroots.divdiff import D1, D2, OPERATOR_COUNTS, RESIDUAL_COUNTS, NonlinearSystem, operator_for
from ddroots.methods import _LU_GUARD_DIGITS, MethodKind, solve
from ddroots.problems import REGISTRY
from digest_sweep import _lu_at_full, _lu_digits_dropped, _record_steps, _trace_digest


def test_context_validates_digits():
    with pytest.raises(ValueError, match="need at least 32 digits"):
        PrecisionContext(16)
    PrecisionContext(32)  # boundary is allowed
    # mpmath truncates a fractional dps, so 100.5 would run at 100 digits
    # while the tolerances and the trace used 100.5
    for digits in (100.5, 64.0, "64"):
        with pytest.raises(ValueError, match="as an integer"):
            PrecisionContext(digits)
    with pytest.raises(ValueError, match="need at least 32 digits"):
        PrecisionContext(31.5)


def test_context_tolerances():
    ctx = PrecisionContext(128)
    with ctx.activate():
        assert working_eps() == mpf(10) ** -128
        assert ctx.check_tolerance == mpf(10) ** -64
        # binary precision must carry at least the configured decimal digits
        assert mp.prec >= math.ceil(128 * math.log2(10))


def test_working_eps_is_cached_per_binary_precision():
    # 99, 100 and 101 bits share mp.dps = 29, and 99 and 100 bits round
    # 10^-29 differently; the cached epsilon must match a fresh one bit for
    # bit after every switch
    def fresh():
        return mpf(10) ** -mp.dps

    for _ in range(2):
        for prec in (99, 100, 101, 13610, 99):
            with mp.workprec(prec):
                assert working_eps()._mpf_ == fresh()._mpf_
        with mp.workdps(4096):
            assert working_eps()._mpf_ == fresh()._mpf_
    with mp.workprec(99):
        a = working_eps()
    with mp.workprec(100):
        b = working_eps()
    assert a._mpf_ != b._mpf_


def test_workdps_restores_precision():
    before = mp.dps
    with PrecisionContext(777).activate():
        assert mp.dps == 777
    assert mp.dps == before


def test_decimal_round_trip_is_exact():
    ctx = PrecisionContext(512)
    with ctx.activate():
        values = [mpf("0.4"), mpf(2) ** mpf("0.5"), -mp.exp(1), mpf("1e-300")]
        for x in values:
            s = to_decimal(x)
            assert mpf(s) == x
            # serialization is a fixed point
            assert to_decimal(mpf(s)) == s


def test_vector_basics():
    v = HPVector(["1", "-3", "2"])
    assert v.m == len(v) == 3
    assert v[1] == -3
    w = v - HPVector(["1", "1", "1"])
    assert list(w) == [0, -4, 1]
    assert list(v + w) == [1, -7, 3]
    with pytest.raises(ValueError):
        HPVector([])


def test_vectors_and_matrices_are_immutable():
    v = HPVector(["1", "2"])
    a = HPMatrix([[1, 2], [3, 4]])
    for obj, attr, value in ((v, "entries", ()), (a, "rows", ())):
        with pytest.raises(AttributeError, match="is immutable"):
            setattr(obj, attr, value)
        with pytest.raises(AttributeError, match="is immutable"):
            delattr(obj, attr)
        with pytest.raises(AttributeError, match="is immutable"):
            obj.other = value
    assert list(v) == [1, 2] and a.m == 2


def test_vector_decimal_round_trip():
    with PrecisionContext(256).activate():
        v = HPVector([mp.pi, -mp.sqrt(2)])
        assert HPVector.from_decimals(v.to_decimals()).entries == v.entries


def test_matrix_must_be_square():
    with pytest.raises(ValueError):
        HPMatrix([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError):
        HPMatrix([[1, 2]])


@pytest.mark.parametrize("op", [operator.add, operator.sub])
def test_vector_arithmetic_refuses_mismatched_lengths(op):
    # a truncating zip would give HPVector([0.0]) for the first difference
    with pytest.raises(ValueError, match="lengths 2 and 1"):
        op(HPVector(["1", "2"]), HPVector(["1"]))
    with pytest.raises(ValueError, match="lengths 1 and 3"):
        op(HPVector(["1"]), HPVector(["1", "2", "3"]))


def test_mat_entrywise_refuses_mismatched_dimensions():
    # a truncating zip would give a 1x1
    with pytest.raises(ValueError, match="lengths 2 and 1"):
        mat_entrywise(operator.sub, HPMatrix([[1, 2], [3, 4]]), HPMatrix([[1]]))


def test_mat_vec_refuses_a_vector_of_another_length():
    a = HPMatrix([[1, 2], [3, 4]])
    assert list(mat_vec(a, HPVector(["1", "-1"]))) == [-1, -1]
    # a row-length loop would ignore the third entry
    with pytest.raises(ValueError, match="lengths 2 and 3"):
        mat_vec(a, HPVector(["1", "2", "3"]))


@pytest.mark.parametrize(
    "v, expected",
    [((0, 0, 0), 0), ((1, -3, 2), 3), ((-5,), 5)],
)
def test_inf_norm_examples(v, expected):
    assert inf_norm(HPVector([str(x) for x in v])) == expected


@given(
    entries=st.lists(st.integers(-50, 50), min_size=1, max_size=6),
    scale=st.integers(-9, 9),
)
def test_inf_norm_scaling(entries, scale):
    with PrecisionContext(64).activate():
        v = HPVector([mpf(e) for e in entries])
        scaled = HPVector([mpf(scale) * e for e in v])
        assert inf_norm(scaled) == abs(mpf(scale)) * inf_norm(v)
        assert (inf_norm(v) == 0) == all(e == 0 for e in entries)


def test_lu_identity_counts_are_loop_shaped():
    # closed-form tallies: the identity costs the same as any 3x3 matrix
    with PrecisionContext(64).activate():
        counters = OpCounters()
        lu_factor(HPMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), counters)
        assert counters.products == 5
        assert counters.quotients == 3
        assert counters.scalar_fn_evals == 0


def test_lu_hand_example():
    with PrecisionContext(64).activate():
        counters = OpCounters()
        fact = lu_factor(HPMatrix([[3, 3], [1, 2]]), counters)
        assert fact.perm == (0, 1)  # no pivoting triggered
        assert fact.lu[0] == (3, 3)
        assert fact.lu[1][0] == mpf(1) / 3
        assert fact.lu[1][1] == 1
        x = lu_solve(fact, HPVector([6, 3]), counters)
        assert list(x) == [1, 1]


def test_lu_pivoted_permutation_matrix():
    with PrecisionContext(64).activate():
        fact = lu_factor(HPMatrix([[0, 1], [1, 0]]), OpCounters())
        x = lu_solve(fact, HPVector([2, 5]), OpCounters())
        assert list(x) == [5, 2]


def test_lu_pivot_ties_go_to_the_first_candidate():
    # as max() picks it: -1 in row 1 ties with 1 in row 0, and then 3 in
    # row 2 with the 3 that the elimination leaves in row 1
    with PrecisionContext(64).activate():
        fact = lu_factor(HPMatrix([[1, 2, 0], [-1, 1, 1], [0, 3, 2]]), OpCounters())
        assert fact.perm == (0, 1, 2)
        assert [[int(e) for e in row] for row in fact.lu] == [[1, 2, 0], [-1, 3, 1], [0, 1, 1]]


def test_lu_diagonal_solve():
    with PrecisionContext(64).activate():
        fact = lu_factor(HPMatrix([[2, 0], [0, 4]]), OpCounters())
        assert list(lu_solve(fact, HPVector([2, 8]), OpCounters())) == [1, 2]


def test_lu_solve_refuses_a_right_hand_side_of_another_length():
    # a loop over the factorization's rows would return a 2-vector for the
    # 3-entry b and raise IndexError for the 1-entry one
    with PrecisionContext(64).activate():
        fact = lu_factor(HPMatrix([[2, 0], [0, 4]]), OpCounters())
        for b, n in ((HPVector([2, 8, 1]), 3), (HPVector([2]), 1)):
            counters = OpCounters()
            message = f"b has {n} entries but the factorization has dimension 2"
            with pytest.raises(ValueError, match=message):
                lu_solve(fact, b, counters)
            assert counters.snapshot() == (0, 0, 0)


def test_singular_matrix_raises_naming_the_pivot_column():
    with PrecisionContext(64).activate():
        counters = OpCounters()
        with pytest.raises(SingularOperator, match="column 1"):
            lu_factor(HPMatrix([[1, 2], [2, 4]]), counters)
        # the unit is charged on entry: the whole factorization's count
        assert counters.snapshot() == (0, 1, 1)


@st.composite
def nonsingular_matrix(draw):
    m = draw(st.integers(1, 5))
    rows = draw(
        st.lists(
            st.lists(st.integers(-9, 9), min_size=m, max_size=m),
            min_size=m,
            max_size=m,
        )
    )
    # diagonal dominance keeps it comfortably nonsingular
    for i in range(m):
        rows[i][i] = 10 * m + draw(st.integers(1, 9))
    b = draw(st.lists(st.integers(-9, 9), min_size=m, max_size=m))
    return rows, b


@given(nonsingular_matrix())
@settings(max_examples=40, deadline=None)
def test_counter_exactness_and_residual(case):
    rows, b = case
    m = len(rows)
    with PrecisionContext(96).activate():
        counters = OpCounters()
        a = HPMatrix(rows)
        fact = lu_factor(a, counters)
        rhs = HPVector(b)
        x = lu_solve(fact, rhs, counters)
        # value-independent tallies
        assert counters.products == m * (m - 1) * (2 * m - 1) // 6 + m * (m - 1)
        assert counters.quotients == m * (m - 1) // 2 + m
        ctx = PrecisionContext(96)
        resid = inf_norm(mat_vec(a, x) - rhs)
        assert resid <= ctx.check_tolerance * max(mpf(1), inf_norm(rhs))


@given(nonsingular_matrix())
@settings(max_examples=25, deadline=None)
def test_permuted_product_reconstructs_input(case):
    rows, _ = case
    m = len(rows)
    with PrecisionContext(96).activate():
        a = HPMatrix(rows)
        fact = lu_factor(a, OpCounters())
        tol = PrecisionContext(96).check_tolerance
        for i in range(m):
            for j in range(m):
                lower = sum(
                    fact.lu[i][k] * fact.lu[k][j] for k in range(min(i, j + 1))
                )
                upper = fact.lu[i][j] if j >= i else mpf(0)
                recon = lower + upper
                target = a[fact.perm[i]][j]
                assert abs(recon - target) <= tol * max(mpf(1), abs(target))


@given(nonsingular_matrix(), st.integers(-3000, 3000))
@settings(max_examples=40, deadline=None)
def test_lu_of_a_matrix_scaled_by_a_power_of_two_is_the_scaled_lu(case, j):
    # the pivot test is relative to each row, so 2^j A is no more singular
    # than A however far j takes it: A's permutation and L bit for bit,
    # 2^j times A's U, and A's x from 2^j b
    rows, b = case
    m = len(rows)
    with PrecisionContext(96).activate():
        a = HPMatrix(rows)
        fact = lu_factor(a, OpCounters())
        scaled = lu_factor(mat_entrywise(lambda e: mp.ldexp(e, j), a), OpCounters())
        assert scaled.perm == fact.perm
        for i in range(m):
            for k in range(m):
                expected = fact.lu[i][k] if k < i else mp.ldexp(fact.lu[i][k], j)
                assert scaled.lu[i][k]._mpf_ == expected._mpf_
        x = lu_solve(fact, HPVector(b), OpCounters())
        xs = lu_solve(scaled, HPVector(mp.ldexp(e, j) for e in b), OpCounters())
        assert [e._mpf_ for e in xs] == [e._mpf_ for e in x]


def test_the_operator_of_a_system_scaled_by_1e_minus_300_factors():
    # every entry of the one-sided operator of 1e-300 F is about 1e-300,
    # far below the working epsilon, yet the operator is well conditioned
    with PrecisionContext(128).activate():
        scale = mpf(10) ** -300
        system = NonlinearSystem(2, [lambda q: scale * (q[0] * q[0] + q[1] - 3),
                                     lambda q: scale * (q[0] - q[1] * q[1] + 1)])
        p = HPVector(["1.5", "1.5"])
        h = HPVector(mp.sqrt(mp.eps) * max(1, abs(e)) for e in p)
        op = operator_for(D1)(system, p + h, p, OpCounters())
        fact = lu_factor(op, OpCounters())
        assert all(abs(fact.lu[k][k]) > scale for k in range(2))


@pytest.mark.parametrize("tail, singular", [(2, False), (1 + mpf(2) ** -214, True)])
def test_a_pivot_is_judged_against_its_own_row(tail, singular):
    # after the swap, the second pivot is 2^-1000 (tail - 1), from the row of
    # magnitude 2^-1000: negligible only when tail - 1 is below the working
    # epsilon 10^-64, whatever the other row's magnitude
    with PrecisionContext(64).activate():
        small = mpf(2) ** -1000
        a = HPMatrix([[small, small * tail], [1, 1]])
        if singular:
            with pytest.raises(SingularOperator, match="column 1"):
                lu_factor(a, OpCounters())
        else:
            fact = lu_factor(a, OpCounters())
            assert fact.perm == (1, 0) and fact.lu[1][1] == small


def _dense_lu_factor(a):
    """The elimination that multiplies by every zero: the oracle of the
    skipping one.  A pivot is negligible when it is zero or below the
    working epsilon times min(1, the largest magnitude in its row of a)."""
    m = a.m
    tol = working_eps()
    lu = [list(row) for row in a.rows]
    perm = list(range(m))
    for k in range(m):
        p = max(range(k, m), key=lambda i: abs(lu[i][k]))
        size = abs(lu[p][k])
        if not size or size < tol * min(1, max(abs(e) for e in a.rows[perm[p]])):
            return lu, perm, True
        lu[k], lu[p] = lu[p], lu[k]
        perm[k], perm[p] = perm[p], perm[k]
        for i in range(k + 1, m):
            lik = lu[i][k] / lu[k][k]
            lu[i][k] = lik
            for j in range(k + 1, m):
                lu[i][j] -= lik * lu[k][j]
    return lu, perm, False


def _dense_lu_solve(lu, perm, b):
    m = len(perm)
    y = [mpf(b[p]) for p in perm]
    for i in range(1, m):
        for j in range(i):
            y[i] -= lu[i][j] * y[j]
    x = [mpf(0)] * m
    for i in range(m - 1, -1, -1):
        acc = y[i]
        for j in range(i + 1, m):
            acc -= lu[i][j] * x[j]
        x[i] = acc / lu[i][i]
    return x


@st.composite
def sparse_system(draw):
    """A banded or a randomly sparse matrix of fractions, a right-hand side
    and a working precision; zero rows and columns, hence singular
    matrices, included."""
    m = draw(st.integers(1, 9))
    if draw(st.booleans()):
        below, above = draw(st.integers(0, m - 1)), draw(st.integers(0, m - 1))
        pattern = [[-below <= j - i <= above for j in range(m)] for i in range(m)]
    else:
        pattern = draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m),
                                min_size=m, max_size=m))
    fraction = st.tuples(st.integers(-9, 9), st.integers(1, 7))
    rows = [[draw(fraction) if on else (0, 1) for on in row] for row in pattern]
    b = draw(st.lists(fraction, min_size=m, max_size=m))
    return rows, b, draw(st.sampled_from([64, 1024]))


@given(sparse_system())
@settings(max_examples=150, deadline=None)
def test_zero_skipping_lu_is_bit_identical_to_the_dense_loop(case):
    rows, b, digits = case
    m = len(rows)
    with PrecisionContext(digits).activate():
        a = HPMatrix([[mpf(n) / d for n, d in row] for row in rows])
        rhs = HPVector(mpf(n) / d for n, d in b)
        counters = OpCounters()
        lu, perm, singular = _dense_lu_factor(a)
        if singular:
            with pytest.raises(SingularOperator):
                lu_factor(a, counters)
            return
        fact = lu_factor(a, counters)
        assert fact.perm == tuple(perm)
        assert [[e._mpf_ for e in row] for row in fact.lu] == [[e._mpf_ for e in row] for row in lu]
        # the closed forms, whatever the zero pattern
        assert counters.snapshot() == (0, m * (m - 1) * (2 * m - 1) // 6, m * (m - 1) // 2)
        x = lu_solve(fact, rhs, counters)
        assert [e._mpf_ for e in x] == [e._mpf_ for e in _dense_lu_solve(lu, perm, rhs)]
        assert counters.snapshot()[1:] == (
            m * (m - 1) * (2 * m - 1) // 6 + m * (m - 1),
            m * (m - 1) // 2 + m,
        )


def _lu_outcome(a, b):
    """The factorization's permutation and bits and the solution's bits, or
    the SingularOperator message."""
    try:
        fact = lu_factor(a, OpCounters())
    except SingularOperator as exc:
        return str(exc)
    x = lu_solve(fact, b, OpCounters())
    return fact.perm, [[e._mpf_ for e in row] for row in fact.lu], [e._mpf_ for e in x]


@given(sparse_system(), st.sampled_from([(40, 64), (64, 64), (100, 1024), (700, 1024)]))
@settings(max_examples=150, deadline=None)
def test_lu_below_the_digits_of_its_matrix_is_the_lu_of_the_rounded_matrix(case, digits):
    # a matrix and a right-hand side built at P digits, factored and solved
    # under p <= P digits: bit for bit what the matrix rounded to p gives,
    # the SingularOperator included
    rows, b, _ = case
    low, high = digits
    with mp.workdps(high):
        a = HPMatrix([[mpf(n) / d for n, d in row] for row in rows])
        rhs = HPVector(mpf(n) / d for n, d in b)
        strings = rhs.to_decimals()
    with mp.workdps(low):
        assert _lu_outcome(a, rhs) == _lu_outcome(mat_entrywise(operator.pos, a), rhs)
        # b is read as the matrix is, rounded when wider than the
        # factorization, and a decimal string is rounded once
        assert _lu_outcome(a, rhs) == _lu_outcome(a, HPVector(rhs))
        assert _lu_outcome(a, strings) == _lu_outcome(a, HPVector.from_decimals(strings))


@given(nonsingular_matrix(), st.integers(100, 1000))
@settings(max_examples=40, deadline=None)
def test_a_solve_at_the_digits_a_small_correction_changes_moves_no_bit_of_x_minus_it(case, k):
    # b = A s with ||s|| about 10^-k and x of magnitude 1: x - s rounded to
    # P digits is the same whether s was solved at P or at P - k + G digits
    rows, digits = case
    m, full = len(rows), 1024
    with mp.workdps(full):
        third = mpf(1) / 3
        a = HPMatrix([[e + third for e in row] for row in rows])
        s = HPVector((e + third) * mpf(10) ** -k for e in digits)
        x = HPVector(1 + mpf(i) / 7 for i in range(m))
        b = mat_vec(a, s)
        exact = x - lu_solve(lu_factor(a, OpCounters()), b, OpCounters())
        with mp.workdps(min(full, full - k + _LU_GUARD_DIGITS)):
            fact = lu_factor(a, OpCounters())
            short = lu_solve(fact, b, OpCounters())
        assert [e._mpf_ for e in x - short] == [e._mpf_ for e in exact]
        # the factorization carries its precision: solved again under the
        # full digits, it gives the short solve's bits
        assert [e._mpf_ for e in lu_solve(fact, b, OpCounters())] == [e._mpf_ for e in short]


@pytest.mark.parametrize(
    "small, method, why",
    [
        (85, MethodKind.PHI0, "pivots spanning 10^85"),
        (100, MethodKind.PHI1, "no pivot in column 1"),
    ],
)
def test_a_step_whose_lu_falls_short_below_its_digits_runs_again_at_them(
    monkeypatch, small, method, why
):
    # quad2's components mixed by [[1, 1], [1, 1 + 10^-small]] at 256 digits:
    # the operator's pivots span 10^small, so the solve starts over at full
    # precision after its ramped steps fail.  A step whose LU digits cannot
    # carry the span, through a span of at least 10^G or through a pivot
    # below their epsilon, runs again at 256 LU digits, and the solve
    # reports what a solve with every LU at 256 digits does
    ctx = PrecisionContext(256)
    with ctx.activate():
        quad2 = REGISTRY["quad2"].build_system(with_reference=False)
        f, g = quad2.components
        mix = 1 + mpf(10) ** -small
        system = NonlinearSystem(2, [lambda p: f(p) + g(p), lambda p: f(p) + mix * g(p)])
        x0 = REGISTRY["quad2"].x0_vector()
    steps = _record_steps(monkeypatch)
    report = solve(system, x0, method, D1, ctx)
    redone = [
        i for i, (_, digits, lu, error) in enumerate(steps)
        if lu < digits and isinstance(error, SingularOperator)
    ]
    # the last step, at 194 and 97 LU digits, is the one run again
    assert redone == [len(steps) - 2] and why in str(steps[-2][3]) and steps[-1][2] == 256
    assert report.trace.lu_digits[-1] == 256
    monkeypatch.setattr(ddroots.methods, "_plan", _lu_at_full)
    full = solve(system, x0, method, D1, ctx)
    assert _trace_digest(_lu_digits_dropped(report)) == _trace_digest(_lu_digits_dropped(full))


@st.composite
def quotient_case(draw):
    """A binary precision, 13610 bits (4096 digits) included, and operands
    of up to 128 bits more that take every branch of ``_quotient``: equal
    mantissas, b times an odd integer (an exact quotient, wider than the
    precision too), a zero numerator, a divisor of mantissa 1, special
    values and random mantissas."""
    prec = draw(st.one_of(st.just(13610), st.integers(53, 13700)))
    rnd = draw(st.randoms(use_true_random=False))
    wide = prec + 64

    def mantissa(bits):
        return rnd.getrandbits(bits) | 1 << (bits - 1) | 1

    def value(man, exp):
        return mp.make_mpf(from_man_exp(man * rnd.choice((1, -1)), exp))

    kind = draw(st.sampled_from(
        ["equal", "odd multiple", "wide exact", "zero", "unit divisor", "special", "random"]
    ))
    exps = st.integers(-20000, 20000)
    nb = draw(st.integers(2, 64) if kind == "wide exact" else st.integers(2, wide))
    mb, eb = mantissa(nb), draw(exps)
    b = value(mb, eb)
    if kind == "equal":  # b times a power of two
        a = value(mb, eb + draw(st.integers(-2000, 2000)))
    elif kind == "odd multiple":
        a = value(mb * mantissa(draw(st.integers(1, wide - nb + 1))), draw(exps))
    elif kind == "wide exact":  # a short divisor and an odd factor wider than prec
        a = value(mb * mantissa(draw(st.integers(prec + 1, wide))), draw(exps))
    elif kind == "zero":
        a = mpf(0)
    elif kind == "special":
        a, b = draw(st.permutations([mp.make_mpf(draw(st.sampled_from([finf, fninf, fnan]))), b]))
    else:
        a = value(mantissa(draw(st.integers(1, wide))), draw(exps))
        if kind == "unit divisor":
            b = value(1, eb)
    return prec, a, b


@given(quotient_case())
@settings(max_examples=300, deadline=None)
def test_quotient_is_the_bits_of_division(case):
    prec, a, b = case
    with mp.workprec(prec):
        assert _quotient(a._mpf_, b._mpf_, *mp._prec_rounding) == (a / b)._mpf_
        with pytest.raises(ZeroDivisionError):
            _quotient(a._mpf_, fzero, *mp._prec_rounding)


def test_mat_inf_norm_is_max_row_sum():
    with PrecisionContext(64).activate():
        a = HPMatrix([[1, -2], [3, 4]])
        assert mat_inf_norm(a) == 7
        assert repr(HPMatrix([[0, -2], [3, 0]])) == "HPMatrix([0.0, -2.0]; [3.0, 0.0])"


def test_counters_snapshot():
    # a unit of 3 evaluations, 2 products and m quotients, over 6
    c = OpCounters()
    c.charge(((18,), (12,), (0, 6)), 4)
    assert c.snapshot() == (3, 2, 4)


def test_charge_adds_each_count_table_unit_at_its_dimension():
    units = (FACTOR_COUNTS, SOLVE_COUNTS, RESIDUAL_COUNTS, *OPERATOR_COUNTS[D1],
             *OPERATOR_COUNTS[D2])
    c = OpCounters()
    for m in range(1, 65):
        for unit in units:
            before = c.snapshot()
            c.charge(unit, m)
            added = tuple(after - b for after, b in zip(c.snapshot(), before))
            assert added == tuple(count_at(poly, m) for poly in unit), (unit, m)


@given(
    st.lists(
        st.tuples(st.integers(-(10**40), 10**40), st.integers(1, 10**6), st.sampled_from([20, 64, 512])),
        min_size=1,
        max_size=6,
    )
)
@settings(max_examples=100, deadline=None)
def test_a_vector_rounds_what_does_not_fit_as_mpf_does(draws):
    # an mpf that fits the working precision is kept, object and bits; one
    # made at more digits is rounded as mpf(e) rounds it
    entries = []
    for num, den, digits in draws:
        with mp.workdps(digits):
            entries.append(mpf(num) / den)
    with mp.workdps(64):
        v = HPVector(entries)
        for e, got in zip(entries, v):
            assert got._mpf_ == mpf(e)._mpf_
            assert (got is e) == (e._mpf_[3] <= mp.prec)
        # at 512 digits a 1/3 has more bits than 64 digits hold
        with mp.workdps(512):
            third = mpf(1) / 3
        assert HPVector([third])[0]._mpf_ == mpf(third)._mpf_ != third._mpf_


def test_a_vector_converts_other_entries_as_before():
    with mp.workdps(64):
        raw = [3, "0.1", 0.1, -7, "-2.5e-300", mp.inf, mp.nan, mpf(0)]
        got = HPVector(raw)
        assert [e._mpf_ for e in got] == [mpf(e)._mpf_ for e in raw]
        assert all(type(e) is mpf for e in got)
