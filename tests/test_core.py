import math

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
    lu_solve,
    mat_inf_norm,
    mat_vec,
    to_decimal,
    working_eps,
)


def test_context_validates_digits():
    with pytest.raises(ValueError):
        PrecisionContext(16)
    PrecisionContext(32)  # boundary is allowed


def test_context_tolerances():
    ctx = PrecisionContext(128)
    with ctx.activate():
        assert working_eps() == mpf(10) ** -128
        assert ctx.check_tolerance == mpf(10) ** -64
        # binary precision must carry at least the configured decimal digits
        assert mp.prec >= math.ceil(128 * math.log2(10))


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


def test_vector_decimal_round_trip():
    with PrecisionContext(256).activate():
        v = HPVector([mp.pi, -mp.sqrt(2)])
        assert HPVector.from_decimals(v.to_decimals()).entries == v.entries


def test_matrix_must_be_square():
    with pytest.raises(ValueError):
        HPMatrix([[1, 2], [3, 4], [5, 6]])
    with pytest.raises(ValueError):
        HPMatrix([[1, 2]])


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
    # fixed loop structure: the identity costs the same as any 3x3 matrix
    with PrecisionContext(64).activate():
        counters = OpCounters()
        fact = lu_factor(HPMatrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]), counters)
        assert not fact.singular_flag
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
        assert not fact.singular_flag
        x = lu_solve(fact, HPVector([2, 5]), OpCounters())
        assert list(x) == [5, 2]


def test_lu_diagonal_solve():
    with PrecisionContext(64).activate():
        fact = lu_factor(HPMatrix([[2, 0], [0, 4]]), OpCounters())
        assert list(lu_solve(fact, HPVector([2, 8]), OpCounters())) == [1, 2]


def test_singular_matrix_flagged_and_refused():
    with PrecisionContext(64).activate():
        fact = lu_factor(HPMatrix([[1, 2], [2, 4]]), OpCounters())
        assert fact.singular_flag
        with pytest.raises(SingularOperator):
            lu_solve(fact, HPVector([1, 1]), OpCounters())


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
        assert not fact.singular_flag
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


def test_mat_inf_norm_is_max_row_sum():
    with PrecisionContext(64).activate():
        a = HPMatrix([[1, -2], [3, 4]])
        assert mat_inf_norm(a) == 7


def test_counters_snapshot():
    c = OpCounters()
    c.add_evals(3)
    c.add_products(2)
    c.add_quotients(1)
    assert c.snapshot() == (3, 2, 1)
