"""The elementary-function memo inside the registered components.

Memoised components must give bit-identical solves to components that call
``mp.exp`` / ``mp.cos`` afresh, whatever the cache already holds and
whatever precision the caller left active; and they must keep the calls
that reach mpmath down to what the chains actually need.
"""
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from ddroots import (
    REGISTRY,
    DividedDifferenceKind,
    MethodKind,
    NonlinearSystem,
    PrecisionContext,
    RunConfig,
    SolverError,
    run_row,
    solve,
)
from ddroots.problems import _MEMO_ENTRIES, ArgumentBeyondPrecision, _memo

D1 = DividedDifferenceKind.D1
D2 = DividedDifferenceKind.D2
PHI0, PHI2 = MethodKind.PHI0, MethodKind.PHI2


def _fresh_exp5():
    def make(i):
        return lambda p: sum(p[j] for j in range(5) if j != i) - mp.exp(-p[i])

    return [make(i) for i in range(5)]


def _fresh_cos3():
    def make(i):
        def component(p):
            total = p[0] + p[1] + p[2]
            return p[i] - mp.cos(2 * p[i] - total)

        return component

    return [make(i) for i in range(3)]


FRESH = {"exp5": _fresh_exp5, "cos3": _fresh_cos3}


def _outcome(system, x0, method, dd, ctx):
    """Everything a solve reports that the memo could disturb."""
    try:
        r = solve(system, x0, method, dd, ctx)
    except SolverError as exc:
        return type(exc).__name__, str(exc)
    return (
        r.stop_reason,
        r.iterations,
        tuple(v._mpf_ for v in r.final_iterate),
        r.trace.counter_deltas,
        r.counters.snapshot(),
        r.trace.working_digits,
        r.acoc,
        r.acoc_spread,
    )


def _start(name, shifts, ctx):
    with ctx.activate():
        x0 = REGISTRY[name].x0_vector()
        return type(x0)(x + mpf(k) / 1000 for x, k in zip(x0, shifts))


def _counting(monkeypatch, label):
    calls = []
    original = getattr(mp, label)
    monkeypatch.setattr(mp, label, lambda v: calls.append(v) or original(v))
    return calls


solve_cases = st.tuples(
    st.lists(st.integers(-50, 50), min_size=5, max_size=5),
    st.sampled_from([128, 256, 512]),
    st.sampled_from(list(MethodKind)),
    st.sampled_from(list(DividedDifferenceKind)),
)


@pytest.mark.parametrize("name", ["exp5", "cos3"])
@settings(max_examples=6, deadline=None)
@given(case=solve_cases)
def test_memoised_components_match_fresh_calls(name, case):
    shifts, digits, method, dd = case
    spec = REGISTRY[name]
    ctx = PrecisionContext(digits)
    x0 = _start(name, shifts, ctx)
    fresh = NonlinearSystem(spec.m, FRESH[name]())
    memoised = spec.build_system(with_reference=False)
    assert _outcome(memoised, x0, method, dd, ctx) == _outcome(fresh, x0, method, dd, ctx)


@pytest.mark.parametrize("name", ["exp5", "cos3"])
@settings(max_examples=6, deadline=None)
@given(case=solve_cases, ambient=st.integers(15, 2000))
def test_warm_cache_and_ambient_precision_change_nothing(name, case, ambient):
    shifts, digits, method, dd = case
    ctx = PrecisionContext(digits)
    x0 = _start(name, shifts, ctx)
    system = REGISTRY[name].build_system(with_reference=False)
    cold = _outcome(system, x0, method, dd, ctx)
    with mp.workdps(ambient):
        warm = _outcome(system, x0, method, dd, ctx)
        assert mp.dps == ambient
    assert warm == cold


@settings(max_examples=40, deadline=None)
@given(
    k=st.integers(-10**6, 10**6),
    dps_a=st.integers(15, 300),
    dps_b=st.integers(15, 300),
)
def test_a_value_cached_at_one_precision_is_never_returned_at_another(k, dps_a, dps_b):
    exp = _memo("exp")
    with mp.workdps(300):
        v = mpf(k) / 997
    with mp.workdps(dps_a):
        a = exp(v)
        assert a._mpf_ == mp.exp(v)._mpf_
    with mp.workdps(dps_b):
        b = exp(v)
        assert b._mpf_ == mp.exp(v)._mpf_
    with mp.workdps(dps_a):
        assert exp(v) is a


def test_memo_is_bounded(monkeypatch):
    calls = _counting(monkeypatch, "exp")
    exp = _memo("exp")
    with mp.workdps(30):
        values = [mpf(k) / 7 for k in range(_MEMO_ENTRIES + 1)]
        for v in values[:-1]:
            exp(v)
        exp(values[0])
        assert len(calls) == _MEMO_ENTRIES
        # one argument past the bound drops the least recently used one,
        # values[1], and keeps values[0], used again just before
        exp(values[-1])
        exp(values[0])
        assert len(calls) == _MEMO_ENTRIES + 1
        exp(values[1])
        assert len(calls) == _MEMO_ENTRIES + 2
        assert calls[-1] is values[1]


def test_two_systems_share_no_cache(monkeypatch):
    calls = _counting(monkeypatch, "exp")
    spec = REGISTRY["exp5"]
    with PrecisionContext(64).activate():
        x0 = spec.x0_vector()
        first = spec.build_system(with_reference=False)
        # x0 has two distinct coordinates, so F(x0) needs two exponentials
        first.eval(x0)
        assert len(calls) == 2
        first.eval(x0)
        assert len(calls) == 2
        spec.build_system(with_reference=False).eval(x0)
        assert len(calls) == 4


# At 1024 digits, with the memo, 60 mp.exp calls reach mpmath on exp5
# phi0/d1 and 142 mp.cos calls on cos3 phi2/d2; without it, 350 and 195.
@pytest.mark.parametrize(
    "name, method, dd, label, bound",
    [("exp5", PHI0, D1, "exp", 70), ("cos3", PHI2, D2, "cos", 150)],
)
def test_elementary_calls_reaching_mpmath(monkeypatch, name, method, dd, label, bound):
    calls = _counting(monkeypatch, label)
    row = run_row(REGISTRY[name], method, dd, RunConfig(digits=1024))
    assert row.error is None
    assert 0 < len(calls) <= bound


@pytest.mark.parametrize("name", ["exp", "cos"])
def test_an_argument_beyond_the_precision_is_refused(name):
    # only a diverging iterate gets there: from x0 shifted by about 0.2,
    # exp5 asked for exp near 2^(4e10), where mpmath's argument reduction
    # raised MemoryError instead of a SolverError
    with mp.workdps(128):
        f = _memo(name)
        assert f(mpf(2) ** (mp.prec - 1)) == getattr(mp, name)(mpf(2) ** (mp.prec - 1))
        for v in (mpf(2) ** mp.prec, -(mpf(2) ** mp.prec)):
            with pytest.raises(ArgumentBeyondPrecision):
                f(v)
