"""The elementary-function memo inside the registered components.

Memoised components must give bit-identical solves to components that call
``mp.exp`` / ``mp.cos`` afresh, whatever the cache already holds and
whatever precision the caller left active.  Every value the memo returns,
cached, derived from a neighbour or fresh, must be ``mp.<name>(v)``'s bit
for bit.  The memo must keep the calls that reach mpmath down to what the
chains actually need, and hold a bounded number of entries.
"""
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf
from mpmath.libmp import dps_to_prec, from_man_exp, prec_to_dps

from ddroots import (
    REGISTRY,
    DividedDifferenceKind,
    MethodKind,
    NonlinearSystem,
    PrecisionContext,
    RunConfig,
    run_row,
    solve,
)
from ddroots import problems
from ddroots.divdiff import D1, D2
from ddroots.methods import PHI0, PHI2
from ddroots.problems import (
    _BASES,
    _MEMO_ENTRIES,
    _NEIGHBOUR_FLOOR,
    ArgumentBeyondPrecision,
    _CosMemo,
    _ExpMemo,
    _rounds_clear,
)
from digest_sweep import _solved, _trace_digest

MEMOS = {"exp": _ExpMemo, "cos": _CosMemo}


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


def _start(name, shifts, ctx):
    with ctx.activate():
        x0 = REGISTRY[name].x0_vector()
        return type(x0)(x + mpf(k) / 1000 for x, k in zip(x0, shifts))


def _counting(monkeypatch, label):
    calls = []
    original = getattr(mp, label)
    monkeypatch.setattr(mp, label, lambda v: calls.append(v) or original(v))
    return calls


def _recording(monkeypatch, label):
    """Every memo of ``label`` that the components built from now on make."""
    memos = []
    cls = MEMOS[label]

    class Recording(cls):
        def __init__(self):
            super().__init__()
            memos.append(self)

    monkeypatch.setattr(problems, cls.__name__, Recording)
    return memos


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
    assert _trace_digest(_solved(solve, memoised, x0, method, dd, ctx)) == _trace_digest(
        _solved(solve, fresh, x0, method, dd, ctx)
    )


# every exp5 pair and every registered cos3 row
TRANSCENDENTAL_PAIRS = [("exp5", m, d) for m in MethodKind for d in DividedDifferenceKind] + [
    ("cos3", m, d) for m, d in REGISTRY["cos3"].rows
]


@pytest.mark.parametrize("name, method, dd", TRANSCENDENTAL_PAIRS)
def test_memoised_components_match_fresh_calls_at_1024_digits(monkeypatch, name, method, dd):
    # 1024 digits is 3405 bits, well above the floor: most misses of the
    # full-precision iterations are derived from a neighbour
    memos = _recording(monkeypatch, name[:3])
    spec = REGISTRY[name]
    ctx = PrecisionContext(1024)
    with ctx.activate():
        x0 = spec.x0_vector()
    fresh = NonlinearSystem(spec.m, FRESH[name]())
    memoised = spec.build_system(with_reference=False)
    assert _trace_digest(_solved(solve, memoised, x0, method, dd, ctx)) == _trace_digest(
        _solved(solve, fresh, x0, method, dd, ctx)
    )
    assert memos[0].neighbours > 0


@pytest.mark.parametrize("name", ["exp5", "cos3"])
@settings(max_examples=6, deadline=None)
@given(case=solve_cases, ambient=st.integers(15, 2000))
def test_warm_cache_and_ambient_precision_change_nothing(name, case, ambient):
    shifts, digits, method, dd = case
    ctx = PrecisionContext(digits)
    x0 = _start(name, shifts, ctx)
    system = REGISTRY[name].build_system(with_reference=False)
    cold = _trace_digest(_solved(solve, system, x0, method, dd, ctx))
    with mp.workdps(ambient):
        warm = _trace_digest(_solved(solve, system, x0, method, dd, ctx))
        assert mp.dps == ambient
    assert warm == cold


# digits on either side of the neighbour floor
_DPS = st.integers(15, 2 * prec_to_dps(_NEIGHBOUR_FLOOR))


@settings(max_examples=40, deadline=None)
@given(k=st.integers(-10**6, 10**6), dps_a=_DPS, dps_b=_DPS)
def test_a_value_cached_at_one_precision_is_never_returned_at_another(k, dps_a, dps_b):
    exp = _ExpMemo()
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
    exp = _ExpMemo()
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


def test_one_memo_stays_bounded_across_precisions():
    # a ramped solve visits about 11 precisions, and a long-lived system may
    # see many more: the cache and the bases stay bounded whatever it sees
    exp = _ExpMemo()
    for i in range(50):
        with mp.workprec(_NEIGHBOUR_FLOOR + 13 * i):
            u = mpf(3) / 7
            fresh = exp.fresh
            exp(u)
            # the base made at the last precision lies within 2^-prec of u
            # but serves only its own precision
            assert exp.fresh == fresh + 1
            for k in range(1, 6):
                exp(u + k * mpf(2) ** (-mp.prec // 3))
            assert len(exp) <= _MEMO_ENTRIES + _BASES
    assert exp.neighbours == 5 * 50
    assert len(exp) == _MEMO_ENTRIES + _BASES


# (fresh, fallbacks) of one row's memo, at most, as measured; the fresh
# calls include every miss of the iterations run below the floor.  Before
# neighbours, 60 and 142 mp.exp / mp.cos calls reached mpmath at 1024
# digits, and 72 and 141 at 4096 digits.  cos3 phi2/d2's confirming step
# at 990 digits, not 1024, has one more cos value fall back.
MEMO_COUNTS = {
    ("exp5", 1024): (42, 0),
    ("cos3", 1024): (65, 3),
    ("exp5", 4096): (46, 0),
    ("cos3", 4096): (65, 3),
}


@pytest.mark.parametrize(
    "name, method, dd, digits",
    [
        ("exp5", PHI0, D1, 1024),
        ("cos3", PHI2, D2, 1024),
        ("exp5", PHI0, D1, 4096),
        ("cos3", PHI2, D2, 4096),
    ],
)
def test_elementary_calls_reaching_mpmath(monkeypatch, name, method, dd, digits):
    memos = _recording(monkeypatch, name[:3])
    row = run_row(REGISTRY[name], method, dd, RunConfig(digits=digits))
    assert row.error is None
    (memo,) = memos
    fresh, fallbacks = MEMO_COUNTS[name, digits]
    assert 0 < memo.fresh <= fresh
    assert memo.fallbacks <= fallbacks
    assert memo.neighbours > 0


@pytest.mark.parametrize("name", ["exp", "cos"])
def test_an_argument_beyond_the_precision_is_refused(name):
    # only a diverging iterate gets there: from x0 shifted by about 0.2,
    # exp5 asked for exp near 2^(4e10), where mpmath's argument reduction
    # raised MemoryError instead of a SolverError
    for prec in (dps_to_prec(128), _NEIGHBOUR_FLOOR, 3 * _NEIGHBOUR_FLOOR):
        with mp.workprec(prec):
            f = MEMOS[name]()
            assert f(mpf(2) ** (mp.prec - 1)) == getattr(mp, name)(mpf(2) ** (mp.prec - 1))
            for v in (mpf(2) ** mp.prec, -(mpf(2) ** mp.prec)):
                with pytest.raises(ArgumentBeyondPrecision):
                    f(v)


@settings(max_examples=30, deadline=None)
@given(
    name=st.sampled_from(["exp", "cos"]),
    prec=st.sampled_from([_NEIGHBOUR_FLOOR, _NEIGHBOUR_FLOOR + 1, _NEIGHBOUR_FLOOR + 61, 13610]),
    rnd=st.randoms(use_true_random=False),
    depth=st.floats(1 / 3, 1),
    below=st.booleans(),
)
def test_every_value_above_the_floor_is_mpmaths(name, prec, rnd, depth, below):
    # v = u +/- h with |h| from 2^-(prec/3) down to 2^-prec: u's value is a
    # base, and v's is derived from it, or falls back to mpmath
    memo = MEMOS[name]()
    with mp.workprec(prec):
        u = mpf(rnd.uniform(-8, 8) if name == "exp" else rnd.uniform(-3, 3))
        u += rnd.getrandbits(prec) * mpf(2) ** (-prec - 8)
        h = (rnd.getrandbits(63) | 1 << 63) * mpf(2) ** (-int(depth * prec) - 64)
        v = u - h if below else u + h
        assert memo(u)._mpf_ == getattr(mp, name)(u)._mpf_
        assert memo(v)._mpf_ == getattr(mp, name)(v)._mpf_


# A 10-bit value followed by 8 more bits: the rounding midpoint is at 128
# of them, and 2^-8 ulp is one of them.
_TOP = 0b1011001101 << 8


@pytest.mark.parametrize(
    "t, clear",
    [
        (from_man_exp(_TOP | 128, -18), False),
        (from_man_exp(_TOP | 129, -18), False),
        (from_man_exp(_TOP | 127, -18), False),
        (from_man_exp(_TOP | 130, -18), True),
        (from_man_exp(_TOP | 126, -18), True),
        (from_man_exp(_TOP, -18), True),
        (from_man_exp(5, -1), True),
        (from_man_exp(0, 0), False),
    ],
    ids=[
        "midpoint",
        "inside-above",
        "inside-below",
        "outside-above",
        "outside-below",
        "exact",
        "fewer-bits",
        "zero",
    ],
)
def test_the_rounding_test_on_hand_built_values(t, clear):
    assert _rounds_clear(t, 10, 8) is clear


def test_exp_where_mpmath_misses_by_hundreds_of_ulps_is_still_mpmaths():
    # at 13610 bits mpmath's exp near 2^-29 is hundreds of ulps off the true
    # value: the memo must return mpmath's value there, not the correctly
    # rounded one
    memo = _ExpMemo()
    with mp.workprec(13610):
        v = mpf(3) / 7 * mpf(2) ** -28
        assert memo(v)._mpf_ == mp.exp(v)._mpf_
        with mp.workprec(13610 + 200):
            truth = mp.exp(v)
        assert mp.exp(v) != +truth


# Arguments at 720 bits whose mp.exp / mp.cos is not the correctly rounded
# value: the true value and mpmath's fixed-point one lie on either side of a
# rounding midpoint, inside the band.
_MISROUNDED = {
    "exp": (
        1,
        int(
            "21020e5aaabda2bb857ab7f40574530bf1d28dbeab9ca67e2f44db0f00406130"
            "063c7aebb27b796213ee925cddf115f69e57a670e1eadffbf46f9ce324cbd295"
            "9ef128dc03af4a73beadf603c58a37d05d9aca1b8c224502f497",
            16,
        ),
        -717,
        718,
    ),
    "cos": (
        1,
        int(
            "5f9eee894fffaeca77fea596732ff585dc5429d0b329ca9fbcea4690b6c9eb89"
            "ec3557a5b3165dc71927b243852144e9da0a4ad8318c01ce0a5c9de69f3e9645"
            "9e3c1d1c03a4d11b5815ef8d745378903d165890326a7a748a0d",
            16,
        ),
        -720,
        719,
    ),
}


@pytest.mark.parametrize("name", ["exp", "cos"])
def test_a_value_mpmath_misrounds_is_mpmaths_fresh_or_derived(name):
    f = getattr(mp, name)
    with mp.workprec(720):
        v = mp.make_mpf(_MISROUNDED[name])
        with mp.workprec(820):
            truth = f(v)
        assert f(v) != +truth
        fresh = MEMOS[name]()
        assert fresh(v)._mpf_ == f(v)._mpf_
        derived = MEMOS[name]()
        derived(v + mpf(2) ** -300)
        assert derived(v)._mpf_ == f(v)._mpf_
        assert derived.neighbours == 1
