import pytest
from hypothesis import given, settings, strategies as st
from mpmath import mp, mpf

from ddroots.convergence import (
    InsufficientTrace,
    MissingReferenceRoot,
    NonContractingTrace,
    acoc,
    correct_decimals,
    eta,
)
from ddroots.core import HPVector, PrecisionContext
from ddroots.divdiff import DividedDifferenceKind
from ddroots.methods import IterationTrace, MethodKind, solve
from ddroots.problems import REGISTRY


def synthetic_trace(norms):
    """Trace with prescribed correction norms (iterates are placeholders)."""
    iterates = tuple(HPVector(["0"]) for _ in range(len(norms) + 1))
    ratios = tuple(norms[k + 1] / norms[k] for k in range(len(norms) - 1))
    deltas = tuple((0, 0, 0) for _ in norms)
    return IterationTrace(iterates, tuple(norms), ratios, deltas)


@pytest.mark.parametrize("p", [2, 3, 4, 6])
def test_acoc_recovers_exact_powers(p):
    # corrections following e_{k+1} = e_k^p give the order exactly
    with PrecisionContext(512).activate():
        e = mpf("1e-3")
        norms = []
        for _ in range(5):
            norms.append(e)
            e = e**p
        estimate = acoc(synthetic_trace(norms))
        assert abs(estimate.rho_hat - p) < mpf("1e-6")


def test_acoc_geometric_doubling_example():
    with PrecisionContext(128).activate():
        norms = [mpf("1e-2"), mpf("1e-4"), mpf("1e-8")]
        estimate = acoc(synthetic_trace(norms))
        assert abs(estimate.rho_hat - 2) < mpf("1e-30")


@given(scale=st.integers(1, 10**6))
@settings(max_examples=30, deadline=None)
def test_acoc_scale_invariance(scale):
    with PrecisionContext(256).activate():
        norms = [mpf("1e-2"), mpf("1e-5"), mpf("1e-11"), mpf("1e-23")]
        base = acoc(synthetic_trace(norms)).rho_hat
        scaled = acoc(synthetic_trace([mpf(scale) * n / 10**7 for n in norms])).rho_hat
        # scale-free up to the rounding of the scaled norms themselves
        assert abs(base - scaled) < mpf("1e-240")


def test_acoc_spread_indicator():
    with PrecisionContext(256).activate():
        norms = [mpf("1e-2"), mpf("1e-4"), mpf("1e-8"), mpf("1e-16")]
        est = acoc(synthetic_trace(norms))
        assert est.spread is not None and est.spread < mpf("1e-30")
        short = acoc(synthetic_trace(norms[:3]))
        assert short.spread is None


def test_acoc_requires_enough_iterates():
    with PrecisionContext(96).activate():
        with pytest.raises(InsufficientTrace):
            acoc(synthetic_trace([mpf("1e-2"), mpf("1e-4")]))


def test_acoc_rejects_noncontracting_tail():
    with PrecisionContext(96).activate():
        with pytest.raises(NonContractingTrace):
            acoc(synthetic_trace([mpf("1e-4"), mpf("1e-2"), mpf(1)]))


def test_acoc_on_real_solve():
    ctx = PrecisionContext(1024)
    with ctx.activate():
        spec = REGISTRY["quad2"]
        report = solve(
            spec.build_system(with_reference=False),
            spec.x0_vector(),
            MethodKind.PHI1,
            DividedDifferenceKind.D2,
            ctx,
            order_hint=4,
        )
        est = acoc(report.trace)
        # solve reports the estimate at the 60 digits it computes it at
        with mp.workdps(60):
            assert acoc(report.trace).rho_hat == report.acoc
        assert abs(est.rho_hat - report.acoc) < mpf("1e-55")
        assert abs(est.rho_hat - 4) < mpf("1e-3")


@pytest.mark.parametrize(
    "rho, digits, expected",
    [(2, 4096, 1024.0), (4, 4096, 768.0), (3, 4096, 4096 * 2 / 9)],
)
def test_eta_values(rho, digits, expected):
    assert eta(rho, digits) == pytest.approx(expected, abs=1e-9)


def test_eta_sixth_order():
    assert eta(6, 4096) == pytest.approx(5120 / 9, abs=1e-9)


def test_eta_validation():
    with pytest.raises(ValueError):
        eta(1.5, 4096)
    with pytest.raises(ValueError):
        eta(2, 16)


@pytest.mark.parametrize("rho", [float("nan"), float("inf"), mpf("nan"), mpf("inf")])
def test_eta_refuses_an_order_that_is_not_finite(rho):
    with pytest.raises(ValueError, match="order must be finite and at least 2"):
        eta(rho, 64)


def test_correct_decimals_examples():
    ctx = PrecisionContext(256)
    with ctx.activate():
        alpha = HPVector([mp.pi, mp.sqrt(2)])
        assert correct_decimals(alpha, alpha) == 256
        x = HPVector([mp.pi + mpf("1e-100"), mp.sqrt(2)])
        assert correct_decimals(x, alpha) == 100
        far = HPVector([mp.pi + 1000, mp.sqrt(2)])
        assert correct_decimals(far, alpha) == 0


@pytest.mark.parametrize("sign, q", [(1, 99), (-1, 100)])
def test_correct_decimals_exact_across_an_integer(monkeypatch, sign, q):
    # -log10 of the difference is 100 -/+ 4e-201: at 30 digits both read
    # 100, so both must take the working-precision fallback
    precisions = []
    log10 = mp.log10
    monkeypatch.setattr(mp, "log10", lambda v: precisions.append(mp.dps) or log10(v))
    with PrecisionContext(256).activate():
        diff = mpf(10) ** -100 * (1 + sign * mpf(10) ** -200)
        assert correct_decimals(HPVector([diff]), HPVector([0])) == q
        assert precisions == [30, 256]
        precisions.clear()
        assert correct_decimals(HPVector([3 * diff]), HPVector([0])) == 99
        assert precisions == [30]


def test_correct_decimals_requires_reference():
    with PrecisionContext(96).activate():
        with pytest.raises(MissingReferenceRoot):
            correct_decimals(HPVector(["1"]), None)


def test_correct_decimals_monotone_along_tail():
    ctx = PrecisionContext(512)
    with ctx.activate():
        spec = REGISTRY["quad2"]
        system = spec.build_system()
        report = solve(
            system,
            spec.x0_vector(),
            MethodKind.PHI2,
            DividedDifferenceKind.D2,
            ctx,
            order_hint=6,
        )
        qs = [
            correct_decimals(it, system.reference_root)
            for it in report.trace.iterates[1:]
        ]
        assert all(qs[k + 1] >= qs[k] for k in range(len(qs) - 1))
