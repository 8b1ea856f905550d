import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpf

from ddroots.divdiff import DividedDifferenceKind
from ddroots.efficiency import (
    ELEMENTARY_COSTS,
    CostModel,
    PoleAtAsymptote,
    as_mpf,
    asymptote_m,
    boundary_g,
    cei,
    classify_region,
    comparison_ratio,
    cost,
    estimate_mu,
    ratio,
    time_factor,
)
from ddroots.methods import MethodKind

D1 = DividedDifferenceKind.D1
D2 = DividedDifferenceKind.D2
PHI0, PHI1, PHI2 = MethodKind.PHI0, MethodKind.PHI1, MethodKind.PHI2


def model(m, mu, ell, method, dd):
    return CostModel(m=m, mu=mu, ell=ell, method=method, dd_kind=dd)


@pytest.mark.parametrize(
    "m, mu, method, dd, expected",
    [
        (5, "87.8", PHI0, D1, "3223.0"),
        (5, "87.8", PHI1, D1, "5568.0"),
        (5, "87.8", PHI2, D1, "6039.5"),
        (2, "1.5", PHI0, D1, "32.5"),
        (2, "1.5", PHI1, D1, "59.0"),
        (2, "1.5", PHI1, D2, "65.0"),
        (2, "1.5", PHI2, D1, "69.0"),
        (2, "1.5", PHI2, D2, "75.0"),
        (3, "113.3", PHI0, D1, "1748.0"),
        (3, "113.3", PHI1, D1, "2816.2"),
        (3, "113.3", PHI1, D2, "4175.8"),
        (3, "113.3", PHI2, D1, "3169.6"),
        (3, "113.3", PHI2, D2, "4529.2"),
    ],
)
def test_published_costs(m, mu, method, dd, expected):
    with mp.workdps(50):
        value = cost(model(m, mu, "2.5", method, dd))
        assert abs(value - mpf(expected)) < mpf("1e-30")
        assert f"{float(value):.1f}" == expected


def test_base_method_cost_ignores_operator_kind():
    with mp.workdps(50):
        a = cost(model(4, "10", "2.5", PHI0, D1))
        b = cost(model(4, "10", "2.5", PHI0, D2))
        assert a == b


@pytest.mark.parametrize(
    "rho, c, expected",
    [(2, "32.5", "1.021556664"), (6, "6039.5", "1.000296717")],
)
def test_cei_examples(rho, c, expected):
    with mp.workdps(50):
        assert f"{float(cei(rho, c)):.9f}" == expected


def test_cei_tends_to_one_from_above():
    with mp.workdps(50):
        values = [cei(4, c) for c in ("10", "100", "1000", "100000")]
        assert all(v > 1 for v in values)
        assert all(values[i + 1] < values[i] for i in range(len(values) - 1))


@pytest.mark.parametrize(
    "cei_value, expected",
    [("1.000296717", 7761.36), ("1.021556664", 107.96), ("10", 1.0)],
)
def test_time_factor_examples(cei_value, expected):
    with mp.workdps(50):
        assert float(time_factor(cei_value)) == pytest.approx(expected, abs=0.01)


def test_validation_errors():
    with pytest.raises(ValueError):
        CostModel(m=1, mu="1", ell="2.5", method=PHI0, dd_kind=D1)
    with pytest.raises(ValueError):
        CostModel(m=2, mu="0", ell="2.5", method=PHI0, dd_kind=D1)
    with pytest.raises(ValueError):
        CostModel(m=2, mu="1", ell="0.5", method=PHI0, dd_kind=D1)
    with pytest.raises(ValueError):
        cei(1.5, "10")
    with pytest.raises(ValueError):
        time_factor("0.99")


def test_ratio_reflexive_and_shared_params():
    with mp.workdps(50):
        a = model(5, "87.8", "2.5", PHI2, D1)
        assert ratio(a, a, order_a=6, order_b=6) == 1
        b = model(5, "87.8", "2.5", PHI1, D1)
        assert ratio(a, b, order_a=6, order_b=4) > 1
        with pytest.raises(ValueError):
            ratio(a, model(4, "87.8", "2.5", PHI1, D1), order_a=6, order_b=4)


def test_ratio_equality_at_dimension_two():
    with mp.workdps(50):
        a = model(2, "7.25", "3", PHI1, D2)
        b = model(2, "7.25", "3", PHI0, D1)
        assert abs(ratio(a, b, order_a=4, order_b=2) - 1) < mpf("1e-45")


@pytest.mark.parametrize(
    "which, printed",
    [
        ("g20", "2.9468"),
        ("g22", "2.0334"),
        ("g11", "1.7095"),
        ("t3_phi2_phi1", "0.7095"),
        ("d2_phi2_phi1", "0.8548"),
    ],
)
def test_asymptote_constants(which, printed):
    with mp.workdps(50):
        assert abs(asymptote_m(which) - mpf(printed)) < mpf("1e-4")


def oracle_g(which, m, ell):
    """The boundary curves hand-expanded from the published cost polynomials,
    kept as an oracle independent of the count table."""
    m, ell = mpf(m), mpf(ell)
    q = mp.log(mpf(3) / 2)
    r = mp.log(mpf(8) / 3)
    s = mp.log(mpf(4) / 3)
    t = mp.log(2)
    if which == "g20":
        num = 2 * q * m**2 + 3 * (3 * q * ell - r) * m - 3 * r * ell - (2 * q - 3 * r)
        return num / (3 * (2 * r * m - (7 * q + 3 * r)))
    if which == "g22":
        num = 2 * q * m**2 + 3 * q * (3 * ell + 2) * m + 6 * q * ell - 8 * q
        return num / (3 * (2 * r * m - (5 * q + 2 * r)))
    num = 2 * s * m**2 + 3 * s * (3 * ell + 1) * m + 3 * s * ell - 5 * s
    return num / (12 * ((t - s) * m - t))


def oracle_pole(which):
    """Root of the oracle's denominator."""
    q, r, s, t = mp.log(mpf(3) / 2), mp.log(mpf(8) / 3), mp.log(mpf(4) / 3), mp.log(2)
    if which == "g20":
        return (7 * q + 3 * r) / (2 * r)
    if which == "g22":
        return (5 * q + 2 * r) / (2 * r)
    return t / (t - s)


@pytest.mark.parametrize("which", ["g20", "g22", "g11"])
def test_asymptote_is_the_oracle_pole(which):
    with mp.workdps(60):
        assert abs(asymptote_m(which) - oracle_pole(which)) < mpf("1e-55")


@given(
    which=st.sampled_from(["g20", "g22", "g11"]),
    m=st.floats(2, 50),
    ell=st.floats(1, 6),
)
@settings(max_examples=200, deadline=None)
def test_boundary_matches_hand_expanded_oracle(which, m, ell):
    m, ell = repr(m), repr(ell)
    with mp.workdps(60):
        assume(abs(mpf(m) - oracle_pole(which)) > mpf("1e-3"))
        want = oracle_g(which, m, ell)
        assert abs(boundary_g(which, m, ell) - want) <= mpf("1e-40") * abs(want)


def test_boundary_values_at_dimension_two():
    with mp.workdps(50):
        assert boundary_g("g11", 2, "2.5") > 0
        assert boundary_g("g22", 2, "2.5") < 0  # out of domain there
        with pytest.raises(ValueError):
            boundary_g("g99", 3, "2.5")


def test_boundary_pole_raises():
    with mp.workdps(50):
        pole = asymptote_m("g20")
        with pytest.raises(PoleAtAsymptote):
            boundary_g("g20", pole, "2.5")


@pytest.mark.parametrize("which", ["g20", "g22", "g11"])
def test_boundary_rejects_ell_below_one(which):
    # the rule CostModel applies; m stays unbounded, curves are drawn below 2
    with mp.workdps(50):
        with pytest.raises(ValueError, match="ell must be at least 1"):
            boundary_g(which, 4, "0.999")
        boundary_g(which, 4, "1")
        boundary_g(which, "0.5", "2.5")


def test_classify_examples():
    with mp.workdps(50):
        for m_val, mu_val, ell_val in ((2, "0.1", "1"), (7, "10", "2.5"), (50, "200", "5")):
            assert classify_region("t3_phi2_phi1", m_val, mu_val, ell_val) == "first_wins"
        assert classify_region("d2_phi1_phi0", 2, "42", "3.7") == "boundary"
        assert classify_region("d2_phi1_phi0", 3, "42", "3.7") == "second_wins"
        assert classify_region("d1_phi2_phi0_degraded", 3, "113.3", "2.5") == "first_wins"


def test_boundary_curve_sits_on_ratio_one():
    with mp.workdps(50):
        for which, m_val in (("g20", 4), ("g22", 5), ("g11", 3)):
            mu_star = boundary_g(which, m_val, "2.5")
            assert mu_star > 0
            assert abs(comparison_ratio(which, m_val, mu_star, "2.5") - 1) < mpf("1e-9")
            assert classify_region(which, m_val, mu_star * mpf("1.02"), "2.5") != classify_region(
                which, m_val, mu_star * mpf("0.98"), "2.5"
            )


@given(
    m=st.integers(2, 40),
    mu_tenths=st.integers(1, 2000),
    ell_tenths=st.integers(10, 60),
    dd=st.sampled_from([D1, D2]),
)
@settings(max_examples=60, deadline=None)
def test_marginal_cost_identity(m, mu_tenths, ell_tenths, dd):
    # C(three-step) - C(two-step) = m*mu + m(m-1) + ell*m for either operator
    with mp.workdps(50):
        mu = mpf(mu_tenths) / 10
        ell = mpf(ell_tenths) / 10
        c1 = cost(model(m, mu, ell, PHI1, dd))
        c2 = cost(model(m, mu, ell, PHI2, dd))
        assert abs((c2 - c1) - (m * mu + m * (m - 1) + ell * m)) < mpf("1e-40")


@pytest.mark.parametrize(
    "profile, m, expected",
    [
        ({"product": 3}, 2, 1.5),
        ({"exp": 5}, 5, 87.8),
        ({"product": 1}, 1, 1.0),
    ],
)
def test_estimate_mu_examples(profile, m, expected):
    assert estimate_mu(profile, m=m) == pytest.approx(expected, abs=1e-12)


def test_estimate_mu_cos_system_differs_from_table_value():
    # the natural profile prices one cosine plus one doubling per component
    got = estimate_mu({"cos": 3, "product": 3}, m=3)
    assert got == pytest.approx(114.0, abs=1e-12)
    assert got != pytest.approx(113.3, abs=0.1)


def test_estimate_mu_validation():
    with pytest.raises(ValueError):
        estimate_mu({"exp": -1}, m=2)
    with pytest.raises(ValueError):
        estimate_mu({"exp": 1}, m=0)


def test_cost_table_defaults():
    assert ELEMENTARY_COSTS["product"] == 1
    assert ELEMENTARY_COSTS["quotient"] == 2.5
    assert ELEMENTARY_COSTS["arctan"] == 228


def test_as_mpf_reads_floats_decimally():
    with mp.workdps(50):
        assert as_mpf(87.8) == mpf("87.8")
        assert 35 * as_mpf(87.8) == mpf("3073")
