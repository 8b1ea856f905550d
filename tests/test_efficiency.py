import pytest
from hypothesis import assume, given, settings, strategies as st
from mpmath import mp, mpf

from ddroots.divdiff import D1, D2
from ddroots.efficiency import (
    COMPARISONS,
    ELEMENTARY_COSTS,
    PoleAtAsymptote,
    as_mpf,
    asymptote_m,
    boundary_g,
    cei,
    classify_region,
    comparison_ratio,
    cost,
    estimate_mu,
    time_factor,
)
from ddroots.methods import PHI0, PHI1, PHI2


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
        value = cost(method, dd, m, mu, "2.5")
        assert abs(value - mpf(expected)) < mpf("1e-30")
        assert f"{float(value):.1f}" == expected


def test_base_method_cost_ignores_operator_kind():
    with mp.workdps(50):
        a = cost(PHI0, D1, 4, "10", "2.5")
        b = cost(PHI0, D2, 4, "10", "2.5")
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
    with pytest.raises(ValueError, match="cost model requires dimension m >= 2"):
        cost(PHI0, D1, 1, "1", "2.5")
    with pytest.raises(ValueError, match="mu must be positive"):
        cost(PHI0, D1, 2, "0", "2.5")
    with pytest.raises(ValueError, match="ell must be at least 1"):
        cost(PHI0, D1, 2, "1", "0.5")
    with pytest.raises(ValueError):
        cei(1.5, "10")
    with pytest.raises(ValueError):
        time_factor("0.99")


@pytest.mark.parametrize("m", [2.5, 3.0, "3", mpf(3)])
def test_cost_and_comparison_ratio_take_an_integer_m_only(m):
    with mp.workdps(50):
        with pytest.raises(ValueError, match="dimension m must be an integer"):
            cost(PHI2, D2, m, "1", "2.5")
        with pytest.raises(ValueError, match="dimension m must be an integer"):
            comparison_ratio("g20", m, "1", "2.5")


@given(
    pair=st.sampled_from(sorted(COMPARISONS)),
    m=st.integers(2, 50),
    mu=st.floats(0, 300, exclude_min=True),
    ell=st.floats(1, 6),
)
@settings(max_examples=200, deadline=None)
def test_comparison_ratio_is_the_log_cost_balance(pair, m, mu, ell):
    (method_a, dd_a, rho_a), (method_b, dd_b, rho_b) = COMPARISONS[pair]
    with mp.workdps(50):
        c_a = cost(method_a, dd_a, m, mu, ell)
        c_b = cost(method_b, dd_b, m, mu, ell)
        want = mp.log(rho_a) * c_b / (mp.log(rho_b) * c_a)
        assert abs(comparison_ratio(pair, m, mu, ell) - want) <= mpf("1e-45") * want


@pytest.mark.parametrize("mu, ell", [("nan", "2.5"), ("inf", "2.5"), ("1", "nan"), ("1", "inf")])
def test_cost_rejects_non_finite_inputs(mu, ell):
    with mp.workdps(50):
        with pytest.raises(ValueError, match="finite"):
            cost(PHI0, D1, 2, mu, ell)
        with pytest.raises(ValueError, match="finite"):
            comparison_ratio("g20", 2, mu, ell)


def test_ratio_equality_at_dimension_two():
    with mp.workdps(50):
        assert abs(comparison_ratio("d2_phi1_phi0", 2, "7.25", "3") - 1) < mpf("1e-45")


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


@pytest.mark.parametrize(
    "call",
    [
        pytest.param(lambda name: comparison_ratio(name, 3, "1", "2.5"), id="comparison_ratio"),
        pytest.param(lambda name: classify_region(name, 3, "1", "2.5"), id="classify_region"),
        pytest.param(lambda name: boundary_g(name, 3, "2.5"), id="boundary_g"),
        pytest.param(asymptote_m, id="asymptote_m"),
    ],
)
@pytest.mark.parametrize("name", ["g99", "G20"])
def test_an_unknown_comparison_raises_value_error(call, name):
    # names are case-sensitive
    with mp.workdps(50), pytest.raises(ValueError, match=f"unknown comparison '{name}'"):
        call(name)


@pytest.mark.parametrize("which", ["g20", "g22", "g11"])
def test_boundary_rejects_ell_below_one(which):
    # the rule cost applies; m need only be positive, curves are drawn below 2
    with mp.workdps(50):
        with pytest.raises(ValueError, match="ell must be at least 1"):
            boundary_g(which, 4, "0.999")
        boundary_g(which, 4, "1")
        boundary_g(which, "0.5", "2.5")


@pytest.mark.parametrize("which", ["g20", "g22", "g11"])
@pytest.mark.parametrize("m, ell", [("0", "2.5"), ("-1", "2.5"), ("nan", "2.5"), ("inf", "2.5"), ("4", "nan")])
def test_boundary_rejects_non_finite_or_non_positive_inputs(which, m, ell):
    with mp.workdps(50):
        with pytest.raises(ValueError):
            boundary_g(which, m, ell)


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
        c1 = cost(PHI1, dd, m, mu, ell)
        c2 = cost(PHI2, dd, m, mu, ell)
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


@pytest.mark.parametrize("m", [2.5, 2.0, "2", 0, -1])
def test_estimate_mu_refuses_a_dimension_that_is_not_a_positive_integer(m):
    # 2.5 was priced as 1.2 per component, where cost refuses it
    with pytest.raises(ValueError, match=rf"at least 1, as an integer, got {m!r}"):
        estimate_mu({"product": 3}, m=m)


def test_estimate_mu_refuses_an_operation_without_a_price():
    # a bare KeyError: 'tan' named neither the problem nor the priced operations
    with pytest.raises(ValueError, match="no price for operation tan; priced are product, quotient"):
        estimate_mu({"tan": 1}, m=1)


@pytest.mark.parametrize("c", [0, "-1"])
def test_cei_refuses_a_cost_that_is_not_positive(c):
    with mp.workdps(50), pytest.raises(ValueError, match="cost must be positive"):
        cei(2, c)


@pytest.mark.parametrize("which", ["t3_phi1_phi0", "d1_phi2_phi0_degraded"])
def test_a_comparison_whose_gap_is_constant_has_no_asymptote(which):
    with mp.workdps(50), pytest.raises(ValueError, match=f"{which} has no vertical asymptote"):
        asymptote_m(which)


def test_cost_table_defaults():
    assert ELEMENTARY_COSTS["product"] == 1
    assert ELEMENTARY_COSTS["quotient"] == 2.5
    assert ELEMENTARY_COSTS["arctan"] == 228


def test_as_mpf_reads_floats_decimally():
    with mp.workdps(50):
        assert as_mpf(87.8) == mpf("87.8")
        assert 35 * as_mpf(87.8) == mpf("3073")
