"""Closed-form cost model, efficiency indices, and region comparisons.

Per-iteration cost is C = a(m) * mu + p(m, ell) in product units, where mu
prices one scalar-function evaluation and ell one quotient.  a(m) and
p = products + ell * quotients come from the priced view of the count table
in ``methods``, which departs from the measured view in two places, as the
paper does: phi0 is priced with d1's m(m + 2) evaluations under d2 too, and
d2's m^2 one-half products per build are left out.  The efficiency index
CEI = rho^(1/C) trades local order against cost; boundary curves in the
(m, mu) plane separate the regions where competing method/operator pairs
win.  Everything here is computed in the active mpmath precision so table
comparisons are exact rather than float-lucky.
"""
from __future__ import annotations

from typing import Mapping, Union

from mpmath import mp, mpf

from .core import SolverError, count_at, working_eps
from .divdiff import D1, D2, DividedDifferenceKind
from .methods import PHI0, PHI1, PHI2, PRICED_COUNTS, MethodKind, theoretical_order

Real = Union[int, float, str, mpf]


class PoleAtAsymptote(SolverError):
    """A boundary curve was evaluated at its vertical asymptote."""


def as_mpf(value: Real) -> mpf:
    """Convert to mpf, reading floats through their shortest decimal repr.

    Cost parameters like 87.8 are decimal by intent; going through repr()
    keeps 35 * 87.8 equal to 3073 exactly instead of picking up binary
    float dust.
    """
    if isinstance(value, float):
        return mpf(repr(value))
    return mpf(value)


# Cost of one elementary operation in product units (a product costs 1);
# ``estimate_mu`` prices an operation profile with it.
ELEMENTARY_COSTS: dict[str, float] = {
    "product": 1,
    "quotient": 2.5,
    "sqrt": 1.7,
    "exp": 87.8,
    "ln": 66,
    "sin": 116,
    "cos": 113,
    "arctan": 228,
}

# the quotient price ell that the benchmark harness and the CLI default to
DEFAULT_ELL = repr(ELEMENTARY_COSTS["quotient"])


def _cost_terms(method: MethodKind, dd_kind: DividedDifferenceKind, m: Real, ell: mpf) -> tuple:
    """(a(m), p(m, ell)) of the priced cost C = a(m) mu + p(m, ell)."""
    polys = PRICED_COUNTS[MethodKind(method), DividedDifferenceKind(dd_kind)]
    evals, products, quotients = (count_at(poly, m) for poly in polys)
    return evals, products + ell * quotients


def _check_domain(m: mpf, mu: mpf, ell: mpf) -> None:
    """Reject model inputs outside the domain: finite m > 0, finite mu > 0
    and finite ell >= 1."""
    if not (mp.isfinite(m) and m > 0):
        raise ValueError(f"dimension m must be finite and positive, not {m}")
    if not (mp.isfinite(mu) and mu > 0):
        raise ValueError(f"mu must be positive and finite, not {mu}")
    if not (mp.isfinite(ell) and ell >= 1):
        raise ValueError(f"ell must be at least 1 and finite, not {ell}")


def cost(method: MethodKind, dd_kind: DividedDifferenceKind, m: int, mu: Real, ell: Real) -> mpf:
    """Closed-form per-iteration cost C(mu, m, ell) in product units; m is an int >= 2."""
    if not isinstance(m, int):
        raise ValueError(f"dimension m must be an integer, not {m!r}")
    if m < 2:
        raise ValueError("cost model requires dimension m >= 2")
    mu_v, ell_v = as_mpf(mu), as_mpf(ell)
    _check_domain(as_mpf(m), mu_v, ell_v)
    evals, rest = _cost_terms(method, dd_kind, m, ell_v)
    return evals * mu_v + rest


def cei(rho: Real, c: Real) -> mpf:
    """Computational efficiency index rho^(1/C)."""
    rho_v = as_mpf(rho)
    c_v = as_mpf(c)
    if rho_v < 2:
        raise ValueError("order must be at least 2")
    if c_v <= 0:
        raise ValueError("cost must be positive")
    return mp.power(rho_v, 1 / c_v)


def time_factor(cei_value: Real) -> mpf:
    """Hardware-free runtime proxy 1 / log10(CEI)."""
    v = as_mpf(cei_value)
    if v <= 1:
        raise ValueError("CEI must exceed 1")
    return 1 / mp.log10(v)


# Named comparisons: the (method, operator) pair of each side, and whether
# the comparison is drawn for systems on which the one-sided operator keeps
# the design orders; elsewhere each side has its ``theoretical_order``.
_SIDES = {
    # design-order comparisons within the one-sided family
    "t3_phi2_phi1": ((PHI2, D1), (PHI1, D1), True),
    "t3_phi1_phi0": ((PHI1, D1), (PHI0, D1), True),
    # symmetrized-operator family
    "d2_phi2_phi1": ((PHI2, D2), (PHI1, D2), False),
    "d2_phi1_phi0": ((PHI1, D2), (PHI0, D1), False),
    # boundary-curve comparisons (degraded one-sided orders)
    "g20": ((PHI2, D2), (PHI0, D1), False),
    "g22": ((PHI2, D2), (PHI2, D1), False),
    "g11": ((PHI1, D2), (PHI1, D1), False),
    "d1_phi2_phi0_degraded": ((PHI2, D1), (PHI0, D1), False),
}

# (method, dd kind, local order) of each side of a named comparison
COMPARISONS: dict[str, tuple[tuple, tuple]] = {
    name: tuple(
        (method, dd, theoretical_order(method, D2 if keeps else dd)) for method, dd in (a, b)
    )
    for name, (a, b, keeps) in _SIDES.items()
}


def _sides(name: str) -> tuple:
    """(method, dd kind, log rho) of each side of a named comparison; an
    unknown name raises ValueError."""
    if name not in COMPARISONS:
        raise ValueError(f"unknown comparison {name!r}")
    return tuple((method, dd, mp.log(rho)) for method, dd, rho in COMPARISONS[name])


BOUNDARY_TOLERANCE = mpf("1e-12")


def comparison_ratio(pair: str, m: int, mu: Real, ell: Real) -> mpf:
    """Efficiency ratio log(CEI_a)/log(CEI_b) = log(rho_a) C_b / (log(rho_b) C_a)
    of a named comparison.

    Values above 1 mean the first pair is the more efficient one.  The orders
    are the local orders the two pairs attain on the systems the comparison
    is drawn for.  An unknown name raises ValueError.
    """
    (method_a, dd_a, log_a), (method_b, dd_b, log_b) = _sides(pair)
    c_a = cost(method_a, dd_a, m, mu, ell)
    c_b = cost(method_b, dd_b, m, mu, ell)
    return (log_a * c_b) / (log_b * c_a)


def classify_region(pair: str, m: int, mu: Real, ell: Real) -> str:
    """Which side of a named comparison wins at (m, mu, ell).

    Returns "first_wins", "second_wins", or "boundary" when the efficiency
    ratio sits within 1e-12 of 1.  An unknown name raises ValueError.
    """
    r = comparison_ratio(pair, m, mu, ell)
    if abs(r - 1) <= BOUNDARY_TOLERANCE:
        return "boundary"
    return "first_wins" if r > 1 else "second_wins"


def boundary_g(which: str, m: Real, ell: Real) -> mpf:
    """mu on the equal-efficiency boundary of a named comparison.

    The published curves are g20, g22 and g11: the sixth- and fourth-order
    symmetrized pairs against the base method and against their degraded
    one-sided counterparts.  The balance log(rho_a) C_b = log(rho_b) C_a is
    linear in mu: mu = (log(rho_b) p_a - log(rho_a) p_b) / gap with
    gap = log(rho_a) a_b - log(rho_b) a_a.  It checks ell as ``cost`` does,
    but takes any finite real m > 0: the curves are drawn below m = 2 too.
    Names are case-sensitive; an unknown one raises ValueError.
    """
    (method_a, dd_a, log_a), (method_b, dd_b, log_b) = _sides(which)
    m_v, ell_v = as_mpf(m), as_mpf(ell)
    _check_domain(m_v, mpf(1), ell_v)  # mu is what the curve solves for
    a_a, p_a = _cost_terms(method_a, dd_a, m_v, ell_v)
    a_b, p_b = _cost_terms(method_b, dd_b, m_v, ell_v)
    gap = log_a * a_b - log_b * a_a
    if abs(gap / m_v) < working_eps():
        raise PoleAtAsymptote(f"{which} evaluated at its vertical asymptote")
    return (log_b * p_a - log_a * p_b) / gap


def asymptote_m(which: str) -> mpf:
    """Vertical asymptote of a boundary curve: the root of its gap / m.

    a(m) = (c1 m + c2 m^2) / 6, so the gap of ``boundary_g`` divided by m is
    linear in m and its root has a closed form.  An unknown name raises
    ValueError.
    """
    (method_a, dd_a, log_a), (method_b, dd_b, log_b) = _sides(which)
    _, a1, a2, _ = PRICED_COUNTS[method_a, dd_a][0]
    _, b1, b2, _ = PRICED_COUNTS[method_b, dd_b][0]
    slope = log_a * b2 - log_b * a2
    if slope == 0:
        raise ValueError(f"{which} has no vertical asymptote")
    return (log_b * a1 - log_a * b1) / slope


def estimate_mu(profile: Mapping[str, int], m: int = 1) -> float:
    """Products-per-scalar-evaluation ratio from an operation profile.

    ``profile`` counts elementary operations in one full evaluation of F,
    each priced by ``ELEMENTARY_COSTS``; the total product-unit cost divided
    by m prices one scalar component.  An operation without a price raises
    ValueError.
    """
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"dimension must be at least 1, as an integer, got {m!r}")
    if any(count < 0 for count in profile.values()):
        raise ValueError("operation counts must be non-negative")
    unknown = sorted(set(profile) - set(ELEMENTARY_COSTS))
    if unknown:
        raise ValueError(
            f"no price for operation {', '.join(unknown)}; "
            f"priced are {', '.join(ELEMENTARY_COSTS)}"
        )
    total = sum(count * ELEMENTARY_COSTS[op] for op, count in profile.items())
    return total / m
