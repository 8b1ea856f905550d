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

from dataclasses import dataclass
from typing import Mapping, Union

from mpmath import mp, mpf

from .core import SolverError, working_eps
from .divdiff import DividedDifferenceKind
from .methods import PRICED_COUNTS, MethodKind, count_at

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


@dataclass(frozen=True)
class CostModel:
    """Parameters of one method/operator pair on an m-dimensional system."""

    m: int
    mu: Real
    ell: Real
    method: MethodKind
    dd_kind: DividedDifferenceKind

    def __post_init__(self) -> None:
        if self.m < 2:
            raise ValueError("cost model requires dimension m >= 2")
        if float(as_mpf(self.mu)) <= 0:
            raise ValueError("mu must be positive")
        if float(as_mpf(self.ell)) < 1:
            raise ValueError("ell must be at least 1")


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


def _cost_terms(method: MethodKind, dd_kind: DividedDifferenceKind, m: Real, ell: mpf) -> tuple:
    """(a(m), p(m, ell)) of the priced cost C = a(m) mu + p(m, ell)."""
    polys = PRICED_COUNTS[MethodKind(method), DividedDifferenceKind(dd_kind)]
    evals, products, quotients = (count_at(poly, m) for poly in polys)
    return evals, products + ell * quotients


def cost(model: CostModel) -> mpf:
    """Closed-form per-iteration cost C(mu, m, ell) in product units."""
    evals, rest = _cost_terms(model.method, model.dd_kind, model.m, as_mpf(model.ell))
    return evals * as_mpf(model.mu) + rest


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


def ratio(model_a: CostModel, model_b: CostModel, order_a: Real, order_b: Real) -> mpf:
    """Efficiency ratio log(CEI_a)/log(CEI_b) = log(rho_a) C_b / (log(rho_b) C_a).

    Values above 1 mean the first pair is the more efficient one.  The orders
    are the local orders the two pairs attain on the system at hand.
    """
    if (model_a.m, as_mpf(model_a.mu), as_mpf(model_a.ell)) != (
        model_b.m,
        as_mpf(model_b.mu),
        as_mpf(model_b.ell),
    ):
        raise ValueError("ratio requires both models to share (m, mu, ell)")
    rho_a, rho_b = as_mpf(order_a), as_mpf(order_b)
    return (mp.log(rho_a) * cost(model_b)) / (mp.log(rho_b) * cost(model_a))


# Named comparisons: (method, dd kind, local order) for each side.  The
# one-sided entries appear twice where it matters: with their design order
# (order-preserving systems) and with the degraded order 3 or 4.
COMPARISONS: dict[str, tuple[tuple, tuple]] = {
    # design-order comparisons within the one-sided family
    "t3_phi2_phi1": (
        (MethodKind.PHI2, DividedDifferenceKind.D1, 6),
        (MethodKind.PHI1, DividedDifferenceKind.D1, 4),
    ),
    "t3_phi1_phi0": (
        (MethodKind.PHI1, DividedDifferenceKind.D1, 4),
        (MethodKind.PHI0, DividedDifferenceKind.D1, 2),
    ),
    # symmetrized-operator family
    "d2_phi2_phi1": (
        (MethodKind.PHI2, DividedDifferenceKind.D2, 6),
        (MethodKind.PHI1, DividedDifferenceKind.D2, 4),
    ),
    "d2_phi1_phi0": (
        (MethodKind.PHI1, DividedDifferenceKind.D2, 4),
        (MethodKind.PHI0, DividedDifferenceKind.D1, 2),
    ),
    # boundary-curve comparisons (degraded one-sided orders)
    "g20": (
        (MethodKind.PHI2, DividedDifferenceKind.D2, 6),
        (MethodKind.PHI0, DividedDifferenceKind.D1, 2),
    ),
    "g22": (
        (MethodKind.PHI2, DividedDifferenceKind.D2, 6),
        (MethodKind.PHI2, DividedDifferenceKind.D1, 4),
    ),
    "g11": (
        (MethodKind.PHI1, DividedDifferenceKind.D2, 4),
        (MethodKind.PHI1, DividedDifferenceKind.D1, 3),
    ),
    "d1_phi2_phi0_degraded": (
        (MethodKind.PHI2, DividedDifferenceKind.D1, 4),
        (MethodKind.PHI0, DividedDifferenceKind.D1, 2),
    ),
}

BOUNDARY_TOLERANCE = mpf("1e-12")


def comparison_ratio(pair: str, m: int, mu: Real, ell: Real) -> mpf:
    spec_a, spec_b = COMPARISONS[pair]
    model_a = CostModel(m, mu, ell, spec_a[0], spec_a[1])
    model_b = CostModel(m, mu, ell, spec_b[0], spec_b[1])
    return ratio(model_a, model_b, order_a=spec_a[2], order_b=spec_b[2])


def classify_region(pair: str, m: int, mu: Real, ell: Real) -> str:
    """Which side of a named comparison wins at (m, mu, ell).

    Returns "first_wins", "second_wins", or "boundary" when the efficiency
    ratio sits within 1e-12 of 1.
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
    gap = log(rho_a) a_b - log(rho_b) a_a.  Like ``CostModel``, it rejects
    ell < 1.
    """
    which = which.lower()
    if which not in COMPARISONS:
        raise ValueError(f"unknown boundary curve {which!r}")
    (method_a, dd_a, rho_a), (method_b, dd_b, rho_b) = COMPARISONS[which]
    m_v, ell_v = as_mpf(m), as_mpf(ell)
    if ell_v < 1:
        raise ValueError("ell must be at least 1")
    log_a, log_b = mp.log(rho_a), mp.log(rho_b)
    a_a, p_a = _cost_terms(method_a, dd_a, m_v, ell_v)
    a_b, p_b = _cost_terms(method_b, dd_b, m_v, ell_v)
    gap = log_a * a_b - log_b * a_a
    if abs(gap / m_v) < working_eps():
        raise PoleAtAsymptote(f"{which} evaluated at its vertical asymptote")
    return (log_b * p_a - log_a * p_b) / gap


def asymptote_m(which: str) -> mpf:
    """Vertical asymptote of a boundary curve: the root of its gap / m.

    a(m) = (c1 m + c2 m^2) / 6, so the gap of ``boundary_g`` divided by m is
    linear in m and its root has a closed form.
    """
    (method_a, dd_a, rho_a), (method_b, dd_b, rho_b) = COMPARISONS[which.lower()]
    _, a1, a2, _ = PRICED_COUNTS[method_a, dd_a][0]
    _, b1, b2, _ = PRICED_COUNTS[method_b, dd_b][0]
    log_a, log_b = mp.log(rho_a), mp.log(rho_b)
    slope = log_a * b2 - log_b * a2
    if slope == 0:
        raise ValueError(f"{which} has no vertical asymptote")
    return (log_b * a1 - log_a * b1) / slope


def estimate_mu(profile: Mapping[str, int], m: int = 1) -> float:
    """Products-per-scalar-evaluation ratio from an operation profile.

    ``profile`` counts elementary operations in one full evaluation of F,
    each priced by ``ELEMENTARY_COSTS``; the total product-unit cost divided
    by m prices one scalar component.
    """
    if m < 1:
        raise ValueError("dimension must be at least 1")
    if any(count < 0 for count in profile.values()):
        raise ValueError("operation counts must be non-negative")
    total = sum(count * ELEMENTARY_COSTS[op] for op, count in profile.items())
    return total / m
