"""Root-free convergence-order estimation and accuracy diagnostics."""
from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from mpmath import mp, mpf

from .core import HPVector, SolverError, inf_norm

if TYPE_CHECKING:  # pragma: no cover
    from .methods import IterationTrace


class InsufficientTrace(SolverError):
    """Too few iterates to estimate the convergence order."""


class NonContractingTrace(SolverError):
    """A correction ratio used by the estimator lies outside (0, 1)."""


class MissingReferenceRoot(SolverError):
    """Accuracy diagnostics require a reference root."""


@dataclass(frozen=True)
class OrderEstimate:
    """Estimated local convergence order from consecutive correction ratios.

    ``spread`` is the gap to the estimate one iteration earlier, an informal
    stability indicator only (it is not an error bound); None when the trace
    is too short to form a second estimate.
    """

    rho_hat: mpf
    spread: Optional[mpf] = None


def acoc(trace: "IterationTrace") -> OrderEstimate:
    """Estimate the convergence order as ln(E_last) / ln(E_prev).

    Uses the final two correction-norm ratios of the trace, which must both
    lie strictly inside (0, 1).  Needs at least four iterates (three
    correction norms).
    """
    ratios = trace.ratios
    if len(trace.iterates) < 4 or len(ratios) < 2:
        raise InsufficientTrace(
            f"need at least 4 iterates, trace has {len(trace.iterates)}"
        )
    e_prev, e_last = ratios[-2], ratios[-1]
    one = mpf(1)
    if not (0 < e_prev < one) or not (0 < e_last < one):
        raise NonContractingTrace(
            "final correction ratios must lie in (0, 1) to estimate an order"
        )
    value = mp.log(e_last) / mp.log(e_prev)
    spread = None
    if len(ratios) >= 3 and 0 < ratios[-3] < one:
        earlier = mp.log(e_prev) / mp.log(ratios[-3])
        spread = abs(value - earlier)
    return OrderEstimate(value, spread)


def eta(rho: float, epsilon_digits: int) -> float:
    """Digit threshold (rho - 1) / rho^2 * epsilon for root-free stopping."""
    if rho < 2:
        raise ValueError("order must be at least 2")
    if epsilon_digits < 32:
        raise ValueError("need at least 32 working digits")
    return (rho - 1) / rho**2 * epsilon_digits


def correct_decimals(x: HPVector, alpha_ref: Optional[HPVector]) -> int:
    """Number of correct decimals of x against a reference root.

    Computed as floor(-log10 ||x - alpha||_inf), floored at 0 and capped at
    the working precision when the difference vanishes.  The reference must
    be at least as accurate as the working precision.  The logarithm is
    taken at 30 digits, and again at the working precision when that value
    lies within 1e-20 of an integer, so the floor is the working-precision
    one.
    """
    if alpha_ref is None:
        raise MissingReferenceRoot("no reference root available")
    diff = inf_norm(x - alpha_ref)
    if diff == 0:
        return mp.dps
    with mp.workdps(30):
        digits = -mp.log10(diff)
        near_integer = abs(digits - mp.nint(digits)) < mpf("1e-20")
    if near_integer:
        digits = -mp.log10(diff)
    return max(int(mp.floor(digits)), 0)
