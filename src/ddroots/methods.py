"""Derivative-free iteration engines of local order 2, 4 and 6.

The base step replaces the Jacobian with a central divided difference on
(x - F(x), x + F(x)).  The higher-order steps share one combined operator
factorization, which is what makes the marginal cost of the third step a
single residual evaluation plus a triangular-pair solve.
"""
from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional

from mpmath import mp, mpf

from .convergence import acoc as _acoc
from .convergence import correct_decimals as _correct_decimals
from .convergence import eta as _eta
from .core import (
    FACTOR_COUNTS,
    SOLVE_COUNTS,
    HPMatrix,
    HPVector,
    LUFactorization,
    OpCounters,
    PrecisionContext,
    SingularOperator,
    SolverError,
    count_at,
    inf_norm,
    lu_factor,
    lu_solve,
    mat_entrywise,
)
from .divdiff import (
    D1,
    D2,
    OPERATOR_COUNTS,
    RESIDUAL_COUNTS,
    DegenerateDividedDifference,
    DividedDifferenceKind,
    NonlinearSystem,
    central_dd,
    operator_for,
)


class MaxIterationsExceeded(SolverError):
    """The iteration diverged, cycled, stalled away from a root, or ran out of
    its iteration budget."""


class PrecisionChanged(SolverError):
    """Something else changed mpmath's shared precision during an outer step."""


class MethodKind(str, enum.Enum):
    """The three iteration engines, by number of correction steps."""

    PHI0 = "phi0"
    PHI1 = "phi1"
    PHI2 = "phi2"


PHI0, PHI1, PHI2 = MethodKind.PHI0, MethodKind.PHI1, MethodKind.PHI2

_ORDERS = {PHI0: {D1: 2, D2: 2}, PHI1: {D1: 3, D2: 4}, PHI2: {D1: 4, D2: 6}}


def theoretical_order(method: MethodKind, dd_kind: DividedDifferenceKind) -> int:
    """Guaranteed local order of a (method, operator) pair.

    The one-sided operator only matches the Jacobian to first order in the
    step, which costs the two- and three-step methods one and two orders on
    systems with nonvanishing mixed second derivatives; the symmetrized
    operator preserves the design orders 2 / 4 / 6.
    """
    return _ORDERS[MethodKind(method)][DividedDifferenceKind(dd_kind)]


# How many of each count-table unit one outer iteration charges: fresh
# operator builds, supplied builds, residuals, factorizations and
# triangular-pair solves.  The units are written beside the routines that
# charge them, in ``core`` and ``divdiff``.
_METHOD_STEPS = {
    PHI0: (1, 0, 1, 1, 1),
    PHI1: (1, 1, 2, 2, 2),
    PHI2: (1, 1, 3, 2, 3),
}


def _measured(method: MethodKind, dd_kind: DividedDifferenceKind) -> tuple:
    """(evals, products, quotients) coefficients of one outer iteration."""
    units = OPERATOR_COUNTS[dd_kind] + (RESIDUAL_COUNTS, FACTOR_COUNTS, SOLVE_COUNTS)
    weighted = tuple(zip(_METHOD_STEPS[method], units))
    return tuple(
        tuple(sum(n * u[j][k] for n, u in weighted if k < len(u[j])) for k in range(4))
        for j in range(3)
    )


# The measured view: (evals, products, quotients) that one outer iteration
# of solve spends, per (method, operator) pair.
MEASURED_COUNTS = {
    (method, dd_kind): _measured(method, dd_kind)
    for method in MethodKind
    for dd_kind in DividedDifferenceKind
}

# The priced view: (a(m), products, quotients) as the cost model
# C = a(m) mu + p(m, ell) charges them.  The paper prices the base method
# with the one-sided operator's m(m + 2) evaluations whichever operator it
# uses, and leaves the symmetrized operator's m^2 one-half products per build
# out of the products, so its products and quotients are the one-sided ones.
PRICED_COUNTS = {
    (method, dd_kind): (
        MEASURED_COUNTS[method, D1 if method is PHI0 else dd_kind][0],
        *MEASURED_COUNTS[method, D1][1:],
    )
    for method, dd_kind in MEASURED_COUNTS
}


def expected_iteration_counts(
    method: MethodKind, dd_kind: DividedDifferenceKind, m: int
) -> tuple[int, int, int]:
    """(scalar evals, products, quotients) one outer iteration must cost: the
    measured view of the count table at dimension m."""
    polys = MEASURED_COUNTS[MethodKind(method), DividedDifferenceKind(dd_kind)]
    return tuple(count_at(poly, m) for poly in polys)


@dataclass(frozen=True)
class IterationTrace:
    """Raw solve history: iterates, correction norms, ratios, counters.

    ``correction_norms[k]`` is ||x_{k+1} - x_k||_inf, ``ratios[k]`` the
    quotient of consecutive correction norms, ``counter_deltas[k]`` the
    (evals, products, quotients) spent by outer iteration k + 1, and
    ``working_digits[k]`` the decimal precision that iteration ran at.  A
    run that ends inside an iteration, on a phi1 or phi2 first step that
    lands on a root, keeps that step's result as its last iterate, without
    a counter delta or working digits for the unfinished iteration.
    """

    iterates: tuple
    correction_norms: tuple
    ratios: tuple
    counter_deltas: tuple
    working_digits: tuple = ()

    def __post_init__(self) -> None:
        if len(self.correction_norms) != max(len(self.iterates) - 1, 0):
            raise ValueError("one correction norm per computed iterate required")
        if len(self.ratios) != max(len(self.iterates) - 2, 0):
            raise ValueError("ratios must have two fewer entries than iterates")


@dataclass(frozen=True)
class SolveReport:
    """Outcome of a solve, including the full trace for diagnostics."""

    iterations: int
    final_iterate: HPVector
    trace: IterationTrace
    counters: OpCounters
    eta_used: float
    stop_reason: str
    acoc: Optional[mpf] = None
    acoc_spread: Optional[mpf] = None
    correct_decimals: Optional[int] = None


def step_phi0(
    system: NonlinearSystem,
    x: HPVector,
    dd_kind: DividedDifferenceKind,
    counters: OpCounters,
) -> tuple[HPVector, HPMatrix, HPVector]:
    """Newton-like step with the central divided difference.

    Returns the new iterate together with the central operator and F(x),
    both of which the higher-order steps reuse.
    """
    op, fx = central_dd(system, x, dd_kind, counters)
    correction = lu_solve(lu_factor(op, counters), fx, counters)
    return x - correction, op, fx


def step_phi1(
    system: NonlinearSystem,
    x: HPVector,
    y: HPVector,
    central: HPMatrix,
    fx: HPVector,
    dd_kind: DividedDifferenceKind,
    counters: OpCounters,
) -> tuple[HPVector, LUFactorization]:
    """Correction step z = y - M^{-1} F(y), M = 2 (dd on the iterate pair) - central.

    The iterate-pair operator is oriented from the newer iterate back to x,
    mirroring the central operator's orientation; for the one-sided kind the
    two orientations differ in second-order terms and this is the one the
    published accuracy columns pin down.  F(x) and F(y) are supplied to the
    build so only mixed-coordinate points cost fresh evaluations.  Returns z
    and the factorization of M, which the third step reuses verbatim.  A
    pair that coincides in a coordinate raises DegenerateDividedDifference
    carrying y and F(y), so a caller can tell whether y is a root.
    """
    fy = system.eval(y, counters)
    try:
        op_pair = operator_for(dd_kind)(system, x, y, counters, ends=(fy, fx))
    except DegenerateDividedDifference as exc:
        exc.residual, exc.point = fy, y
        raise
    # doubling is a shift-add, not a counted product; two zeros give a zero
    combined = mat_entrywise(lambda b, a: 2 * b - a if b or a else a, op_pair, central)
    fact_nu = lu_factor(combined, counters)
    correction = lu_solve(fact_nu, fy, counters)
    return y - correction, fact_nu


def step_phi2(
    system: NonlinearSystem,
    z: HPVector,
    fact_nu: LUFactorization,
    counters: OpCounters,
) -> HPVector:
    """Extra correction X = z - M^{-1} F(z) reusing the second-step factorization.

    Marginal cost per iteration: one ``RESIDUAL_COUNTS`` and one
    ``SOLVE_COUNTS``.
    """
    fz = system.eval(z, counters)
    correction = lu_solve(fact_nu, fz, counters)
    return z - correction


def _outer_step(
    system: NonlinearSystem,
    x: HPVector,
    method: MethodKind,
    dd_kind: DividedDifferenceKind,
    counters: OpCounters,
) -> tuple[HPVector, HPVector]:
    """The next iterate, and F(x)."""
    y, central, fx = step_phi0(system, x, dd_kind, counters)
    if method is PHI0:
        return y, fx
    z, fact_nu = step_phi1(system, x, y, central, fx, dd_kind, counters)
    if method is PHI1:
        return z, fx
    return step_phi2(system, z, fact_nu, counters), fx


# Precision ramp.  After a correction of norm 10^(-D) the current iterate is
# about rho*D digits from the root, so the next outer step only needs about
# rho^2*D digits to land where its order puts it (Newton's method with
# increasing precision; Brent & Zimmermann, Modern Computer Arithmetic, ch. 4).
# The margin must be multiplicative: where the error constants are below one
# the iterates hold more than rho^2*D digits, by an excess that grows with D.
# With an additive 32-digit guard alone, quad2 phi2/d2 at 4096 digits ran
# iteration 3 at 2384 digits for an iterate that holds 2391, and q fell from
# 2391 to 2377.  The additive guard covers the rounding the ramped iterates
# pass on to the final one: with 32 digits, quad2 phi2/d2's final iterate
# matched a fixed-precision run to q + 8 decimals; with 40, every registered
# row matches beyond q + 10 at 1024 and 4096 digits.
_RAMP_FACTOR = 1.25
_RAMP_GUARD_DIGITS = 40
# Iteration 1 runs at these digits, and x_1 is kept only if its own
# correction shows they held what x_1 needs (see ``solve``).
_FIRST_STEP_DIGITS = 2 * _RAMP_GUARD_DIGITS
_LOG10_2 = math.log10(2)


def _ramp_digits(power: float, correction: mpf, x: HPVector, full: int) -> int:
    """Working digits for an error of 10^(-power D) after a correction of
    norm 10^(-D) that ended at x: with power rho, the digits x itself needs,
    which the step that produced it must have carried; with rho^2, those of
    the next outer step from x.

    D counts the correction's digits relative to ||x|| (absolutely while
    ||x|| < 4): the working precision is relative, and absolute digits would
    starve an iterate of large magnitude, whose ratios then stop hundreds of
    digits short of the target.
    """
    # log2(v) < mag(v) <= log2(v) + 1, so D is rounded down, by under 3 bits
    scale = max(max(mp.mag(e) for e in x) - 2, 0)
    digits = max((scale - mp.mag(correction)) * _LOG10_2, 0.0)
    return min(full, math.ceil(_RAMP_FACTOR * power * digits) + _RAMP_GUARD_DIGITS)


def solve(
    system: NonlinearSystem,
    x0: HPVector,
    method: MethodKind,
    dd_kind: DividedDifferenceKind,
    ctx: PrecisionContext,
    max_iters: int = 200,
    order_hint: Optional[float] = None,
    eta_override: Optional[float] = None,
) -> SolveReport:
    """Iterate the chosen method from x0 until the correction ratios collapse.

    Stopping is root-free: with corrections e_k = x_k - x_{k-1} and ratios
    E_k = ||e_k|| / ||e_{k-1}||, the run ends at the first iteration whose
    ratio drops to 0.5 * 10^(-eta), eta = (rho - 1) / rho^2 * digits.  That
    final iteration only confirms that its predecessor had converged, so the
    report counts the iterations up to the confirmed iterate and returns it;
    the trace keeps the confirming step for order estimation.

    Iteration 1 runs at min(``ctx.digits``, 80) digits; every later one runs
    at the digits its result can hold, rho^2 times those of the latest
    correction plus a margin, capped at ``ctx.digits``.  Correction norms
    and ratios are computed at ``ctx.digits``; the threshold, ACOC and
    correct decimals only carry the few digits they report, so they are
    computed at 30, 60 and 30 digits (correct decimals at ``ctx.digits``
    when -log10 of the error lies within 1e-20 of an integer).  A step that
    finds ``mp.prec`` changed by something else raises PrecisionChanged.

    ``order_hint`` overrides the order used for eta and the ramp (systems
    whose mixed second derivatives vanish keep the design orders even with
    the one-sided operator); ``eta_override`` pins eta directly.  ValueError
    refuses an x0 whose length is not the system's dimension or with an
    entry that is not finite, an order that is not finite and at least 2,
    and an ``eta_override`` that is not finite and positive; a step whose
    correction norm is not finite raises MaxIterationsExceeded.  A
    degenerate divided difference at x ends the run as ``residual_underflow``
    if ||F(x)||_inf <= ``ctx.check_tolerance`` and is raised otherwise, with
    that norm; so does a degenerate iterate pair (x, y) in phi1 and phi2,
    judged by ||F(y)||_inf, and y is then the final iterate.  A ``ratio`` or
    ``exact_repeat`` stop at an iterate whose ||F||_inf is not below
    10^(-eta) max(1, ||F(x_0)||_inf) raises MaxIterationsExceeded: one
    coordinate stalled.

    One rule covers the ramp's failures.  An underflow, an exact repeat or
    a singular operator decides the run only in a step that ran at
    ``ctx.digits`` from x_0 or from an iterate computed at ``ctx.digits``.
    Met in any other step it says nothing about the target epsilon, and the
    solve starts over from x_0 at ``ctx.digits``; so does iteration 1 when
    its correction of norm 10^(-D_0) shows that its digits could not hold
    the rho D_0 digits of x_1 with the ramp's margin.  A start-over from a
    failed iteration 1 keeps the ramp, since nothing was kept yet; any other
    runs every iteration at ``ctx.digits``, as a fixed-precision solve does.
    Aborted attempts count in ``counters`` but have no counter delta.
    Three consecutive ratios of at least 1 raise MaxIterationsExceeded.
    """
    method = MethodKind(method)
    dd_kind = DividedDifferenceKind(dd_kind)
    if max_iters < 2:
        raise ValueError("max_iters must be at least 2")
    counters = OpCounters()
    full = ctx.digits
    with ctx.activate():
        rho = order_hint if order_hint is not None else theoretical_order(method, dd_kind)
        eta_used = _eta(rho, full)  # refuses an order that is not finite and >= 2
        if eta_override is not None:
            eta_used = float(eta_override)
            if not 0 < eta_used < math.inf:
                raise ValueError(f"eta_override must be positive and finite, not {eta_override}")
        # the threshold only has to order the ratios, not carry the target
        with mp.workdps(30):
            threshold = mpf("0.5") * mpf(10) ** (-mpf(eta_used))
        start = HPVector(x0)
        if len(start) != system.m:
            raise ValueError(
                f"x0 has {len(start)} entries but the system has dimension {system.m}"
            )
        if not all(mp.isfinite(e) for e in start):
            raise ValueError(f"x0 must be finite, not {start}")
        iterates = [start]
        corr_norms: list = []
        ratios: list = []
        deltas: list = []
        working: list = []
        stop_reason = None
        ramping = True
        start_digits = min(full, _FIRST_STEP_DIGITS)
        while len(corr_norms) < max_iters:
            x = iterates[-1]
            if not corr_norms:
                digits = start_digits
            elif ramping:
                digits = _ramp_digits(rho * rho, corr_norms[-1], x, full)
            else:
                digits = full
            # a step below full precision, or from an iterate computed there
            partial = digits < full or bool(working) and working[-1] < full
            before = counters.snapshot()
            try:
                with mp.workdps(digits):
                    prec = mp.prec
                    try:
                        x_next, fx = _outer_step(system, x, method, dd_kind, counters)
                    finally:
                        if mp.prec != prec:
                            raise PrecisionChanged(
                                f"mp.prec was {prec} when outer step {len(corr_norms) + 1} "
                                f"began and {mp.prec} when it ended"
                            )
            except (DegenerateDividedDifference, SingularOperator) as exc:
                # a partial step says nothing about the target
                redo = partial
                if not redo:
                    if isinstance(exc, SingularOperator):
                        raise
                    norm = inf_norm(exc.residual)
                    if norm > ctx.check_tolerance:
                        where = "" if exc.point is None else "the first step from "
                        err = DegenerateDividedDifference(
                            f"{exc} at {where}x_{len(corr_norms)}, but ||F||_inf = "
                            f"{mp.nstr(norm, 8)} is above the check tolerance"
                        )
                        err.residual, err.point = exc.residual, exc.point
                        raise err from exc
                    if exc.point is not None:
                        # the first step landed on a root: it is the final iterate
                        iterates.append(exc.point)
                        corr_norms.append(inf_norm(exc.point - x))
                        if len(corr_norms) >= 2:
                            ratios.append(corr_norms[-1] / corr_norms[-2])
                    stop_reason = "residual_underflow"
                    break
            else:
                c = inf_norm(x_next - x)
                if not mp.isfinite(c):
                    raise MaxIterationsExceeded(
                        f"outer step {len(corr_norms) + 1} gave a correction of norm {c}"
                    )
                # an exact repeat, or a first step whose digits could not
                # hold the rho D_0 digits x_1 has after a correction of 10^-D_0
                redo = partial and (
                    c == 0 or not corr_norms and _ramp_digits(rho, c, x_next, full) > digits
                )
            if redo:
                # start over from x_0 at full precision; only a failed
                # iteration 1 keeps the ramp, since nothing was kept yet
                ramping = not corr_norms
                start_digits = full
                del iterates[1:], corr_norms[:], ratios[:], deltas[:], working[:]
                continue
            if not corr_norms:  # F(x_0) sets the scale of the stall test
                f0_scale = max(mpf(1), inf_norm(fx))
            deltas.append(tuple(a - b for a, b in zip(counters.snapshot(), before)))
            working.append(digits)
            iterates.append(x_next)
            corr_norms.append(c)
            if len(corr_norms) >= 2:
                ratios.append(c / corr_norms[-2])
            if c == 0:
                stop_reason = "exact_repeat"
                break
            if ratios and ratios[-1] <= threshold:
                stop_reason = "ratio"
                break
            if len(ratios) >= 3 and min(ratios[-3:]) >= 1:
                raise MaxIterationsExceeded(
                    "correction norms failed to contract for 3 consecutive iterations"
                )
        if stop_reason is None:
            raise MaxIterationsExceeded(
                f"no convergence within {max_iters} iterations "
                f"(last ratio {mp.nstr(ratios[-1], 8) if ratios else 'n/a'})"
            )
        # a ratio stop's last iteration only confirmed its predecessor
        iterations = len(iterates) - (2 if stop_reason == "ratio" else 1)
        final = iterates[iterations]
        # the last step started from final (or from its exact repeat):
        # corrections also collapse when one coordinate stalls away from the
        # root, its operator column too large to move it
        if stop_reason != "residual_underflow":
            bound = 2 * threshold * f0_scale  # 2 * threshold = 10^-eta, at 30 digits
            if inf_norm(fx) >= bound:
                raise MaxIterationsExceeded(
                    f"the corrections collapsed at x_{iterations}, but ||F||_inf = "
                    f"{mp.nstr(inf_norm(fx), 8)} is not below {mp.nstr(bound, 8)}: "
                    "a coordinate stalled"
                )
        trace = IterationTrace(
            iterates=tuple(iterates),
            correction_norms=tuple(corr_norms),
            ratios=tuple(ratios),
            counter_deltas=tuple(deltas),
            working_digits=tuple(working),
        )
        try:
            # reported to 12 digits, its spread to 6
            with mp.workdps(60):
                estimate = _acoc(trace)
        except SolverError:
            estimate = None
        q = None
        if system.reference_root is not None:
            q = _correct_decimals(final, system.reference_root)
        return SolveReport(
            iterations=iterations,
            final_iterate=final,
            trace=trace,
            counters=counters,
            eta_used=eta_used,
            stop_reason=stop_reason,
            acoc=estimate.rho_hat if estimate else None,
            acoc_spread=estimate.spread if estimate else None,
            correct_decimals=q,
        )
