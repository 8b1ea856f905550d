"""Derivative-free iteration engines of local order 2, 4 and 6.

The base step replaces the Jacobian with a central divided difference on
(x - F(x), x + F(x)).  The higher-order steps share one combined operator
factorization, which is what makes the marginal cost of the third step a
single residual evaluation plus a triangular-pair solve.
"""
from __future__ import annotations

import enum
import math
import operator
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
# triangular-pair solves; ``_outer_step`` runs one correction per solve after
# the first.  The units are written beside the routines that charge them, in
# ``core`` and ``divdiff``.
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
    ``working_digits[k]`` the decimal precision that iteration ran at, and
    ``lu_digits[k]`` the one its factorizations and triangular solves ran
    at.  A run that ends inside an iteration, on a phi1 or phi2 first step
    that lands on a root, keeps that step's result as its last iterate,
    without a counter delta or digits for the unfinished iteration.
    """

    iterates: tuple
    correction_norms: tuple
    ratios: tuple
    counter_deltas: tuple
    working_digits: tuple = ()
    lu_digits: tuple = ()

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


def _corrected(
    x: HPVector,
    fact: LUFactorization,
    b: HPVector,
    counters: OpCounters,
) -> HPVector:
    """x - s, for the s that solves A s = b from A's factorization ``fact``,
    with the solve at the precision ``fact`` was factored at and the
    difference at the active precision.

    Factored at L digits below the active P, an s of norm 10^(-D) relative
    to x, D as ``_correction_digits`` counts it, is accurate to about the
    last P - (D + L) digits of x, less the digits that the magnitudes of
    ``fact``'s pivots span (a cheap estimate of the operator's condition):
    a solve that leaves fewer than ``_LU_MIN_GUARD_DIGITS`` of those raises
    SingularOperator, as the operator is then numerically singular at the
    digits the correction needs.
    """
    s = lu_solve(fact, b, counters)
    if fact.prec < mp.prec:
        with mp.workprec(fact.prec):
            lu_digits = mp.dps
        pivots = [mp.mag(pivot) for pivot in fact.pivots]
        span = (max(pivots) - min(pivots)) * _LOG10_2
        guard = _correction_digits(inf_norm(s), x) + lu_digits - mp.dps - span
        if guard < _LU_MIN_GUARD_DIGITS:
            raise SingularOperator(
                f"a solve at {lu_digits} of {mp.dps} digits, with pivots spanning "
                f"10^{span:.0f}, left {guard:.0f} guard digits below its correction"
            )
    return x - s


def _factored(a: HPMatrix, counters: OpCounters, lu_digits: int) -> LUFactorization:
    """``a``'s factorization at ``lu_digits``, or at the active precision
    when that holds fewer digits."""
    if lu_digits >= mp.dps:
        return lu_factor(a, counters)
    with mp.workdps(lu_digits):
        return lu_factor(a, counters)


def _outer_step(
    system: NonlinearSystem,
    x: HPVector,
    method: MethodKind,
    dd_kind: DividedDifferenceKind,
    counters: OpCounters,
    lu_digits: int,
) -> tuple[HPVector, HPVector]:
    """One outer iteration of ``method`` from x: the next iterate, and F(x).

    y = x - A^{-1} F(x), with A and F(x) from ``central_dd``.  A is built on
    (x - F(x), x + F(x)) in that order: the one-sided operator is not
    symmetric in its arguments, and this orientation is the one the
    published iteration counts pin down.  phi1 and phi2 then factor
    M = 2 [y, x; F] - A once and run the ``_METHOD_STEPS`` row's solves
    less one corrections z <- z - M^{-1} F(z) from z = y, the first reusing
    F(y).  [y, x; F] runs from y back to x, mirroring A; for the one-sided
    kind the two orientations differ in second-order terms, and this is the
    one the published accuracy columns pin down.  It takes F(y) and F(x) as
    ends with their read sets, so only points that a changed coordinate
    reaches cost fresh evaluations; a pair that coincides in a coordinate
    raises DegenerateDividedDifference carrying y and F(y), so a caller can
    tell whether y is a root.  Evaluations, operators, 2b - a and each
    z - correction run at the active precision, every factorization and
    solve at ``lu_digits`` when it is below it; there a solve that does not
    resolve its correction raises SingularOperator (see ``_corrected``).
    """
    central, fx = central_dd(system, x, dd_kind, counters)
    y = _corrected(x, _factored(central, counters, lu_digits), fx, counters)
    corrections = _METHOD_STEPS[method][4] - 1
    if not corrections:
        return y, fx
    fy = system.eval(y, counters)
    try:
        pair = operator_for(dd_kind)(system, x, y, counters, ends=(fy, fx))
    except DegenerateDividedDifference as exc:
        exc.residual, exc.point = fy, y
        raise
    # doubling is a shift-add, not a counted product
    fact = _factored(mat_entrywise(lambda b, a: 2 * b - a, pair, central), counters, lu_digits)
    z = _corrected(y, fact, fy, counters)
    for _ in range(corrections - 1):
        z = _corrected(z, fact, system.eval(z, counters), counters)
    return z, fx


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
# A step predicted to confirm the stop runs this many digits above the
# ramp's 1.25 rho D for the correction it should resolve, and is kept only
# if that correction is resolved with as many to spare.  With 40, the full
# ACOC moved in 10 of the 72 registered solves at 128-4096 digits, and
# cos3 phi1/d1's prediction at 4096 digits ran at 3227, where F(x_8) is
# about 1e-3228 and the probe pair coincided.
_CONFIRM_GUARD_DIGITS = 2 * _RAMP_GUARD_DIGITS
# A step's factorizations and triangular solves run at the digits its
# correction changes plus this guard: at P digits, after a correction of
# norm 10^(-D), the next correction is about 10^(-rho D) and changes only
# the last P - rho D digits of x (Brent & Zimmermann, ch. 4; Higham,
# Accuracy and Stability of Numerical Algorithms, ch. 12).  A solve that
# leaves fewer than ``_LU_MIN_GUARD_DIGITS`` of the guard, less the digits
# its pivots span, is run again at P (see ``_corrected``); with the span
# left out of that test, two solves of a 2x2 system whose pivots span
# 10^20, stalled at the noise floor, moved bits.
_LU_GUARD_DIGITS = 2 * _RAMP_GUARD_DIGITS
_LU_MIN_GUARD_DIGITS = 20
_LOG10_2 = math.log10(2)


def _correction_digits(correction: mpf, x: HPVector) -> float:
    """D for a correction of norm 10^(-D) that ended at x.

    D counts the correction's digits relative to ||x|| (absolutely while
    ||x|| < 4): the working precision is relative, and absolute digits would
    starve an iterate of large magnitude, whose ratios then stop hundreds of
    digits short of the target.
    """
    # log2(v) < mag(v) <= log2(v) + 1, so D is rounded down, by under 3 bits
    scale = max(max(mp.mag(e) for e in x) - 2, 0)
    return max((scale - mp.mag(correction)) * _LOG10_2, 0.0)


def _plan(
    rho: float, eta: float, correction: mpf, x: HPVector, full: int, ramping: bool
) -> tuple[int, int, Optional[tuple[int, int]]]:
    """(digits, lu_digits, fallback) for the step after a correction of norm
    10^(-D) that ended at x, D as ``_correction_digits`` counts it.

    x holds about rho D digits, so the next correction is about 10^(-rho D).
    While ``ramping``, the step runs at the ceil(1.25 rho^2 D) + 40 digits
    its result can hold, capped at ``full``; otherwise at ``full``.  Once
    (rho - 1) D >= eta, the next ratio, about 10^(-(rho - 1) D), should
    reach the threshold, and the step predicted to confirm the stop only
    has to resolve its correction: while ramping it runs at
    ceil(1.25 rho D) + ``_CONFIRM_GUARD_DIGITS`` when that is fewer, and
    ``fallback`` holds the ramp's (digits, lu_digits) to run it again at;
    it is None otherwise.  A step at P digits factors and solves at the
    P - rho D digits its correction changes plus ``_LU_GUARD_DIGITS``,
    capped at P.
    """
    d = _correction_digits(correction, x)

    def lu(digits: int) -> int:
        return min(digits, max(math.ceil(digits - rho * d), 0) + _LU_GUARD_DIGITS)

    if not ramping:
        return full, lu(full), None
    digits = min(full, math.ceil(_RAMP_FACTOR * (rho * rho) * d) + _RAMP_GUARD_DIGITS)
    confirming = math.ceil(_RAMP_FACTOR * rho * d) + _CONFIRM_GUARD_DIGITS
    if (rho - 1) * d >= eta and confirming < digits:
        return confirming, lu(confirming), (digits, lu(digits))
    return digits, lu(digits), None


def _newton_size(system: NonlinearSystem, p: HPVector, fp: HPVector) -> mpf:
    """||s||_inf / max(1, ||p||_inf) for the step s that solves
    D s = F(p), with D the one-sided operator on (p + h, p),
    h_i = sqrt(eps) max(1, |p_i|) and eps mpmath's machine epsilon, charged
    to no solve's counters.

    A degenerate stop with a small F(p) is a root only if this step is small
    too: F scaled by 1e-300 is small everywhere, and its probe pair
    p -/+ F(p) coincides far from any root.
    """
    scratch = OpCounters()
    root_eps = mp.sqrt(mp.eps)
    h = HPVector(root_eps * max(1, abs(e)) for e in p)
    op = operator_for(D1)(system, p + h, p, scratch)
    step = lu_solve(lu_factor(op, scratch), fp, scratch)
    return inf_norm(step) / max(mpf(1), inf_norm(p))


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

    Iteration 1 runs at min(``ctx.digits``, 80) digits, and so do its
    factorizations and solves.  After every kept step, ``_plan`` gives the
    next step its working digits P, rho^2 times those of the latest
    correction 10^(-D) plus a margin, capped at ``ctx.digits``; its LU
    digits L = min(P, max(ceil(P - rho D), 0) + 80), since a correction of
    about 10^(-rho D) changes only the last P - rho D digits of x; and, for
    the step predicted to confirm the stop once (rho - 1) D >= eta, fewer
    digits, ceil(1.25 rho D) + 80, with the ramp's P and L as its fallback.
    Evaluations, operators, 2b - a and x - correction run at P.  Two
    re-runs discard an attempt, charging it nowhere, not even in
    ``counters``: a step whose factorization at L < P finds no pivot, or
    one of whose solves leaves fewer than 20 guard digits below its
    correction (see ``_corrected``), runs again with L = P; a predicted
    step whose operator failed, whose ratio misses the threshold or whose
    correction of norm 10^(-D') has D' + 80 above its digits runs again at
    its fallback.  The confirming iterate may thus be computed below
    ``ctx.digits``, and no reported value depends on its digits beyond
    those.  The trace records P as ``working_digits`` and L as
    ``lu_digits``.  Correction norms and ratios are computed at
    ``ctx.digits``; the threshold, ACOC and correct decimals only carry the
    few digits they report, so they are computed at 30, 60 and 30 digits
    (correct decimals at ``ctx.digits`` when -log10 of the error lies
    within 1e-20 of an integer).  A step that finds ``mp.prec`` changed by
    something else raises PrecisionChanged.

    ``order_hint`` overrides the order used for eta and the ramp (systems
    whose mixed second derivatives vanish keep the design orders even with
    the one-sided operator); ``eta_override`` pins eta directly.  ValueError
    refuses a ``max_iters`` that is not an integer of at least 2, an x0
    whose length is not the system's dimension or with an entry that is not
    finite, an order that is not finite and at least 2, and an
    ``eta_override`` that is not finite and positive; a step whose
    correction norm is not finite raises MaxIterationsExceeded.  A
    degenerate divided difference at x, or a degenerate iterate pair (x, y)
    in phi1 and phi2 (then y is the final iterate), ends the run as
    ``residual_underflow`` or raises DegenerateDividedDifference.  The
    ``residual_underflow`` contract, judged on the F passed here:
    ||F(final)||_inf <= ``ctx.check_tolerance``, and unless F(final) is
    exactly 0, also a Newton step from the final iterate (``_newton_size``)
    of relative size <= ``ctx.check_tolerance``, since F scaled far below 1
    is small away from its roots too.  The raised error names the norm, or
    the step's relative size.  A ``ratio`` or
    ``exact_repeat`` stop at an iterate whose ||F||_inf is not below
    10^(-eta) max(1, ||F(x_0)||_inf) raises MaxIterationsExceeded: one
    coordinate stalled.

    One test decides every start-over.  A partial step, one that ran below
    ``ctx.digits`` or from an iterate computed below it, says nothing about
    the target epsilon when its operator failed, when its correction is
    exactly 0, or when it is iteration 1 and its correction of norm
    10^(-D_0) shows that its digits could not hold the rho D_0 digits of
    x_1 with the ramp's margin: the solve then starts over from x_0 at
    ``ctx.digits``.  A start-over during iteration 1 keeps the ramp, since
    nothing was kept yet; any other runs every iteration at ``ctx.digits``,
    as a fixed-precision solve does, and predicts no confirming step.
    Aborted attempts count in ``counters`` but have no counter delta.
    Three consecutive ratios of at least 1 raise MaxIterationsExceeded.
    """
    method = MethodKind(method)
    dd_kind = DividedDifferenceKind(dd_kind)
    try:
        max_iters = operator.index(max_iters)
    except TypeError:
        raise ValueError(f"max_iters must be an integer, not {max_iters!r}") from None
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
        lu_working: list = []
        ramping = True
        digits = lu_digits = min(full, _FIRST_STEP_DIGITS)
        fallback = None  # the ramp's (digits, lu_digits) while a predicted confirming step runs
        while True:
            if len(corr_norms) >= max_iters:
                raise MaxIterationsExceeded(
                    f"no convergence within {max_iters} iterations "
                    f"(last ratio {mp.nstr(ratios[-1], 8) if ratios else 'n/a'})"
                )
            x = iterates[-1]
            before = counters.snapshot()
            failure = None
            try:
                with mp.workdps(digits):
                    prec = mp.prec
                    try:
                        x_next, fx = _outer_step(system, x, method, dd_kind, counters, lu_digits)
                    finally:
                        if mp.prec != prec:
                            raise PrecisionChanged(
                                f"mp.prec was {prec} when outer step {len(corr_norms) + 1} "
                                f"began and {mp.prec} when it ended"
                            )
                c = inf_norm(x_next - x)
                if not mp.isfinite(c):
                    raise MaxIterationsExceeded(
                        f"outer step {len(corr_norms) + 1} gave a correction of norm {c}"
                    )
                # divided once: the confirming test and the trace read it
                ratio = c / corr_norms[-1] if corr_norms else None
            except (DegenerateDividedDifference, SingularOperator) as exc:
                failure = exc
            # discard the attempt, charging nothing it spent, and run it again:
            # with its factorizations and solves at its digits when, below
            # them, they did not resolve its corrections; at the ramp's digits
            # when it was predicted to confirm and does not confirm with its
            # correction resolved (a zero one has infinite D)
            short = lu_digits < digits and isinstance(failure, SingularOperator)
            if short or fallback and (
                failure is not None
                or ratio > threshold
                or _correction_digits(c, x_next) + _CONFIRM_GUARD_DIGITS > digits
            ):
                counters.scalar_fn_evals, counters.products, counters.quotients = before
                if short:
                    lu_digits = digits
                else:
                    (digits, lu_digits), fallback = fallback, None
                continue
            # a partial step whose operator failed, whose correction is 0, or
            # whose iteration 1 could not hold x_1's rho D_0 digits
            if (digits < full or working and working[-1] < full) and (
                failure is not None
                or c == 0
                or not corr_norms and _RAMP_GUARD_DIGITS + math.ceil(
                    _RAMP_FACTOR * rho * _correction_digits(c, x_next)
                ) > digits
            ):
                # start over from x_0 at full precision; only a failed
                # iteration 1 keeps the ramp, since nothing was kept yet
                ramping = not corr_norms
                digits = lu_digits = full
                del iterates[1:], corr_norms[:], ratios[:], deltas[:], working[:], lu_working[:]
                continue
            if failure is not None:
                if isinstance(failure, SingularOperator):
                    raise failure
                norm, why = inf_norm(failure.residual), None
                if norm > ctx.check_tolerance:
                    why = f"but ||F||_inf = {mp.nstr(norm, 8)} is above the check tolerance"
                elif norm:
                    # a small F(x) is no root when F is scaled far below 1
                    point = x if failure.point is None else failure.point
                    size = _newton_size(system, point, failure.residual)
                    if size > ctx.check_tolerance:
                        why = (f"and ||F||_inf = {mp.nstr(norm, 8)} is within the check "
                               f"tolerance, but a Newton step from there has relative size "
                               f"{mp.nstr(size, 8)}, above it")
                if why:
                    where = "" if failure.point is None else "the first step from "
                    failure.args = (f"{failure} at {where}x_{len(corr_norms)}, {why}",)
                    raise failure
                stop_reason = "residual_underflow"
                if failure.point is None:
                    break
                # the first step landed on a root: it is the final iterate
                x_next, c = failure.point, inf_norm(failure.point - x)
                ratio = c / corr_norms[-1] if corr_norms else None
            else:
                if not corr_norms:
                    # the stall bound 10^-eta max(1, ||F(x_0)||_inf); 2 * threshold
                    # is 10^-eta at 30 digits
                    bound = 2 * threshold * max(mpf(1), inf_norm(fx))
                deltas.append(tuple(a - b for a, b in zip(counters.snapshot(), before)))
                working.append(digits)
                lu_working.append(lu_digits)
            iterates.append(x_next)
            corr_norms.append(c)
            if ratio is not None:
                ratios.append(ratio)
            if failure is not None:
                break
            if c == 0 or ratios and ratios[-1] <= threshold:
                stop_reason = "ratio" if c else "exact_repeat"
                # fx is F at the final iterate (or at its exact repeat):
                # corrections also collapse when one coordinate stalls away
                # from the root, its operator column too large to move it
                if inf_norm(fx) >= bound:
                    raise MaxIterationsExceeded(
                        f"the corrections collapsed at x_{len(iterates) - (2 if c else 1)}, "
                        f"but ||F||_inf = {mp.nstr(inf_norm(fx), 8)} is not below "
                        f"{mp.nstr(bound, 8)}: a coordinate stalled"
                    )
                break
            if len(ratios) >= 3 and min(ratios[-3:]) >= 1:
                raise MaxIterationsExceeded(
                    "correction norms failed to contract for 3 consecutive iterations"
                )
            digits, lu_digits, fallback = _plan(rho, eta_used, c, x_next, full, ramping)
        # a ratio stop's last iteration only confirmed its predecessor
        iterations = len(iterates) - (2 if stop_reason == "ratio" else 1)
        final = iterates[iterations]
        trace = IterationTrace(
            iterates=tuple(iterates),
            correction_norms=tuple(corr_norms),
            ratios=tuple(ratios),
            counter_deltas=tuple(deltas),
            working_digits=tuple(working),
            lu_digits=tuple(lu_working),
        )
        try:
            # reported to 12 digits, its spread to 6
            with mp.workdps(60):
                estimate = _acoc(trace)
        except SolverError:
            estimate = None
        return SolveReport(
            iterations=iterations,
            final_iterate=final,
            trace=trace,
            counters=counters,
            eta_used=eta_used,
            stop_reason=stop_reason,
            acoc=estimate.rho_hat if estimate else None,
            acoc_spread=estimate.spread if estimate else None,
            correct_decimals=(
                None if system.reference_root is None
                else _correct_decimals(final, system.reference_root)
            ),
        )
