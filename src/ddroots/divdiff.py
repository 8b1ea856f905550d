"""First-order divided-difference operators for vector functions.

Two constructions are provided: the classical one-sided operator and a
symmetrized variant that averages the forward and reversed coordinate
chains.  Both satisfy the secant identity ``op(y - x) = F(y) - F(x)``; only
the symmetrized operator agrees with the mean-value integral of the
Jacobian to second order in ``y - x``.  A quadrature-based approximation of
that integral is included as a test oracle, together with diagnostic
residual checks.
"""
from __future__ import annotations

import enum
from typing import Callable, Optional, Sequence

from mpmath import mp, mpf

from .core import (
    HPMatrix,
    HPVector,
    OpCounters,
    SolverError,
    inf_norm,
    mat_inf_norm,
    mat_vec,
    working_eps,
)


class DegenerateDividedDifference(SolverError):
    """Some coordinate pair coincides, so a difference quotient is undefined.

    In the iterative methods a residual component has underflowed, or an
    iterate pair coincides in one coordinate; ``residual`` then carries F at
    ``point`` (None: the iterate the step started from), so a caller can tell
    a root from a zero of one equation.
    """

    def __init__(
        self,
        message: str,
        residual: Optional[HPVector] = None,
        point: Optional[HPVector] = None,
    ):
        super().__init__(message)
        self.residual = residual
        self.point = point


class DividedDifferenceKind(str, enum.Enum):
    """Selector between the classical (D1) and symmetrized (D2) operators."""

    D1 = "d1"
    D2 = "d2"


ComponentFn = Callable[[Sequence], mpf]


class NonlinearSystem:
    """A square nonlinear system F(x) = 0 with per-component evaluation.

    ``components[i]`` evaluates the i-th scalar equation at an indexable
    point.  Components must be pure functions of the point; counters are
    passed explicitly, so solves over one system definition share no tallies.
    They do share precision: it lives in mpmath's process-global ``mp``, and
    ``solve`` switches it on every iteration, so parallel solves must run in
    separate processes, not threads.
    """

    def __init__(
        self,
        m: int,
        components: Sequence[ComponentFn],
        name: str = "",
        reference_root: Optional[HPVector] = None,
    ):
        if m < 1:
            raise ValueError("dimension must be at least 1")
        if len(components) != m:
            raise ValueError(f"expected {m} components, got {len(components)}")
        self.m = m
        self.components = tuple(components)
        self.name = name
        self.reference_root = reference_root

    def eval_component(self, i: int, point: Sequence, counters: Optional[OpCounters] = None) -> mpf:
        """Evaluate F_i at ``point``; counts exactly one scalar evaluation."""
        if counters is not None:
            counters.add_evals(1)
        return self.components[i](point)

    def eval(self, point: Sequence, counters: Optional[OpCounters] = None) -> HPVector:
        """Evaluate the full vector F(x); counts exactly m scalar evaluations."""
        return HPVector(
            self.eval_component(i, point, counters) for i in range(self.m)
        )

    def with_reference_root(self, root: HPVector) -> "NonlinearSystem":
        return NonlinearSystem(self.m, self.components, self.name, root)

    def __repr__(self) -> str:
        return f"NonlinearSystem(name={self.name!r}, m={self.m})"


def _check_separation(y: Sequence, x: Sequence) -> None:
    eps = working_eps()
    one = mpf(1)
    for j in range(len(x)):
        if abs(y[j] - x[j]) < eps * max(one, abs(x[j])):
            raise DegenerateDividedDifference(
                f"coordinates {j} of the two points coincide at working precision"
            )


def _eval_all(system: NonlinearSystem, point: Sequence, counters) -> list:
    return [system.eval_component(i, point, counters) for i in range(system.m)]


def _forward_chain(
    system: NonlinearSystem,
    y: Sequence,
    x: Sequence,
    counters,
    fx,
    fy,
) -> list:
    """F at the chain x, (y_1,x_2..), ..., (y_1..y_{m-1},x_m), y.

    Endpoint values are reused when supplied, so a fresh pair costs
    m(m+1) scalar evaluations and a pair with known endpoints m(m-1).
    """
    m = system.m
    chain = [list(fx) if fx is not None else _eval_all(system, tuple(x), counters)]
    current = list(x)
    for j in range(1, m + 1):
        current[j - 1] = y[j - 1]
        if j == m and fy is not None:
            chain.append(list(fy))
        else:
            chain.append(_eval_all(system, tuple(current), counters))
    return chain


def dd_d1(
    system: NonlinearSystem,
    y: HPVector | Sequence,
    x: HPVector | Sequence,
    counters: Optional[OpCounters] = None,
    fx=None,
    fy=None,
) -> HPMatrix:
    """Classical divided-difference operator on the points (y, x).

    Entry (i, j) is the quotient of consecutive mixed-coordinate values of
    F_i along the forward chain by y_j - x_j.  Adds m^2 quotients to the
    counters.
    """
    m = system.m
    _check_separation(y, x)
    chain = _forward_chain(system, y, x, counters, fx, fy)
    denoms = [y[j] - x[j] for j in range(m)]
    entries = [
        [(chain[j + 1][i] - chain[j][i]) / denoms[j] for j in range(m)]
        for i in range(m)
    ]
    if counters is not None:
        counters.add_quotients(m * m)
    return HPMatrix(entries)


def dd_d2(
    system: NonlinearSystem,
    y: HPVector | Sequence,
    x: HPVector | Sequence,
    counters: Optional[OpCounters] = None,
    fx=None,
    fy=None,
) -> HPMatrix:
    """Symmetrized divided-difference operator on the points (y, x).

    Averages the forward chain with the chain walked from y back to x, which
    doubles the scalar evaluations: 2m^2 for a fresh pair, 2m(m-1) with both
    endpoint values supplied.  Each entry is one quotient by y_j - x_j plus
    one product by the constant one-half; the counters record exactly that.
    """
    m = system.m
    _check_separation(y, x)
    fwd = _forward_chain(system, y, x, counters, fx, fy)
    # the chain from y back to x: rev[j] is F at (x_1..x_j, y_{j+1}..y_m),
    # and its ends reuse the forward chain's values at y and x
    rev = _forward_chain(system, x, y, counters, fwd[m], fwd[0])
    half = mpf(1) / 2
    denoms = [y[j] - x[j] for j in range(m)]
    entries = [
        [
            (fwd[j + 1][i] - fwd[j][i] + rev[j][i] - rev[j + 1][i]) / denoms[j] * half
            for j in range(m)
        ]
        for i in range(m)
    ]
    if counters is not None:
        counters.add_quotients(m * m)
        counters.add_products(m * m)
    return HPMatrix(entries)


_BUILDERS = {DividedDifferenceKind.D1: dd_d1, DividedDifferenceKind.D2: dd_d2}


def operator_for(kind: DividedDifferenceKind):
    return _BUILDERS[DividedDifferenceKind(kind)]


def central_dd(
    system: NonlinearSystem,
    x: HPVector,
    kind: DividedDifferenceKind,
    counters: Optional[OpCounters] = None,
) -> tuple[HPMatrix, HPVector]:
    """Derivative-free Jacobian substitute on the probe pair x -/+ F(x).

    The operator is built on (x - F(x), x + F(x)), in that argument order;
    the one-sided construction is not symmetric in its arguments and this
    orientation is the one the published iteration counts pin down.  Returns
    the operator together with F(x) so the caller evaluates the residual
    exactly once per outer iteration.  Raises DegenerateDividedDifference,
    carrying F(x), when some residual component is below the working epsilon
    or the two probe points coincide in a coordinate relative to x.
    """
    fxv = system.eval(x, counters)
    eps = working_eps()
    for i, f in enumerate(fxv):
        if abs(f) < eps:
            raise DegenerateDividedDifference(
                f"residual component {i} underflowed the working precision", fxv
            )
    try:
        return operator_for(kind)(system, x - fxv, x + fxv, counters), fxv
    except DegenerateDividedDifference as exc:
        exc.residual = fxv
        raise


_GL_CACHE: dict = {}


def _legendre_pair(n: int, x):
    p0, p1 = mpf(1), x
    for k in range(2, n + 1):
        p0, p1 = p1, ((2 * k - 1) * x * p1 - (k - 1) * p0) / k
    dp = n * (x * p1 - p0) / (x * x - 1)
    return p1, dp


def _gauss_legendre_01(n: int):
    """Nodes/weights on [0, 1], cached per (n, binary precision)."""
    key = (n, mp.prec)
    if key in _GL_CACHE:
        return _GL_CACHE[key]
    nodes, weights = [], []
    tol = mpf(10) ** (-(mp.dps - 4))
    for k in range(1, n + 1):
        x = mp.cos(mp.pi * (4 * k - 1) / (4 * n + 2))
        for _ in range(200):
            p, dp = _legendre_pair(n, x)
            dx = p / dp
            x -= dx
            if abs(dx) < tol:
                break
        _, dp = _legendre_pair(n, x)
        w = 2 / ((1 - x * x) * dp * dp)
        nodes.append((1 + x) / 2)
        weights.append(w / 2)
    _GL_CACHE[key] = (nodes, weights)
    return _GL_CACHE[key]


def _fd_jacobian(system: NonlinearSystem, point: Sequence, step) -> list:
    m = system.m
    cols = []
    for j in range(m):
        plus = list(point)
        minus = list(point)
        plus[j] = plus[j] + step
        minus[j] = minus[j] - step
        fp = _eval_all(system, tuple(plus), None)
        fm = _eval_all(system, tuple(minus), None)
        cols.append([(fp[i] - fm[i]) / (2 * step) for i in range(m)])
    return [[cols[j][i] for j in range(m)] for i in range(m)]


def integral_dd_oracle(
    system: NonlinearSystem,
    y: HPVector | Sequence,
    x: HPVector | Sequence,
    nodes: int,
) -> HPMatrix:
    """Quadrature approximation of the mean-value integral of the Jacobian.

    Gauss-Legendre quadrature over the segment [x, y] applied to a
    high-precision central-difference Jacobian (step 10^(-digits/4)).  Test
    oracle only: evaluations are not counted and accuracy is far looser than
    the working tolerance (about 10^(-digits/8) should be assumed).
    """
    if nodes < 2:
        raise ValueError("need at least 2 quadrature nodes")
    m = system.m
    ts, ws = _gauss_legendre_01(nodes)
    h = [y[j] - x[j] for j in range(m)]
    step = mpf(10) ** (-(mp.dps // 4))
    acc = [[mpf(0)] * m for _ in range(m)]
    for t, w in zip(ts, ws):
        point = tuple(x[j] + t * h[j] for j in range(m))
        jac = _fd_jacobian(system, point, step)
        for i in range(m):
            for j in range(m):
                acc[i][j] += w * jac[i][j]
    return HPMatrix(acc)


def check_secant(
    op: HPMatrix,
    system: NonlinearSystem,
    y: HPVector,
    x: HPVector,
) -> mpf:
    """Residual of the secant identity: ||op (y - x) - (F(y) - F(x))||_inf."""
    lhs = mat_vec(op, y - x)
    rhs = system.eval(y) - system.eval(x)
    return inf_norm(lhs - rhs)


def check_symmetry(
    system: NonlinearSystem,
    y: HPVector,
    x: HPVector,
    kind: DividedDifferenceKind,
) -> mpf:
    """||op(y, x) - op(x, y)||_inf for the selected operator kind."""
    build = operator_for(kind)
    forward = build(system, y, x)
    backward = build(system, x, y)
    diff = [
        [a - b for a, b in zip(ra, rb)]
        for ra, rb in zip(forward.rows, backward.rows)
    ]
    return mat_inf_norm(HPMatrix(diff))


def check_potra(
    system: NonlinearSystem,
    kind: DividedDifferenceKind,
    u: HPVector,
    v: HPVector,
) -> mpf:
    """Residual of the identity op(u,v) = 2 op(u,2v-u) - op(v,2v-u).

    That identity holds exactly when the operator equals the mean-value
    integral of the Jacobian for every pair of points, so a nonzero residual
    certifies that the operator is not integral-consistent.
    """
    build = operator_for(kind)
    w = HPVector(2 * v[j] - u[j] for j in range(system.m))
    a = build(system, u, v)
    b = build(system, u, w)
    c = build(system, v, w)
    resid = [
        [ea - 2 * eb + ec for ea, eb, ec in zip(ra, rb, rc)]
        for ra, rb, rc in zip(a.rows, b.rows, c.rows)
    ]
    return mat_inf_norm(HPMatrix(resid))
