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
import operator
from functools import lru_cache
from typing import Callable, Optional, Sequence

from mpmath import mp, mpf
from mpmath.libmp import mpf_add, mpf_sub

from .core import (
    HPMatrix,
    HPVector,
    OpCounters,
    SolverError,
    _quotient,
    inf_norm,
    mat_entrywise,
    mat_inf_norm,
    mat_vec,
    working_eps,
)


class DegenerateDividedDifference(SolverError):
    """Some coordinate pair coincides, so a difference quotient is undefined.

    Two points coincide in coordinate j when |y_j - x_j| is below the working
    epsilon times max(1, |x_j|).  In the iterative methods that pair is the
    probe pair x -/+ F(x), so some f_j is negligible against x_j, or an
    iterate pair.  The builders raise it with a message only; ``central_dd``
    and ``methods._outer_step`` then set ``residual`` to F at ``point``
    (``point`` None: the iterate the step started from), so a caller can
    tell a root from a zero of one equation.  Both attributes default to
    None.
    """

    residual: Optional[HPVector] = None
    point: Optional[HPVector] = None


class DividedDifferenceKind(str, enum.Enum):
    """Selector between the classical (D1) and symmetrized (D2) operators."""

    D1 = "d1"
    D2 = "d2"


D1, D2 = DividedDifferenceKind.D1, DividedDifferenceKind.D2

# Count-table units (see ``core``) of one residual F(x) and, per operator
# kind, of one build with a fresh pair and with both end values supplied.
RESIDUAL_COUNTS = ((0, 6), (), ())
OPERATOR_COUNTS = {
    D1: (((0, 6, 6), (), (0, 0, 6)), ((0, -6, 6), (), (0, 0, 6))),
    D2: (
        ((0, 0, 12), (0, 0, 6), (0, 0, 6)),
        ((0, -12, 12), (0, 0, 6), (0, 0, 6)),
    ),
}

ComponentFn = Callable[[Sequence], mpf]


class NonlinearSystem:
    """A square nonlinear system F(x) = 0 with per-component evaluation.

    ``components[i]`` evaluates the i-th scalar equation at a point.  A
    component must be a pure, deterministic function of the point, and the
    point is a read-only sequence, not a tuple: index it (negative indices
    too), slice it, iterate it or take its ``len``.  ``eval`` and the
    divided-difference chains record which coordinates each evaluation
    reads, and a chain evaluates a component again only after one of those
    changes, so a component that reads few coordinates costs few
    evaluations.  The counters still charge the paper's model,
    ``RESIDUAL_COUNTS`` per ``eval`` and ``OPERATOR_COUNTS`` per operator
    build whatever the sparsity, while the wall time follows the evaluations
    performed.  Counters are passed explicitly, so solves over one system
    definition share no tallies.  They do share precision: it lives in
    mpmath's process-global ``mp``, and ``solve`` switches it on every
    iteration, so parallel solves must run in separate processes, not
    threads.
    """

    def __init__(
        self,
        m: int,
        components: Sequence[ComponentFn],
        name: str = "",
        reference_root: Optional[HPVector] = None,
    ):
        if not isinstance(m, int) or m < 1:
            raise ValueError(f"dimension must be at least 1, as an integer, got {m!r}")
        if len(components) != m:
            raise ValueError(f"expected {m} components, got {len(components)}")
        if reference_root is not None and not isinstance(reference_root, HPVector):
            raise ValueError(
                f"the reference root is a {type(reference_root).__name__}, not an "
                "HPVector built under the solve's precision"
            )
        if reference_root is not None and len(reference_root) != m:
            raise ValueError(
                f"the reference root has {len(reference_root)} entries "
                f"but the system has dimension {m}"
            )
        self.m = m
        self.components = tuple(components)
        self.name = name
        self.reference_root = reference_root

    def eval_component(self, i: int, point: Sequence) -> mpf:
        """Evaluate F_i at ``point``, uncounted."""
        return self.components[i](point)

    def eval(self, point: Sequence, counters: Optional[OpCounters] = None) -> "Residual":
        """The full vector F(x), with the coordinates each component's
        evaluation read recorded as the divided-difference chains record
        them, so a build given it as an end value takes its values at more
        points; charges ``RESIDUAL_COUNTS``.  The point enters as
        ``_mpf_entries``; F(x) is rounded as an ``HPVector`` rounds it."""
        if len(point) != self.m:
            raise ValueError(
                f"the point has {len(point)} entries but the system has dimension {self.m}"
            )
        if counters is not None:
            counters.charge(RESIDUAL_COUNTS, self.m)
        point = _mpf_entries(point)
        values, reads = zip(*(_evaluate(self, i, point, None) for i in range(self.m)))
        return Residual(HPVector(values), reads)

    def with_reference_root(self, root: HPVector) -> "NonlinearSystem":
        return NonlinearSystem(self.m, self.components, self.name, root)

    def __repr__(self) -> str:
        return f"NonlinearSystem(name={self.name!r}, m={self.m})"


def _check_dimension(m: int, y: Sequence, x: Sequence) -> None:
    if not len(y) == len(x) == m:
        raise ValueError(
            f"the points have {len(y)} and {len(x)} entries but the system has dimension {m}"
        )


def _mpf_entries(values: Sequence) -> tuple:
    """``values`` with each entry that is not an mpf converted by ``mpf(e)``;
    an mpf is kept unrounded, as a confirming step runs below its iterate's digits."""
    return tuple(e if type(e) is mpf else mpf(e) for e in values)


def _separation(m: int, y: Sequence, x: Sequence) -> tuple[tuple, tuple, list]:
    """The points as ``_mpf_entries`` and the differences y_j - x_j, once
    the points are found separated: |y_j - x_j| >= eps max(1, |x_j|), the
    bound's operands and product rounded to 30 digits.

    Most pairs are decided by exponents alone.  A nonzero difference lies in
    [2^(e-1), 2^e) and the rounded bound in [2^(b-2), 2^b], with e the
    binary magnitude of the difference and b the sum of those of eps and of
    max(1, |x_j|), so e > b separates the pair and e < b - 1 does not; only
    the two binades between, and operands that are not finite, build the
    bound.
    """
    _check_dimension(m, y, x)
    y, x = _mpf_entries(y), _mpf_entries(x)
    eps = working_eps()
    _, _, exp, bc = eps._mpf_
    eps_mag = exp + bc
    diffs = [y[j] - x[j] for j in range(m)]
    for j, (d, v) in enumerate(zip(diffs, x)):
        dv, vv = d._mpf_, v._mpf_
        gap = 0
        # a nonzero difference, and an x_j that is zero or finite and nonzero
        if dv[1] and (vv[1] or not vv[2]):
            gap = dv[2] + dv[3] - eps_mag - max(vv[2] + vv[3] if vv[1] else 1, 1)
        if gap > 0:
            continue
        if gap >= -1:
            # the bound's operands are rounded to 30 digits first: a product of
            # full-precision operands costs a full multiplication before it rounds
            with mp.workdps(30):
                bound = +eps * max(1, abs(v))
            if not abs(d) < bound:
                continue
        raise DegenerateDividedDifference(
            f"coordinates {j} of the two points coincide at working precision"
        )
    return y, x, diffs


class _RecordingPoint:
    """Read-only view of a chain point that records which coordinates one
    component evaluation reads: by index (negative too), by slice or by
    iteration.  ``len`` reads no coordinate."""

    __slots__ = ("_point", "reads")

    def __init__(self, point: tuple):
        self._point = point
        self.reads: set = set()

    def __len__(self) -> int:
        return len(self._point)

    def __getitem__(self, k):
        value = self._point[k]
        if type(k) is int:
            self.reads.add(k % len(self._point))
        elif isinstance(k, slice):
            self.reads.update(range(*k.indices(len(self._point))))
        else:
            self.reads.add(operator.index(k) % len(self._point))
        return value

    def __iter__(self):
        self.reads.update(range(len(self._point)))
        return iter(self._point)


class Residual(HPVector):
    """F at a point, as ``NonlinearSystem.eval`` returns it, with the
    coordinates each component's evaluation read (a superset of them, as the
    chains record it).  A build given it as an end value takes F_i from it
    at every chain point that agrees with that end on ``reads[i]``; a plain
    vector, built by hand, is taken at its own point only.  Entries are kept
    unrounded: ``dd_d2``'s reversed chain ends on the forward chain's values."""

    __slots__ = ("reads",)

    def __init__(self, entries, reads):
        object.__setattr__(self, "entries", _mpf_entries(entries))
        object.__setattr__(self, "reads", tuple(reads))


def _evaluate(system: NonlinearSystem, i: int, point: tuple, reads) -> tuple:
    """F_i at ``point``, converted by ``mpf(e)`` if it is not an mpf, and the
    coordinates that evaluation read, or a superset of them: a component
    whose previous evaluation read every coordinate is evaluated again at
    every step anyway, so its reads are not recorded again.  ``reads`` is
    None when no previous evaluation is known."""
    if reads is None or len(reads) != len(point):
        point = _RecordingPoint(point)
        reads = point.reads
    value = system.eval_component(i, point)
    return value if type(value) is mpf else mpf(value), reads


def _forward_chain(
    system: NonlinearSystem,
    y: Sequence,
    x: Sequence,
    ends=None,
) -> tuple[list, list, list]:
    """F at the chain x, (y_1,x_2..), ..., (y_1..y_{m-1},x_m), y, and the
    coordinates each component read for its values at x and at y.

    Consecutive points differ in coordinate j - 1 only, so step j evaluates
    again just the components whose latest value read it; every other keeps
    that value object.  A pure component would reproduce it bit for bit,
    since the evaluation behind it read none of the coordinates changed
    since.  ``ends``, when given, is (F(x), F(y)), each with the read sets
    of a ``Residual`` or, built by hand, none, and taken as
    ``_mpf_entries``.  Where step j would evaluate F_i and F_i(y)'s own
    evaluation read only coordinates below j, on which the point already
    agrees with y, it takes F_i(y) instead.  An end without read sets is
    taken only at its own point, and the step after F(x) then evaluates
    every component.  Nothing is counted here: the builders charge their
    ``OPERATOR_COUNTS`` unit.
    """
    m = system.m
    current = list(x)
    if ends is None:
        point = tuple(current)
        values, reads = map(list, zip(*(_evaluate(system, i, point, None) for i in range(m))))
        at_y = [m + 1] * m
    else:
        x_reads, y_reads = (getattr(end, "reads", None) for end in ends)
        values, fy = map(_mpf_entries, ends)
        fy_reads, reads = y_reads or [None] * m, list(x_reads or [None] * m)
        # the first step at which the point agrees with y on F_i(y)'s reads
        at_y = [m + 1 if read is None else max(read, default=-1) + 1 for read in fy_reads]
    start_reads = list(reads)
    chain = [values]
    for j in range(1, m + 1):
        current[j - 1] = y[j - 1]
        if j == m and ends is not None:
            values, reads = list(fy), list(fy_reads)
        else:
            values = list(values)
            point = tuple(current)
            for i, read in enumerate(reads):
                if read is None or j - 1 in read:
                    if at_y[i] <= j:
                        values[i], reads[i] = fy[i], fy_reads[i]
                    else:
                        values[i], reads[i] = _evaluate(system, i, point, read)
        chain.append(values)
    return chain, start_reads, reads


def dd_d1(
    system: NonlinearSystem,
    y: HPVector | Sequence,
    x: HPVector | Sequence,
    counters: Optional[OpCounters] = None,
    ends=None,
) -> HPMatrix:
    """Classical divided-difference operator on the points (y, x).

    Entry (i, j) is the quotient of consecutive mixed-coordinate values of
    F_i along the forward chain by y_j - x_j, or an exact zero, neither
    computed nor stored, when the chain kept F_i's value object over that
    step.  The quotient is ``core._quotient``'s on the raw tuples, the bits
    of ``/`` without the long division where F_i is linear in x_j and the
    quotient is exact.  Points, values and ends enter as ``_mpf_entries``.
    ``ends``, when given, is (F(x), F(y)); an end that is a ``Residual``
    also stands in for F at the chain points that agree with it on its
    read sets.  Charges the ``OPERATOR_COUNTS`` unit of D1, fresh or
    supplied, once the points are found separated.
    """
    m = system.m
    y, x, denoms = _separation(m, y, x)
    if counters is not None:
        counters.charge(OPERATOR_COUNTS[D1][ends is not None], m)
    chain, _, _ = _forward_chain(system, y, x, ends)
    prec, rnd = mp._prec_rounding
    rows = [[] for _ in range(m)]
    for j, d in enumerate(denoms):
        for i, (before, after) in enumerate(zip(chain[j], chain[j + 1])):
            if after is not before:
                # (after - before) / d on raw tuples
                t = mpf_sub(after._mpf_, before._mpf_, prec, rnd)
                rows[i].append((j, mp.make_mpf(_quotient(t, d._mpf_, prec, rnd))))
    return HPMatrix._from_nonzeros(tuple(map(tuple, rows)))


def dd_d2(
    system: NonlinearSystem,
    y: HPVector | Sequence,
    x: HPVector | Sequence,
    counters: Optional[OpCounters] = None,
    ends=None,
) -> HPMatrix:
    """Symmetrized divided-difference operator on the points (y, x).

    Averages the forward chain with the chain walked from y back to x.  Each
    entry is one quotient by y_j - x_j (``core._quotient``, the bits of
    ``/``) then one product by the constant one-half, taken on the raw
    tuples as an exponent decrement, or an exact zero, neither computed nor
    stored, when both chains kept F_i's value object over step j.  Points,
    values and ``ends``, (F(x), F(y)) when given, are taken as by ``dd_d1``.
    Charges the ``OPERATOR_COUNTS`` unit of D2, fresh or supplied, once the
    points are found separated.
    """
    m = system.m
    y, x, denoms = _separation(m, y, x)
    if counters is not None:
        counters.charge(OPERATOR_COUNTS[D2][ends is not None], m)
    fwd, reads_x, reads_y = _forward_chain(system, y, x, ends)
    # the chain from y back to x: rev[j] is F at (x_1..x_j, y_{j+1}..y_m),
    # and its ends reuse the forward chain's values and read sets at y and x
    back = (Residual(fwd[m], reads_y), Residual(fwd[0], reads_x))
    rev, _, _ = _forward_chain(system, x, y, back)
    prec, rnd = mp._prec_rounding
    rows = [[] for _ in range(m)]
    for j, d in enumerate(denoms):
        for i, (f0, f1, r0, r1) in enumerate(zip(fwd[j], fwd[j + 1], rev[j], rev[j + 1])):
            if f1 is not f0 or r0 is not r1:
                # (f1 - f0 + r0 - r1) / d * half on raw tuples; the quotient
                # fits the precision, so halving it is exact
                t = mpf_sub(f1._mpf_, f0._mpf_, prec, rnd)
                t = mpf_sub(mpf_add(t, r0._mpf_, prec, rnd), r1._mpf_, prec, rnd)
                sign, man, exp, bc = t = _quotient(t, d._mpf_, prec, rnd)
                rows[i].append((j, mp.make_mpf((sign, man, exp - 1, bc) if man else t)))
    return HPMatrix._from_nonzeros(tuple(map(tuple, rows)))


_BUILDERS = {D1: dd_d1, D2: dd_d2}


def operator_for(kind: DividedDifferenceKind):
    return _BUILDERS[DividedDifferenceKind(kind)]


def central_dd(
    system: NonlinearSystem,
    x: HPVector,
    kind: DividedDifferenceKind,
    counters: Optional[OpCounters] = None,
) -> tuple[HPMatrix, HPVector]:
    """Derivative-free Jacobian substitute on the probe pair x -/+ F(x).

    The operator is built on (x - F(x), x + F(x)), in that argument order,
    the one ``methods._outer_step`` gives the reason for.  Returns
    the operator together with F(x), a ``Residual`` carrying its read sets,
    so the caller evaluates the residual exactly once per outer iteration.
    Raises DegenerateDividedDifference, carrying F(x), when the two probe
    points coincide in some coordinate relative to x, i.e. when |f_i| is
    negligible against max(1, |x_i|); an exact zero f_i is that case too.
    """
    fxv = system.eval(x, counters)
    try:
        return operator_for(kind)(system, x - fxv, x + fxv, counters), fxv
    except DegenerateDividedDifference as exc:
        exc.residual = fxv
        raise


@lru_cache(maxsize=64)
def _gauss_legendre_01(n: int, prec: int):
    """Nodes/weights of the n-point rule on [0, 1] at binary precision prec."""
    with mp.workprec(prec):
        ts, ws = mp.gauss_quadrature(n, "legendre")
        return tuple((1 + t) / 2 for t in ts), tuple(w / 2 for w in ws)


def integral_dd_oracle(
    system: NonlinearSystem,
    y: HPVector | Sequence,
    x: HPVector | Sequence,
    nodes: int,
) -> HPMatrix:
    """Quadrature approximation of the mean-value integral of the Jacobian.

    Gauss-Legendre quadrature over the segment [x, y], with the rule of
    mpmath's ``gauss_quadrature`` (Golub-Welsch), applied to a
    high-precision central-difference Jacobian (step 10^(-digits/4)): at
    each node, column j comes from F at the node -/+ the step in coordinate
    j, and each entry is weighted into the sum as it is computed.  Test
    oracle only: evaluations are not counted and accuracy is far looser than
    the working tolerance (about 10^(-digits/8) should be assumed).  Points
    whose length is not the system's dimension raise ValueError.
    """
    if not isinstance(nodes, int) or nodes < 2:
        raise ValueError(f"need at least 2 quadrature nodes, as an integer, got {nodes!r}")
    m = system.m
    _check_dimension(m, y, x)
    ts, ws = _gauss_legendre_01(nodes, mp.prec)
    h = [y[j] - x[j] for j in range(m)]
    step = mpf(10) ** (-(mp.dps // 4))
    acc = [[mpf(0)] * m for _ in range(m)]
    for t, w in zip(ts, ws):
        point = tuple(x[j] + t * h[j] for j in range(m))
        for j in range(m):
            plus, minus = list(point), list(point)
            plus[j] += step
            minus[j] -= step
            fp = system.eval(tuple(plus))
            fm = system.eval(tuple(minus))
            for i in range(m):
                acc[i][j] += w * ((fp[i] - fm[i]) / (2 * step))
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
    return mat_inf_norm(mat_entrywise(operator.sub, forward, backward))


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
    _check_dimension(system.m, u, v)
    build = operator_for(kind)
    w = HPVector(2 * v[j] - u[j] for j in range(system.m))
    a = build(system, u, v)
    b = build(system, u, w)
    c = build(system, v, w)
    return mat_inf_norm(mat_entrywise(lambda ea, eb, ec: ea - 2 * eb + ec, a, b, c))
