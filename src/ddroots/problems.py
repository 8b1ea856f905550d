"""Registry of the three benchmark systems with their published results.

Each problem carries its start vector, its products-per-evaluation ratio,
the expected result rows (iterations, cost, efficiency index, time factor,
local order, correct decimals), and a reference root stored as full-
precision decimal strings.  The roots were produced once by the sixth-order
method with the symmetrized operator at 8192 digits and are sanity-checked
against their first printed digits.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache, lru_cache
from importlib import resources
from typing import Callable, Mapping, Sequence

from mpmath import mp, mpf

from .convergence import eta
from .core import HPVector, PrecisionContext, SolverError, inf_norm
from .divdiff import D1, D2, DividedDifferenceKind, NonlinearSystem
from .methods import PHI0, PHI1, PHI2, MethodKind, solve, theoretical_order


@dataclass(frozen=True)
class ExpectedRow:
    """Published benchmark row for one (method, operator) pair."""

    order: int
    iterations: int
    cost: str
    cei: str
    tf: str
    correct_decimals: int


@dataclass(frozen=True)
class ProblemSpec:
    """A registered benchmark system plus everything needed to rerun it."""

    name: str
    m: int
    mu_paper: str
    x0: tuple[str, ...]
    root_printed: tuple[str, ...]
    d1_order_preserving: bool
    op_profile: Mapping[str, int]
    component_factory: Callable[[], Sequence]
    rows: Mapping[tuple[MethodKind, DividedDifferenceKind], ExpectedRow]

    @property
    def row_plan(self) -> tuple[tuple[MethodKind, DividedDifferenceKind], ...]:
        return tuple(self.rows.keys())

    def x0_vector(self) -> HPVector:
        return HPVector.from_decimals(self.x0)

    def build_system(self, with_reference: bool = True) -> NonlinearSystem:
        """Instantiate the system under the active precision.

        The reference root is parsed at that precision, and a solve's q is
        measured against it: build under the solve's context, since a root
        parsed at mpmath's default 15 digits caps q near 16 whatever the
        solve's digits.
        """
        root = _parsed_reference_root(self.name, mp.prec) if with_reference else None
        return NonlinearSystem(
            self.m,
            self.component_factory(),
            name=self.name,
            reference_root=root,
        )

    def effective_order(self, method: MethodKind, dd_kind: DividedDifferenceKind) -> int:
        """Local order actually attained by (method, operator) on this system."""
        return theoretical_order(method, D2 if self.d1_order_preserving else dd_kind)


# arguments one memo holds; a registered row's solve stores at most about
# 180 (cos3 phi1/d2 at 4096 digits)
_MEMO_ENTRIES = 256


class ArgumentBeyondPrecision(SolverError):
    """exp or cos asked for at an argument of magnitude 2^prec or more, which
    only a diverging iteration reaches: one rounding of it moves the value by
    a factor of e or a whole period, yet mpmath would reduce it with integers
    of that many bits."""


def _memo(name: str) -> Callable:
    """``mp.<name>`` cached on the argument's value and the working precision.

    Consecutive points of a divided-difference chain differ in one
    coordinate, so most elementary values along a chain repeat.  Each
    component factory call makes its own memos, shared by that factory's
    components, so a cache lives as long as one ``build_system()``.  The
    value is bit-identical to a fresh call; ``mp.<name>`` is looked up at
    call time, and the evaluations the counters see are unchanged.  The
    least recently used argument is dropped past ``_MEMO_ENTRIES``.  An
    argument of magnitude 2^prec or more raises ArgumentBeyondPrecision.
    """

    @lru_cache(maxsize=_MEMO_ENTRIES)
    def at(v, prec):
        if mp.mag(v) > prec:
            raise ArgumentBeyondPrecision(
                f"{name} at an argument of about 2^{mp.mag(v)} determines no digit "
                f"at {prec} bits: the iteration diverged"
            )
        return getattr(mp, name)(v)

    return lambda v: at(v, mp.prec)


def _exp5_components():
    exp = _memo("exp")

    def make(i):
        def component(p):
            return sum(p[j] for j in range(5) if j != i) - exp(-p[i])

        return component

    return [make(i) for i in range(5)]


def _quad2_components():
    return [
        lambda p: p[0] * p[0] + p[1] * p[1] - 9,
        lambda p: p[0] * p[1] - 1,
    ]


def _cos3_components():
    cos = _memo("cos")

    def make(i):
        def component(p):
            total = p[0] + p[1] + p[2]
            return p[i] - cos(2 * p[i] - total)

        return component

    return [make(i) for i in range(3)]


REGISTRY: dict[str, ProblemSpec] = {
    "exp5": ProblemSpec(
        name="exp5",
        m=5,
        mu_paper="87.8",
        x0=("-2.1", "-2.1", "6.4", "6.4", "-2.1"),
        root_printed=(
            "-2.153967996",
            "-2.153967996",
            "6.463463374",
            "6.463463374",
            "-2.153967996",
        ),
        d1_order_preserving=True,
        op_profile={"exp": 5},
        component_factory=_exp5_components,
        rows={
            (PHI0, D1): ExpectedRow(2, 11, "3223.0", "1.000215086", "10706.57", 3493),
            (PHI1, D1): ExpectedRow(4, 5, "5568.0", "1.000249006", "9248.26", 1112),
            (PHI2, D1): ExpectedRow(6, 4, "6039.5", "1.000296717", "7761.36", 1191),
        },
    ),
    "quad2": ProblemSpec(
        name="quad2",
        m=2,
        mu_paper="1.5",
        x0=("3.0", "0.4"),
        root_printed=("2.98118805", "0.335436739"),
        d1_order_preserving=False,
        op_profile={"product": 3},
        component_factory=_quad2_components,
        rows={
            (PHI0, D1): ExpectedRow(2, 11, "32.5", "1.021556664", "107.96", 3334),
            (PHI1, D1): ExpectedRow(3, 7, "59.0", "1.018794991", "123.66", 2908),
            (PHI1, D2): ExpectedRow(4, 5, "65.0", "1.021556664", "107.96", 1951),
            (PHI2, D1): ExpectedRow(4, 5, "69.0", "1.020294410", "114.61", 1384),
            (PHI2, D2): ExpectedRow(6, 4, "75.0", "1.024177781", "96.38", 2392),
        },
    ),
    "cos3": ProblemSpec(
        name="cos3",
        m=3,
        mu_paper="113.3",
        x0=("0.4", "0.4", "0.9"),
        root_printed=("0.5438500415", "0.5438500415", "0.9957781534"),
        d1_order_preserving=False,
        op_profile={"cos": 3, "product": 3},
        component_factory=_cos3_components,
        rows={
            (PHI0, D1): ExpectedRow(2, 13, "1748.0", "1.000396616", "5806.73", 2575),
            (PHI1, D1): ExpectedRow(3, 8, "2816.2", "1.000390181", "5902.48", 2549),
            (PHI1, D2): ExpectedRow(4, 6, "4175.8", "1.000332038", "6935.85", 2517),
            (PHI2, D1): ExpectedRow(4, 6, "3169.6", "1.000437468", "5264.59", 1514),
            (PHI2, D2): ExpectedRow(6, 4, "4529.2", "1.000395680", "5820.46", 725),
        },
    ),
}


@cache
def _root_data() -> dict:
    path = resources.files(__package__) / "data" / "reference_roots.json"
    return json.loads(path.read_text())


def load_reference_root(name: str) -> list[str]:
    """Full-precision decimal strings of the stored root of a problem."""
    return _root_data()[name]["components"]


@lru_cache(maxsize=64)
def _parsed_reference_root(name: str, prec: int) -> HPVector:
    """The stored root of a problem rounded to binary precision ``prec``.

    Parsing its 8192-digit strings costs more than some whole solves, so
    each (problem, precision) pair is parsed once; an ``HPVector`` is
    immutable, so every caller may share it.
    """
    with mp.workprec(prec):
        return HPVector.from_decimals(load_reference_root(name))


def reference_root_digits(name: str) -> int:
    return _root_data()[name]["digits"]


def printed_prefix_matches(value: mpf, printed: str) -> bool:
    """Whether a scalar agrees with a printed decimal prefix.

    Published roots mix truncation and rounding in their final digit, so
    agreement means |value - printed| within one unit of the printed last
    decimal place.
    """
    places = len(printed.split(".")[1]) if "." in printed else 0
    return abs(value - mpf(printed)) <= mpf(10) ** (-places)


def generate_reference_root(
    spec: ProblemSpec, digits: int = 8192, guard: int = 64
) -> list[str]:
    """Recompute a problem's reference root from scratch.

    Runs the sixth-order method with the symmetrized operator at
    ``digits + guard`` working digits and a doubled stopping threshold, then
    returns the last iterate (converged to the working precision floor) as
    decimal strings.  Used once to populate the packaged data file.
    """
    ctx = PrecisionContext(digits + guard)
    with ctx.activate():
        system = spec.build_system(with_reference=False)
        report = solve(
            system,
            spec.x0_vector(),
            PHI2,
            D2,
            ctx,
            max_iters=60,
            eta_override=2 * eta(theoretical_order(PHI2, D2), digits),
        )
        best = report.trace.iterates[-1]
        for value, printed in zip(best, spec.root_printed):
            if not printed_prefix_matches(value, printed):
                raise ValueError(
                    f"{spec.name}: recomputed root disagrees with printed digits"
                )
        residual = inf_norm(system.eval(best))
        if residual > mpf(10) ** (-digits):
            raise ValueError(f"{spec.name}: residual too large: {mp.nstr(residual, 5)}")
        return best.to_decimals()
