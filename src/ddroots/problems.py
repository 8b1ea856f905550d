"""Registry of the three benchmark systems with their published results.

Each problem carries its start vector, its products-per-evaluation ratio,
the expected result rows (iterations, cost, efficiency index, time factor,
local order, correct decimals), and a reference root stored as full-
precision decimal strings.  The roots were produced once by the sixth-order
method with the symmetrized operator at 8192 digits and are sanity-checked
against their first printed digits.  Broyden's tridiagonal system, without
published rows, sits beside them.
"""
from __future__ import annotations

import json
import math
from collections import OrderedDict, deque
from dataclasses import dataclass
from functools import cache, lru_cache
from importlib import resources
from typing import Callable, Mapping, Sequence

from mpmath import mp, mpf
from mpmath.libmp import from_man_exp, mpf_pos, round_nearest, to_float

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

# working precision, in bits, from which a miss may be derived from a cached
# neighbour; below it every miss calls mpmath.  The rounding test's bound
# holds where mpmath sums exp and cos by its series (above 600 bits), and
# from 256 digits (854 bits) up no exp5 or cos3 row ran slower (README)
_NEIGHBOUR_FLOOR = 700

# fresh values one memo keeps as bases, whatever precisions it sees
_BASES = 24

# bits that fresh and derived values carry beyond the working precision
_GUARD = 64

# a base qualifies when its shift's Taylor series takes at most about this
# many terms: wp <= _TERMS * |log2 h|
_TERMS = 12

_LN2 = math.log(2)


class ArgumentBeyondPrecision(SolverError):
    """exp or cos asked for at an argument of magnitude 2^prec or more, which
    only a diverging iteration reaches: one rounding of it moves the value by
    a factor of e or a whole period, yet mpmath would reduce it with integers
    of that many bits."""


def _rounds_clear(t: tuple, prec: int, band: int) -> bool:
    """Whether the raw mpf ``t`` lies farther than 2^-band ulps (of its
    binade, at ``prec`` bits) from every midpoint between ``prec``-bit
    numbers, so that every value that close to it rounds to nearest as it
    does.  Zero never does: no band bounds a value's error relative to it.

    A ``t`` of at most ``prec`` bits is representable, a quarter of an ulp or
    more from every midpoint (the quarter is the one just below a power of
    two, in the binade beneath).  That quarter also bounds the case of more
    bits, so ``band`` must be 3 or more.
    """
    man, bc = t[1], t[3]
    if not man:
        return False
    drop = bc - prec
    if drop <= 0:
        return True
    offset = man & ((1 << drop) - 1)
    return abs(offset - (1 << (drop - 1))) << band > 1 << drop


def _fixed(t: tuple, wp: int) -> int:
    """The raw mpf ``t`` as a signed multiple of 2^-wp, truncated."""
    sign, man, exp, _ = t
    shift = exp + wp
    x = man << shift if shift >= 0 else man >> -shift
    return -x if sign else x


def _powers(x: int, wp: int) -> list[int]:
    """x^k / k! for k = 1, 2, ..., x >= 0 and each in units of 2^-wp, up to
    the first zero."""
    terms, a, k = [], x, 1
    while a:
        terms.append(a)
        k += 1
        a = (a * x >> wp) // k
    return terms


class _Memo:
    """``mp.<name>`` cached on the argument's value and the working precision.

    Consecutive points of a divided-difference chain differ in one
    coordinate, so most elementary values along a chain repeat.  Each
    component factory call makes its own memos, shared by that factory's
    components, so a cache lives as long as one ``build_system()``.  Every
    value is bit-identical to a fresh ``mp.<name>(v)``, which is looked up
    at call time, and the evaluations the counters see are unchanged.  The
    least recently used argument is dropped past ``_MEMO_ENTRIES``.  An
    argument of magnitude 2^prec or more raises ArgumentBeyondPrecision.

    **Neighbours.**  Below ``_NEIGHBOUR_FLOOR`` bits a miss calls
    ``mp.<name>(v)``.  From there up, most misses of a late iteration lie
    close to arguments already seen (within 2^-2400 to 2^-11600 at 4096
    digits), since chain points are x +/- F(x) and mixtures of them.  A
    miss at v therefore looks among the last ``_BASES`` fresh arguments u at
    the same precision (never another: the window spans every precision a
    solve ramps through) for the one nearest v.  Let wp = prec + ``_GUARD``
    and h = v - u, on integers at wp bits (exact unless |v| < 2^-64).  If
    the Taylor series below take about ``_TERMS`` terms or fewer,
    wp <= _TERMS |log2 h|, the value comes from u's stored one by the
    addition formula,

        exp(v) = exp(u) exp(h),    cos(v) = cos(u) cos(h) - sin(u) sin(h),

    with exp(h), cos(h) and sin(h) summed on integers at wp bits (Brent and
    Zimmermann, *Modern Computer Arithmetic*, 2010, ch. 4).  Otherwise the
    miss is fresh: mpmath at wp bits (``mp.cos_sin`` for cos), kept as a
    base.  Only fresh values are bases, so a derived value is one shift from
    mpmath's and lies within 2^-58 ulp (at prec) of the true value.

    **Rounding test.**  ``mp.<name>(v)`` is not always the correctly
    rounded value: mpmath rounds to prec a fixed-point value that carries g
    more bits (g = 14 in ``mpf_exp``, at least 10 in ``mpf_cos_sin``) and
    may miss by a few units of its last place; allow 2^3 (on about 22000 of
    the arguments covered below, from 700 to 13674 bits, the largest miss
    was one unit).
    For exp the unit is relative, and at most 2^-12 ulp of the result
    (it is 2^-(prec+14) absolute only when |v| < 2, where e^v > 2^-3), so
    mpmath's value is within 2^-9 ulp of e^v.  For cos the unit is absolute,
    2^-(prec+10), which is 2^-(10+k) ulp of a value below 2^k, so within
    2^-(7+k) ulp.  With the 2^-58 of the guarded value g, the two lie
    within 2^-8 and 2^-(6+k) ulp of each other.  Hence the band: if g lies
    farther than 2^-BAND ulp from every rounding midpoint, BAND = 8 for exp
    and 6 + min(k, 0) for cos, then g, the true value and mpmath's round
    alike, and the memo returns g rounded to prec.  Otherwise it returns
    ``mp.<name>(v)`` itself (a fallback): either way the value is
    ``mp.<name>(v)``'s, bit for bit (Ziv, ACM TOMS 17(3), 1991).

    mpmath's miss stays that small only where its own cancellation does not
    outrun its guard bits, so the memo falls back unconditionally where it
    may: exp at an integer, which mpmath raises e to; exp whose reduced
    argument (v mod ln 2, or v when |v| < 2) lies below 2^-8, where mpmath
    recovers sinh from cosh by a square root (433 ulps off at 2^-29 and
    13674 bits); and cos below 1/8 in magnitude, which mpmath may take from
    a sine near its zero.

    ``fresh``, ``neighbours``, ``hits`` and ``fallbacks`` count the misses
    that called mpmath afresh (below the floor, or as a base), the misses
    derived from a base, the values returned from the cache, and the misses
    answered by ``mp.<name>(v)`` above the floor.  ``fresh + fallbacks``
    calls reached mpmath.
    """

    def __init__(self):
        self._values: OrderedDict = OrderedDict()
        self._bases: deque = deque(maxlen=_BASES)
        self.fresh = self.neighbours = self.hits = self.fallbacks = 0

    def __len__(self) -> int:
        """Entries held: cached values plus bases."""
        return len(self._values) + len(self._bases)

    def __call__(self, v: mpf) -> mpf:
        prec = mp.prec
        key = (v._mpf_, prec)
        value = self._values.pop(key, None)
        if value is not None:
            self.hits += 1
        elif mp.mag(v) > prec:
            raise ArgumentBeyondPrecision(
                f"{self.name} at an argument of about 2^{mp.mag(v)} determines "
                f"no digit at {prec} bits: the iteration diverged"
            )
        elif prec < _NEIGHBOUR_FLOOR:
            self.fresh += 1
            value = getattr(mp, self.name)(v)
        else:
            value = self._guarded(v, prec)
        self._values[key] = value
        if len(self._values) > _MEMO_ENTRIES:
            self._values.popitem(last=False)
        return value

    def _guarded(self, v: mpf, prec: int) -> mpf:
        x, wp = v._mpf_, prec + _GUARD
        if self._covered(x):
            near = self._nearest(x, prec, wp)
            if near is None:
                self.fresh += 1
                g, base = self._fresh(v, wp)
                self._bases.append((x, prec, base))
            else:
                self.neighbours += 1
                g = self._shift(*near, wp)
            band = self._band(g)
            if band and _rounds_clear(g, prec, band):
                return mp.make_mpf(mpf_pos(g, prec, round_nearest))
        self.fallbacks += 1
        return getattr(mp, self.name)(v)

    def _nearest(self, x: tuple, prec: int, wp: int):
        """(base, h) for the base at ``prec`` nearest x, h = x - u as a
        multiple of 2^-wp, if its shift qualifies; else None.  A qualifying
        u shares x's sign and, within one, its magnitude.  h is exact unless
        |x| < 2^-64, and then within 2^-wp."""
        sign, mag = x[0], x[2] + x[3]
        fixed_x = best = None
        for u, p, base in tuple(self._bases):
            if p != prec or u[0] != sign or abs(u[2] + u[3] - mag) > 1:
                continue
            if fixed_x is None:
                fixed_x = _fixed(x, wp)
            h = fixed_x - _fixed(u, wp)
            if best is None or abs(h) < abs(best[1]):
                best = base, h
        # |h| < 2^(bits - wp), so the series takes about wp / (wp - bits) terms
        if best is None or wp > _TERMS * (wp - abs(best[1]).bit_length()):
            return None
        return best

    def _covered(self, x: tuple) -> bool:
        """Whether mpmath's value at x keeps within the band's bound."""
        return True


class _ExpMemo(_Memo):
    name = "exp"

    def _covered(self, x):
        # not at an integer (mpmath's power path) nor where mpmath's reduced
        # argument lies below 2^-8; a float finds it only while |x| < 2^20
        mag = x[2] + x[3]
        if x[2] >= 0 or mag > 20:
            return False
        if mag <= 1:
            return mag >= -7
        t = to_float(x) % _LN2
        return 2**-8 <= t <= _LN2 - 2**-8

    def _fresh(self, v, wp):
        g = mp.exp(v, prec=wp)._mpf_
        return g, g

    def _shift(self, base, h, wp):
        # e^h - 1; its odd terms are negative when h is
        r = sum(-a if h < 0 and i % 2 == 0 else a for i, a in enumerate(_powers(abs(h), wp)))
        _, man, exp, _ = base
        return from_man_exp(man + (man * r >> wp), exp)

    def _band(self, g):
        return 8


class _CosMemo(_Memo):
    name = "cos"

    def _fresh(self, v, wp):
        c, s = mp.cos_sin(v, prec=wp)
        return c._mpf_, (c._mpf_, s._mpf_)

    def _shift(self, base, h, wp):
        c, s = (_fixed(t, wp) for t in base)
        terms = _powers(abs(h), wp)
        # term i is |h|^(i+1)/(i+1)!: odd powers build sin h, even ones
        # cos h - 1, with signs + - - + by power mod 4
        sin_h = sum(a if i % 4 == 0 else -a for i, a in enumerate(terms) if i % 2 == 0)
        cos_h1 = sum(a if i % 4 == 3 else -a for i, a in enumerate(terms) if i % 2 == 1)
        if h < 0:
            sin_h = -sin_h
        return from_man_exp(c + (c * cos_h1 - s * sin_h >> wp), -wp)

    def _band(self, g):
        k = g[2] + g[3]
        return 6 + min(k, 0) if k >= -2 else 0


def _exp5_components():
    exp = _ExpMemo()

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
    cos = _CosMemo()

    def make(i):
        def component(p):
            total = p[0] + p[1] + p[2]
            return p[i] - cos(2 * p[i] - total)

        return component

    return [make(i) for i in range(3)]


def broyden_tridiagonal(m: int) -> list:
    """Components F_i = (3 - 2 x_i) x_i - x_{i-1} - 2 x_{i+1} + 1, x_0 = x_{m+1} = 0,
    of any dimension m (Moré, Garbow & Hillstrom, ACM TOMS 7 (1981), problem 30)."""
    if not isinstance(m, int) or m < 1:
        raise ValueError(f"dimension must be at least 1, as an integer, got {m!r}")

    def make(i):
        def component(p):
            left = p[i - 1] if i > 0 else 0
            right = p[i + 1] if i < m - 1 else 0
            return (3 - 2 * p[i]) * p[i] - left - 2 * right + 1

        return component

    return [make(i) for i in range(m)]


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
    returns the iterate after the reported one (converged to the working
    precision floor) as decimal strings, recomputed at ``digits + guard``
    when the solve's confirming step ran at fewer.  Used once to populate
    the packaged data file.
    """
    from .methods import _outer_step

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
        if report.stop_reason == "ratio" and report.trace.working_digits[-1] < ctx.digits:
            best, _ = _outer_step(system, report.final_iterate, PHI2, D2, report.counters)
        for value, printed in zip(best, spec.root_printed):
            if not printed_prefix_matches(value, printed):
                raise ValueError(
                    f"{spec.name}: recomputed root disagrees with printed digits"
                )
        residual = inf_norm(system.eval(best))
        if residual > mpf(10) ** (-digits):
            raise ValueError(f"{spec.name}: residual too large: {mp.nstr(residual, 5)}")
        return best.to_decimals()
