"""High-precision numeric core: precision contexts, dense vectors/matrices,
instrumented LU factorization, and operation counters.

All arithmetic is done with mpmath under an explicitly activated working
precision measured in decimal digits.  The LU routines count products and
quotients with a fixed loop structure so the tallies depend only on the
dimension, never on the matrix values.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from mpmath import mp, mpf
from mpmath.libmp import repr_dps

# decimal I/O of multi-thousand-digit scalars trips the interpreter's
# int<->str conversion guard at its default of 4300 digits
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 2_000_000))


class SolverError(Exception):
    """Base class for every error raised by this package."""


class SingularOperator(SolverError):
    """The operator matrix is numerically singular; the solve must abort."""


def working_eps() -> mpf:
    """10**(-digits) at the currently active working precision."""
    return mpf(10) ** (-mp.dps)


def to_decimal(x) -> str:
    """Serialize a high-precision scalar to a decimal string.

    Enough digits are emitted (based on the active binary precision) that
    parsing the string back under the same precision recovers the exact
    binary value.
    """
    return mp.nstr(mpf(x), repr_dps(mp.prec))


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision in decimal digits plus the derived tolerance.

    ``check_tolerance``, 10^(-digits/2), is the unit used by identity checks
    and by the residual test of a degenerate stop; singularity and degeneracy
    thresholds use ``working_eps()`` under ``activate()``.  The underlying
    binary precision always carries at least ``digits`` decimal digits.
    """

    digits: int = 4096

    def __post_init__(self) -> None:
        if self.digits < 32:
            raise ValueError(f"need at least 32 digits, got {self.digits}")

    def activate(self):
        """Context manager that switches the working precision to ``digits``."""
        return mp.workdps(self.digits)

    @property
    def check_tolerance(self) -> mpf:
        with self.activate():
            return mpf(10) ** (-mpf(self.digits) / 2)


@dataclass
class OpCounters:
    """Mutable tallies of the cost-bearing operations of a solve.

    Scalar function evaluations, products and quotients are counted
    separately; additions, subtractions and multiplications by small integer
    constants are free, matching the usual product-unit cost model.
    """

    scalar_fn_evals: int = 0
    products: int = 0
    quotients: int = 0

    def add_evals(self, n: int = 1) -> None:
        self.scalar_fn_evals += n

    def add_products(self, n: int) -> None:
        self.products += n

    def add_quotients(self, n: int) -> None:
        self.quotients += n

    def snapshot(self) -> tuple[int, int, int]:
        return (self.scalar_fn_evals, self.products, self.quotients)


class HPVector:
    """Immutable dense vector of high-precision reals."""

    __slots__ = ("entries",)

    def __init__(self, entries: Iterable):
        object.__setattr__(self, "entries", tuple(mpf(e) for e in entries))
        if not self.entries:
            raise ValueError("vector dimension must be at least 1")

    @property
    def m(self) -> int:
        return len(self.entries)

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, i: int) -> mpf:
        return self.entries[i]

    def __iter__(self) -> Iterator[mpf]:
        return iter(self.entries)

    def __add__(self, other: "HPVector") -> "HPVector":
        return HPVector(a + b for a, b in zip(self.entries, other.entries))

    def __sub__(self, other: "HPVector") -> "HPVector":
        return HPVector(a - b for a, b in zip(self.entries, other.entries))

    def __repr__(self) -> str:
        shown = ", ".join(mp.nstr(e, 8) for e in self.entries)
        return f"HPVector([{shown}])"

    def to_decimals(self) -> list[str]:
        return [to_decimal(e) for e in self.entries]

    @classmethod
    def from_decimals(cls, strings: Sequence[str]) -> "HPVector":
        return cls(mpf(s) for s in strings)


class HPMatrix:
    """Immutable dense square matrix of high-precision reals (row-major)."""

    __slots__ = ("rows",)

    def __init__(self, rows: Iterable[Iterable]):
        object.__setattr__(
            self, "rows", tuple(tuple(mpf(e) for e in row) for row in rows)
        )
        m = len(self.rows)
        if m == 0 or any(len(row) != m for row in self.rows):
            raise ValueError("matrix must be square with dimension >= 1")

    @property
    def m(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> tuple:
        return self.rows[i]

    def __repr__(self) -> str:
        shown = "; ".join(
            "[" + ", ".join(mp.nstr(e, 8) for e in row) + "]" for row in self.rows
        )
        return f"HPMatrix({shown})"


def inf_norm(v: HPVector | Sequence) -> mpf:
    """Max-magnitude entry of a vector."""
    return max(abs(mpf(e)) for e in v)


def mat_inf_norm(a: HPMatrix) -> mpf:
    """Operator infinity norm (maximum absolute row sum)."""
    return max(sum(abs(e) for e in row) for row in a.rows)


def mat_vec(a: HPMatrix, v: HPVector | Sequence) -> HPVector:
    """Uncounted matrix-vector product, used only by diagnostics."""
    return HPVector(sum(row[j] * v[j] for j in range(a.m)) for row in a.rows)


@dataclass(frozen=True)
class LUFactorization:
    """Combined LU storage with partial-pivot permutation.

    ``matrix`` keeps the factored input so callers may reuse the operator
    entries themselves (not just the factorization).  ``singular_flag`` is
    set instead of raising so the caller can attach context to the failure.
    """

    matrix: HPMatrix
    lu: tuple
    perm: tuple
    singular_flag: bool

    @property
    def m(self) -> int:
        return len(self.perm)


def lu_factor(a: HPMatrix, counters: OpCounters) -> LUFactorization:
    """LU factorization with partial pivoting and exact operation counting.

    Counts m(m-1)(2m-1)/6 products and m(m-1)/2 quotients for an m-by-m
    matrix; pivot-search comparisons are not counted.  The elimination loop
    never skips zero multipliers, so the tallies are input independent.  A
    pivot smaller in magnitude than the working epsilon flags the
    factorization as singular and stops.
    """
    m = a.m
    tol = working_eps()
    lu = [list(row) for row in a.rows]
    perm = list(range(m))
    singular = False
    for k in range(m):
        p = max(range(k, m), key=lambda i: abs(lu[i][k]))
        if abs(lu[p][k]) < tol:
            singular = True
            break
        if p != k:
            lu[k], lu[p] = lu[p], lu[k]
            perm[k], perm[p] = perm[p], perm[k]
        if k == m - 1:
            continue
        pivot = lu[k][k]
        row_k = lu[k]
        for i in range(k + 1, m):
            row_i = lu[i]
            lik = row_i[k] / pivot
            row_i[k] = lik
            for j in range(k + 1, m):
                row_i[j] -= lik * row_k[j]
        counters.add_quotients(m - 1 - k)
        counters.add_products((m - 1 - k) ** 2)
    return LUFactorization(
        matrix=a,
        lu=tuple(tuple(row) for row in lu),
        perm=tuple(perm),
        singular_flag=singular,
    )


def lu_solve(fact: LUFactorization, b: HPVector | Sequence, counters: OpCounters) -> HPVector:
    """Solve A x = b from a factorization, counting m(m-1) products + m quotients."""
    if fact.singular_flag:
        raise SingularOperator("cannot solve with a singular operator")
    m = fact.m
    lu = fact.lu
    y = [mpf(b[p]) for p in fact.perm]
    for i in range(1, m):
        row = lu[i]
        acc = y[i]
        for j in range(i):
            acc -= row[j] * y[j]
        y[i] = acc
    x = [mpf(0)] * m
    for i in range(m - 1, -1, -1):
        row = lu[i]
        acc = y[i]
        for j in range(i + 1, m):
            acc -= row[j] * x[j]
        x[i] = acc / row[i]
    counters.add_products(m * (m - 1))
    counters.add_quotients(m)
    return HPVector(x)
