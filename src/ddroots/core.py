"""High-precision numeric core: precision contexts, dense vectors/matrices,
instrumented LU factorization, and operation counters.

All arithmetic is done with mpmath under an explicitly activated working
precision measured in decimal digits.  Each counted routine charges its own
unit of the count table, so the tallies depend only on the dimension, never
on the values, while the loops skip exact zeros.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from mpmath import mp, mpf
from mpmath.libmp import normalize, normalize1, repr_dps

# decimal I/O of multi-thousand-digit scalars trips the interpreter's
# int<->str conversion guard at its default of 4300 digits
if hasattr(sys, "set_int_max_str_digits"):
    sys.set_int_max_str_digits(max(sys.get_int_max_str_digits(), 2_000_000))


class SolverError(Exception):
    """Base class for every error raised by this package."""


class SingularOperator(SolverError):
    """The operator matrix is numerically singular; the solve must abort."""


def working_eps() -> mpf:
    """10**(-digits) at the currently active working precision.

    Cached per binary precision, not per ``mp.dps``: 99 and 100 bits share
    dps 29 but round 10**(-29) differently.
    """
    return _eps_at(mp.prec)


@lru_cache(maxsize=64)
def _eps_at(prec: int) -> mpf:
    with mp.workprec(prec):
        return mpf(10) ** (-mp.dps)


def to_decimal(x) -> str:
    """Serialize a high-precision scalar to a decimal string.

    Enough digits are emitted (based on the active binary precision) that
    parsing the string back under the same precision recovers the exact
    binary value.
    """
    return mp.nstr(mpf(x), repr_dps(mp.prec))


def quotient(a, b):
    """``a / b``, bit for bit, under the active precision and rounding.

    mpmath's ``mpf_div`` shifts the numerator's mantissa left by about the
    working precision before its long division, so an exact quotient, such
    as the +/-1 or +/-2 of a component linear in a coordinate, comes out
    with thousands of trailing zero bits that its normalization strips
    eight at a time, each step shifting the whole mantissa: at 4096 digits,
    on mpmath's pure-Python backend, that is about 3.5 times the cost of an
    inexact quotient.  Here the mantissas
    are divided unshifted first.  Equal mantissas give +/-2^(e_a - e_b) with
    no arithmetic; a zero remainder gives the exact quotient, rounded to the
    working precision like any other value; otherwise the remainder is
    carried into ``mpf_div``'s own shifted division, so the quotient, its
    sticky bit and its rounding are those of ``mpf_div``.  Zeros, special
    values, a divisor whose mantissa is 1 and operands that are not both
    mpf (components may return ints or floats) go through ``a / b`` itself,
    so a zero divisor raises ZeroDivisionError as ``/`` does.
    """
    if type(a) is mpf and type(b) is mpf:
        sa, ma, ea, na = a._mpf_
        sb, mb, eb, nb = b._mpf_
        if ma and mb > 1:
            sign, exp = sa ^ sb, ea - eb
            if ma == mb:
                return mp.make_mpf((sign, 1, exp, 1))
            prec, rnd = mp._prec_rounding
            q, r = divmod(ma, mb)
            if r:
                # ma << extra == (q << extra) * mb + (r << extra)
                extra = max(prec - na + nb + 5, 5)
                low, r = divmod(r << extra, mb)
                q, exp = q << extra | low, exp - extra
                if r:
                    q = q << 1 | 1
                    return mp.make_mpf(normalize1(sign, q, exp - 1, q.bit_length(), prec, rnd))
            return mp.make_mpf(normalize(sign, q, exp, q.bit_length(), prec, rnd))
    return a / b


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision in decimal digits plus the derived tolerance.

    ``check_tolerance``, 10^(-digits/2), is the unit used by identity checks
    and by the residual test of a degenerate stop; degeneracy thresholds and
    the row-relative pivot test use ``working_eps()`` under ``activate()``.
    The binary precision always carries at least ``digits`` decimal digits.
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


# The count table.  A unit is the (evaluations, products, quotients) of one
# call of the routine that charges it, each a polynomial in the dimension m
# stored as its integer coefficients of (1, m, m^2, m^3) over the common
# denominator 6.  The LU units are here; the residual and operator units
# are beside their builders in ``divdiff``.
FACTOR_COUNTS = ((), (0, 1, -3, 2), (0, -3, 3))
SOLVE_COUNTS = ((), (0, -6, 6), (0, 6))


def count_at(poly: tuple, m):
    """Value at m of a coefficient tuple over 6: an exact int for int m."""
    total = sum(c * m**k for k, c in enumerate(poly))
    return total // 6 if isinstance(total, int) else total / 6


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

    def charge(self, unit: tuple, m: int) -> None:
        """Add one call of a count-table unit at dimension m."""
        evals, products, quotients = (count_at(poly, m) for poly in unit)
        self.scalar_fn_evals += evals
        self.products += products
        self.quotients += quotients

    def snapshot(self) -> tuple[int, int, int]:
        return (self.scalar_fn_evals, self.products, self.quotients)


def _zip_equal(*seqs: Sequence) -> zip:
    """zip of sequences of one length; ValueError naming the lengths otherwise
    (zip's own ``strict`` error names only the argument positions)."""
    lengths = [len(s) for s in seqs]
    if min(lengths) != max(lengths):
        raise ValueError(f"operands of lengths {' and '.join(map(str, lengths))} do not match")
    return zip(*seqs)


def _immutable(self, *args) -> None:
    raise AttributeError(f"{type(self).__name__} is immutable")


class HPVector:
    """Immutable dense vector of high-precision reals."""

    __slots__ = ("entries",)
    __setattr__ = __delattr__ = _immutable

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
        return HPVector(a + b for a, b in _zip_equal(self.entries, other.entries))

    def __sub__(self, other: "HPVector") -> "HPVector":
        return HPVector(a - b for a, b in _zip_equal(self.entries, other.entries))

    def __repr__(self) -> str:
        shown = ", ".join(mp.nstr(e, 8) for e in self.entries)
        return f"HPVector([{shown}])"

    def to_decimals(self) -> list[str]:
        return [to_decimal(e) for e in self.entries]

    @classmethod
    def from_decimals(cls, strings: Sequence[str]) -> "HPVector":
        return cls(mpf(s) for s in strings)


class HPMatrix:
    """Immutable dense square matrix of high-precision reals (row-major).

    Entries that are already mpf are kept as they are; others are converted
    at the working precision.
    """

    __slots__ = ("rows",)
    __setattr__ = __delattr__ = _immutable

    def __init__(self, rows: Iterable[Iterable]):
        object.__setattr__(
            self,
            "rows",
            tuple(tuple(e if isinstance(e, mpf) else mpf(e) for e in row) for row in rows),
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


def mat_entrywise(fn: Callable, *matrices: HPMatrix) -> HPMatrix:
    """The matrix of ``fn`` applied to corresponding entries, uncounted; the
    matrices must share one dimension."""
    return HPMatrix(map(fn, *rows) for rows in _zip_equal(*(a.rows for a in matrices)))


def mat_vec(a: HPMatrix, v: HPVector | Sequence) -> HPVector:
    """Uncounted matrix-vector product, used only by diagnostics."""
    return HPVector(sum(e * vj for e, vj in _zip_equal(row, v)) for row in a.rows)


@dataclass(frozen=True)
class LUFactorization:
    """Combined LU storage with partial-pivot permutation."""

    lu: tuple
    perm: tuple

    @property
    def m(self) -> int:
        return len(self.perm)


def lu_factor(a: HPMatrix, counters: OpCounters) -> LUFactorization:
    """LU factorization with partial pivoting; charges ``FACTOR_COUNTS``.

    The arithmetic runs at the active precision, and each nonzero entry of
    ``a`` with more bits than it holds is rounded to it on read, so a
    matrix built at more digits factors as that matrix rounded to the
    active precision, at that precision's cost; an entry that fits is read
    as it is, which leaves every bit of a matrix built at the active
    precision as it was.
    Pivot-search comparisons are not counted, and the unit is charged on
    entry, whatever the loops then perform.  The loops skip exact zeros: the
    pivot search skips zero candidates, and the elimination skips zero
    multipliers and runs over the pivot row's nonzero columns only.  That
    changes no bit of the result: a zero is never the largest candidate of a
    nonzero column, mpmath has no signed zero, and x - 0 y = x for finite
    entries already rounded to the working precision.  The multipliers are
    ``quotient``s, the bits of ``/``, so an exact one skips the long
    division.  A pivot that is zero, or below the working epsilon times
    min(1, M) with M the largest magnitude in its row of ``a`` (implicit row
    equilibration; M is read only for a pivot below the working epsilon),
    raises SingularOperator; a NaN pivot does not.
    """
    m = a.m
    counters.charge(FACTOR_COUNTS, m)
    tol = working_eps()
    prec = mp.prec
    # a zero or special value has a bit count below 1
    lu = [[e if e._mpf_[3] <= prec else +e for e in row] for row in a.rows]
    perm = list(range(m))
    for k in range(m):
        candidates = [i for i in range(k, m) if lu[i][k]]
        p = max(candidates, key=lambda i: abs(lu[i][k]), default=k)
        size = abs(lu[p][k])
        if size < tol and (not size or size < tol * min(1, max(map(abs, a.rows[perm[p]])))):
            raise SingularOperator(f"no pivot in column {k} above the working epsilon")
        if p != k:
            lu[k], lu[p] = lu[p], lu[k]
            perm[k], perm[p] = perm[p], perm[k]
        pivot = lu[k][k]
        row_k = lu[k]
        nonzero = [(j, row_k[j]) for j in range(k + 1, m) if row_k[j]]
        for i in range(k + 1, m):
            row_i = lu[i]
            if not row_i[k]:
                continue
            lik = quotient(row_i[k], pivot)
            row_i[k] = lik
            for j, ukj in nonzero:
                row_i[j] -= lik * ukj
    return LUFactorization(lu=tuple(tuple(row) for row in lu), perm=tuple(perm))


def lu_solve(fact: LUFactorization, b: HPVector | Sequence, counters: OpCounters) -> HPVector:
    """Solve A x = b from a factorization; charges ``SOLVE_COUNTS``.

    The arithmetic runs at the active precision, and b is rounded to it on
    read; the factorization's entries are read as stored, so solve at the
    precision it was factored at.  Terms whose factor from the
    factorization is zero are skipped, and the back-substitution divides by
    the pivots through ``quotient``; neither changes a bit of x.  A b whose
    length is not the factorization's dimension raises ValueError.
    """
    m = fact.m
    if len(b) != m:
        raise ValueError(f"b has {len(b)} entries but the factorization has dimension {m}")
    counters.charge(SOLVE_COUNTS, m)
    lu = fact.lu
    y = [mpf(b[p]) for p in fact.perm]
    for i in range(1, m):
        row = lu[i]
        acc = y[i]
        for j in range(i):
            if row[j]:
                acc -= row[j] * y[j]
        y[i] = acc
    x = [mpf(0)] * m
    for i in range(m - 1, -1, -1):
        row = lu[i]
        acc = y[i]
        for j in range(i + 1, m):
            if row[j]:
                acc -= row[j] * x[j]
        x[i] = quotient(acc, row[i])
    return HPVector(x)
