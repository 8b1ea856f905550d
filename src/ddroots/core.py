"""High-precision numeric core: precision contexts, vectors, row-sparse
matrices, instrumented LU factorization, and operation counters.

All arithmetic is done with mpmath under an explicitly activated working
precision measured in decimal digits.  Each counted routine charges its own
unit of the count table, so the tallies depend only on the dimension, never
on the values, while the loops skip exact zeros.
"""
from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Callable, Iterable, Iterator, Sequence

from mpmath import mp, mpf
from mpmath.libmp import (
    fzero,
    mpf_abs,
    mpf_div,
    mpf_gt,
    mpf_mul,
    mpf_pos,
    mpf_sub,
    normalize,
    normalize1,
    repr_dps,
)

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


def _quotient(a: tuple, b: tuple, prec: int, rnd: str) -> tuple:
    """``mpf_div(a, b, prec, rnd)`` on raw mpf tuples, bit for bit, which is
    what ``/`` computes for two mpf.

    mpmath's ``mpf_div`` shifts the numerator's mantissa left by about the
    working precision before its long division, so an exact quotient, such
    as the +/-1 or +/-2 of a component linear in a coordinate, comes out
    with thousands of trailing zero bits that its normalization strips
    eight at a time, each step shifting the whole mantissa: at 4096 digits,
    on mpmath's pure-Python backend, that is about 3.5 times the cost of an
    inexact quotient.  Here the mantissas are divided unshifted first.
    Equal mantissas give +/-2^(e_a - e_b) with no arithmetic; a zero
    remainder gives the exact quotient, rounded to the working precision
    like any other value; otherwise the remainder is carried into
    ``mpf_div``'s own shifted division, so the quotient, its sticky bit and
    its rounding are those of ``mpf_div``.  Zeros, special values and a
    divisor whose mantissa is 1 go through ``mpf_div`` itself, so a zero
    divisor raises ZeroDivisionError as ``/`` does.
    """
    sa, ma, ea, na = a
    sb, mb, eb, nb = b
    if ma and mb > 1:
        sign, exp = sa ^ sb, ea - eb
        if ma == mb:
            return (sign, 1, exp, 1)
        q, r = divmod(ma, mb)
        if r:
            # ma << extra == (q << extra) * mb + (r << extra)
            extra = max(prec - na + nb + 5, 5)
            low, r = divmod(r << extra, mb)
            q, exp = q << extra | low, exp - extra
            if r:
                q = q << 1 | 1
                return normalize1(sign, q, exp - 1, q.bit_length(), prec, rnd)
        return normalize(sign, q, exp, q.bit_length(), prec, rnd)
    return mpf_div(a, b, prec, rnd)


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
        if not isinstance(self.digits, int) or self.digits < 32:
            raise ValueError(f"need at least 32 digits, as an integer, got {self.digits!r}")

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


@lru_cache(maxsize=256)
def _unit_at(unit: tuple, m: int) -> tuple:
    """A unit's (evaluations, products, quotients) at m, by ``count_at``."""
    return tuple(count_at(poly, m) for poly in unit)


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
        evals, products, quotients = _unit_at(unit, m)
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
    """Immutable dense vector of high-precision reals, each rounded to the
    working precision as ``mpf(e)`` rounds it (an mpf that fits is kept)."""

    __slots__ = ("entries",)
    __setattr__ = __delattr__ = _immutable

    def __init__(self, entries: Iterable):
        prec = mp.prec
        entries = tuple(e if type(e) is mpf and e._mpf_[3] <= prec else mpf(e) for e in entries)
        object.__setattr__(self, "entries", entries)
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
    """Immutable square matrix of high-precision reals, stored as each
    row's nonzero (column, entry) pairs only; the dense row-major ``rows``
    and each row ``[i]``, with the zeros filled in, are built on each read.

    Entries that are already mpf are kept as they are; others are converted
    at the working precision.
    """

    __slots__ = ("_nonzeros",)
    __setattr__ = __delattr__ = _immutable

    def __init__(self, rows: Iterable[Iterable]):
        rows = tuple(tuple(e if isinstance(e, mpf) else mpf(e) for e in row) for row in rows)
        if not rows or any(len(row) != len(rows) for row in rows):
            raise ValueError("matrix must be square with dimension >= 1")
        object.__setattr__(
            self, "_nonzeros", tuple(tuple((j, e) for j, e in enumerate(row) if e) for row in rows)
        )

    @classmethod
    def _from_nonzeros(cls, nonzeros: tuple) -> "HPMatrix":
        """The matrix with row i's nonzero (column, mpf) pairs ``nonzeros[i]``."""
        a = object.__new__(cls)
        object.__setattr__(a, "_nonzeros", nonzeros)
        return a

    @property
    def rows(self) -> tuple:
        return tuple(map(self.__getitem__, range(self.m)))

    @property
    def m(self) -> int:
        return len(self._nonzeros)

    def __getitem__(self, i: int) -> tuple:
        return tuple(map(dict(self._nonzeros[i]).get, range(self.m), [mp.zero] * self.m))

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
    return max(sum((abs(e) for _, e in pairs), mp.zero) for pairs in a._nonzeros)


def mat_entrywise(fn: Callable, *matrices: HPMatrix) -> HPMatrix:
    """The matrix of ``fn`` applied to corresponding entries over the union
    of the operands' nonzeros, uncounted.  A missing entry reads as mpf 0,
    so ``fn`` must map mpf to mpf and zeros to zero; the matrices must share
    one dimension."""
    nonzeros = []
    for pairs in _zip_equal(*(a._nonzeros for a in matrices)):
        rows = [dict(p) for p in pairs]
        cols = sorted(set().union(*rows))
        entries = (fn(*(row.get(j, mp.zero) for row in rows)) for j in cols)
        nonzeros.append(tuple((j, e) for j, e in zip(cols, entries) if e))
    return HPMatrix._from_nonzeros(tuple(nonzeros))


def mat_vec(a: HPMatrix, v: HPVector | Sequence) -> HPVector:
    """Uncounted matrix-vector product, used only by diagnostics."""
    _zip_equal(a._nonzeros, v)  # refuses a v of another length
    return HPVector(sum(e * v[j] for j, e in pairs) for pairs in a._nonzeros)


@dataclass(frozen=True)
class LUFactorization:
    """Combined LU storage with partial-pivot permutation.

    ``raw`` holds the entries as mpmath's raw mpf tuples, which the
    triangular solves read; ``lu`` is the same storage as mpf.  ``prec`` is
    the binary precision it was factored at, which its solves run at.
    """

    raw: tuple
    perm: tuple
    prec: int

    @property
    def m(self) -> int:
        return len(self.perm)

    @cached_property
    def lu(self) -> tuple:
        return tuple(tuple(mp.make_mpf(t) for t in row) for row in self.raw)

    @property
    def pivots(self) -> tuple:
        """The diagonal of U, as mpf."""
        return tuple(mp.make_mpf(row[k]) for k, row in enumerate(self.raw))

    @cached_property
    def _solve_rows(self) -> tuple:
        """Per row: its nonzero (column, entry) pairs left of the diagonal,
        those right of it, and its pivot."""
        return tuple(
            (
                tuple((j, t) for j, t in enumerate(row[:i]) if t != fzero),
                tuple((j, t) for j, t in enumerate(row[i + 1:], i + 1) if t != fzero),
                row[i],
            )
            for i, row in enumerate(self.raw)
        )


def lu_factor(a: HPMatrix, counters: OpCounters) -> LUFactorization:
    """LU factorization with partial pivoting; charges ``FACTOR_COUNTS``.

    The working rows are filled from ``a``'s nonzeros.  The arithmetic runs
    at the active precision, and each nonzero entry of ``a`` with more bits
    than it holds is rounded to it on read, so a matrix built at more
    digits factors as that matrix rounded to the active precision, at that
    precision's cost; an entry that fits is read as it is, which leaves
    every bit of a matrix built at the active precision as it was.
    Pivot-search comparisons are not counted, and the unit is charged on
    entry, whatever the loops then perform.  The loops skip exact zeros: the
    pivot search skips zero candidates, and the elimination skips zero
    multipliers and runs over the pivot row's nonzero columns only.  That
    changes no bit of the result: a zero is never the largest candidate of a
    nonzero column, mpmath has no signed zero, and x - 0 y = x for finite
    entries already rounded to the working precision.  The multipliers are
    ``_quotient``s, the bits of ``/``, so an exact one skips the long
    division.  A pivot that is zero, or below the working epsilon times
    min(1, M) with M the largest magnitude in its row of ``a`` (implicit row
    equilibration; M is read only for a pivot below the working epsilon),
    raises SingularOperator; a NaN pivot does not.
    """
    m = a.m
    counters.charge(FACTOR_COUNTS, m)
    tol = working_eps()
    prec, rnd = mp._prec_rounding
    # on raw tuples, each mpf operation below is the libmp call mpf's own
    # operator makes; a zero or special value has a bit count below 1
    lu = []
    for pairs in a._nonzeros:
        row = [fzero] * m
        for j, e in pairs:
            t = e._mpf_
            row[j] = t if t[3] <= prec else mpf_pos(t, prec, rnd)
        lu.append(row)
    perm = list(range(m))
    for k in range(m):
        # the first candidate of largest magnitude, as max() picks it
        p, size = k, fzero
        for i in range(k, m):
            t = lu[i][k]
            if t != fzero:
                t = mpf_abs(t, prec, rnd)
                if size == fzero or mpf_gt(t, size):
                    p, size = i, t
        size = mp.make_mpf(size)
        if size < tol and (
            not size or size < tol * min(1, max(abs(e) for _, e in a._nonzeros[perm[p]]))
        ):
            raise SingularOperator(f"no pivot in column {k} above the working epsilon")
        if p != k:
            lu[k], lu[p] = lu[p], lu[k]
            perm[k], perm[p] = perm[p], perm[k]
        row_k = lu[k]
        pivot = row_k[k]
        nonzero = [(j, row_k[j]) for j in range(k + 1, m) if row_k[j] != fzero]
        for i in range(k + 1, m):
            row_i = lu[i]
            if row_i[k] == fzero:
                continue
            lik = _quotient(row_i[k], pivot, prec, rnd)
            row_i[k] = lik
            # row_i[j] -= lik * ukj, the product rounded before the difference
            for j, ukj in nonzero:
                row_i[j] = mpf_sub(row_i[j], mpf_mul(lik, ukj, prec, rnd), prec, rnd)
    return LUFactorization(raw=tuple(tuple(row) for row in lu), perm=tuple(perm), prec=prec)


def lu_solve(fact: LUFactorization, b: HPVector | Sequence, counters: OpCounters) -> HPVector:
    """Solve A x = b from a factorization; charges ``SOLVE_COUNTS``.

    The arithmetic runs at the precision ``fact`` was factored at, whatever
    precision is active, and b is rounded to it on read.  Terms whose
    factor from the factorization is zero are skipped, and the
    back-substitution divides by the pivots through ``_quotient``; neither
    changes a bit of x.  A b whose length is not the factorization's
    dimension raises ValueError.
    """
    m = fact.m
    if len(b) != m:
        raise ValueError(f"b has {len(b)} entries but the factorization has dimension {m}")
    counters.charge(SOLVE_COUNTS, m)
    prec, rnd = fact.prec, mp._prec_rounding[1]
    rows = fact._solve_rows
    # raw tuples, as in ``lu_factor``: acc -= l_ij y_j, and so on; an mpf
    # entry is read as ``lu_factor`` reads one, any other rounded once
    y = []
    for p in fact.perm:
        e = b[p]
        if isinstance(e, mpf):
            t = e._mpf_
            y.append(t if t[3] <= prec else mpf_pos(t, prec, rnd))
        else:
            y.append(mpf(e, prec=prec)._mpf_)
    for i, (lower, _, _) in enumerate(rows):
        acc = y[i]
        for j, t in lower:
            acc = mpf_sub(acc, mpf_mul(t, y[j], prec, rnd), prec, rnd)
        y[i] = acc
    x = [fzero] * m
    for i in range(m - 1, -1, -1):
        _, upper, pivot = rows[i]
        acc = y[i]
        for j, t in upper:
            acc = mpf_sub(acc, mpf_mul(t, x[j], prec, rnd), prec, rnd)
        x[i] = _quotient(acc, pivot, prec, rnd)
    return HPVector(map(mp.make_mpf, x))
