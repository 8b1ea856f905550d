"""Write one SHA-256 digest per solve over the solve families a change to
``solve`` must leave bit for bit unchanged, and print their outcome counts.

    python tests/digest_sweep.py OUT

writes one ``<sha256>  <case>`` line per solve to OUT, each digest over
everything the solve reports (``_trace_digest``, LU digits included) or
over the error it raises.  The families: the pinned solves (the 18
registered pairs at 128, 256 and 1024 digits, Broyden's tridiagonal system
at m = 32 from two seeded starts at 256 digits), the 18 pairs at 4096
digits, the registered systems with F scaled by 10^k, k in +/-60, +/-120
and +/-300, from x0 shifted by 0, +0.05 and -0.1 in every coordinate, at
128 and 256 digits, and the tridiagonal system at m = 8 and 64 from the
same starts at 128 digits: 756 solves.

``tests/data/digest_sweep.sha256`` is the one pin file and this script its
one writer.  Tier-1 (``tests/test_methods.py``) takes the families from
here and solves each of the 216 pinned, re-run, 4096-digit and
tridiagonal cases once per pytest session, through ``_solve_each`` as
``main`` does; it checks them against the file, and its LU and
confirming-step tests reuse that run.  CI ``diff``s a whole run with the
file.  Any re-hash is made with the parent commit's ``src`` and recorded
in CHANGES.md.  Run as a script, it imports the ``src`` next to its
``tests``.
"""
import hashlib
import random
import sys
from collections import Counter
from dataclasses import replace
from functools import partial
from pathlib import Path

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import pytest  # noqa: E402
from mpmath import mp, mpf  # noqa: E402

import ddroots.methods  # noqa: E402
from ddroots.core import HPVector, PrecisionContext, SingularOperator, SolverError  # noqa: E402
from ddroots.divdiff import D1, D2, NonlinearSystem  # noqa: E402
from ddroots.methods import MethodKind, solve, theoretical_order  # noqa: E402
from ddroots.problems import REGISTRY, broyden_tridiagonal  # noqa: E402

PINS = Path(__file__).resolve().parent / "data" / "digest_sweep.sha256"


def read_pins() -> dict:
    """case -> digest for every line of the pin file."""
    lines = PINS.read_text().splitlines()
    return {case: digest for digest, case in (line.split("  ", 1) for line in lines)}


def _bits(value):
    """``_mpf_`` of an mpf, with an int mantissa whatever the backend."""
    if isinstance(value, mpf):
        sign, man, exp, bc = value._mpf_
        return (sign, int(man), exp, bc)
    return value


def _solved(call, *args):
    """``call(*args)``, a solve, or the SolverError it raises."""
    try:
        return call(*args)
    except SolverError as exc:
        return exc


def _trace_digest(outcome) -> str:
    """SHA-256 of everything a solve reports: stop reason, I, eta, every
    iterate, correction norm, ratio, counter delta, working digits and LU
    digits, the total counters, ACOC, its spread and q; or of the error it
    raised, when ``outcome`` is one."""
    if isinstance(outcome, SolverError):
        fields = ("raised", type(outcome).__name__, str(outcome))
    else:
        report, trace = outcome, outcome.trace
        fields = (
            report.stop_reason,
            report.iterations,
            report.eta_used,
            [[_bits(e) for e in iterate] for iterate in trace.iterates],
            [_bits(c) for c in trace.correction_norms],
            [_bits(r) for r in trace.ratios],
            trace.counter_deltas,
            trace.working_digits,
            trace.lu_digits,
            report.counters.snapshot(),
            _bits(report.acoc),
            _bits(report.acoc_spread),
            report.correct_decimals,
        )
    return hashlib.sha256(repr(fields).encode()).hexdigest()


PAIRS = [(method, dd) for method in MethodKind for dd in (D1, D2)]


def _registered_solves(digits):
    """(case, call) for every registered (problem, method, operator) triple
    at ``digits``."""
    ctx = PrecisionContext(digits)
    for name, spec in REGISTRY.items():
        with ctx.activate():
            system, x0 = spec.build_system(), spec.x0_vector()
        for method, dd in PAIRS:
            order = spec.effective_order(method, dd)
            yield f"{name}/{method.value}/{dd.value}/{digits}", partial(
                solve, system, x0, method, dd, ctx, order_hint=order
            )


def _pinned_solves():
    """(case, call) for every registered (problem, method, operator) triple
    at 128, 256 and 1024 digits, and Broyden's tridiagonal system at m = 32
    and 256 digits from two seeded starts, as the benchmark draws them."""
    for digits in (128, 256, 1024):
        yield from _registered_solves(digits)
    yield from _tridiagonal_solves(32, 256)


def _tridiagonal_solves(m, digits):
    """(case, call) for every (method, operator) pair on Broyden's
    tridiagonal system of dimension m at ``digits``, from the seed-1 and
    seed-2 starts the benchmark draws."""
    ctx = PrecisionContext(digits)
    system = NonlinearSystem(m, broyden_tridiagonal(m))
    for seed in (1, 2):
        rng = random.Random(seed)
        with ctx.activate():
            x0 = HPVector(repr(-1 + rng.uniform(-0.1, 0.1)) for _ in range(m))
        for method, dd in PAIRS:
            order = theoretical_order(method, D2)
            yield f"tridiag{m}/seed{seed}/{method.value}/{dd.value}/{digits}", partial(
                solve, system, x0, method, dd, ctx, order_hint=order
            )


def _scaled_solves(exponents, shifts, digits):
    """(case, call) for every registered (problem, method, operator) triple
    with F scaled by 10^k, from x0 shifted in every coordinate by ``shift``,
    a signed decimal string, for each k, shift and digit count given."""
    for count in digits:
        ctx = PrecisionContext(count)
        for k in exponents:
            for shift in shifts:
                for name, spec in REGISTRY.items():
                    with ctx.activate():
                        base, scale = spec.build_system(), mpf(10) ** k
                        system = NonlinearSystem(
                            base.m,
                            [lambda p, f=f, scale=scale: scale * f(p) for f in base.components],
                            reference_root=base.reference_root,
                        )
                        x0 = HPVector(e + mpf(shift) for e in spec.x0_vector())
                    for method, dd in PAIRS:
                        order = spec.effective_order(method, dd)
                        yield f"{name}*1e{k}/x0{shift}/{method.value}/{dd.value}/{count}", partial(
                            solve, system, x0, method, dd, ctx, order_hint=order
                        )


def _rerun_solves():
    """The scaled solves that take every path on which ``solve`` runs an
    attempt again, none of which the pinned solves take more than once."""
    return _scaled_solves((-120, 60, 120), ("+0", "-0.1"), (128,))


def _record_steps(monkeypatch) -> list:
    """Patch ``_outer_step`` to record (x, working digits, LU digits, error)
    for every call."""
    calls = []
    outer_step = ddroots.methods._outer_step

    def recording(system, x, method, dd_kind, counters, lu_digits):
        calls.append((x, mp.dps, lu_digits, None))
        try:
            return outer_step(system, x, method, dd_kind, counters, lu_digits)
        except SolverError as exc:
            calls[-1] = calls[-1][:3] + (exc,)
            raise

    monkeypatch.setattr(ddroots.methods, "_outer_step", recording)
    return calls


_PLAN = ddroots.methods._plan


def _record_predictions(monkeypatch) -> list:
    """Patch ``_plan`` to record the digits of every step it predicts to
    confirm the stop."""
    returned = []

    def recording(*args):
        digits, lu_digits, fallback = _PLAN(*args)
        if fallback:
            returned.append(digits)
        return digits, lu_digits, fallback

    monkeypatch.setattr(ddroots.methods, "_plan", recording)
    return returned


def _ramp_only(*args):
    """``_plan`` with every step at the ramp's digits, none predicted to
    confirm the stop."""
    digits, lu_digits, fallback = _PLAN(*args)
    return *(fallback or (digits, lu_digits)), None


def _lu_at_full(*args):
    """``_plan`` with every factorization and solve at the step's digits."""
    digits, _, fallback = _PLAN(*args)
    return digits, digits, fallback and (fallback[0], fallback[0])


def _lu_digits_dropped(report):
    """``report`` with its trace's LU digits left out."""
    return replace(report, trace=replace(report.trace, lu_digits=()))


def _solve_each(cases, monkeypatch):
    """Solve each (case, call) once, with ``_record_steps`` and
    ``_record_predictions`` installed: yields the case, its
    ``_trace_digest``, its report or error, its recorded steps and the
    digits of its steps predicted to confirm the stop."""
    steps, predicted = _record_steps(monkeypatch), _record_predictions(monkeypatch)
    for case, call in cases:
        steps.clear()
        predicted.clear()
        outcome = _solved(call)
        yield case, _trace_digest(outcome), outcome, [*steps], [*predicted]


def _rerun_paths(calls) -> set:
    """The paths by which one solve's recorded steps ran an attempt again:
    from the same iterate, an LU redo at the step's digits after an LU below
    them fell short, otherwise a confirming step's retry, or from x_0 a
    start-over during iteration 1; from x_0 after a later iterate, a
    start-over after iteration 1."""
    paths = set()
    for (x, digits, lu, error), (y, *step) in zip(calls, calls[1:]):
        if y is x and x is calls[0][0]:
            paths.add("start-over during iteration 1")
        elif y is x:
            redo = isinstance(error, SingularOperator) and lu < digits and step[:2] == [digits] * 2
            paths.add("LU redo" if redo else "confirming retry")
        elif y is calls[0][0]:
            paths.add("start-over after iteration 1")
    return paths


def _families():
    yield from _pinned_solves()
    yield from _registered_solves(4096)
    yield from _scaled_solves(
        (-300, -120, -60, 60, 120, 300), ("+0", "+0.05", "-0.1"), (128, 256)
    )
    for m in (8, 64):
        yield from _tridiagonal_solves(m, 128)


def main(out: str) -> None:
    outcomes, paths, lines = Counter(), Counter(), []
    with pytest.MonkeyPatch.context() as patch:
        for case, digest, outcome, steps, _ in _solve_each(_families(), patch):
            lines.append(f"{digest}  {case}\n")
            raised = isinstance(outcome, SolverError)
            outcomes[type(outcome).__name__ if raised else outcome.stop_reason] += 1
            paths.update(_rerun_paths(steps))
    Path(out).write_text("".join(lines))
    print(f"{len(lines)} solves")
    for name, count in sorted(outcomes.items()) + sorted(paths.items()):
        print(f"{count:5d}  {name}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/digest_sweep.py OUT")
    main(sys.argv[1])
