"""Write one SHA-256 digest per solve over the solve families a change to
``solve`` must leave bit for bit unchanged, and print their outcome counts.

    python tests/digest_sweep.py OUT

writes one ``<sha256>  <case>`` line per solve to OUT, each digest over
everything the solve reports (``tests/test_methods.py::_trace_digest``, LU
digits included) or over the error it raises.  The families: the pinned
solves of ``tests/test_methods.py``, the 18 registered pairs at 4096
digits, and the registered systems with F scaled by 10^k, k in +/-60,
+/-120 and +/-300, from x0 shifted by 0, +0.05 and -0.1 in every
coordinate, at 128 and 256 digits, and Broyden's tridiagonal system at
m = 8 and m = 64 from the pinned solves' two seeded starts at 128 digits:
756 solves.  Run it on two checkouts and compare the files with ``cmp``;
each run imports the ``src`` next to its own ``tests``.  pytest does not collect this file.
"""
import sys
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from ddroots.core import SolverError  # noqa: E402
from test_methods import (  # noqa: E402
    _pinned_solves,
    _record_steps,
    _registered_solves,
    _rerun_paths,
    _scaled_solves,
    _trace_digest,
    _tridiagonal_solves,
)


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
        calls = _record_steps(patch)
        for case, call in _families():
            calls.clear()

            def counted():
                try:
                    report = call()
                except SolverError as exc:
                    outcomes[type(exc).__name__] += 1
                    raise
                outcomes[report.stop_reason] += 1
                return report

            lines.append(f"{_trace_digest(counted)}  {case}\n")
            paths.update(_rerun_paths(calls))
    Path(out).write_text("".join(lines))
    print(f"{len(lines)} solves")
    for name, count in sorted(outcomes.items()) + sorted(paths.items()):
        print(f"{count:5d}  {name}")


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: python tests/digest_sweep.py OUT")
    main(sys.argv[1])
