"""Sampling profile of passes of a perfbench workload, run in-process through ``bgcsim.cli.main``.

    PYTHONPATH=src python3 scripts/sample_profile.py --workload tiny-grid --passes 20

A SIGPROF timer samples the Python stack every INTERVAL CPU seconds, or at
the kernel's coarser tick, so take several passes.  It prints the TOP
functions by inclusive share of the samples, the TOP lines by own share, and
the TOP ``bgcsim`` lines by share of the samples whose innermost ``bgcsim``
frame sits on them.  The handler runs once control is back in Python, so
time in numpy's C code lands on the line that called it, but time in
numpy's Python wrappers lands on numpy lines; the third table charges it to
the ``bgcsim`` line that called the wrapper.  Unlike cProfile, it adds no
cost per call.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import signal
import sys
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from workloads import WORKLOADS, invocations  # noqa: E402

from bgcsim import cli  # noqa: E402

INTERVAL = 1e-4  # CPU seconds asked for between samples
TOP = 25  # rows per table
PACKAGE = str(Path(cli.__file__).parent)


def _where(code, line) -> str:
    return f"{'/'.join(Path(code.co_filename).parts[-2:])}:{line} {code.co_name}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, default="tiny-grid")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--passes", type=int, default=1)
    args = parser.parse_args(argv)
    inclusive, own, own_bgcsim = Counter(), Counter(), Counter()

    def sample(signum, frame):
        own[_where(frame.f_code, frame.f_lineno or 0)] += 1  # None (shown as 0) off any source line
        stack, innermost = set(), None
        while frame is not None and frame.f_code.co_filename != __file__:
            if innermost is None and str(Path(frame.f_code.co_filename).parent) == PACKAGE:
                innermost = _where(frame.f_code, frame.f_lineno or 0)
            stack.add(_where(frame.f_code, frame.f_code.co_firstlineno))
            frame = frame.f_back
        inclusive.update(stack)
        if innermost is not None:
            own_bgcsim[innermost] += 1

    signal.signal(signal.SIGPROF, sample)
    signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)
    with contextlib.redirect_stdout(io.StringIO()):
        for _ in range(args.passes):
            for workload_argv, _ in invocations(args.workload, args.seed):
                cli.main(workload_argv)
    signal.setitimer(signal.ITIMER_PROF, 0)
    samples = sum(own.values())
    print(f"{args.workload} seed {args.seed}, {args.passes} pass(es): {samples} samples")
    tables = (
        ("inclusive, per function", inclusive),
        ("own, per line", own),
        ("own, per innermost bgcsim line", own_bgcsim),
    )
    for title, counts in tables:
        print(f"\n{title}:")
        for where, count in counts.most_common(TOP):
            print(f"{100 * count / samples:6.1f}%  {where}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
