"""Every adaptive strategy of every size-s coalition at configurations too slow for tier-1.

    PYTHONPATH=src python3 scripts/exhaustive.py                 # the default configurations
    PYTHONPATH=src python3 scripts/exhaustive.py "2 1 1 4 1 3"   # any "s u m p d q"

Runs ``worst_runs`` from ``tests/adversaries.py``, the enumerator behind
``tests/test_protocol.py::test_every_adaptive_strategy_at_tiny_configurations``:
choice tapes walked depth-first, malformed answers included, against the
truth drawn from seed 0, which stands for every truth (see ``worst_runs``).
For each configuration it prints the number of runs,
the worst (T, c, kappa_symbols, kappa_bits), the bounds (T_upper, c_upper,
kappa_upper) in the same order and the wall time.  A run that breaches the per-run contract or
a bound stops it with an AssertionError naming the run.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from adversaries import worst_runs  # noqa: E402

from bgcsim.bounds import scheme_upper_bounds  # noqa: E402
from bgcsim.core import SchemeParams  # noqa: E402

CONFIGS = ["3 2 1 4 1 3", "4 2 2 4 1 2"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("configs", nargs="*", default=CONFIGS, metavar="'s u m p d q'")
    args = parser.parse_args(argv)
    print("s u m p d q | runs | worst T, c, kappa_symbols, kappa_bits | T_upper, c_upper, kappa_upper | time")
    for config in args.configs:
        s, u, m, p, d, q = map(int, config.split())
        params = SchemeParams(s=s, u=u, m=m, p=p, d=d, q=q)
        start = time.perf_counter()
        runs, *worst = worst_runs(params)
        elapsed = time.perf_counter() - start
        c_upper, t_upper, kappa_upper = scheme_upper_bounds(params)
        print(
            f"{config} | {runs} | {', '.join(map(str, worst))} | "
            f"{t_upper}, {c_upper}, {kappa_upper:.6g} | {elapsed:.1f} s",
            flush=True,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
