"""The benchmark's workloads, each one pass of ``bgcsim`` CLI invocations.

A pass is a fixed list of argument vectors.  The benchmark reruns the same
pass in a closed loop, so every repetition must print the same CSV bytes.
The benchmark seed reaches the program only through ``--seed``.  Why each
workload exists is written down in README.md next to this file.
"""

from __future__ import annotations

Q16 = 2**16

# Acceptance criterion 1 grid, (s, u, m, p/m, d, q).  The benchmark keeps its
# own copy so that editing the tests cannot change what it measures.
TINY_GRID = [
    (1, 1, 1, 4, 1, Q16),
    (2, 1, 1, 8, 2, Q16),
    (2, 3, 1, 4, 2, Q16),
    (3, 2, 1, 8, 1, 2),
    (3, 1, 2, 8, 1, 2),
    (4, 2, 3, 4, 1, Q16),
    (5, 1, 1, 32, 1, Q16),
    (5, 3, 1, 8, 4, Q16),
    (5, 5, 3, 8, 2, 2),
    (5, 6, 1, 4, 1, 2),
]
TINY_ADVERSARIES = ("none", "symmetrization", "symmetrization-collusive", "flipflop")
TINY_TRIALS = 25

BIG_BLOCK_TRIALS = 1
FLIPFLOP_TRIALS = 40

WORKLOADS = ("tiny-grid", "big-block", "flipflop-groups")


def invocations(name: str, seed: int) -> list:
    """One pass of ``name``: a list of (argv, protocol runs) pairs."""
    seed_args = ["--seed", str(seed)]
    if name == "tiny-grid":
        out = []
        for s, u, m, block, d, q in TINY_GRID:
            for adversary in TINY_ADVERSARIES:
                argv = [
                    "--s", str(s), "--u", str(u), "--m", str(m), "--p", str(m * block),
                    "--d", str(d), "--q", str(q), "--trials", str(TINY_TRIALS),
                    "--adversary", adversary,
                ]
                out.append((argv + seed_args, TINY_TRIALS))
        return out
    if name == "big-block":
        argv = [
            "--s", "30", "--u", "3", "--p", "1048576", "--d", "4",
            "--trials", str(BIG_BLOCK_TRIALS), "--adversary", "symmetrization",
        ]
        return [(argv + seed_args, BIG_BLOCK_TRIALS)]
    if name == "flipflop-groups":
        argv = [
            "--s", "10", "--u", "1", "--p", "65536", "--d", "16", "--m", "4",
            "--trials", str(FLIPFLOP_TRIALS), "--adversary", "flipflop",
        ]
        return [(argv + seed_args, FLIPFLOP_TRIALS)]
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
