"""Alternating parent/change pairs of the perfbench benchmark, summed up in one BENCH_<pr>.json.

Run from the root of the changed checkout, with the parent commit checked out
in its own directory (``git clone`` or ``git archive``, not a worktree):

    python3 scripts/bench_pairs.py --parent ../parent --pr 12 --first-seed 41

The change is timed from a fresh copy of the working tree beside the parent
(``copy_worktree``), removed at the end, so like the parent it runs from a
directory nothing else has used.  Both are byte-compiled first
(``compile_checkout``).
Each side runs its own ``perfbench/run.py`` from its own directory, for the
``run_seconds`` of BENCHMARK.json, on every workload in PAIRS alternating
pairs.  Pair i uses seed first_seed + i; the parent runs first in even pairs
and second in odd ones.  For every end-to-end metric of BENCHMARK.json the
summary gives each side's runs, median and quartiles (perfbench's own
``spread``), how many pairs the change won (ties count for neither side) and
two verdicts:

  claim_holds   the change won at least 9 in 10 pairs and its median beats
                the parent's by more than the parent's interquartile range;
  within_bound  the change's median is worse than the parent's by no more
                than the metric's bound, taken as a fraction of the parent's
                median.

TRACED_PAIRS alternating ``--trace 1`` pairs per workload, at the first
seeds, give the same summary of every per-layer metric, and short runs at
DIGEST_SEEDS give both sides' CSV digests, which must agree.
"""

from __future__ import annotations

import argparse
import json
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

from run import spread  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = Path.cwd()
PAIRS = 10
TRACED_PAIRS = 4
DIGEST_SEEDS = (1, 2, 3)
DIGEST_SECONDS = 2.0


def compare(parent, change, better: str, bound: float = None) -> dict:
    """Paired verdict for one metric; ``parent[i]`` and ``change[i]`` are pair i."""
    if len(parent) != len(change) or not parent:
        raise ValueError("need one parent and one change value per pair")
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    before, after = spread(parent), spread(change)
    iqr = before["q3"] - before["q1"]
    gap = sign * (after["median"] - before["median"])  # > 0 when the change is better
    out = {
        "parent": list(parent),
        "change": list(change),
        **{f"parent_{k}": before[k] for k in ("median", "q1", "q3")},
        "parent_iqr": iqr,
        **{f"change_{k}": after[k] for k in ("median", "q1", "q3")},
        "ratio": after["median"] / before["median"] if before["median"] else None,
        "change_wins": f"{wins}/{len(parent)}",
        "claim_holds": 10 * wins >= 9 * len(parent) and gap > iqr,
    }
    if bound is not None:
        out["within_bound"] = -gap <= bound * abs(before["median"])
    return out


def compile_checkout(checkout: Path) -> None:
    """Write the byte-code cache of ``checkout``'s package and benchmark before its first run.

    perfbench's warm-up probe writes the cache only where Python may write
    byte code.  Under PYTHONDONTWRITEBYTECODE=1 a fresh copy of a checkout has
    none, so every child compiles bgcsim again: 0.4-0.7 MB of peak RSS and
    0.01-0.07 s of set-up on tiny-grid, enough to fake a regression.
    """
    argv = [sys.executable, "-m", "compileall", "-q", "src", "perfbench"]
    subprocess.run(argv, cwd=checkout, check=True, capture_output=True, timeout=600)


def copy_worktree(root: Path, dest: Path) -> None:
    """Copy the working-tree bytes of every file git sees in ``root`` into ``dest``.

    That is every tracked file and every untracked one that is not ignored
    (``git ls-files --cached --others --exclude-standard``); a deleted
    tracked file is skipped, and ignored output such as byte-code caches
    stays behind.
    """
    argv = ["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"]
    names = subprocess.run(argv, cwd=root, check=True, capture_output=True, timeout=600).stdout
    for name in filter(None, names.decode().split("\0")):
        source = root / name
        if source.is_file():
            (dest / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(source, dest / name)


def run_side(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One perfbench run in ``checkout``: its result object with the detail line folded in."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True, timeout=600)
    lines = proc.stdout.strip().splitlines()
    if len(lines) < 2:
        raise RuntimeError(f"perfbench in {checkout} printed no result (exit {proc.returncode}):\n{proc.stderr}")
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def pairs(parent: Path, change: Path, workload: str, seeds, seconds: float, trace: int = 0) -> list:
    """[(parent run, change run)] per seed, the order flipped each pair."""
    out = []
    for i, seed in enumerate(seeds):
        order = [("parent", parent), ("change", change)]
        if i % 2:
            order.reverse()
        runs = {side: run_side(path, workload, seed, seconds, trace) for side, path in order}
        out.append((runs["parent"], runs["change"]))
        print(f"{workload} seed {seed} trace {trace}: done", file=sys.stderr, flush=True)
    return out


def summarize(runs: list, metrics: list) -> dict:
    """Per-metric verdicts and correctness over one workload's pairs."""
    summary = {
        "seeds": [p["detail"]["seed"] for p, _ in runs],
        "csv_sha256_equal": all(p["detail"]["csv_sha256"] == c["detail"]["csv_sha256"] for p, c in runs),
        "all_correct": all(r["correct"] for pair in runs for r in pair),
    }
    for m in metrics:
        name = m["name"]
        summary[name] = compare(
            [p["metrics"][name]["value"] for p, _ in runs],
            [c["metrics"][name]["value"] for _, c in runs],
            m["better"],
            m.get("bound"),
        )
    return summary


def bench(parent: Path, change: Path, spec: dict, first_seed: int) -> dict:
    """The BENCH report of two compiled checkouts (see the module docstring)."""
    seconds = spec["run_seconds"]
    seeds = range(first_seed, first_seed + PAIRS)
    report = {
        "command": f"python3 perfbench/run.py --workload <workload> --seed <seed> --seconds {seconds:g} --trace 0",
        "host": f"{platform.machine()}, Python {platform.python_version()}",
        "pairs": PAIRS,
        "order": "pair i runs the parent first when i is even and the change first when it is odd",
        "verdicts": "claim_holds: >= 9/10 wins and a median gap above the parent IQR; "
        "within_bound: the median worse by at most the BENCHMARK.json bound, relative to the parent's",
        "traced_pairs": f"{TRACED_PAIRS} alternating --trace 1 pairs per workload at the first seeds",
        "summary": {},
        "runs": [],
    }
    for workload in WORKLOADS:
        runs = pairs(parent, change, workload, seeds, seconds)
        report["summary"][workload] = summarize(runs, spec["end_to_end"])
        report["runs"] += [{"workload": workload, "parent": p, "change": c} for p, c in runs]
    report["traced"] = {
        workload: summarize(pairs(parent, change, workload, seeds[:TRACED_PAIRS], seconds, trace=1), spec["per_layer"])
        for workload in WORKLOADS
    }
    report["csv_sha256"] = {
        workload: {
            str(p["detail"]["seed"]): {"parent": p["detail"]["csv_sha256"], "change": c["detail"]["csv_sha256"]}
            for p, c in pairs(parent, change, workload, DIGEST_SEEDS, DIGEST_SECONDS)
        }
        for workload in WORKLOADS
    }
    first = report["runs"][0]
    report["parent_commit"] = first["parent"]["detail"]["git_commit"]
    report["change_src_sha256"] = first["change"]["detail"]["src_sha256"]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    parser.add_argument("--pr", required=True, help="names the output BENCH_<pr>.json")
    parser.add_argument("--first-seed", type=int, required=True, help="seed of the first pair")
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    for checkout in (parent, ROOT):
        if not (checkout / "perfbench" / "run.py").is_file():
            raise SystemExit(f"bench_pairs: {checkout} has no perfbench/run.py")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    change = Path(tempfile.mkdtemp(prefix="change-", dir=parent.parent))
    try:
        copy_worktree(ROOT, change)
        for checkout in (parent, change):  # see compile_checkout
            compile_checkout(checkout)
        report = bench(parent, change, spec, args.first_seed)
    finally:
        shutil.rmtree(change)
    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out.name}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
