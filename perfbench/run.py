"""bgcsim benchmark: one workload, one seed, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload tiny-grid --seed 1 --seconds 15 --trace 0

Every measurement runs in a fresh single-threaded child interpreter that
imports the package from ``src/`` (see child.py).  With ``--trace 0`` the
benchmark reports the end-to-end metrics of BENCHMARK.json:

  runs_per_s   protocol runs (trials x sweep points) per second of simulation
               at the reference CPU speed, the median over closed-loop passes
               through ``bgcsim.cli.main``;
  peak_rss_mb  ``ru_maxrss`` of that child process;
  setup_s      median time from spawning a child to its first protocol run;
  ok_frac      runs that passed every check over runs attempted (1 - fail_frac).

The host is shared, and how fast it runs this process changes by up to two
times within seconds.  So the timed child runs a fixed calibration chunk
between stretches of program work, and each pass's simulation time is
scaled to the speed at which one chunk takes REF_CHUNK_S: a wall-clock time
t, measured while a chunk took c seconds on average, becomes
t * REF_CHUNK_S / c.  The wall-clock rates are in the detail line.
setup_s stays a wall-clock time: start-up is partly process creation and
file mapping, which do not slow down with the calibration chunk.

With ``--trace 1`` it reports the per-layer metrics from a traced replay of
the same seed, and the tracing overhead.  Either way a traced pass checks
every run (exact decode, honest safety, bounds, oracle calls, CSV bytes).
The last line of standard output is the result object; the line before it
holds the version stamp, CSV digests and other details.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from workloads import WORKLOADS, invocations  # noqa: E402

ROOT = Path.cwd()
CHILD = Path(__file__).resolve().parent / "child.py"
BUDGET_S = 170.0  # a run of the benchmark must end within 180 s
SETUP_PROBES = 9
TIMED_MIN_PASSES = 3
TRACED_MIN_PASSES = 2
MB = 1024.0  # ru_maxrss is in KiB on Linux
REF_CHUNK_S = 1e-3  # reference CPU speed: one calibration chunk per millisecond


class ChildFailed(RuntimeError):
    pass


def child(mode: str, spec: dict, deadline: float) -> dict:
    """Run one child measurement to completion and return its JSON result."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    spec = dict(spec, t0=time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), mode],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            cwd=ROOT,
            env=env,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the child
        raise ChildFailed(f"{mode} child exceeded the time budget") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} child exited with {proc.returncode}")
    return json.loads(lines[-1])


def git_commit():
    """Commit of the checkout when it is a git repository, else None."""
    git = ROOT / ".git"
    try:
        ref = (git / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            return (git / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def source_digest() -> str:
    """sha256 over the package sources: identifies the code version without git."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def spread(values) -> dict:
    """Median, quartiles and sample count of a list of measurements."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def untraced_rates(timed: dict) -> list:
    """Wall-clock runs per second of each timed pass."""
    return [timed["runs_per_pass"] / p["sim_s"] for p in timed["passes"]]


def scaled_rates(timed: dict) -> list:
    """Runs per second of each timed pass at the reference CPU speed."""
    return [timed["runs_per_pass"] / p["sim_s"] * p["chunk_s"] / REF_CHUNK_S for p in timed["passes"]]


def timed_failures(timed: dict) -> tuple:
    """(attempted, failed) over the timed passes; a pass with other CSV bytes fails whole."""
    runs, first = timed["runs_per_pass"], timed["passes"][0]
    failed = 0
    for p in timed["passes"]:
        failed += p["failed"] if p["csv_sha256"] == first["csv_sha256"] else runs
    return runs * len(timed["passes"]), failed


def per_layer(timed: dict, traced: dict) -> dict:
    """Per-layer metrics: medians of per-pass span totals, counts of one pass."""
    passes = traced["passes"]

    def span(name):
        return statistics.median(p["spans"].get(name, 0.0) for p in passes)

    counts = passes[0]["counts"]
    out = {
        name: span(name)
        for name in (
            "core.random_gradients_s",
            "core.full_gradient_s",
            "adversary.instantiate_s",
            "adversary.respond_s",
            "protocol.init_s",
            "protocol.initial_round_s",
            "protocol.build_subsets_s",
            "protocol.tournament_s",
            "protocol.match_s",
            "protocol.commit_round_s",
            "protocol.local_compute_s",
            "protocol.decode_s",
            "protocol.metrics_s",
            "protocol.to_jsonl_s",
            "bounds.report_s",
            "bounds.check_compliance_s",
            "cli.format_rows_s",
        )
    }
    tournament_children = ("protocol.match_s", "protocol.commit_round_s", "protocol.local_compute_s")
    out["protocol.tournament_self_s"] = statistics.median(
        p["spans"].get("protocol.tournament_s", 0.0) - sum(p["spans"].get(c, 0.0) for c in tournament_children)
        for p in passes
    )
    for name, value in counts.items():
        if name not in ("protocol.matches_useful", "protocol.transcript_bytes"):
            out[name] = value
    out["protocol.match_useful_frac"] = (
        counts["protocol.matches_useful"] / counts["protocol.matches"] if counts["protocol.matches"] else 0.0
    )
    out["protocol.transcript_kb"] = counts["protocol.transcript_bytes"] / 1024
    out["core.truth_mb"] = traced["truth_mb"]
    out["adversary.table_mb"] = traced["table_mb"]
    run_ms = traced["run_ms"]
    out["protocol.run_ms_p50"] = statistics.median(run_ms)
    out["protocol.run_ms_p90"] = statistics.quantiles(run_ms, n=10)[8] if len(run_ms) > 1 else run_ms[0]
    traced_rate = statistics.median(timed["runs_per_pass"] / p["traced_s"] for p in passes)
    out["trace.overhead_runs_per_s"] = traced_rate - statistics.median(untraced_rates(timed))
    return out


def measure(args, deadline: float):
    """Run the children for one benchmark run; returns (metrics, attempted, failed, detail)."""
    pass_spec = invocations(args.workload, args.seed)
    runs_per_pass = sum(runs for _, runs in pass_spec)
    spec = {"invocations": pass_spec}
    detail, metrics = {}, {}

    setups = []
    if args.trace == 0:
        child("setup", spec, deadline)  # warm-up: byte-compiles the package, fills the page cache
        setups += [child("setup", spec, deadline)["setup_s"] for _ in range(SETUP_PROBES // 2)]
        seconds = args.seconds
    else:
        seconds = args.seconds / 2

    timed = child("timed", dict(spec, seconds=seconds, min_passes=TIMED_MIN_PASSES), deadline)
    if args.trace == 0:  # probes on both sides of the timed loop average out machine drift
        setups += [child("setup", spec, deadline)["setup_s"] for _ in range(SETUP_PROBES - len(setups))]
        metrics["setup_s"] = statistics.median(setups)
        detail["setup_s"] = spread(setups)
    timed["runs_per_pass"] = runs_per_pass
    traced = child(
        "traced",
        dict(
            spec,
            seconds=0 if args.trace == 0 else seconds,
            min_passes=1 if args.trace == 0 else TRACED_MIN_PASSES,
            expected_csv=timed["csv"],
        ),
        deadline,
    )
    attempted, failed = timed_failures(timed)
    attempted += runs_per_pass * len(traced["passes"])
    failed += sum(p["failed"] for p in traced["passes"])

    rates = scaled_rates(timed)
    if args.trace == 0:
        metrics["runs_per_s"] = statistics.median(rates)
        metrics["peak_rss_mb"] = timed["maxrss_kb"] / MB
        metrics["ok_frac"] = 1.0 - failed / attempted
    else:
        metrics.update(per_layer(timed, traced))
    detail.update(
        runs_per_pass=runs_per_pass,
        runs_per_s=spread(rates),
        wall_runs_per_s=spread(untraced_rates(timed)),
        chunk_ms=spread([p["chunk_s"] * 1e3 for p in timed["passes"]]),
        csv_sha256=timed["passes"][0]["csv_sha256"],
        csv_stable=len({p["csv_sha256"] for p in timed["passes"]}) == 1,
        traced_csv_matches=all(p["csv_sha256"] == timed["passes"][0]["csv_sha256"] for p in traced["passes"]),
        traced_passes=len(traced["passes"]),
        fail_frac=failed / attempted,
        failures=traced["failures"],
        python=timed["python"],
        numpy=timed["numpy"],
    )
    return metrics, attempted, failed, detail


def declared_metrics(trace: int) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + BUDGET_S

    if not (ROOT / "src" / "bgcsim" / "cli.py").is_file():
        print("perfbench: run from the root of a bgcsim checkout (src/bgcsim is missing)", file=sys.stderr)
        return 2
    units = declared_metrics(args.trace)
    try:
        metrics, attempted, failed, detail = measure(args, deadline)
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        runs = sum(runs for _, runs in invocations(args.workload, args.seed))
        print(json.dumps({"correct": False, "attempted": runs, "failed": runs, "metrics": {}}))
        return 1
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: computed metrics {sorted(set(metrics) ^ set(units))} disagree with BENCHMARK.json")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "cpu_count": os.cpu_count(),
        "machine_settings": "untouched (no CPU governor, page cache or affinity changes)",
        **detail,
    }
    print(json.dumps({"detail": detail}))
    correct = failed == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
