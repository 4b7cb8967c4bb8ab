"""Seeded experiment harness: config parsing, sweeps, CSV/JSON output.

Reproducibility contract: the master seed is split into one substream per
(sweep point, trial) via numpy's SeedSequence entropy lists,
``default_rng([seed, point, trial, stream])`` with stream 0 feeding truth
synthesis and stream 1 the adversary; message-level adversaries further
split stream 1 per group.  The protocol itself is deterministic, so a
(config, seed) pair always produces byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np

from .adversary import (
    FlipFlopAdversary,
    NoAdversary,
    SymmetrizationAdversary,
    TableAdversary,
    honest_table,
)
from .bounds import BoundsReport, check_compliance, verify_run
from .core import SchemeParams, random_gradients
from .protocol import ProtocolRun

ADVERSARIES = ("none", "symmetrization", "symmetrization-collusive", "flipflop")
FIGURES = ("fig1", "appendixF-ratio", "appendixF-convergence")
SWEEP_AXES = ("s", "u", "m", "p", "d", "q")

RESULT_COLUMNS = [
    "point",
    "adversary",
    "n",
    "s",
    "u",
    "m",
    "p",
    "d",
    "q",
    "trials",
    "seed",
    "r",
    "T_max",
    "T_mean",
    "c_max",
    "c_mean",
    "kappa_max",
    "kappa_mean",
    "total_comm_max",
    "total_comm_mean",
    "c_lower",
    "c_upper",
    "T_upper",
    "kappa_lower",
    "kappa_upper",
    "draco_total_comm",
    "bounds_ok",
    "correct",
]


@dataclass
class ExperimentConfig:
    s: int
    u: int
    p: int
    d: int
    m: int = 1
    q: int = 65536
    n: int = None  # type: ignore[assignment]
    seed: int = 0
    trials: int = 100
    adversary: str = "none"
    sweep: str = None  # type: ignore[assignment]
    out: str = None  # type: ignore[assignment]
    format: str = "csv"
    dump_transcripts: str = None  # type: ignore[assignment]
    figure: str = None  # type: ignore[assignment]


_CONFIG_KEYS = {f.name for f in fields(ExperimentConfig)}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bgcsim",
        description=(
            "Seeded experiment sweeps for the Byzantine-resilient gradient "
            "coding simulator.  Defaults: q=65536, m=1, trials=100, "
            "format=csv, seed=0, adversary=none."
        ),
    )
    parser.add_argument("--config", type=Path, help="JSON config file; flags override it")
    parser.add_argument("--n", type=int, help="worker count; defaults to m*(s+u)")
    parser.add_argument("--s", type=int, help="maximum number of malicious workers")
    parser.add_argument("--u", type=int, help="guaranteed honest workers per group")
    parser.add_argument("--m", type=int, help="number of groups (default 1)")
    parser.add_argument("--p", type=int, help="number of partial gradients")
    parser.add_argument("--d", type=int, help="gradient dimension")
    parser.add_argument("--q", type=int, help="alphabet size (default 65536)")
    parser.add_argument("--seed", type=int, help="master seed (default 0)")
    parser.add_argument("--trials", type=int, help="trials per sweep point (default 100)")
    parser.add_argument(
        "--adversary",
        help="none|symmetrization|symmetrization-collusive|flipflop|table:<file>",
    )
    parser.add_argument("--sweep", help="axis sweep, e.g. 'u=1..11' or 'p=100,1000'")
    parser.add_argument("--out", help="output file (stdout when omitted)")
    parser.add_argument("--format", choices=("csv", "json"), help="output format")
    parser.add_argument("--dump-transcripts", help="directory for per-run JSONL transcripts")
    parser.add_argument("--figure", choices=FIGURES, help="emit analytic figure data instead of simulating")
    return parser


def parse_config(argv) -> ExperimentConfig:
    """Merge config file and flags (flags win); validate presence and values."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    merged = {}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, json.JSONDecodeError) as exc:
            parser.error(f"cannot read config file: {exc}")
        unknown = set(loaded) - _CONFIG_KEYS
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    for key in _CONFIG_KEYS:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            merged[key] = flag
    for key in ("s", "u", "p", "d"):
        if merged.get(key) is None:
            parser.error(f"missing required parameter: --{key}")
    config = ExperimentConfig(**merged)
    if config.adversary not in ADVERSARIES and not config.adversary.startswith("table:"):
        parser.error(f"unknown adversary: {config.adversary!r}")
    if config.sweep is not None:
        axis = config.sweep.split("=", 1)[0]
        if axis not in SWEEP_AXES:
            parser.error(f"sweep axis must be one of {SWEEP_AXES}: got {axis!r}")
    try:
        expand_sweep(config)
    except ValueError as exc:
        parser.error(str(exc))
    return config


def _sweep_values(spec: str):
    axis, _, rhs = spec.partition("=")
    if not rhs:
        raise ValueError(f"sweep needs the form axis=values: got {spec!r}")
    if ".." in rhs:
        lo, _, hi = rhs.partition("..")
        values = list(range(int(lo), int(hi) + 1))
    else:
        values = [int(x) for x in rhs.split(",")]
    if not values:
        raise ValueError(f"empty sweep: {spec!r}")
    return axis, values


def expand_sweep(config: ExperimentConfig):
    """List of SchemeParams, one per sweep point (a single point without --sweep).

    n is recomputed as m*(s+u) at every point unless pinned explicitly, in
    which case it must match everywhere.
    """
    base = {k: getattr(config, k) for k in ("s", "u", "m", "p", "d", "q")}
    points = [dict(base)]
    if config.sweep is not None:
        axis, values = _sweep_values(config.sweep)
        points = [{**base, axis: v} for v in values]
    out = []
    for point in points:
        if config.n is not None and config.n != point["m"] * (point["s"] + point["u"]):
            raise ValueError(
                f"n={config.n} contradicts m*(s+u)={point['m'] * (point['s'] + point['u'])}"
            )
        out.append(SchemeParams(**point))
    return out


def load_table_adversary(path, params: SchemeParams) -> "_TableFileAdversary":
    """Claimed-table adversary from JSON: {"malicious": [...], "claims": {"j": [[...]...]}}.

    Each claims entry is the worker's full (p/m) x d block, diffed against
    the truth when a run binds it; omitted workers claim the truth.
    """
    spec = json.loads(Path(path).read_text())
    malicious = frozenset(int(j) for j in spec.get("malicious", []))
    overrides = {int(j): np.asarray(v, dtype=np.int64) for j, v in spec.get("claims", {}).items()}
    for j, block in overrides.items():
        if j not in malicious:
            raise ValueError(f"claims given for worker {j} not listed as malicious")
        if block.shape != (params.block_size, params.d):
            raise ValueError(
                f"claims for worker {j} must have shape {(params.block_size, params.d)}"
            )
    return _TableFileAdversary(malicious, overrides)


@dataclass(frozen=True)
class _TableFileAdversary:
    malicious: frozenset
    overrides: dict

    def instantiate(self, params, truth, rng):
        table = honest_table(params, truth)
        for j, block in self.overrides.items():
            start = params.block_of_group(params.group_of_worker(j)).start
            for offset, row in enumerate(block):
                table.set(j, start + offset, row)
        return TableAdversary(table, self.malicious).instantiate(params, truth, rng)


def make_adversary(spec: str, params: SchemeParams):
    if spec == "none":
        return NoAdversary()
    if spec == "symmetrization":
        return SymmetrizationAdversary(mode="per-index")
    if spec == "symmetrization-collusive":
        return SymmetrizationAdversary(mode="collusive")
    if spec == "flipflop":
        return FlipFlopAdversary()
    if spec.startswith("table:"):
        return load_table_adversary(spec[len("table:") :], params)
    raise ValueError(f"unknown adversary: {spec!r}")


class CorrectnessFailure(RuntimeError):
    pass


def run_experiments(config: ExperimentConfig):
    """Execute every (sweep point, trial); return aggregated result rows.

    Any breach of the per-run contract (``bounds.verify_run``) aborts
    immediately with the reproduction handle (point, trial, master seed) in
    the exception message; bound violations only clear ``bounds_ok``.
    """
    points = expand_sweep(config)
    dump_dir = None
    if config.dump_transcripts is not None:
        dump_dir = Path(config.dump_transcripts)
        dump_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for point_idx, params in enumerate(points):
        adversary = make_adversary(config.adversary, params)
        report = BoundsReport.from_params(params)
        t_vals, c_vals, kappa_vals, comm_vals = [], [], [], []
        bounds_ok = True
        for trial in range(config.trials):
            truth_rng = np.random.default_rng([config.seed, point_idx, trial, 0])
            adv_rng = np.random.default_rng([config.seed, point_idx, trial, 1])
            truth = random_gradients(params, truth_rng)
            responder = adversary.instantiate(params, truth, adv_rng)
            ghat, metrics, transcript = ProtocolRun(params, truth, responder, rng=adv_rng).execute()
            problems = verify_run(params, truth, responder.malicious, ghat, transcript)
            if problems:
                raise CorrectnessFailure(
                    f"{'; '.join(problems)} at point={point_idx} trial={trial} seed={config.seed}"
                )
            if check_compliance(params, metrics, transcript):
                bounds_ok = False
            t_vals.append(metrics.T)
            c_vals.append(metrics.c)
            kappa_vals.append(metrics.kappa)
            comm_vals.append(metrics.total_comm)
            if dump_dir is not None:
                name = f"transcript_p{point_idx:03d}_t{trial:05d}.jsonl"
                (dump_dir / name).write_text(transcript.to_jsonl())
        rows.append(
            {
                "point": point_idx,
                "adversary": config.adversary,
                "n": params.n,
                "s": params.s,
                "u": params.u,
                "m": params.m,
                "p": params.p,
                "d": params.d,
                "q": params.q,
                "trials": config.trials,
                "seed": config.seed,
                "r": params.s + params.u,
                "T_max": max(t_vals),
                "T_mean": sum(t_vals) / len(t_vals),
                "c_max": max(c_vals),
                "c_mean": sum(c_vals) / len(c_vals),
                "kappa_max": max(kappa_vals),
                "kappa_mean": sum(kappa_vals) / len(kappa_vals),
                "total_comm_max": max(comm_vals),
                "total_comm_mean": sum(comm_vals) / len(comm_vals),
                "c_lower": report.c_lower,
                "c_upper": report.c_upper,
                "T_upper": report.T_upper,
                "kappa_lower": report.kappa_lower,
                "kappa_upper": report.kappa_upper,
                "draco_total_comm": report.draco_total_comm,
                "bounds_ok": int(bounds_ok),
                "correct": 1,
            }
        )
    return rows


def _figure_grid(config: ExperimentConfig):
    """Doubling grid of p values up to config.p, all valid for the configuration."""
    params = SchemeParams(s=config.s, u=config.u, m=config.m, p=config.p, d=config.d, q=config.q)
    n_dev = params.s // params.u
    block = max(2, n_dev + 1)
    blocks = []
    while block < params.block_size:
        blocks.append(block)
        block *= 2
    blocks.append(params.block_size)
    return [
        SchemeParams(s=config.s, u=config.u, m=config.m, p=b * config.m, d=config.d, q=config.q)
        for b in blocks
    ]


def emit_figure_data(which: str, config: ExperimentConfig):
    """Analytic figure tables; returns (column names, rows)."""
    if which == "fig1":
        columns = ["u", "c_max", "total_comm_symbols", "draco_total_comm", "reduction_fraction"]
        rows = []
        for u in range(1, config.s + 2):
            params = SchemeParams(s=config.s, u=u, m=config.m, p=config.p, d=config.d, q=config.q)
            report = BoundsReport.from_params(params)
            total = params.n * params.d + report.kappa_upper
            draco = report.draco_total_comm
            rows.append(
                {
                    "u": u,
                    "c_max": report.c_upper,
                    "total_comm_symbols": total,
                    "draco_total_comm": draco,
                    "reduction_fraction": 1.0 - total / draco,
                }
            )
        return columns, rows
    if which == "appendixF-ratio":
        columns = ["p", "kappa_upper", "kappa_lower"]
        rows = []
        for params in _figure_grid(config):
            report = BoundsReport.from_params(params)
            rows.append(
                {"p": params.p, "kappa_upper": report.kappa_upper, "kappa_lower": report.kappa_lower}
            )
        return columns, rows
    if which == "appendixF-convergence":
        columns = ["p", "ratio", "ratio_limit"]
        rows = []
        for params in _figure_grid(config):
            report = BoundsReport.from_params(params)
            if report.kappa_lower is None or report.kappa_lower == 0.0:
                raise ValueError("convergence grid needs floor(s/u) >= 1")
            rows.append(
                {
                    "p": params.p,
                    "ratio": report.kappa_upper / report.kappa_lower,
                    "ratio_limit": report.ratio_limit,
                }
            )
        return columns, rows
    raise ValueError(f"unknown figure: {which!r}")


def format_rows(columns, rows, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(rows, indent=2) + "\n"
    lines = [",".join(columns)]
    for row in rows:
        lines.append(",".join(_cell(row[c]) for c in columns))
    return "\n".join(lines) + "\n"


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def main(argv=None) -> int:
    config = parse_config(sys.argv[1:] if argv is None else argv)
    if config.figure is not None:
        columns, rows = emit_figure_data(config.figure, config)
        all_ok = True
    else:
        try:
            rows = run_experiments(config)
        except CorrectnessFailure as exc:
            print(f"FAILED: {exc}", file=sys.stderr)
            return 1
        columns = RESULT_COLUMNS
        all_ok = all(row["bounds_ok"] and row["correct"] for row in rows)
    text = format_rows(columns, rows, config.format)
    if config.out is None:
        sys.stdout.write(text)
    else:
        Path(config.out).write_text(text)
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
