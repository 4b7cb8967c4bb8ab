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
    ClaimedGradientTable,
    FlipFlopAdversary,
    NoAdversary,
    SymmetrizationAdversary,
    _table_responder,
)
from .bounds import BoundsReport, run_trial
from .core import SchemeParams, random_gradients
from .protocol import ProtocolError

ADVERSARIES = ("none", "symmetrization", "symmetrization-collusive", "flipflop")
FIGURES = ("fig1", "appendixF-ratio", "appendixF-convergence")
SWEEP_AXES = ("s", "u", "m", "p", "d", "q")
# Keys --figure rejects: a figure is analytic and runs no simulation.
SIMULATION_ONLY = ("sweep", "adversary", "trials", "seed", "dump_transcripts")
METRICS = ("T", "c", "kappa", "total_comm")  # each reported as its max and mean over the trials

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


_CONFIG_FIELDS = {f.name: f for f in fields(ExperimentConfig)}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """Every usage error is one ``bgcsim: error:`` line with exit 2, without the usage text."""
        self.exit(2, f"{self.prog}: error: {message}\n")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
            parser.error(f"cannot read config file: {exc}")
        if not isinstance(loaded, dict):
            parser.error("config file must hold a JSON object")
        unknown = set(loaded) - set(_CONFIG_FIELDS)
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    for key in _CONFIG_FIELDS:
        flag = getattr(args, key.replace("-", "_"), None)
        if flag is not None:
            merged[key] = flag
    for key in ("s", "u", "p", "d"):
        if merged.get(key) is None:
            parser.error(f"missing required parameter: --{key}")
    for key, value in merged.items():  # flags are typed by argparse; this checks the file
        spec = _CONFIG_FIELDS[key]
        if value is None and spec.default is None:
            continue
        if spec.type == "int" and (isinstance(value, bool) or not isinstance(value, int)):
            parser.error(f"config key {key!r} must be an integer: got {json.dumps(value)}")
        if spec.type == "str" and not isinstance(value, str):
            parser.error(f"config key {key!r} must be a string: got {json.dumps(value)}")
    config = ExperimentConfig(**merged)
    if config.figure is not None:
        given = [key for key in SIMULATION_ONLY if merged.get(key) is not None]
        if given:
            flags = ", ".join("--" + key.replace("_", "-") for key in given)
            parser.error(f"--figure runs no simulation and takes no {flags}")
        if config.figure == "fig1" and config.n is not None:
            parser.error("--figure fig1 sweeps u, which changes n = m*(s+u), and takes no --n")
    if config.trials < 1:
        parser.error(f"--trials must be at least 1: got {config.trials}")
    if config.seed < 0:
        parser.error(f"--seed must be non-negative: got {config.seed}")
    if config.adversary not in ADVERSARIES and not config.adversary.startswith("table:"):
        parser.error(f"unknown adversary: {config.adversary!r}")
    if config.format not in ("csv", "json"):
        parser.error(f"format must be csv or json: got {config.format!r}")
    if config.figure is not None and config.figure not in FIGURES:
        parser.error(f"figure must be one of {FIGURES}: got {config.figure!r}")
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


class ConfigError(ValueError):
    """A configuration that parses but cannot run; reported as one line with exit 2."""


class TableFileError(ConfigError):
    """A ``table:<file>`` adversary that cannot be read or does not fit the configuration."""


def load_table_adversary(path, params: SchemeParams) -> "_TableFileAdversary":
    """Claimed-table adversary from JSON: {"malicious": [...], "claims": {"j": [[...]...]}}.

    Each claims entry is the worker's full (p/m) x d block of JSON integers,
    keyed by the worker id in decimal, and is diffed against the truth when a
    run binds it; omitted workers claim the truth.  Raises TableFileError
    when the file cannot be read or does not fit ``params``.
    """
    try:
        spec = json.loads(Path(path).read_text())
        ids = list(spec.get("malicious", []))
        claims = spec.get("claims", {})
        overrides = {int(j): np.asarray(v, dtype=np.int64) for j, v in claims.items()}
    except (OSError, ValueError, TypeError, AttributeError, OverflowError, RecursionError) as exc:
        raise TableFileError(f"cannot read table file {path}: {exc}") from exc
    if not all(isinstance(j, int) and not isinstance(j, bool) for j in ids):
        raise TableFileError(f"cannot read table file {path}: worker ids must be JSON integers")
    if not all(str(int(j)) == j for j in claims):
        raise TableFileError(f"cannot read table file {path}: claims keys must be decimal worker ids")
    malicious = frozenset(ids)
    if not all(1 <= j <= params.n for j in malicious):
        raise TableFileError(f"malicious worker ids must be in 1..{params.n}: got {sorted(malicious)}")
    if len(malicious) > params.s:
        raise TableFileError(f"{len(malicious)} malicious workers exceed the budget s={params.s}")
    for j, block in overrides.items():
        if j not in malicious:
            raise TableFileError(f"claims given for worker {j} not listed as malicious")
        if block.shape != (params.block_size, params.d):
            raise TableFileError(
                f"claims for worker {j} must have shape {(params.block_size, params.d)}"
            )
        if not all(type(x) is int for row in claims[str(j)] for x in row):  # no bools or floats
            raise TableFileError(f"cannot read table file {path}: claims must be JSON integers")
    return _TableFileAdversary(malicious, overrides)


@dataclass(frozen=True)
class _TableFileAdversary:
    malicious: frozenset
    overrides: dict

    def instantiate(self, params, truth, rng):
        # Claims exist only for listed workers (load_table_adversary checks)
        # and the table is built on this run's truth, so TableAdversary's
        # honest-worker check could not fail here.
        table = ClaimedGradientTable(params, truth)
        for j, block in self.overrides.items():
            start = params.block_of_group(params.group_of_worker(j)).start
            for offset, row in enumerate(block):
                table.set(j, start + offset, row)
        return _table_responder(self.malicious, table)


def make_adversary(spec: str, params: SchemeParams):
    planted = params.s // params.u
    if spec in ("symmetrization", "symmetrization-collusive") and planted > params.block_size:
        raise ConfigError(
            f"{spec} needs floor(s/u) <= p/m: got floor({params.s}/{params.u}) = {planted} "
            f"> {params.p}/{params.m} = {params.block_size}"
        )
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

    Any breach of the per-run contract (``bounds.verify_run``), or a
    ``ProtocolError`` raised inside a run, aborts immediately with the
    reproduction handle (point, trial, master seed) in the exception
    message; bound violations only clear ``bounds_ok``.
    """
    points = expand_sweep(config)
    adversaries = [make_adversary(config.adversary, params) for params in points]
    dump_dir = None
    if config.dump_transcripts is not None:
        dump_dir = Path(config.dump_transcripts)
        dump_dir.mkdir(parents=True, exist_ok=True)
    rows = []
    for point_idx, (params, adversary) in enumerate(zip(points, adversaries)):
        values = {metric: [] for metric in METRICS}
        bounds_ok = True
        for trial in range(config.trials):
            truth_rng = np.random.default_rng([config.seed, point_idx, trial, 0])
            adv_rng = np.random.default_rng([config.seed, point_idx, trial, 1])
            truth = random_gradients(params, truth_rng)
            try:
                result = run_trial(params, truth, adversary, adv_rng)
                breaches = result.breaches
            except ProtocolError as exc:  # an engine invariant broke: a bug, reported like a breach
                breaches = [f"protocol error: {exc}"]
            if breaches:
                handle = f"point={point_idx} trial={trial} seed={config.seed}"
                raise CorrectnessFailure(f"{'; '.join(breaches)} at {handle}")
            bounds_ok = bounds_ok and not result.violations
            for metric in METRICS:
                values[metric].append(getattr(result.metrics, metric))
            if dump_dir is not None:
                name = f"transcript_p{point_idx:03d}_t{trial:05d}.jsonl"
                _write(dump_dir / name, result.transcript.to_jsonl())
        cells = {
            "point": point_idx,
            "adversary": config.adversary,
            "trials": config.trials,
            "seed": config.seed,
            "r": params.s + params.u,
            "bounds_ok": int(bounds_ok),
            "correct": 1,
            **{axis: getattr(params, axis) for axis in ("n", *SWEEP_AXES)},
            **vars(BoundsReport.from_params(params)),
        }
        for metric, vals in values.items():
            cells[f"{metric}_max"] = max(vals)
            cells[f"{metric}_mean"] = sum(vals) / len(vals)
        rows.append({column: cells[column] for column in RESULT_COLUMNS})
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
                raise ConfigError(
                    f"appendixF-convergence needs floor(s/u) >= 1: got s={config.s}, u={config.u}"
                )
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


def _write(path, text: str) -> None:
    """Write an output file; a failed write is a ConfigError (one line, exit 2)."""
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from exc


def check_outputs(config: ExperimentConfig) -> None:
    """Raise ConfigError unless the output file and the dump directory can be written."""
    for flag, target in (("--out", config.out), ("--dump-transcripts", config.dump_transcripts)):
        if target is not None and "\0" in target:
            raise ConfigError(f"{flag} must not contain a NUL character")
    try:
        if config.out is not None:
            out = Path(config.out)
            if out.is_dir() or not out.parent.is_dir():
                raise ConfigError(f"--out must name a file in an existing directory: {config.out}")
        if config.dump_transcripts is not None:
            dump = Path(config.dump_transcripts)
            existing = next(path for path in (dump, *dump.parents) if path.exists())
            if not existing.is_dir():
                raise ConfigError(f"--dump-transcripts must name a directory: {existing} is a file")
            on_dump_path = (dump.resolve(), *dump.resolve().parents)  # made as directories
            if config.out is not None and Path(config.out).resolve() in on_dump_path:
                raise ConfigError(f"--out must not lie on the --dump-transcripts path: {config.out}")
    except OSError as exc:  # a path the system will not look up, such as a name too long
        raise ConfigError(f"cannot use output path: {exc}") from exc


def main(argv=None) -> int:
    config = parse_config(sys.argv[1:] if argv is None else argv)
    try:
        check_outputs(config)
        if config.figure is not None:
            columns, rows = emit_figure_data(config.figure, config)
            all_ok = True
        else:
            rows = run_experiments(config)
            columns = RESULT_COLUMNS
            all_ok = all(row["bounds_ok"] and row["correct"] for row in rows)
        text = format_rows(columns, rows, config.format)
        if config.out is None:
            sys.stdout.write(text)
        else:
            _write(config.out, text)
    except CorrectnessFailure as exc:
        print(f"FAILED: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"bgcsim: error: {exc}", file=sys.stderr)
        return 2
    return 0 if all_ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
