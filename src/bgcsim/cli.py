"""Seeded experiment harness: config parsing, sweeps, CSV/JSON output.

Reproducibility contract: the master seed is split into one substream per
(sweep point, trial) via numpy's SeedSequence entropy lists,
``default_rng([seed, point, trial, stream])`` with stream 0 feeding truth
synthesis and stream 1 the adversary; message-level adversaries further
split stream 1 per group.  No per-trial ``default_rng`` call is made: the
uint32 words SeedSequence would build from each list are hashed for a batch
of trials at once (``_seed_states``, numpy's SeedSequence hash in uint32
array arithmetic), and PCG64 is handed the resulting seed words; so are the
first children a stream spawns, whose words are its own plus their index.
Every stream, and every stream spawned from it, is bit-identical to the list
form's.  The protocol itself is deterministic, so a (config, seed) pair
always produces byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import cache, cached_property
from itertools import groupby
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

_STRATEGIES = {  # each strategy is immutable, so one instance serves every sweep point
    "none": NoAdversary(),
    "symmetrization": SymmetrizationAdversary(mode="per-index"),
    "symmetrization-collusive": SymmetrizationAdversary(mode="collusive"),
    "flipflop": FlipFlopAdversary(),
}
ADVERSARIES = tuple(_STRATEGIES)
_FIGURE_COLUMNS = {
    "fig1": ("u", "c_max", "total_comm_symbols", "draco_total_comm", "reduction_fraction"),
    "appendixF-ratio": ("p", "kappa_upper", "kappa_lower"),
    "appendixF-convergence": ("p", "ratio", "ratio_limit"),
}
FIGURES = tuple(_FIGURE_COLUMNS)
SWEEP_AXES = tuple(f.name for f in fields(SchemeParams) if f.init)
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


def _setting(text: str, default=MISSING, choices=None):
    """An ExperimentConfig field: its flag's help text and, for a closed set of values, their choices."""
    return field(default=default, metadata={"help": text, "choices": choices})


@dataclass
class ExperimentConfig:
    """Every setting of an experiment; each field is one flag and one config-file key."""

    s: int = _setting("maximum number of malicious workers")
    u: int = _setting("guaranteed honest workers per group")
    p: int = _setting("number of partial gradients")
    d: int = _setting("gradient dimension")
    m: int = _setting("number of groups", 1)
    q: int = _setting("alphabet size", 65536)
    seed: int = _setting("master seed", 0)
    trials: int = _setting("trials per sweep point", 100)
    adversary: str = _setting("|".join(ADVERSARIES) + "|table:<file>", "none")
    sweep: str = _setting("axis sweep, e.g. 'u=1..11' or 'p=100,1000'", None)
    out: str = _setting("output file; None writes to standard output", None)
    format: str = _setting("output format", "csv", ("csv", "json"))
    dump_transcripts: str = _setting("directory for per-run JSONL transcripts", None)
    figure: str = _setting("emit analytic figure data instead of simulating", None, FIGURES)


_CONFIG_FIELDS = {f.name: f for f in fields(ExperimentConfig)}
_REQUIRED = tuple(key for key, spec in _CONFIG_FIELDS.items() if spec.default is MISSING)
_KINDS = {"int": (int, "an integer"), "str": (str, "a string")}  # annotation -> (type, its name)


def _flag(key: str) -> str:
    return "--" + key.replace("_", "-")


class ConfigError(ValueError):
    """A bad configuration, reported by ``main`` as one ``bgcsim: error:`` line with exit 2."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        """argparse's usage errors raise ConfigError, so they leave ``main`` as every other one does."""
        raise ConfigError(message)


@cache  # argparse keeps no state between parses; building one costs ~0.8 ms
def _build_parser() -> argparse.ArgumentParser:
    """One flag per ExperimentConfig field, each defaulting to None so a flag not given is seen."""
    parser = _Parser(
        prog="bgcsim",
        description="Seeded experiment sweeps for the Byzantine-resilient gradient coding simulator.",
    )
    parser.add_argument("--config", type=Path, help="JSON config file; flags override it")
    for key, spec in _CONFIG_FIELDS.items():
        default = "required" if spec.default is MISSING else f"default {spec.default}"
        help_line = f"{spec.metadata['help']} ({default})"
        parser.add_argument(_flag(key), type=_KINDS[spec.type][0], choices=spec.metadata["choices"], help=help_line)
    return parser


def parse_config(argv) -> ExperimentConfig:
    """Merge config file and flags (flags win); validate presence and values.

    Raises ConfigError on any bad input; only ``-h`` exits, as argparse does.
    """
    args = _build_parser().parse_args(argv)
    merged = {}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text())
        except (OSError, ValueError, RecursionError) as exc:  # ValueError: bad UTF-8 or JSON
            raise ConfigError(f"cannot read config file: {exc}") from None
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = set(loaded) - set(_CONFIG_FIELDS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        merged.update(loaded)
    merged.update({key: getattr(args, key) for key in _CONFIG_FIELDS if getattr(args, key) is not None})
    for key in _REQUIRED:
        if merged.get(key) is None:
            raise ConfigError(f"missing required parameter: {_flag(key)}")
    for key, value in merged.items():  # argparse checked the flags already; this checks the file too
        spec = _CONFIG_FIELDS[key]
        if value is None and spec.default is None:
            continue
        kind, kind_name = _KINDS[spec.type]
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ConfigError(f"config key {key!r} must be {kind_name}: got {json.dumps(value)}")
        choices = spec.metadata["choices"]
        if choices is not None and value not in choices:
            raise ConfigError(f"{key} must be one of {choices}: got {value!r}")
    config = ExperimentConfig(**merged)
    if config.figure is not None:
        given = [key for key in SIMULATION_ONLY if merged.get(key) is not None]
        if given:
            flags = ", ".join(_flag(key) for key in given)
            raise ConfigError(f"--figure runs no simulation and takes no {flags}")
    if config.trials < 1:
        raise ConfigError(f"--trials must be at least 1: got {config.trials}")
    if config.seed < 0:
        raise ConfigError(f"--seed must be non-negative: got {config.seed}")
    if config.adversary not in ADVERSARIES and not config.adversary.startswith("table:"):
        raise ConfigError(f"unknown adversary: {config.adversary!r}")
    try:
        expand_sweep(config)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    return config


def _sweep_values(spec: str):
    axis, _, rhs = spec.partition("=")
    if axis not in SWEEP_AXES:
        raise ValueError(f"sweep axis must be one of {SWEEP_AXES}: got {axis!r}")
    if not rhs:
        raise ValueError(f"sweep needs the form axis=values: got {spec!r}")
    lo, dots, hi = rhs.partition("..")
    try:
        values = list(range(int(lo), int(hi) + 1)) if dots else [int(x) for x in rhs.split(",")]
    except ValueError:
        raise ValueError(f"sweep values must be integers: got {spec!r}") from None
    if not values:
        raise ValueError(f"empty sweep: {spec!r}")
    return axis, values


def expand_sweep(config: ExperimentConfig):
    """List of SchemeParams, one per sweep point (a single point without --sweep).

    Each point derives n = m*(s+u).  Raises ValueError on a malformed sweep
    or invalid parameters at any point.
    """
    base = {k: getattr(config, k) for k in SWEEP_AXES}
    if config.sweep is None:
        return [SchemeParams(**base)]
    axis, values = _sweep_values(config.sweep)
    return [SchemeParams(**{**base, axis: v}) for v in values]


def load_table_adversary(path, params: SchemeParams) -> "_TableFileAdversary":
    """Claimed-table adversary from JSON: {"malicious": [...], "claims": {"j": [[...]...]}}.

    Each claims entry is the worker's full (p/m) x d block of JSON integers,
    keyed by the worker id in decimal, and is diffed against the truth when a
    run binds it; omitted workers claim the truth.  Raises ConfigError
    when the file cannot be read or does not fit ``params``.
    """
    try:
        spec = json.loads(Path(path).read_text())
        ids = list(spec.get("malicious", []))
        claims = spec.get("claims", {})
        overrides = {int(j): np.asarray(v, dtype=np.int64) for j, v in claims.items()}
    except (OSError, ValueError, TypeError, AttributeError, OverflowError, RecursionError) as exc:
        raise ConfigError(f"cannot read table file {path}: {exc}") from exc
    if not all(isinstance(j, int) and not isinstance(j, bool) for j in ids):
        raise ConfigError(f"cannot read table file {path}: worker ids must be JSON integers")
    if not all(str(int(j)) == j for j in claims):
        raise ConfigError(f"cannot read table file {path}: claims keys must be decimal worker ids")
    malicious = frozenset(ids)
    if not all(1 <= j <= params.n for j in malicious):
        raise ConfigError(f"malicious worker ids must be in 1..{params.n}: got {sorted(malicious)}")
    if len(malicious) > params.s:
        raise ConfigError(f"{len(malicious)} malicious workers exceed the budget s={params.s}")
    for j, block in overrides.items():
        if j not in malicious:
            raise ConfigError(f"claims given for worker {j} not listed as malicious")
        if block.shape != (params.block_size, params.d):
            raise ConfigError(
                f"claims for worker {j} must have shape {(params.block_size, params.d)}"
            )
        if not all(type(x) is int for row in claims[str(j)] for x in row):  # no bools or floats
            raise ConfigError(f"cannot read table file {path}: claims must be JSON integers")
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
    if spec.startswith("table:"):
        return load_table_adversary(spec[len("table:") :], params)
    if spec not in _STRATEGIES:
        raise ValueError(f"unknown adversary: {spec!r}")
    planted = params.s // params.u
    if isinstance(_STRATEGIES[spec], SymmetrizationAdversary) and planted > params.block_size:
        raise ConfigError(
            f"{spec} needs floor(s/u) <= p/m: got floor({params.s}/{params.u}) = {planted} "
            f"> {params.p}/{params.m} = {params.block_size}"
        )
    return _STRATEGIES[spec]


class CorrectnessFailure(RuntimeError):
    pass


def _uint32_words(value: int) -> list:
    """``value``'s 32-bit words, low first (0 is [0]): how SeedSequence reads an int."""
    return [value & 0xFFFFFFFF, *_uint32_words(value >> 32)] if value >> 32 else [value]


# numpy's SeedSequence hash constants (bit_generator.pyx).
_INIT_A, _MULT_A, _INIT_B, _MULT_B = 0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R, _SHIFT = np.uint32(0xCA01F9DD), np.uint32(0x4973F715), np.uint32(16)
_OTHER_LANES = [np.array([lane for lane in range(4) if lane != src]) for src in range(4)]
_SEED_CHUNK = 256  # trials seeded per batch


def _hash_constants(init: int, mult: int, steps: int):
    """(xor, multiply) columns of ``steps`` successive SeedSequence hash steps.

    The running constant is a Python int masked to 32 bits: numpy scalar
    arithmetic would warn as it wraps.
    """
    consts = [init]
    for _ in range(steps):
        consts.append(consts[-1] * mult & 0xFFFFFFFF)
    consts = np.array(consts, dtype=np.uint32)[:, None]
    return consts[:-1], consts[1:]


def _hash(values, consts, start: int, stop: int):
    """numpy's ``hashmix`` with steps start..stop-1 of ``consts``, one per row of ``values``.

    uint32 arrays wrap silently; only numpy scalar arithmetic warns.
    """
    xors, mults = consts
    values = (values ^ xors[start:stop]) * mults[start:stop]
    return values ^ values >> _SHIFT


def _mix(x, y):
    """numpy's ``mix`` of pool words x with hashed words y."""
    out = x * _MIX_L - y * _MIX_R
    return out ^ out >> _SHIFT


def _seed_states(entropy) -> np.ndarray:
    """Row i is ``SeedSequence(entropy[i]).generate_state(4, np.uint64)``; entropy is (k, L >= 4) uint32.

    numpy's pool mixing and output hash, run on every row at once with the
    four pool lanes as rows.  The hash constants advance the same way for
    every entropy row, one step per hashed word.
    """
    entropy = entropy.T
    width = entropy.shape[0]
    steps = _hash_constants(_INIT_A, _MULT_A, 4 * width)
    pool = _hash(entropy[:4], steps, 0, 4)
    for src, dst in enumerate(_OTHER_LANES):  # every pool word into the other three
        pool[dst] = _mix(pool[dst], _hash(pool[src], steps, 4 + 3 * src, 7 + 3 * src))
    for src in range(4, width):  # words past the pool into all four
        pool = _mix(pool, _hash(entropy[src], steps, 4 * src, 4 * src + 4))
    out = _hash(np.concatenate([pool, pool]), _hash_constants(_INIT_B, _MULT_B, 8), 0, 8)
    out = out.astype(np.uint64)  # 8 words, each uint64 is a (low, high) pair
    return np.ascontiguousarray((out[0::2] | out[1::2] << np.uint64(32)).T)


class _Seeded(np.random.bit_generator.ISpawnableSeedSequence):
    """``SeedSequence(entropy)`` whose PCG64 seed words ``_seed_states`` hashed in advance.

    ``batch`` is its stream's entropy rows in a chunk of trials and their
    children hashed so far, by count; ``at`` is its row.  A first spawn
    before any other request takes its children from there; anything else
    goes to one real SeedSequence made on first need and told of them, so
    later children, grandchildren and their numbering are numpy's own.
    """

    def __init__(self, entropy, state, batch=None, at=None):
        self.entropy, self.state, self._batch, self._at, self._spawned = entropy, state, batch, at, 0

    @cached_property
    def _sequence(self):
        return np.random.SeedSequence(self.entropy, n_children_spawned=self._spawned)

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words == 4 and dtype is np.uint64:  # what PCG64 asks for when it is made
            return self.state
        return self._sequence.generate_state(n_words, dtype)

    def spawn(self, n_children):
        batch, self._batch = self._batch, None
        if batch is None or "_sequence" in vars(self):
            return self._sequence.spawn(n_children)
        entropy, hashed = batch
        if n_children not in hashed:  # child i's entropy is its parent's row + [i]
            index = np.tile(np.arange(n_children, dtype=np.uint32), len(entropy))
            rows = np.column_stack([np.repeat(entropy, n_children, axis=0), index])
            hashed[n_children] = rows, _seed_states(rows)
        rows, states = hashed[n_children]
        self._spawned, first = n_children, self._at * n_children
        return [_Seeded(rows[i], states[i]) for i in range(first, first + n_children)]


def _trial_generators(prefix_words, trials: range):
    """(stream 0, stream 1) of each trial: ``default_rng([*prefix, trial, k])`` for k = 0, 1.

    Trials are seeded in batches that start at multiples of _SEED_CHUNK, so
    memory does not grow with their number.  A trial's word count changes
    only at powers of 2**32, all multiples of _SEED_CHUNK, so the rows of a
    batch have one width; each stream's rows of a batch are hashed together.
    """
    for _, batch_trials in groupby(trials, lambda trial: trial // _SEED_CHUNK):
        rows = [[*prefix_words, *_uint32_words(trial), k] for trial in batch_trials for k in (0, 1)]
        entropy = np.array(rows, dtype=np.uint32)  # a trial's k = 0, 1 in turn
        states, seeds = _seed_states(entropy), [None] * len(rows)
        for k in (0, 1):
            batch = entropy[k::2], {}
            seeds[k::2] = [
                _Seeded(row, state, batch, j) for j, (row, state) in enumerate(zip(batch[0], states[k::2]))
            ]
        streams = (np.random.Generator(np.random.PCG64(seed)) for seed in seeds)
        yield from zip(streams, streams)


def _handle(point: int, trial: int, config: ExperimentConfig) -> str:
    """What reproduces one run: its sweep point, its trial and the master seed."""
    return f"point={point} trial={trial} seed={config.seed}"


def run_experiments(config: ExperimentConfig):
    """Execute every (sweep point, trial); return aggregated result rows.

    Any breach of the per-run contract (``bounds.verify_run``), or a
    ``ProtocolError`` raised inside a run, aborts immediately with the
    reproduction handle (point, trial, master seed) in the exception
    message; a breaching run's transcript is dumped first and named there.
    Bound violations clear ``bounds_ok``, and the first violating run of a
    point prints one line with its handle and violations on standard error.
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
        trials = range(config.trials)
        prefix = _uint32_words(config.seed) + _uint32_words(point_idx)
        for trial, (truth_rng, adv_rng) in zip(trials, _trial_generators(prefix, trials)):
            truth = random_gradients(params, truth_rng)
            try:
                result = run_trial(params, truth, adversary, adv_rng)
            except ProtocolError as exc:  # an engine invariant broke: a bug, reported like a breach
                handle = _handle(point_idx, trial, config)
                raise CorrectnessFailure(f"protocol error: {exc} at {handle}") from None
            if dump_dir is not None:  # before a breach is raised, so the failed run is dumped too
                dumped = dump_dir / f"transcript_p{point_idx:03d}_t{trial:05d}.jsonl"
                _write(dumped, result.transcript.to_jsonl())
            if result.breaches:
                handle = _handle(point_idx, trial, config)
                if dump_dir is not None:
                    handle += f"; transcript {dumped}"
                raise CorrectnessFailure(f"{'; '.join(result.breaches)} at {handle}")
            if result.violations and bounds_ok:  # the first violating run of this point
                handle, violations = _handle(point_idx, trial, config), "; ".join(result.violations)
                print(f"bgcsim: bound violated at {handle}: {violations}", file=sys.stderr)
            bounds_ok = bounds_ok and not result.violations
            for metric in METRICS:
                values[metric].append(getattr(result.metrics, metric))
            del truth, result  # so the next trial's truth is drawn with this one freed
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


def emit_figure_data(which: str, config: ExperimentConfig):
    """Analytic figure tables; returns (column names, rows).

    fig1 has one row per u = 1..s+1; the appendix figures have one per p/m
    in a doubling grid from max(2, floor(s/u) + 1) up to the configured p/m.
    """
    if which not in FIGURES:
        raise ValueError(f"unknown figure: {which!r}")
    base = SchemeParams(**{k: getattr(config, k) for k in SWEEP_AXES})
    if which == "fig1":
        points = [replace(base, u=u) for u in range(1, base.s + 2)]
    else:
        block, blocks = max(2, base.s // base.u + 1), []
        while block < base.block_size:
            blocks.append(block)
            block *= 2
        points = [replace(base, p=b * base.m) for b in [*blocks, base.block_size]]
    rows = []
    for params in points:
        report = BoundsReport.from_params(params)
        if which == "appendixF-convergence" and not report.kappa_lower:
            raise ConfigError(
                f"appendixF-convergence needs floor(s/u) >= 1: got s={config.s}, u={config.u}"
            )
        total = params.n * params.d + report.kappa_upper
        cells = {
            **vars(report),
            "u": params.u,
            "p": params.p,
            "c_max": report.c_upper,
            "total_comm_symbols": total,
            "reduction_fraction": 1.0 - total / report.draco_total_comm,
            "ratio": report.kappa_lower and report.kappa_upper / report.kappa_lower,  # printed only where > 0
        }
        rows.append({column: cells[column] for column in _FIGURE_COLUMNS[which]})
    return list(_FIGURE_COLUMNS[which]), rows


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
    try:
        config = parse_config(sys.argv[1:] if argv is None else argv)
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
    except MemoryError as exc:
        print(f"bgcsim: error: out of memory: {exc}", file=sys.stderr)
        return 2
    return 0 if all_ok else 1
