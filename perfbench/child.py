"""One measurement in a fresh interpreter, driven by run.py.

Usage: python3 perfbench/child.py {setup|timed|traced} < spec.json

The spec lists one pass of CLI argument vectors with their run counts.  The
modes are:

  setup   time from the parent's spawn stamp to the first protocol run of the
          first invocation, then stop;
  timed   rerun the pass through ``bgcsim.cli.main`` in a closed loop, with
          tracing off;
  traced  replay the pass through the public functions of each module, with
          spans and counts recorded from outside the package and the
          correctness gate applied to every run.

The timed mode also measures the speed of the CPU it runs on, by timing a
fixed calibration chunk between stretches of program work (see Calibrator);
run.py scales the simulation times to a reference speed with it.

The last line of standard output is one JSON object with the results.
Nothing under ``src/`` is modified; wrappers are installed on module
attributes and run instances of this process only.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import resource
import sys
import time
from collections import Counter, defaultdict

import numpy as np


# Calibration slices take this share of the program time before them, and
# run at most every SLICE_QUANTUM_S of program time (and after every invocation).
SLICE_SHARE = 0.2
SLICE_QUANTUM_S = 0.02

_CAL_ROWS = np.arange(256, dtype=np.int64).reshape(64, 4)


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key, value):
        self.key, self.value = key, value


def calibration_chunk() -> int:
    """A fixed piece of work, the benchmark's yardstick of CPU speed.

    It mixes what bgcsim's runs spend their time on: Python calls, small
    objects, dict and list updates, and sums of small array slices reduced
    modulo a prime.  It takes about a millisecond and never changes, so its
    duration tracks how fast the shared host runs this process right now.
    """
    seen, out, acc = {}, [], 0
    for i in range(200):
        row = i & 31
        cell = _Cell(row, int(_CAL_ROWS[row : row + 8].sum() % 65521))
        seen[cell.key] = seen.get(cell.key, 0) ^ cell.value
        out.append((cell.key, cell.value))
        acc = (acc * 31 + cell.value) % 65521
    return acc + len(seen) + len(out)


class Calibrator:
    """Runs calibration slices between stretches of program work and times them."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.seconds = 0.0
        self.chunks = 0

    def slice(self, program_s: float) -> float:
        """Run whole chunks for SLICE_SHARE of ``program_s`` (at least one); return the time taken."""
        goal = SLICE_SHARE * program_s
        start = time.perf_counter()
        chunks = 0
        while True:
            calibration_chunk()
            chunks += 1
            elapsed = time.perf_counter() - start
            if elapsed >= goal:
                break
        self.seconds += elapsed
        self.chunks += chunks
        return elapsed

    def chunk_s(self) -> float:
        return self.seconds / self.chunks


class _FirstRun(Exception):
    """Raised by the setup probe to stop at the first protocol run."""


def _hook_runs(stop: bool, calibrator=None):
    """Import ``bgcsim.cli`` with ``random_gradients`` stamping its first call.

    Truth synthesis starts every run, so the stamp marks where set-up ends
    and the simulation begins.  With a calibrator, later calls run a
    calibration slice whenever SLICE_QUANTUM_S of program time has passed
    since the last one; ``stamp["paused"]`` sums the slice time, and
    ``stamp["mark"]`` is where the program resumed.  Returns (cli module,
    stamp dict); call ``new_invocation(stamp)`` before each invocation.
    """
    import bgcsim.core as core

    original = core.random_gradients
    stamp = new_invocation({})

    def random_gradients(*args, **kwargs):
        now = time.monotonic()
        if stamp["at"] is None:
            stamp["at"] = stamp["mark"] = now
            if stop:
                raise _FirstRun
        elif calibrator is not None and now - stamp["mark"] >= SLICE_QUANTUM_S:
            stamp["paused"] += calibrator.slice(now - stamp["mark"])
            stamp["mark"] = time.monotonic()
        return original(*args, **kwargs)

    core.random_gradients = random_gradients
    import bgcsim.cli as cli

    if cli.random_gradients is original:
        cli.random_gradients = random_gradients
    return cli, stamp


def new_invocation(stamp: dict) -> dict:
    stamp.update(at=None, mark=None, paused=0.0)
    return stamp


def _bad_runs(text: str, runs: int, rc: int) -> int:
    """Runs an invocation lost: rows flagged out of bounds or incorrect, or all on an abort."""
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        return runs
    bad = sum(int(r["trials"]) for r in rows if r["bounds_ok"] != "1" or r["correct"] != "1")
    return runs if rc != 0 and bad == 0 else bad


def _versions() -> dict:
    return {"python": sys.version.split()[0], "numpy": np.__version__}


def setup(spec) -> dict:
    cli, stamp = _hook_runs(stop=True)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            cli.main(spec["invocations"][0][0])
    except _FirstRun:
        return {"setup_s": stamp["at"] - spec["t0"]}
    raise RuntimeError("the first protocol run never started")


def timed(spec) -> dict:
    """Closed loop of passes; each pass records its simulation time and the CPU speed during it."""
    for _ in range(20):  # first calls run cold
        calibration_chunk()
    calibrator = Calibrator()
    cli, stamp = _hook_runs(stop=False, calibrator=calibrator)
    passes, first_csv = [], None
    deadline = time.monotonic() + spec["seconds"]
    while len(passes) < spec["min_passes"] or time.monotonic() < deadline:
        sim_s, failed, texts = 0.0, 0, []
        calibrator.reset()
        for argv, runs in spec["invocations"]:
            out = io.StringIO()
            new_invocation(stamp)
            with contextlib.redirect_stdout(out):
                rc = cli.main(argv)
            end = time.monotonic()
            if stamp["at"] is None:
                raise RuntimeError(f"no protocol run observed for {argv}")
            sim_s += end - stamp["at"] - stamp["paused"]
            calibrator.slice(end - stamp["mark"])
            texts.append(out.getvalue())
            failed += _bad_runs(texts[-1], runs, rc)
        if first_csv is None:
            first_csv = texts
        passes.append(
            {
                "sim_s": sim_s,
                "chunk_s": calibrator.chunk_s(),
                "failed": failed,
                "csv_sha256": hashlib.sha256("".join(texts).encode()).hexdigest(),
            }
        )
    return {
        "passes": passes,
        "csv": first_csv,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **_versions(),
    }


# ---------------------------------------------------------------------------
# traced replay

# ProtocolRun methods wrapped on each run instance, with their span names.
# execute() looks them up on the instance, so it calls the wrappers in its
# own stage order.
_STAGE_SPANS = {
    "initial_round": "protocol.initial_round_s",
    "build_subsets": "protocol.build_subsets_s",
    "elimination_tournament": "protocol.tournament_s",
    "commit_round": "protocol.commit_round_s",
    "local_compute": "protocol.local_compute_s",
    "decode": "protocol.decode_s",
}

# Integer counts that must repeat exactly between passes of one seed.
COUNTS = (
    "adversary.respond_calls.initial",
    "adversary.respond_calls.label",
    "adversary.respond_calls.commit",
    "matchtree.levels",
    "protocol.messages.initial",
    "protocol.messages.label",
    "protocol.messages.commit",
    "protocol.matches",
    "protocol.matches_useful",
    "protocol.oracle_calls",
    "protocol.eliminations",
    "protocol.transcript_bytes",
    "bounds.violations",
)


class Tracer:
    """Span totals (seconds) and counts for one pass."""

    def __init__(self):
        self.spans = defaultdict(float)
        self.counts = Counter({name: 0 for name in COUNTS})

    def wrap(self, name, fn):
        spans = self.spans

        def timed_call(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spans[name] += time.perf_counter() - start

        return timed_call

    def call(self, name, fn, *args, **kwargs):
        return self.wrap(name, fn)(*args, **kwargs)

    @contextlib.contextmanager
    def instrumented(self, run):
        """Wrap the stage methods of one run instance for the duration of the block."""
        for method, name in _STAGE_SPANS.items():
            setattr(run, method, self.wrap(name, getattr(run, method)))
        match = self.wrap("protocol.match_s", run.match)
        counts = self.counts

        def counted_match(*args, **kwargs):
            outcome = match(*args, **kwargs)
            counts["protocol.matches"] += 1
            counts["protocol.matches_useful"] += outcome is not None
            return outcome

        run.match = counted_match
        try:
            yield run
        finally:  # the wrappers reference the run; unset them so its table is freed at once
            for method in (*_STAGE_SPANS, "match"):
                delattr(run, method)


class RespondProxy:
    """Stands in for an adversary responder; times and counts its answers."""

    def __init__(self, responder, tracer: Tracer):
        self.malicious = responder.malicious
        self._respond = responder.respond
        self._tracer = tracer

    def respond(self, worker, query):
        kind = type(query).__name__.removesuffix("Query").lower()
        self._tracer.counts[f"adversary.respond_calls.{kind}"] += 1
        start = time.perf_counter()
        try:
            return self._respond(worker, query)
        finally:
            self._tracer.spans["adversary.respond_s"] += time.perf_counter() - start


def gate(params, truth, responder, ghat, transcript, problems) -> list:
    """Per-run contract: exact decode, honest safety, bounds, oracle calls pay off."""
    out = []
    if ghat is None or not np.array_equal(ghat, truth.sum(axis=0) % params.q):
        out.append("decode differs from truth.sum(0) % q")
    if not transcript.eliminated_workers() <= set(responder.malicious):
        out.append("an honest worker was eliminated")
    if problems:
        out.append(f"bound violation: {problems}")
    for call in transcript.oracle_calls:
        wiped = sum(
            len(event.workers)
            for event in transcript.eliminations
            if (event.t, event.group, event.index, event.reason)
            == (call.t, call.group, call.index, "wrong_value")
        )
        if wiped < params.u:
            out.append(f"oracle call at index {call.index} wiped {wiped} < u workers")
    return out


class Replay:
    """Library-level replay of ``bgcsim.cli.run_experiments`` with tracing."""

    def __init__(self):
        import bgcsim.protocol as protocol
        from bgcsim import bounds, cli, core

        self.cli, self.core, self.bounds, self.protocol = cli, core, bounds, protocol
        self.tracer = Tracer()
        original = protocol.metrics_from_transcript

        def metrics_from_transcript(*args, **kwargs):
            return self.tracer.call("protocol.metrics_s", original, *args, **kwargs)

        protocol.metrics_from_transcript = metrics_from_transcript
        self.run_ms = []
        self.truth_mb = 0.0
        self.table_mb = 0.0
        self.messages = []

    def invocation(self, argv):
        """Replay one CLI invocation; returns (csv text, failed (point, trial) keys, traced seconds)."""
        cli, tr = self.cli, self.tracer
        config = cli.parse_config(argv)
        rows, failed, traced_s = [], set(), 0.0
        for point, params in enumerate(cli.expand_sweep(config)):
            adversary = cli.make_adversary(config.adversary, params)
            report = tr.call("bounds.report_s", self.bounds.BoundsReport.from_params, params)
            values = {"T": [], "c": [], "kappa": [], "total_comm": []}
            bounds_ok = True
            for trial in range(config.trials):
                try:
                    metrics, problems, failures, run_s = self.run(
                        params, adversary, config.seed, point, trial
                    )
                except Exception as exc:  # a crashing run is a failed run, not a crashed benchmark
                    failures = [repr(exc)]
                for failure in failures:
                    self.note(f"point={point} trial={trial}: {failure}")
                if failures:
                    failed.add((point, trial))
                    continue
                traced_s += run_s
                bounds_ok = bounds_ok and not problems
                for key in values:
                    values[key].append(getattr(metrics, key))
            rows.append(self._row(config, point, params, report, values, bounds_ok))
        start = time.perf_counter()
        text = tr.call("cli.format_rows_s", cli.format_rows, cli.RESULT_COLUMNS, rows, config.format)
        traced_s += time.perf_counter() - start
        return text, failed, traced_s

    def run(self, params, adversary, seed, point, trial):
        """One traced run; returns (metrics, bound problems, gate failures, seconds)."""
        tr = self.tracer
        truth_rng = np.random.default_rng([seed, point, trial, 0])
        adv_rng = np.random.default_rng([seed, point, trial, 1])
        start = time.perf_counter()
        truth = tr.call("core.random_gradients_s", self.core.random_gradients, params, truth_rng)
        responder = tr.call("adversary.instantiate_s", adversary.instantiate, params, truth, adv_rng)
        run = tr.call(
            "protocol.init_s",
            self.protocol.ProtocolRun,
            params,
            truth,
            RespondProxy(responder, tr),
            rng=adv_rng,
        )
        with tr.instrumented(run):
            ghat, metrics, transcript = run.execute()
        expected = tr.call("core.full_gradient_s", self.core.full_gradient, truth, params.q)
        problems = tr.call(
            "bounds.check_compliance_s", self.bounds.check_compliance, params, metrics, transcript
        )
        run_s = time.perf_counter() - start
        self.run_ms.append(run_s * 1e3)
        # The CLI serializes only when dumping, which no workload does; the
        # replay serializes every transcript outside the run span to time it.
        text = tr.call("protocol.to_jsonl_s", transcript.to_jsonl)

        counts = tr.counts
        for message in transcript.messages:
            counts[f"protocol.messages.{message.kind}"] += 1
        counts["protocol.oracle_calls"] += len(transcript.oracle_calls)
        counts["protocol.eliminations"] += sum(len(e.workers) for e in transcript.eliminations)
        counts["matchtree.levels"] += sum(transcript.group_rounds.values())
        counts["protocol.transcript_bytes"] += len(text.encode())
        counts["bounds.violations"] += len(problems)
        row_bytes = params.d * 8 / 2**20
        self.truth_mb = max(self.truth_mb, params.p * row_bytes)
        if hasattr(responder, "table"):
            self.table_mb = max(self.table_mb, params.n * params.block_size * row_bytes)

        failures = gate(params, truth, responder, ghat, transcript, problems)
        if ghat is not None and not np.array_equal(ghat, expected):
            failures.append("decode differs from full_gradient")
        return metrics, problems, failures, run_s

    def note(self, message):
        if len(self.messages) < 5:
            self.messages.append(message)

    @staticmethod
    def _row(config, point, params, report, values, bounds_ok) -> dict:
        """The CSV row ``run_experiments`` prints, rebuilt from the traced runs."""
        row = {
            "point": point,
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
        }
        for key, vals in values.items():
            row[f"{key}_max"] = max(vals) if vals else None
            row[f"{key}_mean"] = sum(vals) / len(vals) if vals else None
        for key in ("c_lower", "c_upper", "T_upper", "kappa_lower", "kappa_upper", "draco_total_comm"):
            row[key] = getattr(report, key)
        row["bounds_ok"] = int(bounds_ok)
        row["correct"] = 1
        return row


def traced(spec) -> dict:
    replay = Replay()
    expected_csv = spec["expected_csv"]
    passes = []
    deadline = time.monotonic() + spec["seconds"]
    while len(passes) < spec["min_passes"] or time.monotonic() < deadline:
        replay.tracer = Tracer()
        failed, traced_s, runs_total, texts = 0, 0.0, 0, []
        for i, (argv, runs) in enumerate(spec["invocations"]):
            text, bad, seconds = replay.invocation(argv)
            texts.append(text)
            traced_s += seconds
            runs_total += runs
            if text == expected_csv[i]:
                failed += len(bad)
            else:
                replay.note(f"invocation {i}: traced CSV row differs from the CLI's")
                failed += runs
        counts = dict(replay.tracer.counts)
        if passes and counts != passes[0]["counts"]:
            replay.note("counts differ between two traced passes of one seed")
            failed = runs_total
        passes.append(
            {
                "spans": dict(replay.tracer.spans),
                "counts": counts,
                "traced_s": traced_s,
                "failed": failed,
                "csv_sha256": hashlib.sha256("".join(texts).encode()).hexdigest(),
            }
        )
    return {
        "passes": passes,
        "run_ms": replay.run_ms,
        "truth_mb": replay.truth_mb,
        "table_mb": replay.table_mb,
        "failures": replay.messages,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        **_versions(),
    }


def main() -> int:
    mode = sys.argv[1]
    spec = json.loads(sys.stdin.read())
    result = {"setup": setup, "timed": timed, "traced": traced}[mode](spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
