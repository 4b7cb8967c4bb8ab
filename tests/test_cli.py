import contextlib
import csv
import dataclasses
import errno
import hashlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
import types
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bgcsim.adversary as adversary
import bgcsim.bounds as bounds
import bgcsim.cli as cli
import bgcsim.protocol as protocol
from bgcsim.cli import (
    ConfigError,
    CorrectnessFailure,
    ExperimentConfig,
    emit_figure_data,
    expand_sweep,
    format_rows,
    main,
    parse_config,
    run_experiments,
)
from bgcsim.core import SchemeParams, random_gradients
from bgcsim.protocol import ProtocolError, ProtocolRun
from adversaries import PlantedCoalitions


def test_parse_flagship_configuration():
    config = parse_config(
        ["--s", "10", "--u", "1", "--m", "1", "--p", "10000", "--d", "1000000", "--q", "65536"]
    )
    assert (config.s, config.u, config.m, config.p, config.d, config.q) == (
        10, 1, 1, 10000, 1000000, 65536,
    )
    # documented defaults
    assert config.trials == 100 and config.format == "csv" and config.seed == 0
    assert config.adversary == "none"


def test_sweep_expansion_recomputes_n():
    config = parse_config(
        ["--s", "10", "--u", "1", "--p", "16", "--d", "1", "--sweep", "u=1..11"]
    )
    points = list(expand_sweep(config))
    assert len(points) == 11
    assert [pt.u for pt in points] == list(range(1, 12))
    assert [pt.n for pt in points] == [10 + u for u in range(1, 12)]


def test_per_point_constants_hold_one_point_after_a_long_sweep(capsys):
    # Each cache of a sweep point's constants is filled anew at every point
    # of this sweep, yet holds one point: none grows with the sweep's length.
    caches = (bounds._upper_shapes, adversary._layout, protocol._replication)
    misses = [cache.cache_info().misses for cache in caches]
    argv = ["--s", "1", "--u", "1", "--p", "4", "--d", "1", "--trials", "1", "--adversary", "symmetrization"]
    assert main([*argv, "--sweep", "d=1..300"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 301
    for cache, before in zip(caches, misses):
        assert cache.cache_info().currsize <= 1
    assert [cache.cache_info().misses - before for cache, before in zip(caches[:2], misses)] == [300, 300]


def test_sweep_list_form():
    config = parse_config(["--s", "2", "--u", "1", "--p", "8", "--d", "1", "--sweep", "p=8,16,32"])
    assert [pt.p for pt in expand_sweep(config)] == [8, 16, 32]


def test_config_file_with_flag_override(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"s": 2, "u": 1, "p": 8, "d": 1, "trials": 7}))
    config = parse_config(["--config", str(path), "--trials", "9"])
    assert config.s == 2 and config.trials == 9


def test_config_file_unknown_keys_rejected(tmp_path):
    # A library caller gets one ConfigError naming every unknown key, sorted,
    # even when the file also holds valid keys and flags would override them.
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"s": 2, "u": 1, "p": 8, "d": 1, "zeta": 0, "bogus": 1}))
    with pytest.raises(ConfigError, match=r"^unknown config keys: \['bogus', 'zeta'\]$"):
        parse_config(["--config", str(path), "--trials", "9"])


def test_in_process_calls_print_the_bytes_of_fresh_ones(tmp_path, capsys):
    # One argument parser serves every call in a process: a config file read
    # by one call must leave nothing behind for the next, flags-only, call.
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"s": 2, "u": 1, "m": 2, "p": 8, "d": 2, "seed": 9, "adversary": "flipflop"}))
    calls = [
        ["--config", str(config), "--trials", "4"],
        ["--s", "3", "--u", "1", "--p", "8", "--d", "1", "--trials", "3"],
    ]
    in_process = []
    for argv in calls:
        assert main(argv) == 0
        in_process.append(capsys.readouterr().out)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    fresh = [
        subprocess.run([sys.executable, "-m", "bgcsim", *argv], capture_output=True, text=True, env=env).stdout
        for argv in calls
    ]
    assert in_process == fresh and fresh[0] != fresh[1]


def test_run_experiments_zero_overhead_row():
    config = ExperimentConfig(s=2, u=1, p=8, d=1, trials=1, adversary="none", seed=5)
    rows = run_experiments(config)
    assert len(rows) == 1
    row = rows[0]
    assert row["T_max"] == row["c_max"] == 0
    assert row["kappa_max"] == 0.0
    assert row["correct"] == 1 and row["bounds_ok"] == 1


def test_run_experiments_fig_sweep_c_column():
    config = ExperimentConfig(
        s=10, u=1, p=16, d=1, trials=20, adversary="symmetrization", seed=1, sweep="u=1..11"
    )
    rows = run_experiments(config)
    assert [row["c_max"] for row in rows] == [10, 5, 3, 2, 2, 1, 1, 1, 1, 1, 0]
    assert all(row["bounds_ok"] and row["correct"] for row in rows)


def test_byte_identical_reruns(tmp_path):
    argv = [
        "--s", "2", "--u", "1", "--p", "8", "--d", "2", "--seed", "11",
        "--trials", "5", "--adversary", "symmetrization",
    ]
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"{tag}.csv"
        dump = tmp_path / f"dump_{tag}"
        code = main(argv + ["--out", str(out), "--dump-transcripts", str(dump)])
        assert code == 0
        transcripts = b"".join(
            path.read_bytes() for path in sorted(dump.iterdir())
        )
        outputs.append((out.read_bytes(), transcripts))
    assert outputs[0] == outputs[1]


# Output digests recorded before the engine's ask path and responders were
# rewritten.  A change that only restructures code must leave them as they are.
GOLDEN_CSV = [
    (
        ["--s", "3", "--u", "2", "--m", "2", "--p", "16", "--d", "2", "--seed", "7",
         "--trials", "60", "--adversary", "flipflop"],
        "602073e9963293397d8411d780eacefb52bd460a4f1a320b51069680aa548c36",
    ),
    (
        ["--s", "4", "--u", "1", "--p", "16", "--d", "2", "--seed", "3", "--trials", "30",
         "--adversary", "symmetrization", "--sweep", "u=1..5"],
        "7da9349eb687a011bd5a4d145c8e1019ffcda577d201c1b0070a49fe22a93a26",
    ),
]
GOLDEN_DUMP = (
    ["--s", "3", "--u", "1", "--m", "3", "--p", "24", "--d", "2", "--seed", "11",
     "--trials", "20", "--adversary", "flipflop"],
    "5d5561a8e59e566899a59c807df0134e815d15be46243fbb2de5d9a3b24a0ed9",
)
# Flip-flop runs at u=2 over three groups: (argv, CSV digest, transcript
# dump digest).  At q=3 malicious initial answers collide, so labels and
# commit bits are drawn in turn and answer values reach the output.  At the
# three large alphabets no two random answers agree, so every malicious
# worker is cut after the initial round: those runs share one dump digest
# and pin only message counts and the CSV's bit costs at that q, not the
# values numpy's bounded draw gives.
GOLDEN_FLIPFLOP_ALPHABETS = [
    (
        ["--s", "6", "--u", "2", "--m", "3", "--p", "24", "--d", "2", "--q", str(q), "--seed", "13",
         "--trials", "30", "--adversary", "flipflop"],
        csv_digest,
        dump_digest,
    )
    for q, csv_digest, dump_digest in [
        (3, "5aa563911b2cf0695e0214624f85bee806d994963f18cc6bb19d424b70147c10",
         "53d2d401b0586db604710229ea45a674d1c878142dc1bef262a2a6877eced060"),
        (65521, "35f036884ad5b8b40c4d3bffd63ed5949ada9025cdb92016a24cfbb428337e08",
         "acb0289a7f16e81cddea21101a9aa1b4d90b2ceb1f126dc45f1f6364bbd716de"),
        (2**31 + 1, "a2e53bd478888f90f89e14f135e0afe1cb97eac8b581ec665f321601fcc1f490",
         "acb0289a7f16e81cddea21101a9aa1b4d90b2ceb1f126dc45f1f6364bbd716de"),
        (2**32, "5230d0eefa5c02d1fb9842582e791f5f7d8ced649226facf678d44e9b15512d5",
         "acb0289a7f16e81cddea21101a9aa1b4d90b2ceb1f126dc45f1f6364bbd716de"),
    ]
]
# Runs with commit rounds against table-backed adversaries: (argv, CSV digest,
# transcript dump digest), recorded before honest answers stopped going
# through the ask path.
GOLDEN_COMMIT_RUNS = [
    (
        ["--s", "5", "--u", "2", "--p", "16", "--d", "2", "--q", "2", "--trials", "20",
         "--adversary", "symmetrization"],
        "48a3a759697dc74d84c91da6e5966f29bb97173d7fbc69bdf12b215eccb6f421",
        "7066734be1cccf7d24d51fc0c8448bd786d1ac0b67f2c59b8a93a495d4835670",
    ),
    (
        ["--s", "4", "--u", "2", "--m", "2", "--p", "16", "--d", "1", "--trials", "20",
         "--adversary", "symmetrization-collusive"],
        "893735a3a159a1604add88c7fa9486499887102a7dc58dbd42ab6ba6b19b7b54",
        "edab34c4f81ccd05a9ebc061266e83aaa926775ad1d335ee6c47cf418a656e29",
    ),
]

# Runs whose blocks are long enough for core.block_sums to take its wide-row
# path: (argv, CSV digest, transcript dump digest), recorded before the kernel
# replaced numpy's plain column sum.  Blocks of 8195 rows at d=3 leave a tail
# of rows after the last whole group; blocks of 2048 rows at d=16 leave none.
GOLDEN_WIDE = [
    (
        ["--s", "6", "--u", "2", "--m", "2", "--p", "16390", "--d", "3", "--trials", "3",
         "--adversary", "symmetrization"],
        "d0b9448c44db213fc596a0ac902c0b775c348ae8da728d9496537538b66fd737",
        "bbfcb1faec9e5858282a850602c9bd69c891f2392128e353b2e4335cceb85b28",
    ),
    (
        ["--s", "3", "--u", "1", "--m", "4", "--p", "8192", "--d", "16", "--trials", "3",
         "--adversary", "flipflop"],
        "a29f434d83778d5ae4ac1e800cfd072803ba18312b40c44332e841bd6ea5c626",
        "25f49e3fcd44c724adf6ed26d9384a30a4f304bd2acd8e792fbc98a70c946a75",
    ),
]

# Runs whose blocks span many label chunk-prefix chunks and end in a partial
# chunk, at a d that does not divide 1024: (argv, CSV digest, transcript dump
# digest), recorded before label sums were served from chunk prefix sums.
GOLDEN_CHUNKED = [
    (
        ["--s", "6", "--u", "2", "--p", "100003", "--d", "5", "--trials", "2",
         "--adversary", "symmetrization"],
        "f96faaf1780f58af2b4cee9d728d59797ee8b63cb8271c461d3197533418f703",
        "d96c169e1b1990915d67116a34b490fe145e0936888a963b555639c089ddb93c",
    ),
    (
        ["--s", "4", "--u", "2", "--m", "2", "--p", "40000", "--d", "3", "--q", "2",
         "--trials", "2", "--adversary", "symmetrization-collusive"],
        "bec554d2ccf913dd99c0fd6fd8caa19c85f00a288ecc5d6d0abd0db527e3c1ac",
        "5b448e93a2c971cb42f8dbd436daf50ec386ecdf5f86000000a6db0223017868",
    ),
]

# Runs at the edges of the uint32 accumulator (core.sum_dtype), at d=4 and d=3:
# (argv, CSV digest, transcript dump digest), recorded while every sum of the
# truth was still taken in int64.  At q = 2**20 every sum is uint32, at
# 2**20 + 1 the chunk tables stay uint32 but the label sums are int64, and at
# q = 2**32 (id "int64", its accumulator when recorded) every sum now wraps in
# uint32, exact mod q.
GOLDEN_ACCUMULATORS = [
    (
        ["--s", "6", "--u", "2", "--p", "100003", "--d", "4", "--q", "1048576", "--trials", "2",
         "--adversary", "symmetrization"],
        "abad70412b69ffa46e2af0a505575916c5ee2893d95f1adedebcc7db774a5923",
        "68b3b09ca1e2f44e6e1d00ba4a5130e016a4033779e41b9cfbfaf25cb65d724d",
    ),
    (
        ["--s", "6", "--u", "2", "--p", "100003", "--d", "4", "--q", "1048577", "--trials", "2",
         "--adversary", "symmetrization"],
        "649199a1ee7d71e292903c918f0f8c374e78ada08315d8b725a1ce6603acbda8",
        "68b3b09ca1e2f44e6e1d00ba4a5130e016a4033779e41b9cfbfaf25cb65d724d",
    ),
    (
        ["--s", "4", "--u", "2", "--m", "2", "--p", "40000", "--d", "3", "--q", "4294967296",
         "--trials", "2", "--adversary", "symmetrization-collusive"],
        "c5c3553794ae4a0a2b0fa6b3aa911b07b9f95ea8799db9bba3399f7678fd7ecf",
        "5b448e93a2c971cb42f8dbd436daf50ec386ecdf5f86000000a6db0223017868",
    ),
]


# Runs at the edges of the 16-bit truth (core.random_gradients), at d=5:
# (argv, CSV digest, transcript dump digest), recorded while the truth was
# still drawn at 32 bits.  500015 values are an odd count of half words over
# many raw slabs and label chunks.  At q = 2**15 and 2**16 the truth is
# uint16, read from the raw stream; at 2**16 + 1 it is uint32 from
# rng.integers, at 2**17 uint32 from the raw stream.
GOLDEN_NARROW = [
    (
        ["--s", "6", "--u", "2", "--p", "100003", "--d", "5", "--q", str(q), "--trials", "2",
         "--adversary", "symmetrization"],
        csv_digest,
        "d96c169e1b1990915d67116a34b490fe145e0936888a963b555639c089ddb93c",
    )
    for q, csv_digest in [
        (32768, "0e866102a8fc59114813e69e9823a5231b73fca4338529860a88c2e85c369bcc"),
        (65536, "f96faaf1780f58af2b4cee9d728d59797ee8b63cb8271c461d3197533418f703"),
        (65537, "beade976faab35b066019af859935f7100f639812d581149eac1528a3a9c49de"),
        (131072, "73826724e4c4b9d67ecb41cbd3e6a64e54fb71475eda4cf74c77a31d6f7b4740"),
    ]
]

# A table:<file> run at m=2 whose malicious workers are 1 and 4: worker 1
# claims trial 0's truth with one entry moved, worker 4 claims the truth
# throughout.  (argv, CSV digest, transcript dump digest), recorded before
# table-file runs stopped re-checking the honest workers' claims.
GOLDEN_TABLE_FILE = (
    ["--s", "2", "--u", "1", "--m", "2", "--p", "16", "--d", "2", "--seed", "5",
     "--trials", "3", "--adversary", "table:table.json"],
    "9e9ac151a6a8e952660640c2e9c207ff5f737b101fcf49c0d68cd8697410e076",
    "ac4477d7d815a4b21615d904774a6cc4048396d76d00325a1a203b5ffa5fdc32",
)


# The README's three --figure commands; CI checks the same digests through the
# console script.
GOLDEN_FIGURES = [
    (["--s", "10", "--u", "1", "--p", "10000", "--d", "1000000", "--figure", "fig1"],
     "5bf31db6a93062a1108c5f47073736d59824c12f29cc23c04e4e23f2ab591149"),
    (["--s", "10", "--u", "2", "--p", "1000000", "--d", "1", "--figure", "appendixF-ratio"],
     "641812d9a8fa1d1c2306d2b892d1e09a1cbb5423f774ff367f0c7d5bacec4826"),
    (["--s", "10", "--u", "5", "--p", "1000000", "--d", "1", "--figure", "appendixF-convergence"],
     "5072285567f67cc927e5a42a1445f8af38ef7d37f5dbcea7cab36dc6943b005e"),
]


def _dump_digest(dump):
    h = hashlib.sha256()
    for path in sorted(dump.iterdir()):  # names and bytes, in sorted order
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


@pytest.mark.parametrize("argv, digest", GOLDEN_CSV, ids=["flipflop-m2", "sweep-u"])
def test_golden_csv_bytes(tmp_path, argv, digest):
    out = tmp_path / "rows.csv"
    assert main(argv + ["--out", str(out)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", GOLDEN_FIGURES, ids=["fig1", "ratio", "convergence"])
def test_golden_figures(capsys, argv, digest):
    assert main(argv) == 0
    assert hashlib.sha256(capsys.readouterr().out.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "argv, csv_digest, dump_digest", GOLDEN_FLIPFLOP_ALPHABETS, ids=["q3", "q65521", "q2^31+1", "q2^32"]
)
def test_golden_flipflop_alphabets(tmp_path, argv, csv_digest, dump_digest):
    test_golden_runs(tmp_path, argv, csv_digest, dump_digest)
    if argv[argv.index("--q") + 1] == "3":
        kinds = b"".join(path.read_bytes() for path in (tmp_path / "dump").iterdir())
        assert b'"kind":"label"' in kinds and b'"kind":"commit"' in kinds


def test_golden_transcript_dump(tmp_path):
    argv, digest = GOLDEN_DUMP
    dump = tmp_path / "dump"
    assert main(argv + ["--out", str(tmp_path / "rows.csv"), "--dump-transcripts", str(dump)]) == 0
    assert len(list(dump.iterdir())) == 20
    assert _dump_digest(dump) == digest


@pytest.mark.parametrize(
    "argv, csv_digest, dump_digest", GOLDEN_COMMIT_RUNS, ids=["per-index-q2", "collusive-m2"]
)
def test_golden_commit_rounds(tmp_path, argv, csv_digest, dump_digest):
    out, dump = tmp_path / "rows.csv", tmp_path / "dump"
    assert main(argv + ["--out", str(out), "--dump-transcripts", str(dump)]) == 0
    assert any(b'"kind":"commit"' in path.read_bytes() for path in dump.iterdir())
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest
    assert _dump_digest(dump) == dump_digest


@pytest.mark.parametrize(
    "argv, csv_digest, dump_digest",
    GOLDEN_WIDE + GOLDEN_CHUNKED + GOLDEN_ACCUMULATORS + GOLDEN_NARROW,
    ids=[
        "wide-symmetrization-tail", "wide-flipflop-m4",
        "chunked-symmetrization-d5", "chunked-collusive-d3-q2",
        "accumulator-uint32", "accumulator-uint32-chunks", "accumulator-int64",
        "narrow-q2^15", "narrow-q2^16", "narrow-q2^16+1", "narrow-q2^17",
    ],
)
def test_golden_runs(tmp_path, argv, csv_digest, dump_digest):
    out, dump = tmp_path / "rows.csv", tmp_path / "dump"
    assert main(argv + ["--out", str(out), "--dump-transcripts", str(dump)]) == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest
    assert _dump_digest(dump) == dump_digest


def test_golden_table_file(tmp_path, monkeypatch):
    from bgcsim.core import SchemeParams

    argv, csv_digest, dump_digest = GOLDEN_TABLE_FILE
    params = SchemeParams(s=2, u=1, m=2, p=16, d=2, q=65536)
    block = random_gradients(params, np.random.default_rng([5, 0, 0, 0]))[: params.block_size]
    block[3, 1] = (int(block[3, 1]) + 1) % params.q
    monkeypatch.chdir(tmp_path)  # the CSV names the table file, so keep its path fixed
    spec = {"malicious": [1, 4], "claims": {"1": block.tolist()}}
    Path("table.json").write_text(json.dumps(spec))
    assert main(argv + ["--out", "rows.csv", "--dump-transcripts", "dump"]) == 0
    assert hashlib.sha256(Path("rows.csv").read_bytes()).hexdigest() == csv_digest
    assert _dump_digest(Path("dump")) == dump_digest


def test_csv_round_trip_recovers_numbers(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(
        ["--s", "2", "--u", "1", "--p", "8", "--d", "1", "--seed", "3",
         "--trials", "4", "--adversary", "symmetrization", "--out", str(out)]
    )
    assert code == 0
    header, line = out.read_text().splitlines()
    record = dict(zip(header.split(","), line.split(",")))
    config = ExperimentConfig(s=2, u=1, p=8, d=1, trials=4, adversary="symmetrization", seed=3)
    row = run_experiments(config)[0]
    assert int(record["c_max"]) == row["c_max"]
    assert float(record["kappa_mean"]) == row["kappa_mean"]  # repr round-trips exactly
    assert float(record["kappa_upper"]) == row["kappa_upper"]


def test_transcript_dump_record_shapes(tmp_path):
    dump = tmp_path / "dump"
    main(
        ["--s", "1", "--u", "1", "--p", "4", "--d", "1", "--seed", "2", "--trials", "1",
         "--adversary", "symmetrization", "--dump-transcripts", str(dump), "--out",
         str(tmp_path / "o.csv")]
    )
    files = sorted(dump.iterdir())
    assert len(files) == 1
    records = [json.loads(line) for line in files[0].read_text().splitlines()]
    message_keys = {"t", "group", "worker", "direction", "kind", "symbols", "bits"}
    oracle_keys = {"t", "index", "coord"}
    for record in records:
        assert set(record) in (message_keys, oracle_keys)
    assert any(set(r) == oracle_keys for r in records)


def test_exit_code_zero_iff_all_pass(tmp_path):
    code = main(
        ["--s", "1", "--u", "1", "--p", "4", "--d", "1", "--seed", "1", "--trials", "2",
         "--adversary", "flipflop", "--out", str(tmp_path / "x.csv")]
    )
    assert code == 0


def test_correctness_failure_aborts_with_seed(monkeypatch, capsys):
    monkeypatch.setattr(ProtocolRun, "decode", lambda self: np.full(self.params.d, -1))
    code = main(["--s", "1", "--u", "1", "--p", "4", "--d", "1", "--seed", "99", "--trials", "1"])
    assert code == 1
    err = capsys.readouterr().err
    assert "seed=99" in err and "trial=0" in err


def test_table_adversary_from_file(tmp_path, run_and_check):
    from bgcsim.core import SchemeParams, random_gradients

    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=65536)
    truth = random_gradients(params, 6)
    block = truth[0:4].copy()
    block[2, 0] = (int(block[2, 0]) + 5) % params.q
    spec = {"malicious": [1], "claims": {"1": block.tolist()}}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(spec))
    adversary = cli.make_adversary(f"table:{path}", params)
    _, metrics, transcript = run_and_check(params, truth, adversary)
    assert transcript.eliminated_workers() == {1}
    assert metrics.c == 1


def test_spread_withholding_coalitions_stay_within_kappa_upper(tmp_path):
    # Two coalitions of 8 in the two groups of 18.  Each shares one wrong
    # block sum, 12345, but its members claim distinct values at the disputed
    # leaf, so the table's commit answers withhold.  Each group's commit bits
    # restart at full group size: kappa_max reads 41.125, which is the
    # balanced split's kappa_upper; the single-group value is 40.3125.
    malicious = [*range(11, 19), *range(29, 37)]
    claims = {str(j): [[100 + k], [(12345 - 100 - k) % 65536]] for k, j in enumerate(malicious)}
    path = tmp_path / "spread.json"
    path.write_text(json.dumps({"malicious": malicious, "claims": claims}))
    out = tmp_path / "rows.csv"
    argv = ["--s", "16", "--u", "2", "--m", "2", "--p", "4", "--d", "1", "--trials", "20",
            "--seed", "0", "--adversary", f"table:{path}", "--out", str(out)]
    code = main(argv)
    (row,) = list(csv.DictReader(out.read_text().splitlines()))
    assert row["bounds_ok"] == "1" and code == 0, (row["kappa_max"], row["kappa_upper"])
    assert float(row["kappa_max"]) == float(row["kappa_upper"]) == 41.125


def test_spread_withholding_coalitions_stay_within_kappa_upper_at_q2():
    # Two coalitions of 4, the last four workers of each group of 10, plant
    # one wrong value on the last leaf of their block and withhold every
    # commit.  At q = 2 a member has only one other value to claim at the
    # disputed leaf, so split leaf claims are written as withheld commits:
    # each match eliminates only the coalition's representative.  Each
    # coalition lasts s_g - u + 1 = 3 matches and each group's commit bits
    # restart at full group size: kappa reads 66.0, the balanced split's
    # kappa_upper (the single-group value is 63.0).
    params = SchemeParams(s=8, u=2, m=2, p=4, d=1, q=2)
    truth = random_gradients(params, np.random.default_rng(0))
    coalitions = [params.workers_of_group(g)[-4:] for g in (1, 2)]
    adversary = PlantedCoalitions(
        [(workers, params.block_of_group(g).stop - 1, 1) for g, workers in enumerate(coalitions, start=1)],
        withhold=[j for workers in coalitions for j in workers],
    )
    trial = bounds.run_trial(params, truth, adversary)
    assert not trial.breaches, trial.breaches
    assert not trial.violations, (trial.metrics.kappa, bounds.scheme_upper_bounds(params)[2])
    assert trial.metrics.kappa == bounds.scheme_upper_bounds(params)[2] == 66.0


def test_table_file_validation(tmp_path):
    from bgcsim.core import SchemeParams

    params = SchemeParams(s=1, u=1, m=1, p=4, d=1, q=65536)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"malicious": [], "claims": {"1": [[0], [0], [0], [0]]}}))
    with pytest.raises(ValueError, match="not listed as malicious"):
        cli.load_table_adversary(path, params)
    path.write_text(json.dumps({"malicious": [1], "claims": {"1": [[0], [0]]}}))
    with pytest.raises(ValueError, match="shape"):
        cli.load_table_adversary(path, params)


def test_bad_table_file_is_one_line_error(tmp_path, capsys):
    argv = ["--s", "1", "--u", "1", "--p", "4", "--d", "1", "--trials", "1", "--adversary"]
    missing = tmp_path / "missing.json"
    assert main(argv + [f"table:{missing}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "cannot read table file" in err and "missing.json" in err

    wrong_shape = tmp_path / "short.json"
    wrong_shape.write_text(json.dumps({"malicious": [1], "claims": {"1": [[0], [0]]}}))
    assert main(argv + [f"table:{wrong_shape}"]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must have shape (4, 1)" in err

    over_budget = tmp_path / "two.json"
    over_budget.write_text(json.dumps({"malicious": [1, 2]}))
    assert main(argv + [f"table:{over_budget}"]) == 2
    assert "exceed the budget s=1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text",
    [
        '{"malicious": [1], "claims": {"1": [[1000000000000000000000000000000], [0], [0], [0]]}}',
        '{"malicious": [true]}',
        '{"malicious": [1.7]}',
        '{"malicious": ["1"]}',
        '{"malicious": [1], "claims": {"1": [[1.7], [0], [0], [0]]}}',
        '{"malicious": [1], "claims": {"1": [[0], [true], [0], [0]]}}',
        '{"malicious": [1], "claims": {"1": [[0], [0], [-0.5], [0]]}}',
        '{"malicious": [1], "claims": {"1": [[0], [0], [0], ["3"]]}}',
        '{"malicious": [1], "claims": {"1_0": [[0], [0], [0], [0]]}}',
        '{"malicious": [1], "claims": {"01": [[0], [0], [0], [0]]}}',
        '{"malicious": [1], "claims": {" 1": [[0], [0], [0], [0]]}}',
        '{"malicious": [1], "claims": [["1", [[0], [0], [0], [0]]]]}',
    ],
    ids=[
        "claim-overflows-int64", "bool-id", "float-id", "string-id", "float-claim",
        "bool-claim", "negative-float-claim", "string-claim", "underscore-key",
        "zero-padded-key", "space-padded-key", "claims-not-an-object",
    ],
)
def test_unreadable_table_file_is_one_line_error(tmp_path, capsys, text):
    path = tmp_path / "table.json"
    path.write_text(text)
    argv = ["--s", "1", "--u", "1", "--p", "4", "--d", "1", "--trials", "1"]
    assert main(argv + ["--adversary", f"table:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("bgcsim: error: cannot read table file")


_SMALL = ["--s", "1", "--u", "1", "--p", "4", "--d", "1", "--trials", "1"]
_SMALL_CONFIG = {"s": 1, "u": 1, "p": 4, "d": 1, "trials": 1}  # the same, as a config file
_FIG1 = ["--s", "2", "--u", "1", "--p", "4", "--d", "1", "--figure", "fig1"]
# --figure with each simulation-only key, as a flag and in the config file.
_SIMULATION_ONLY = {
    "sweep": ("--sweep", "u=1..3"),
    "adversary": ("--adversary", "flipflop"),
    "trials": ("--trials", 5),
    "seed": ("--seed", 3),
    "dump_transcripts": ("--dump-transcripts", "never"),
}
_TYPE_ERRORS = [  # config-file values of the wrong type: (key, value, what the key takes)
    ("trials", "5", "an integer"),
    ("s", "2", "an integer"),
    ("trials", 2.5, "an integer"),
    ("s", True, "an integer"),
    ("adversary", 3, "a string"),
    ("format", None, "a string"),  # null is a value only for the keys whose default is None
    ("trials", None, "an integer"),
]


def _usage_error(case, message, argv, config=None, table=None):
    return pytest.param(argv, config, table, message, id=case)


# (argv, config file object or None, table file object or None, the start of
# the one error line).  A config file is written to config.json and passed
# last, with --config; a table file is written to table.json.
_USAGE_ERRORS = [
    _usage_error("not-an-int", "argument --s: invalid int value: 'x'", ["--s", "x", *_SMALL[2:]]),
    _usage_error("missing-s", "missing required parameter: --s", ["--u", "1", "--p", "8", "--d", "1"]),
    _usage_error("missing-p", "missing required parameter: --p", ["--s", "1", "--u", "1", "--d", "1"]),
    _usage_error("unknown-flag", "unrecognized arguments: --bogus 3", _SMALL + ["--bogus", "3"]),
    _usage_error("n-flag", "unrecognized arguments: --n 3", _SMALL + ["--n", "3"]),
    _usage_error("bad-format", "argument --format: invalid choice: 'xml'", _SMALL + ["--format", "xml"]),
    _usage_error("invalid-params", "m must divide p: got p=7, m=2", _SMALL + ["--m", "2", "--p", "7"]),
    _usage_error("trials-0", "--trials must be at least 1: got 0", _SMALL + ["--trials", "0"]),
    _usage_error("trials-negative", "--trials must be at least 1: got -3", _SMALL + ["--trials", "-3"]),
    _usage_error("seed-negative", "--seed must be non-negative: got -1", _SMALL + ["--seed", "-1"]),
    _usage_error(
        "sweep-axis", f"sweep axis must be one of {cli.SWEEP_AXES}: got 'x'", _SMALL + ["--sweep", "x=1..2"]
    ),
    _usage_error("sweep-no-values", "sweep needs the form axis=values: got 'u='", _SMALL + ["--sweep", "u="]),
    _usage_error("sweep-empty", "empty sweep: 'u=3..1'", _SMALL + ["--sweep", "u=3..1"]),
    _usage_error(
        "sweep-range-list",
        "sweep values must be integers: got 'u=1..2,3'",
        _SMALL + ["--sweep", "u=1..2,3"],
    ),
    _usage_error("sweep-not-int", "sweep values must be integers: got 'u=a'", _SMALL + ["--sweep", "u=a"]),
    _usage_error("unknown-adversary", "unknown adversary: 'bogus'", _SMALL + ["--adversary", "bogus"]),
    _usage_error(
        "table-malicious-out-of-range",
        "malicious worker ids must be in 1..2: got [9]",
        _SMALL + ["--adversary", "table:table.json"],
        table={"malicious": [9]},
    ),
    # Each of the next three fails only at the sweep's last point.
    _usage_error("sweep-last-point", "m must divide p: got p=5, m=2", _SMALL + ["--m", "2", "--sweep", "p=4,5"]),
    _usage_error(
        "sweep-last-point-symmetrization",
        "symmetrization needs floor(s/u) <= p/m: got floor(3/1) = 3 > 4/2 = 2",
        ["--s", "3", *_SMALL[2:], "--adversary", "symmetrization", "--sweep", "m=1,2"],
    ),
    _usage_error(
        "sweep-last-point-table",
        "2 malicious workers exceed the budget s=1",
        ["--s", "2", *_SMALL[2:], "--adversary", "table:table.json", "--sweep", "s=2,1"],
        table={"malicious": [1, 2]},
    ),
    _usage_error("config-list", "config file must hold a JSON object", [], [_SMALL_CONFIG]),
    _usage_error(
        "config-format", "format must be one of ('csv', 'json'): got 'xml'", [], {**_SMALL_CONFIG, "format": "xml"}
    ),
    _usage_error(
        "config-figure",
        f"figure must be one of {cli.FIGURES}: got 'fig2'",
        [],
        {"s": 2, "u": 1, "p": 4, "d": 1, "figure": "fig2"},
    ),
    _usage_error("unknown-config-key", "unknown config keys: ['bogus']", [], {**_SMALL_CONFIG, "bogus": 1}),
    _usage_error("n-config-key", "unknown config keys: ['n']", [], {**_SMALL_CONFIG, "n": 3}),
    *(
        _usage_error(f"config-{key}-{type(value).__name__}", message, [], {**_SMALL_CONFIG, key: value})
        for key, value, kind in _TYPE_ERRORS
        for message in [f"config key {key!r} must be {kind}"]
    ),
    *(
        _usage_error(f"figure-{key}-{source}", message, *argv_config)
        for key, (flag, value) in sorted(_SIMULATION_ONLY.items())
        for message in [f"--figure runs no simulation and takes no {flag}"]
        for source, argv_config in [("flag", (_FIG1 + [flag, str(value)],)), ("config-file", (_FIG1, {key: value}))]
    ),
]


@pytest.mark.parametrize("argv, config, table, message", _USAGE_ERRORS)
def test_usage_errors_are_one_line(tmp_path, capsys, monkeypatch, argv, config, table, message):
    # Every usage error is main's return value 2 with one line on standard
    # error and nothing on standard output, before any trial runs or any
    # output path is made; parse_config raises it as a ConfigError, or
    # make_adversary does when it reads a table file for a sweep point.
    _no_trials(monkeypatch)
    monkeypatch.chdir(tmp_path)
    files = {name: obj for name, obj in (("config.json", config), ("table.json", table)) if obj is not None}
    for name, obj in files.items():
        Path(name).write_text(json.dumps(obj))
    if config is not None:
        argv = argv + ["--config", "config.json"]
    with pytest.raises(ConfigError) as error:
        parsed = parse_config(argv)
        for params in expand_sweep(parsed):
            cli.make_adversary(parsed.adversary, params)
    assert str(error.value).startswith(message)
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"bgcsim: error: {error.value}\n")
    assert "\n" not in str(error.value)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(files)


@pytest.mark.parametrize("argv, config, table, message", _USAGE_ERRORS)
def test_parse_config_alone_raises_every_usage_error(tmp_path, monkeypatch, argv, config, table, message):
    # parse_config walks every sweep point and makes the adversary at each, so
    # a library caller gets a bad table file or an infeasible symmetrization
    # from it too, not only from run_experiments.
    monkeypatch.chdir(tmp_path)
    for name, obj in (("config.json", config), ("table.json", table)):
        if obj is not None:
            Path(name).write_text(json.dumps(obj))
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        parse_config(argv + ["--config", "config.json"] * (config is not None))


def _traced_peak(call, *args):
    """``call(*args)`` and the peak of the memory it allocated, in bytes, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        return call(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_config_keeps_no_sweep_point():
    # 50 000 points are each made and checked, then dropped: a kept list of
    # them would take about 10 MB.
    config, peak = _traced_peak(parse_config, _SMALL + ["--sweep", "d=1..50000"])
    assert config.sweep == "d=1..50000" and peak < 1_000_000, peak


def _stub_runs(monkeypatch, metrics):
    """Runs that draw no truth and report the next of ``metrics`` (dicts of METRICS) each."""
    metrics = iter(metrics)

    def run(params, truth, adversary, rng):
        return types.SimpleNamespace(breaches=[], violations=[], metrics=types.SimpleNamespace(**next(metrics)))

    monkeypatch.setattr(cli, "random_gradients", lambda params, rng: None)
    monkeypatch.setattr(cli, "run_trial", run)


def test_trial_aggregates_keep_no_list_of_trials(monkeypatch):
    # Every run reports fresh floats, as real runs do: metric k of trial t is
    # 4t + k + 0.5.  Each metric is folded into a running max and sum, so
    # 12 000 trials keep none of them (four per-trial lists would take about
    # 1.9 MB; seeding a batch of trials takes about 0.4 MB).
    trials, values = 12000, itertools.count(0.5)
    _stub_runs(monkeypatch, ({metric: next(values) for metric in cli.METRICS} for _ in range(trials)))
    [row], peak = _traced_peak(run_experiments, ExperimentConfig(s=1, u=1, p=4, d=1, trials=trials))
    assert peak < 750_000, peak
    assert [row[f"{metric}_max"] for metric in cli.METRICS] == [4 * (trials - 1) + k + 0.5 for k in range(4)]
    assert [row[f"{metric}_mean"] for metric in cli.METRICS] == [2 * (trials - 1) + k + 0.5 for k in range(4)]


def test_mean_is_a_left_to_right_sum(monkeypatch):
    # 1 + 2**-53 rounds back to 1, so adding left to right gives 1/3 on every
    # Python version; 3.12's compensated sum() would give 0.3333333333333334.
    _stub_runs(monkeypatch, ({"T": 1, "c": 0, "kappa": kappa, "total_comm": 4.0} for kappa in [1.0, 2**-53, 2**-53]))
    [row] = run_experiments(ExperimentConfig(s=1, u=1, p=4, d=1, trials=3))
    assert (repr(row["kappa_mean"]), row["kappa_max"]) == ("0.3333333333333333", 1.0)


def test_mean_bytes_at_a_prime_alphabet():
    # 200 symmetrization runs whose kappas differ in their last bits: 3.13's
    # sum() of the same kappas gives 36.75001548052974.
    argv = ["--s", "6", "--u", "2", "--p", "64", "--d", "2", "--q", "65521", "--trials", "200"]
    [row] = run_experiments(parse_config(argv + ["--adversary", "symmetrization"]))
    assert (repr(row["kappa_mean"]), repr(row["total_comm_mean"])) == ("36.75001548052958", "52.7500154805295")


def test_out_of_memory_is_one_line_error(capsys, monkeypatch):
    def no_memory(*args):
        raise MemoryError("Unable to allocate 7.28 TiB for an array")

    monkeypatch.setattr(cli, "random_gradients", no_memory)  # never really allocates
    assert main(_SMALL) == 2
    expected = "bgcsim: error: out of memory: Unable to allocate 7.28 TiB for an array\n"
    assert capsys.readouterr() == ("", expected)


def test_help_still_prints_usage(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["-h"])
    assert exit_info.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: bgcsim")
    # Every setting's flag, ending in its default; argparse wraps lines at the terminal width.
    options = " ".join(out.split()).partition(" options: ")[2]
    entries = {entry.split()[0]: entry for entry in re.split(r" (?=--[a-z])", options)}
    for spec in dataclasses.fields(ExperimentConfig):
        default = "required" if spec.default is dataclasses.MISSING else f"default {spec.default}"
        assert entries["--" + spec.name.replace("_", "-")].endswith(f"({default})")


# A value for every setting, each other than its default.  Set alone on top of
# the required four, each parses to the same config as a flag and as a key.
_SETTINGS = {
    "s": 3,
    "u": 2,
    "p": 12,
    "d": 2,
    "m": 2,
    "q": 257,
    "seed": 5,
    "trials": 4,
    "adversary": "flipflop",
    "sweep": "u=1..2",
    "out": "o.csv",
    "format": "json",
    "dump_transcripts": "dumps",
    "figure": "fig1",
}


@pytest.mark.parametrize("key", sorted(_SETTINGS))
def test_every_setting_parses_the_same_as_a_flag_and_as_a_config_key(tmp_path, key):
    assert sorted(_SETTINGS) == sorted(spec.name for spec in dataclasses.fields(ExperimentConfig))
    values = {"s": 1, "u": 1, "p": 4, "d": 1, key: _SETTINGS[key]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(values))
    flags = [token for name, value in values.items() for token in ("--" + name.replace("_", "-"), str(value))]
    from_flags = parse_config(flags)
    assert from_flags == parse_config(["--config", str(path)])
    assert getattr(from_flags, key) == _SETTINGS[key] != getattr(parse_config(_SMALL[:8]), key)


@pytest.mark.parametrize("key", ["sweep", "out", "dump_transcripts", "figure"])
def test_null_config_keys_take_their_defaults(tmp_path, key):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({**_SMALL_CONFIG, key: None}))
    assert parse_config(["--config", str(path)]) == parse_config(_SMALL)


def test_unknown_adversary_and_figure_rejected_by_library_calls():
    config = parse_config(_SMALL)
    with pytest.raises(ValueError, match=r"^unknown adversary: 'bogus'$"):
        cli.make_adversary("bogus", next(expand_sweep(config)))
    with pytest.raises(ValueError, match=r"^unknown figure: 'fig2'$"):
        emit_figure_data("fig2", config)


def test_truth_synthesized_through_cli_once_per_run(monkeypatch, capsys):
    # Benchmarks hook cli.random_gradients to see where set-up ends, so truth
    # synthesis must go through that name, looked up at call time, once per run.
    argv = ["--s", "2", "--u", "1", "--p", "8", "--d", "2", "--trials", "3",
            "--adversary", "symmetrization", "--sweep", "p=8,16"]
    assert main(argv) == 0
    expected = capsys.readouterr().out
    calls = []

    def counting(params, rng):
        calls.append(params.p)
        return random_gradients(params, rng)

    monkeypatch.setattr(cli, "random_gradients", counting)
    assert main(argv) == 0
    assert capsys.readouterr().out == expected
    assert calls == [8, 8, 8, 16, 16, 16]


@pytest.mark.parametrize("adversary", ["symmetrization", "flipflop", "none"])
def test_previous_truth_freed_before_the_next_draw(monkeypatch, capsys, adversary):
    # Only one truth is alive at a time: the last trial's, across sweep points
    # too, is gone when the next one is drawn.
    refs = []

    def tracking(params, rng):
        assert [ref() for ref in refs] == [None] * len(refs)
        truth = random_gradients(params, rng)
        refs.append(weakref.ref(truth))
        return truth

    monkeypatch.setattr(cli, "random_gradients", tracking)
    argv = ["--s", "2", "--u", "1", "--p", "8", "--d", "2", "--trials", "3",
            "--adversary", adversary, "--sweep", "p=8,16"]
    assert main(argv) == 0
    assert len(refs) == 6


def _same_streams(a, b, n=3):
    """Whether generators a and b agree, as do the children of two ``spawn(n)`` calls and the first child's."""
    first = list(zip(a.spawn(n), b.spawn(n)))
    pairs = [(a, b), *first, *zip(a.spawn(n), b.spawn(n)), *zip(first[0][0].spawn(2), first[0][1].spawn(2))]
    return all(x.bit_generator.state == y.bit_generator.state for x, y in pairs)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 + 5])
@pytest.mark.parametrize("point", [0, 2**32 + 3])
@pytest.mark.parametrize("trial", [0, 2**32 + 3])
def test_entropy_words_seed_the_list_form_streams(seed, point, trial):
    # The CLI seeds from each value's uint32 words, which numpy's SeedSequence
    # would build from the list [seed, point, trial, k] itself.
    words = [word for value in (seed, point, trial) for word in cli._uint32_words(value)]
    for k in (0, 1):
        a = np.random.default_rng(np.array(words + [k], dtype=np.uint32))
        assert _same_streams(a, np.random.default_rng([seed, point, trial, k]))


_WORD = st.one_of(st.sampled_from([0, 2**32 - 1]), st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(4, 8).flatmap(
        lambda width: st.lists(st.lists(_WORD, min_size=width, max_size=width), min_size=1, max_size=300)
    )
)
def test_seed_states_are_seed_sequence_states(rows):
    entropy = np.array(rows, dtype=np.uint32)
    expected = [np.random.SeedSequence(row).generate_state(4, np.uint64) for row in entropy]
    assert np.array_equal(cli._seed_states(entropy), expected)


@pytest.mark.parametrize(
    "seed, point, trials",
    [
        (2**64 + 5, 3, range(cli._SEED_CHUNK + 2)),  # past the first chunk
        (2**32, 2, range(2**32 - 2, 2**32 + 2)),  # a trial's words go from one to two
    ],
)
def test_trial_generators_are_the_list_form(monkeypatch, seed, point, trials):
    # Every fourth trial spawns two children, the rest three, so members of
    # one spawn batch ask for different counts.  Nothing is hashed for a
    # stream before it spawns, and every first spawn is served by its batch.
    real, hashed = cli._seed_states, []
    monkeypatch.setattr(cli, "_seed_states", lambda entropy: hashed.append(len(entropy)) or real(entropy))
    prefix = cli._uint32_words(seed) + cli._uint32_words(point)
    pairs = list(cli._trial_generators(prefix, trials))
    assert len(pairs) == len(trials) and sum(hashed) == 2 * len(trials)
    for trial, pair in zip(trials, pairs):
        for k, rng in enumerate(pair):
            twin, n = np.random.default_rng([seed, point, trial, k]), 2 if trial % 4 == 3 else 3
            assert _same_streams(rng, twin, n) and rng.bit_generator.seed_seq._spawned == n, (trial, k)


@pytest.mark.parametrize("seed", [0, 2**32])
def test_seeded_state_requests_are_the_seed_sequences(seed):
    # PCG64's request, 4 uint64 words, is served from the batch's hash; any
    # other goes to numpy's own SeedSequence, before and after a spawn.
    # Trial 0 asks first, trial 1 spawns first from its batch.
    point, trials = 3, range(2)
    prefix = cli._uint32_words(seed) + cli._uint32_words(point)
    for trial, pair in zip(trials, cli._trial_generators(prefix, trials)):
        for k, rng in enumerate(pair):
            seeded, real = rng.bit_generator.seed_seq, np.random.SeedSequence([seed, point, trial, k])
            if trial:
                seeded.spawn(2)
            for _ in range(2):
                for request in [(8,), (4, np.uint64)]:
                    got, want = seeded.generate_state(*request), real.generate_state(*request)
                    assert got.dtype == want.dtype and got.tolist() == want.tolist(), (trial, k, request)
                seeded.spawn(2)


@pytest.mark.parametrize("seed", [0, 2**32, 2**64 + 5])
def test_cli_seeds_every_trial_as_the_list_form(monkeypatch, capsys, seed):
    # The generators the CLI hands to truth synthesis (k = 0) and to
    # run_trial (k = 1) must be default_rng([seed, point, trial, k]).  A
    # list-form twin goes through the same call, so flip-flop's group
    # streams are spawned from both before their later spawns are compared.
    order = [(point, trial) for point in (0, 1) for trial in (0, 1)]
    seen = {0: [], 1: []}

    def against_twin(k, real):
        def call(*args):
            *head, rng = args
            point, trial = order[len(seen[k])]
            twin = np.random.default_rng([seed, point, trial, k])
            assert rng.bit_generator.state == twin.bit_generator.state, (point, trial, k)
            out = real(*head, rng)
            real(*head, twin)
            assert _same_streams(rng, twin), (point, trial, k)
            seen[k].append((point, trial))
            return out

        return call

    monkeypatch.setattr(cli, "random_gradients", against_twin(0, random_gradients))
    monkeypatch.setattr(cli, "run_trial", against_twin(1, bounds.run_trial))
    argv = ["--s", "2", "--u", "1", "--m", "2", "--p", "8", "--d", "2", "--trials", "2",
            "--adversary", "flipflop", "--sweep", "p=8,16", "--seed", str(seed)]
    assert main(argv) == 0
    assert seen == {0: order, 1: order}


def _no_trials(monkeypatch):
    monkeypatch.setattr(cli, "random_gradients", lambda *args: pytest.fail("a trial ran"))


def test_out_in_missing_directory_rejected_before_any_run(tmp_path, capsys, monkeypatch):
    _no_trials(monkeypatch)
    assert main(_SMALL + ["--out", str(tmp_path / "missing" / "x.csv")]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("bgcsim: error: --out") and "missing" in err


def test_dump_transcripts_onto_a_file_rejected_before_any_run(tmp_path, capsys, monkeypatch):
    _no_trials(monkeypatch)
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(_SMALL + ["--dump-transcripts", str(taken)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("bgcsim: error: --dump-transcripts")


@pytest.mark.parametrize("key", ["out", "dump_transcripts"])
@pytest.mark.parametrize("name", ["a\0b", "x" * 300], ids=["nul", "too-long"])
def test_unusable_output_path_is_one_line_error(tmp_path, capsys, monkeypatch, key, name):
    _no_trials(monkeypatch)
    monkeypatch.chdir(tmp_path)
    config = tmp_path / "config.json"  # a NUL cannot be passed on a command line, only in a file
    config.write_text(json.dumps({"s": 1, "u": 1, "p": 4, "d": 1, "trials": 1, key: name}))
    assert main(["--config", str(config)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.startswith("bgcsim: error: ")
    assert sorted(path.name for path in tmp_path.iterdir()) == ["config.json"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_failed_out_write_is_one_line_error(capsys):
    argv = ["--s", "1", "--u", "1", "--p", "4", "--d", "1", "--trials", "2", "--out", "/dev/full"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("bgcsim: error: cannot write /dev/full: ")


def test_failed_transcript_write_is_one_line_error(tmp_path, capsys, monkeypatch):
    write_text = Path.write_text

    def full_disk(path, *args, **kwargs):
        if path.name.startswith("transcript_"):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))
        return write_text(path, *args, **kwargs)

    monkeypatch.setattr(Path, "write_text", full_disk)
    dump = tmp_path / "dump"
    argv = _SMALL + ["--out", str(tmp_path / "rows.csv"), "--dump-transcripts", str(dump)]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err == (
        f"bgcsim: error: cannot write {dump / 'transcript_p000_t00000.jsonl'}: "
        f"{os.strerror(errno.ENOSPC)}\n"
    )
    assert not (tmp_path / "rows.csv").exists()


@pytest.mark.parametrize("dump", ["rows", "rows/sub"])
def test_out_on_the_dump_path_rejected_before_any_run(tmp_path, capsys, monkeypatch, dump):
    _no_trials(monkeypatch)
    monkeypatch.chdir(tmp_path)
    assert main(_SMALL + ["--out", "rows", "--dump-transcripts", dump]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and err.startswith("bgcsim: error: --out must not lie on")
    assert not list(tmp_path.iterdir())


def test_convergence_figure_without_a_dispute_is_one_line_error(capsys):
    argv = ["--s", "1", "--u", "3", "--p", "64", "--d", "1", "--figure", "appendixF-convergence"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "appendixF-convergence needs floor(s/u) >= 1" in captured.err


@pytest.mark.parametrize("adversary", ["symmetrization", "symmetrization-collusive"])
@pytest.mark.parametrize(
    "shape",
    [["--p", "4"], ["--p", "8", "--sweep", "p=8,4"]],  # infeasible at once, or at the last point
    ids=["single", "sweep"],
)
def test_infeasible_symmetrization_rejected_before_any_trial(capsys, monkeypatch, adversary, shape):
    _no_trials(monkeypatch)
    argv = ["--s", "6", "--u", "1", "--d", "1", "--trials", "1", "--adversary", adversary]
    assert main(argv + shape) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "floor(6/1) = 6 > 4/1 = 4" in err


def test_fig1_reduction_values():
    config = ExperimentConfig(s=10, u=1, p=10**4, d=10**6, q=65536)
    columns, rows = emit_figure_data("fig1", config)
    assert columns == ["u", "c_max", "total_comm_symbols", "draco_total_comm", "reduction_fraction"]
    assert [row["c_max"] for row in rows] == [10, 5, 3, 2, 2, 1, 1, 1, 1, 1, 0]
    assert rows[0]["reduction_fraction"] == pytest.approx(10 / 21, rel=1e-4)
    assert rows[-1]["reduction_fraction"] == 0.0


def test_convergence_grid_monotone_p():
    config = ExperimentConfig(s=10, u=1, p=10**6, d=1, q=65536)
    columns, rows = emit_figure_data("appendixF-convergence", config)
    assert columns == ["p", "ratio", "ratio_limit"]
    ps = [row["p"] for row in rows]
    assert ps == sorted(ps) and ps[-1] == 10**6
    assert all(row["ratio_limit"] == rows[0]["ratio_limit"] for row in rows)


def test_ratio_grid_bounds_ordering():
    config = ExperimentConfig(s=4, u=2, p=2**12, d=1, q=65536)
    _, rows = emit_figure_data("appendixF-ratio", config)
    assert all(row["kappa_upper"] >= row["kappa_lower"] for row in rows)


def test_format_rows_json_round_trip():
    rows = [{"a": 1, "b": 0.1}]
    text = format_rows(["a", "b"], rows, "json")
    assert json.loads(text) == rows


def test_run_experiments_raises_typed_failure(monkeypatch):
    config = ExperimentConfig(s=1, u=1, p=4, d=1, trials=1, seed=0)
    with monkeypatch.context() as patch:
        patch.setattr(
            bounds, "full_gradient", lambda truth, q: np.array([123456], dtype=np.int64)
        )
        with pytest.raises(CorrectnessFailure, match="decode mismatch.*seed=0"):
            run_experiments(config)

    class Framing(ProtocolRun):
        """Eliminates honest worker 2 after an otherwise correct run."""

        def execute(self):
            out = super().execute()
            self._eliminate(0, 1, (2,), "framed")
            return out

    monkeypatch.setattr(bounds, "ProtocolRun", Framing)
    with pytest.raises(CorrectnessFailure, match=r"honest workers eliminated: \[2\].*seed=0"):
        run_experiments(config)


def test_protocol_error_reported_with_reproduction_handle(tmp_path, monkeypatch, capsys):
    """An engine invariant breaking inside a run is one FAILED: line with the handle, exit 1.

    It leaves no transcript to dump, so only the runs before it are dumped."""
    calls = []

    def execute(self):
        calls.append(1)
        if len(calls) == 3:
            raise ProtocolError("group 1 lost every consistent subset")
        return original(self)

    original = ProtocolRun.execute
    monkeypatch.setattr(ProtocolRun, "execute", execute)
    argv = ["--s", "1", "--u", "1", "--p", "4", "--d", "1", "--trials", "2", "--sweep", "p=4,8", "--seed", "7",
            "--dump-transcripts", str(tmp_path)]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.splitlines() == [
        "FAILED: protocol error: group 1 lost every consistent subset at point=1 trial=0 seed=7"
    ]
    assert sorted(path.name for path in tmp_path.iterdir()) == ["transcript_p000_t00000.jsonl", "transcript_p000_t00001.jsonl"]


def test_first_violation_of_each_point_is_one_stderr_line(monkeypatch, capsys):
    # With every worst shape forced to no overhead, kappa_upper reads 0 and
    # every symmetrization run violates it; each point names only its first
    # violating run, and the CSV still comes out.
    real = bounds._upper_shapes
    monkeypatch.setattr(bounds, "_upper_shapes", lambda params: (*real(params)[:2], [(0, 0, 0.0)]))
    argv = ["--s", "1", "--u", "1", "--p", "4", "--d", "1", "--trials", "3", "--adversary", "symmetrization",
            "--sweep", "p=4,8", "--seed", "5"]
    assert main(argv) == 1
    out = capsys.readouterr()
    assert [row["bounds_ok"] for row in csv.DictReader(out.out.splitlines())] == ["0", "0"]
    assert out.err.splitlines() == [
        "bgcsim: bound violated at point=0 trial=0 seed=5: kappa=4.0 exceeds bound 0.0",
        "bgcsim: bound violated at point=1 trial=0 seed=5: kappa=6.0 exceeds bound 0.0",
    ]


def test_breaching_run_dumps_its_transcript_and_names_it(tmp_path, monkeypatch, capsys):
    argv = ["--s", "1", "--u", "1", "--p", "4", "--d", "1", "--trials", "3", "--adversary", "symmetrization",
            "--seed", "7", "--dump-transcripts"]
    clean = tmp_path / "clean"
    assert main([*argv, str(clean)]) == 0
    calls, real = [], bounds.verify_run

    def verify_run(*args):  # the second run breaches
        calls.append(1)
        return ["decode mismatch"] if len(calls) == 2 else real(*args)

    monkeypatch.setattr(bounds, "verify_run", verify_run)
    dump = tmp_path / "dump"
    assert main([*argv, str(dump)]) == 1
    failed = dump / "transcript_p000_t00001.jsonl"
    assert capsys.readouterr().err.splitlines() == [f"FAILED: decode mismatch at point=0 trial=1 seed=7; transcript {failed}"]
    assert sorted(path.name for path in dump.iterdir()) == ["transcript_p000_t00000.jsonl", failed.name]
    assert failed.read_bytes() == (clean / failed.name).read_bytes()  # the breaching run's own transcript


# Property: whatever the config file and flags hold, a run ends in exit 0;
# exit 1 with a FAILED: line or a bounds_ok=0 row; or exit 2 with one line on
# standard error -- never a traceback.  Sizes stay small: a huge p, d or
# trials is a legal configuration that allocates or runs accordingly.
_NAME = st.text(st.characters(exclude_characters="/\\"), max_size=6)  # stays in the cwd
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.floats(),
    st.text(max_size=4),
    st.lists(st.integers(-1, 3), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=1),
)
_FILES = (
    "ok_table.json",
    "big_table.json",
    "bool_table.json",
    "latin1.json",
    "deep.json",
    "missing.json",
    "dir",
)
_VALUES = {
    "s": st.integers(-1, 4),
    "u": st.integers(-1, 4),
    "m": st.integers(0, 3),
    "p": st.integers(-1, 16),
    "d": st.integers(0, 3),
    "q": st.sampled_from([-1, 1, 2, 3, 65536, 2**32, 2**32 + 1, 2**62, 2**64]),
    "n": st.integers(-1, 12),  # n is derived: --n and "n" are an unknown flag and key
    "seed": st.sampled_from([-1, 0, 1, 2**64, 2**70]),
    "trials": st.integers(-1, 3),
    "adversary": st.one_of(
        st.sampled_from(cli.ADVERSARIES + ("bogus", "table:")),
        st.sampled_from(_FILES).map(lambda name: f"table:{name}"),
        _NAME.map(lambda name: f"table:{name}"),
    ),
    "sweep": st.one_of(
        st.sampled_from(["u=1..3", "s=0..3", "p=4,8", "q=2,3", "m=1,2", "d=1..2", "n=3,4", "x=1",
                         "u=", "u=3..1", "u=a..b", "p=1..10**9", "u=1,,2", "p=0..4", "=", ""]),
        st.text(max_size=5),
    ),
    "out": st.one_of(
        st.sampled_from(["o.csv", "missing/o.csv", "dir", "dump", "a", ".", "a\0b", "x" * 300]), _NAME
    ),
    "format": st.sampled_from(["csv", "json"] * 3 + ["xml"]),
    "dump_transcripts": st.one_of(
        st.sampled_from(["dump", "ok_table.json", "a/b", "a\0b", "x" * 300]), _NAME
    ),
    "figure": st.sampled_from(cli.FIGURES + ("fig2",)),
}


def _mostly(valid, junk):
    """``valid`` seven times in eight, so most draws get past the first check."""
    return st.sampled_from([True] * 7 + [False]).flatmap(lambda ok: valid if ok else junk)


_REQUIRED = ("s", "u", "p", "d")
_OBJECTS = st.fixed_dictionaries(
    {key: _mostly(_VALUES[key], _JUNK) for key in _REQUIRED},
    optional={key: _mostly(_VALUES[key], _JUNK) for key in _VALUES if key not in _REQUIRED},
)
_CONFIG_OBJECTS = _mostly(
    _OBJECTS, st.one_of(_JUNK, _OBJECTS.map(lambda config: {**config, "bogus": 1}))
)
_FLAGS = st.lists(
    st.sampled_from(sorted(_VALUES)).flatmap(
        lambda key: st.tuples(
            st.just("--" + key.replace("_", "-")),
            _mostly(_VALUES[key].map(str), st.text(max_size=3)),
        )
    ),
    max_size=4,
)
_BASE = ("--s", "1", "--u", "1", "--p", "4", "--d", "1")  # required flags the draw may override
_STRAY = _mostly(st.just(()), st.sampled_from([("--bogus",), ("-h",), ("x",), ("--config",)]))


@contextlib.contextmanager
def _inside(directory):
    previous = os.getcwd()
    os.chdir(directory)
    try:
        yield
    finally:
        os.chdir(previous)


def _rows_with_bounds_ok_zero(text):
    try:
        rows = json.loads(text)
    except ValueError:
        rows = list(csv.DictReader(io.StringIO(text)))
    return [row for row in rows if str(row.get("bounds_ok")) == "0"]


@settings(max_examples=200, deadline=None)
@given(
    config=_CONFIG_OBJECTS,
    config_path=st.sampled_from([None] * 3 + ["config.json"] * 8 + list(_FILES)),
    base=st.sampled_from([True, True, False]),
    flags=_FLAGS,
    stray=_STRAY,
)
def test_no_input_ends_in_a_traceback(config, config_path, base, flags, stray):
    with tempfile.TemporaryDirectory() as tmp, _inside(tmp):
        Path("ok_table.json").write_text('{"malicious": [1]}')
        Path("big_table.json").write_text(f'{{"malicious": [1], "claims": {{"1": [[{10**30}]]}}}}')
        Path("bool_table.json").write_text('{"malicious": [true]}')
        Path("latin1.json").write_bytes(b'{"s": "\xe9"}')
        Path("deep.json").write_text("[" * 100_000)
        Path("dir").mkdir()
        Path("config.json").write_text(json.dumps(config))
        argv = list(_BASE if base else ()) + [token for flag in flags for token in flag]
        argv += list(stray) + ([] if config_path is None else ["--config", config_path])
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        stderr = err.getvalue()
        if code == 0 or (code == 1 and stderr.startswith("FAILED: ")):
            return
        if code == 1:
            target = cli.parse_config(argv).out
            text = out.getvalue() if target is None else Path(target).read_text()
            assert _rows_with_bounds_ok_zero(text), (argv, stderr)
            return
        assert code == 2, (argv, code)
        assert stderr.startswith("bgcsim: error: ") and stderr.count("\n") == 1, (argv, stderr)
