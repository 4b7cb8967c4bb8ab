import json

import numpy as np
import pytest

import bgcsim.bounds as bounds
import bgcsim.cli as cli
from bgcsim.cli import (
    CorrectnessFailure,
    ExperimentConfig,
    emit_figure_data,
    expand_sweep,
    format_rows,
    main,
    parse_config,
    run_experiments,
)
from bgcsim.protocol import ProtocolRun


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


def test_missing_required_flag_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exit_info:
        parse_config(["--u", "1", "--p", "8", "--d", "1"])
    assert exit_info.value.code == 2
    assert "--s" in capsys.readouterr().err


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit):
        parse_config(["--s", "1", "--u", "1", "--p", "8", "--d", "1", "--bogus", "3"])
    assert "--bogus" in capsys.readouterr().err


def test_invalid_params_reported_with_key(capsys):
    with pytest.raises(SystemExit):
        parse_config(["--s", "1", "--u", "1", "--m", "2", "--p", "7", "--d", "1"])
    assert "divide p" in capsys.readouterr().err


def test_sweep_expansion_recomputes_n():
    config = parse_config(
        ["--s", "10", "--u", "1", "--p", "16", "--d", "1", "--sweep", "u=1..11"]
    )
    points = expand_sweep(config)
    assert len(points) == 11
    assert [pt.u for pt in points] == list(range(1, 12))
    assert [pt.n for pt in points] == [10 + u for u in range(1, 12)]


def test_sweep_list_form():
    config = parse_config(["--s", "2", "--u", "1", "--p", "8", "--d", "1", "--sweep", "p=8,16,32"])
    assert [pt.p for pt in expand_sweep(config)] == [8, 16, 32]


def test_explicit_n_must_match_every_point(capsys):
    with pytest.raises(SystemExit):
        parse_config(
            ["--s", "2", "--u", "1", "--n", "3", "--p", "8", "--d", "1", "--sweep", "u=1..3"]
        )
    assert "contradicts" in capsys.readouterr().err


def test_config_file_with_flag_override(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"s": 2, "u": 1, "p": 8, "d": 1, "trials": 7}))
    config = parse_config(["--config", str(path), "--trials", "9"])
    assert config.s == 2 and config.trials == 9


def test_config_file_unknown_keys_rejected(tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"s": 2, "u": 1, "p": 8, "d": 1, "bogus": 1}))
    with pytest.raises(SystemExit):
        parse_config(["--config", str(path)])
    assert "bogus" in capsys.readouterr().err


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
    block[2, 0] = (block[2, 0] + 5) % params.q
    spec = {"malicious": [1], "claims": {"1": block.tolist()}}
    path = tmp_path / "table.json"
    path.write_text(json.dumps(spec))
    adversary = cli.make_adversary(f"table:{path}", params)
    _, metrics, transcript, _ = run_and_check(params, truth, adversary)
    assert transcript.eliminated_workers() == {1}
    assert metrics.c == 1


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

    monkeypatch.setattr(cli, "ProtocolRun", Framing)
    with pytest.raises(CorrectnessFailure, match=r"honest workers eliminated: \[2\].*seed=0"):
        run_experiments(config)
