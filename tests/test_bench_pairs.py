"""The verdict arithmetic of scripts/bench_pairs.py, on fixed numbers, and its set-up order."""

import importlib.util
import subprocess
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

PARENT = [10.0, 10.5, 9.5, 10.0, 10.2, 9.8, 10.1, 9.9, 10.3, 9.7]  # quartiles 9.775 and 10.225


def test_quartiles_follow_perfbench():
    got = bench_pairs.compare(PARENT, PARENT, "higher")
    assert got["parent_median"] == pytest.approx(10.0)
    assert (got["parent_q1"], got["parent_q3"]) == pytest.approx((9.775, 10.225))
    assert got["parent_iqr"] == pytest.approx(0.45)
    one = bench_pairs.compare([3.0], [4.0], "higher")
    assert (one["parent_median"], one["parent_q1"], one["parent_q3"], one["parent_iqr"]) == (3.0, 3.0, 3.0, 0)


def test_claim_holds_at_nine_wins_and_a_gap_above_the_parent_iqr():
    change = [p + 1.0 for p in PARENT]
    change[4] = PARENT[4] - 0.1  # one loss
    got = bench_pairs.compare(PARENT, change, "higher", 0.25)
    assert got["change_wins"] == "9/10" and got["claim_holds"] and got["within_bound"]
    assert got["change_median"] - got["parent_median"] > got["parent_iqr"]


def test_claim_fails_at_eight_wins():
    change = [p + 1.0 for p in PARENT]
    change[4] = change[7] = 0.0
    got = bench_pairs.compare(PARENT, change, "higher")
    assert got["change_wins"] == "8/10" and not got["claim_holds"]
    assert "within_bound" not in got


def test_ties_count_for_neither_side():
    change = [p + 1.0 for p in PARENT]
    change[0] = PARENT[0]
    assert bench_pairs.compare(PARENT, change, "higher")["change_wins"] == "9/10"
    change[1] = PARENT[1]
    assert not bench_pairs.compare(PARENT, change, "higher")["claim_holds"]


def test_claim_fails_when_the_gap_is_inside_the_parent_iqr():
    change = [p + 0.2 for p in PARENT]  # 10/10 wins, median gap 0.2 < IQR 0.45
    got = bench_pairs.compare(PARENT, change, "higher")
    assert got["change_wins"] == "10/10" and not got["claim_holds"]


def test_lower_is_better_and_the_bound_is_relative():
    change = [p - 1.0 for p in PARENT]
    assert bench_pairs.compare(PARENT, change, "lower", 0.1)["claim_holds"]
    worse = [p * 1.09 for p in PARENT]
    assert bench_pairs.compare(PARENT, worse, "lower", 0.1)["within_bound"]
    worse = [p * 1.11 for p in PARENT]
    got = bench_pairs.compare(PARENT, worse, "lower", 0.1)
    assert not got["within_bound"] and not got["claim_holds"] and got["change_wins"] == "0/10"


def test_pairs_must_match():
    with pytest.raises(ValueError):
        bench_pairs.compare(PARENT, PARENT[:-1], "higher")


def test_both_checkouts_are_compiled_before_any_run(tmp_path, monkeypatch):
    # Under PYTHONDONTWRITEBYTECODE=1 perfbench cannot write its byte-code
    # cache, so a checkout without one compiles bgcsim in every child.  The
    # change is compiled and run from its fresh copy beside the parent.
    parent, change = tmp_path / "parent", tmp_path / "change"
    for checkout in (parent, change):
        (checkout / "perfbench").mkdir(parents=True)
        (checkout / "perfbench" / "run.py").write_text("")
    (change / "BENCHMARK.json").write_text('{"run_seconds": 1, "end_to_end": []}')
    subprocess.run(["git", "init", "-q"], cwd=change, check=True)
    calls = []
    real_run = subprocess.run

    class FirstRun(Exception):
        pass

    def fake_run(argv, cwd, **kwargs):
        if argv[0] == "git":
            return real_run(argv, cwd=cwd, **kwargs)
        calls.append((argv[1:], Path(cwd)))
        if "perfbench/run.py" in argv:
            raise FirstRun
        return subprocess.CompletedProcess(argv, 0, "", "")

    monkeypatch.setattr(bench_pairs, "ROOT", change)
    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    with pytest.raises(FirstRun):
        bench_pairs.main(["--parent", str(parent), "--pr", "0", "--first-seed", "1"])
    compile_argv = ["-m", "compileall", "-q", "src", "perfbench"]
    copy = calls[1][1]
    assert copy.parent == tmp_path and copy not in (parent, change)
    assert calls[:2] == [(compile_argv, parent), (compile_argv, copy)]
    assert calls[2] == (calls[2][0], parent) and calls[2][0][0] == "perfbench/run.py" and len(calls) == 3
    assert not copy.exists()  # removed even when a run fails


def _git(repo, *args):
    subprocess.run(["git", "-c", "user.name=t", "-c", "user.email=t@t", "-c", "commit.gpgsign=false", *args],
                   cwd=repo, check=True, capture_output=True)


def test_the_change_is_copied_as_git_sees_its_working_tree(tmp_path):
    repo, copy = tmp_path / "repo", tmp_path / "copy"
    files = {
        ".gitignore": "__pycache__/\n.perfbench_work/\n*.log\n",
        "src/pkg/mod.py": "old\n",
        "gone.txt": "deleted\n",
    }
    for name, text in files.items():
        (repo / name).parent.mkdir(parents=True, exist_ok=True)
        (repo / name).write_text(text)
    _git(repo, "init", "-q")
    _git(repo, "add", "-A")
    _git(repo, "commit", "-qm", "base")
    (repo / "src/pkg/mod.py").write_text("modified\n")  # tracked, changed and not staged
    (repo / "src/pkg/new.py").write_text("new\n")  # untracked
    (repo / "run.log").write_text("ignored\n")
    (repo / "gone.txt").unlink()  # tracked, deleted
    for junk in ("src/pkg/__pycache__/mod.cpython-311.pyc", ".perfbench_work/out.csv"):
        (repo / junk).parent.mkdir(parents=True)
        (repo / junk).write_text("junk\n")
    copy.mkdir()
    bench_pairs.copy_worktree(repo, copy)
    got = {str(path.relative_to(copy)): path.read_text() for path in copy.rglob("*") if path.is_file()}
    assert got == {".gitignore": files[".gitignore"], "src/pkg/mod.py": "modified\n", "src/pkg/new.py": "new\n"}


def test_traced_pairs_summarize_every_per_layer_metric(monkeypatch):
    # 4 alternating traced pairs at the first seeds, each per-layer metric
    # summed up by compare; the change wins "a.s" in 3 pairs and "b" in none.
    spec = {
        "run_seconds": 7,
        "end_to_end": [{"name": "runs_per_s", "better": "higher", "bound": 0.25}],
        "per_layer": [{"name": "a.s", "better": "lower"}, {"name": "b", "better": "higher"}],
    }
    calls = []

    def fake_side(checkout, workload, seed, seconds, trace):
        calls.append((checkout, workload, seed, seconds, trace))
        change = checkout == "change"
        if trace:
            a = 1.0 - 0.1 * change * (seed != 102)
            metrics = {"a.s": a, "b": 5.0}
        else:
            metrics = {"runs_per_s": 1.0}
        detail = {"seed": seed, "csv_sha256": "x", "git_commit": "c", "src_sha256": checkout}
        return {"correct": True, "metrics": {k: {"value": v} for k, v in metrics.items()}, "detail": detail}

    monkeypatch.setattr(bench_pairs, "run_side", fake_side)
    monkeypatch.setattr(bench_pairs, "WORKLOADS", ["w"])
    report = bench_pairs.bench("parent", "change", spec, 100)
    traced = [c for c in calls if c[4]]
    assert [c[2] for c in traced] == [100, 100, 101, 101, 102, 102, 103, 103]
    assert [c[0] for c in traced[:4]] == ["parent", "change", "change", "parent"]
    assert all(c[3] == 7 for c in traced)
    got = report["traced"]["w"]
    assert got["seeds"] == [100, 101, 102, 103] and got["all_correct"] and got["csv_sha256_equal"]
    assert set(got) == {"seeds", "csv_sha256_equal", "all_correct", "a.s", "b"}
    assert got["a.s"]["parent_median"] == 1.0 and got["a.s"]["change_median"] == pytest.approx(0.9)
    assert got["a.s"]["change_wins"] == "3/4" and not got["a.s"]["claim_holds"]
    assert got["b"]["change_wins"] == "0/4" and "within_bound" not in got["b"]
    assert report["summary"]["w"]["runs_per_s"]["change_wins"] == "0/10"
