"""Smoke test of the aggregation step of tools/ab.py, on canned result lines."""

import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

_spec = importlib.util.spec_from_file_location(
    "ab", Path(__file__).resolve().parents[1] / "tools" / "ab.py"
)
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = {"ops_per_s": {"better": "higher", "bound": 0.2},
           "op_ms.p50": {"better": "lower", "bound": 0.2}}


def _output(ops_per_s, p50_ms, failed=0):
    """What perfbench/run.py --trace 0 prints: a detail line, then the result line."""
    detail = {"detail": {"workload": "master-equation", "env": {"python": "3.11.7"}}}
    result = {"correct": failed == 0, "attempted": 100, "failed": failed, "metrics": {
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "op_ms.p50": {"value": p50_ms, "unit": "ms"},
    }}
    return f"warming up\n{json.dumps(detail)}\n{json.dumps(result)}\n"


def test_summary_of_canned_pairs():
    parent = [(70.0, 14.0), (80.0, 12.0), (75.0, 13.0), (60.0, 16.0), (90.0, 11.0)]
    child = [(170.0, 6.0), (150.0, 7.0), (175.0, 5.5), (50.0, 17.0), (160.0, 11.0)]
    runs = {}
    for side, values in (("parent", parent), ("child", child)):
        runs[side] = []
        for pair, (ops, p50) in enumerate(values, start=1):
            result, detail = ab.parse_result(_output(ops, p50))
            assert detail["env"] == {"python": "3.11.7"}
            runs[side].append(ab.run_record(pair, result))
    assert runs["child"][0] == {"pair": 1, "attempted": 100, "failed": 0,
                                "ops_per_s": 170.0, "op_ms.p50": 6.0}
    summary = ab.summarize(runs, METRICS)
    assert summary["ops_per_s"] == {
        "parent": {"median": 75.0, "q1": 70.0, "q3": 80.0},
        "child": {"median": 160.0, "q1": 150.0, "q3": 170.0},
        "child_wins": 4, "pairs": 5, "verdict": "no change",
    }
    # lower is better; pair 5 is a tie, which the child does not win
    assert summary["op_ms.p50"]["child_wins"] == 3
    assert summary["op_ms.p50"]["parent"] == {"median": 13.0, "q1": 12.0, "q3": 14.0}


PARENT = [100.0, 104.0, 101.0, 108.0, 103.0, 106.0, 102.0, 109.0, 105.0, 107.0]
WIDE = [50.0, 150.0, 60.0, 140.0, 70.0, 130.0, 80.0, 120.0, 90.0, 110.0]


@pytest.mark.parametrize("parent, child, better, expected", [
    # every pair won by 20, against a quartile spread of 4.5
    (PARENT, [v + 20.0 for v in PARENT], "higher", "gain"),
    # 9 of 10 pairs still make a gain; 8 of 10 do not
    (PARENT, [v + 20.0 for v in PARENT[:9]] + [99.0], "higher", "gain"),
    (PARENT, [v + 20.0 for v in PARENT[:8]] + [99.0, 99.0], "higher", "no change"),
    # a gain is measured against the quartile spread, not the bound
    (PARENT, [v + 4.0 for v in PARENT], "higher", "no change"),
    # 30% fewer ops, or a 30% longer op, is worse than the 0.2 bound
    (PARENT, [0.7 * v for v in PARENT], "higher", "regression"),
    (PARENT, [1.3 * v for v in PARENT], "lower", "regression"),
    (PARENT, [0.9 * v for v in PARENT], "higher", "no change"),
    # a parent spread of 55 against a median of 100 cannot resolve a 0.2 bound,
    # even when the child wins every pair ...
    (WIDE, [v + 1.0 for v in WIDE[:9]] + [109.0], "higher", "unresolved"),
    (WIDE, [v + 1.0 for v in WIDE], "higher", "unresolved"),
    # ... unless every child run is better than every parent run
    (WIDE, [151.0] * 10, "higher", "no change"),
    (WIDE, [49.0] * 10, "lower", "no change"),
])
def test_verdicts_of_synthetic_runs(parent, child, better, expected):
    runs = {side: [{"pair": i + 1, "m": v} for i, v in enumerate(values)]
            for side, values in (("parent", parent), ("child", child))}
    summary = ab.summarize(runs, {"m": {"better": better, "bound": 0.2}})
    assert summary["m"]["verdict"] == expected


def test_output_without_a_result_line_is_refused():
    with pytest.raises(ValueError, match="no result line"):
        ab.parse_result("no lightstore source tree\n")
    detail_only = _output(1.0, 1.0).strip().splitlines()[:-1]
    with pytest.raises(ValueError, match="not a result line"):
        ab.parse_result("\n".join(detail_only + ['{"detail": {}}']))



@pytest.fixture()
def git_repo(monkeypatch, tmp_path):
    """A repository of two commits holding BENCHMARK.json, made ab.REPO; returns the SHAs."""
    repo = tmp_path / "repo"
    repo.mkdir()
    (repo / "BENCHMARK.json").write_bytes((ab.REPO / "BENCHMARK.json").read_bytes())
    git = ["git", "-C", str(repo), "-c", "user.name=ab", "-c", "user.email=ab@example.invalid",
           "-c", "commit.gpgsign=false"]
    subprocess.run([*git, "init", "-q"], check=True)
    subprocess.run([*git, "add", "BENCHMARK.json"], check=True)
    commits = []
    for message in ("first", "second"):
        subprocess.run([*git, "commit", "-q", "--allow-empty", "-m", message], check=True)
        commits.append(subprocess.run([*git, "rev-parse", "HEAD"], check=True,
                                      capture_output=True, text=True).stdout.strip())
    monkeypatch.setattr(ab, "REPO", repo)
    return commits


def _fake_runs(monkeypatch, fail_on=None):
    """Replace the export and the benchmark runs; returns the exported revisions and the runs."""
    benchmark = json.loads((ab.REPO / "BENCHMARK.json").read_text())
    exported, calls = [], []

    def fake_run(root, workload, seed, seconds):
        calls.append((workload, seed, seconds))
        if len(calls) == fail_on:
            raise RuntimeError(f"{workload} exited 1")
        result, detail = ab.parse_result(_output(70.0 + len(calls), 14.0))
        for m in benchmark["end_to_end"]:
            result["metrics"].setdefault(m["name"], {"value": 1.0, "unit": m["unit"]})
        return result, detail

    monkeypatch.setattr(ab, "export_revision", lambda rev, dest: exported.append(rev))
    monkeypatch.setattr(ab, "run_benchmark", fake_run)
    return exported, calls


def test_parent_is_recorded_as_the_commit_it_resolves_to(monkeypatch, tmp_path, git_repo):
    exported, calls = _fake_runs(monkeypatch)
    out = tmp_path / "BENCH_parent.json"
    assert ab.main(["--parent", "HEAD~1", "--workload", "master-equation", "--pairs", "2",
                    "--out", str(out)]) == 0
    assert exported == [git_repo[0]]
    assert len(calls) == 4
    assert json.loads(out.read_text())["parent"] == git_repo[0]


@pytest.mark.parametrize("rev", ["no-such-revision", "HEAD~2", "HEAD:BENCHMARK.json"])
def test_a_parent_that_names_no_commit_ends_before_any_run(monkeypatch, tmp_path, capsys,
                                                           git_repo, rev):
    exported, calls = _fake_runs(monkeypatch)
    out = tmp_path / "BENCH_parent.json"
    with pytest.raises(SystemExit) as exc:
        ab.main(["--parent", rev, "--workload", "master-equation", "--out", str(out)])
    assert exc.value.code == 2
    assert f"--parent {rev!r} names no commit" in capsys.readouterr().err
    assert (exported, calls) == ([], [])
    assert not out.exists()


def test_failed_run_still_writes_the_runs_made(monkeypatch, tmp_path, git_repo):
    benchmark = json.loads((ab.REPO / "BENCHMARK.json").read_text())
    _, calls = _fake_runs(monkeypatch, fail_on=4)
    out = tmp_path / "BENCH_partial.json"
    status = ab.main(["--parent", "HEAD", "--workload", "master-equation",
                      "--pairs", "3", "--seed", "7", "--out", str(out)])
    assert status == 1
    # every run takes the benchmark's run length; pair 2 runs the child first
    assert calls == [("master-equation", 7, float(benchmark["run_seconds"])),
                     ("master-equation", 7, float(benchmark["run_seconds"])),
                     ("master-equation", 8, float(benchmark["run_seconds"])),
                     ("master-equation", 8, float(benchmark["run_seconds"]))]
    report = json.loads(out.read_text())
    assert report["failed"] == "master-equation exited 1"
    runs = report["workloads"]["master-equation"]["runs"]
    assert [r["ops_per_s"] for r in runs["parent"]] == [71.0]
    assert [r["ops_per_s"] for r in runs["child"]] == [72.0, 73.0]
    assert "summary" not in report["workloads"]["master-equation"]
