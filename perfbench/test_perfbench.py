"""Tests of the benchmark's own logic: statistics, span arithmetic, checks.

Run with ``python -m pytest perfbench`` from the repository root.
"""

import dataclasses
import json
import math
import pickle
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if str(ROOT / "src") not in sys.path:
    sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import stats  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from lightstore import orchestrator  # noqa: E402
from lightstore.configfile import default_config  # noqa: E402
from lightstore.orchestrator import StudyPlan  # noqa: E402


@pytest.fixture(scope="module")
def loaded():
    return default_config()


# -- tail percentile ---------------------------------------------------------


def test_tail_leaves_exactly_ten_samples_beyond():
    values = [float(v) for v in range(1000, 0, -1)]
    value, percentile, n = stats.tail(values)
    assert (value, percentile, n) == (990.0, 99.0, 1000)
    assert sum(v > value for v in values) == stats.TAIL_BEYOND


def test_tail_of_eleven_samples_is_the_minimum():
    value, percentile, n = stats.tail([5.0, 1.0, 9.0, 3.0, 7.0, 2.0, 8.0, 4.0, 6.0, 10.0, 11.0])
    assert value == 1.0
    assert percentile == pytest.approx(100.0 / 11.0)
    assert n == 11


def test_tail_needs_more_than_ten_samples():
    with pytest.raises(ValueError):
        stats.tail([1.0] * 10)


def test_tail_detail_is_none_with_ten_samples_or_fewer():
    assert harness.tail_detail([0.02] * 10) is None
    assert harness.tail_detail([0.001 * k for k in range(1, 12)]) == {
        "value": pytest.approx(1.0), "unit": "ms",
        "percentile": pytest.approx(100.0 / 11.0), "samples": 11}


def test_a_run_too_short_for_a_tail_still_reports(capsys):
    assert harness.run("master-equation", 1, 0.01, False, ROOT) == 0
    lines = capsys.readouterr().out.splitlines()
    detail, result = json.loads(lines[-2])["detail"], json.loads(lines[-1])
    assert detail["untraced_ops"] >= 1 and detail["op_ms.tail"] is None
    assert result["correct"] and set(result["metrics"]) == set(harness.END_TO_END_UNITS)


def test_coverage_gaps_measure_distance_from_nominal_coverage():
    log = harness.OpLog(within_1sigma=70, within_3sigma=99, shift_ops=100)
    gap_1, gap_3 = log.coverage_gaps()
    assert gap_1 == pytest.approx(abs(0.70 - 0.6826894921370859))
    assert gap_3 == pytest.approx(abs(0.99 - 0.9973002039367398))
    assert harness.OpLog().coverage_gaps() == (0.0, 0.0)


def test_quartile_spread_matches_statistics_quantiles():
    assert stats.quartile_spread([1.0, 2.0, 3.0, 4.0, 5.0]) == pytest.approx((4.5 - 1.5) / 3.0)


# -- self time ---------------------------------------------------------------


def _span(sid, parent, name, start, end, pid=1, **attrs):
    return tracing.Span(sid, parent, 0, name, pid, start, end, attrs)


def test_covered_merges_overlapping_children_and_clips_to_parent():
    assert stats.covered((0.0, 10.0), [(1.0, 4.0), (3.0, 6.0), (5.0, 12.0)]) == 9.0
    assert stats.covered((0.0, 10.0), [(2.0, 3.0), (6.0, 7.0), (-5.0, -1.0)]) == 2.0
    assert stats.covered((0.0, 10.0), []) == 0.0


def test_self_time_subtracts_overlapping_children_of_any_process():
    spans = [
        _span("p", None, tracing.ROOT, 0.0, 10.0),
        _span("a", "p", "analysis.fit_beat.input", 1.0, 4.0),
        _span("b", "p", "storage.simulate_storage", 3.0, 6.0),
        _span("pool", "p", "orchestrator.pool", 6.5, 9.5, jobs=2),
        _span("w1", "pool", "orchestrator.point", 7.0, 8.0, pid=2),
        _span("w2", "pool", "orchestrator.point", 7.5, 8.5, pid=3),
    ]
    selfs = tracing.self_times(spans)
    assert selfs["p"] == pytest.approx(10.0 - 5.0 - 3.0)
    assert selfs["a"] == pytest.approx(3.0)
    assert selfs["pool"] == pytest.approx(3.0 - 1.5)
    assert selfs["w1"] == pytest.approx(1.0)


def test_summarize_accounts_op_wall_time_and_pool_capacity():
    spans = [
        _span("r", None, tracing.ROOT, 0.0, 10.0),
        _span("s", "r", "orchestrator.run_spectroscopy", 0.5, 9.5,
              points_attempted=9, points_usable=8),
        _span("pool", "s", "orchestrator.pool", 1.0, 9.0, jobs=2),
        _span("w1", "pool", "orchestrator.point", 1.5, 5.0, pid=2),
        _span("w2", "pool", "orchestrator.point", 2.0, 8.0, pid=3),
        _span("f", "w2", "analysis.fit_beat.retrieved", 2.0, 4.0, pid=3, nfev=40),
        _span("g", "w1", "storage.simulate_storage", 3.0, 5.0, pid=2),
        _span("h", "s", "analysis.from_points", 9.0, 9.25),
    ]
    m = tracing.summarize(spans, main_pid=1)
    assert m["trace.ops"] == 1
    # work-layer spans of any process cover [2, 5] and [9, 9.25] of the 10 s op
    assert m["trace.accounted_ratio"] == pytest.approx(3.25 / 10.0)
    # study bookkeeping 0.5 + 0.25, and the pool's 1.5 s without a point running
    assert m["orchestrator.self_ms"] == pytest.approx(2250.0)
    assert m["analysis.self_ms"] == pytest.approx(250.0)
    assert m["analysis.fit_beat.retrieved.busy_ms"] == pytest.approx(2000.0)
    assert m["analysis.fit_beat.retrieved.nfev"] == 40
    assert m["orchestrator.pool.count"] == 1
    assert m["orchestrator.pool.worker_busy_ratio"] == pytest.approx(9.5 / 16.0)
    assert m["orchestrator.points.usable_ratio"] == pytest.approx(8.0 / 9.0)


# -- tracing the real program --------------------------------------------------


def test_tracer_sees_pool_workers_and_restores_the_originals(loaded, tmp_path):
    originals = (orchestrator.fit_beat, orchestrator._measure_point,
                 orchestrator.ProcessPoolExecutor)
    tracer = tracing.Tracer(tmp_path).install()
    try:
        pickle.dumps(orchestrator._measure_point)
        root = tracer.begin(tracing.ROOT)
        plan = StudyPlan.from_loaded(loaded, "spectroscopy", seed_base=3, jobs=2)
        orchestrator.run_spectroscopy(plan)
        tracer.end(root)
    finally:
        tracer.uninstall()
    tracer.collect()
    assert (orchestrator.fit_beat, orchestrator._measure_point,
            orchestrator.ProcessPoolExecutor) == originals
    names = [s.name for s in tracer.spans if s.pid != tracer.pid]
    assert names.count("storage.simulate_storage") == 90
    assert names.count("analysis.fit_beat.input") == 9
    assert names.count("orchestrator.point") == 9
    m = tracing.summarize(tracer.spans, tracer.pid)
    assert m["orchestrator.pool.count"] == 1
    assert 0.0 < m["orchestrator.pool.worker_busy_ratio"] <= 1.0
    assert 0.5 < m["trace.accounted_ratio"] < 1.0


def test_tracer_refuses_a_program_without_a_traced_name(monkeypatch, tmp_path):
    monkeypatch.delattr(orchestrator, "write_fits_csv")
    fit_beat = orchestrator.fit_beat
    with pytest.raises(LookupError, match="lightstore.orchestrator.write_fits_csv"):
        tracing.Tracer(tmp_path).install()
    assert orchestrator.fit_beat is fit_beat
    assert tracing._ACTIVE is None


# -- correctness checks ---------------------------------------------------------


def test_spectroscopy_check_rejects_corrupted_results(loaded, tmp_path):
    workload = workloads.McSpectroscopy(loaded, 1, tmp_path)
    result, record = workload.op(0)
    assert workloads.check_spectroscopy(result, record) is None
    nan_shift = dataclasses.replace(result, delta_f_ac_hz=math.nan)
    assert "not finite" in workloads.check_spectroscopy(nan_shift, record)
    far = dataclasses.replace(result, delta_f_ac_hz=result.delta_f_ac_hz
                              + 6.0 * result.delta_f_ac_err_hz)
    assert "5 sigma" in workloads.check_spectroscopy(far, record)
    excluded = [dataclasses.replace(p, error="FitError: x") for p in record.points[:-2]]
    few = dataclasses.replace(record, points=tuple(excluded) + record.points[-2:])
    assert "usable" in workloads.check_spectroscopy(result, few)


def test_reanalysis_check_rejects_an_edited_nested_result(loaded, tmp_path):
    workload = workloads.PersistedSweep(loaded, 1, tmp_path)
    out_dir, reanalyzed = workload.op(0)
    assert len(reanalyzed) == 6
    assert workloads.check_reanalysis(out_dir, reanalyzed) is None

    path = out_dir / "points" / "4" / "result.csv"
    original = path.read_text()
    stored = workloads.read_result_csv(path)["delta_f_ac_err_hz"]
    path.write_text(original.replace(stored, repr(float(stored) * (1.0 + 1e-15))))
    assert "sweep point 4" in workloads.check_reanalysis(out_dir, reanalyzed)
    path.write_text(original)

    (out_dir / "run.json").unlink()
    assert workloads.check_reanalysis(out_dir, reanalyzed) == "run.json missing"
    workload.cleanup((out_dir, reanalyzed))
    assert not out_dir.exists()


def test_dark_resonance_check_rejects_corrupted_spectra(loaded, tmp_path):
    points, record = workloads.MasterEquation(loaded, 1, tmp_path).op(0)
    assert workloads.check_dark_resonance(points, record) is None
    skewed = list(points)
    skewed[0] = dataclasses.replace(skewed[0], transmission=skewed[0].transmission + 1e-9)
    assert "asymmetric" in workloads.check_dark_resonance(skewed, record)
    summary = dict(record.summary)
    for key, value in (("fwhm_hz", 45e3), ("peak_delta_r_hz", 500.0)):
        bad = dataclasses.replace(record, summary=tuple({**summary, key: value}.items()))
        assert workloads.check_dark_resonance(points, bad) is not None


# -- the contract file and the bare directory -------------------------------------


def test_benchmark_json_lists_what_the_harness_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == harness.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == harness.PER_LAYER_UNITS
    mapped = {name for entry in json.loads((HERE / "layer_map.json").read_text())["map"]
              for name in entry["metrics"]}
    assert mapped == set(harness.PER_LAYER_UNITS)


def test_without_the_source_tree_the_benchmark_fails_and_prints_no_result(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "master-equation",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
