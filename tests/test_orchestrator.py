import csv
import dataclasses
import json
import re
import shutil
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import lightstore
from lightstore import analysis, orchestrator
from lightstore.analysis import intersection
from lightstore.configfile import (
    AVERAGE_TRACES,
    FIT_THEN_AVERAGE,
    LoadedExperiment,
    dump_config,
    load_config,
)
from lightstore.model import ConfigurationError, LightShiftModel
from lightstore.orchestrator import (
    STUDY_KINDS,
    OrchestrationError,
    PointRecord,
    RunRecord,
    StudyPlan,
    fit_only,
    point_seed,
    reanalyze_spectroscopy,
    run_control_sweep,
    run_dark_resonance,
    run_signal_sweep,
    run_spectroscopy,
)
from lightstore.storage import simulate_storage, write_trace_csv


def _no_shift(loaded):
    cfg = replace(
        loaded.config,
        light_shift=LightShiftModel(couplings=(), linewidth_rad=1e7),
    )
    return replace(loaded, config=cfg)


def _assert_same_tree(dir_a, dir_b):
    """Both run directories hold the same files with the same bytes; run.json
    files may differ only in their timing."""
    files = sorted(p.relative_to(dir_a) for p in dir_a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(dir_b) for p in dir_b.rglob("*") if p.is_file())
    for rel in files:
        a, b = (dir_a / rel).read_bytes(), (dir_b / rel).read_bytes()
        if rel.name == "run.json":
            a, b = ({k: v for k, v in json.loads(raw).items()
                     if k not in ("started_at", "elapsed_s")} for raw in (a, b))
        assert a == b, rel


class TestPointSeed:
    def test_deterministic(self):
        assert point_seed(42, 3, 1) == point_seed(42, 3, 1)

    def test_distinct_across_points_and_reps(self):
        seeds = {point_seed(42, i, r) for i in range(50) for r in range(20)}
        assert len(seeds) == 1000

    def test_depends_on_base(self):
        assert point_seed(1, 0, 0) != point_seed(2, 0, 0)


class TestRunSpectroscopy:
    def test_noiseless_zero_shift_intersects_at_origin(self, noiseless):
        plan = StudyPlan.from_loaded(_no_shift(noiseless), "spectroscopy", seed_base=1)
        result, record = run_spectroscopy(plan)
        assert result.delta_f_ac_hz == pytest.approx(0.0, abs=1e-3)
        assert result.delta_f_ac_err_hz < 1e-3
        assert result.input_fit.slope == pytest.approx(1.0, abs=1e-9)
        assert abs(result.retrieved_fit.slope) < 1e-9

    def test_default_noise_recovers_injected_shift(self, loaded):
        plan = StudyPlan.from_loaded(loaded, "spectroscopy", seed_base=7)
        result, record = run_spectroscopy(plan)
        assert abs(result.delta_f_ac_hz - 7000.0) <= 3.0 * result.delta_f_ac_err_hz
        assert result.input_fit.slope == pytest.approx(1.0, abs=0.02)
        assert abs(result.retrieved_fit.slope) < 0.02
        assert not any(p.excluded for p in record.points)

    def test_unusable_points_abort(self, loaded):
        dead = replace(loaded, config=replace(loaded.config, storage_efficiency=0.0))
        plan = StudyPlan.from_loaded(dead, "spectroscopy", seed_base=1)
        with pytest.raises(OrchestrationError, match="usable"):
            run_spectroscopy(plan)

    def test_failed_point_is_excluded_and_reported(self, loaded, tmp_path):
        # delta_R = -zeeman puts the input beat at DC; that point alone fails
        zeeman = loaded.config.magnetic.zeeman_splitting()
        study = replace(
            loaded.study, delta_r_grid_hz=(-zeeman, -5e3, 0.0, 5e3, 10e3)
        )
        varied = LoadedExperiment(
            config=loaded.config, sequence=loaded.sequence, study=study
        )
        out = tmp_path / "run"
        plan = StudyPlan.from_loaded(varied, "spectroscopy", seed_base=2, out_dir=out)
        with pytest.warns(UserWarning, match="window"):
            result, record = run_spectroscopy(plan)
        assert [p.excluded for p in record.points] == [True, False, False, False, False]
        assert "LowSnrError" in record.points[0].error
        assert len(result.points) == 4
        rows = (out / "summary.csv").read_text().splitlines()
        assert rows[1].split(",")[6] == "1"  # excluded flag in the summary

    def test_nan_standard_error_excludes_only_its_point(self, loaded, tmp_path, nan_covariance):
        # at jobs=1 the grid's input windows are one stack, fitted first, so
        # the third inverse is point 2's
        summaries = {}
        for name in ("clean", "nan"):
            if name == "nan":
                nan_covariance(2)
            out = tmp_path / name
            run_spectroscopy(StudyPlan.from_loaded(loaded, "spectroscopy", seed_base=5, out_dir=out))
            with open(out / "summary.csv", newline="") as fh:
                summaries[name] = list(csv.reader(fh))
        clean, nan = summaries["clean"], summaries["nan"]
        assert [row for row in nan if row not in clean] == [
            ["2", clean[3][1], "", "", "", "", "1",
             "FitError: non-finite standard error: f_b_err_hz, amplitude_err, phase_err_rad, "
             "dc_offset_err, dc_slope_err = nan"]
        ]
        assert len(nan) == len(clean)

    def test_grid_outside_window_warns(self, loaded):
        study = replace(loaded.study, delta_r_grid_hz=(-80e3, 0.0, 80e3))
        wide = LoadedExperiment(config=loaded.config, sequence=loaded.sequence, study=study)
        plan = StudyPlan.from_loaded(wide, "spectroscopy", seed_base=1)
        with pytest.warns(UserWarning, match="window"):
            run_spectroscopy(plan)

    def test_persisted_layout(self, loaded, tmp_path):
        out = tmp_path / "run"
        plan = StudyPlan.from_loaded(loaded, "spectroscopy", seed_base=3, out_dir=out)
        run_spectroscopy(plan)
        for name in ("plan.cfg", "summary.csv", "result.csv", "run.json"):
            assert (out / name).is_file(), name
        n_points = len(loaded.study.delta_r_grid_hz)
        for i in range(n_points):
            assert (out / "points" / str(i) / "trace.npz").is_file()
            assert (out / "points" / str(i) / "fits.csv").is_file()

    def test_traces_are_persisted_as_npz_alone(self, loaded, tmp_path):
        study = replace(loaded.study, delta_r_grid_hz=(-5e3, 0.0, 5e3), repetitions=2,
                        average_mode=FIT_THEN_AVERAGE)
        out = tmp_path / "run"
        run_spectroscopy(StudyPlan.from_loaded(replace(loaded, study=study), "spectroscopy",
                                               seed_base=3, out_dir=out))
        assert sorted(p.relative_to(out).as_posix() for p in out.rglob("trace*")) == [
            f"points/{i}/trace_rep{k}.npz" for i in range(3) for k in range(2)]

    def test_no_traces_flag(self, loaded, tmp_path):
        out = tmp_path / "run"
        plan = StudyPlan.from_loaded(
            loaded, "spectroscopy", seed_base=3, out_dir=out, persist_traces=False
        )
        run_spectroscopy(plan)
        assert not list(out.glob("points/*/trace*"))
        assert (out / "points" / "0" / "fits.csv").is_file()

    def test_reanalysis_reproduces_summary_exactly(self, loaded, tmp_path):
        out = tmp_path / "run"
        plan = StudyPlan.from_loaded(loaded, "spectroscopy", seed_base=11, out_dir=out)
        result, _ = run_spectroscopy(plan)
        again = reanalyze_spectroscopy(out)
        assert again.delta_f_ac_hz == result.delta_f_ac_hz
        assert again.delta_f_ac_err_hz == result.delta_f_ac_err_hz
        assert again.input_fit.slope == result.input_fit.slope
        assert again.retrieved_fit.slope == result.retrieved_fit.slope

    def test_reanalysis_fit_then_average(self, loaded, tmp_path):
        study = replace(loaded.study, repetitions=3, average_mode=FIT_THEN_AVERAGE)
        varied = LoadedExperiment(config=loaded.config, sequence=loaded.sequence, study=study)
        out = tmp_path / "run"
        plan = StudyPlan.from_loaded(varied, "spectroscopy", seed_base=11, out_dir=out)
        result, _ = run_spectroscopy(plan)
        assert (out / "points" / "0" / "trace_rep0.npz").is_file()
        again = reanalyze_spectroscopy(out)
        assert again.delta_f_ac_hz == result.delta_f_ac_hz

    def test_reanalysis_fit_then_average_single_repetition(self, loaded, tmp_path):
        # the one trace is persisted as trace.npz; re-analysis must still take
        # the one-element weighted mean the fresh run took
        study = replace(loaded.study, repetitions=1, average_mode=FIT_THEN_AVERAGE)
        varied = LoadedExperiment(config=loaded.config, sequence=loaded.sequence, study=study)
        out = tmp_path / "run"
        plan = StudyPlan.from_loaded(varied, "spectroscopy", seed_base=0, out_dir=out)
        result, _ = run_spectroscopy(plan)
        assert (out / "points" / "0" / "trace.npz").is_file()
        again = reanalyze_spectroscopy(out)
        assert repr(again.delta_f_ac_hz) == repr(result.delta_f_ac_hz)
        assert repr(again.delta_f_ac_err_hz) == repr(result.delta_f_ac_err_hz)

    def test_reanalysis_excludes_the_failed_point_again(self, loaded, tmp_path):
        # delta_R = -zeeman puts the input beat at DC; that point alone fails
        zeeman = loaded.config.magnetic.zeeman_splitting()
        study = replace(loaded.study, delta_r_grid_hz=(-zeeman, -5e3, 0.0, 5e3, 10e3))
        out = tmp_path / "run"
        plan = StudyPlan.from_loaded(replace(loaded, study=study), "spectroscopy",
                                     seed_base=2, out_dir=out)
        with pytest.warns(UserWarning, match="window"):
            result, _ = run_spectroscopy(plan)
        assert (out / "points" / "0" / "trace.npz").is_file()
        assert not (out / "points" / "0" / "fits.csv").exists()
        again = reanalyze_spectroscopy(out)
        assert again.points == result.points
        assert repr(again.delta_f_ac_hz) == repr(result.delta_f_ac_hz)

    def test_reanalysis_refuses_a_missing_trace(self, loaded, tmp_path):
        out = tmp_path / "run"
        run_spectroscopy(StudyPlan.from_loaded(loaded, "spectroscopy", seed_base=3, out_dir=out))
        (out / "points" / "4" / "trace.npz").unlink()
        with pytest.raises(OrchestrationError, match="^point 4 has no trace file .*trace.npz$"):
            reanalyze_spectroscopy(out)

    @pytest.fixture()
    def fit_then_average_run(self, loaded, tmp_path):
        study = replace(loaded.study, repetitions=4, average_mode=FIT_THEN_AVERAGE)
        out = tmp_path / "run"
        result, _ = run_spectroscopy(StudyPlan.from_loaded(
            replace(loaded, study=study), "spectroscopy", seed_base=5, out_dir=out))
        return out, result

    def test_reanalysis_refuses_a_missing_repetition(self, fit_then_average_run):
        out, _ = fit_then_average_run
        (out / "points" / "0" / "trace_rep2.npz").unlink()
        with pytest.raises(OrchestrationError, match="^point 0 .*trace_rep2.npz"):
            reanalyze_spectroscopy(out)

    @pytest.mark.parametrize("stray", ["trace.csv", "trace_repX.csv", "trace.npz",
                                       "trace_repX.npz"])
    def test_reanalysis_ignores_files_plan_cfg_does_not_name(self, fit_then_average_run, stray):
        out, result = fit_then_average_run
        shutil.copy(out / "points" / "0" / "trace_rep0.npz", out / "points" / "1" / stray)
        again = reanalyze_spectroscopy(out)
        assert repr(again.delta_f_ac_hz) == repr(result.delta_f_ac_hz)
        assert repr(again.delta_f_ac_err_hz) == repr(result.delta_f_ac_err_hz)

    def test_reanalysis_refuses_a_run_without_run_json(self, loaded, tmp_path):
        # run.json is written last: without it the run may have stopped midway
        out = tmp_path / "run"
        run_spectroscopy(StudyPlan.from_loaded(loaded, "spectroscopy", seed_base=3, out_dir=out))
        (out / "run.json").unlink()
        with pytest.raises(OrchestrationError, match=re.escape(f"{out} has no run.json")):
            reanalyze_spectroscopy(out)

    def test_reanalysis_refuses_a_run_without_traces(self, loaded, tmp_path):
        out = tmp_path / "run"
        run_spectroscopy(StudyPlan.from_loaded(
            loaded, "spectroscopy", seed_base=3, out_dir=out, persist_traces=False))
        with pytest.raises(OrchestrationError, match="point 0 "):
            reanalyze_spectroscopy(out)

    def test_rerun_is_byte_identical(self, loaded, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            plan = StudyPlan.from_loaded(loaded, "spectroscopy", seed_base=5, out_dir=out)
            run_spectroscopy(plan)
        _assert_same_tree(out_a, out_b)

    def test_parallel_matches_serial(self, loaded, tmp_path):
        out_s, out_p = tmp_path / "serial", tmp_path / "parallel"
        run_spectroscopy(StudyPlan.from_loaded(
            loaded, "spectroscopy", seed_base=5, out_dir=out_s, jobs=1))
        run_spectroscopy(StudyPlan.from_loaded(
            loaded, "spectroscopy", seed_base=5, out_dir=out_p, jobs=3))
        for name in ("summary.csv", "result.csv"):
            assert (out_s / name).read_bytes() == (out_p / name).read_bytes()

    @pytest.mark.parametrize("average_mode", [AVERAGE_TRACES, FIT_THEN_AVERAGE])
    def test_serial_pool_and_rerun_write_the_same_trace_files(self, loaded, tmp_path,
                                                              average_mode):
        study = replace(loaded.study, repetitions=2, average_mode=average_mode)
        varied = replace(loaded, study=study)
        serial, pool = tmp_path / "serial", tmp_path / "pool"
        traces = {}
        for name, out, jobs in (("serial", serial, 1), ("pool", pool, 2), ("rerun", serial, 1)):
            run_spectroscopy(StudyPlan.from_loaded(
                varied, "spectroscopy", seed_base=6, out_dir=out, jobs=jobs))
            traces[name] = {p.relative_to(out): p.read_bytes()
                            for p in sorted(out.glob("points/*/*")) if p.name.startswith("trace")}
        names = orchestrator._trace_names(study)
        assert sorted(traces["serial"]) == sorted(
            Path("points", str(i), name)
            for i in range(len(study.delta_r_grid_hz)) for name in names)
        assert all(name.endswith(".npz") for name in names)
        assert traces["serial"] == traces["pool"] == traces["rerun"]

    def test_each_repetition_is_simulate_storage_at_its_seed(self, loaded, tmp_path):
        study = replace(loaded.study, repetitions=3, average_mode=FIT_THEN_AVERAGE,
                        delta_r_grid_hz=(-5e3, 0.0, 5e3))
        out = tmp_path / "run"
        run_spectroscopy(StudyPlan.from_loaded(replace(loaded, study=study), "spectroscopy",
                                               seed_base=4, out_dir=out))
        for i, delta_r in enumerate(study.delta_r_grid_hz):
            for rep in range(3):
                cfg = replace(loaded.config, delta_r_hz=delta_r, rng_seed=point_seed(4, i, rep))
                write_trace_csv(simulate_storage(cfg, loaded.sequence), tmp_path / "direct.npz")
                persisted = out / "points" / str(i) / f"trace_rep{rep}.npz"
                assert persisted.read_bytes() == (tmp_path / "direct.npz").read_bytes()

    def test_fit_then_average_agrees_with_averaging(self, loaded):
        study = replace(loaded.study, average_mode=FIT_THEN_AVERAGE)
        varied = LoadedExperiment(config=loaded.config, sequence=loaded.sequence, study=study)
        r_avg, _ = run_spectroscopy(StudyPlan.from_loaded(loaded, "spectroscopy", seed_base=2))
        r_fta, _ = run_spectroscopy(StudyPlan.from_loaded(varied, "spectroscopy", seed_base=2))
        assert r_fta.delta_f_ac_hz == pytest.approx(r_avg.delta_f_ac_hz, abs=100.0)


class TestControlSweep:
    def test_noiseless_recovers_model_slope_exactly(self, noiseless):
        plan = StudyPlan.from_loaded(noiseless, "control_sweep", seed_base=3)
        _, fit, record = run_control_sweep(plan)
        model = noiseless.config.light_shift_hz(1.0)
        assert abs(fit.slope - model) / model < 1e-6
        assert abs(fit.intercept) < 1e-3

    def test_default_noise_linearity(self, loaded, tmp_path):
        out = tmp_path / "sweep"
        plan = StudyPlan.from_loaded(loaded, "control_sweep", seed_base=3, out_dir=out)
        triples, fit, record = run_control_sweep(plan)
        summary = dict(record.summary)
        model = summary["model_slope_hz_per_intensity"]
        assert abs(fit.slope - model) / model < 0.05
        assert summary["r_squared"] >= 0.99
        assert abs(summary["intercept_t_statistic"]) < 2.0
        assert (out / "result.csv").is_file()
        assert (out / "points" / "0" / "plan.cfg").is_file()

    def test_persisted_parallel_matches_serial(self, loaded, tmp_path):
        outs = {jobs: tmp_path / f"jobs{jobs}" for jobs in (1, 2)}
        for jobs, out in outs.items():
            run_control_sweep(StudyPlan.from_loaded(
                loaded, "control_sweep", seed_base=3, out_dir=out, jobs=jobs))
        _assert_same_tree(outs[1], outs[2])

    def test_parallel_sweep_opens_one_pool(self, loaded, monkeypatch):
        opened = []

        class CountingPool(orchestrator.ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                opened.append(kwargs.get("max_workers"))
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(orchestrator, "ProcessPoolExecutor", CountingPool)
        run_control_sweep(StudyPlan.from_loaded(loaded, "control_sweep", seed_base=3, jobs=2))
        assert opened == [2]

    def test_ill_conditioned_point_is_excluded_with_its_message(self, noiseless, tmp_path,
                                                               monkeypatch):
        calls = []

        def second_crosses_itself(fit_a, fit_b):
            calls.append(fit_a)
            return intersection(fit_a, fit_a if len(calls) == 2 else fit_b)

        monkeypatch.setattr(analysis, "intersection", second_crosses_itself)
        out = tmp_path / "sweep"
        _, _, record = run_control_sweep(StudyPlan.from_loaded(
            noiseless, "control_sweep", seed_base=3, out_dir=out, persist_traces=False))
        assert [p.excluded for p in record.points] == [False, True, False, False, False, False]
        message = "IllConditionedIntersectionError: slope difference 0.000e+00 within 3 sigma ("
        assert record.points[1].error.startswith(message)
        rows = (out / "summary.csv").read_text().splitlines()
        assert rows[2].split(",")[-2:] == ["1", record.points[1].error]
        assert not (out / "points" / "1" / "run.json").exists()
        assert (out / "points" / "0" / "run.json").is_file()
        assert (out / "run.json").is_file()

    def test_intensity_grid_matches_points(self, noiseless):
        plan = StudyPlan.from_loaded(noiseless, "control_sweep", seed_base=3)
        triples, _, _ = run_control_sweep(plan)
        assert [t[0] for t in triples] == list(noiseless.study.control_intensity_grid)


class TestSignalSweep:
    def test_shift_ignores_signal_intensity(self, noiseless):
        plan = StudyPlan.from_loaded(noiseless, "signal_sweep", seed_base=5)
        triples, fits, record = run_signal_sweep(plan)
        expected = 7000.0
        for _, shift, _ in triples:
            assert shift == pytest.approx(expected, abs=1e-3)
        assert abs(fits["full"].slope) < 1e-6

    def test_restricted_fit_present_and_insignificant(self, loaded):
        plan = StudyPlan.from_loaded(loaded, "signal_sweep", seed_base=5)
        triples, fits, record = run_signal_sweep(plan)
        summary = dict(record.summary)
        assert "restricted" in fits
        assert summary["restricted_n_points"] >= 3
        assert abs(summary["restricted_slope_t_statistic"]) < 2.0

    def test_restricted_range_boundary(self, loaded):
        plan = StudyPlan.from_loaded(loaded, "signal_sweep", seed_base=5)
        triples, fits, _ = run_signal_sweep(plan)
        limit = loaded.config.control.intensity
        n_restricted = sum(1 for t in triples if t[0] <= limit)
        assert fits["restricted"].n_points == n_restricted


class TestSweepDerive:
    """The sweeps' derive step on hand-made points; nothing is simulated."""

    @pytest.fixture(autouse=True)
    def no_simulation(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the derive step simulated a trace")

        monkeypatch.setattr(orchestrator, "simulate_storage", refuse)

    @staticmethod
    def _points(xs, excluded=()):
        """Sweep points with a shift of 100 Hz + 2 Hz per intensity; the excluded carry an error."""
        return [PointRecord(index=i, x=x, error=f"FitError: point {i} made up") if i in excluded
                else PointRecord(index=i, x=x, values={"delta_f_ac_hz": 100.0 + 2.0 * x,
                                                       "delta_f_ac_err_hz": 1.0})
                for i, x in enumerate(xs)]

    @staticmethod
    def _derive(loaded, kind, points):
        plan = StudyPlan.from_loaded(loaded, kind, seed_base=1)
        return orchestrator._KINDS[kind].derive(plan, points)

    def test_an_excluded_intensity_keeps_its_error_in_the_rows(self, loaded):
        points = self._points([1.0, 2.0, 3.0, 4.0], excluded={1})
        (triples, fit), summary = self._derive(loaded, "control_sweep", points)
        assert orchestrator._point_rows("control_sweep", points) == [
            ["index", "intensity", "delta_f_ac_hz", "delta_f_ac_err_hz", "excluded", "error"],
            ["0", "1.0", "102.0", "1.0", "0", ""],
            ["1", "2.0", "", "", "1", "FitError: point 1 made up"],
            ["2", "3.0", "106.0", "1.0", "0", ""],
            ["3", "4.0", "108.0", "1.0", "0", ""],
        ]
        assert triples == [(1.0, 102.0, 1.0), (3.0, 106.0, 1.0), (4.0, 108.0, 1.0)]
        assert dict(summary)["slope_hz_per_intensity"] == pytest.approx(2.0)
        assert fit.intercept == pytest.approx(100.0)

    @pytest.mark.parametrize("kind", ["control_sweep", "signal_sweep"])
    def test_fewer_than_three_usable_intensities_fail(self, loaded, kind):
        points = self._points([1.0, 2.0, 3.0, 4.0], excluded={0, 2})
        with pytest.raises(OrchestrationError,
                           match=r"^only 2 of 4 sweep points usable; need >= 3$"):
            self._derive(loaded, kind, points)

    @pytest.mark.parametrize("fractions, excluded, n_restricted", [
        ((0.25, 0.5, 1.0, 2.0), (), 3),    # I_S = I_C counts
        ((0.5, 1.0, 1.5, 2.0), (), None),
        ((0.25, 0.5, 1.0, 2.0, 3.0), (0,), None),  # an excluded point does not count
        ((0.1, 0.2, 0.3, 0.4, 0.5), (), 5),
    ])
    def test_the_restricted_fit_needs_three_points_at_or_below_the_control_intensity(
            self, loaded, fractions, excluded, n_restricted):
        limit = loaded.config.control.intensity
        points = self._points([f * limit for f in fractions], excluded=set(excluded))
        (triples, fits), summary = self._derive(loaded, "signal_sweep", points)
        summary = dict(summary)
        restricted_keys = [k for k in summary if k.startswith("restricted_")]
        assert summary["control_intensity_limit"] == limit
        assert fits["full"].n_points == len(triples) == len(fractions) - len(excluded)
        if n_restricted is None:
            assert list(fits) == ["full"] and restricted_keys == []
        else:
            assert list(fits) == ["full", "restricted"]
            assert fits["restricted"].n_points == summary["restricted_n_points"] == n_restricted
            assert len(restricted_keys) == 4


class TestDarkResonance:
    def test_summary_and_outputs(self, loaded, tmp_path):
        out = tmp_path / "dark"
        plan = StudyPlan.from_loaded(loaded, "dark_resonance", seed_base=1, out_dir=out)
        points, record = run_dark_resonance(plan)
        summary = dict(record.summary)
        assert 10e3 <= summary["fwhm_hz"] <= 40e3
        assert summary["peak_delta_r_hz"] == pytest.approx(0.0, abs=1e-9)
        assert (out / "summary.csv").is_file()
        header = (out / "summary.csv").read_text().splitlines()[0]
        assert header == "delta_r_hz,transmission,absorption_proxy"

    def test_symmetric_spectrum(self, loaded):
        plan = StudyPlan.from_loaded(loaded, "dark_resonance", seed_base=1)
        points, _ = run_dark_resonance(plan)
        t = np.array([p.transmission for p in points])
        assert np.max(np.abs(t - t[::-1])) < 1e-10


class TestFitOnly:
    def test_round_trip_matches_in_memory(self, loaded, tmp_path, write_csv_trace):
        from lightstore.analysis import fit_beat

        trace = simulate_storage(loaded.config, loaded.sequence)
        path = write_csv_trace(trace, tmp_path / "trace.csv")
        seg = loaded.sequence.phase("input")
        window = (seg.t_start + loaded.study.guard_s, seg.t_end)
        direct = fit_beat(trace, window, with_envelope=False)
        refit = fit_only(path, window=window, with_envelope=False, out_dir=tmp_path / "out")
        assert refit.f_b_hz == direct.f_b_hz
        assert refit.f_b_err_hz == direct.f_b_err_hz
        assert (tmp_path / "out" / "fits.csv").is_file()

    def test_known_tone_recovered(self, tmp_path, write_csv_trace):
        from lightstore.storage import PhotodiodeTrace

        fs = 2.0e7
        n = 1000
        t = np.arange(n) / fs
        rng = np.random.default_rng(3)
        v = 0.5 + 2.0 * np.sin(2 * np.pi * 685.8e3 * t + 0.2) + rng.normal(0, 0.05, n)
        path = write_csv_trace(PhotodiodeTrace(0.0, fs, v), tmp_path / "tone.csv")
        fit = fit_only(path, tmp_path / "out")
        assert abs(fit.f_b_hz - 685.8e3) <= 3.0 * fit.f_b_err_hz

    def test_truncated_file_raises_parse_error(self, tmp_path):
        from lightstore.storage import TraceParseError

        path = tmp_path / "bad.csv"
        path.write_text("# sample_rate_hz=2e7 t0_s=0.0\n")
        with pytest.raises(TraceParseError):
            fit_only(path, tmp_path / "out")


RUNS = {"spectroscopy": run_spectroscopy, "control_sweep": run_control_sweep,
        "signal_sweep": run_signal_sweep, "dark_resonance": run_dark_resonance}


class TestRunLifecycle:
    def test_run_record_holds_points_and_summary(self):
        assert [f.name for f in dataclasses.fields(RunRecord)] == ["points", "summary"]

    @pytest.mark.parametrize("kind, other", [(kind, other) for kind in STUDY_KINDS
                                             for other in STUDY_KINDS if other != kind])
    def test_wrong_kind_warns_nothing_and_writes_nothing(self, loaded, tmp_path, kind, other):
        # a grid past the transparency window, which a spectroscopy would warn about
        wide = replace(loaded, study=replace(loaded.study, delta_r_grid_hz=(-80e3, 0.0, 80e3)))
        out = tmp_path / "run"
        plan = StudyPlan.from_loaded(wide, other, seed_base=1, out_dir=out)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConfigurationError) as exc:
                RUNS[kind](plan)
        assert str(exc.value) == f"plan kind {other!r} is not {kind}"
        assert not out.exists()

    @pytest.mark.parametrize("kind", STUDY_KINDS)
    def test_run_json_counts_the_grid(self, noiseless, tmp_path, kind):
        small = replace(noiseless, study=replace(noiseless.study, repetitions=1))
        out = tmp_path / "run"
        plan = StudyPlan.from_loaded(small, kind, seed_base=4, out_dir=out, persist_traces=False)
        RUNS[kind](plan)
        meta = json.loads((out / "run.json").read_text())
        assert meta["n_points"] == len(plan.grid) > 0
        assert (meta["kind"], meta["seed_base"], meta["n_excluded"]) == (kind, 4, 0)
        assert meta["version"] == lightstore.__version__

    @pytest.mark.parametrize("kind", STUDY_KINDS)
    def test_a_persisted_run_writes_exactly_its_tables_and_points(self, noiseless, tmp_path,
                                                                  kind):
        small = replace(noiseless, study=replace(noiseless.study, repetitions=1))
        out = tmp_path / "run"
        RUNS[kind](StudyPlan.from_loaded(small, kind, seed_base=4, out_dir=out,
                                         persist_traces=False))
        expected = ["plan.cfg", "result.csv", "run.json", "summary.csv"]
        if kind != "dark_resonance":
            expected.append("points")
        assert sorted(p.name for p in out.iterdir()) == sorted(expected)

    @pytest.mark.parametrize("kind", STUDY_KINDS)
    def test_an_in_memory_run_builds_no_summary_rows(self, noiseless, tmp_path, monkeypatch,
                                                     kind):
        def refuse(*args):
            raise AssertionError("summary.csv rows built")

        for name in ("_point_rows", "_spectrum_rows"):
            monkeypatch.setattr(orchestrator, name, refuse)
        small = replace(noiseless, study=replace(noiseless.study, repetitions=1))
        RUNS[kind](StudyPlan.from_loaded(small, kind, seed_base=4))
        # the same plan persisted does build them
        with pytest.raises(AssertionError, match="summary.csv rows built"):
            RUNS[kind](StudyPlan.from_loaded(small, kind, seed_base=4, out_dir=tmp_path / "run",
                                             persist_traces=False))

    def test_rerun_removes_what_the_earlier_run_wrote_and_nothing_else(self, loaded, tmp_path):
        # an earlier run's outputs go, including a trace.csv of the former
        # trace format and a point directory the new grid does not name
        out = tmp_path / "run"
        # plotdata/ is no run's output now; one that a former run wrote goes too
        stale = ["result.csv", "summary.csv", "run.json", "plotdata/old_line.csv",
                 "points/0/trace.csv", "points/0/fits.csv", "points/12/trace.csv"]
        kept = ["notes.txt", "plotdata.txt", "points/notes.txt", "points/x/trace.csv",
                "points/007/trace.csv"]
        for rel in stale + kept:
            (out / rel).parent.mkdir(parents=True, exist_ok=True)
            (out / rel).write_text("earlier\n")
        run_spectroscopy(StudyPlan.from_loaded(loaded, "spectroscopy", seed_base=3, out_dir=out))
        for rel in kept:
            assert (out / rel).read_text() == "earlier\n", rel
        assert not (out / "points" / "12").exists()
        assert not (out / "points" / "0" / "trace.csv").exists()
        assert not (out / "plotdata" / "old_line.csv").exists()
        for rel in ("result.csv", "summary.csv", "run.json", "points/0/fits.csv"):
            assert (out / rel).read_text() != "earlier\n", rel


def _usable_summary_points(run_dir):
    """The usable rows of a run's summary.csv, read back as PointRecords."""
    with open(run_dir / "summary.csv", newline="") as fh:
        (_, _, *keys, _, _), *rows = csv.reader(fh)
    return [PointRecord(index=int(row[0]), x=float(row[1]),
                        values={k: float(v) for k, v in zip(keys, row[2:-2])})
            for row in rows if row[-2] == "0"]


def _line_fit_bits(fit):
    return (fit.slope, fit.intercept, fit.slope_err, fit.intercept_err, fit.chi2_per_dof,
            fit.n_points, fit.covariance.tobytes())


class TestNothingLost:
    """What a run's derive step makes of its points follows from summary.csv alone."""

    @pytest.mark.parametrize("kind", ["spectroscopy", "control_sweep", "signal_sweep"])
    def test_summary_csv_derives_result_csv_byte_for_byte(self, loaded, tmp_path, kind):
        out = tmp_path / "run"
        RUNS[kind](StudyPlan.from_loaded(loaded, kind, seed_base=8, out_dir=out,
                                         persist_traces=False))
        plan = StudyPlan.from_loaded(load_config(out / "plan.cfg"), kind)
        _, summary = orchestrator._KINDS[kind].derive(plan, _usable_summary_points(out))
        text = "key,value\r\n" + "".join(f"{k},{float(v)!r}\r\n" for k, v in summary)
        assert text.encode() == (out / "result.csv").read_bytes()

    def test_the_signal_sweep_lines_follow_from_summary_csv(self, loaded, tmp_path):
        out = tmp_path / "run"
        run_signal_sweep(StudyPlan.from_loaded(loaded, "signal_sweep", seed_base=8, out_dir=out,
                                               persist_traces=False))
        plan = StudyPlan.from_loaded(load_config(out / "plan.cfg"), "signal_sweep")
        (_, fits), _ = orchestrator._KINDS["signal_sweep"].derive(
            plan, _usable_summary_points(out))
        _, in_memory, _ = run_signal_sweep(StudyPlan.from_loaded(loaded, "signal_sweep",
                                                                 seed_base=8))
        assert list(fits) == list(in_memory) == ["full", "restricted"]
        for name, fit in fits.items():
            assert _line_fit_bits(fit) == _line_fit_bits(in_memory[name]), name


class TestStudyPlan:
    def test_unknown_kind_rejected(self, loaded):
        with pytest.raises(ConfigurationError, match="kind"):
            StudyPlan.from_loaded(loaded, "frequency_comb")

    def test_fit_only_is_not_a_study_kind(self, loaded):
        with pytest.raises(ConfigurationError, match="kind"):
            StudyPlan.from_loaded(loaded, "fit_only")

    def test_bad_jobs_rejected(self, loaded):
        with pytest.raises(ConfigurationError, match="jobs"):
            StudyPlan.from_loaded(loaded, "spectroscopy", jobs=0)

    def test_a_guard_that_fills_its_phase_rejects_only_the_kinds_that_fit(self, loaded):
        guarded = replace(loaded, study=replace(loaded.study, guard_s=1.0))
        StudyPlan.from_loaded(guarded, "dark_resonance")
        for kind in ("spectroscopy", "control_sweep", "signal_sweep"):
            with pytest.raises(ConfigurationError, match="^guard_s = 1.0 s leaves no input "):
                StudyPlan.from_loaded(guarded, kind)

    def test_seed_defaults_to_config(self, loaded):
        plan = StudyPlan.from_loaded(loaded, "spectroscopy")
        assert plan.seed_base == loaded.config.rng_seed

    def test_run_snapshot_redumps_to_the_same_bytes(self, loaded, tmp_path):
        out = tmp_path / "dark"
        run_dark_resonance(StudyPlan.from_loaded(loaded, "dark_resonance", seed_base=7,
                                                 out_dir=out))
        snapshot = load_config(out / "plan.cfg")
        assert (snapshot.plan_kind, snapshot.plan_seed_base) == ("dark_resonance", 7)
        dump_config(snapshot, tmp_path / "again.cfg")
        assert (tmp_path / "again.cfg").read_bytes() == (out / "plan.cfg").read_bytes()
