import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lightstore
from lightstore.cli import main
from lightstore.configfile import default_config, dump_config
from lightstore.orchestrator import OrchestrationError, reanalyze_spectroscopy
from lightstore.storage import PhotodiodeTrace, read_trace_csv


@pytest.fixture()
def small_config(tmp_path):
    """Config file with a reduced grid so CLI runs stay fast."""
    loaded = default_config()
    path = tmp_path / "exp.cfg"
    dump_config(loaded, path)
    text = path.read_text().replace(
        "repetitions = 10", "repetitions = 3"
    )
    path.write_text(text)
    return path


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["spectroscopy"])  # missing --out
    assert exc.value.code == 1


def test_unknown_subcommand_exits_1():
    with pytest.raises(SystemExit) as exc:
        main(["resonate", "--out", "/tmp/x"])
    assert exc.value.code == 1


def test_init_config_and_spectroscopy_run(tmp_path, small_config, capsys):
    out = tmp_path / "run"
    code = main(["spectroscopy", "--config", str(small_config),
                 "--out", str(out), "--seed", "4"])
    assert code == 0
    assert (out / "summary.csv").is_file()
    stdout = capsys.readouterr().out
    assert "delta_f_ac" in stdout


def test_nan_standard_error_excludes_its_point_without_failing_the_run(
    tmp_path, small_config, nan_covariance
):
    # the first inverse of the run is point 0's input-window covariance
    nan_covariance(0)
    out = tmp_path / "run"
    assert main(["spectroscopy", "--config", str(small_config),
                 "--out", str(out), "--seed", "4"]) == 0
    excluded = [line.split(",")[6] for line in (out / "summary.csv").read_text().splitlines()[1:]]
    assert excluded == ["1"] + ["0"] * (len(excluded) - 1)


def test_init_config(tmp_path):
    target = tmp_path / "default.cfg"
    assert main(["init-config", str(target)]) == 0
    assert target.is_file()


def test_dark_resonance_run(tmp_path, capsys):
    # narrow grid keeps the steady-state scan quick
    loaded = default_config()
    cfg = tmp_path / "exp.cfg"
    dump_config(loaded, cfg)
    text = cfg.read_text()
    grids = ", ".join(repr(float(v)) for v in np.linspace(-40e3, 40e3, 81))
    start = text.index("dark_resonance_grid_hz = ")
    end = text.index("\n", start)
    cfg.write_text(text[:start] + f"dark_resonance_grid_hz = {grids}" + text[end:])
    out = tmp_path / "dark"
    assert main(["dark-resonance", "--config", str(cfg), "--out", str(out)]) == 0
    assert (out / "result.csv").is_file()
    assert "FWHM" in capsys.readouterr().out


def test_dark_resonance_without_a_fwhm_exits_2_and_leaves_no_result(tmp_path, capsys):
    # the grid starts at the peak, so the FWHM is undefined
    cfg = tmp_path / "edge.cfg"
    cfg.write_text("[study]\ndark_resonance_grid_hz = lin:0:5000:11\n")
    out = tmp_path / "dark"
    assert main(["dark-resonance", "--config", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("numerical failure: FWHM undefined: "
                            "transmission peak sits on the grid edge\n")
    assert captured.out == ""
    assert (out / "plan.cfg").is_file()
    for name in ("result.csv", "run.json", "summary.csv"):
        assert not (out / name).exists(), name


def _result_values(out):
    with open(out / "result.csv", newline="") as fh:
        return {row["key"]: float(row["value"]) for row in csv.DictReader(fh)}


def _expected_stdout(command, out):
    """What a study prints, built from its result.csv and summary.csv alone."""
    v = _result_values(out)
    lines = []
    if command == "spectroscopy":
        with open(out / "summary.csv", newline="") as fh:
            excluded = [row["excluded"] for row in csv.DictReader(fh)]
        lines.append(f"spectroscopy: {excluded.count('0')} points, "
                     f"{excluded.count('1')} excluded")
        rows = [("input slope", f"{v['input_slope']:.6f} +- {v['input_slope_err']:.6f}"),
                ("retrieved slope",
                 f"{v['retrieved_slope']:.6f} +- {v['retrieved_slope_err']:.6f}"),
                ("delta_f_ac", f"{v['delta_f_ac_hz']:.3f} +- {v['delta_f_ac_err_hz']:.3f} Hz")]
    elif command == "dark-resonance":
        rows = [("FWHM", f"{v['fwhm_hz'] / 1e3:.3f} kHz"),
                ("peak at", f"{v['peak_delta_r_hz']:.1f} Hz"),
                ("peak transmission", f"{v['peak_transmission']:.4f}")]
    elif command == "control-sweep":
        rows = [("slope", f"{v['slope_hz_per_intensity']:.4f} +- "
                          f"{v['slope_err_hz_per_intensity']:.4f} Hz per I/I_sat"),
                ("intercept", f"{v['intercept_hz']:.3f} +- {v['intercept_err_hz']:.3f} Hz"),
                ("R^2", f"{v['r_squared']:.6f}")]
    else:
        rows = [("full-range slope", f"{v['full_slope_hz_per_intensity']:.4f} +- "
                                     f"{v['full_slope_err_hz_per_intensity']:.4f} Hz per I/I_sat"),
                ("full-range |t|", f"{abs(v['full_slope_t_statistic']):.3f}")]
        if any(key.startswith("restricted_") for key in v):
            rows += [("restricted slope", f"{v['restricted_slope_hz_per_intensity']:.4f} +- "
                                          f"{v['restricted_slope_err_hz_per_intensity']:.4f}"),
                     ("restricted |t|", f"{abs(v['restricted_slope_t_statistic']):.3f}")]
    width = max(len(label) for label, _ in rows)
    lines += [f"  {label:<{width}}  {value}" for label, value in rows]
    return "\n".join(lines + [f"outputs in {out}", ""])


# (CLI subcommand, [study] lines, whether the signal sweep has a restricted fit);
# three repetitions keep the runs quick
_PRINTED_STUDIES = [
    ("spectroscopy", "", None),
    ("dark-resonance", "", None),
    ("control-sweep", "control_intensity_grid = 5.25, 11.55, 17.85, 21.0\n", None),
    ("signal-sweep", "", True),
    # only two intensities at or below I_C = 10.5
    ("signal-sweep", "signal_intensity_grid = 1.05, 9.75, 14.1, 22.8\n", False),
]


@pytest.mark.parametrize("command, study, restricted", _PRINTED_STUDIES,
                         ids=["spectroscopy", "dark-resonance", "control-sweep",
                              "signal-sweep-restricted", "signal-sweep-full-only"])
def test_every_printed_number_is_the_result_csv_value(tmp_path, capsys, command, study,
                                                     restricted):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"[study]\nrepetitions = 3\n{study}")
    out = tmp_path / "run"
    assert main([command, "--config", str(cfg), "--out", str(out), "--seed", "5",
                 "--no-traces"]) == 0
    stdout = capsys.readouterr().out
    assert stdout == _expected_stdout(command, out)
    if restricted is not None:
        assert ("restricted" in stdout) is restricted
        assert any(key.startswith("restricted_") for key in _result_values(out)) is restricted


def test_bad_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[experiment]\nnot_a_key = 3\n")
    code = main(["spectroscopy", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_non_finite_grid_exits_1_before_writing(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("[study]\ndark_resonance_grid_hz = 0, nan, 5\n")
    out = tmp_path / "o"
    code = main(["dark-resonance", "--config", str(bad), "--out", str(out)])
    assert code == 1
    assert "dark_resonance_grid_hz has a non-finite value" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("key, value", [
    ("trace_noise_sigma", "-0.05"), ("trace_noise_sigma", "nan"),
    ("retrieval_decay_time_s", "nan"), ("retrieval_decay_time_s", "0"),
    ("kappa_rad2", "nan"), ("od_eff", "nan"), ("coupling_gn_rad", "nan"),
])
def test_out_of_range_experiment_value_exits_1_naming_its_key(tmp_path, capsys, key, value):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[experiment]\n{key} = {value}\n")
    out = tmp_path / "o"
    code = main(["spectroscopy", "--config", str(bad), "--out", str(out)])
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert key in err
    assert not out.exists()


@pytest.mark.parametrize("section, key", [
    ("pulse_sequence", "readout_s"), ("experiment", "sample_rate_hz"),
    ("control", "intensity"), ("control", "readout_intensity"), ("signal", "intensity"),
    ("experiment", "kappa_rad2"), ("experiment", "trace_noise_sigma"),
])
def test_infinite_value_exits_1_naming_its_key(tmp_path, capsys, section, key):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[{section}]\n{key} = inf\n")
    out = tmp_path / "o"
    assert main(["spectroscopy", "--config", str(bad), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert re.search(rf"\b{key}\b", err)  # "intensity" alone, not in "readout_intensity"
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectroscopy", "dark-resonance"])
@pytest.mark.parametrize("typo", ["g_mnus/e/sigma_plus", "g_minus/e3/sigma_plus"])
def test_a_misspelled_clebsch_weight_exits_1_naming_it(tmp_path, capsys, command, typo):
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[clebsch_weights]\n{typo} = 1.0\ng_plus/e/sigma_minus = 1.0\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "configuration error: clebsch_weights key must be ground/excited/polarization with "
        f"ground in ('g_minus', 'g_plus') and excited in ('e', 'e2'), got '{typo}'\n")
    assert not out.exists()


def test_malformed_config_exits_1(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    bad.write_text("delta_r_hz = 5\n")  # no section header
    code = main(["spectroscopy", "--config", str(bad), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "configuration error" in capsys.readouterr().err


def test_fit_rejects_study_options(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["fit", str(tmp_path / "trace.csv"), "--out", str(tmp_path / "o"), "--seed", "3"])
    assert exc.value.code == 1


def test_numerical_failure_exits_2(tmp_path, small_config, capsys):
    # zero storage efficiency kills every retrieved fit
    text = small_config.read_text().replace(
        "storage_efficiency = 0.25", "storage_efficiency = 0.0"
    )
    cfg = tmp_path / "dead.cfg"
    cfg.write_text(text)
    code = main(["spectroscopy", "--config", str(cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


# With the signal at angle pi/2 and no g-n coupling, frequency pulling gives
# the retrieved beat the input beat's slope of 1 in delta_R: the lines do not cross.
PARALLEL_LINES = ("[signal]\nangle_alpha_rad = 1.5707963267948966\n"
                  "[experiment]\ncoupling_gn_rad = 0.0\n[study]\nrepetitions = 3\n")


def test_parallel_lines_exit_2_and_leave_no_result(tmp_path, capsys):
    cfg = tmp_path / "parallel.cfg"
    cfg.write_text(PARALLEL_LINES)
    out = tmp_path / "spectroscopy"
    code = main(["spectroscopy", "--config", str(cfg), "--out", str(out), "--no-traces"])
    assert code == 2
    assert capsys.readouterr().err.startswith("numerical failure: slope difference ")
    assert (out / "plan.cfg").is_file()
    assert not (out / "result.csv").exists() and not (out / "run.json").exists()
    with pytest.raises(OrchestrationError, match="has no run.json"):
        reanalyze_spectroscopy(out)

    sweep = tmp_path / "sweep"
    code = main(["control-sweep", "--config", str(cfg), "--out", str(sweep), "--no-traces"])
    assert code == 2
    assert "only 0 of 6 sweep points usable" in capsys.readouterr().err
    assert (sweep / "points" / "0" / "plan.cfg").is_file()
    assert not list(sweep.rglob("run.json")) and not list(sweep.rglob("result.csv"))


@pytest.mark.parametrize("command, extra", [("spectroscopy", []),
                                            ("control-sweep", ["--no-traces"])])
def test_failed_rerun_leaves_no_run_json(tmp_path, capsys, command, extra):
    # a rerun removes the finished run's run.json before it writes plan.cfg,
    # so a used directory does not look finished after the rerun fails
    cfg = tmp_path / "parallel.cfg"
    cfg.write_text(PARALLEL_LINES)
    out = tmp_path / "run"
    assert main([command, "--out", str(out), "--jobs", "1", *extra]) == 0
    assert (out / "run.json").is_file()
    assert main([command, "--config", str(cfg), "--out", str(out), "--jobs", "1", *extra]) == 2
    assert not list(out.rglob("run.json"))
    if command == "spectroscopy":
        with pytest.raises(OrchestrationError, match="has no run.json"):
            reanalyze_spectroscopy(out)


def test_failed_sweep_rerun_leaves_none_of_the_earlier_run(tmp_path, capsys):
    # a shorter grid fails the rerun; the earlier run's top-level results and
    # its nested studies beyond the new grid are gone, an unrelated file stays
    out = tmp_path / "sw"
    assert main(["control-sweep", "--out", str(out), "--no-traces", "--jobs", "1"]) == 0
    assert (out / "points" / "5" / "run.json").is_file()
    (out / "notes.txt").write_text("mine\n")
    cfg = tmp_path / "short.cfg"
    cfg.write_text("[study]\ncontrol_intensity_grid = 1.0, 2.0\n")
    code = main(["control-sweep", "--config", str(cfg), "--out", str(out), "--no-traces",
                 "--jobs", "1"])
    assert code == 2
    assert "only 2 of 2 sweep points usable" in capsys.readouterr().err
    assert sorted(p.name for p in (out / "points").iterdir()) == ["0", "1"]
    for name in ("run.json", "result.csv", "summary.csv"):
        assert not (out / name).exists(), name
    assert not list((out / "plotdata").iterdir())
    assert (out / "notes.txt").read_text() == "mine\n"


def test_trace_parse_error_exits_3(tmp_path, capsys):
    bad = tmp_path / "trace.csv"
    bad.write_text("no header here\n")
    code = main(["fit", str(bad), "--out", str(tmp_path / "o")])
    assert code == 3
    assert "parse error" in capsys.readouterr().err


_TRACE_ROWS = "0.0,1.0\r\n5e-08,1.5\r\n"


@pytest.mark.parametrize("name, text, code, message", [
    ("exp.cfg", "[level_scheme]\ngamma_e_rad = nan\n", 1,
     "configuration error: gamma_e_rad must be >= 0, got nan"),
    ("exp.cfg", "[level_scheme]\ngamma_gg_rad = nan\n", 1,
     "configuration error: gamma_gg_rad must be >= 0, got nan"),
    ("exp.cfg", "[light_shift]\ncouplings = nan 1.0\n", 1,
     "configuration error: [light_shift] couplings: detuning_rad must be finite, got nan"),
    ("exp.cfg", "[analysis]\nguard_s = nan\n", 1,
     "configuration error: guard_s must be >= 0, got nan"),
    ("trace.csv", "# sample_rate_hz=nan t0_s=0.0\n" + _TRACE_ROWS, 3,
     "trace parse error: line 1: sample_rate_hz must be finite and > 0, got nan"),
    ("trace.csv", "# sample_rate_hz=inf t0_s=0.0\n" + _TRACE_ROWS, 3,
     "trace parse error: line 1: sample_rate_hz must be finite and > 0, got inf"),
    ("trace.csv", "# sample_rate_hz=20000000.0 t0_s=nan\n" + _TRACE_ROWS, 3,
     "trace parse error: line 1: t0_s must be finite, got nan"),
], ids=["gamma_e_rad", "gamma_gg_rad", "couplings", "guard_s",
        "trace_sample_rate_nan", "trace_sample_rate_inf", "trace_t0_nan"])
def test_non_finite_file_value_is_rejected_naming_it(tmp_path, capsys, name, text, code, message):
    path = tmp_path / name
    path.write_text(text)
    command = ["fit", str(path)] if name == "trace.csv" else ["spectroscopy", "--config", str(path)]
    out = tmp_path / "o"
    assert main([*command, "--out", str(out)]) == code
    assert capsys.readouterr().err.startswith(message)
    assert not out.exists()


@pytest.mark.parametrize("text, message", [
    (b"\x89PNG\r\n", "trace parse error: line 1: not UTF-8 text: byte 0x89 at offset 0\n"),
    (b"# sample_rate_hz=2e7 t0_s=0.0\r\n0.0,1.0\r\n5e-08,\xff\r\n",
     "trace parse error: line 3: not UTF-8 text: byte 0xff at offset 46\n"),
])
def test_fit_of_a_file_that_is_not_utf8_is_a_trace_parse_error(tmp_path, capsys, text, message):
    path = tmp_path / "x.csv"
    path.write_bytes(text)
    assert main(["fit", str(path), "--out", str(tmp_path / "o")]) == 3
    assert capsys.readouterr().err == message
    assert not (tmp_path / "o").exists()


def test_fit_reads_a_run_trace_as_its_csv(tmp_path, capsys, write_csv_trace):
    out = tmp_path / "run"
    assert main(["spectroscopy", "--out", str(out), "--jobs", "1"]) == 0
    npz = out / "points" / "0" / "trace.npz"
    csv_path = write_csv_trace(read_trace_csv(npz), tmp_path / "trace.csv")
    window = ["--window", "8.7e-05", "1.45e-04", "--envelope"]
    printed = []
    for name, path in (("npz", npz), ("csv", csv_path)):
        capsys.readouterr()
        assert main(["fit", str(path), "--out", str(tmp_path / name), *window]) == 0
        printed.append(capsys.readouterr().out.replace(str(tmp_path / name), "<out>"))
    assert printed[0] == printed[1]
    assert (tmp_path / "npz" / "fits.csv").read_bytes() == (tmp_path / "csv" / "fits.csv").read_bytes()


def test_fit_subcommand(tmp_path, capsys, write_csv_trace):
    fs = 2.0e7
    n = 1200
    t = np.arange(n) / fs
    rng = np.random.default_rng(1)
    v = 1.0 + 2.5 * np.sin(2 * np.pi * 685.8e3 * t + 0.3) + rng.normal(0, 0.05, n)
    path = write_csv_trace(PhotodiodeTrace(0.0, fs, v), tmp_path / "tone.csv")
    out = tmp_path / "fitout"
    code = main(["fit", str(path), "--out", str(out), "--f-guess", "686e3"])
    assert code == 0
    assert (out / "fits.csv").is_file()
    assert "f_b" in capsys.readouterr().out


@pytest.mark.parametrize("f_guess", ["nan", "inf", "1e9"])
def test_fit_rejects_a_seed_outside_the_band_below_nyquist(tmp_path, capsys, f_guess,
                                                           write_csv_trace):
    fs = 2.0e7
    t = np.arange(1200) / fs
    path = write_csv_trace(PhotodiodeTrace(0.0, fs, 1.0 + 2.5 * np.sin(2 * np.pi * 685.8e3 * t)),
                           tmp_path / "tone.csv")
    out = tmp_path / "fitout"
    assert main(["fit", str(path), "--out", str(out), "--f-guess", f_guess]) == 1
    assert "f_guess" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("window", [("1.45e-04", "8.7e-05"), ("1e-4", "1e-4"), ("nan", "1e-4")])
def test_fit_window_that_is_not_t_a_before_t_b_exits_1(tmp_path, capsys, write_csv_trace,
                                                       window):
    fs = 2.0e7
    t = np.arange(4000) / fs
    path = write_csv_trace(PhotodiodeTrace(0.0, fs, 1.0 + 2.5 * np.sin(2 * np.pi * 685.8e3 * t)),
                           tmp_path / "tone.csv")
    out = tmp_path / "fitout"
    assert main(["fit", str(path), "--out", str(out), "--window", *window]) == 1
    assert capsys.readouterr().err.startswith(
        "configuration error: window must be two finite times t_a < t_b, got ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["spectroscopy", "control-sweep"])
@pytest.mark.parametrize("line, message", [
    ("input_window_s = 8.0e-5, 4.0e-5",
     "input_window_s must be two finite times t_a < t_b, got (8e-05, 4e-05)"),
    ("retrieved_window_s = 1.0e-4, nan",
     "retrieved_window_s must be two finite times t_a < t_b, got (0.0001, nan)"),
    ("guard_s = 1.0", "guard_s = 1.0 s leaves no input window: the input phase lasts 5e-05 s"),
    ("input_window_s = 3.3e-5, 7.5e-5\nguard_s = 7.0e-5",
     "guard_s = 7e-05 s leaves no readout window: the readout phase lasts 6e-05 s"),
])
def test_a_window_no_trace_can_fill_exits_1_before_any_point(tmp_path, capsys, monkeypatch,
                                                             command, line, message):
    def no_synthesis(*args):
        raise AssertionError("a trace was synthesized")

    monkeypatch.setattr("lightstore.orchestrator.simulate_storage", no_synthesis)
    bad = tmp_path / "bad.cfg"
    bad.write_text(f"[analysis]\n{line}\n")
    out = tmp_path / "o"
    assert main([command, "--config", str(bad), "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


def test_no_traces_flag(tmp_path, small_config):
    out = tmp_path / "run"
    code = main(["spectroscopy", "--config", str(small_config),
                 "--out", str(out), "--no-traces"])
    assert code == 0
    assert not list(out.glob("points/*/trace*"))
    assert (out / "points" / "0" / "fits.csv").is_file()


@pytest.mark.parametrize("flag", ["0", "-2"])
def test_jobs_below_one_rejected(tmp_path, small_config, capsys, flag):
    argv = ["spectroscopy", "--config", str(small_config), "--out", str(tmp_path / "o")]
    code = main(argv + ["--jobs", flag])
    assert code == 1
    assert "jobs must be >= 1" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_cold_start_leaves_scipy_stats_unimported():
    # no scipy module at all, after the import and after a run of each kind
    # of computation: beat and line fits, steady states, and evolution
    code = (
        "import sys\n"
        "def scipy_modules():\n"
        "    return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
        "import lightstore.cli\n"
        "print(scipy_modules())\n"
        "import numpy as np\n"
        "from lightstore.atom import DensityMatrix, evolve\n"
        "from lightstore.configfile import default_config\n"
        "from lightstore.orchestrator import StudyPlan, run_dark_resonance, run_spectroscopy\n"
        "loaded = default_config()\n"
        "run_spectroscopy(StudyPlan.from_loaded(loaded, 'spectroscopy', seed_base=1))\n"
        "run_dark_resonance(StudyPlan.from_loaded(loaded, 'dark_resonance'))\n"
        "evolve(DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex)), loaded.config,\n"
        "       loaded.sequence)\n"
        "print(scipy_modules())\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lightstore.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"]


def test_commands_run_with_scipy_unimportable(tmp_path, small_config):
    # a finder ahead of the import system makes every scipy import fail, so
    # each command below would exit non-zero if any code path needed scipy
    code = (
        "import sys\n"
        "from pathlib import Path\n"
        "class NoScipy:\n"
        "    def find_spec(self, name, path=None, target=None):\n"
        "        if name.split('.')[0] == 'scipy':\n"
        "            raise ImportError(f'{name} is blocked')\n"
        "sys.meta_path.insert(0, NoScipy())\n"
        "try:\n"
        "    import scipy\n"
        "    sys.exit('scipy imported')\n"
        "except ImportError:\n"
        "    pass\n"
        "from lightstore.cli import main\n"
        "config, out = sys.argv[1], Path(sys.argv[2])\n"
        "codes = [main(['spectroscopy', '--config', config, '--out', str(out / 'spec')]),\n"
        "         main(['dark-resonance', '--config', config, '--out', str(out / 'dark')])]\n"
        "trace = sorted((out / 'spec').rglob('trace*.npz'))[0]\n"
        "codes.append(main(['fit', str(trace), '--out', str(out / 'fit')]))\n"
        "print(codes)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lightstore.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code, str(small_config), str(tmp_path)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0, 0]", proc.stderr
