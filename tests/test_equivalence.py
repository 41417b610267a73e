"""Smoke test of the compare step of tools/equivalence.py, without git."""

import importlib.util
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest

from lightstore.configfile import default_config
from lightstore.orchestrator import StudyPlan, run_spectroscopy
from lightstore.storage import read_trace_csv, write_trace_csv

_spec = importlib.util.spec_from_file_location(
    "equivalence", Path(__file__).resolve().parents[1] / "tools" / "equivalence.py"
)
equivalence = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = equivalence  # dataclasses look their module up here
_spec.loader.exec_module(equivalence)


@pytest.fixture()
def two_runs(tmp_path):
    loaded = default_config()
    loaded = replace(loaded, study=replace(loaded.study, repetitions=2))
    dirs = []
    for name in ("a", "b"):
        out = tmp_path / name
        run_spectroscopy(StudyPlan.from_loaded(
            loaded, "spectroscopy", seed_base=equivalence.SEED_BASE, out_dir=out
        ))
        dirs.append(out)
    return dirs


def test_two_runs_of_one_tree_are_equal(two_runs):
    a, b = two_runs
    result = equivalence.compare_trees(a, b)
    assert result.equal
    assert result.identical == sorted(
        p.relative_to(a).as_posix() for p in a.rglob("*") if p.is_file()
    )
    assert "run.json" in result.identical  # its timing differs between the runs


def test_a_changed_cell_and_a_missing_file_are_reported(two_runs):
    a, b = two_runs
    summary = b / "summary.csv"
    lines = summary.read_text().splitlines(keepends=True)
    cells = lines[1].rstrip("\r\n").split(",")
    cells[1] = repr(float(cells[1]) * (1.0 + 1e-6))
    lines[1] = ",".join(cells) + "\r\n"
    summary.write_text("".join(lines))
    (b / "points" / "0" / "trace.npz").unlink()
    result = equivalence.compare_trees(a, b)
    assert not result.equal
    assert list(result.differing) == ["summary.csv"]
    assert result.differing["summary.csv"] == pytest.approx(1e-6, rel=1e-3)
    assert result.unmatched == ["points/0/trace.npz"]


def _change_one_sample(path):
    trace = read_trace_csv(path)
    samples = trace.samples.copy()
    samples[100] *= 1.0 + 1e-9
    write_trace_csv(replace(trace, samples=samples), path)


def test_a_changed_sample_between_npz_traces_is_reported(two_runs):
    a, b = two_runs
    _change_one_sample(b / "points" / "3" / "trace.npz")
    result = equivalence.compare_trees(a, b)
    assert list(result.differing) == ["points/3/trace.npz"]
    assert result.differing["points/3/trace.npz"] == pytest.approx(1e-9, rel=1e-3)


def test_trace_values_read_npz_bit_equal(two_runs):
    a, _ = two_runs
    npz = a / "points" / "0" / "trace.npz"
    trace = read_trace_csv(npz)
    values = equivalence.trace_values(npz)
    assert values[:2].tolist() == [trace.sample_rate_hz, trace.t0_s]
    assert values[2:].tobytes() == trace.samples.tobytes()


def test_the_csv_copy_reads_back_bit_equal(two_runs, write_csv_trace):
    a, _ = two_runs
    trace = read_trace_csv(a / "points" / "0" / "trace.npz")
    equivalence.write_csv_copy(a / "points" / "0" / "trace.npz", a / "copy.csv")
    back = read_trace_csv(a / "copy.csv")
    assert back.samples.tobytes() == trace.samples.tobytes()
    assert (back.sample_rate_hz, back.t0_s) == (trace.sample_rate_hz, trace.t0_s)
    assert (a / "copy.csv").read_bytes() == write_csv_trace(trace, a / "t.csv").read_bytes()


def test_cells_that_do_not_line_up_differ_infinitely():
    diff = equivalence.max_relative_difference
    assert diff("x,1.0\n", "x,1.0\n") == 0.0
    assert diff("x,2.0\n", "x,1.0\n") == pytest.approx(0.5)
    assert diff("x,1.0\n", "y,1.0\n") == math.inf
    assert diff("x,1.0\n", "x,1.0,2.0\n") == math.inf


def test_nonblank_lines_counts_python_lines_with_text(tmp_path):
    (tmp_path / "sub").mkdir()
    (tmp_path / "a.py").write_text("x = 1\n\n   \ny = 2\n")
    (tmp_path / "sub" / "b.py").write_text("# comment\n")
    (tmp_path / "notes.txt").write_text("not code\n")
    assert equivalence.nonblank_lines(tmp_path) == 3


def test_equal_stdout_passes_and_a_changed_line_is_reported():
    printed = {
        "spectroscopy": "spectroscopy: 9 points, 0 excluded\n  delta_f_ac  7000.123 +- 1.234 Hz\n"
                        "outputs in {runs}/spectroscopy\n",
        "init-config": "wrote {runs}/init-config/default.cfg\n",
    }
    assert equivalence.compare_stdout(printed, dict(printed)) == {}
    changed = dict(printed, spectroscopy=printed["spectroscopy"].replace("7000.123", "7000.124"))
    assert equivalence.compare_stdout(printed, changed) == {
        "spectroscopy": "line 2: '  delta_f_ac  7000.123 +- 1.234 Hz' != "
                        "'  delta_f_ac  7000.124 +- 1.234 Hz'"}


def test_a_missing_or_extra_line_of_stdout_is_reported():
    diff = equivalence.stdout_difference
    assert diff("a\nb\n", "a\nb\n") is None
    assert diff("a\nb\n", "a\n") == "line 2: 'b' != ''"
    assert diff("a\n", "a") == "line 2: '' != None"


def test_a_differing_config_file_is_reported_by_its_lines(two_runs):
    a, b = two_runs
    plan = b / "plan.cfg"
    text = plan.read_text()
    assert "[magnetic]\nb0_gauss = 0.49\ng_f = 0.5\n" in text
    plan.write_text(text.replace("g_f = 0.5\n", "").replace("b0_gauss = 0.49", "b0_gauss = 0.5"))
    result = equivalence.compare_trees(a, b)
    assert not result.equal
    assert result.differing == {}
    assert result.differing_lines == {"plan.cfg": (
        ("[magnetic] b0_gauss = 0.49", "[magnetic] g_f = 0.5"), ("[magnetic] b0_gauss = 0.5",))}


def test_config_lines_are_told_apart_by_their_section():
    a = "[control]\nintensity = 10.5\npower_w = 0.0003\n\n[signal]\nintensity = 3.5\npower_w = 0.0001\n"
    b = "[control]\nintensity = 10.5\n\n[signal]\nintensity = 3.5\n"
    assert equivalence.line_difference(a, b) == (
        ("[control] power_w = 0.0003", "[signal] power_w = 0.0001"), ())
    assert equivalence.line_difference(a, a) == ((), ())
