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


def _as_csv_traces(run_dir):
    """Rewrite a run's .npz traces as the CSV traces an older tree wrote."""
    for path in run_dir.glob("points/*/trace*.npz"):
        write_trace_csv(read_trace_csv(path), path.with_suffix(".csv"))
        path.unlink()


def test_csv_traces_pair_with_npz_traces_by_content(two_runs):
    a, b = two_runs
    _as_csv_traces(a)
    result = equivalence.compare_trees(a, b)
    assert result.equal
    assert "points/0/trace.{csv,npz}" in result.identical
    assert len(result.identical) == len(list(b.rglob("*.*")))


def _change_one_sample(path):
    trace = read_trace_csv(path)
    samples = trace.samples.copy()
    samples[100] *= 1.0 + 1e-9
    write_trace_csv(replace(trace, samples=samples), path)


def test_a_changed_sample_of_a_trace_pair_is_reported(two_runs):
    a, b = two_runs
    _as_csv_traces(a)
    _change_one_sample(b / "points" / "3" / "trace.npz")
    (a / "points" / "4" / "trace.csv").rename(a / "points" / "4" / "trace_rep0.csv")
    result = equivalence.compare_trees(a, b)
    assert list(result.differing) == ["points/3/trace.{csv,npz}"]
    assert result.differing["points/3/trace.{csv,npz}"] == pytest.approx(1e-9, rel=1e-3)
    assert result.unmatched == ["points/4/trace.npz", "points/4/trace_rep0.csv"]


def test_a_changed_sample_between_npz_traces_is_reported(two_runs):
    a, b = two_runs
    _change_one_sample(b / "points" / "3" / "trace.npz")
    result = equivalence.compare_trees(a, b)
    assert list(result.differing) == ["points/3/trace.npz"]
    assert result.differing["points/3/trace.npz"] == pytest.approx(1e-9, rel=1e-3)


def test_trace_values_read_both_formats_bit_equal(two_runs):
    a, _ = two_runs
    npz = a / "points" / "0" / "trace.npz"
    trace = read_trace_csv(npz)
    write_trace_csv(trace, a / "trace.csv")
    for path in (npz, a / "trace.csv"):
        values = equivalence.trace_values(path)
        assert values[:2].tolist() == [trace.sample_rate_hz, trace.t0_s]
        assert values[2:].tobytes() == trace.samples.tobytes()


def test_the_fit_command_takes_the_trace_its_tree_wrote(tmp_path):
    [fit_args] = [args for name, args in equivalence.COMMANDS if name == "fit"]
    pattern = fit_args[1].format(runs=tmp_path)
    point = tmp_path / "spectroscopy-average-traces" / "points" / "0"
    point.mkdir(parents=True)
    for name in ("trace.npz", "trace.csv"):
        (point / name).write_text("")
        assert equivalence._one_match(pattern) == str(point / name)
        (point / name).unlink()


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
