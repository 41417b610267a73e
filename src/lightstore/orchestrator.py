"""Experiment driver: canned studies, persistence, and re-analysis.

Runs the four canonical studies (dark resonance spectrum, beat-frequency
spectroscopy over a Raman-detuning grid, retrieval-intensity sweep, input
signal-intensity sweep) plus stand-alone fitting of a trace file, a run's
.npz or a measured trace CSV.  Every run writes the same layout: a plan.cfg
snapshot that reloads to the exact configuration, per-point traces (binary
.npz files, see ``storage.write_trace_csv``; no run writes a CSV trace) and
fit tables, a summary.csv, a result.csv of scalar outcomes and a run.json
of metadata, written last as the mark of a finished run.  Every study runs
between ``_start_run`` (kind check, then removal of what an earlier run
wrote there: RUN_OUTPUTS, points/<i> and the plotdata/ of former runs) and
``_finish_run``; any other file in the directory is left alone.
Each kind's derive step (``_KINDS``) turns measured points into the run's
result and result.csv's summary; ``_finish_run`` builds summary.csv's rows
only for a run it persists, and writes every run-level file.  The task that
measures detuning points, in the parent or a worker, writes their directories.
Identical seeds yield byte-identical files, apart from run.json's timing,
whether points are evaluated serially or in a process pool.
"""

from __future__ import annotations

import csv
import json
import math
import re
import shutil
import time
import warnings
from collections.abc import Callable, Sequence
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import __version__
from .analysis import (
    BeatFitResult,
    FitError,
    LineFit,
    SIGMA_FLOOR_HZ,
    SpectroscopyPoint,
    SpectroscopyResult,
    fit_beat,
    fit_beats,
    linear_fit,
    slope_significance,
)
from .atom import spectrum_fwhm, transmission_spectrum
from .configfile import (
    AVERAGE_TRACES,
    LoadedExperiment,
    StudyDefaults,
    check_window,
    dump_config,
    load_config,
)
from .model import (
    ConfigurationError,
    ExperimentConfig,
    PulseSequence,
    TWO_PI,
    with_readout_intensity,
    with_signal_intensity,
)
from .storage import PhotodiodeTrace, read_trace_csv, simulate_storage, write_trace_csv

__all__ = [
    "StudyPlan",
    "RunRecord",
    "OrchestrationError",
    "point_seed",
    "run_spectroscopy",
    "run_control_sweep",
    "run_signal_sweep",
    "run_dark_resonance",
    "fit_only",
    "reanalyze_spectroscopy",
    "STUDY_KINDS",
]

# Value keys of a detuning point and of a sweep point, in summary.csv order.
POINT_KEYS = ("f_input_hz", "f_input_err_hz", "f_retrieved_hz", "f_retrieved_err_hz")
SHIFT_KEYS = ("delta_f_ac_hz", "delta_f_ac_err_hz")
# What a run writes in its directory besides plan.cfg, and POINTS/<i>/ per
# grid point; the writers take these names from here, and _start_run removes
# an earlier run's first.
RUN_JSON, RESULT_CSV, SUMMARY_CSV = RUN_OUTPUTS = ("run.json", "result.csv", "summary.csv")
POINTS = "points"
_POINT_NAME = re.compile(r"0|[1-9][0-9]*")


class OrchestrationError(RuntimeError):
    """A study could not produce a usable result."""


_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """splitmix64 finalizer; stable across processes and interpreter runs."""
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (x ^ (x >> 31)) & _MASK64


def point_seed(seed_base: int, index: int, rep: int = 0) -> int:
    """Per-point RNG seed: base XOR a mix of the point and repetition index."""
    return (seed_base ^ _mix64(((index + 1) << 20) | rep)) & ((1 << 63) - 1)


@dataclass(frozen=True)
class StudyPlan:
    """One study: kind, base configuration, grids and execution knobs."""

    kind: str
    config: ExperimentConfig
    sequence: PulseSequence
    study: StudyDefaults
    seed_base: int
    out_dir: Path | None = None
    jobs: int = 1
    persist_traces: bool = True

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown study kind {self.kind!r}")
        if self.jobs < 1:
            raise ConfigurationError("jobs must be >= 1")
        if self.kind != "dark_resonance":
            default_windows(self.sequence, self.study)

    @classmethod
    def from_loaded(
        cls,
        loaded: LoadedExperiment,
        kind: str,
        seed_base: int | None = None,
        out_dir: "Path | str | None" = None,
        jobs: int = 1,
        persist_traces: bool = True,
    ) -> "StudyPlan":
        if seed_base is None:
            seed_base = loaded.config.rng_seed
        return cls(
            kind=kind,
            config=loaded.config,
            sequence=loaded.sequence,
            study=loaded.study,
            seed_base=int(seed_base),
            out_dir=None if out_dir is None else Path(out_dir),
            jobs=jobs,
            persist_traces=persist_traces,
        )

    @property
    def grid(self) -> tuple[float, ...]:
        return getattr(self.study, _KINDS[self.kind].grid_field)

    def loaded(self) -> LoadedExperiment:
        return LoadedExperiment(config=self.config, sequence=self.sequence, study=self.study,
                                plan_kind=self.kind, plan_seed_base=self.seed_base)


@dataclass(frozen=True)
class PointRecord:
    """Outcome of one grid point (excluded points carry the error message)."""

    index: int
    x: float
    values: dict[str, float] = field(default_factory=dict)
    error: str | None = None
    fits: tuple[tuple[str, BeatFitResult], ...] = ()

    @property
    def excluded(self) -> bool:
        return self.error is not None


@dataclass(frozen=True)
class RunRecord:
    """A finished study's grid points and its (key, value) summary, as result.csv holds it."""

    points: tuple[PointRecord, ...]
    summary: tuple[tuple[str, float], ...]


def default_windows(
    sequence: PulseSequence, study: StudyDefaults
) -> tuple[tuple[float, float], tuple[float, float]]:
    """Fit windows: full input/readout epochs minus the post-edge guard.

    A guard that reaches the end of its phase leaves no window to fit, a
    ConfigurationError naming guard_s and the phase.
    """
    windows = []
    for phase, window in (("input", study.input_window_s), ("readout", study.retrieved_window_s)):
        if window is None:
            seg = sequence.phase(phase)
            if not seg.t_start + study.guard_s < seg.t_end:
                raise ConfigurationError(
                    f"guard_s = {study.guard_s!r} s leaves no {phase} window: "
                    f"the {phase} phase lasts {seg.duration:.6g} s")
            window = (seg.t_start + study.guard_s, seg.t_end)
        windows.append(window)
    return tuple(windows)


def _weighted_mean(fits: "list[BeatFitResult]") -> tuple[float, float]:
    """Inverse-variance mean of the fitted beat frequencies, and its error."""
    values = np.array([f.f_b_hz for f in fits])
    w = 1.0 / np.maximum(np.array([f.f_b_err_hz for f in fits]), SIGMA_FLOOR_HZ) ** 2
    mean = float(np.sum(w * values) / np.sum(w))
    return mean, float(1.0 / math.sqrt(np.sum(w)))


def _fit_windows(traces, window, with_envelope) -> "list[BeatFitResult | FitError]":
    """One window of every trace, stacked by fit_beats; the same bits as fit_beat per window.

    A lone window (a pool task's average-traces point) goes through
    fit_beat, the one-window call that perfbench's tracer counts.
    """
    if len(traces) != 1:
        return fit_beats(traces, window, with_envelope=with_envelope)
    try:
        return [fit_beat(traces[0], window, with_envelope=with_envelope)]
    except FitError as exc:
        return [exc]


def _analyze_points(points: "list[tuple[int, float, list[PhotodiodeTrace]]]", w_in: tuple[float, float],
                    w_ret: tuple[float, float], average_mode: str) -> list[PointRecord]:
    """Fit the traces of (index, x, traces) detuning points; fresh runs and re-analysis call this.

    The traces are the ones a run persists: with average-traces the one
    mean trace, whose fits are the point's values; with fit-then-average
    one trace per repetition, whose frequencies are combined by weighted
    mean.  All input windows are fitted in one stacked call and all
    retrieved windows in another; a FitError excludes only its own point.
    """
    traces = [trace for _, _, point_traces in points for trace in point_traces]
    fits_in = iter(_fit_windows(traces, w_in, with_envelope=False))
    fits_ret = iter(_fit_windows(traces, w_ret, with_envelope=True))
    records = []
    for index, x, point_traces in points:
        pairs = [(next(fits_in), next(fits_ret)) for _ in point_traces]
        error = next((fit for pair in pairs for fit in pair if isinstance(fit, FitError)), None)
        if error is not None:
            records.append(PointRecord(index=index, x=x, error=f"{type(error).__name__}: {error}"))
            continue
        if average_mode == AVERAGE_TRACES:
            [(fit_in, fit_ret)] = pairs
            fits = (("input", fit_in), ("retrieved", fit_ret))
            values = (fit_in.f_b_hz, fit_in.f_b_err_hz, fit_ret.f_b_hz, fit_ret.f_b_err_hz)
        else:
            fits = tuple((f"{name}_rep{rep}", fit) for rep, pair in enumerate(pairs)
                         for name, fit in zip(("input", "retrieved"), pair))
            values = (*_weighted_mean([fi for fi, _ in pairs]),
                      *_weighted_mean([fr for _, fr in pairs]))
        records.append(PointRecord(index=index, x=x, values=dict(zip(POINT_KEYS, values)),
                                   fits=fits))
    return records


def _trace_names(study: StudyDefaults) -> list[str]:
    """File names of one point's persisted traces, in the order they are fitted.

    A point that persists one trace (the average-traces mean, or a single
    repetition) writes trace.npz; otherwise repetition k writes trace_rep<k>.npz.
    """
    if study.average_mode == AVERAGE_TRACES or study.repetitions == 1:
        return ["trace.npz"]
    return [f"trace_rep{k}.npz" for k in range(study.repetitions)]


def _point_dir(out_dir: Path, index: int) -> Path:
    """POINTS/<index>/ of a run directory: one detuning point, or a sweep's nested study."""
    return out_dir / POINTS / str(index)


def _measure_point(task: "tuple[StudyPlan, list[int]]") -> list[PointRecord]:
    """Synthesize, analyze and persist a chunk of detuning points of a spectroscopy plan.

    Module-level so a process pool can pickle it.  With average-traces the
    repetitions are averaged into one trace first; the chunk's windows are
    then fitted together.  When the plan has an output directory, the task
    writes ``points/<index>/`` of each point: fits.csv for a usable point
    and, if the plan persists traces, the traces it fitted, excluded point
    or not.
    """
    plan, indices = task
    points = []
    for index in indices:
        delta_r = float(plan.grid[index])
        traces = [
            simulate_storage(
                replace(plan.config, delta_r_hz=delta_r,
                        rng_seed=point_seed(plan.seed_base, index, rep)),
                plan.sequence,
            )
            for rep in range(plan.study.repetitions)
        ]
        if plan.study.average_mode == AVERAGE_TRACES:
            traces = [replace(traces[0], samples=np.mean([tr.samples for tr in traces], axis=0))]
        points.append((index, delta_r, traces))
    records = _analyze_points(points, *default_windows(plan.sequence, plan.study),
                              plan.study.average_mode)
    if plan.out_dir is not None:
        for (index, _, traces), point in zip(points, records):
            point_dir = _point_dir(plan.out_dir, index)
            point_dir.mkdir(parents=True, exist_ok=True)
            if point.fits:
                write_fits_csv(list(point.fits), point_dir / "fits.csv")
            if plan.persist_traces:
                for name, trace in zip(_trace_names(plan.study), traces, strict=True):
                    write_trace_csv(trace, point_dir / name)
    return records


def _map_points(plan: StudyPlan, tasks: "list[tuple[StudyPlan, list[int]]]") -> list[list[PointRecord]]:
    if plan.jobs > 1:
        with ProcessPoolExecutor(max_workers=plan.jobs) as pool:
            return list(pool.map(_measure_point, tasks))
    return [_measure_point(t) for t in tasks]


def _eit_window_estimate_hz(config: ExperimentConfig) -> float:
    """Rough transparency-window FWHM: power-broadened term plus dephasing."""
    gamma_e = config.level_scheme.gamma_e_rad
    if gamma_e <= 0.0:
        return math.inf
    omega_c = config.control.rabi_frequency_rad
    return (omega_c**2 / gamma_e + 2.0 * config.level_scheme.gamma_gg_rad) / TWO_PI


# -- persistence helpers -----------------------------------------------------


def _write_rows_csv(path: Path, rows) -> None:
    """A CSV file of the given rows, its header first."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _fmt(value: float) -> str:
    return repr(float(value))


def write_fits_csv(rows: "list[tuple[str, BeatFitResult]]", path: Path) -> None:
    """fits.csv: one row per (window id, fit)."""
    _write_rows_csv(path, [
        ["window_id", "f_b_hz", "f_b_err_hz", "amplitude", "tau_e_s", "rms_residual", "converged"],
        *([window_id, *map(_fmt, (fit.f_b_hz, fit.f_b_err_hz, fit.amplitude,
                                  fit.envelope_decay_time_s, fit.rms_residual)),
           str(fit.converged).lower()]
          for window_id, fit in rows),
    ])


def _remove_earlier_run(out_dir: Path) -> None:
    """Remove RUN_OUTPUTS and every POINTS/<integer>/ from out_dir; other files stay.

    A plotdata/ directory goes too: former runs wrote their lines and points
    there a second time, and no run writes it now, so it would only hold
    stale copies next to fresh results.
    """
    points = [p for p in (out_dir / POINTS).glob("*")
              if _POINT_NAME.fullmatch(p.name) and p.is_dir()]
    for path in [out_dir / name for name in (*RUN_OUTPUTS, "plotdata")] + points:
        if path.is_dir():
            shutil.rmtree(path)
        else:
            path.unlink(missing_ok=True)


def _start_run(plan: StudyPlan, kind: str) -> tuple[StudyPlan, float, str]:
    """Check the plan's kind, then persist its snapshot and canonicalize the plan through it.

    Running from the reloaded snapshot makes re-analysis of the persisted
    run bit-identical to the original: both paths see exactly the values
    plan.cfg encodes (the config file round trip is a fixed point).  What an
    earlier run wrote there goes first, run.json before the rest, so a failed
    rerun neither looks finished nor leaves that run's results behind.
    """
    if plan.kind != kind:
        raise ConfigurationError(f"plan kind {plan.kind!r} is not {kind}")
    if plan.out_dir is not None:
        plan.out_dir.mkdir(parents=True, exist_ok=True)
        _remove_earlier_run(plan.out_dir)
        dump_config(plan.loaded(), plan.out_dir / "plan.cfg")
        reloaded = load_config(plan.out_dir / "plan.cfg")
        plan = replace(
            plan, config=reloaded.config, sequence=reloaded.sequence, study=reloaded.study
        )
    return plan, time.monotonic(), time.strftime("%Y-%m-%dT%H:%M:%S")


def _finish_run(plan: StudyPlan, measured: Sequence, t_start: float, started_at: str,
                points: "tuple[PointRecord, ...] | None" = None) -> tuple[object, RunRecord]:
    """Derive the measured points by the kind's step, write its tables, then run.json last.

    A derive step that raises leaves no run-level file.  summary.csv's rows
    are built only here, for a run with an output directory, so an in-memory
    run never builds them.  Returns the kind's result and a record of
    ``points``, by default the measured ones.
    """
    result, summary = _KINDS[plan.kind].derive(plan, measured)
    points = tuple(measured) if points is None else points
    if plan.out_dir is not None:
        rows = _spectrum_rows if plan.kind == "dark_resonance" else _point_rows
        _write_rows_csv(plan.out_dir / SUMMARY_CSV, rows(plan.kind, measured))
        _write_rows_csv(plan.out_dir / RESULT_CSV,
                        [["key", "value"], *([k, _fmt(v)] for k, v in summary)])
        meta = {
            "kind": plan.kind,
            "version": __version__,
            "seed_base": plan.seed_base,
            "started_at": started_at,
            "elapsed_s": time.monotonic() - t_start,
            "n_points": len(plan.grid),
            "n_excluded": sum(p.excluded for p in points),
        }
        with open(plan.out_dir / RUN_JSON, "w") as fh:
            json.dump(meta, fh, indent=2)
            fh.write("\n")
    return result, RunRecord(points=points, summary=summary)


# -- summary.csv rows; derive steps: measured -> result and summary (_Kind) ---


def _point_rows(kind: str, points: "Sequence[PointRecord]") -> list[list[str]]:
    """summary.csv of a kind of PointRecords; an excluded point has empty values and its error."""
    x_name, keys = _KINDS[kind].x_name, _KINDS[kind].keys
    return [["index", x_name, *keys, "excluded", "error"], *(
        [str(p.index), _fmt(p.x),
         *([""] * len(keys) if p.excluded else [_fmt(p.values[k]) for k in keys]),
         "1" if p.excluded else "0", p.error or ""]
        for p in points)]


def _spectrum_rows(kind: str, spectrum: list) -> list[list[str]]:
    """summary.csv of a transmission spectrum: its x and value columns, one row per point."""
    columns = (_KINDS[kind].x_name, *_KINDS[kind].keys)
    return [list(columns), *([_fmt(getattr(p, c)) for c in columns] for p in spectrum)]


def _usable(points: "Sequence[PointRecord]", what: str) -> list[PointRecord]:
    """The points that are not excluded; fewer than three of them fail the run."""
    usable = [p for p in points if not p.excluded]
    if len(usable) < 3:
        raise OrchestrationError(f"only {len(usable)} of {len(points)} {what} usable; need >= 3")
    return usable


def _derive_spectroscopy(plan: StudyPlan, points: "Sequence[PointRecord]") -> tuple:
    """Fit both frequency lines through the usable detuning points and intersect them."""
    result = SpectroscopyResult.from_points(
        [SpectroscopyPoint(delta_r_hz=p.x, **p.values) for p in _usable(points, "points")])
    summary = (
        ("input_slope", result.input_fit.slope),
        ("input_slope_err", result.input_fit.slope_err),
        ("input_intercept_hz", result.input_fit.intercept),
        ("input_intercept_err_hz", result.input_fit.intercept_err),
        ("input_chi2_per_dof", result.input_fit.chi2_per_dof),
        ("retrieved_slope", result.retrieved_fit.slope),
        ("retrieved_slope_err", result.retrieved_fit.slope_err),
        ("retrieved_intercept_hz", result.retrieved_fit.intercept),
        ("retrieved_intercept_err_hz", result.retrieved_fit.intercept_err),
        ("retrieved_chi2_per_dof", result.retrieved_fit.chi2_per_dof),
        ("delta_f_ac_hz", result.delta_f_ac_hz),
        ("delta_f_ac_err_hz", result.delta_f_ac_err_hz),
    )
    return result, summary


def _regress_shifts(points: "Sequence[PointRecord]"):
    """A sweep's usable (intensity, shift, sigma) triples, their columns as arrays
    with the sigmas floored, and the full-range line through them."""
    triples = [(p.x, p.values["delta_f_ac_hz"], p.values["delta_f_ac_err_hz"])
               for p in _usable(points, "sweep points")]
    xs, ys = np.array([t[0] for t in triples]), np.array([t[1] for t in triples])
    sigmas = np.array([max(t[2], SIGMA_FLOOR_HZ) for t in triples])
    return triples, xs, ys, sigmas, linear_fit(xs, ys, sigmas)


def _weighted_r_squared(fit: LineFit, xs, ys, sigmas) -> float:
    w = 1.0 / sigmas**2
    y_bar = float(np.sum(w * ys) / np.sum(w))
    ss_res = float(np.sum(w * (ys - fit.predict(xs)) ** 2))
    ss_tot = float(np.sum(w * (ys - y_bar) ** 2))
    return 1.0 - ss_res / ss_tot if ss_tot > 0.0 else math.nan


def _derive_control_sweep(plan: StudyPlan, points: "Sequence[PointRecord]") -> tuple:
    """Regress the shift on the retrieval intensity; the result is (triples, line fit)."""
    triples, xs, ys, sigmas, fit = _regress_shifts(points)
    cg_sq = plan.config.control_cg() ** 2
    summary = (
        ("slope_hz_per_intensity", fit.slope),
        ("slope_err_hz_per_intensity", fit.slope_err),
        ("slope_t_statistic", slope_significance(fit)),
        ("slope_hz_per_cg2_intensity", fit.slope / cg_sq if cg_sq else math.nan),
        ("intercept_hz", fit.intercept),
        ("intercept_err_hz", fit.intercept_err),
        ("intercept_t_statistic",
         fit.intercept / fit.intercept_err if fit.intercept_err > 0.0 else math.nan),
        ("r_squared", _weighted_r_squared(fit, xs, ys, sigmas)),
        ("chi2_per_dof", fit.chi2_per_dof),
        ("model_slope_hz_per_intensity", plan.config.light_shift_hz(1.0)),
    )
    return (triples, fit), summary


def _derive_signal_sweep(plan: StudyPlan, points: "Sequence[PointRecord]") -> tuple:
    """Regress the shift on the signal intensity; the result is (triples, {name: line fit}).

    Besides the "full" fit, a "restricted" one covers I_S <= I_C (the
    preparation control intensity), where the weak-signal picture holds,
    when at least three surviving intensities lie there.
    """
    triples, xs, ys, sigmas, full = _regress_shifts(points)
    fits = {"full": full}
    cg_sq = plan.config.signal_cg() ** 2
    summary = [
        ("full_slope_hz_per_intensity", full.slope),
        ("full_slope_err_hz_per_intensity", full.slope_err),
        ("full_slope_t_statistic", slope_significance(full)),
        ("full_slope_hz_per_cg2_intensity", full.slope / cg_sq if cg_sq else math.nan),
        ("control_intensity_limit", plan.config.control.intensity),
    ]
    keep = xs <= plan.config.control.intensity
    if int(np.sum(keep)) >= 3:
        restricted = fits["restricted"] = linear_fit(xs[keep], ys[keep], sigmas[keep])
        summary += [
            ("restricted_slope_hz_per_intensity", restricted.slope),
            ("restricted_slope_err_hz_per_intensity", restricted.slope_err),
            ("restricted_slope_t_statistic", slope_significance(restricted)),
            ("restricted_n_points", float(restricted.n_points)),
        ]
    return (triples, fits), tuple(summary)


def _derive_dark_resonance(plan: StudyPlan, spectrum: list) -> tuple:
    """Peak, background and FWHM of the transmission spectrum, which is the result.

    A spectrum without a FWHM (its peak on the grid edge, or no half level
    inside the grid) fails the run with spectrum_fwhm's reason.
    """
    transmissions = [p.transmission for p in spectrum]
    i_peak = int(np.argmax(transmissions))
    try:
        fwhm = spectrum_fwhm(spectrum)
    except ValueError as exc:
        raise OrchestrationError(f"FWHM undefined: {exc}") from exc
    summary = (
        ("fwhm_hz", fwhm),
        ("peak_delta_r_hz", spectrum[i_peak].delta_r_hz),
        ("peak_transmission", spectrum[i_peak].transmission),
        ("background_transmission", float(min(transmissions))),
    )
    return spectrum, summary


class _Kind(NamedTuple):
    """A study kind: its grid's StudyDefaults field, summary.csv's x and value columns,
    and derive(plan, measured) -> (run_* result, result.csv's (key, value) summary).

    derive reads neither plan.out_dir nor any file: a persisted run and an
    in-memory one derive the same result from the same measured points."""

    grid_field: str
    x_name: str
    keys: tuple[str, ...]
    derive: Callable[[StudyPlan, Sequence], tuple]


_KINDS = {
    "dark_resonance": _Kind("dark_resonance_grid_hz", "delta_r_hz",
                            ("transmission", "absorption_proxy"), _derive_dark_resonance),
    "spectroscopy": _Kind("delta_r_grid_hz", "delta_r_hz", POINT_KEYS, _derive_spectroscopy),
    "control_sweep": _Kind("control_intensity_grid", "intensity", SHIFT_KEYS,
                           _derive_control_sweep),
    "signal_sweep": _Kind("signal_intensity_grid", "intensity", SHIFT_KEYS,
                          _derive_signal_sweep),
}
STUDY_KINDS = tuple(_KINDS)


# -- studies -----------------------------------------------------------------


def _prepare_spectroscopy(plan: StudyPlan) -> tuple[StudyPlan, float, str]:
    """Start the run, then check its grid against the transparency window."""
    run = _start_run(plan, "spectroscopy")
    window_est = _eit_window_estimate_hz(plan.config)
    if max(abs(d) for d in plan.study.delta_r_grid_hz) > window_est:
        warnings.warn(
            f"detuning grid extends past the estimated transparency window "
            f"({window_est:.0f} Hz)",
            stacklevel=3,
        )
    return run


def run_spectroscopy(plan: StudyPlan) -> tuple[SpectroscopyResult, RunRecord]:
    """Synthesize and fit one trace pair per Raman detuning, then intersect.

    Per-point fit failures exclude the point and are reported in the
    summary; fewer than three surviving points aborts the study.  At
    jobs=1 the grid is one task, so all its windows of a kind are fitted
    in one stack; a pool takes one point per task.
    """
    plan, t0, started = _prepare_spectroscopy(plan)
    indices = list(range(len(plan.grid)))
    chunks = _map_points(plan, [(plan, indices)] if plan.jobs == 1
                         else [(plan, [i]) for i in indices])
    return _finish_run(plan, [p for chunk in chunks for p in chunk], t0, started)


def _run_shift_sweep(plan: StudyPlan, kind: str) -> tuple:
    """Shared driver for the control/signal intensity sweeps, of the given plan kind.

    Prepares a nested spectroscopy per grid intensity, measures each of
    them as one task of one pool, then finishes each nested study in order
    and derives the sweep from their shifts.  A nested study that raises a
    FitError (lines too close to parallel, say) or has too few usable points
    excludes its intensity with that error's message and has no run.json.
    Returns the kind's result, unpacked, then the record.
    """
    plan, t0, started = _start_run(plan, kind)
    with_intensity = with_readout_intensity if kind == "control_sweep" else with_signal_intensity
    nested = [
        _prepare_spectroscopy(replace(
            plan, kind="spectroscopy", config=with_intensity(plan.config, float(intensity)),
            seed_base=point_seed(plan.seed_base, i),
            out_dir=None if plan.out_dir is None else _point_dir(plan.out_dir, i),
        ))
        for i, intensity in enumerate(plan.grid)
    ]
    measured = _map_points(plan, [(inner, list(range(len(inner.grid)))) for inner, *_ in nested])
    sweep_points = []
    for i, ((inner, t_inner, started_inner), points) in enumerate(zip(nested, measured)):
        x = float(plan.grid[i])
        try:
            summary = dict(_finish_run(inner, points, t_inner, started_inner)[1].summary)
        except (FitError, OrchestrationError) as exc:
            sweep_points.append(PointRecord(index=i, x=x, error=f"{type(exc).__name__}: {exc}"))
        else:
            sweep_points.append(PointRecord(index=i, x=x,
                                            values={k: summary[k] for k in SHIFT_KEYS}))
    result, record = _finish_run(plan, sweep_points, t0, started)
    return (*result, record)


def run_control_sweep(plan: StudyPlan) -> tuple[list[tuple[float, float, float]], LineFit, RunRecord]:
    """Extract the shift for each retrieval intensity and fit its linearity."""
    return _run_shift_sweep(plan, "control_sweep")


def run_signal_sweep(plan: StudyPlan) -> tuple[list[tuple[float, float, float]], dict[str, LineFit], RunRecord]:
    """Vary the input signal intensity; report full and restricted-range fits."""
    return _run_shift_sweep(plan, "signal_sweep")


def run_dark_resonance(plan: StudyPlan) -> tuple[list, RunRecord]:
    """Steady-state transmission spectrum over the configured detuning grid."""
    plan, t0, started = _start_run(plan, "dark_resonance")
    spectrum = transmission_spectrum(plan.config, np.array(plan.grid))
    return _finish_run(plan, spectrum, t0, started, points=())


def fit_only(
    trace_path: "Path | str",
    out_dir: "Path | str",
    window: tuple[float, float] | None = None,
    f_guess: float | None = None,
    with_envelope: bool = False,
) -> BeatFitResult:
    """Fit an externally recorded (or exported) trace file, a .csv or a run's .npz.

    The fits.csv written to out_dir uses the same schema as the synthetic
    studies, with window id "fit".  A window that is not two finite times
    t_a < t_b is a ConfigurationError, raised before the trace is read.
    """
    if window is not None:
        check_window("window", window)
    trace = read_trace_csv(trace_path)
    if window is None:
        window = (trace.t0_s, trace.t0_s + trace.duration_s)
    fit = fit_beat(trace, window, f_guess=f_guess, with_envelope=with_envelope)
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    write_fits_csv([("fit", fit)], out / "fits.csv")
    return fit


def reanalyze_spectroscopy(run_dir: "Path | str") -> SpectroscopyResult:
    """Rebuild a spectroscopy result from persisted traces and plan.cfg alone.

    Every grid point goes through the routine and the derive step the fresh
    run used, so the stored numbers come back exactly and an excluded point
    is excluded again.  Each point's traces are read from exactly the files
    that plan.cfg's study settings name, and other files are ignored; a
    missing trace file is an error, and so is a directory without run.json,
    which a run writes only once it has finished.
    """
    run_dir = Path(run_dir)
    if not (run_dir / RUN_JSON).is_file():
        raise OrchestrationError(f"{run_dir} has no run.json: the run did not finish")
    loaded = load_config(run_dir / "plan.cfg")
    if loaded.plan_kind != "spectroscopy":
        raise ConfigurationError(
            f"run directory holds a {loaded.plan_kind!r} study, not spectroscopy"
        )
    plan = StudyPlan.from_loaded(loaded, loaded.plan_kind)
    points = []
    for i, d in enumerate(plan.grid):
        try:
            traces = [read_trace_csv(_point_dir(run_dir, i) / name)
                      for name in _trace_names(plan.study)]
        except FileNotFoundError as exc:
            raise OrchestrationError(f"point {i} has no trace file {exc.filename}") from exc
        points.append((i, float(d), traces))
    records = _analyze_points(points, *default_windows(plan.sequence, plan.study),
                              plan.study.average_mode)
    return _derive_spectroscopy(plan, records)[0]
