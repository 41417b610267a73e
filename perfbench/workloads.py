"""The benchmark's three closed-loop workloads and their correctness checks.

Each workload is driven by one client in one process: the next op starts
when the previous one has returned.  ``op(i)`` calls the study through the
``lightstore.orchestrator`` module attribute, so an installed tracer sees
it; ``check`` returns ``None`` or the reason the output is wrong, and runs
outside the timed region, as does ``cleanup``.
"""

from __future__ import annotations

import csv
import math
import shutil
from pathlib import Path

import numpy as np

from lightstore import orchestrator
from lightstore.configfile import DEFAULT_SHIFT_AT_REFERENCE_HZ, LoadedExperiment
from lightstore.orchestrator import StudyPlan

# Seed blocks of different workload seeds never overlap.
SEEDS_PER_WORKLOAD_SEED = 1_000_000


class Workload:
    name = ""

    def __init__(self, loaded: LoadedExperiment, seed: int, root: Path):
        self.loaded = loaded
        self.seed_base = seed * SEEDS_PER_WORKLOAD_SEED
        self.root = root

    def op(self, i: int):
        raise NotImplementedError

    def check(self, out) -> "str | None":
        raise NotImplementedError

    def cleanup(self, out) -> None:
        pass

    def shift_coverage(self, out) -> "tuple[bool, bool] | None":
        """Whether the injected shift lies within 1 and 3 quoted sigma, if the op has one."""
        return None


class McSpectroscopy(Workload):
    """In-memory spectroscopy, average-traces, jobs=1: 9 detunings x 10 reps."""

    name = "mc-spectroscopy"

    def op(self, i: int):
        plan = StudyPlan.from_loaded(self.loaded, "spectroscopy", seed_base=self.seed_base + i)
        return orchestrator.run_spectroscopy(plan)

    def check(self, out) -> "str | None":
        return check_spectroscopy(*out)

    def shift_coverage(self, out) -> tuple[bool, bool]:
        result, _ = out
        deviation = abs(result.delta_f_ac_hz - DEFAULT_SHIFT_AT_REFERENCE_HZ)
        return deviation <= result.delta_f_ac_err_hz, deviation <= 3.0 * result.delta_f_ac_err_hz


def check_spectroscopy(result, record) -> "str | None":
    usable = sum(not p.excluded for p in record.points)
    if usable < 3:
        return f"only {usable} usable points"
    shift, err = result.delta_f_ac_hz, result.delta_f_ac_err_hz
    if not (math.isfinite(shift) and math.isfinite(err)):
        return f"shift {shift!r} +- {err!r} is not finite"
    if abs(shift - DEFAULT_SHIFT_AT_REFERENCE_HZ) > 5.0 * err:
        return f"shift {shift!r} +- {err!r} is more than 5 sigma from the injected shift"
    return None


class PersistedSweep(Workload):
    """Control sweep persisted with traces at jobs=2, then six re-analyses.

    Every op writes into a directory that did not exist before: on ext4,
    overwriting trace CSVs measured the kernel's flush of the old file.
    """

    name = "persisted-sweep"
    jobs = 2

    def op(self, i: int):
        out_dir = self.root / f"op-{i}"
        plan = StudyPlan.from_loaded(
            self.loaded, "control_sweep", seed_base=self.seed_base + i,
            out_dir=out_dir, jobs=self.jobs, persist_traces=True,
        )
        orchestrator.run_control_sweep(plan)
        reanalyzed = [
            orchestrator.reanalyze_spectroscopy(out_dir / "points" / str(k))
            for k in range(len(plan.grid))
        ]
        return out_dir, reanalyzed

    def check(self, out) -> "str | None":
        return check_reanalysis(*out)

    def cleanup(self, out) -> None:
        shutil.rmtree(out[0])


def read_result_csv(path: Path) -> dict[str, str]:
    with open(path, newline="") as fh:
        return {row["key"]: row["value"] for row in csv.DictReader(fh)}


def check_reanalysis(out_dir: Path, reanalyzed) -> "str | None":
    """Re-analysis must reproduce each nested result.csv shift exactly."""
    if not (out_dir / "run.json").exists():
        return "run.json missing"
    for k, result in enumerate(reanalyzed):
        path = out_dir / "points" / str(k) / "result.csv"
        if not path.exists():
            return f"{path.name} of sweep point {k} missing"
        stored = read_result_csv(path)
        for key, value in (("delta_f_ac_hz", result.delta_f_ac_hz),
                           ("delta_f_ac_err_hz", result.delta_f_ac_err_hz)):
            if stored.get(key) != repr(float(value)):
                return f"sweep point {k}: stored {key} {stored.get(key)} != re-analysed {value!r}"
    return None


class MasterEquation(Workload):
    """In-memory dark-resonance spectrum: 241 steady states of the 9x9 Liouvillian.

    The study has no random input, so every seed gives the same spectrum.
    """

    name = "master-equation"

    def op(self, i: int):
        plan = StudyPlan.from_loaded(self.loaded, "dark_resonance", seed_base=self.seed_base + i)
        return orchestrator.run_dark_resonance(plan)

    def check(self, out) -> "str | None":
        return check_dark_resonance(*out)


def check_dark_resonance(points, record) -> "str | None":
    """Criterion 5's bounds: FWHM in [10, 40] kHz, peak at 0 Hz, symmetric."""
    summary = dict(record.summary)
    if not 10e3 <= summary["fwhm_hz"] <= 40e3:
        return f"FWHM {summary['fwhm_hz']!r} Hz outside [10, 40] kHz"
    if abs(summary["peak_delta_r_hz"]) > 1e-9:
        return f"peak at {summary['peak_delta_r_hz']!r} Hz, not 0"
    transmission = np.array([p.transmission for p in points])
    asymmetry = float(np.max(np.abs(transmission - transmission[::-1])))
    if not asymmetry < 1e-10:
        return f"spectrum asymmetric by {asymmetry!r}"
    return None


WORKLOADS = {w.name: w for w in (McSpectroscopy, PersistedSweep, MasterEquation)}
