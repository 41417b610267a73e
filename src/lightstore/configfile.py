"""Human-readable experiment configuration files.

INI-style key/value sections (configparser syntax) covering every
ExperimentConfig field plus the pulse sequence, study grids and analysis
windows.  ``_FORMAT`` is the file format: it lists every section and key in
file order with the parser of each key, and ``load_config``, ``dump_config``
and the key checks all read it.  Unknown sections or keys are hard errors;
omitted keys keep the calibrated defaults of ``default_config``, and
``dump_config(default_config(), path)`` writes those defaults out as an
editable template.

Grids accept either comma-separated values or "lin:start:stop:n".
"""

from __future__ import annotations

import configparser
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .model import (
    TWO_PI,
    ConfigurationError,
    ExperimentConfig,
    FieldConfig,
    LevelScheme,
    LightShiftModel,
    MagneticEnvironment,
    PulseSequence,
    ShiftCoupling,
    SIGMA_MINUS,
    SIGMA_PLUS,
)

AVERAGE_TRACES = "average-traces"
FIT_THEN_AVERAGE = "fit-then-average"

# Calibrated defaults: the reference drive of I_C = 10.5 I_sat (~300 uW over
# a 0.9 mm beam) maps to a 2pi*375 kHz control coupling, reproducing a
# ~20 kHz dark-resonance window; the single effective shift coupling is then
# scaled so the same drive produces a +7 kHz differential light shift.
DEFAULT_CONTROL_INTENSITY = 10.5
DEFAULT_SIGNAL_INTENSITY = 3.5
DEFAULT_KAPPA_RAD2 = (TWO_PI * 375e3) ** 2 / DEFAULT_CONTROL_INTENSITY
DEFAULT_SHIFT_DETUNING_RAD = TWO_PI * 814.5e6
DEFAULT_SHIFT_AT_REFERENCE_HZ = 7000.0
# Phase durations of the standard sequence: the arguments of
# PulseSequence.standard and the keys of [pulse_sequence].
DEFAULT_DURATIONS_S = {
    "preparation_s": 30e-6, "input_s": 50e-6, "storage_s": 5e-6, "readout_s": 60e-6,
}


@dataclass(frozen=True)
class StudyDefaults:
    """Grids, repetition count and analysis windows for the canned studies."""

    delta_r_grid_hz: tuple[float, ...]
    dark_resonance_grid_hz: tuple[float, ...]
    control_intensity_grid: tuple[float, ...]
    signal_intensity_grid: tuple[float, ...]
    repetitions: int = 10
    average_mode: str = AVERAGE_TRACES
    guard_s: float = 2.0e-6
    input_window_s: tuple[float, float] | None = None
    retrieved_window_s: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.repetitions < 1:
            raise ConfigurationError("repetitions must be >= 1")
        if self.average_mode not in (AVERAGE_TRACES, FIT_THEN_AVERAGE):
            raise ConfigurationError(f"unknown average_mode {self.average_mode!r}")
        if not self.guard_s >= 0.0:
            raise ConfigurationError(f"guard_s must be >= 0, got {self.guard_s!r}")
        for name in ("delta_r_grid_hz", "dark_resonance_grid_hz",
                     "control_intensity_grid", "signal_intensity_grid"):
            grid = getattr(self, name)
            if len(grid) == 0:
                raise ConfigurationError(f"{name} is empty")
            if not np.all(np.isfinite(grid)):
                raise ConfigurationError(f"{name} has a non-finite value")
            if any(b <= a for a, b in zip(grid, grid[1:])):
                raise ConfigurationError(f"{name} must be strictly increasing")


@dataclass(frozen=True)
class LoadedExperiment:
    """Everything a run needs: physics config, sequence and study settings.

    A run's snapshot also records the study kind and seed base it ran with
    (``[plan]``); outside a run both are None.
    """

    config: ExperimentConfig
    sequence: PulseSequence
    study: StudyDefaults
    plan_kind: str | None = None
    plan_seed_base: int | None = None


def _as_floats(values) -> tuple[float, ...]:
    return tuple(float(v) for v in values)


def default_shift_weight(kappa_rad2: float, linewidth_rad: float) -> float:
    """Effective cg^2 making the reference drive produce the calibrated shift."""
    unit = LightShiftModel((ShiftCoupling(DEFAULT_SHIFT_DETUNING_RAD, 1.0),), linewidth_rad)
    slope_target = DEFAULT_SHIFT_AT_REFERENCE_HZ / DEFAULT_CONTROL_INTENSITY
    return slope_target / unit.slope_per_intensity_hz(kappa_rad2)


def default_config() -> LoadedExperiment:
    """Calibrated default experiment (see module docstring for the anchors)."""
    scheme = LevelScheme()
    kappa = DEFAULT_KAPPA_RAD2
    control = FieldConfig(DEFAULT_CONTROL_INTENSITY, SIGMA_MINUS, power_w=300e-6)
    signal = FieldConfig(DEFAULT_SIGNAL_INTENSITY, SIGMA_PLUS, power_w=100e-6)
    shift = LightShiftModel(
        couplings=(
            ShiftCoupling(
                DEFAULT_SHIFT_DETUNING_RAD,
                default_shift_weight(kappa, scheme.gamma_e_rad),
            ),
        ),
        linewidth_rad=scheme.gamma_e_rad,
    )
    config = ExperimentConfig(
        level_scheme=scheme,
        control=control,
        signal=signal,
        magnetic=MagneticEnvironment(b0_gauss=0.49),
        light_shift=shift,
        kappa_rad2=kappa,
    )
    sequence = PulseSequence.standard(**DEFAULT_DURATIONS_S)
    study = StudyDefaults(
        delta_r_grid_hz=_as_floats(np.linspace(-15e3, 15e3, 9)),
        dark_resonance_grid_hz=_as_floats(np.linspace(-60e3, 60e3, 241)),
        control_intensity_grid=_as_floats(
            np.linspace(0.5 * DEFAULT_CONTROL_INTENSITY, 2.0 * DEFAULT_CONTROL_INTENSITY, 6)
        ),
        signal_intensity_grid=_as_floats(
            np.linspace(0.1 * DEFAULT_CONTROL_INTENSITY, 3.0 * DEFAULT_CONTROL_INTENSITY, 8)
        ),
    )
    return LoadedExperiment(config=config, sequence=sequence, study=study)


# -- parsing ---------------------------------------------------------------

def _parse_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_grid(raw: str) -> tuple[float, ...]:
    raw = raw.strip()
    if raw.startswith("lin:"):
        parts = raw[4:].split(":")
        if len(parts) != 3:
            raise ValueError(f"grid shorthand must be lin:start:stop:n, got {raw!r}")
        start, stop, n = float(parts[0]), float(parts[1]), int(parts[2])
        return tuple(np.linspace(start, stop, n))
    return tuple(float(tok) for tok in raw.replace(",", " ").split())


def _parse_window(raw: str) -> tuple[float, float]:
    values = [float(tok) for tok in raw.replace(",", " ").split()]
    if len(values) != 2:
        raise ValueError(f"window needs two times, got {raw!r}")
    return (values[0], values[1])


def _parse_couplings(raw: str) -> tuple[ShiftCoupling, ...]:
    couplings = []
    for line in raw.splitlines():
        line = line.strip()
        if not line:
            continue
        toks = line.split()
        if len(toks) != 2:
            raise ValueError(f"coupling line needs 'detuning_rad cg_sq', got {line!r}")
        couplings.append(ShiftCoupling(float(toks[0]), float(toks[1])))
    return tuple(couplings)


def _non_negative(raw: str) -> float:
    value = float(raw)
    if not value >= 0.0:
        raise ValueError(f"must be >= 0, got {raw.strip()!r}")
    return value


def _optional(parse):
    """Parser that reads an empty value as None."""
    def read(raw: str):
        raw = raw.strip()
        return parse(raw) if raw else None
    return read


def _transition(key: str) -> tuple[str, str, str]:
    parts = key.split("/")
    if len(parts) != 3:
        raise ConfigurationError(
            f"clebsch_weights key must be ground/excited/polarization, got {key!r}"
        )
    return (parts[0], parts[1], parts[2])


_FIELD_KEYS = {
    "intensity": _non_negative, "power_w": float, "one_photon_detuning_rad": float,
    "polarization": str, "angle_alpha_rad": float,
}

# The config file format: section -> (object the section sets, {key: parser}),
# in file order.  Each key names the attribute it sets on that object; "config"
# is the ExperimentConfig itself, "durations" the PulseSequence.standard
# arguments and "plan" the plan_* fields of LoadedExperiment.
_FORMAT = {
    "level_scheme": ("level_scheme", {
        "gamma_e_rad": float, "gamma_gg_rad": float, "ground_minus_label": str,
        "ground_plus_label": str, "excited_label": str,
        # empty disables the fourth level
        "second_excited_label": _optional(str), "second_excited_offset_hz": float,
    }),
    # free-form: one amplitude per "<ground>/<excited>/<polarization>" key; a
    # file's section replaces the weights whole, else they follow the labels
    "clebsch_weights": ("clebsch_weights", None),
    # readout_intensity: retrieval drive, empty = same as intensity
    "control": ("control", {**_FIELD_KEYS, "readout_intensity": _optional(_non_negative)}),
    "signal": ("signal", _FIELD_KEYS),
    "magnetic": ("magnetic", {
        "b0_gauss": float, "g_f": float, "mu_b_over_h_hz_per_gauss": float,
    }),
    "experiment": ("config", {
        "delta_r_hz": float, "sample_rate_hz": float, "trace_noise_sigma": _non_negative,
        "control_leak_fraction": float, "storage_efficiency": float,
        "retrieval_decay_time_s": float, "rng_seed": int, "kappa_rad2": _non_negative,
        "od_eff": float, "coupling_gn_rad": float, "include_second_excited": _parse_bool,
    }),
    # couplings: one "detuning_rad cg_sq" pair per line
    "light_shift": ("light_shift", {"linewidth_rad": float, "couplings": _parse_couplings}),
    "pulse_sequence": ("durations", dict.fromkeys(DEFAULT_DURATIONS_S, float)),
    # average_mode: average-traces | fit-then-average
    "study": ("study", {
        "delta_r_grid_hz": _parse_grid, "dark_resonance_grid_hz": _parse_grid,
        "control_intensity_grid": _parse_grid, "signal_intensity_grid": _parse_grid,
        "repetitions": int, "average_mode": str,
    }),
    # windows: optional "t_a, t_b" overrides of the guarded phase windows
    "analysis": ("study", {
        "guard_s": float, "input_window_s": _optional(_parse_window),
        "retrieved_window_s": _optional(_parse_window),
    }),
    # written into run snapshots only
    "plan": ("plan", {"kind": _optional(str), "seed_base": int}),
}


def _make_parser() -> configparser.ConfigParser:
    parser = configparser.ConfigParser(interpolation=None)
    parser.optionxform = str
    return parser


def load_config(path: "str | Path") -> LoadedExperiment:
    """Parse a config file; missing keys fall back to the calibrated defaults."""
    parser = _make_parser()
    try:
        read = parser.read(str(path))
    except configparser.Error as exc:
        raise ConfigurationError(f"malformed config file {path}: {exc}") from exc
    if not read:
        raise ConfigurationError(f"cannot read config file {path}")
    if parser.defaults():
        raise ConfigurationError(f"malformed config file {path}: [DEFAULT] section is not allowed")
    values: dict[str, dict] = {target: {} for target, _ in _FORMAT.values()}
    for section in parser.sections():
        if section not in _FORMAT:
            raise ConfigurationError(f"unknown config section [{section}]")
        target, keys = _FORMAT[section]
        for key, raw in parser[section].items():
            if keys is None:
                name, parse = _transition(key), float
            elif key in keys:
                name, parse = key, keys[key]
            else:
                raise ConfigurationError(f"unknown key {key!r} in section [{section}]")
            try:
                values[target][name] = parse(raw)
            except ValueError as exc:
                raise ConfigurationError(f"[{section}] {key}: {exc}") from exc

    base = default_config()
    cfg = base.config
    scheme = replace(cfg.level_scheme, **values["level_scheme"],
                     clebsch_weights=tuple(values["clebsch_weights"].items()))
    config = replace(
        cfg,
        level_scheme=scheme,
        **{name: replace(getattr(cfg, name), **values[name])
           for name in ("control", "signal", "magnetic", "light_shift")},
        **values["config"],
    )
    return LoadedExperiment(
        config=config,
        sequence=PulseSequence.standard(**{**DEFAULT_DURATIONS_S, **values["durations"]}),
        study=replace(base.study, **values["study"]),
        plan_kind=values["plan"].get("kind"),
        plan_seed_base=values["plan"].get("seed_base"),
    )


# -- writing ---------------------------------------------------------------

def _format(value) -> str:
    """File text of one attribute value, which its parser reads back."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, (int, np.integer, str)):
        return str(value)
    if isinstance(value, (float, np.floating)):  # repr(np.float64(3.0)) is "np.float64(3.0)"
        return repr(float(value))
    if value and isinstance(value[0], ShiftCoupling):
        return "".join(f"\n{c.detuning_rad!r} {c.cg_sq!r}" for c in value)
    return ", ".join(repr(float(v)) for v in value)


def dump_config(loaded: LoadedExperiment, path: "str | Path") -> None:
    """Write every field explicitly so the file reloads to the same values.

    ``[plan]`` holds the loaded plan fields that are set, and is left out
    when neither is.
    """
    cfg = loaded.config
    objects = {
        "level_scheme": vars(cfg.level_scheme),
        "clebsch_weights": {"/".join(t): w for t, w in cfg.level_scheme.clebsch_weights},
        "control": vars(cfg.control),
        "signal": vars(cfg.signal),
        "magnetic": vars(cfg.magnetic),
        "config": vars(cfg),
        "light_shift": vars(cfg.light_shift),
        "durations": {f"{seg.name}_s": seg.duration for seg in loaded.sequence.segments},
        "study": vars(loaded.study),
        "plan": {"kind": loaded.plan_kind, "seed_base": loaded.plan_seed_base},
    }
    parser = _make_parser()
    for section, (target, keys) in _FORMAT.items():
        obj = objects[target]
        items = {key: obj[key] for key in (obj if keys is None else keys)}
        if section == "plan":
            items = {key: value for key, value in items.items() if value is not None}
            if not items:
                continue
        parser[section] = {key: _format(value) for key, value in items.items()}
    with open(path, "w") as fh:
        parser.write(fh)
