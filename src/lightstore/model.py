"""Shared physical quantities, units, and configuration.

Unit conventions used throughout the package: ordinary frequencies
(detunings, splittings, beat notes) are in Hz; Rabi frequencies and
decay/decoherence rates are in rad/s; times in s; magnetic field in
gauss; optical intensities are dimensionless, normalized to the
saturation intensity.
"""

from __future__ import annotations

import copy
import math
import warnings
from dataclasses import dataclass, field, replace

TWO_PI = 2.0 * math.pi

# Bohr magneton over Planck constant, MHz/G expressed in Hz/G.
MU_B_OVER_H_HZ_PER_GAUSS = 1.399624e6
# Lande factor of the F=2 ground manifold of 87Rb.
G_F_DEFAULT = 0.5
# Natural linewidth of the 87Rb D1 excited state, rad/s.
GAMMA_E_DEFAULT_RAD = TWO_PI * 5.75e6

SIGMA_PLUS = "sigma_plus"
SIGMA_MINUS = "sigma_minus"
POLARIZATIONS = (SIGMA_PLUS, SIGMA_MINUS)


class ConfigurationError(ValueError):
    """Invalid or inconsistent experiment configuration."""


def rabi_from_intensity(intensity: float, cg: float, kappa: float) -> float:
    """Rabi frequency (rad/s) for a drive of the given normalized intensity.

    Uses the square-root law Omega = sqrt(kappa * intensity) * |cg|, where
    kappa (rad^2/s^2 per unit intensity) is the single calibration constant
    mapping normalized intensity to coupling strength and cg is the relative
    transition amplitude of the addressed leg.
    """
    if intensity < 0.0:
        raise ValueError(f"intensity must be >= 0, got {intensity}")
    if kappa < 0.0:
        raise ValueError(f"kappa must be >= 0, got {kappa}")
    return math.sqrt(kappa * intensity) * abs(cg)


@dataclass(frozen=True)
class LevelScheme:
    """States, transition amplitudes and rates of the effective lambda system.

    The basis is |g_minus>, |g_plus>, |e| and optionally a second excited
    level offset above |e> by ``second_excited_offset_hz``.  Transition
    amplitudes are keyed by (ground_label, excited_label, polarization).
    """

    gamma_e_rad: float = GAMMA_E_DEFAULT_RAD
    gamma_gg_rad: float = TWO_PI * 500.0
    ground_minus_label: str = "g_minus"
    ground_plus_label: str = "g_plus"
    excited_label: str = "e"
    second_excited_label: str | None = "e2"
    second_excited_offset_hz: float = 814.5e6
    clebsch_weights: tuple[tuple[tuple[str, str, str], float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("gamma_e_rad", "gamma_gg_rad"):
            if not getattr(self, name) >= 0.0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        if self.gamma_e_rad > 0.0 and self.gamma_gg_rad > 0.1 * self.gamma_e_rad:
            warnings.warn(
                "gamma_gg is not small compared to gamma_e; the ground coherence "
                "will decay on the optical timescale",
                stacklevel=2,
            )
        if not self.clebsch_weights:
            object.__setattr__(self, "clebsch_weights", self.default_weights())
        for (g, e, pol), w in self.clebsch_weights:
            if not math.isfinite(w):
                raise ConfigurationError(f"non-finite transition amplitude for ({g}, {e}, {pol})")
            if pol not in POLARIZATIONS:
                raise ConfigurationError(f"unknown polarization {pol!r}")

    def default_weights(self) -> tuple[tuple[tuple[str, str, str], float], ...]:
        """Unit amplitudes on the two driven legs, plus the second-level legs."""
        weights = [
            ((self.ground_minus_label, self.excited_label, SIGMA_PLUS), 1.0),
            ((self.ground_plus_label, self.excited_label, SIGMA_MINUS), 1.0),
        ]
        if self.second_excited_label is not None:
            weights += [
                ((self.ground_minus_label, self.second_excited_label, SIGMA_PLUS), 1.0),
                ((self.ground_plus_label, self.second_excited_label, SIGMA_MINUS), 1.0),
            ]
        return tuple(weights)

    def weight(self, ground: str, excited: str, polarization: str) -> float:
        for key, w in self.clebsch_weights:
            if key == (ground, excited, polarization):
                return w
        return 0.0


@dataclass(frozen=True)
class FieldConfig:
    """One optical field: drive strength, detuning, polarization, geometry.

    ``rabi_frequency_rad`` is the coupling on the field's primary leg and
    ``unit_rabi_rad`` = sqrt(kappa * intensity) the coupling of a leg of unit
    amplitude.  Neither is an argument: the ExperimentConfig holding the
    field derives both from ``intensity``, and a field outside a config
    reads NaN.  The slot a field fills, control or signal, is its role.
    ``readout_intensity`` (control field only) lets the retrieval drive
    differ from the preparation drive; None means "same as intensity".
    """

    intensity: float
    polarization: str
    power_w: float = 0.0
    one_photon_detuning_rad: float = 0.0
    angle_alpha_rad: float = 0.0
    readout_intensity: float | None = None
    rabi_frequency_rad: float = field(default=math.nan, init=False)
    unit_rabi_rad: float = field(default=math.nan, init=False)

    def __post_init__(self) -> None:
        if self.polarization not in POLARIZATIONS:
            raise ConfigurationError(f"unknown polarization {self.polarization!r}")
        if not self.intensity >= 0.0:
            raise ConfigurationError("intensity must be >= 0")
        if self.readout_intensity is not None and not self.readout_intensity >= 0.0:
            raise ConfigurationError("readout_intensity must be >= 0")


@dataclass(frozen=True)
class MagneticEnvironment:
    """Bias field and the resulting ground-state Zeeman splitting."""

    b0_gauss: float
    g_f: float = G_F_DEFAULT
    mu_b_over_h_hz_per_gauss: float = MU_B_OVER_H_HZ_PER_GAUSS

    def zeeman_splitting(self) -> float:
        """Splitting 2 g_F mu_B B0 / h (Hz) between the Delta m_F = 2 grounds."""
        return 2.0 * self.g_f * self.mu_b_over_h_hz_per_gauss * self.b0_gauss


@dataclass(frozen=True)
class ShiftCoupling:
    """One off-resonant coupling contributing to the differential light shift.

    ``cg_sq`` is the effective squared transition amplitude; its sign encodes
    which ground state the coupling shifts (positive terms raise the Raman
    resonance frequency).
    """

    detuning_rad: float
    cg_sq: float

    def __post_init__(self) -> None:
        for name in ("detuning_rad", "cg_sq"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigurationError(f"{name} must be finite, got {getattr(self, name)!r}")


@dataclass(frozen=True)
class LightShiftModel:
    """Differential ac Stark shift of the ground splitting, linear in intensity.

    The shift per unit normalized intensity is
    sum_i cg_sq_i * kappa * Delta_i / (4 Delta_i^2 + Gamma^2) / 2pi  (Hz),
    with kappa the config's ``kappa_rad2``.  The default instance is
    calibrated against the observed shift rather than derived ab initio; see
    ``configfile.default_config``.
    """

    couplings: tuple[ShiftCoupling, ...]
    linewidth_rad: float

    def __post_init__(self) -> None:
        if not self.linewidth_rad >= 0.0:
            raise ConfigurationError("linewidth_rad must be >= 0")

    def slope_per_intensity_hz(self, kappa_rad2: float) -> float:
        """Shift (Hz) per unit I/I_sat under the intensity calibration kappa_rad2."""
        g2 = self.linewidth_rad**2
        total = 0.0
        for c in self.couplings:
            total += c.cg_sq * kappa_rad2 * c.detuning_rad / (4.0 * c.detuning_rad**2 + g2)
        return total / TWO_PI


@dataclass(frozen=True)
class Segment:
    """One pulse-sequence interval with constant field flags."""

    name: str
    t_start: float
    t_end: float
    control_on: bool
    signal_on: bool

    @property
    def duration(self) -> float:
        return self.t_end - self.t_start


PHASE_PREPARATION = "preparation"
PHASE_INPUT = "input"
PHASE_STORAGE = "storage"
PHASE_READOUT = "readout"


@dataclass(frozen=True)
class PulseSequence:
    """Time-ordered, contiguous field switching program.

    The canonical sequence has the named phases preparation (control only),
    input (both fields), storage (everything off) and readout (control only).
    """

    segments: tuple[Segment, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise ConfigurationError("pulse sequence has no segments")
        prev: Segment | None = None
        tol = 1e-12
        for seg in self.segments:
            if not seg.t_end > seg.t_start:
                raise ConfigurationError(f"segment {seg.name!r} has non-positive duration")
            if prev is not None and abs(seg.t_start - prev.t_end) > tol:
                raise ConfigurationError(
                    f"segments {prev.name!r} and {seg.name!r} are not contiguous"
                )
            if seg.name == PHASE_STORAGE and (seg.control_on or seg.signal_on):
                raise ConfigurationError("storage phase must have both fields off")
            if seg.name == PHASE_READOUT and (not seg.control_on or seg.signal_on):
                raise ConfigurationError("readout phase must have control on and signal off")
            prev = seg

    @classmethod
    def standard(
        cls,
        preparation_s: float,
        input_s: float,
        storage_s: float,
        readout_s: float,
    ) -> "PulseSequence":
        """Build the canonical four-phase sequence starting at t = 0."""
        edges = [0.0]
        for d in (preparation_s, input_s, storage_s, readout_s):
            edges.append(edges[-1] + d)
        return cls(
            segments=(
                Segment(PHASE_PREPARATION, edges[0], edges[1], True, False),
                Segment(PHASE_INPUT, edges[1], edges[2], True, True),
                Segment(PHASE_STORAGE, edges[2], edges[3], False, False),
                Segment(PHASE_READOUT, edges[3], edges[4], True, False),
            )
        )

    def phase(self, name: str) -> Segment:
        for seg in self.segments:
            if seg.name == name:
                return seg
        raise KeyError(f"sequence has no phase {name!r}")

    @property
    def t_start(self) -> float:
        return self.segments[0].t_start

    @property
    def t_end(self) -> float:
        return self.segments[-1].t_end

    @property
    def boundaries(self) -> tuple[float, ...]:
        return tuple(s.t_start for s in self.segments) + (self.t_end,)


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete parameter set for one light-storage experiment.

    Aggregates the level scheme, both optical fields, the magnetic
    environment, the Raman detuning and every detector/storage knob needed
    to synthesize a photodiode trace.  Immutable; derive variants with
    ``dataclasses.replace`` (see helpers below for intensity changes).
    ``kappa_rad2`` is the one calibration that turns intensities into
    couplings: each field's Rabi frequency and the light shift derive from it
    here and are stored nowhere else.
    """

    level_scheme: LevelScheme
    control: FieldConfig
    signal: FieldConfig
    magnetic: MagneticEnvironment
    light_shift: LightShiftModel
    delta_r_hz: float = 0.0
    sample_rate_hz: float = 2.0e7
    trace_noise_sigma: float = 0.05
    control_leak_fraction: float = 0.1
    storage_efficiency: float = 0.25
    retrieval_decay_time_s: float = 10.0e-6
    rng_seed: int = 12345
    kappa_rad2: float = 0.0
    od_eff: float = 3.0
    coupling_gn_rad: float = TWO_PI * 5.0e6
    include_second_excited: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.control_leak_fraction <= 1.0:
            raise ConfigurationError("control_leak_fraction must be in [0, 1]")
        if not 0.0 <= self.storage_efficiency <= 1.0:
            raise ConfigurationError("storage_efficiency must be in [0, 1]")
        if not self.retrieval_decay_time_s > 0.0:
            raise ConfigurationError(
                f"retrieval_decay_time_s must be > 0, got {self.retrieval_decay_time_s!r}"
            )
        for name in ("trace_noise_sigma", "kappa_rad2", "od_eff", "coupling_gn_rad"):
            if not getattr(self, name) >= 0.0:
                raise ConfigurationError(f"{name} must be >= 0, got {getattr(self, name)!r}")
        nyquist_demand = 4.0 * (self.magnetic.zeeman_splitting() + abs(self.delta_r_hz))
        if not self.sample_rate_hz > nyquist_demand:
            raise ConfigurationError(
                f"sample_rate {self.sample_rate_hz} Hz violates the Nyquist margin; "
                f"need > {nyquist_demand} Hz"
            )
        # Fields are shared between configs, so a field whose coupling
        # differs (a field new to its slot) is swapped for a copy rather than
        # changed in place.  Only such a field is checked for the slot's
        # polarization, so a config derived with the same fields warns once.
        for name, cg, expected in (("control", self.control_cg(), SIGMA_MINUS),
                                   ("signal", self.signal_cg(), SIGMA_PLUS)):
            f = getattr(self, name)
            unit = rabi_from_intensity(f.intensity, 1.0, self.kappa_rad2)
            rabi = unit * abs(cg)
            if not (f.rabi_frequency_rad == rabi and f.unit_rabi_rad == unit):
                if f.polarization != expected:
                    warnings.warn(
                        f"{name} field uses {f.polarization}; the standard "
                        f"configuration drives it with {expected}",
                        stacklevel=3,
                    )
                f = copy.copy(f)
                object.__setattr__(f, "rabi_frequency_rad", rabi)
                object.__setattr__(f, "unit_rabi_rad", unit)
                object.__setattr__(self, name, f)

    # -- derived couplings ------------------------------------------------

    def control_cg(self) -> float:
        s = self.level_scheme
        return s.weight(s.ground_plus_label, s.excited_label, self.control.polarization)

    def signal_cg(self) -> float:
        s = self.level_scheme
        return s.weight(s.ground_minus_label, s.excited_label, self.signal.polarization)

    def readout_intensity(self) -> float:
        r = self.control.readout_intensity
        return self.control.intensity if r is None else r

    def readout_rabi_rad(self) -> float:
        """Control Rabi frequency during the retrieval phase."""
        return rabi_from_intensity(self.readout_intensity(), self.control_cg(), self.kappa_rad2)

    def light_shift_hz(self, intensity: float) -> float:
        """Differential light shift (Hz) of the ground splitting at a control intensity."""
        return self.light_shift.slope_per_intensity_hz(self.kappa_rad2) * intensity


def with_signal_intensity(config: ExperimentConfig, intensity: float) -> ExperimentConfig:
    """Copy of config with a new input signal intensity."""
    return replace(config, signal=replace(config.signal, intensity=intensity))


def with_readout_intensity(config: ExperimentConfig, intensity: float) -> ExperimentConfig:
    """Copy of config with a new retrieval-phase control intensity."""
    return replace(config, control=replace(config.control, readout_intensity=intensity))
