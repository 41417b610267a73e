"""Shared physical quantities, units, and configuration.

Unit conventions used throughout the package: ordinary frequencies
(detunings, splittings, beat notes) are in Hz; Rabi frequencies and
decay/decoherence rates are in rad/s; times in s; magnetic field in
gauss; optical intensities are dimensionless, normalized to the
saturation intensity.
"""

from __future__ import annotations

import copy
import functools
import itertools
import math
import typing
import warnings
from dataclasses import dataclass, field, replace
from typing import Annotated, Any, Callable, NamedTuple

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

# The fixed basis names: the two grounds, the excited level and the optional
# second excited level, in basis order.
G_MINUS, G_PLUS, EXCITED, SECOND_EXCITED = "g_minus", "g_plus", "e", "e2"
GROUNDS = (G_MINUS, G_PLUS)
EXCITED_STATES = (EXCITED, SECOND_EXCITED)


class ConfigurationError(ValueError):
    """Invalid or inconsistent configuration; one about a field's value names the field."""

    def __init__(self, message: str, field: str | None = None) -> None:
        super().__init__(message if field is None else f"{field} {message}")
        self.message, self.field = message, field


class Domain(NamedTuple):
    """The values a field may hold, declared once in its annotation (``x: NonNegative``)."""

    text: str
    holds: Callable[[Any], bool]


def one_of(*choices) -> Domain:
    return Domain(f"one of {choices!r}", choices.__contains__)


def _grid(entry: Domain) -> Domain:
    return Domain(f"non-empty with every entry {entry.text}",
                  lambda grid: len(grid) > 0 and all(map(entry.holds, grid)))


FINITE = Domain("finite", math.isfinite)
NON_NEGATIVE = Domain(">= 0 and finite", lambda v: 0.0 <= v < math.inf)
Finite = Annotated[float, FINITE]
NonNegative = Annotated[float, NON_NEGATIVE]
Positive = Annotated[float, Domain("finite and > 0", lambda v: 0.0 < v < math.inf)]
Fraction = Annotated[float, Domain("in [0, 1]", lambda v: 0.0 <= v <= 1.0)]
Integer = Annotated[int, Domain("an integer", lambda v: v % 1 == 0)]
Count = Annotated[int, Domain("an integer >= 1", lambda v: v >= 1 and v % 1 == 0)]
Flag = Annotated[bool, one_of(False, True)]
Window = Annotated[tuple[float, float], Domain("two finite times t_a < t_b", lambda w: (
    len(w) == 2 and all(map(math.isfinite, w)) and w[0] < w[1]))]
FiniteGrid = Annotated[tuple[float, ...], _grid(FINITE)]
NonNegativeGrid = Annotated[tuple[float, ...], _grid(NON_NEGATIVE)]


@functools.cache
def declared_domains(owner) -> dict[str, Domain]:
    """{name: domain} of the annotations of a class or function.

    ``X | None`` declares X's domain for a name that may also be None.
    """
    table = {}
    for name, hint in typing.get_type_hints(owner, include_extras=True).items():
        optional = type(None) in typing.get_args(hint)
        hint = typing.get_args(hint)[0] if optional else hint
        domains = [m for m in getattr(hint, "__metadata__", ()) if isinstance(m, Domain)]
        if len(domains) > 1:
            raise TypeError(f"{owner.__qualname__} declares {len(domains)} domains for {name}")
        if domains:
            text, holds = domains[0]
            table[name] = Domain(text, (lambda v, h=holds: v is None or h(v)) if optional else holds)
    return table


def check_domains(owner, values) -> None:
    """Raise ConfigurationError naming the first of ``values`` outside its declared domain.

    ``owner`` is the class or function whose annotations declare the domains.
    """
    for name, domain in declared_domains(owner).items():
        if not domain.holds(values[name]):
            raise ConfigurationError(f"must be {domain.text}, got {values[name]!r}", field=name)


class Checked:
    """Base of the dataclasses whose __post_init__ first checks every declared domain."""

    def __post_init__(self) -> None:
        check_domains(type(self), vars(self))


def rabi_from_intensity(intensity: float, cg: float, kappa: float) -> float:
    """Rabi frequency (rad/s) for a drive of the given normalized intensity.

    Uses the square-root law Omega = sqrt(kappa * intensity) * |cg|, where
    kappa (rad^2/s^2 per unit intensity) is the single calibration constant
    mapping normalized intensity to coupling strength and cg is the relative
    transition amplitude of the addressed leg.
    """
    return math.sqrt(kappa * intensity) * abs(cg)


@dataclass(frozen=True)
class LevelScheme(Checked):
    """States, transition amplitudes and rates of the effective lambda system.

    The basis is |g_minus>, |g_plus>, |e> and, when the experiment includes
    it, a second excited level |e2> offset above |e> by
    ``second_excited_offset_hz``.  Transition amplitudes are keyed by
    (ground, excited, polarization) with those fixed names; a leg without an
    amplitude has amplitude 0.
    """

    gamma_e_rad: NonNegative = GAMMA_E_DEFAULT_RAD
    gamma_gg_rad: NonNegative = TWO_PI * 500.0
    second_excited_offset_hz: Finite = 814.5e6
    clebsch_weights: tuple[tuple[tuple[str, str, str], float], ...] = ()

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.gamma_e_rad > 0.0 and self.gamma_gg_rad > 0.1 * self.gamma_e_rad:
            warnings.warn(
                "gamma_gg is not small compared to gamma_e; the ground coherence "
                "will decay on the optical timescale",
                stacklevel=2,
            )
        if not self.clebsch_weights:
            object.__setattr__(self, "clebsch_weights", self.default_weights())
        for (g, e, pol), w in self.clebsch_weights:
            key = f"{g}/{e}/{pol}"  # the weight's [clebsch_weights] key
            if pol not in POLARIZATIONS:
                raise ConfigurationError(f"names no polarization of {POLARIZATIONS}", field=key)
            if not math.isfinite(w):
                raise ConfigurationError(f"must be finite, got {w!r}", field=key)

    @staticmethod
    def default_weights() -> tuple[tuple[tuple[str, str, str], float], ...]:
        """Unit amplitudes on the two driven legs, then on the second-level legs."""
        return tuple(((g, e, pol), 1.0) for e in EXCITED_STATES
                     for g, pol in ((G_MINUS, SIGMA_PLUS), (G_PLUS, SIGMA_MINUS)))

    def weight(self, ground: str, excited: str, polarization: str) -> float:
        for key, w in self.clebsch_weights:
            if key == (ground, excited, polarization):
                return w
        return 0.0


@dataclass(frozen=True)
class FieldConfig(Checked):
    """One optical field: drive strength, detuning, polarization, geometry.

    ``rabi_frequency_rad`` is the coupling on the field's primary leg and
    ``unit_rabi_rad`` = sqrt(kappa * intensity) the coupling of a leg of unit
    amplitude.  Neither is an argument: the ExperimentConfig holding the
    field derives both from ``intensity``, and a field outside a config
    reads NaN.  The slot a field fills, control or signal, is its role.
    Both roles read ``intensity`` and ``polarization``.  Only the signal
    reads ``one_photon_detuning_rad`` (the signal detuning and delta_R fix
    the control's) and ``angle_alpha_rad`` (its angle to the control beam).
    Only the control reads ``readout_intensity``, which lets the retrieval
    drive differ from the preparation drive; None means "same as intensity".
    """

    intensity: NonNegative
    polarization: Annotated[str, one_of(*POLARIZATIONS)]
    one_photon_detuning_rad: Finite = 0.0
    angle_alpha_rad: Finite = 0.0
    readout_intensity: NonNegative | None = None
    rabi_frequency_rad: float = field(default=math.nan, init=False)
    unit_rabi_rad: float = field(default=math.nan, init=False)


@dataclass(frozen=True)
class MagneticEnvironment(Checked):
    """Bias field and the resulting ground-state Zeeman splitting."""

    b0_gauss: Finite
    g_f: Finite = G_F_DEFAULT

    def zeeman_splitting(self) -> float:
        """Splitting 2 g_F mu_B B0 / h (Hz) between the Delta m_F = 2 grounds."""
        return 2.0 * self.g_f * MU_B_OVER_H_HZ_PER_GAUSS * self.b0_gauss


@dataclass(frozen=True)
class ShiftCoupling(Checked):
    """One off-resonant coupling contributing to the differential light shift.

    ``cg_sq`` is the effective squared transition amplitude; its sign encodes
    which ground state the coupling shifts (positive terms raise the Raman
    resonance frequency).
    """

    detuning_rad: Finite
    cg_sq: Finite


@dataclass(frozen=True)
class LightShiftModel(Checked):
    """Differential ac Stark shift of the ground splitting, linear in intensity.

    The shift per unit normalized intensity is
    sum_i cg_sq_i * kappa * Delta_i / (4 Delta_i^2 + Gamma^2) / 2pi  (Hz),
    with kappa the config's ``kappa_rad2``.  The default instance is
    calibrated against the observed shift rather than derived ab initio; see
    ``configfile.default_config``.
    """

    couplings: tuple[ShiftCoupling, ...]
    linewidth_rad: NonNegative

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
            if not (math.isfinite(seg.t_start) and seg.t_start < seg.t_end < math.inf):
                raise ConfigurationError(
                    f"segment {seg.name!r} needs finite times t_start < t_end, "
                    f"got ({seg.t_start!r}, {seg.t_end!r})"
                )
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
        preparation_s: Positive,
        input_s: Positive,
        storage_s: Positive,
        readout_s: Positive,
    ) -> "PulseSequence":
        """Build the canonical four-phase sequence starting at t = 0."""
        check_domains(PulseSequence.standard, locals())
        edges = list(itertools.accumulate((preparation_s, input_s, storage_s, readout_s),
                                          initial=0.0))
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
class ExperimentConfig(Checked):
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
    delta_r_hz: Finite = 0.0
    sample_rate_hz: Positive = 2.0e7
    trace_noise_sigma: NonNegative = 0.05
    control_leak_fraction: Fraction = 0.1
    storage_efficiency: Fraction = 0.25
    retrieval_decay_time_s: Positive = 10.0e-6
    rng_seed: Integer = 12345
    kappa_rad2: NonNegative = 0.0
    od_eff: NonNegative = 3.0
    coupling_gn_rad: NonNegative = TWO_PI * 5.0e6
    include_second_excited: Flag = False

    def __post_init__(self) -> None:
        super().__post_init__()
        nyquist_demand = 4.0 * (self.magnetic.zeeman_splitting() + abs(self.delta_r_hz))
        if not nyquist_demand < self.sample_rate_hz:
            raise ConfigurationError(f"{self.sample_rate_hz} Hz violates the Nyquist margin; "
                                     f"need finite and > {nyquist_demand} Hz", field="sample_rate_hz")
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
        return self.level_scheme.weight(G_PLUS, EXCITED, self.control.polarization)

    def signal_cg(self) -> float:
        return self.level_scheme.weight(G_MINUS, EXCITED, self.signal.polarization)

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
