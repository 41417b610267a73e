"""Density-matrix dynamics of the driven lambda system.

Builds the rotating-frame Hamiltonian, evolves the Lindblad master equation
through a pulse sequence, solves for steady states, and derives the
dark-resonance transmission spectrum and the differential light shift.

Basis ordering is [g_minus, g_plus, e] with an optional fourth level e2.
Dissipation channels: population decay from each excited level to both
grounds at gamma_e (branching proportional to the squared transition
amplitudes), and pure dephasing of the ground coherence at gamma_gg.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from .model import (
    TWO_PI,
    ConfigurationError,
    ExperimentConfig,
    LevelScheme,
    FieldConfig,
    LightShiftModel,
    PulseSequence,
    ShiftCoupling,
)

__all__ = [
    "DensityMatrix",
    "SpectrumPoint",
    "LightShiftModel",
    "ShiftCoupling",
    "DegenerateSteadyStateError",
    "build_hamiltonian",
    "collapse_operators",
    "liouvillian",
    "evolve",
    "steady_state",
    "transmission_spectrum",
    "ac_stark_shift",
    "spectrum_fwhm",
    "write_spectrum_csv",
]

TRACE_TOL = 1e-9
HERMITICITY_TOL = 1e-12
POSITIVITY_TOL = 1e-9


class DegenerateSteadyStateError(RuntimeError):
    """The Lindblad generator has more than one zero mode."""


@dataclass(frozen=True)
class DensityMatrix:
    """Density matrix over the level-scheme basis at one instant."""

    matrix: np.ndarray
    time_s: float = 0.0

    def __post_init__(self) -> None:
        m = np.array(self.matrix, dtype=complex)
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @classmethod
    def pure(cls, n: int, index: int, time_s: float = 0.0) -> "DensityMatrix":
        m = np.zeros((n, n), dtype=complex)
        m[index, index] = 1.0
        return cls(m, time_s)

    @property
    def populations(self) -> np.ndarray:
        return np.real(np.diag(self.matrix))

    @property
    def trace_deviation(self) -> float:
        return abs(np.trace(self.matrix) - 1.0)

    @property
    def hermiticity_deviation(self) -> float:
        return float(np.max(np.abs(self.matrix - self.matrix.conj().T)))

    @property
    def min_eigenvalue(self) -> float:
        return float(np.min(np.linalg.eigvalsh(0.5 * (self.matrix + self.matrix.conj().T))))

    def check(self) -> None:
        """Raise if the trace/Hermiticity/positivity invariants are violated."""
        problems = []
        if self.trace_deviation > TRACE_TOL:
            problems.append(f"|trace - 1| = {self.trace_deviation:.3e}")
        if self.hermiticity_deviation > HERMITICITY_TOL:
            problems.append(f"hermiticity deviation {self.hermiticity_deviation:.3e}")
        if self.min_eigenvalue < -POSITIVITY_TOL:
            problems.append(f"min eigenvalue {self.min_eigenvalue:.3e}")
        if problems:
            raise ValueError("invalid density matrix: " + ", ".join(problems))


@dataclass(frozen=True)
class SpectrumPoint:
    """Transmission and absorption proxy at one Raman detuning."""

    delta_r_hz: float
    transmission: float
    absorption_proxy: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.transmission <= 1.0:
            raise ValueError(f"transmission {self.transmission} outside [0, 1]")


def _leg_rabis(
    scheme: LevelScheme, control: FieldConfig, signal: FieldConfig, include_second: bool
) -> dict[tuple[int, int], float]:
    """Coupling of each driven leg, keyed by (ground index, excited index).

    The fields' stored Rabi frequencies carry the primary-leg amplitude; the
    second-level legs are rescaled by the amplitude ratio.
    """
    cg_s = scheme.weight(scheme.ground_minus_label, scheme.excited_label, signal.polarization)
    cg_c = scheme.weight(scheme.ground_plus_label, scheme.excited_label, control.polarization)
    if signal.rabi_frequency_rad > 0.0 and cg_s == 0.0:
        raise ConfigurationError(
            f"signal field ({signal.polarization}) does not address the "
            f"{scheme.ground_minus_label}-{scheme.excited_label} leg"
        )
    if control.rabi_frequency_rad > 0.0 and cg_c == 0.0:
        raise ConfigurationError(
            f"control field ({control.polarization}) does not address the "
            f"{scheme.ground_plus_label}-{scheme.excited_label} leg"
        )
    legs = {(0, 2): signal.rabi_frequency_rad, (1, 2): control.rabi_frequency_rad}
    if include_second:
        cg_s2 = scheme.weight(
            scheme.ground_minus_label, scheme.second_excited_label, signal.polarization
        )
        cg_c2 = scheme.weight(
            scheme.ground_plus_label, scheme.second_excited_label, control.polarization
        )
        legs[(0, 3)] = signal.rabi_frequency_rad * (cg_s2 / cg_s) if cg_s else 0.0
        legs[(1, 3)] = control.rabi_frequency_rad * (cg_c2 / cg_c) if cg_c else 0.0
    return legs


def build_hamiltonian(
    scheme: LevelScheme,
    control: FieldConfig,
    signal: FieldConfig,
    delta_r_hz: float,
    include_second_excited: bool = False,
) -> np.ndarray:
    """Rotating-frame Hamiltonian (rad/s) of the driven system.

    Diagonal entries encode the one- and two-photon detunings; off-diagonal
    entries are -Omega/2 on each driven leg.  With both drives off the
    matrix is diagonal.
    """
    if include_second_excited and scheme.second_excited_label is None:
        raise ConfigurationError("scheme has no second excited level")
    n = 4 if include_second_excited else 3
    h = np.zeros((n, n), dtype=complex)
    delta_s = signal.one_photon_detuning_rad
    h[1, 1] = -TWO_PI * delta_r_hz
    h[2, 2] = -delta_s
    if include_second_excited:
        h[3, 3] = -delta_s + TWO_PI * scheme.second_excited_offset_hz
    for (i, j), omega in _leg_rabis(scheme, control, signal, include_second_excited).items():
        h[i, j] = h[j, i] = -0.5 * omega
    return h


def collapse_operators(scheme: LevelScheme, include_second_excited: bool = False) -> list[np.ndarray]:
    """Lindblad jump operators: radiative decay plus ground dephasing."""
    if include_second_excited and scheme.second_excited_label is None:
        raise ConfigurationError("scheme has no second excited level")
    n = 4 if include_second_excited else 3
    ops: list[np.ndarray] = []
    excited = [(2, scheme.excited_label)]
    if include_second_excited:
        excited.append((3, scheme.second_excited_label))
    grounds = [
        (0, scheme.ground_minus_label, "sigma_plus"),
        (1, scheme.ground_plus_label, "sigma_minus"),
    ]
    for e_idx, e_label in excited:
        weights = [scheme.weight(g_label, e_label, pol) ** 2 for _, g_label, pol in grounds]
        total = sum(weights)
        if total == 0.0:
            weights, total = [1.0, 1.0], 2.0
        for (g_idx, _, _), w in zip(grounds, weights):
            rate = scheme.gamma_e_rad * w / total
            if rate > 0.0:
                op = np.zeros((n, n), dtype=complex)
                op[g_idx, e_idx] = np.sqrt(rate)
                ops.append(op)
    if scheme.gamma_gg_rad > 0.0:
        deph = np.zeros((n, n), dtype=complex)
        deph[0, 0] = np.sqrt(scheme.gamma_gg_rad / 2.0)
        deph[1, 1] = -np.sqrt(scheme.gamma_gg_rad / 2.0)
        ops.append(deph)
    return ops


def liouvillian(h: np.ndarray, c_ops: list[np.ndarray]) -> np.ndarray:
    """Matrix generator acting on row-major vectorized density matrices."""
    n = h.shape[0]
    eye = np.eye(n)
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in c_ops:
        opdop = op.conj().T @ op
        gen += np.kron(op, op.conj())
        gen -= 0.5 * (np.kron(opdop, eye) + np.kron(eye, opdop.T))
    return gen


def optical_coherence_rate(scheme: LevelScheme) -> float:
    """Decay rate (rad/s) of the ground-excited coherence in this model."""
    return 0.5 * scheme.gamma_e_rad + 0.25 * scheme.gamma_gg_rad


def _segment_liouvillian(config: ExperimentConfig, control_on: bool, signal_on: bool) -> np.ndarray:
    control = config.control if control_on else replace(
        config.control, intensity=0.0, rabi_frequency_rad=0.0
    )
    signal = config.signal if signal_on else replace(
        config.signal, intensity=0.0, rabi_frequency_rad=0.0
    )
    h = build_hamiltonian(
        config.level_scheme, control, signal, config.delta_r_hz, config.include_second_excited
    )
    return liouvillian(h, collapse_operators(config.level_scheme, config.include_second_excited))


def evolve(
    rho0: DensityMatrix,
    config: ExperimentConfig,
    sequence: PulseSequence,
    samples_per_segment: int = 25,
) -> list[DensityMatrix]:
    """Propagate the master equation through the pulse sequence.

    Fields are constant within each segment, so one matrix exponential of
    the segment's generator over the sample spacing propagates exactly.
    Returns states sampled uniformly inside each segment (boundaries
    included); the initial state is the first entry.
    """
    if samples_per_segment < 2:
        raise ValueError("samples_per_segment must be >= 2")
    n = rho0.matrix.shape[0]
    expected = 4 if config.include_second_excited else 3
    if n != expected:
        raise ConfigurationError(f"initial state has {n} levels, config implies {expected}")
    states = [DensityMatrix(rho0.matrix, sequence.t_start)]
    y = np.array(rho0.matrix, dtype=complex).reshape(-1)
    for seg in sequence.segments:
        gen = _segment_liouvillian(config, seg.control_on, seg.signal_on)
        ts = np.linspace(seg.t_start, seg.t_end, samples_per_segment)
        step = expm(gen * (ts[1] - ts[0]))
        for t in ts[1:]:
            y = step @ y
            states.append(DensityMatrix(y.reshape(n, n), float(t)))
    return states


def _normalized_generator(config: ExperimentConfig) -> np.ndarray:
    """Driven generator divided by its largest entry, i.e. its fastest rate."""
    gen = _segment_liouvillian(config, control_on=True, signal_on=True)
    return gen / float(np.max(np.abs(gen)))


def steady_state_residual(config: ExperimentConfig, state: DensityMatrix) -> float:
    """Norm of the rate-normalized generator applied to the state.

    The generator is divided by its fastest rate so the residual is
    dimensionless and comparable across drive strengths.
    """
    gen_n = _normalized_generator(config)
    return float(np.linalg.norm(gen_n @ state.matrix.reshape(-1)))


def steady_state(config: ExperimentConfig) -> DensityMatrix:
    """Stationary state of the driven, damped system.

    Solves L rho = 0 with unit trace by dense least squares on the
    rate-normalized generator and verifies the normalized residual is below
    1e-10.
    """
    scheme = config.level_scheme
    if scheme.gamma_e_rad <= 0.0 and scheme.gamma_gg_rad <= 0.0:
        raise DegenerateSteadyStateError("no decay channel; steady state undefined")
    gen_n = _normalized_generator(config)
    n = int(np.sqrt(gen_n.shape[0]))
    svals = np.linalg.svd(gen_n, compute_uv=False)
    zero_modes = int(np.sum(svals < 1e-10 * svals[0]))
    if zero_modes > 1:
        raise DegenerateSteadyStateError(
            f"steady space is degenerate: {zero_modes} zero modes "
            f"(smallest normalized singular values {svals[-zero_modes:]})"
        )
    a = np.vstack([gen_n, np.eye(n, dtype=complex).reshape(1, -1)])
    b = np.zeros(n * n + 1, dtype=complex)
    b[-1] = 1.0
    vec, *_ = np.linalg.lstsq(a, b, rcond=None)
    rho = vec.reshape(n, n)
    rho = 0.5 * (rho + rho.conj().T)
    rho /= np.trace(rho).real
    residual = float(np.linalg.norm(gen_n @ rho.reshape(-1)))
    if residual > 1e-10:
        raise DegenerateSteadyStateError(f"steady-state residual {residual:.3e} exceeds 1e-10")
    state = DensityMatrix(rho)
    state.check()
    return state


def signal_coherence(state: DensityMatrix) -> complex:
    """Coherence on the signal leg, rho_eg = <e| rho |g_minus>."""
    return complex(state.matrix[2, 0])


def absorption_proxy(config: ExperimentConfig, state: DensityMatrix) -> float:
    """Normalized signal absorption, 1.0 on bare one-photon resonance.

    Defined as Im<g-|rho|e> scaled by 2 Gamma_opt / Omega_S so that the
    two-level resonant value is unity.
    """
    omega_s = config.signal.rabi_frequency_rad
    if omega_s <= 0.0:
        raise ConfigurationError("absorption proxy needs a nonzero signal drive")
    return 2.0 * optical_coherence_rate(config.level_scheme) * np.imag(signal_coherence(state)) / omega_s


def transmission_spectrum(
    config: ExperimentConfig, delta_r_grid_hz: "list[float] | np.ndarray"
) -> list[SpectrumPoint]:
    """Signal transmission exp(-OD_eff * absorption) over a Raman-detuning grid."""
    grid = np.asarray(delta_r_grid_hz, dtype=float)
    if grid.size == 0:
        raise ValueError("detuning grid is empty")
    if grid.size > 1 and np.any(np.diff(grid) <= 0.0):
        raise ValueError("detuning grid must be strictly increasing")
    points = []
    for delta in grid:
        state = steady_state(replace(config, delta_r_hz=float(delta)))
        a = absorption_proxy(config, state)
        transmission = min(float(np.exp(-config.od_eff * a)), 1.0)
        points.append(SpectrumPoint(float(delta), transmission, a))
    return points


def ac_stark_shift(intensity_c: float, model: LightShiftModel) -> float:
    """Differential light shift (Hz) of the ground splitting at the given drive."""
    return model.slope_per_intensity_hz * intensity_c


def spectrum_fwhm(points: list[SpectrumPoint]) -> float:
    """Full width at half maximum (Hz) of the transmission peak above background.

    Half level is midway between peak and the lowest transmission on the
    grid; widths come from linear interpolation on either side of the peak.
    """
    x = np.array([p.delta_r_hz for p in points])
    y = np.array([p.transmission for p in points])
    i_peak = int(np.argmax(y))
    half = 0.5 * (y[i_peak] + float(np.min(y)))
    if i_peak == 0 or i_peak == y.size - 1:
        raise ValueError("transmission peak sits on the grid edge")

    def cross(step: int) -> float:
        i = i_peak
        while 0 <= i + step < y.size and y[i + step] > half:
            i += step
        j = i + step
        if not 0 <= j < y.size:
            raise ValueError("half level not reached inside the grid")
        frac = (y[i] - half) / (y[i] - y[j])
        return x[i] + frac * (x[j] - x[i])

    return float(cross(+1) - cross(-1))


def write_spectrum_csv(points: list[SpectrumPoint], path: "str | Path") -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["delta_r_hz", "transmission", "absorption_proxy"])
        for p in points:
            writer.writerow([repr(p.delta_r_hz), repr(p.transmission), repr(p.absorption_proxy)])
