"""Density-matrix dynamics of the driven lambda system.

Builds the rotating-frame Hamiltonian, evolves the Lindblad master equation
through a pulse sequence, solves for steady states, and derives the
dark-resonance transmission spectrum.

Basis ordering is [g_minus, g_plus, e] with an optional fourth level e2.
Dissipation channels: population decay from each excited level to both
grounds at gamma_e (branching proportional to the squared transition
amplitudes), and pure dephasing of the ground coherence at gamma_gg.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import (
    EXCITED,
    G_MINUS,
    G_PLUS,
    SECOND_EXCITED,
    TWO_PI,
    ConfigurationError,
    ExperimentConfig,
    LevelScheme,
    FieldConfig,
    PulseSequence,
)

__all__ = [
    "DensityMatrix",
    "SpectrumPoint",
    "DegenerateSteadyStateError",
    "build_hamiltonian",
    "evolve",
    "steady_state",
    "transmission_spectrum",
    "spectrum_fwhm",
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

    @property
    def trace_deviation(self) -> float:
        return float(_trace_deviations(self.matrix[None])[0])

    @property
    def hermiticity_deviation(self) -> float:
        return float(_hermiticity_deviations(self.matrix[None])[0])

    @property
    def min_eigenvalue(self) -> float:
        return float(_min_eigenvalues(self.matrix[None])[0])

    def check(self) -> None:
        """Raise if the trace/Hermiticity/positivity invariants are violated."""
        _check_states(self.matrix[None])


def _trace_deviations(states: np.ndarray) -> np.ndarray:
    return np.abs(np.trace(states, axis1=1, axis2=2) - 1.0)


def _hermiticity_deviations(states: np.ndarray) -> np.ndarray:
    return np.max(np.abs(states - states.conj().transpose(0, 2, 1)), axis=(1, 2))


def _hermitian_parts(states: np.ndarray) -> np.ndarray:
    return 0.5 * (states + states.conj().transpose(0, 2, 1))


def _min_eigenvalues(states: np.ndarray) -> np.ndarray:
    return np.linalg.eigvalsh(_hermitian_parts(states))[:, 0]


def _check_states(states: np.ndarray, deltas_hz: "np.ndarray | None" = None) -> None:
    """Raise for the first of a (k, n, n) stack of states that violates an invariant.

    The invariants are a unit trace, Hermiticity and no eigenvalue of the
    Hermitian part rho_H below -POSITIVITY_TOL, each within its tolerance.
    With the states' Raman detunings given, the message names the failing
    state's delta_r.

    One stacked Cholesky factorization decides positivity: rho_H + tol I is
    positive definite, and factors, exactly when lambda_min(rho_H) > -tol,
    so the two tests disagree only within rounding of the boundary.  The
    eigenvalues are computed only if it fails or a state fails its trace or
    Hermiticity test (as a state with a NaN entry does, which can factor);
    they then decide which states fail and give the value the message prints.
    """
    trace_dev = _trace_deviations(states)
    herm_dev = _hermiticity_deviations(states)
    if np.all((trace_dev <= TRACE_TOL) & (herm_dev <= HERMITICITY_TOL)):
        try:
            np.linalg.cholesky(_hermitian_parts(states) + POSITIVITY_TOL * np.eye(states.shape[1]))
            return
        except np.linalg.LinAlgError:
            pass
    min_eig = _min_eigenvalues(states)
    failures = (  # each written so that NaN fails it
        (~(trace_dev <= TRACE_TOL), "|trace - 1| = {:.3e}", trace_dev),
        (~(herm_dev <= HERMITICITY_TOL), "hermiticity deviation {:.3e}", herm_dev),
        (~(min_eig >= -POSITIVITY_TOL), "min eigenvalue {:.3e}", min_eig),
    )
    bad = np.flatnonzero(np.any([failing for failing, _, _ in failures], axis=0))
    if bad.size:
        i = bad[0]
        where = "" if deltas_hz is None else f" at delta_r {float(deltas_hz[i])!r} Hz"
        raise ValueError(f"invalid density matrix{where}: " + ", ".join(
            text.format(values[i]) for failing, text, values in failures if failing[i]
        ))


@dataclass(frozen=True)
class SpectrumPoint:
    """Transmission and absorption proxy at one Raman detuning."""

    delta_r_hz: float
    transmission: float
    absorption_proxy: float


def build_hamiltonian(
    scheme: LevelScheme,
    control: FieldConfig,
    signal: FieldConfig,
    delta_r_hz: float,
    include_second_excited: bool = False,
    control_on: bool = True,
    signal_on: bool = True,
) -> np.ndarray:
    """Rotating-frame Hamiltonian (rad/s) of the driven system.

    Diagonal entries encode the one- and two-photon detunings; off-diagonal
    entries are -Omega/2 on each leg of a drive that is on.  Each leg's
    Omega is the field's unit-amplitude coupling sqrt(kappa I), which its
    ExperimentConfig derives, times the leg's amplitude: |cg| on the primary
    leg, and cg2 on the second-level leg, its sign flipped when cg < 0 so
    the two legs keep their relative sign.  With both drives off the matrix
    is diagonal.
    """
    n = 4 if include_second_excited else 3
    h = np.zeros((n, n), dtype=complex)
    delta_s = signal.one_photon_detuning_rad
    h[1, 1] = -TWO_PI * delta_r_hz
    h[2, 2] = -delta_s
    if include_second_excited:
        h[3, 3] = -delta_s + TWO_PI * scheme.second_excited_offset_hz
    for field, on, g, ground in (
        (signal, signal_on, 0, G_MINUS), (control, control_on, 1, G_PLUS)
    ):
        if not on:
            continue
        h[g, 2] = h[2, g] = -0.5 * field.rabi_frequency_rad
        if include_second_excited:
            cg = scheme.weight(ground, EXCITED, field.polarization)
            cg2 = scheme.weight(ground, SECOND_EXCITED, field.polarization)
            omega2 = field.unit_rabi_rad * cg2 * (-1.0 if cg < 0.0 else 1.0)
            h[g, 3] = h[3, g] = -0.5 * omega2
    return h


def optical_coherence_rate(scheme: LevelScheme) -> float:
    """Decay rate (rad/s) of the ground-excited coherence in this model."""
    return 0.5 * scheme.gamma_e_rad + 0.25 * scheme.gamma_gg_rad


def _generator(
    config: ExperimentConfig, control_on: bool = True, signal_on: bool = True
) -> tuple[np.ndarray, np.ndarray]:
    """Lindblad generator L0 + delta_R * L1 (delta_R in Hz) on row-major vectorized states.

    Entry ((i, j), (k, l)) is the rate at which rho_kl feeds d rho_ij / dt.
    The Hamiltonian adds -i (H_ik delta_jl - delta_ik H_lj), and only the
    drives that are on add terms.  A decay g <- e at rate gamma moves
    population from (e, e) to (g, g) and damps every element in row or
    column e by gamma / 2; the ground dephasing, the jump diag(d) with
    d = sqrt(gamma_gg / 2) (1, -1, 0...), damps element (i, j) by
    (d_i - d_j)**2 / 2.  The Raman detuning enters on one diagonal entry of
    H, so L1 is diagonal and all points of a spectrum share L0.
    """
    scheme, second = config.level_scheme, config.include_second_excited
    h0 = build_hamiltonian(
        scheme, config.control, config.signal, 0.0, second, control_on, signal_on
    )
    n = h0.shape[0]
    eye = np.eye(n)
    gen0 = -1j * (h0[:, None, :, None] * eye[None, :, None, :]
                  - eye[:, None, :, None] * h0.T[None, :, None, :]).reshape(n * n, n * n)
    loss = np.zeros(n)
    excited = [(2, EXCITED)] + ([(3, SECOND_EXCITED)] if second else [])
    grounds = [(0, G_MINUS, "sigma_plus"), (1, G_PLUS, "sigma_minus")]
    for e_idx, e_name in excited:
        weights = [scheme.weight(g_name, e_name, pol) ** 2 for _, g_name, pol in grounds]
        total = sum(weights)
        if total == 0.0:
            weights, total = [1.0, 1.0], 2.0
        for (g_idx, _, _), w in zip(grounds, weights):
            rate = scheme.gamma_e_rad * w / total
            gen0[g_idx * (n + 1), e_idx * (n + 1)] += rate
            loss[e_idx] += rate
    deph = np.zeros(n)
    deph[:2] = np.sqrt(scheme.gamma_gg_rad / 2.0) * np.array([1.0, -1.0])
    damping = 0.5 * (loss[:, None] + loss[None, :]) + 0.5 * (deph[:, None] - deph[None, :]) ** 2
    gen0[np.diag_indices(n * n)] -= damping.reshape(-1)
    h1 = np.zeros(n)
    h1[1] = -TWO_PI
    return gen0, np.diag(-1j * (h1[:, None] - h1[None, :]).reshape(-1))


# [13/13] Pade coefficients b_0..b_13, the norm up to which the approximant
# is accurate to double precision, and |c_27| * 2**53, the leading term of
# its backward-error series over the unit roundoff (Al-Mohy and Higham, SIAM
# J. Matrix Anal. Appl. 31, 970, 2009)
_PADE13 = (
    64764752532480000.0, 32382376266240000.0, 7771770303897600.0, 1187353796428800.0,
    129060195264000.0, 10559470521600.0, 670442572800.0, 33522128640.0,
    1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
)
_THETA13 = 5.371920351148152
_C27_OVER_U = math.factorial(13) ** 2 / (math.factorial(26) * math.factorial(27)) * 2.0**53


def _expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by [13/13] Pade scaling and squaring.

    The matrix is scaled by 2**-s, with s from the norms of its powers
    ||A^k||^(1/k), k = 6, 8, 10, rather than from ||A|| alone, and raised
    when the backward-error bound from |A|^27 calls for it (Al-Mohy and
    Higham 2009 at degree 13).  The approximant takes one linear solve and
    the result is squared s times.
    """
    def norm1(x: np.ndarray) -> float:
        return float(np.linalg.norm(x, 1))

    a2 = a @ a
    a4 = a2 @ a2
    a6 = a4 @ a2
    d8 = norm1(a4 @ a4) ** (1 / 8)
    eta = min(max(norm1(a6) ** (1 / 6), d8), max(d8, norm1(a6 @ a4) ** (1 / 10)))
    s = max(0, math.ceil(math.log2(eta / _THETA13))) if eta > 0.0 else 0
    abs_scaled = np.abs(a) / 2.0**s
    if norm1(abs_scaled) > 0.0:
        alpha = _C27_OVER_U * norm1(np.linalg.matrix_power(abs_scaled, 27)) / norm1(abs_scaled)
        s += max(0, math.ceil(math.log2(alpha) / 26)) if alpha > 1.0 else 0
    c = 2.0**-s
    a, a2, a4, a6 = a * c, a2 * c**2, a4 * c**4, a6 * c**6
    b = _PADE13
    ident = np.eye(a.shape[0], dtype=a.dtype)
    u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
             + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * ident)
    v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
         + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * ident)
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    return r


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
        gen0, gen1 = _generator(config, seg.control_on, seg.signal_on)
        ts = np.linspace(seg.t_start, seg.t_end, samples_per_segment)
        step = _expm((gen0 + config.delta_r_hz * gen1) * (ts[1] - ts[0]))
        for t in ts[1:]:
            y = step @ y
            states.append(DensityMatrix(y.reshape(n, n), float(t)))
    return states


def _rate_scales(gen0: np.ndarray, gen1: np.ndarray, deltas_hz: np.ndarray) -> np.ndarray:
    """Largest |entry| of L0 + delta_R L1 at each Raman detuning, shape (k,).

    L1 is diagonal, so each point's largest entry is the larger of L0's
    largest off-diagonal entry and the point's largest diagonal entry.
    """
    diag0, diag1 = np.diagonal(gen0), np.diagonal(gen1)
    off = np.max(np.abs(gen0 - np.diag(diag0)))
    return np.maximum(off, np.max(np.abs(diag0 + deltas_hz[:, None] * diag1), axis=1))


def _normalized_residuals(
    gen0: np.ndarray, gen1: np.ndarray, deltas_hz: np.ndarray, scales: np.ndarray,
    vecs: np.ndarray,
) -> np.ndarray:
    """Norm of each point's generator, divided by its scale, applied to its (k, m) state."""
    applied = vecs @ gen0.T + deltas_hz[:, None] * np.diagonal(gen1) * vecs
    return np.linalg.norm(applied, axis=1) / scales


def steady_state_residual(config: ExperimentConfig, state: DensityMatrix) -> float:
    """Norm of the rate-normalized generator applied to the state.

    The generator is divided by its fastest rate so the residual is
    dimensionless and comparable across drive strengths.
    """
    gen0, gen1 = _generator(config)
    delta = np.array([config.delta_r_hz])
    scale = _rate_scales(gen0, gen1, delta)
    return float(_normalized_residuals(gen0, gen1, delta, scale, state.matrix.reshape(1, -1))[0])


def _raise_if_degenerate(gens: np.ndarray, deltas_hz: np.ndarray) -> None:
    """Count the zero modes of the given points by SVD; name the first with more than one."""
    svals = np.linalg.svd(gens, compute_uv=False)
    zero_modes = np.sum(svals < 1e-10 * svals[:, :1], axis=1)
    for j in np.flatnonzero(zero_modes > 1):
        raise DegenerateSteadyStateError(
            f"steady space at delta_r {float(deltas_hz[j])!r} Hz is degenerate: "
            f"{zero_modes[j]} zero modes (smallest normalized singular values "
            f"{svals[j, -zero_modes[j]:]})"
        )


def _low_rank_solve(
    gen0: np.ndarray, gen1: np.ndarray, deltas_hz: np.ndarray, scales: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized states (k, m) and condition bounds (k,) from one inverse and a rank-r update.

    L0 and L1 are divided by the grid's largest entry c, and B(delta) is
    (L0 + delta L1) / c with row 0 replaced by the trace row.  At the grid
    point nearest 0, delta_ref, one inverse gives x0 = B0^-1 e0 and
    G = B0^-1 U, where U selects the r = 2(n-1) entries on which the
    diagonal L1 is nonzero.  L1's row 0 is zero, so B(delta) = B0 + s U D U^T
    with s = delta - delta_ref and D = diag(L1)[U] / c.  By Woodbury, one
    stacked r x r solve gives Y = (I + s D G_U)^-1 s D, and the state is
    x0 - G Y x0_U.  Raises LinAlgError if B0 or an r x r system is singular.
    """
    n = math.isqrt(gen0.shape[0])
    diag1 = np.diagonal(gen1)
    rank = np.flatnonzero(diag1)
    eye = np.eye(rank.size)
    c = np.max(scales)
    ref = int(np.argmin(np.abs(deltas_hz)))
    s_d = (deltas_hz - deltas_hz[ref])[:, None] * (diag1[rank] / c)  # diag(s D), (k, r)
    b0 = (gen0 + deltas_hz[ref] * gen1) / c
    b0[0] = np.eye(n).reshape(-1)
    # the whole inverse rather than a solve for e0 and U: the bound needs ||B0^-1||_F
    inv0 = np.linalg.inv(b0)
    g = inv0[:, rank]
    y = np.linalg.solve(eye + s_d[:, :, None] * g[rank], s_d[:, None, :] * eye)
    vecs = inv0[:, 0] - (y @ inv0[rank, 0]) @ g.T
    # ||A||_F of each point's own rate-normalized bordered matrix, exactly:
    # the trace row, L0's fixed rows 1..m-1 and the moving diagonal entries
    moving = np.abs(np.diagonal(gen0)[rank] + deltas_hz[:, None] * diag1[rank]) ** 2
    fixed = np.sum(np.abs(gen0[1:]) ** 2) - np.sum(np.abs(np.diagonal(gen0)[rank]) ** 2)
    norm_a = np.sqrt(n + (fixed + moving.sum(axis=1)) / scales**2)
    bound = norm_a * np.linalg.norm(inv0) * (
        1.0 + np.linalg.norm(g) * np.linalg.norm(y, axis=(1, 2))
    )
    return vecs, bound


def _steady_states(config: ExperimentConfig, deltas_hz: np.ndarray) -> np.ndarray:
    """Stationary density matrices, shape (k, n, n), at each Raman detuning.

    Each point's state solves A x = e0, where A is its generator L divided
    by its fastest rate, with the first row replaced by the trace condition.
    The states come from one inverse at the grid point nearest 0 and a
    rank-2(n-1) Woodbury update for every other point (see _low_rank_solve):
    the Raman detuning moves only 2(n-1) diagonal entries of L.  Dividing
    rows 1..m-1 by a rate changes no solution, so the update may use one
    scale for the whole grid.  Only the points whose bound is 1e8 or more,
    or not finite, have their zero modes counted by SVD, and a point with
    more than one zero mode is named in the error.  If the reference inverse
    or an update fails, every point is counted, and without a degenerate one
    the solve's error stands.  A point with a normalized residual above
    1e-10, or a NaN one, is named too.

    The bound misses no degenerate point.  From Woodbury,
    ||B^-1||_F <= ||B0^-1||_F (1 + ||G||_F ||Y||_F), and A is B with rows
    1..m-1 multiplied by c / rate >= 1, so ||A^-1||_F <= ||B^-1||_F: the
    low-rank bound is at least ||A||_F ||A^-1||_F.  A point has two zero
    modes when sigma_{m-1}(L) < 1e-10 sigma_1(L).  A differs from L in one
    row, so sigma_min(A) <= sigma_{m-1}(L); the normalized entries are at
    most 1, so sigma_1(L) <= m = n**2; and the trace row gives
    ||A||_F >= sqrt(n).  Then ||A||_F ||A^-1||_F >= sqrt(n) / sigma_min(A)
    > sqrt(n) / (1e-10 n**2), which is at least 1.25e9 for n <= 4.
    """
    if config.level_scheme.gamma_e_rad <= 0.0 and config.level_scheme.gamma_gg_rad <= 0.0:
        raise DegenerateSteadyStateError("no decay channel; steady state undefined")
    gen0, gen1 = _generator(config)
    scales = _rate_scales(gen0, gen1, deltas_hz)

    def normalized(rows: np.ndarray) -> np.ndarray:
        return (gen0 + deltas_hz[rows, None, None] * gen1) / scales[rows, None, None]

    k, m = deltas_hz.size, gen0.shape[0]
    n = math.isqrt(m)
    try:
        vecs, bound = _low_rank_solve(gen0, gen1, deltas_hz, scales)
    except np.linalg.LinAlgError:
        _raise_if_degenerate(normalized(np.arange(k)), deltas_hz)
        raise
    flagged = np.flatnonzero(~(bound < 1e8))
    if flagged.size:
        _raise_if_degenerate(normalized(flagged), deltas_hz[flagged])
    rho = _hermitian_parts(vecs.reshape(k, n, n))
    rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
    residuals = _normalized_residuals(gen0, gen1, deltas_hz, scales, rho.reshape(k, m))
    for i in np.flatnonzero(~(residuals <= 1e-10)):
        raise DegenerateSteadyStateError(
            f"steady-state residual {residuals[i]:.3e} at delta_r {float(deltas_hz[i])!r} Hz "
            "exceeds 1e-10"
        )
    return rho


def steady_state(config: ExperimentConfig) -> DensityMatrix:
    """Stationary state of the driven, damped system at the config's detuning.

    The one-point case of _steady_states (one inverse, condition bound, SVD
    if the bound flags it); the normalized residual is verified below 1e-10.
    """
    state = DensityMatrix(_steady_states(config, np.array([config.delta_r_hz]))[0])
    state.check()
    return state


def signal_coherence(state: DensityMatrix) -> complex:
    """Coherence on the signal leg, rho_eg = <e| rho |g_minus>."""
    return complex(state.matrix[2, 0])


def transmission_spectrum(
    config: ExperimentConfig, delta_r_grid_hz: "list[float] | np.ndarray"
) -> list[SpectrumPoint]:
    """Signal transmission exp(-OD_eff * absorption) over a Raman-detuning grid.

    The absorption proxy is Im<g-|rho|e> scaled by 2 Gamma_opt / Omega_S, so
    that the two-level resonant value is unity; it needs a signal drive.
    All steady states of the grid come from one inverse at the grid point
    nearest 0 and a rank-2(n-1) Woodbury update for the others, because
    delta_R moves only 2(n-1) diagonal entries of the generator.  The update
    bounds each point's condition number from above, so no degenerate point
    escapes the SVD that the bound's flagged points get (see
    _steady_states).  The states are checked as one array, and so are the
    transmissions, for 0 <= T <= 1 with NaN failing; an invalid state or
    transmission is named by its delta_r.
    """
    grid = np.asarray(delta_r_grid_hz, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError(f"detuning grid must be a non-empty 1-D array, got shape {grid.shape}")
    if not np.all(np.isfinite(grid)):
        raise ValueError("detuning grid has a non-finite value")
    if np.any(np.diff(grid) <= 0.0):
        raise ValueError("detuning grid must be strictly increasing")
    omega_s = config.signal.rabi_frequency_rad
    if omega_s <= 0.0:
        raise ConfigurationError("absorption proxy needs a nonzero signal drive")
    states = _steady_states(config, grid)
    _check_states(states, grid)
    proxies = 2.0 * optical_coherence_rate(config.level_scheme) * states[:, 2, 0].imag / omega_s
    transmissions = np.minimum(np.exp(-config.od_eff * proxies), 1.0)
    for i in np.flatnonzero(~((transmissions >= 0.0) & (transmissions <= 1.0))):
        raise ValueError(f"transmission {float(transmissions[i])} outside [0, 1] "
                         f"at delta_r {float(grid[i])!r} Hz")
    return [SpectrumPoint(*point) for point in
            zip(grid.tolist(), transmissions.tolist(), proxies.tolist())]


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
