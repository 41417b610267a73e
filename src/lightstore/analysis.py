"""Beat-note fitting, weighted line fits, and line intersections.

The estimation chain mirrors the experiment's: extract the beat frequency
of the input and retrieved epochs of each trace by damped least squares on
a sinusoid-times-envelope-plus-linear-baseline model, regress the two
frequency series against the Raman detuning with uncertainty weights, and
intersect the two lines to locate the differential light shift.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from .storage import PhotodiodeTrace

__all__ = [
    "FitError",
    "LowSnrError",
    "FitConvergenceError",
    "RankDeficientError",
    "DegenerateStatisticsError",
    "IllConditionedIntersectionError",
    "BeatFitResult",
    "LineFit",
    "SpectroscopyPoint",
    "SpectroscopyResult",
    "fit_beat",
    "fit_beats",
    "linear_fit",
    "intersection",
    "slope_significance",
]

# Periodogram oversampling for frequency seeding; at least 4x the natural
# FFT bin spacing is needed to keep the seed inside the fit's capture range.
SEED_OVERSAMPLE = 8
MIN_WINDOW_SAMPLES = 16
RECOMMENDED_PERIODS = 10.0
# A beat fit has converged when its next step is below XTOL of its nonlinear
# parameters, or would lower its residual sum of squares by less than FTOL of it.
XTOL = 1e-10
FTOL = 1e-14
# Each beat fit stops after this many residual evaluations.
MAX_NFEV = 2000


class FitError(RuntimeError):
    """Estimation failed on the given data."""


class LowSnrError(FitError):
    """Window modulation amplitude is below three times the noise floor."""


class FitConvergenceError(FitError):
    """Optimizer did not converge; carries the best iterate found."""

    def __init__(self, message: str, best: "BeatFitResult | None" = None):
        super().__init__(message)
        self.best = best


class RankDeficientError(FitError):
    """Design matrix is rank deficient (degenerate abscissae)."""


class DegenerateStatisticsError(FitError):
    """A test statistic is undefined (zero standard error, nonzero value)."""


class IllConditionedIntersectionError(FitError):
    """Lines are too close to parallel for a meaningful intersection."""


@dataclass(frozen=True)
class BeatFitResult:
    """Damped-sinusoid fit of one trace window."""

    f_b_hz: float
    f_b_err_hz: float
    amplitude: float
    amplitude_err: float
    phase_rad: float
    phase_err_rad: float
    envelope_decay_time_s: float
    envelope_decay_time_err_s: float
    dc_offset: float
    dc_offset_err: float
    dc_slope: float
    dc_slope_err: float
    rms_residual: float
    converged: bool
    n_iterations: int

    def __post_init__(self) -> None:
        errs = (
            self.f_b_err_hz, self.amplitude_err, self.phase_err_rad,
            self.envelope_decay_time_err_s, self.dc_offset_err, self.dc_slope_err,
        )
        if not all(e >= 0.0 for e in errs) or not self.rms_residual >= 0.0:
            raise ValueError("standard errors and rms_residual must be >= 0")
        if self.converged and not self.f_b_hz > 0.0:
            raise ValueError("converged fit must report a positive beat frequency")


def _periodogram_peak(v: np.ndarray, fs: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Seed frequency, amplitude and noise floor sigma of each row, from oversampled FFTs.

    The noise floor comes from the Hann-windowed spectrum with the tone
    neighborhood masked out, so strong off-bin tones cannot leak into it;
    the median of the remaining (exponentially distributed) bin powers is
    ln 2 times the mean power sigma^2 sum(w^2).
    """
    k, n = v.shape
    padded = np.abs(np.fft.rfft(v, n=SEED_OVERSAMPLE * n, axis=-1))
    freqs = np.fft.rfftfreq(SEED_OVERSAMPLE * n, d=1.0 / fs)
    # skip the DC leakage region (anything below ~1.5 cycles per window)
    k_min = int(1.5 * SEED_OVERSAMPLE)
    k_peak = k_min + np.argmax(padded[:, k_min:], axis=-1)
    amplitude = 2.0 * padded[np.arange(k), k_peak] / n
    hann = np.hanning(n)
    base = np.abs(np.fft.rfft(v * hann, axis=-1)) ** 2
    noise_sigma = np.zeros(k)
    for row, k_base in enumerate(np.rint(k_peak / SEED_OVERSAMPLE).astype(int)):
        mask = np.ones(base.shape[-1], dtype=bool)
        mask[:2] = False
        mask[max(0, k_base - 4):k_base + 5] = False
        if np.any(mask):
            mean_power = float(np.median(base[row, mask])) / math.log(2.0)
            noise_sigma[row] = math.sqrt(mean_power / float(np.sum(hann**2)))
    return freqs[k_peak], amplitude, noise_sigma


def _project(theta: np.ndarray, tau: np.ndarray, v: np.ndarray, with_envelope: bool):
    """Variable projection of c0 + c1 tau + e^(-g tau) (a_s sin 2 pi u tau + a_c cos 2 pi u tau).

    theta rows are (u[, g]) and tau is time, in units of the window length.  Returns each
    row's (c0, c1, a_s, a_c), residual sum of squares, and the Gauss-Newton matrix and
    gradient of the projected residual with Kaufman's Jacobian.
    """
    k, n = v.shape
    basis = np.empty((k, 4, n))
    basis[:, 0] = 1.0
    basis[:, 1] = tau
    sin, cos = basis[:, 2], basis[:, 3]
    phase = (2.0 * np.pi * theta[:, :1]) * tau
    np.sin(phase, out=sin)
    np.cos(phase, out=cos)
    if with_envelope:
        basis[:, 2:] *= np.exp(-theta[:, 1:] * tau)[:, None]
    gram = basis @ basis.transpose(0, 2, 1)
    coef = np.linalg.solve(gram, basis @ v[..., None])
    resid = v - (coef.transpose(0, 2, 1) @ basis)[:, 0]
    a_s, a_c = coef[:, 2], coef[:, 3]
    deriv = np.empty((k, theta.shape[1], n))
    deriv[:, 0] = 2.0 * np.pi * tau * (a_s * cos - a_c * sin)
    if with_envelope:
        deriv[:, 1] = -tau * (a_s * sin + a_c * cos)
    proj = deriv - np.linalg.solve(gram, basis @ deriv.transpose(0, 2, 1)).transpose(0, 2, 1) @ basis
    return (coef[..., 0], np.sum(resid * resid, axis=-1), proj @ proj.transpose(0, 2, 1),
            (proj @ resid[..., None])[..., 0])


def _levenberg_marquardt(theta, tau, v, with_envelope):
    """Minimize each row's projected residual with its own damping, acceptance and stopping
    test (XTOL, FTOL, MAX_NFEV); returns theta, coefficients, cost, evaluations and converged
    per row."""
    coef, cost, hess, grad = _project(theta, tau, v, with_envelope)
    k, p = theta.shape
    nfev, damping = np.ones(k, dtype=int), np.full(k, 1e-3)
    converged, running = np.zeros(k, dtype=bool), np.ones(k, dtype=bool)
    while np.any(running):
        live = np.flatnonzero(running)
        step = np.linalg.solve(hess[live] * (1.0 + damping[live, None, None] * np.eye(p)),
                               grad[live, :, None])[..., 0]
        gain = np.sum(step * grad[live], axis=-1)
        done = (np.all(np.abs(step) <= XTOL * (1.0 + np.abs(theta[live])), axis=-1)
                | (gain <= FTOL * cost[live]))
        stop = done | ~np.all(np.isfinite(step), axis=-1) | (nfev[live] >= MAX_NFEV)
        converged[live[done]] = True
        running[live[stop]] = False
        go, step = live[~stop], step[~stop]
        if not go.size:
            break
        trial = theta[go] + step
        t_coef, t_cost, t_hess, t_grad = _project(trial, tau, v[go], with_envelope)
        nfev[go] += 1
        better = t_cost < cost[go]
        accept = go[better]
        theta[accept], coef[accept], cost[accept] = trial[better], t_coef[better], t_cost[better]
        hess[accept], grad[accept] = t_hess[better], t_grad[better]
        damping[go] *= np.where(better, 0.1, 10.0)
    return theta, coef, cost, nfev, converged


def _beat_jacobian(p: np.ndarray, t: np.ndarray, with_envelope: bool) -> np.ndarray:
    """Rows of d model / d (c0, c1, a, f, phi[, rate]) at each row's parameters p."""
    a, f, phi = p[:, 2:3], p[:, 3:4], p[:, 4:5]
    damp = np.exp(-p[:, 5:6] * t) if with_envelope else 1.0
    arg = 2.0 * np.pi * f * t + phi
    sin_a, cos_a = np.sin(arg), np.cos(arg)
    cols = [1.0, t, damp * sin_a, a * damp * cos_a * 2.0 * np.pi * t, a * damp * cos_a]
    if with_envelope:
        cols.append(-t * a * damp * sin_a)
    return np.stack(np.broadcast_arrays(*cols), axis=-1)


def _fit_stack(t, v, fs, span, with_envelope, f_guess) -> "list[BeatFitResult | FitError]":
    """Fit the rows of v, all sampled at times t (from the window start)."""
    k, n = v.shape
    tc = t - t.mean()
    slope = np.sum(v * tc, axis=-1) / np.sum(tc * tc)
    detrended = v - v.mean(axis=-1, keepdims=True) - slope[:, None] * tc
    f_seed, amp_seed, noise_sigma = _periodogram_peak(detrended, fs)
    scale = np.maximum(1.0, np.max(np.abs(v), axis=-1))
    low = (amp_seed < 3.0 * noise_sigma) | (amp_seed < 1e-12 * scale)
    if f_guess is not None:
        f_seed = np.full(k, float(f_guess))
    for periods in f_seed[~low] * span:
        if periods < RECOMMENDED_PERIODS:
            warnings.warn(f"window contains only {periods:.1f} beat periods; recommend >= 10",
                          stacklevel=3)

    rows = np.flatnonzero(~low)
    unit = n / fs
    theta = np.zeros((rows.size, 2 if with_envelope else 1))  # decay rate seed 0
    theta[:, 0] = f_seed[rows] * unit
    theta, coef, cost, nfev, ok = _levenberg_marquardt(theta, t / unit, v[rows], with_envelope)
    # (c0, c1, a, f, phi[, rate]) in trace units, from a sin(x + phi) = a_s sin x + a_c cos x
    p = np.column_stack([coef[:, 0], coef[:, 1] / unit, np.hypot(coef[:, 2], coef[:, 3]),
                         theta[:, 0] / unit, np.arctan2(coef[:, 3], coef[:, 2]), theta[:, 1:] / unit])
    jac = _beat_jacobian(p, t, with_envelope)
    jtj = jac.transpose(0, 2, 1) @ jac
    dof = max(1, n - p.shape[1])

    results: list = [LowSnrError(f"modulation amplitude {amp:.3e} below 3x noise floor {noise:.3e}")
                     if is_low else None for amp, noise, is_low in zip(amp_seed, noise_sigma, low)]
    for j, row in enumerate(rows):
        ssr = float(cost[j])
        try:
            cov = np.linalg.inv(jtj[j]) * (ssr / dof)
        except np.linalg.LinAlgError:
            cov = np.linalg.pinv(jtj[j]) * (ssr / dof)
        perr = np.sqrt(np.clip(np.diag(cov), 0.0, None))
        c0, c1, amp, f, phase = (float(x) for x in p[j, :5])
        if f < 0.0:
            f, phase = -f, math.pi - phase
        phase = math.remainder(phase, 2.0 * math.pi)
        rate, rate_err = (float(p[j, 5]), float(perr[5])) if with_envelope else (0.0, 0.0)
        tau = 1.0 / rate if rate != 0.0 else math.inf
        tau_err = (rate_err / rate**2 if rate != 0.0 else math.inf) if with_envelope else 0.0
        errors = {
            "f_b_err_hz": float(perr[3]), "amplitude_err": float(perr[2]),
            "phase_err_rad": float(perr[4]), "envelope_decay_time_err_s": abs(tau_err),
            "dc_offset_err": float(perr[0]), "dc_slope_err": float(perr[1]),
        }
        nan_errors = [name for name, err in errors.items() if math.isnan(err)]
        if nan_errors:
            results[row] = FitError(f"non-finite standard error: {', '.join(nan_errors)} = nan")
            continue
        converged = bool(ok[j]) and f > 0.0
        fit = BeatFitResult(
            f_b_hz=f if converged else max(abs(f), 1e-300),
            amplitude=amp,
            phase_rad=phase,
            envelope_decay_time_s=tau,
            dc_offset=c0,
            dc_slope=c1,
            rms_residual=math.sqrt(ssr / n),
            converged=converged,
            n_iterations=int(nfev[j]),
            **errors,
        )
        results[row] = fit if converged else FitConvergenceError(
            f"beat fit did not converge after {nfev[j]} evaluations", best=fit)
    return results


def fit_beats(traces: "list[PhotodiodeTrace]", window: tuple[float, float], with_envelope: bool = True,
              f_guess: float | None = None) -> "list[BeatFitResult | FitError]":
    """Fit V(t) = c0 + c1 t + A exp(-(t-t_a)/tau) sin(2 pi f (t-t_a) + phi) to each trace.

    window (t_a, t_b) is in absolute trace time, must lie inside each trace
    and should hold at least ten beat periods (warns below that).
    with_envelope fits the exponential envelope (retrieved epochs); without
    it the amplitude is constant (input epochs).  f_guess, in Hz inside
    (0, fs/2) or a ValueError, replaces the oversampled-periodogram seed.
    Each fit stops after MAX_NFEV residual evaluations.

    The model is linear in (c0, c1, A cos phi, A sin phi), so variable
    projection leaves Levenberg-Marquardt only f and the decay rate.
    Windows on the same sample times are fitted as one (k, n) stack whose
    rows keep their own damping and stopping test and whose linear algebra
    is row by row: each row is bit-identical to fitting its trace alone.

    Returns, per trace, its BeatFitResult (standard errors from the local
    quadratic model at the optimum) or the FitError that stopped it:
    LowSnrError below three times the noise floor, FitConvergenceError
    carrying the best iterate, FitError for a window outside the trace or
    a NaN standard error, which excludes only its own row.
    """
    t_a, t_b = window
    results: list = [None] * len(traces)
    stacks: dict[tuple, list[int]] = {}
    for row, trace in enumerate(traces):
        fs = trace.sample_rate_hz
        if f_guess is not None and not (math.isfinite(f_guess) and 0.0 < f_guess < 0.5 * fs):
            raise ValueError(f"f_guess {f_guess!r} Hz is not a frequency in (0, {0.5 * fs!r}) Hz, "
                             "the band below the Nyquist frequency")
        i_a, i_b = trace.index_range(t_a, t_b)
        if t_a < trace.t0_s - 0.5 / fs or t_b > trace.t0_s + trace.duration_s + 0.5 / fs:
            results[row] = FitError(f"window [{t_a}, {t_b}] extends outside the trace")
        elif not t_b > t_a:
            results[row] = FitError("window must have positive length")
        elif i_b - i_a < MIN_WINDOW_SAMPLES:
            results[row] = FitError(f"window holds {i_b - i_a} samples; need >= {MIN_WINDOW_SAMPLES}")
        else:
            stacks.setdefault((fs, trace.t0_s, i_a, i_b), []).append(row)
    for (fs, t0, i_a, i_b), rows in stacks.items():
        t = (np.arange(i_a, i_b) / fs) + t0 - t_a
        v = np.array([traces[row].samples[i_a:i_b] for row in rows])
        for row, fit in zip(rows, _fit_stack(t, v, fs, t_b - t_a, with_envelope, f_guess)):
            results[row] = fit
    return results


def fit_beat(trace: PhotodiodeTrace, window: tuple[float, float], f_guess: float | None = None,
             with_envelope: bool = True) -> BeatFitResult:
    """The one-trace case of fit_beats; raises the FitError it would return."""
    [fit] = fit_beats([trace], window, with_envelope=with_envelope, f_guess=f_guess)
    if isinstance(fit, FitError):
        raise fit
    return fit


@dataclass(frozen=True)
class LineFit:
    """Weighted straight-line fit with its parameter covariance."""

    slope: float
    intercept: float
    slope_err: float
    intercept_err: float
    covariance: np.ndarray  # [[var_slope, cov], [cov, var_intercept]]
    chi2_per_dof: float
    n_points: int

    def __post_init__(self) -> None:
        cov = np.array(self.covariance, dtype=float)
        if cov.shape != (2, 2):
            raise ValueError("covariance must be 2x2")
        if not abs(cov[0, 1] - cov[1, 0]) <= 1e-12 * (1.0 + abs(cov[0, 1])):
            raise ValueError("covariance must be symmetric")
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)

    def predict(self, x: "float | np.ndarray"):
        return self.slope * np.asarray(x) + self.intercept


def linear_fit(x, y, sigma_y) -> LineFit:
    """Uncertainty-weighted straight-line fit by closed-form normal equations.

    The covariance is the inverse weighted normal matrix (no chi-square
    rescaling), so the quoted errors follow directly from the supplied
    sigma_y.  A non-finite x, y or sigma_y is a ValueError naming it.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma = np.asarray(sigma_y, dtype=float)
    if not (x.size == y.size == sigma.size):
        raise ValueError("x, y and sigma_y must have equal length")
    if x.size < 3:
        raise ValueError(f"need >= 3 points, got {x.size}")
    for name, values in (("x", x), ("y", y), ("sigma_y", sigma)):
        if not np.all(np.isfinite(values)):
            raise ValueError(f"{name} has a non-finite value")
    if np.any(sigma <= 0.0):
        raise ValueError("sigma_y must be positive")
    if np.ptp(x) == 0.0:
        raise RankDeficientError("all abscissae are identical")
    w = 1.0 / sigma**2
    s = float(np.sum(w))
    sx = float(np.sum(w * x))
    sxx = float(np.sum(w * x * x))
    sy = float(np.sum(w * y))
    sxy = float(np.sum(w * x * y))
    delta = s * sxx - sx * sx
    if delta <= 0.0 or delta < 1e-14 * s * sxx:
        raise RankDeficientError("degenerate design matrix (abscissae too close)")
    slope = (s * sxy - sx * sy) / delta
    intercept = (sxx * sy - sx * sxy) / delta
    var_slope = s / delta
    var_intercept = sxx / delta
    cov_si = -sx / delta
    resid = y - (slope * x + intercept)
    chi2 = float(np.sum(w * resid**2))
    dof = x.size - 2
    return LineFit(
        slope=slope,
        intercept=intercept,
        slope_err=math.sqrt(var_slope),
        intercept_err=math.sqrt(var_intercept),
        covariance=np.array([[var_slope, cov_si], [cov_si, var_intercept]]),
        chi2_per_dof=chi2 / dof,
        n_points=int(x.size),
    )


def intersection(fit_a: LineFit, fit_b: LineFit) -> tuple[float, float]:
    """Abscissa where two fitted lines cross, with propagated uncertainty.

    Raises IllConditionedIntersectionError unless the slopes differ by more
    than three times their combined standard error, which a NaN never does;
    the two fits are treated as independent.
    """
    dm = fit_a.slope - fit_b.slope
    sigma_dm = math.sqrt(fit_a.covariance[0, 0] + fit_b.covariance[0, 0])
    if not abs(dm) > 3.0 * sigma_dm:
        raise IllConditionedIntersectionError(
            f"slope difference {dm:.3e} within 3 sigma ({sigma_dm:.3e}) of zero"
        )
    x_star = (fit_b.intercept - fit_a.intercept) / dm
    # first-order propagation: gradients wrt (slope, intercept) of each line
    g_a = np.array([-x_star / dm, -1.0 / dm])
    g_b = np.array([x_star / dm, 1.0 / dm])
    var = float(g_a @ fit_a.covariance @ g_a) + float(g_b @ fit_b.covariance @ g_b)
    return float(x_star), math.sqrt(max(var, 0.0))


def slope_significance(fit: LineFit) -> float:
    """Slope over its standard error; zero slope with zero error maps to 0."""
    if fit.slope_err == 0.0:
        if fit.slope == 0.0:
            return 0.0
        raise DegenerateStatisticsError("nonzero slope with zero standard error")
    return fit.slope / fit.slope_err


@dataclass(frozen=True)
class SpectroscopyPoint:
    """Input and retrieved beat frequencies at one Raman detuning."""

    delta_r_hz: float
    f_input_hz: float
    f_input_err_hz: float
    f_retrieved_hz: float
    f_retrieved_err_hz: float


# Floor for quoted frequency errors so noiseless synthetic data stays
# usable as regression weights.
SIGMA_FLOOR_HZ = 1e-9


def _chi2_scaled(fit: LineFit) -> LineFit:
    """Copy with covariance inflated by max(1, chi2/dof) (scale-factor rule)."""
    s2 = max(1.0, fit.chi2_per_dof)
    if s2 == 1.0:
        return fit
    s = math.sqrt(s2)
    return LineFit(
        slope=fit.slope,
        intercept=fit.intercept,
        slope_err=fit.slope_err * s,
        intercept_err=fit.intercept_err * s,
        covariance=np.array(fit.covariance) * s2,
        chi2_per_dof=fit.chi2_per_dof,
        n_points=fit.n_points,
    )


def _t_two_sided_cdf(t: float, dof: int) -> float:
    """P(|T| < t) for Student's t with an integer dof (Abramowitz & Stegun 26.7.3-4)."""
    theta = math.atan(t / math.sqrt(dof))
    # cos^2 theta as 1 - sin^2 theta: its rounding error grows with each power
    cos2 = 1.0 - t * t / (dof + t * t)
    term = total = 1.0
    # the series runs over the odd (even dof) or even (odd dof) j below dof - 2
    for j in range(1 + dof % 2, dof - 2, 2):
        term *= cos2 * j / (j + 1)
        total += term
    if dof % 2 == 0:
        return math.sin(theta) * total
    if dof == 1:
        return 2.0 * theta / math.pi
    return 2.0 / math.pi * (theta + math.sin(theta) * math.cos(theta) * total)


@functools.lru_cache(maxsize=None)
def _t_small_sample_factor(dof: int) -> float:
    """Student-t over normal 68.27% quantile ratio for the given dof.

    The normal quantile is 1, so this is the t with P(|T| < t) = erf(1/sqrt 2),
    found by bisection down to adjacent floats.  It is at least 1 and, at
    dof = 1, tan(pi/2 erf(1/sqrt 2)) < 2.
    """
    if dof < 1:
        raise ValueError(f"Student-t factor needs dof >= 1, got {dof}")
    target = math.erf(1.0 / math.sqrt(2.0))
    lo, hi = 1.0, 2.0
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if _t_two_sided_cdf(mid, dof) < target:
            lo = mid
        else:
            hi = mid
    return hi


@dataclass(frozen=True)
class SpectroscopyResult:
    """Frequency-vs-detuning series with the two line fits and their crossing.

    Lines too close to parallel have no crossing, and from_points raises
    the IllConditionedIntersectionError of intersection.  The two line fits
    are reported unscaled; the intersection error is quoted conservatively,
    with each line's covariance inflated by the standard scale factor
    max(1, chi2/dof) and a Student-t small-sample factor for the combined
    degrees of freedom (the quoted point errors are themselves estimates).
    """

    points: tuple[SpectroscopyPoint, ...]
    input_fit: LineFit
    retrieved_fit: LineFit
    delta_f_ac_hz: float
    delta_f_ac_err_hz: float

    @classmethod
    def from_points(cls, points: "list[SpectroscopyPoint]") -> "SpectroscopyResult":
        pts = tuple(points)
        x = [p.delta_r_hz for p in pts]
        input_fit = linear_fit(
            x,
            [p.f_input_hz for p in pts],
            [max(p.f_input_err_hz, SIGMA_FLOOR_HZ) for p in pts],
        )
        retrieved_fit = linear_fit(
            x,
            [p.f_retrieved_hz for p in pts],
            [max(p.f_retrieved_err_hz, SIGMA_FLOOR_HZ) for p in pts],
        )
        x_star, x_err = intersection(_chi2_scaled(input_fit), _chi2_scaled(retrieved_fit))
        dof = input_fit.n_points + retrieved_fit.n_points - 4
        return cls(
            points=pts,
            input_fit=input_fit,
            retrieved_fit=retrieved_fit,
            delta_f_ac_hz=x_star,
            delta_f_ac_err_hz=x_err * _t_small_sample_factor(dof),
        )
