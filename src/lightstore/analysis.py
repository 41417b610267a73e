"""Beat-note fitting, weighted line fits, and line intersections.

The estimation chain mirrors the experiment's: extract the beat frequency
of the input and retrieved epochs of each trace by damped least squares on
a sinusoid-times-envelope-plus-linear-baseline model, regress the two
frequency series against the Raman detuning with uncertainty weights, and
intersect the two lines to locate the differential light shift.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.optimize import least_squares
from scipy.special import ndtr, stdtrit

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
    "linear_fit",
    "intersection",
    "slope_significance",
    "write_fits_csv",
]

# Periodogram oversampling for frequency seeding; at least 4x the natural
# FFT bin spacing is needed to keep the seed inside the fit's capture range.
SEED_OVERSAMPLE = 8
MIN_WINDOW_SAMPLES = 16
RECOMMENDED_PERIODS = 10.0


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
        if any(e < 0.0 for e in errs) or self.rms_residual < 0.0:
            raise ValueError("standard errors and rms_residual must be >= 0")
        if self.converged and not self.f_b_hz > 0.0:
            raise ValueError("converged fit must report a positive beat frequency")


def _tone_estimate(t: np.ndarray, v: np.ndarray, f_hz: float) -> tuple[float, float]:
    """Amplitude and phase of the component A sin(2 pi f t + phi) at fixed f."""
    z = np.sum(v * np.exp(-2j * np.pi * f_hz * t)) * 2.0 / v.size
    return abs(z), float(np.angle(z) + 0.5 * np.pi)


def _periodogram_peak(v: np.ndarray, fs: float) -> tuple[float, float, float]:
    """Seed frequency, amplitude and noise floor sigma from an oversampled FFT.

    The noise floor comes from the Hann-windowed spectrum with the tone
    neighborhood masked out, so strong off-bin tones cannot leak into it;
    the median of the remaining (exponentially distributed) bin powers is
    ln 2 times the mean power sigma^2 sum(w^2).
    """
    n = v.size
    padded = np.fft.rfft(v, n=SEED_OVERSAMPLE * n)
    freqs = np.fft.rfftfreq(SEED_OVERSAMPLE * n, d=1.0 / fs)
    # skip the DC leakage region (anything below ~1.5 cycles per window)
    k_min = int(1.5 * SEED_OVERSAMPLE)
    if k_min >= padded.size - 1:
        k_min = 1
    k_peak = k_min + int(np.argmax(np.abs(padded[k_min:])))
    amplitude = 2.0 * abs(padded[k_peak]) / n
    hann = np.hanning(n)
    base = np.abs(np.fft.rfft(v * hann)) ** 2
    k_base = int(round(k_peak / SEED_OVERSAMPLE))
    mask = np.ones(base.size, dtype=bool)
    mask[:2] = False
    mask[max(0, k_base - 4):k_base + 5] = False
    if np.any(mask):
        mean_power = float(np.median(base[mask])) / math.log(2.0)
        noise_sigma = math.sqrt(mean_power / float(np.sum(hann**2)))
    else:
        noise_sigma = 0.0
    return float(freqs[k_peak]), float(amplitude), noise_sigma


def _beat_model(p: np.ndarray, t: np.ndarray, with_envelope: bool) -> np.ndarray:
    c0, c1, a, f, phi = p[:5]
    damp = np.exp(-p[5] * t) if with_envelope else 1.0
    return c0 + c1 * t + a * damp * np.sin(2.0 * np.pi * f * t + phi)


def _beat_jacobian(p: np.ndarray, t: np.ndarray, with_envelope: bool) -> np.ndarray:
    a, f, phi = p[2], p[3], p[4]
    damp = np.exp(-p[5] * t) if with_envelope else np.ones_like(t)
    arg = 2.0 * np.pi * f * t + phi
    sin_a, cos_a = np.sin(arg), np.cos(arg)
    cols = [
        np.ones_like(t),
        t,
        damp * sin_a,
        a * damp * cos_a * 2.0 * np.pi * t,
        a * damp * cos_a,
    ]
    if with_envelope:
        cols.append(-t * a * damp * sin_a)
    return np.column_stack(cols)


def fit_beat(
    trace: PhotodiodeTrace,
    window: tuple[float, float],
    f_guess: float | None = None,
    with_envelope: bool = True,
    max_nfev: int = 2000,
) -> BeatFitResult:
    """Fit V(t) = c0 + c1 t + A exp(-(t-t_a)/tau) sin(2 pi f (t-t_a) + phi).

    Parameters
    ----------
    trace : PhotodiodeTrace
        Detector record to analyze.
    window : (t_a, t_b)
        Fit window in absolute trace time; must lie inside the trace and
        should contain at least ten beat periods (warns below that).
    f_guess : float, optional
        Seed frequency in Hz; when absent the dominant peak of an
        oversampled periodogram seeds the fit.
    with_envelope : bool
        Fit the exponential envelope (retrieved epochs); disable for
        constant-amplitude windows (input epochs).

    Returns
    -------
    BeatFitResult
        Parameter estimates with standard errors from the local quadratic
        model at the optimum.

    Raises
    ------
    LowSnrError
        If the modulation amplitude is below three times the noise floor.
    FitConvergenceError
        If the optimizer stalls; the exception carries the best iterate.
    """
    t_a, t_b = window
    if t_a < trace.t0_s - 0.5 / trace.sample_rate_hz or t_b > trace.t0_s + trace.duration_s + 0.5 / trace.sample_rate_hz:
        raise FitError(f"window [{t_a}, {t_b}] extends outside the trace")
    if not t_b > t_a:
        raise FitError("window must have positive length")
    i_a, i_b = trace.index_range(t_a, t_b)
    if i_b - i_a < MIN_WINDOW_SAMPLES:
        raise FitError(f"window holds {i_b - i_a} samples; need >= {MIN_WINDOW_SAMPLES}")
    t = (np.arange(i_a, i_b) / trace.sample_rate_hz) + trace.t0_s - t_a
    v = np.asarray(trace.samples[i_a:i_b], dtype=float)

    c1_seed, c0_seed = np.polyfit(t, v, 1)
    detrended = v - (c0_seed + c1_seed * t)
    f_seed, amp_seed, noise_sigma = _periodogram_peak(detrended, trace.sample_rate_hz)
    scale = max(1.0, float(np.max(np.abs(v))))
    if amp_seed < 3.0 * noise_sigma or amp_seed < 1e-12 * scale:
        raise LowSnrError(
            f"modulation amplitude {amp_seed:.3e} below 3x noise floor {noise_sigma:.3e}"
        )
    if f_guess is not None:
        f_seed = float(f_guess)
    amp_seed, phi_seed = _tone_estimate(t, detrended, f_seed)
    periods = f_seed * (t_b - t_a)
    if periods < RECOMMENDED_PERIODS:
        warnings.warn(
            f"window contains only {periods:.1f} beat periods; recommend >= 10",
            stacklevel=2,
        )

    p0 = [c0_seed, c1_seed, amp_seed, f_seed, phi_seed]
    if with_envelope:
        # decay-rate seed from the amplitude ratio of the two window halves
        half = t.size // 2
        a1, _ = _tone_estimate(t[:half], detrended[:half], f_seed)
        a2, _ = _tone_estimate(t[half:], detrended[half:], f_seed)
        dt_halves = float(t[half:].mean() - t[:half].mean())
        if a1 > 0.0 and a2 > 0.0 and dt_halves > 0.0:
            p0.append(max(0.0, math.log(a1 / a2) / dt_halves))
        else:
            p0.append(0.0)

    result = least_squares(
        lambda p: _beat_model(np.asarray(p), t, with_envelope) - v,
        np.asarray(p0, dtype=float),
        jac=lambda p: _beat_jacobian(np.asarray(p), t, with_envelope),
        method="lm",
        xtol=1e-14,
        ftol=1e-14,
        gtol=1e-14,
        max_nfev=max_nfev,
    )

    p = result.x
    n, n_par = v.size, p.size
    ssr = 2.0 * float(result.cost)
    dof = max(1, n - n_par)
    jtj = result.jac.T @ result.jac
    try:
        cov = np.linalg.inv(jtj) * (ssr / dof)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(jtj) * (ssr / dof)
    perr = np.sqrt(np.clip(np.diag(cov), 0.0, None))

    c0, c1, a, f, phi = p[:5]
    a_err, f_err, phi_err = perr[2], perr[3], perr[4]
    if a < 0.0:
        a, phi = -a, phi + math.pi
    if f < 0.0:
        f, phi = -f, math.pi - phi
    phi = math.remainder(phi, 2.0 * math.pi)
    if with_envelope:
        rate, rate_err = p[5], perr[5]
        tau = 1.0 / rate if rate != 0.0 else math.inf
        tau_err = rate_err / rate**2 if rate != 0.0 else math.inf
    else:
        tau, tau_err = math.inf, 0.0

    converged = bool(result.success) and f > 0.0
    fit = BeatFitResult(
        f_b_hz=float(f) if converged else max(abs(float(f)), 1e-300),
        f_b_err_hz=float(f_err),
        amplitude=float(a),
        amplitude_err=float(a_err),
        phase_rad=float(phi),
        phase_err_rad=float(phi_err),
        envelope_decay_time_s=float(tau),
        envelope_decay_time_err_s=abs(float(tau_err)),
        dc_offset=float(c0),
        dc_offset_err=float(perr[0]),
        dc_slope=float(c1),
        dc_slope_err=float(perr[1]),
        rms_residual=math.sqrt(ssr / n),
        converged=converged,
        n_iterations=int(result.nfev),
    )
    if not converged:
        raise FitConvergenceError(
            f"beat fit did not converge after {result.nfev} evaluations: {result.message}",
            best=fit,
        )
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
        if abs(cov[0, 1] - cov[1, 0]) > 1e-12 * (1.0 + abs(cov[0, 1])):
            raise ValueError("covariance must be symmetric")
        cov.setflags(write=False)
        object.__setattr__(self, "covariance", cov)

    def predict(self, x: "float | np.ndarray"):
        return self.slope * np.asarray(x) + self.intercept


def linear_fit(x, y, sigma_y) -> LineFit:
    """Uncertainty-weighted straight-line fit by closed-form normal equations.

    The covariance is the inverse weighted normal matrix (no chi-square
    rescaling), so the quoted errors follow directly from the supplied
    sigma_y.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    sigma = np.asarray(sigma_y, dtype=float)
    if not (x.size == y.size == sigma.size):
        raise ValueError("x, y and sigma_y must have equal length")
    if x.size < 3:
        raise ValueError(f"need >= 3 points, got {x.size}")
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

    Requires the slopes to differ by more than three times their combined
    standard error; the two fits are treated as independent.
    """
    dm = fit_a.slope - fit_b.slope
    sigma_dm = math.sqrt(fit_a.covariance[0, 0] + fit_b.covariance[0, 0])
    if abs(dm) <= 3.0 * sigma_dm:
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


def _t_small_sample_factor(dof: int) -> float:
    """Student-t over normal 68.27% quantile ratio for the given dof."""
    return float(stdtrit(dof, ndtr(1.0)))


@dataclass(frozen=True)
class SpectroscopyResult:
    """Frequency-vs-detuning series with the two line fits and their crossing.

    delta_f_ac_hz is NaN when the lines are too close to parallel.  The two
    line fits are reported unscaled; the intersection error is quoted
    conservatively, with each line's covariance inflated by the standard
    scale factor max(1, chi2/dof) and a Student-t small-sample factor for
    the combined degrees of freedom (the quoted point errors are themselves
    estimates).
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
        try:
            x_star, x_err = intersection(_chi2_scaled(input_fit), _chi2_scaled(retrieved_fit))
            dof = input_fit.n_points + retrieved_fit.n_points - 4
            x_err *= _t_small_sample_factor(dof)
        except IllConditionedIntersectionError:
            x_star, x_err = math.nan, math.nan
        return cls(
            points=pts,
            input_fit=input_fit,
            retrieved_fit=retrieved_fit,
            delta_f_ac_hz=x_star,
            delta_f_ac_err_hz=x_err,
        )


FITS_CSV_HEADER = ["window_id", "f_b_hz", "f_b_err_hz", "amplitude", "tau_e_s",
                   "rms_residual", "converged"]


def write_fits_csv(rows: "list[tuple[str, BeatFitResult]]", path: "str | Path") -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(FITS_CSV_HEADER)
        for window_id, fit in rows:
            writer.writerow([
                window_id,
                repr(fit.f_b_hz),
                repr(fit.f_b_err_hz),
                repr(fit.amplitude),
                repr(fit.envelope_decay_time_s),
                repr(fit.rms_residual),
                str(fit.converged).lower(),
            ])
