import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lightstore import analysis
from lightstore.analysis import (
    BeatFitResult,
    DegenerateStatisticsError,
    FitConvergenceError,
    FitError,
    IllConditionedIntersectionError,
    LineFit,
    LowSnrError,
    RankDeficientError,
    SpectroscopyPoint,
    SpectroscopyResult,
    _t_small_sample_factor,
    fit_beat,
    fit_beats,
    intersection,
    linear_fit,
    slope_significance,
)
from lightstore.orchestrator import default_windows, point_seed, write_fits_csv
from lightstore.storage import PhotodiodeTrace, simulate_storage

FS = 2.0e7


def synthetic_trace(
    f_hz,
    amplitude=3.8,
    phase=0.7,
    c0=1.5,
    c1=2e3,
    tau_s=None,
    noise=0.0,
    duration_s=50e-6,
    seed=0,
):
    n = int(round(duration_s * FS))
    t = np.arange(n) / FS
    envelope = np.exp(-t / tau_s) if tau_s else 1.0
    v = c0 + c1 * t + amplitude * envelope * np.sin(2 * np.pi * f_hz * t + phase)
    if noise > 0.0:
        v = v + np.random.default_rng(seed).normal(0.0, noise, n)
    return PhotodiodeTrace(t0_s=0.0, sample_rate_hz=FS, samples=v)


class TestFitBeat:
    def test_exact_recovery_constant_amplitude(self):
        truth = dict(f_hz=685815.76, amplitude=3.8, phase=0.7, c0=1.5, c1=2e3)
        trace = synthetic_trace(**truth)
        fit = fit_beat(trace, (0.0, trace.duration_s), with_envelope=False)
        assert fit.converged
        assert abs(fit.f_b_hz - truth["f_hz"]) / truth["f_hz"] < 1e-6
        assert abs(fit.amplitude - truth["amplitude"]) / truth["amplitude"] < 1e-6
        assert abs(fit.phase_rad - truth["phase"]) / truth["phase"] < 1e-6
        assert abs(fit.dc_offset - truth["c0"]) / truth["c0"] < 1e-6
        assert abs(fit.dc_slope - truth["c1"]) / truth["c1"] < 1e-6
        assert math.isinf(fit.envelope_decay_time_s)

    def test_exact_recovery_with_envelope(self):
        trace = synthetic_trace(692815.76, amplitude=1.6, tau_s=10e-6, duration_s=58e-6)
        fit = fit_beat(trace, (0.0, trace.duration_s), with_envelope=True)
        assert abs(fit.f_b_hz - 692815.76) / 692815.76 < 1e-6
        assert abs(fit.envelope_decay_time_s - 10e-6) / 10e-6 < 1e-6
        assert abs(fit.amplitude - 1.6) / 1.6 < 1e-6

    def test_known_beat_within_relative_tolerance(self):
        trace = synthetic_trace(685.8e3)
        fit = fit_beat(trace, (0.0, trace.duration_s), with_envelope=False)
        assert fit.f_b_hz == pytest.approx(685.8e3, rel=1e-3)

    def test_pure_dc_raises_low_snr(self):
        n = 1000
        trace = PhotodiodeTrace(t0_s=0.0, sample_rate_hz=FS, samples=np.full(n, 2.5))
        with pytest.raises(LowSnrError):
            fit_beat(trace, (0.0, n / FS))

    def test_weak_tone_raises_low_snr(self):
        rng = np.random.default_rng(5)
        n = 1000
        t = np.arange(n) / FS
        v = 0.01 * np.sin(2 * np.pi * 685.8e3 * t) + rng.normal(0.0, 0.5, n)
        trace = PhotodiodeTrace(t0_s=0.0, sample_rate_hz=FS, samples=v)
        with pytest.raises(LowSnrError):
            fit_beat(trace, (0.0, n / FS))

    def test_monte_carlo_coverage(self, config):
        # default-noise traces: truth within 2 quoted sigma in >= 95% of trials
        hits = 0
        n_trials = 1000
        for seed in range(n_trials):
            trace = synthetic_trace(685815.76, noise=config.trace_noise_sigma, seed=seed)
            fit = fit_beat(trace, (0.0, trace.duration_s), with_envelope=False)
            hits += abs(fit.f_b_hz - 685815.76) <= 2.0 * fit.f_b_err_hz
        assert hits >= 0.95 * n_trials

    def test_drift_invariance(self):
        trace = synthetic_trace(685815.76, noise=0.05, seed=42)
        f_plain = fit_beat(trace, (0.0, trace.duration_s), with_envelope=False).f_b_hz
        t = trace.times()
        shifted = PhotodiodeTrace(
            t0_s=0.0, sample_rate_hz=FS, samples=trace.samples + 7.5 - 4e4 * t
        )
        f_shifted = fit_beat(shifted, (0.0, trace.duration_s), with_envelope=False).f_b_hz
        assert f_shifted == pytest.approx(f_plain, rel=1e-8)

    def test_f_guess_respected(self):
        trace = synthetic_trace(685815.76, noise=0.05, seed=1)
        fit = fit_beat(trace, (0.0, trace.duration_s), f_guess=686e3, with_envelope=False)
        assert fit.f_b_hz == pytest.approx(685815.76, abs=50.0)

    def test_non_convergence_carries_best_iterate(self, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_NFEV", 2)
        trace = synthetic_trace(685815.76, noise=0.05, seed=2)
        with pytest.raises(FitConvergenceError) as err:
            fit_beat(trace, (0.0, trace.duration_s), with_envelope=False)
        assert isinstance(err.value.best, BeatFitResult)
        assert not err.value.best.converged

    def test_window_outside_trace_rejected(self):
        trace = synthetic_trace(685815.76)
        with pytest.raises(FitError, match="outside"):
            fit_beat(trace, (-1e-5, trace.duration_s))

    def test_short_window_rejected(self):
        trace = synthetic_trace(685815.76)
        with pytest.raises(FitError, match="samples"):
            fit_beat(trace, (0.0, 5.0 / FS))

    def test_few_periods_warns(self):
        trace = synthetic_trace(50e3, duration_s=60e-6)  # three beat periods
        with pytest.warns(UserWarning, match="periods"):
            fit_beat(trace, (0.0, trace.duration_s), with_envelope=False)

    @pytest.mark.parametrize("f_guess", [math.nan, math.inf, -686e3, 0.0, 1e7, 1e9])
    def test_f_guess_outside_the_band_below_nyquist_rejected(self, f_guess):
        trace = synthetic_trace(685815.76, noise=0.05, seed=1)
        with pytest.raises(ValueError, match="f_guess"):
            fit_beat(trace, (0.0, trace.duration_s), f_guess=f_guess, with_envelope=False)

    def test_invariant_guard_on_errors(self):
        fields = dict(
            f_b_hz=1.0, f_b_err_hz=0.0, amplitude=1.0, amplitude_err=0.0,
            phase_rad=0.0, phase_err_rad=0.0, envelope_decay_time_s=1.0,
            envelope_decay_time_err_s=0.0, dc_offset=0.0, dc_offset_err=0.0,
            dc_slope=0.0, dc_slope_err=0.0, rms_residual=0.0,
            converged=True, n_iterations=1,
        )
        BeatFitResult(**fields)
        for name, value in (("f_b_err_hz", -1.0), ("f_b_err_hz", math.nan),
                            ("rms_residual", math.nan)):
            with pytest.raises(ValueError, match="^standard errors and rms_residual must be >= 0$"):
                BeatFitResult(**{**fields, name: value})


def _default_traces(loaded, n=9):
    """n default-config traces across the detuning grid, each with its own noise."""
    grid = loaded.study.delta_r_grid_hz
    return [
        simulate_storage(replace(loaded.config, delta_r_hz=float(grid[i % len(grid)]),
                                 rng_seed=point_seed(3, i)), loaded.sequence)
        for i in range(n)
    ]


class TestFitBeats:
    @pytest.mark.parametrize("with_envelope", [False, True])
    def test_each_row_equals_its_one_row_fit(self, loaded, with_envelope):
        traces = _default_traces(loaded)
        window = default_windows(loaded.sequence, loaded.study)[int(with_envelope)]
        stacked = fit_beats(traces, window, with_envelope=with_envelope)
        alone = [fit_beat(tr, window, with_envelope=with_envelope) for tr in traces]
        assert all(isinstance(fit, BeatFitResult) for fit in stacked)
        assert stacked == alone  # every field, n_iterations included, bit for bit

    def test_failing_rows_fail_alone_and_leave_the_others_unchanged(self, monkeypatch):
        monkeypatch.setattr(analysis, "MAX_NFEV", 10)
        traces = [synthetic_trace(685815.76 + 500.0 * k, noise=0.05, seed=k) for k in range(7)]
        traces.insert(3, synthetic_trace(685815.76, noise=1.5, seed=3))  # below the noise floor
        # a decaying tone fitted without envelope needs far more evaluations
        traces.insert(6, synthetic_trace(685815.76, tau_s=10e-6, noise=0.05, seed=1))
        window = (0.0, traces[0].duration_s)
        stacked = fit_beats(traces, window, with_envelope=False)
        for k, (trace, fit) in enumerate(zip(traces, stacked)):
            try:
                alone = fit_beat(trace, window, with_envelope=False)
            except FitError as exc:
                alone = exc
            if k == 3:
                assert isinstance(fit, LowSnrError) and isinstance(alone, LowSnrError)
            elif k == 6:
                assert isinstance(fit, FitConvergenceError)
                assert isinstance(alone, FitConvergenceError)
                assert fit.best == alone.best and fit.best.n_iterations == 10
            else:
                assert fit == alone

    @pytest.mark.parametrize("with_envelope", [False, True])
    def test_nan_standard_error_fails_its_row_alone(self, loaded, nan_covariance, with_envelope):
        traces = _default_traces(loaded)
        window = default_windows(loaded.sequence, loaded.study)[int(with_envelope)]
        clean = fit_beats(traces, window, with_envelope=with_envelope)
        nan_covariance(4)
        fits = fit_beats(traces, window, with_envelope=with_envelope)
        assert type(fits[4]) is FitError
        assert str(fits[4]) == (
            "non-finite standard error: f_b_err_hz, amplitude_err, phase_err_rad, "
            + ("envelope_decay_time_err_s, " if with_envelope else "")
            + "dc_offset_err, dc_slope_err = nan"
        )
        assert fits[:4] + fits[5:] == clean[:4] + clean[5:]  # bit for bit

    def test_windows_on_other_sample_times_fit_apart(self):
        base = synthetic_trace(685815.76, noise=0.05, seed=4)
        offset = PhotodiodeTrace(t0_s=0.3 / FS, sample_rate_hz=FS, samples=base.samples[::-1])
        slower = synthetic_trace(685815.76, noise=0.05, seed=5)
        slower = PhotodiodeTrace(t0_s=0.0, sample_rate_hz=FS / 2, samples=slower.samples[::2])
        traces = [base, offset, slower, synthetic_trace(690e3, noise=0.05, seed=6)]
        window = (1e-6, 45e-6)
        assert fit_beats(traces, window, with_envelope=False) == [
            fit_beat(tr, window, with_envelope=False) for tr in traces]

    def test_window_errors_are_per_row(self):
        long = synthetic_trace(685815.76, noise=0.05, seed=1)
        short = synthetic_trace(685815.76, noise=0.05, seed=2, duration_s=20e-6)
        fits = fit_beats([long, short], (0.0, long.duration_s), with_envelope=False)
        assert fits[0] == fit_beat(long, (0.0, long.duration_s), with_envelope=False)
        assert isinstance(fits[1], FitError) and "outside" in str(fits[1])


class TestLinearFit:
    def test_exact_line(self):
        x = np.array([0.0, 1.0, 2.0, 3.0])
        fit = linear_fit(x, 2.0 * x + 1.0, np.ones(4))
        assert fit.slope == pytest.approx(2.0, abs=1e-14)
        assert fit.intercept == pytest.approx(1.0, abs=1e-14)
        assert fit.chi2_per_dof == pytest.approx(0.0, abs=1e-20)

    def test_two_clusters_hand_oracle(self):
        # hand normal equations: S=12, Sx=30, Sxx=102, Sy=60, Sxy=204,
        # Delta=324 -> slope 2, intercept 0, var_m=12/324, var_b=102/324,
        # cov=-30/324, chi2=0.4
        x = [1.0, 1.0, 1.0, 4.0, 4.0, 4.0]
        y = [2.0, 2.2, 1.8, 8.0, 8.4, 7.6]
        sigma = [0.5, 1.0, 1.0, 0.5, 1.0, 1.0]
        fit = linear_fit(x, y, sigma)
        assert fit.slope == pytest.approx(2.0, abs=1e-12)
        assert fit.intercept == pytest.approx(0.0, abs=1e-12)
        assert fit.slope_err == pytest.approx(math.sqrt(12.0 / 324.0), rel=1e-12)
        assert fit.intercept_err == pytest.approx(math.sqrt(102.0 / 324.0), rel=1e-12)
        assert fit.covariance[0, 1] == pytest.approx(-30.0 / 324.0, rel=1e-12)
        assert fit.chi2_per_dof == pytest.approx(0.4 / 4.0, rel=1e-12)

    def test_constant_data(self):
        fit = linear_fit([1.0, 2.0, 3.0], [4.5, 4.5, 4.5], [1.0, 1.0, 1.0])
        assert fit.slope == pytest.approx(0.0, abs=1e-14)
        assert fit.intercept == pytest.approx(4.5, abs=1e-12)

    def test_unweighted_reduction_matches_closed_form(self):
        # n=5: Sx=10, Sxx=30, Sy=25.1, Sxy=70.1 -> slope 1.99, intercept 1.04
        x = [0.0, 1.0, 2.0, 3.0, 4.0]
        y = [1.1, 2.9, 5.2, 6.8, 9.1]
        fit = linear_fit(x, y, [1.0] * 5)
        assert fit.slope == pytest.approx(1.99, abs=1e-12)
        assert fit.intercept == pytest.approx(1.04, abs=1e-12)

    def test_equal_sigma_scale_invariance_of_estimates(self):
        x = [0.0, 1.0, 2.0, 3.0, 4.0]
        y = [1.1, 2.9, 5.2, 6.8, 9.1]
        a = linear_fit(x, y, [1.0] * 5)
        b = linear_fit(x, y, [3.7] * 5)
        assert a.slope == pytest.approx(b.slope, rel=1e-12)
        assert a.intercept == pytest.approx(b.intercept, rel=1e-12)

    def test_degenerate_x_rejected(self):
        with pytest.raises(RankDeficientError):
            linear_fit([2.0, 2.0, 2.0], [1.0, 2.0, 3.0], [1.0, 1.0, 1.0])

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError, match=">= 3"):
            linear_fit([1.0, 2.0], [1.0, 2.0], [1.0, 1.0])

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(ValueError, match="positive"):
            linear_fit([1.0, 2.0, 3.0], [1.0, 2.0, 3.0], [1.0, 0.0, 1.0])

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("position", [0, 2, 4])
    @pytest.mark.parametrize("name", ["x", "y", "sigma_y"])
    def test_non_finite_input_rejected_naming_it(self, name, position, value):
        args = {"x": [1.0, 2.0, 3.0, 4.0, 5.0], "y": [2.0, 4.1, 5.9, 8.0, 10.1],
                "sigma_y": [1.0] * 5}
        args[name][position] = value
        with pytest.raises(ValueError, match=f"^{name} has a non-finite value$"):
            linear_fit(**args)

    @settings(max_examples=60)
    @given(st.integers(3, 12), st.data())
    def test_nan_at_any_position_names_its_argument(self, n, data):
        finite = st.lists(st.floats(-1e6, 1e6), min_size=n, max_size=n)
        args = {"x": data.draw(finite, label="x"), "y": data.draw(finite, label="y"),
                "sigma_y": data.draw(st.lists(st.floats(1e-3, 1e3), min_size=n, max_size=n),
                                     label="sigma_y")}
        name = data.draw(st.sampled_from(sorted(args)), label="argument")
        args[name][data.draw(st.integers(0, n - 1), label="position")] = math.nan
        with pytest.raises(ValueError, match=f"^{name} has a non-finite value$"):
            linear_fit(**args)

    @pytest.mark.parametrize("off_diagonal", [(0.5, -0.5), (math.nan, math.nan)])
    def test_asymmetric_or_nan_covariance_rejected(self, off_diagonal):
        cov = [[1.0, off_diagonal[0]], [off_diagonal[1], 1.0]]
        with pytest.raises(ValueError, match="^covariance must be symmetric$"):
            LineFit(1.0, 0.0, 0.0, 0.0, cov, 0.0, 3)


def _exact_line_fit(slope, intercept):
    return LineFit(
        slope=slope, intercept=intercept, slope_err=0.0, intercept_err=0.0,
        covariance=np.zeros((2, 2)), chi2_per_dof=0.0, n_points=3,
    )


class TestIntersection:
    def test_line_meets_constant(self):
        x, err = intersection(_exact_line_fit(1.0, 0.0), _exact_line_fit(0.0, 7.0))
        assert x == 7.0 and err == 0.0

    def test_crossing_lines(self):
        x, _ = intersection(_exact_line_fit(1.0, 0.0), _exact_line_fit(-1.0, 10.0))
        assert x == pytest.approx(5.0)

    def test_near_parallel_rejected(self):
        a = LineFit(1.0, 0.0, 0.5, 0.1, np.diag([0.25, 0.01]), 1.0, 5)
        b = LineFit(1.4, 3.0, 0.5, 0.1, np.diag([0.25, 0.01]), 1.0, 5)
        with pytest.raises(IllConditionedIntersectionError):
            intersection(a, b)

    def test_nan_slope_or_error_rejected(self):
        with pytest.raises(IllConditionedIntersectionError, match="^slope difference nan "):
            intersection(_exact_line_fit(math.nan, 0.0), _exact_line_fit(0.0, 7.0))
        noisy = LineFit(0.0, 7.0, math.nan, 0.1, np.diag([math.nan, 0.01]), 1.0, 5)
        with pytest.raises(IllConditionedIntersectionError, match=r"\(nan\) of zero$"):
            intersection(_exact_line_fit(1.0, 0.0), noisy)

    def test_error_propagation_hand_check(self):
        # sigma_x*^2 = (x*/dm)^2 (vm_a + vm_b) + (1/dm)^2 (vb_a + vb_b)
        a = LineFit(1.0, 0.0, 0.01, 0.2, np.diag([1e-4, 0.04]), 1.0, 9)
        b = LineFit(0.0, 7.0, 0.02, 0.1, np.diag([4e-4, 0.01]), 1.0, 9)
        x, err = intersection(a, b)
        assert x == pytest.approx(7.0)
        expected = math.sqrt(7.0**2 * (1e-4 + 4e-4) + (0.04 + 0.01))
        assert err == pytest.approx(expected, rel=1e-12)

    @settings(max_examples=50)
    @given(st.floats(-50.0, 50.0))
    def test_intercept_translation_equivariance(self, shift):
        a, b = _exact_line_fit(1.0, 2.0), _exact_line_fit(-0.5, 8.0)
        x0, _ = intersection(a, b)
        # moving both lines together leaves the crossing untouched
        both, _ = intersection(
            _exact_line_fit(1.0, 2.0 + shift), _exact_line_fit(-0.5, 8.0 + shift)
        )
        assert both == pytest.approx(x0, abs=1e-9)
        # moving one line shifts it by delta_b / (m_a - m_b)
        one, _ = intersection(a, _exact_line_fit(-0.5, 8.0 + shift))
        assert one == pytest.approx(x0 + shift / (1.0 - (-0.5)), abs=1e-9)


class TestSlopeSignificance:
    def test_zero_slope(self):
        assert slope_significance(LineFit(0.0, 1.0, 1.0, 1.0, np.diag([1.0, 1.0]), 1.0, 3)) == 0.0

    def test_five_sigma(self):
        fit = LineFit(5.0, 0.0, 1.0, 1.0, np.diag([1.0, 1.0]), 1.0, 3)
        assert slope_significance(fit) == 5.0

    def test_exact_zero_slope_zero_error(self):
        assert slope_significance(_exact_line_fit(0.0, 3.0)) == 0.0

    def test_degenerate(self):
        with pytest.raises(DegenerateStatisticsError):
            slope_significance(_exact_line_fit(1.0, 0.0))


class TestSpectroscopyResult:
    @staticmethod
    def _points(shift_hz, slope_ret=0.0, sigma=1.0):
        detunings = np.linspace(-15e3, 15e3, 9)
        zeeman = 685815.76
        return [
            SpectroscopyPoint(
                delta_r_hz=float(d),
                f_input_hz=zeeman + float(d),
                f_input_err_hz=sigma,
                f_retrieved_hz=zeeman + shift_hz + slope_ret * float(d),
                f_retrieved_err_hz=sigma,
            )
            for d in detunings
        ]

    def test_intersection_recovers_shift(self):
        result = SpectroscopyResult.from_points(self._points(7000.0))
        assert result.delta_f_ac_hz == pytest.approx(7000.0, abs=1e-6)
        assert result.input_fit.slope == pytest.approx(1.0, abs=1e-12)
        assert result.retrieved_fit.slope == pytest.approx(0.0, abs=1e-12)

    def test_parallel_lines_raise(self):
        with pytest.raises(IllConditionedIntersectionError, match="^slope difference "):
            SpectroscopyResult.from_points(self._points(7000.0, slope_ret=1.0))


class TestTSmallSampleFactor:
    def test_matches_the_scipy_quantile(self):
        special = pytest.importorskip("scipy.special")
        for dof in range(2, 300):
            expected = float(special.stdtrit(dof, special.ndtr(1.0)))
            assert abs(_t_small_sample_factor(dof) - expected) <= 1e-14 * expected, dof
        assert _t_small_sample_factor(14) == float(special.stdtrit(14, special.ndtr(1.0)))

    @pytest.mark.parametrize("dof", [0, -3])
    def test_dof_below_one_rejected(self, dof):
        with pytest.raises(ValueError, match="dof >= 1"):
            _t_small_sample_factor(dof)


def test_fits_csv_schema(tmp_path):
    trace = synthetic_trace(685815.76)
    fit = fit_beat(trace, (0.0, trace.duration_s), with_envelope=False)
    path = tmp_path / "fits.csv"
    write_fits_csv([("input", fit)], path)
    lines = path.read_text().splitlines()
    assert lines[0] == "window_id,f_b_hz,f_b_err_hz,amplitude,tau_e_s,rms_residual,converged"
    fields = lines[1].split(",")
    assert fields[0] == "input"
    assert float(fields[1]) == fit.f_b_hz
    assert fields[6] == "true"
