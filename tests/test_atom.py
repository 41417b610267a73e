import csv
import math
from dataclasses import replace

import numpy as np
import pytest

from lightstore import atom
from lightstore.atom import (
    DegenerateSteadyStateError,
    DensityMatrix,
    SpectrumPoint,
    build_hamiltonian,
    evolve,
    optical_coherence_rate,
    signal_coherence,
    spectrum_fwhm,
    steady_state,
    steady_state_residual,
    transmission_spectrum,
)
from lightstore.model import (
    ConfigurationError,
    PulseSequence,
    Segment,
    TWO_PI,
    with_signal_intensity,
)
from lightstore.orchestrator import StudyPlan, run_dark_resonance

TRACE_TOL = 1e-9
HERM_TOL = 1e-12
POS_TOL = 1e-9


def _kron_generator(config, delta_r_hz):
    """Reference Lindblad generator of one point, assembled term by term."""
    scheme = config.level_scheme
    h = build_hamiltonian(
        scheme, config.control, config.signal, delta_r_hz, config.include_second_excited
    )
    n = h.shape[0]
    eye = np.eye(n)
    ops = []
    for e, e_label in [(2, scheme.excited_label), (3, scheme.second_excited_label)][: n - 2]:
        w = np.array([
            scheme.weight(scheme.ground_minus_label, e_label, "sigma_plus"),
            scheme.weight(scheme.ground_plus_label, e_label, "sigma_minus"),
        ]) ** 2
        for g in (0, 1):
            op = np.zeros((n, n))
            op[g, e] = math.sqrt(scheme.gamma_e_rad * w[g] / w.sum())
            ops.append(op)
    ops.append(np.diag([1.0, -1.0] + [0.0] * (n - 2)) * math.sqrt(scheme.gamma_gg_rad / 2.0))
    gen = -1j * (np.kron(h, eye) - np.kron(eye, h.T))
    for op in ops:
        opdop = op.T @ op
        gen += np.kron(op, op) - 0.5 * (np.kron(opdop, eye) + np.kron(eye, opdop.T))
    return gen


def _with_intensities(config, i_c, i_s, **changes):
    return replace(
        config,
        control=replace(config.control, intensity=i_c),
        signal=replace(config.signal, intensity=i_s),
        **changes,
    )


@pytest.mark.parametrize(
    "variant", ["three_level", "four_level", "no_ground_dephasing", "control_off", "signal_off"]
)
def test_generator_matches_kron_oracle(config, variant):
    # L0 + delta L1, built by index arithmetic, against the term-by-term
    # kron assembly; a drive that is off is a drive at zero intensity
    flags = {}
    if variant == "four_level":
        config = replace(config, include_second_excited=True)
    elif variant == "no_ground_dephasing":
        config = replace(config, level_scheme=replace(config.level_scheme, gamma_gg_rad=0.0))
    elif variant == "control_off":
        config, flags = _with_intensities(config, 0.0, config.signal.intensity), {"control_on": False}
    elif variant == "signal_off":
        config, flags = _with_intensities(config, config.control.intensity, 0.0), {"signal_on": False}
    gen0, gen1 = atom._generator(config)
    assert np.array_equal(atom._generator(config, **flags)[0], gen0)
    for delta in (-37e3, 0.0, 4.5e3):
        expected = _kron_generator(config, delta)
        assert np.max(np.abs(gen0 + delta * gen1 - expected)) <= 1e-15 * np.max(np.abs(expected))
    n = math.isqrt(gen0.shape[0])
    assert np.array_equal(gen1, np.diag(np.diagonal(gen1)))
    assert not np.any(gen1[0])
    assert np.count_nonzero(gen1) == 2 * (n - 1)


class TestHamiltonian:
    def test_diagonal_when_dark(self, config):
        cfg = _with_intensities(config, 0.0, 0.0)
        h = build_hamiltonian(cfg.level_scheme, cfg.control, cfg.signal, 1234.0)
        off = h - np.diag(np.diag(h))
        assert np.max(np.abs(off)) == 0.0

    def test_dark_state_is_null_eigenvector(self, config):
        # at two-photon resonance (Omega_C |g-> - Omega_S |g+>) is dark
        h = build_hamiltonian(config.level_scheme, config.control, config.signal, 0.0)
        om_c = config.control.rabi_frequency_rad
        om_s = config.signal.rabi_frequency_rad
        dark = np.array([om_c, -om_s, 0.0]) / math.hypot(om_c, om_s)
        assert np.max(np.abs(h @ dark)) < 1e-12 * max(om_c, om_s)

    def test_hermitian(self, config):
        h = build_hamiltonian(config.level_scheme, config.control, config.signal, 5e3)
        assert np.max(np.abs(h - h.conj().T)) == 0.0

    def test_matches_independent_matrix(self, config):
        # hand-built matrix for Omega = sqrt(kappa I) on unit-amplitude legs:
        # kappa = 1e12, I_C = 4 and I_S = 1/16 give Omega_C = 2e6 rad/s and
        # Omega_S = 2.5e5 rad/s exactly; delta_R = 5 kHz, one-photon resonance
        om_c, om_s = 2.0e6, 2.5e5
        cfg = _with_intensities(config, 4.0, 0.0625, kappa_rad2=1.0e12)
        h = build_hamiltonian(cfg.level_scheme, cfg.control, cfg.signal, 5e3)
        expected = np.array([
            [0.0, 0.0, -om_s / 2.0],
            [0.0, -TWO_PI * 5e3, -om_c / 2.0],
            [-om_s / 2.0, -om_c / 2.0, 0.0],
        ], dtype=complex)
        assert np.allclose(h, expected, atol=0.0, rtol=0.0)
        assert np.allclose(
            np.linalg.eigvalsh(h), np.linalg.eigvalsh(expected), rtol=1e-12, atol=1e-6
        )

    def test_field_on_a_leg_without_amplitude_does_not_couple(self, config):
        scheme = replace(
            config.level_scheme,
            clebsch_weights=((("g_minus", "e", "sigma_plus"), 1.0),),
        )
        # control (sigma_minus on g_plus leg) now has zero amplitude, so the
        # config derives no control coupling whatever its intensity
        cfg = replace(config, level_scheme=scheme)
        assert cfg.control.intensity > 0.0
        assert cfg.control.rabi_frequency_rad == 0.0
        h = build_hamiltonian(scheme, cfg.control, cfg.signal, 0.0)
        assert h[1, 2] == h[2, 1] == 0.0
        assert h[0, 2] == -0.5 * config.signal.rabi_frequency_rad

    def test_second_level_leg_without_a_primary_leg_amplitude_couples(self, config):
        # the control has no amplitude on g_plus -> e but a unit one on
        # g_plus -> e2, so only its e2 leg couples, at sqrt(kappa I_C)
        scheme = replace(config.level_scheme, clebsch_weights=(
            (("g_minus", "e", "sigma_plus"), 1.0),
            (("g_plus", "e", "sigma_minus"), 0.0),
            (("g_minus", "e2", "sigma_plus"), 1.0),
            (("g_plus", "e2", "sigma_minus"), 1.0),
        ))
        cfg = replace(config, level_scheme=scheme, include_second_excited=True)
        assert cfg.control.intensity == 10.5
        h = build_hamiltonian(scheme, cfg.control, cfg.signal, 0.0, include_second_excited=True)
        assert h[1, 2] == 0.0
        assert h[1, 3] == h[3, 1] == -0.5 * math.sqrt(cfg.kappa_rad2 * 10.5)

    def test_second_level_leg_keeps_the_relative_sign_of_the_amplitudes(self, config):
        scheme = replace(config.level_scheme, clebsch_weights=(
            (("g_minus", "e", "sigma_plus"), -0.5),
            (("g_plus", "e", "sigma_minus"), 1.0),
            (("g_minus", "e2", "sigma_plus"), 0.25),
            (("g_plus", "e2", "sigma_minus"), 1.0),
        ))
        cfg = replace(config, level_scheme=scheme)
        h = build_hamiltonian(scheme, cfg.control, cfg.signal, 0.0, include_second_excited=True)
        # the same ratio cg2 / cg as the primary-leg coupling times the amplitude ratio
        assert h[0, 3] == pytest.approx(h[0, 2] * (0.25 / -0.5), rel=1e-15)
        assert h[1, 3] == pytest.approx(h[1, 2], rel=1e-15)

    def test_second_level_flag(self, config):
        h = build_hamiltonian(
            config.level_scheme, config.control, config.signal, 0.0,
            include_second_excited=True,
        )
        assert h.shape == (4, 4)
        assert h[3, 3] == pytest.approx(TWO_PI * config.level_scheme.second_excited_offset_hz)


class TestEvolve:
    def test_dark_ground_state_is_stationary(self, config):
        seq = PulseSequence(segments=(Segment("storage", 0.0, 2e-6, False, False),))
        rho0 = DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
        states = evolve(rho0, config, seq, samples_per_segment=5)
        for s in states:
            assert np.max(np.abs(s.matrix - rho0.matrix)) < 1e-12

    def test_excited_state_decays_exponentially(self, config):
        gamma = config.level_scheme.gamma_e_rad
        seq = PulseSequence(segments=(Segment("storage", 0.0, 1.0 / gamma, False, False),))
        rho0 = DensityMatrix(np.diag([0.0, 0.0, 1.0]).astype(complex))
        states = evolve(rho0, config, seq, samples_per_segment=3)
        assert np.real(np.diag(states[-1].matrix))[2] == pytest.approx(math.exp(-1.0), abs=1e-6)

    def test_optical_pumping_prepares_g_minus(self, config):
        seq = PulseSequence(segments=(Segment("preparation", 0.0, 150e-6, True, False),))
        rho0 = DensityMatrix(np.diag([0.5, 0.5, 0.0]).astype(complex))
        states = evolve(rho0, config, seq, samples_per_segment=3)
        assert np.real(np.diag(states[-1].matrix))[0] > 0.99

    def test_invariants_along_full_sequence(self, config, sequence):
        rho0 = DensityMatrix(np.diag([0.4, 0.6, 0.0]).astype(complex))
        short = PulseSequence.standard(8e-6, 8e-6, 2e-6, 8e-6)
        states = evolve(rho0, config, short, samples_per_segment=8)
        assert len(states) > 20
        for s in states:
            assert s.trace_deviation < TRACE_TOL
            assert s.hermiticity_deviation < HERM_TOL
            assert s.min_eigenvalue > -POS_TOL

    def test_dark_state_population_conserved(self, config):
        scheme = replace(config.level_scheme, gamma_gg_rad=0.0)
        cfg = replace(config, level_scheme=scheme, delta_r_hz=0.0)
        om_c, om_s = cfg.control.rabi_frequency_rad, cfg.signal.rabi_frequency_rad
        dark = np.array([om_c, -om_s, 0.0]) / math.hypot(om_c, om_s)
        rho0 = DensityMatrix(np.outer(dark, dark).astype(complex))
        seq = PulseSequence(segments=(Segment("input", 0.0, 20e-6, True, True),))
        states = evolve(rho0, cfg, seq, samples_per_segment=5)
        for s in states:
            population = float(np.real(dark @ s.matrix @ dark))
            assert population == pytest.approx(1.0, abs=1e-8)

    def test_segment_boundaries_do_not_depend_on_sampling(self, config):
        # the propagation is exact, so sampling a segment more finely only
        # adds states in between and leaves every boundary state unchanged
        rho0 = DensityMatrix(np.diag([0.4, 0.6, 0.0]).astype(complex))
        short = PulseSequence.standard(8e-6, 8e-6, 2e-6, 8e-6)
        coarse = evolve(rho0, config, short, samples_per_segment=3)
        fine = evolve(rho0, config, short, samples_per_segment=9)
        for k in range(len(short.segments) + 1):
            a, b = coarse[2 * k], fine[8 * k]
            assert a.time_s == b.time_s
            assert np.max(np.abs(a.matrix - b.matrix)) < 1e-12

    @pytest.mark.parametrize("samples", [0, 1])
    def test_too_few_samples_per_segment_rejected(self, config, sequence, samples):
        with pytest.raises(ValueError, match="samples_per_segment"):
            evolve(DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex)), config, sequence,
                   samples_per_segment=samples)

    def test_dimension_mismatch_rejected(self, config, sequence):
        with pytest.raises(ConfigurationError):
            evolve(DensityMatrix(np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)), config,
                   sequence)


def _step_matrices(config, sequence, samples_per_segment=25):
    """Each segment's generator times its sample spacing, as evolve builds it."""
    steps = []
    for seg in sequence.segments:
        gen0, gen1 = atom._generator(config, seg.control_on, seg.signal_on)
        dt = (seg.t_end - seg.t_start) / (samples_per_segment - 1)
        steps.append((gen0 + config.delta_r_hz * gen1) * dt)
    return steps


class TestExpm:
    """atom._expm against scipy.linalg.expm, relative in the Frobenius norm."""

    @staticmethod
    def _relative_to_scipy(m):
        linalg = pytest.importorskip("scipy.linalg")
        expected = linalg.expm(m)
        return np.linalg.norm(atom._expm(m) - expected) / np.linalg.norm(expected)

    @pytest.mark.parametrize("index", range(4))
    def test_step_matrix_of_each_default_segment(self, loaded, index):
        m = _step_matrices(loaded.config, loaded.sequence)[index]
        assert self._relative_to_scipy(m) < 1e-13

    def test_zero_matrix(self):
        assert self._relative_to_scipy(np.zeros((9, 9), dtype=complex)) < 1e-13

    def test_one_norm_below_theta13(self, loaded):
        # scaled so that no squaring is needed
        m = _step_matrices(loaded.config, loaded.sequence)[1]
        m = m * (4.0 / np.linalg.norm(m, 1))
        assert self._relative_to_scipy(m) < 1e-13

    def test_norm_above_1e3(self, loaded):
        # one step over the whole input segment
        m = _step_matrices(loaded.config, loaded.sequence, samples_per_segment=2)[1]
        assert np.linalg.norm(m, 1) > 1e3
        assert self._relative_to_scipy(m) < 1e-13


class TestSteadyState:
    def test_control_only_pumps_g_minus(self, config):
        cfg = with_signal_intensity(config, 0.0)
        state = steady_state(cfg)
        assert np.real(np.diag(state.matrix))[0] > 0.999

    def test_weak_probe_matches_analytic_susceptibility(self, config):
        # independent oracle: first-order coherence of the driven lambda
        # system, rho_eg = (i W_s/2)(g - i d)/[(G13 - i D)(g - i d) + W_c^2/4]
        weak = with_signal_intensity(config, config.signal.intensity * 1e-8)
        for delta_r in (0.0, 3e3, -7e3, 12e3):
            cfg = replace(weak, delta_r_hz=delta_r)
            numeric = signal_coherence(steady_state(cfg))
            om_s = cfg.signal.rabi_frequency_rad
            om_c = cfg.control.rabi_frequency_rad
            g13 = optical_coherence_rate(cfg.level_scheme)
            gam = cfg.level_scheme.gamma_gg_rad
            dlt = TWO_PI * delta_r
            dop = cfg.signal.one_photon_detuning_rad
            analytic = (
                (1j * om_s / 2.0) * (gam - 1j * dlt)
                / ((g13 - 1j * dop) * (gam - 1j * dlt) + om_c**2 / 4.0)
            )
            assert abs(numeric - analytic) / abs(analytic) < 1e-6

    def test_absorption_minimum_at_resonance(self, config):
        grid = np.linspace(-20e3, 20e3, 9)
        points = transmission_spectrum(config, grid)
        proxies = [p.absorption_proxy for p in points]
        assert int(np.argmin(proxies)) == 4

    def test_residual_and_invariants(self, config):
        state = steady_state(config)
        state.check()
        assert steady_state_residual(config, state) < 1e-10

    def test_fixed_point_of_evolve(self, config):
        state = steady_state(config)
        horizon = 10.0 / config.level_scheme.gamma_e_rad
        seq = PulseSequence(segments=(Segment("input", 0.0, horizon, True, True),))
        states = evolve(state, config, seq, samples_per_segment=6)
        for s in states:
            assert np.max(np.abs(s.matrix - state.matrix)) < 1e-8

    def test_no_decay_is_degenerate(self, config):
        scheme = replace(config.level_scheme, gamma_e_rad=0.0, gamma_gg_rad=0.0)
        with pytest.raises(DegenerateSteadyStateError):
            steady_state(replace(config, level_scheme=scheme))

    @pytest.mark.parametrize("variant", ["default", "four_level", "no_ground_dephasing"])
    def test_stacked_solve_matches_svd_null_vector(self, config, variant):
        # independent oracle: at every point of the default grid, the
        # unit-trace null vector from the full SVD of that point's generator
        if variant == "four_level":
            config = replace(config, include_second_excited=True)
        elif variant == "no_ground_dephasing":
            config = replace(config, level_scheme=replace(config.level_scheme, gamma_gg_rad=0.0))
        grid = np.linspace(-60e3, 60e3, 241)
        states = atom._steady_states(config, grid)
        n = states.shape[1]
        for delta, rho in zip(grid, states):
            svals, vh = np.linalg.svd(_kron_generator(config, delta))[1:]
            assert svals[-2] > 1e-10 * svals[0]
            null = vh[-1].conj().reshape(n, n)
            assert np.max(np.abs(rho - null / np.trace(null))) < 1e-10

    def test_generator_built_once_per_spectrum(self, config, monkeypatch):
        calls = []
        original = atom._generator

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(atom, "_generator", counting)
        transmission_spectrum(config, np.linspace(-60e3, 60e3, 9))
        small = len(calls)
        calls.clear()
        transmission_spectrum(config, np.linspace(-60e3, 60e3, 241))
        assert len(calls) == small == 1

    def test_degenerate_point_is_named(self, config):
        # control off, no ground dephasing and no decay into g_plus leave
        # g_plus decoupled: two zero modes at every detuning
        weights = tuple(
            (key, 0.0 if key == ("g_plus", "e", "sigma_minus") else w)
            for key, w in config.level_scheme.clebsch_weights
        )
        scheme = replace(config.level_scheme, gamma_gg_rad=0.0, clebsch_weights=weights)
        dark = replace(
            config, level_scheme=scheme,
            control=replace(config.control, intensity=0.0),
        )
        with pytest.raises(DegenerateSteadyStateError, match=r"delta_r -1000\.0 Hz .* 2 zero"):
            transmission_spectrum(dark, [-1e3, 0.0, 1e3])

    @pytest.mark.parametrize("second", [False, True], ids=["three_level", "four_level"])
    def test_default_grid_runs_no_svd(self, config, monkeypatch, second):
        # the condition bound flags no point, so no SVD is made at all
        counted = []
        svd = np.linalg.svd

        def counting(a, **kwargs):
            counted.append(a.shape[0])
            return svd(a, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", counting)
        cfg = replace(config, include_second_excited=second)
        atom._steady_states(cfg, np.linspace(-60e3, 60e3, 241))
        assert counted == []

    def test_residual_error_names_point(self, config, monkeypatch):
        # the stacked r x r solve of the low-rank update, perturbed at the
        # second point, which is the reference, where the update is zero
        solve = np.linalg.solve

        def perturbed(a, b):
            x = solve(a, b)
            x[1] += 1e-6
            return x

        monkeypatch.setattr(np.linalg, "solve", perturbed)
        with pytest.raises(DegenerateSteadyStateError, match=r"residual .* delta_r 0\.0 Hz"):
            transmission_spectrum(config, [-1e3, 0.0, 1e3])

    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_nan_residual_names_point(self, config, monkeypatch):
        # the stacked r x r solve of the low-rank update returns NaN at the
        # second point, whose bound and residual are then NaN
        solve = np.linalg.solve

        def failing(a, b):
            x = solve(a, b)
            x[1] = math.nan
            return x

        monkeypatch.setattr(np.linalg, "solve", failing)
        with pytest.raises(DegenerateSteadyStateError,
                           match=r"^steady-state residual nan at delta_r 0\.0 Hz exceeds 1e-10$"):
            atom._steady_states(config, np.array([-1e3, 0.0, 1e3]))

    @pytest.mark.parametrize("second", [False, True], ids=["three_level", "four_level"])
    def test_condition_bound_misses_no_degenerate_point(self, config, second):
        # the g_plus leg weight (decay into g_plus and the control's coupling)
        # and the control intensity go to 0 in decades, without ground
        # dephasing; the oracle is the zero-mode count of the full SVD of
        # every point, with the error text it gives
        grid = np.array([-60e3, -1e3, 0.0, 1e3, 60e3])
        scales = [10.0**-e for e in range(9)] + [0.0]
        outcomes = {"degenerate": 0, "near_degenerate_solved": 0}
        singular_references = ill_conditioned_references_solved = 0
        for w_scale in scales:
            for i_scale in scales:
                scheme = replace(config.level_scheme, gamma_gg_rad=0.0, clebsch_weights=tuple(
                    (key, w * w_scale if key[0] == "g_plus" else w)
                    for key, w in config.level_scheme.clebsch_weights
                ))
                cfg = replace(
                    config, level_scheme=scheme, include_second_excited=second,
                    control=replace(config.control, intensity=config.control.intensity * i_scale),
                )
                gen0, gen1 = atom._generator(cfg)
                gens = gen0 + grid[:, None, None] * gen1
                gens = gens / np.max(np.abs(gens), axis=(1, 2), keepdims=True)
                svals = np.linalg.svd(gens, compute_uv=False)
                zero_modes = np.sum(svals < 1e-10 * svals[:, :1], axis=1)
                # the low-rank bound of the whole grid is at least the exact
                # ||A||_F ||A^-1||_F of every point that solves
                try:
                    _, bounds = atom._low_rank_solve(
                        gen0, gen1, grid, atom._rate_scales(gen0, gen1, grid)
                    )
                except np.linalg.LinAlgError:
                    singular_references += 1
                    assert np.all(zero_modes > 1)
                else:
                    bordered = gens.copy()
                    bordered[:, 0, :] = np.eye(4 if second else 3).reshape(-1)
                    for a, bound, zm in zip(bordered, bounds, zero_modes):
                        if zm <= 1:
                            exact = np.linalg.norm(a) * np.linalg.norm(np.linalg.inv(a))
                            assert bound >= exact * (1.0 - 1e-12)
                errors, states = [], []
                for delta, sv, zm in zip(grid, svals, zero_modes):
                    if zm > 1:
                        outcomes["degenerate"] += 1
                        with pytest.raises(DegenerateSteadyStateError) as excinfo:
                            atom._steady_states(cfg, np.array([delta]))
                        assert str(excinfo.value) == (
                            f"steady space at delta_r {float(delta)!r} Hz is degenerate: "
                            f"{zm} zero modes (smallest normalized singular values {sv[-zm:]})"
                        )
                        errors.append(str(excinfo.value))
                    else:
                        rho = atom._steady_states(cfg, np.array([delta]))[0]
                        assert abs(np.trace(rho) - 1.0) < 1e-12
                        if sv[-2] < 1e-8 * sv[0]:
                            outcomes["near_degenerate_solved"] += 1
                        states.append(rho)
                # the whole grid, solved about its point nearest 0, names the
                # first degenerate point or gives the one-point grids' states
                if errors:
                    with pytest.raises(DegenerateSteadyStateError) as excinfo:
                        atom._steady_states(cfg, grid)
                    assert str(excinfo.value) == errors[0]
                else:
                    rho = atom._steady_states(cfg, grid)
                    assert np.max(np.abs(rho - np.array(states))) < 1e-12
                    ill_conditioned_references_solved += bool(bounds[2] >= 1e8)
        assert min(outcomes.values()) > 0, outcomes
        # g_plus decoupled: the reference is singular because every point is degenerate
        assert singular_references == len(scales)
        # grids whose reference, grid[2] = 0, the bound flags, and whose
        # every point still solves as it does alone
        assert ill_conditioned_references_solved > 0

    def test_4_level_flag(self, config):
        state = steady_state(replace(config, include_second_excited=True))
        assert state.matrix.shape == (4, 4)
        state.check()


class TestTransmissionSpectrum:
    def test_default_window_near_20_khz(self, config):
        grid = np.linspace(-60e3, 60e3, 241)
        points = transmission_spectrum(config, grid)
        fwhm = spectrum_fwhm(points)
        assert 18e3 < fwhm < 22e3

    def test_power_broadening_monotone(self, config):
        grid = np.linspace(-60e3, 60e3, 121)
        narrow = spectrum_fwhm(transmission_spectrum(config, grid))
        # four times the intensity doubles the control Rabi frequency
        doubled = _with_intensities(config, 4.0 * config.control.intensity, config.signal.intensity)
        assert doubled.control.rabi_frequency_rad == 2.0 * config.control.rabi_frequency_rad
        wide = spectrum_fwhm(transmission_spectrum(doubled, grid))
        assert wide > narrow

    def test_ideal_limit_reaches_full_transmission(self, config):
        scheme = replace(config.level_scheme, gamma_gg_rad=0.0)
        weak = with_signal_intensity(
            replace(config, level_scheme=scheme), config.signal.intensity * 1e-6
        )
        points = transmission_spectrum(weak, np.linspace(-5e3, 5e3, 5))
        peak = max(p.transmission for p in points)
        assert peak > 1.0 - 1e-3

    def test_zero_signal_is_refused_before_any_solve(self, config, monkeypatch):
        calls = []
        monkeypatch.setattr(atom, "_steady_states", lambda *args: calls.append(args))
        with pytest.raises(ConfigurationError, match="absorption proxy needs a nonzero signal drive"):
            transmission_spectrum(with_signal_intensity(config, 0.0), [-1e3, 0.0, 1e3])
        assert calls == []

    def test_invalid_state_names_its_point(self, config, monkeypatch):
        original = atom._steady_states

        def injected(cfg, deltas_hz):
            states = original(cfg, deltas_hz)
            states[2] = np.diag([1.1, -0.1, 0.0])
            return states

        monkeypatch.setattr(atom, "_steady_states", injected)
        with pytest.raises(
            ValueError,
            match=r"^invalid density matrix at delta_r 1000\.0 Hz: min eigenvalue -1\.000e-01$",
        ):
            transmission_spectrum(config, [-1e3, 0.0, 1e3, 2e3])

    def test_nan_state_names_its_point(self, config, monkeypatch):
        original = atom._steady_states

        def injected(cfg, deltas_hz):
            states = original(cfg, deltas_hz)
            states[2] = np.diag([math.nan, 1.0, 0.0])
            return states

        monkeypatch.setattr(atom, "_steady_states", injected)
        with pytest.raises(ValueError, match=r"^invalid density matrix at delta_r 1000\.0 Hz: "):
            transmission_spectrum(config, [-1e3, 0.0, 1e3, 2e3])

    @pytest.mark.parametrize("second", [False, True], ids=["three_level", "four_level"])
    def test_valid_spectrum_computes_no_eigenvalues(self, config, monkeypatch, second):
        # the stacked Cholesky passes every state, so no eigenvalue is computed
        def refused(a):
            raise AssertionError("eigvalsh called on a valid spectrum")

        monkeypatch.setattr(np.linalg, "eigvalsh", refused)
        cfg = replace(config, include_second_excited=second)
        assert len(transmission_spectrum(cfg, np.linspace(-60e3, 60e3, 241))) == 241

    def test_nan_transmission_names_its_point(self, config, monkeypatch):
        monkeypatch.setattr(atom, "optical_coherence_rate", lambda scheme: math.nan)
        with pytest.raises(ValueError, match=r"^transmission nan outside \[0, 1\] "
                           r"at delta_r -1000\.0 Hz$"):
            transmission_spectrum(config, [-1e3, 0.0, 1e3])

    def test_grid_wider_than_the_trace_sampling_allows(self, config):
        # the spectrum samples no trace, so no Nyquist margin of a trace bounds its grid
        points = transmission_spectrum(config, np.linspace(-5e6, 5e6, 11))
        assert len(points) == 11
        assert all(0.0 <= p.transmission <= 1.0 for p in points)

    def test_symmetric_spectrum(self, config):
        grid = np.linspace(-30e3, 30e3, 31)
        points = transmission_spectrum(config, grid)
        t = np.array([p.transmission for p in points])
        assert np.max(np.abs(t - t[::-1])) < 1e-10

    def test_peak_at_grid_point_nearest_zero(self, config):
        grid = np.linspace(-25e3, 25e3, 26)  # even count: nearest-to-zero wins
        points = transmission_spectrum(config, grid)
        i_peak = int(np.argmax([p.transmission for p in points]))
        assert abs(points[i_peak].delta_r_hz) == min(abs(d) for d in grid)

    def test_grid_validation(self, config):
        with pytest.raises(ValueError):
            transmission_spectrum(config, [])
        with pytest.raises(ValueError):
            transmission_spectrum(config, [1.0, -1.0])
        for bad in ([0.0, math.nan, 5.0], [0.0, math.inf]):
            with pytest.raises(ValueError, match="non-finite"):
                transmission_spectrum(config, bad)
        with pytest.raises(ValueError, match="1-D"):
            transmission_spectrum(config, [[0.0, 1.0]])

    def test_csv_round_trip(self, loaded, tmp_path):
        study = replace(loaded.study, dark_resonance_grid_hz=tuple(np.linspace(-5e3, 5e3, 5)))
        plan = StudyPlan.from_loaded(replace(loaded, study=study), "dark_resonance",
                                     out_dir=tmp_path / "dark")
        points, _ = run_dark_resonance(plan)
        with open(tmp_path / "dark" / "summary.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["delta_r_hz", "transmission", "absorption_proxy"]
        back = [SpectrumPoint(*map(float, row)) for row in rows[1:]]
        assert back == points


class TestAcStarkShift:
    def test_zero_intensity(self, config):
        assert config.light_shift_hz(0.0) == 0.0

    def test_linearity(self, config):
        one = config.light_shift_hz(1.7)
        assert config.light_shift_hz(3.4) == pytest.approx(2.0 * one, rel=1e-12)

    def test_calibrated_default_shift(self, config):
        shift = config.light_shift_hz(config.control.intensity)
        assert shift == pytest.approx(7000.0, abs=1e-6)

    def test_sign_flip(self, config):
        flipped = replace(config, light_shift=replace(
            config.light_shift,
            couplings=tuple(replace(c, detuning_rad=-c.detuning_rad)
                            for c in config.light_shift.couplings),
        ))
        assert flipped.light_shift_hz(2.0) == pytest.approx(
            -config.light_shift_hz(2.0), rel=1e-12
        )


class TestDensityMatrix:
    def test_check_rejects_bad_trace(self):
        with pytest.raises(ValueError, match="trace"):
            DensityMatrix(np.diag([0.6, 0.6, 0.0]).astype(complex)).check()

    def test_check_rejects_non_hermitian(self):
        m = np.diag([1.0, 0.0, 0.0]).astype(complex)
        m[0, 1] = 1e-6
        with pytest.raises(ValueError, match="hermiticity"):
            DensityMatrix(m).check()

    def test_check_rejects_negative_eigenvalue(self):
        m = np.diag([1.1, -0.1, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="eigenvalue"):
            DensityMatrix(m).check()

    @pytest.mark.parametrize("n", [3, 4])
    def test_positivity_boundary(self, n):
        # diag(1 + a, -a, 0...) has min eigenvalue -a: it passes just inside
        # -POSITIVITY_TOL and fails just outside it, with the eigenvalue named
        def state(a):
            return DensityMatrix(np.diag([1.0 + a, -a] + [0.0] * (n - 2)).astype(complex))

        state(atom.POSITIVITY_TOL * (1.0 - 1e-6)).check()
        with pytest.raises(ValueError,
                           match=r"^invalid density matrix: min eigenvalue -1\.000e-09$"):
            state(atom.POSITIVITY_TOL * (1.0 + 1e-6)).check()

    def test_check_rejects_nan(self):
        with pytest.raises(ValueError, match=r"\|trace - 1\| = nan"):
            DensityMatrix(np.diag([math.nan, 1.0, 0.0]).astype(complex)).check()

    def test_matrix_is_read_only(self):
        state = DensityMatrix(np.diag([1.0, 0.0, 0.0]).astype(complex))
        with pytest.raises(ValueError):
            state.matrix[0, 0] = 0.5
