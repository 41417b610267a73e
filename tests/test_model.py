import math
import warnings
from dataclasses import replace

import pytest
from hypothesis import given, strategies as st

from lightstore.model import (
    ConfigurationError,
    FieldConfig,
    LevelScheme,
    LightShiftModel,
    MagneticEnvironment,
    PulseSequence,
    Segment,
    ShiftCoupling,
    TWO_PI,
    rabi_from_intensity,
    with_readout_intensity,
    with_signal_intensity,
)

B_FIELD = MagneticEnvironment(b0_gauss=0.49)


class TestTwoPhotonDetuning:
    def test_against_hand_calculation(self):
        # 0.49 G x 1.399624 MHz/G = 685815.76 Hz -> 690.8 kHz beats it by 4984.24 Hz
        assert B_FIELD.zeeman_splitting() == pytest.approx(685815.76, abs=1e-6)
        delta = 690.8e3 - B_FIELD.zeeman_splitting()
        assert delta == pytest.approx(4984.24, abs=1e-6)
        assert delta == pytest.approx(5.0e3, abs=20.0)

    @given(st.floats(-5.0, 5.0))
    def test_zeeman_linearity(self, b0):
        env = MagneticEnvironment(b0_gauss=b0)
        doubled = MagneticEnvironment(b0_gauss=2.0 * b0)
        assert doubled.zeeman_splitting() == pytest.approx(2.0 * env.zeeman_splitting(), abs=1e-6)


class TestRabiFromIntensity:
    def test_zero_intensity(self):
        assert rabi_from_intensity(0.0, 1.0, 1e11) == 0.0

    def test_square_root_law(self):
        base = rabi_from_intensity(2.5, 0.7, 3e11)
        assert rabi_from_intensity(10.0, 0.7, 3e11) == pytest.approx(2.0 * base, rel=1e-12)

    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            rabi_from_intensity(-0.1, 1.0, 1e11)

    def test_monotone(self):
        values = [rabi_from_intensity(i, 1.0, 1e11) for i in (0.0, 0.5, 1.0, 4.0)]
        assert values == sorted(values)


class TestLevelScheme:
    def test_negative_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            LevelScheme(gamma_e_rad=-1.0)

    def test_large_ground_decoherence_warns(self):
        with pytest.warns(UserWarning, match="gamma_gg"):
            LevelScheme(gamma_e_rad=1e6, gamma_gg_rad=5e5)

    def test_default_weights_cover_driven_legs(self):
        scheme = LevelScheme()
        assert scheme.weight("g_minus", "e", "sigma_plus") == 1.0
        assert scheme.weight("g_plus", "e", "sigma_minus") == 1.0
        assert scheme.weight("g_minus", "e", "sigma_minus") == 0.0

    def test_non_finite_weight_rejected(self):
        with pytest.raises(ConfigurationError):
            LevelScheme(clebsch_weights=((("g_minus", "e", "sigma_plus"), math.nan),))


class TestFieldConfig:
    def test_negative_intensity_rejected(self):
        with pytest.raises(ConfigurationError):
            FieldConfig(intensity=-1.0, polarization="sigma_minus")
        with pytest.raises(ConfigurationError):
            FieldConfig(intensity=math.nan, polarization="sigma_minus")

    def test_unconventional_polarization_flagged(self, config):
        # the slot a field fills decides which polarization is standard
        with pytest.warns(UserWarning, match="^control field uses sigma_plus; the standard "
                          "configuration drives it with sigma_minus$"):
            odd = replace(config, control=FieldConfig(10.5, "sigma_plus"))
        with pytest.warns(UserWarning, match="^signal field uses sigma_minus; the standard "
                          "configuration drives it with sigma_plus$"):
            replace(config, signal=FieldConfig(3.5, "sigma_minus"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            FieldConfig(10.5, "sigma_plus")  # outside a config a field has no role
            replace(odd, rng_seed=7)  # the fields are kept, so no second warning
            replace(config, control=FieldConfig(10.5, "sigma_minus"))


class TestLightShiftModel:
    def test_slope_formula(self):
        # single coupling: w * kappa * d / (4 d^2 + g^2) / 2pi
        model = LightShiftModel(
            couplings=(ShiftCoupling(detuning_rad=2.0e9, cg_sq=3.0),),
            linewidth_rad=4.0e7,
        )
        expected = 3.0 * 5.0e11 * 2.0e9 / (4.0 * (2.0e9) ** 2 + (4.0e7) ** 2) / TWO_PI
        assert model.slope_per_intensity_hz(5.0e11) == pytest.approx(expected, rel=1e-12)

    def test_sign_flips_with_detuning(self):
        up = LightShiftModel((ShiftCoupling(2e9, 1.0),), 4e7)
        down = LightShiftModel((ShiftCoupling(-2e9, 1.0),), 4e7)
        assert down.slope_per_intensity_hz(5e11) == pytest.approx(
            -up.slope_per_intensity_hz(5e11), rel=1e-12
        )


class TestPulseSequence:
    def test_standard_sequence_valid(self):
        seq = PulseSequence.standard(30e-6, 50e-6, 5e-6, 60e-6)
        assert [s.name for s in seq.segments] == ["preparation", "input", "storage", "readout"]
        assert seq.t_end == pytest.approx(145e-6)
        storage = seq.phase("storage")
        assert not storage.control_on and not storage.signal_on

    def test_gap_rejected(self):
        with pytest.raises(ConfigurationError, match="contiguous"):
            PulseSequence(segments=(
                Segment("preparation", 0.0, 1e-5, True, False),
                Segment("input", 2e-5, 3e-5, True, True),
            ))

    def test_signal_during_storage_rejected(self):
        with pytest.raises(ConfigurationError, match="storage"):
            PulseSequence(segments=(Segment("storage", 0.0, 1e-5, False, True),))

    def test_readout_needs_control(self):
        with pytest.raises(ConfigurationError, match="readout"):
            PulseSequence(segments=(Segment("readout", 0.0, 1e-5, False, False),))

    def test_zero_duration_rejected(self):
        with pytest.raises(ConfigurationError):
            PulseSequence(segments=(Segment("input", 1e-5, 1e-5, True, True),))


class TestExperimentConfig:
    def test_nyquist_guard(self, config):
        with pytest.raises(ConfigurationError, match="Nyquist"):
            replace(config, sample_rate_hz=2.0e6)

    def test_leak_fraction_bounds(self, config):
        with pytest.raises(ConfigurationError):
            replace(config, control_leak_fraction=1.5)

    @pytest.mark.parametrize("key, value", [
        ("trace_noise_sigma", -0.05), ("trace_noise_sigma", math.nan),
        ("retrieval_decay_time_s", 0.0), ("retrieval_decay_time_s", math.nan),
        ("kappa_rad2", -1.0), ("kappa_rad2", math.nan),
        ("od_eff", math.nan), ("coupling_gn_rad", math.nan),
    ])
    def test_out_of_range_value_names_its_key(self, config, key, value):
        with pytest.raises(ConfigurationError, match=f"^{key} must be"):
            replace(config, **{key: value})

    def test_intensity_helpers_rederive_rabi(self, config):
        widened = with_signal_intensity(config, 4.0 * config.signal.intensity)
        assert widened.signal.rabi_frequency_rad == pytest.approx(
            2.0 * config.signal.rabi_frequency_rad, rel=1e-12
        )
        readout = with_readout_intensity(config, 2.0 * config.control.intensity)
        assert readout.readout_intensity() == pytest.approx(2.0 * config.control.intensity)
        assert readout.control.intensity == config.control.intensity

    def test_default_readout_follows_control(self, config):
        assert config.readout_intensity() == config.control.intensity
        assert config.readout_rabi_rad() == pytest.approx(config.control.rabi_frequency_rad)


class TestDerivedCouplings:
    """The config turns intensities into couplings with its own kappa_rad2."""

    def test_kappa_scales_every_coupling_and_the_shift(self, config):
        scaled = replace(config, kappa_rad2=4.0 * config.kappa_rad2)
        assert scaled.control.rabi_frequency_rad == 2.0 * config.control.rabi_frequency_rad
        assert scaled.signal.rabi_frequency_rad == 2.0 * config.signal.rabi_frequency_rad
        assert scaled.readout_rabi_rad() == 2.0 * config.readout_rabi_rad()
        intensity = config.control.intensity
        assert scaled.light_shift_hz(intensity) == pytest.approx(
            4.0 * config.light_shift_hz(intensity), rel=1e-12
        )

    def test_control_intensity_sets_the_control_coupling(self, config):
        brighter = replace(
            config, control=replace(config.control, intensity=4.0 * config.control.intensity)
        )
        assert brighter.control.rabi_frequency_rad == 2.0 * config.control.rabi_frequency_rad
        assert brighter.signal.rabi_frequency_rad == config.signal.rabi_frequency_rad

    @pytest.mark.parametrize("leg, field", [
        (("g_plus", "e", "sigma_minus"), "control"),
        (("g_minus", "e", "sigma_plus"), "signal"),
    ])
    def test_scheme_weight_sets_its_legs_coupling(self, config, leg, field):
        weights = tuple((key, 0.5 * w if key == leg else w)
                        for key, w in config.level_scheme.clebsch_weights)
        halved = replace(config, level_scheme=replace(config.level_scheme, clebsch_weights=weights))
        assert getattr(halved, field).rabi_frequency_rad == (
            0.5 * getattr(config, field).rabi_frequency_rad
        )

    def test_derivation_leaves_shared_fields_alone(self, config):
        control = config.control
        scaled = replace(config, kappa_rad2=4.0 * config.kappa_rad2)
        assert config.control is control
        assert scaled.control is not control
        assert replace(config, rng_seed=7).control is control

    def test_rabi_frequency_is_not_an_argument(self):
        with pytest.raises(TypeError):
            FieldConfig(intensity=1.0, polarization="sigma_minus",
                        **{"rabi_frequency_rad": 1.0})
        field = FieldConfig(intensity=1.0, polarization="sigma_minus")
        assert math.isnan(field.rabi_frequency_rad)
