import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from lightstore.atom import transmission_spectrum
from lightstore.configfile import (
    _make_parser,
    default_config,
    dump_config,
    load_config,
)
from lightstore.model import ConfigurationError
from lightstore.storage import simulate_storage


def _run_snapshot():
    """The defaults as a run holds them: with its plan kind and seed base."""
    return replace(default_config(), plan_kind="spectroscopy", plan_seed_base=1)


def _dumped_keys() -> list[tuple[str, str, str]]:
    """(section, key, value) of every key a run snapshot of the defaults holds."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "default.cfg"
        dump_config(_run_snapshot(), path)
        parser = _make_parser()
        parser.read(path)
    return [(section, key, value) for section in parser.sections()
            for key, value in parser[section].items()]


ALL_DUMPED_KEYS = _dumped_keys()
# [clebsch_weights] keys are left out: one alone replaces the weights whole
DUMPED_KEYS = [k for k in ALL_DUMPED_KEYS if k[0] != "clebsch_weights"]
# keys whose parser takes any text, so "abc" is not a parse error there
TEXT_KEYS = {"polarization", "average_mode", "kind"}


def _write_sections(path, sections: dict[str, dict[str, str]]) -> None:
    """Write through configparser, which keeps multi-line values valid."""
    parser = _make_parser()
    parser.read_dict(sections)
    with open(path, "w") as fh:
        parser.write(fh)


def _write_single_key(path, section: str, key: str, value: str) -> None:
    _write_sections(path, {section: {key: value}})


def test_round_trip_is_identity(tmp_path):
    loaded = default_config()
    path = tmp_path / "exp.cfg"
    dump_config(loaded, path)
    reloaded = load_config(path)
    assert reloaded.config == loaded.config
    assert reloaded.study == loaded.study
    for a, b in zip(loaded.sequence.segments, reloaded.sequence.segments):
        assert a.name == b.name
        assert a.t_start == pytest.approx(b.t_start, abs=1e-15)
        assert a.t_end == pytest.approx(b.t_end, abs=1e-15)


def test_round_trip_is_fixed_point(tmp_path):
    first = tmp_path / "a.cfg"
    second = tmp_path / "b.cfg"
    dump_config(_run_snapshot(), first)
    dump_config(load_config(first), second)
    assert "[plan]\nkind = spectroscopy\nseed_base = 1\n" in first.read_text()
    assert first.read_bytes() == second.read_bytes()


def test_numpy_scalars_dump_as_python_numbers(tmp_path):
    loaded = default_config()
    plain = replace(loaded, config=replace(
        loaded.config, delta_r_hz=3.0, rng_seed=7, sample_rate_hz=2.5e7))
    scalars = replace(loaded, config=replace(
        loaded.config, delta_r_hz=np.float64(3.0), rng_seed=np.int64(7),
        sample_rate_hz=np.float32(2.5e7)))
    dump_config(plain, tmp_path / "plain.cfg")
    dump_config(scalars, tmp_path / "scalars.cfg")
    reloaded = load_config(tmp_path / "scalars.cfg")
    assert reloaded.config == plain.config
    dump_config(reloaded, tmp_path / "again.cfg")
    text = (tmp_path / "scalars.cfg").read_bytes()
    assert text == (tmp_path / "plain.cfg").read_bytes()
    assert (tmp_path / "again.cfg").read_bytes() == text


def test_unknown_section_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[nonsense]\nx = 1\n")
    with pytest.raises(ConfigurationError, match="unknown config section"):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("[experiment]\nwhatever = 1\n")
    with pytest.raises(ConfigurationError, match="unknown key"):
        load_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_config(tmp_path / "does_not_exist.cfg")


def test_partial_file_fills_defaults(tmp_path):
    path = tmp_path / "partial.cfg"
    path.write_text("[experiment]\ndelta_r_hz = 2500.0\ntrace_noise_sigma = 0.1\n")
    loaded = load_config(path)
    base = default_config()
    assert loaded.config.delta_r_hz == 2500.0
    assert loaded.config.trace_noise_sigma == 0.1
    assert loaded.config.kappa_rad2 == base.config.kappa_rad2
    assert loaded.study == base.study


def test_grid_shorthand(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text("[study]\ndelta_r_grid_hz = lin:-1000:1000:5\n")
    loaded = load_config(path)
    assert loaded.study.delta_r_grid_hz == (-1000.0, -500.0, 0.0, 500.0, 1000.0)


def test_bad_grid_rejected(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text("[study]\ndelta_r_grid_hz = 3, 2, 1\n")
    with pytest.raises(ConfigurationError, match="strictly increasing"):
        load_config(path)


@pytest.mark.parametrize("key", [
    "delta_r_grid_hz", "dark_resonance_grid_hz", "control_intensity_grid", "signal_intensity_grid",
])
@pytest.mark.parametrize("values", ["0, nan, 5", "0, 5, inf"])
def test_non_finite_grid_rejected(tmp_path, key, values):
    path = tmp_path / "grid.cfg"
    path.write_text(f"[study]\n{key} = {values}\n")
    with pytest.raises(ConfigurationError, match=f"{key} has a non-finite value"):
        load_config(path)


def test_bad_coupling_line_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[light_shift]\ncouplings =\n    1e9 2.0 extra\n")
    with pytest.raises(ConfigurationError, match="coupling"):
        load_config(path)


def test_analysis_window_override(tmp_path):
    path = tmp_path / "w.cfg"
    path.write_text("[analysis]\ninput_window_s = 3.3e-5, 7.5e-5\n")
    loaded = load_config(path)
    assert loaded.study.input_window_s == (3.3e-5, 7.5e-5)
    assert loaded.study.retrieved_window_s is None


@pytest.mark.parametrize("window", [(8e-5, 4e-5), (5e-5, 5e-5), (1e-4, float("nan")),
                                    (float("-inf"), 1e-4), (1e-5, 2e-5, 3e-5)])
@pytest.mark.parametrize("key", ["input_window_s", "retrieved_window_s"])
def test_a_window_that_is_not_t_a_before_t_b_is_rejected(loaded, key, window):
    with pytest.raises(ConfigurationError,
                       match=f"^{key} must be two finite times t_a < t_b, got "):
        replace(loaded.study, **{key: window})


def test_bad_average_mode_rejected(tmp_path):
    path = tmp_path / "m.cfg"
    path.write_text("[study]\naverage_mode = sometimes\n")
    with pytest.raises(ConfigurationError, match="average_mode"):
        load_config(path)


def test_write_default_config(tmp_path):
    path = tmp_path / "default.cfg"
    dump_config(default_config(), path)
    loaded = load_config(path)
    assert loaded.config == default_config().config


def test_default_calibration_anchors():
    import math

    cfg = default_config().config
    # reference drive maps to the 2pi x 375 kHz coupling behind the ~20 kHz window
    assert cfg.control.intensity == 10.5
    assert cfg.control.rabi_frequency_rad == pytest.approx(2 * math.pi * 375e3, rel=1e-12)
    # and the shift model puts the same drive at +7 kHz
    assert cfg.light_shift_hz(cfg.control.intensity) == pytest.approx(7000.0, abs=1e-6)


def test_clebsch_weight_override(tmp_path):
    path = tmp_path / "cg.cfg"
    path.write_text("[clebsch_weights]\ng_minus/e/sigma_plus = 0.5\ng_plus/e/sigma_minus = 0.8\n")
    loaded = load_config(path)
    assert loaded.config.level_scheme.weight("g_minus", "e", "sigma_plus") == 0.5
    # signal rabi derives from the overridden amplitude
    base = default_config()
    assert loaded.config.signal.rabi_frequency_rad == pytest.approx(
        0.5 * base.config.signal.rabi_frequency_rad, rel=1e-12
    )


def test_bad_clebsch_key_rejected(tmp_path):
    path = tmp_path / "cg.cfg"
    path.write_text("[clebsch_weights]\ng_minus/e = 0.5\n")
    with pytest.raises(ConfigurationError, match="ground/excited/polarization"):
        load_config(path)


@pytest.mark.parametrize(
    "section,key,value",
    [k for k in DUMPED_KEYS if k[0] != "plan"],
    ids=[f"{s}.{k}" for s, k, _ in DUMPED_KEYS if s != "plan"],
)
def test_every_dumped_key_loads_alone_to_the_defaults(tmp_path, section, key, value):
    path = tmp_path / "one.cfg"
    _write_single_key(path, section, key, value)
    loaded = load_config(path)
    base = default_config()
    assert loaded.config == base.config
    assert loaded.study == base.study
    assert (loaded.plan_kind, loaded.plan_seed_base) == (None, None)
    for a, b in zip(base.sequence.segments, loaded.sequence.segments, strict=True):
        assert a.name == b.name
        assert a.t_start == pytest.approx(b.t_start, abs=1e-15)
        assert a.t_end == pytest.approx(b.t_end, abs=1e-15)


@pytest.mark.parametrize(
    "section,key",
    [(s, k) for s, k, _ in DUMPED_KEYS if k not in TEXT_KEYS],
    ids=[f"{s}.{k}" for s, k, _ in DUMPED_KEYS if k not in TEXT_KEYS],
)
def test_unparsable_value_names_its_section_and_key(tmp_path, section, key):
    path = tmp_path / "bad.cfg"
    _write_single_key(path, section, key, "abc")
    with pytest.raises(ConfigurationError, match=rf"^\[{section}\] {key}: "):
        load_config(path)


@pytest.mark.parametrize("section,key", [
    ("control", "intensity"), ("signal", "intensity"),
    ("experiment", "kappa_rad2"), ("control", "readout_intensity"),
    ("experiment", "trace_noise_sigma"),
])
def test_negative_value_names_its_section_and_key(tmp_path, section, key):
    path = tmp_path / "bad.cfg"
    _write_single_key(path, section, key, "-1")
    with pytest.raises(ConfigurationError, match=rf"^\[{section}\] {key}: must be >= 0"):
        load_config(path)


@pytest.mark.parametrize("text", [
    "delta_r_hz = 5\n",
    "[experiment]\ndelta_r_hz = 1\ndelta_r_hz = 2\n",
    "[DEFAULT]\ndelta_r_hz = 5\n",
], ids=["no-section-header", "duplicate-key", "default-section"])
def test_malformed_file_is_a_configuration_error(tmp_path, text):
    path = tmp_path / "malformed.cfg"
    path.write_text(text)
    with pytest.raises(ConfigurationError, match="malformed config file .*malformed.cfg"):
        load_config(path)


DEFAULT_WEIGHTS = {"clebsch_weights": {k: v for s, k, v in ALL_DUMPED_KEYS
                                       if s == "clebsch_weights"}}
FOUR_LEVELS = {"experiment": {"include_second_excited": "true"}}
# legs the other polarization drives, so a field's polarization moves its coupling
CROSS_LEGS = {"clebsch_weights": {**DEFAULT_WEIGHTS["clebsch_weights"],
                                  "g_minus/e/sigma_minus": "0.5", "g_plus/e/sigma_plus": "0.5"}}
# the pulling term delta_R (1 - cos alpha) cos^2(theta) needs delta_R != 0 and alpha != 0
DETUNED = {"experiment": {"delta_r_hz": "3000.0"}}
PULLING = {"experiment": {"delta_r_hz": "3000.0"}, "signal": {"angle_alpha_rad": "0.5"}}

# (section, key) of every key in the physics sections -> (a changed value,
# the sections it is changed on)
MOVES = {
    ("level_scheme", "gamma_e_rad"): ("3.0e7", {}),
    ("level_scheme", "gamma_gg_rad"): ("1.0e4", {}),
    ("level_scheme", "second_excited_offset_hz"): ("5.0e8", FOUR_LEVELS),
    ("clebsch_weights", "g_minus/e/sigma_plus"): ("0.5", DEFAULT_WEIGHTS),
    ("clebsch_weights", "g_plus/e/sigma_minus"): ("0.5", DEFAULT_WEIGHTS),
    ("clebsch_weights", "g_minus/e2/sigma_plus"): ("0.5", {**DEFAULT_WEIGHTS, **FOUR_LEVELS}),
    ("clebsch_weights", "g_plus/e2/sigma_minus"): ("0.5", {**DEFAULT_WEIGHTS, **FOUR_LEVELS}),
    ("control", "intensity"): ("5.0", {}),
    ("control", "polarization"): ("sigma_plus", CROSS_LEGS),
    ("control", "readout_intensity"): ("5.0", {}),
    ("signal", "intensity"): ("1.0", {}),
    ("signal", "one_photon_detuning_rad"): ("1.0e7", {}),
    ("signal", "polarization"): ("sigma_minus", CROSS_LEGS),
    ("signal", "angle_alpha_rad"): ("0.5", DETUNED),
    ("magnetic", "b0_gauss"): ("0.6", {}),
    ("magnetic", "g_f"): ("0.6", {}),
    ("experiment", "delta_r_hz"): ("3000.0", {}),
    ("experiment", "sample_rate_hz"): ("2.5e7", {}),
    ("experiment", "trace_noise_sigma"): ("0.1", {}),
    ("experiment", "control_leak_fraction"): ("0.2", {}),
    ("experiment", "storage_efficiency"): ("0.5", {}),
    ("experiment", "retrieval_decay_time_s"): ("2.0e-5", {}),
    ("experiment", "rng_seed"): ("7", {}),
    ("experiment", "kappa_rad2"): ("1.0e11", {}),
    ("experiment", "od_eff"): ("1.0", {}),
    ("experiment", "coupling_gn_rad"): ("1.0e6", PULLING),
    ("experiment", "include_second_excited"): ("true", {}),
    ("light_shift", "linewidth_rad"): ("1.0e8", {}),
    ("light_shift", "couplings"): ("5.0e9 1.0", {}),
    ("pulse_sequence", "preparation_s"): ("2.0e-5", {}),
    ("pulse_sequence", "input_s"): ("4.0e-5", {}),
    ("pulse_sequence", "storage_s"): ("4.0e-6", {}),
    ("pulse_sequence", "readout_s"): ("5.0e-5", {}),
}
PHYSICS_KEYS = [(s, k) for s, k, _ in ALL_DUMPED_KEYS if s not in ("study", "analysis", "plan")]


def _outputs(path) -> tuple[np.ndarray, np.ndarray]:
    """The seeded trace samples, and a small spectrum's transmissions and absorption proxies."""
    loaded = load_config(path)
    spectrum = transmission_spectrum(loaded.config, np.linspace(-20e3, 20e3, 5))
    return (simulate_storage(loaded.config, loaded.sequence).samples,
            np.array([(p.transmission, p.absorption_proxy) for p in spectrum]))


@pytest.mark.filterwarnings("ignore:.*the standard configuration drives it")
@pytest.mark.parametrize("section,key", PHYSICS_KEYS, ids=[f"{s}.{k}" for s, k in PHYSICS_KEYS])
def test_every_key_moves_an_output(tmp_path, section, key):
    assert (section, key) in MOVES, f"[{section}] {key} has no case"
    value, base = MOVES[(section, key)]
    changed = {name: dict(keys) for name, keys in base.items()}
    changed.setdefault(section, {})[key] = value
    _write_sections(tmp_path / "base.cfg", base)
    _write_sections(tmp_path / "changed.cfg", changed)
    before, after = _outputs(tmp_path / "base.cfg"), _outputs(tmp_path / "changed.cfg")
    assert not all(np.array_equal(a, b) for a, b in zip(before, after)), (
        f"[{section}] {key} = {value} changes no output")


def test_every_move_names_a_dumped_key():
    assert sorted(MOVES) == sorted(PHYSICS_KEYS)
