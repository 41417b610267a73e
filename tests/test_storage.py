import math
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import lightstore
from lightstore import storage
from lightstore.model import (
    ConfigurationError,
    LightShiftModel,
    ShiftCoupling,
    with_signal_intensity,
)
from lightstore.storage import (
    PhotodiodeTrace,
    TraceParseError,
    frequency_pulling,
    input_beat_frequency,
    mixing_angle,
    read_trace_csv,
    retrieved_beat_frequency,
    simulate_storage,
    write_trace_csv,
)


class TestMixingAngle:
    def test_strong_control_is_photonic(self):
        assert mixing_angle(1e3, 1e9) < 1e-5

    def test_control_off_is_pure_spin_wave(self):
        assert mixing_angle(1e6, 0.0) == pytest.approx(math.pi / 2)

    def test_balanced_mixing(self):
        assert mixing_angle(2e6, 2e6) == pytest.approx(math.pi / 4)

    def test_no_coupling_and_no_drive_is_pure_spin_wave(self):
        assert mixing_angle(0.0, 0.0) == math.pi / 2

    @given(st.floats(0.0, 1e8), st.floats(0.0, 1e8))
    def test_range_and_normalization(self, gn, omega):
        theta = mixing_angle(gn, omega)
        assert 0.0 <= theta <= math.pi / 2


class TestFrequencyPulling:
    def test_collinear_is_zero(self):
        assert frequency_pulling(5e3, 0.0, 0.3) == 0.0

    @given(st.floats(-1e5, 1e5), st.floats(0.0, math.pi))
    def test_pure_spin_wave_is_zero(self, delta_r, alpha):
        assert frequency_pulling(delta_r, alpha, math.pi / 2) == pytest.approx(0.0, abs=1e-16)

    def test_backward_geometry(self):
        assert frequency_pulling(5e3, math.pi, 0.0) == pytest.approx(10e3)

    def test_small_angle_value(self):
        # direct evaluation, cross-checked by the series delta_R alpha^2 / 4
        exact = frequency_pulling(10e3, 0.01, math.pi / 4)
        assert exact == pytest.approx(10e3 * (1.0 - math.cos(0.01)) * 0.5, rel=1e-12)
        assert exact == pytest.approx(0.25, abs=1e-4)
        assert exact == pytest.approx(10e3 * 0.01**2 / 4.0, rel=1e-4)


class TestRetrievedBeatFrequency:
    def test_bare_splitting(self, config):
        f = retrieved_beat_frequency(config.magnetic, 0.0, 0.0, 0.3, 9e9)
        assert f == config.magnetic.zeeman_splitting()

    def test_calibrated_shift(self, config):
        f = retrieved_beat_frequency(
            config.magnetic, config.light_shift_hz(config.control.intensity), 0.0, 0.3, 5e3
        )
        assert f == pytest.approx(config.magnetic.zeeman_splitting() + 7000.0, abs=1e-6)

    def test_collinear_ignores_detuning(self, config):
        args = (config.magnetic, config.light_shift_hz(2.0), 0.0, 0.4)
        assert retrieved_beat_frequency(*args, 0.0) == retrieved_beat_frequency(*args, 15e3)

    def test_pulling_contribution(self, config):
        base = retrieved_beat_frequency(config.magnetic, 0.0, 0.0, 0.0, 10e3)
        pulled = retrieved_beat_frequency(config.magnetic, 0.0, 0.01, math.pi / 4, 10e3)
        assert pulled - base == pytest.approx(0.25, abs=1e-4)


def _segment_slice(trace, sequence, name):
    seg = sequence.phase(name)
    i_a, i_b = trace.index_range(seg.t_start, seg.t_end)
    return trace.samples[i_a:i_b]


class TestSimulateStorage:
    def test_zero_efficiency_readout_is_dc(self, noiseless):
        cfg = replace(noiseless.config, storage_efficiency=0.0)
        trace = simulate_storage(cfg, noiseless.sequence)
        readout = _segment_slice(trace, noiseless.sequence, "readout")
        dc = cfg.control_leak_fraction * cfg.readout_intensity()
        assert np.max(np.abs(readout - dc)) < 1e-12

    def test_storage_gap_is_dark(self, noiseless):
        trace = simulate_storage(noiseless.config, noiseless.sequence)
        storage = _segment_slice(trace, noiseless.sequence, "storage")
        assert np.max(np.abs(storage)) < 1e-12

    def test_epochs_beat_at_expected_frequencies(self, loaded):
        # periodogram oracle, independent of the fitting chain
        cfg = replace(loaded.config, delta_r_hz=3e3)
        trace = simulate_storage(cfg, loaded.sequence)

        def peak_frequency(samples):
            n = samples.size
            detrended = samples - samples.mean()
            spec = np.abs(np.fft.rfft(detrended, n=8 * n))
            freqs = np.fft.rfftfreq(8 * n, d=1.0 / cfg.sample_rate_hz)
            return freqs[np.argmax(spec)], freqs[1] - freqs[0]

        input_samples = _segment_slice(trace, loaded.sequence, "input")
        f_peak, df = peak_frequency(input_samples)
        assert f_peak == pytest.approx(685815.76 + 3e3, abs=3 * df)

        readout_samples = _segment_slice(trace, loaded.sequence, "readout")
        f_ret, df_ret = peak_frequency(readout_samples)
        assert f_ret == pytest.approx(685815.76 + 7000.0, abs=5 * df_ret)

        # beat epochs are separated by a quiet gap
        storage_rms = float(np.std(_segment_slice(trace, loaded.sequence, "storage")))
        input_rms = float(np.std(input_samples))
        assert storage_rms < 3 * cfg.trace_noise_sigma
        assert input_rms > 10 * storage_rms

    def test_input_amplitude_scaling(self, noiseless):
        cfg = noiseless.config
        trace = simulate_storage(cfg, noiseless.sequence)
        inp = _segment_slice(trace, noiseless.sequence, "input")
        expected = 2.0 * math.sqrt(
            cfg.control_leak_fraction * cfg.control.intensity * cfg.signal.intensity
        )
        half_swing = 0.5 * (inp.max() - inp.min())
        assert half_swing == pytest.approx(expected, rel=1e-2)

    def test_matched_frequencies_without_shift(self, noiseless):
        # delta_R = 0, no light shift: input and retrieved beats identical
        from lightstore.analysis import fit_beat

        cfg = replace(
            noiseless.config,
            delta_r_hz=0.0,
            light_shift=LightShiftModel(couplings=(), linewidth_rad=1e7),
        )
        trace = simulate_storage(cfg, noiseless.sequence)
        seq = noiseless.sequence
        guard = noiseless.study.guard_s
        fit_in = fit_beat(trace, (seq.phase("input").t_start + guard,
                                  seq.phase("input").t_end), with_envelope=False)
        fit_ret = fit_beat(trace, (seq.phase("readout").t_start + guard,
                                   seq.phase("readout").t_end), with_envelope=True)
        assert fit_in.f_b_hz == pytest.approx(fit_ret.f_b_hz, rel=1e-9)
        assert fit_in.f_b_hz == pytest.approx(cfg.magnetic.zeeman_splitting(), rel=1e-9)

    def test_deterministic_given_seed(self, loaded):
        a = simulate_storage(loaded.config, loaded.sequence)
        b = simulate_storage(loaded.config, loaded.sequence)
        assert np.array_equal(a.samples, b.samples)
        c = simulate_storage(replace(loaded.config, rng_seed=999), loaded.sequence)
        assert not np.array_equal(a.samples, c.samples)

    def test_noise_adds_to_the_shared_noise_free_record(self, loaded):
        cfg = loaded.config
        quiet = simulate_storage(replace(cfg, trace_noise_sigma=0.0), loaded.sequence)
        for seed in (cfg.rng_seed, 999):
            noisy = simulate_storage(replace(cfg, rng_seed=seed), loaded.sequence)
            noise = np.random.default_rng(seed).normal(0.0, cfg.trace_noise_sigma, quiet.n_samples)
            assert np.array_equal(noisy.samples, quiet.samples + noise)

    def test_signal_intensity_leaves_retrieved_frequency_alone(self, noiseless):
        from lightstore.analysis import fit_beat

        seq = noiseless.sequence
        window = (seq.phase("readout").t_start + 2e-6, seq.phase("readout").t_end)
        cfg1 = noiseless.config
        cfg2 = with_signal_intensity(cfg1, 3.0 * cfg1.signal.intensity)
        f1 = fit_beat(simulate_storage(cfg1, seq), window, with_envelope=True)
        f2 = fit_beat(simulate_storage(cfg2, seq), window, with_envelope=True)
        assert f2.f_b_hz == pytest.approx(f1.f_b_hz, rel=1e-10)
        assert f2.amplitude == pytest.approx(math.sqrt(3.0) * f1.amplitude, rel=1e-9)

    def test_beat_above_nyquist_rejected(self, loaded):
        # a huge calibrated shift pushes the retrieved beat past fs/2 while
        # the splitting itself still satisfies the config margin
        shift = LightShiftModel(
            couplings=(ShiftCoupling(2.0e9, 5e5),), linewidth_rad=1e7,
        )
        cfg = replace(loaded.config, light_shift=shift)
        with pytest.raises(ConfigurationError, match="Nyquist"):
            simulate_storage(cfg, loaded.sequence)


class TestTraceCsv:
    def test_round_trip_identical(self, loaded, tmp_path, write_csv_trace):
        trace = simulate_storage(loaded.config, loaded.sequence)
        back = read_trace_csv(write_csv_trace(trace, tmp_path / "trace.csv"))
        assert np.array_equal(back.samples, trace.samples)
        assert back.sample_rate_hz == trace.sample_rate_hz
        assert back.t0_s == trace.t0_s

    @settings(max_examples=60)
    @given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=40),
           st.sampled_from(["\n", "\r\n"]), st.data())
    def test_any_finite_samples_read_back_bit_equal(self, tmp_path_factory, samples, newline, data):
        rows = [f"{k * 2e-7!r},{v!r}" for k, v in enumerate(samples)]
        for _ in range(data.draw(st.integers(0, 3), label="blank rows")):
            rows.insert(data.draw(st.integers(0, len(rows)), label="at"), "")
        path = tmp_path_factory.mktemp("trace") / "t.csv"
        path.write_bytes(newline.join(["# sample_rate_hz=5000000.0 t0_s=0.0", *rows, ""]).encode())
        back = read_trace_csv(path)
        assert back.samples.tobytes() == np.array(samples, dtype=np.float64).tobytes()

    def test_the_writer_refuses_a_csv_path(self, loaded, tmp_path):
        trace = simulate_storage(loaded.config, loaded.sequence)
        with pytest.raises(ValueError, match="trace files are written as .npz"):
            write_trace_csv(trace, tmp_path / "t.csv")
        assert not (tmp_path / "t.csv").exists()

    def test_truncated_file(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# sample_rate_hz=5000000.0 t0_s=0.0\n")
        with pytest.raises(TraceParseError, match="no samples"):
            read_trace_csv(path)

    def test_bad_header(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("time,signal\n0.0,1.0\n")
        with pytest.raises(TraceParseError, match="line 1"):
            read_trace_csv(path)

    def test_bad_row_reports_line_number(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# sample_rate_hz=5000000.0 t0_s=0.0\n0.0,1.0\n2e-7,oops\n")
        with pytest.raises(TraceParseError, match="line 3"):
            read_trace_csv(path)

    @pytest.mark.parametrize("rows, samples", [
        # a space inside the time cell: the signal is still the cell after the comma
        ("1.0 2.0,3.0\n", [3.0]),
        # the time column is never parsed
        ("abc,1.0\n2e-7,2.0\n", [1.0, 2.0]),
        # a space in one time cell, an empty time cell in the next
        ("1 2,3\n,4\n", [3.0, 4.0]),
        ("0.0,1.0\n\n  \n4e-7,2.0\n", [1.0, 2.0]),
    ])
    def test_signal_cells_are_read_and_blank_rows_skipped(self, tmp_path, rows, samples):
        path = tmp_path / "t.csv"
        path.write_text("# sample_rate_hz=5000000.0 t0_s=0.0\n" + rows)
        assert read_trace_csv(path).samples.tolist() == samples

    @pytest.mark.parametrize("rows, message", [
        ("0.0,1.0\n2e-7,oops\n",
         "line 3: bad signal value: could not convert string to float: 'oops'"),
        # the first bad row is named: one cell, then three
        ("1\n2,3,4\n", "line 2: expected 'time_s,signal', got '1'"),
        ("0.0,1.0\n2e-7,2.0,\n", "line 3: expected 'time_s,signal', got '2e-7,2.0,'"),
    ])
    def test_bad_rows_are_named_by_line(self, tmp_path, rows, message):
        path = tmp_path / "t.csv"
        path.write_text("# sample_rate_hz=5000000.0 t0_s=0.0\n" + rows)
        with pytest.raises(TraceParseError) as exc:
            read_trace_csv(path)
        assert str(exc.value) == message

    @pytest.mark.parametrize("blank", [False, True])
    @pytest.mark.parametrize("row", [0, 2, 4])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_sample_names_its_line(self, tmp_path, value, row, blank):
        rows = [f"{k * 2e-7!r},1.0" for k in range(5)]
        rows[row] = f"{row * 2e-7!r},{value}"
        if blank:
            rows.insert(row, "")
        path = tmp_path / "t.csv"
        path.write_text("# sample_rate_hz=5000000.0 t0_s=0.0\n" + "\n".join(rows) + "\n")
        with pytest.raises(TraceParseError) as exc:
            read_trace_csv(path)
        assert str(exc.value) == f"line {row + 2 + blank}: non-finite signal value {value!r}"

    @settings(max_examples=60)
    @given(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=40), st.data())
    def test_non_finite_sample_at_any_row_names_its_line(self, tmp_path_factory, samples, data):
        row = data.draw(st.integers(0, len(samples) - 1), label="row")
        value = data.draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]), label="value")
        blank = data.draw(st.booleans(), label="blank row before it")
        rows = [f"{k * 2e-7!r},{v!r}" for k, v in enumerate(samples)]
        rows[row] = f"{row * 2e-7!r},{value}"
        if blank:
            rows.insert(row, "")
        path = tmp_path_factory.mktemp("trace") / "t.csv"
        path.write_text("# sample_rate_hz=5000000.0 t0_s=0.0\n" + "\n".join(rows) + "\n")
        with pytest.raises(TraceParseError, match=f"^line {row + 2 + blank}: non-finite "):
            read_trace_csv(path)

    def test_non_finite_samples_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            PhotodiodeTrace(t0_s=0.0, sample_rate_hz=1e6, samples=np.array([1.0, np.nan]))


    @pytest.mark.parametrize("raw, lineno, byte", [
        (b"\xff\xfe# sample_rate_hz=5000000.0 t0_s=0.0\n", 1, 0xff),
        (b"# sample_rate_hz=5000000.0 t0_s=0.0\r\n0.0,1.0\r\n2e-7,1\xe9\r\n", 3, 0xe9),
        (b"# sample_rate_hz=5000000.0 t0_s=0.0\n0.0,1.0\n\n\x80", 4, 0x80),
        (b"# sample_rate_hz=5000000.0 t0_s=0.0\r0.0,\xc3(\r", 2, 0xc3),
    ])
    def test_bytes_that_are_not_utf8_are_named_by_line(self, tmp_path, raw, lineno, byte):
        path = tmp_path / "t.csv"
        path.write_bytes(raw)
        with pytest.raises(TraceParseError) as exc:
            read_trace_csv(path)
        offset = raw.index(bytes([byte]))
        assert str(exc.value) == f"line {lineno}: not UTF-8 text: byte 0x{byte:02x} at offset {offset}"


class _Unpickled:
    """Records its own unpickling, which a trace reader must never do."""

    calls = []

    def __reduce__(self):
        return (_Unpickled.calls.append, ("unpickled",))


def _npz(path, **arrays):
    np.savez(path, **arrays)
    return path


class TestTraceNpz:
    @pytest.fixture()
    def trace(self, loaded):
        return simulate_storage(loaded.config, loaded.sequence)

    @pytest.mark.parametrize("t0, fs", [(None, None), (-1.25e-5, 3.3e6), (0.1 + 0.2, 1e7 / 3)])
    def test_round_trip_is_bit_equal(self, trace, tmp_path, t0, fs):
        if t0 is not None:
            trace = replace(trace, t0_s=t0, sample_rate_hz=fs)
        path = tmp_path / "trace.npz"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert back.samples.tobytes() == trace.samples.tobytes()
        assert back.samples.dtype == np.float64
        assert repr(back.sample_rate_hz) == repr(trace.sample_rate_hz)
        assert repr(back.t0_s) == repr(trace.t0_s)

    def test_file_holds_exactly_the_three_arrays(self, trace, tmp_path):
        path = tmp_path / "trace.npz"
        write_trace_csv(trace, path)
        with np.load(path, allow_pickle=False) as npz:
            assert npz.files == list(storage.NPZ_KEYS) == ["samples", "sample_rate_hz", "t0_s"]
            assert npz["samples"].shape == (trace.n_samples,)
            assert npz["sample_rate_hz"].shape == npz["t0_s"].shape == ()
            assert {npz[k].dtype for k in npz.files} == {np.dtype(np.float64)}
        assert np.load(path)["samples"].tobytes() == trace.samples.tobytes()

    def test_writes_are_byte_identical_whatever_the_clock(self, trace, tmp_path, monkeypatch):
        import time

        real = time.time
        write_trace_csv(trace, tmp_path / "a.npz")
        monkeypatch.setattr(time, "time", lambda: real() + 86400.0 * 400)
        write_trace_csv(trace, tmp_path / "b.npz")
        assert (tmp_path / "a.npz").read_bytes() == (tmp_path / "b.npz").read_bytes()

    def test_a_pickled_object_array_is_refused_without_unpickling(self, tmp_path):
        path = tmp_path / "t.npz"
        np.savez(path, samples=np.array([_Unpickled(), 1.0], dtype=object),
                 sample_rate_hz=5e6, t0_s=0.0)
        _Unpickled.calls.clear()
        with pytest.raises(TraceParseError) as exc:
            read_trace_csv(path)
        assert str(exc.value) == (f"{path}: unreadable archive: Object arrays cannot be "
                                  "loaded when allow_pickle=False")
        assert _Unpickled.calls == []

    GOOD = {"samples": np.array([1.0, 2.0, 3.0]), "sample_rate_hz": 5e6, "t0_s": 0.0}

    @pytest.mark.parametrize("change, message", [
        ({"t0_s": None}, "expected arrays samples, sample_rate_hz, t0_s, got sample_rate_hz, samples"),
        ({"extra": 1.0}, "expected arrays samples, sample_rate_hz, t0_s, "
                         "got extra, sample_rate_hz, samples, t0_s"),
        ({"samples": np.array([1, 2, 3])},
         "'samples' must be a non-empty 1-D float64 array, got int64 of shape (3,)"),
        ({"samples": np.ones(3, dtype=np.float32)},
         "'samples' must be a non-empty 1-D float64 array, got float32 of shape (3,)"),
        ({"samples": np.ones((2, 2))},
         "'samples' must be a non-empty 1-D float64 array, got float64 of shape (2, 2)"),
        ({"samples": np.ones(0)},
         "'samples' must be a non-empty 1-D float64 array, got float64 of shape (0,)"),
        ({"sample_rate_hz": np.array([5e6])},
         "'sample_rate_hz' must be a 0-d float64 array, got float64 of shape (1,)"),
        ({"t0_s": np.int64(0)}, "'t0_s' must be a 0-d float64 array, got int64 of shape ()"),
        ({"samples": np.array([1.0, 2.0, np.nan])}, "non-finite sample nan at index 2"),
        ({"samples": np.array([-np.inf, 2.0, np.nan])}, "non-finite sample -inf at index 0"),
        ({"sample_rate_hz": np.inf}, "sample_rate_hz must be finite and > 0, got inf"),
        ({"sample_rate_hz": -5e6}, "sample_rate_hz must be finite and > 0, got -5000000.0"),
        ({"t0_s": np.nan}, "t0_s must be finite, got nan"),
    ])
    def test_bad_arrays_are_named(self, tmp_path, change, message):
        arrays = {k: v for k, v in {**self.GOOD, **change}.items() if v is not None}
        path = _npz(tmp_path / "t.npz", **arrays)
        with pytest.raises(TraceParseError) as exc:
            read_trace_csv(path)
        assert str(exc.value) == f"{path}: {message}"

    def test_a_file_that_is_not_a_zip_archive(self, tmp_path, trace):
        for name, raw in (("empty.npz", b""), ("text.npz", b"# sample_rate_hz=5e6 t0_s=0\n")):
            (tmp_path / name).write_bytes(raw)
            with pytest.raises(TraceParseError) as exc:
                read_trace_csv(tmp_path / name)
            assert str(exc.value) == f"{tmp_path / name}: not a zip archive"
        np.save(tmp_path / "array.npy", trace.samples)
        path = (tmp_path / "array.npy").rename(tmp_path / "array.npz")
        with pytest.raises(TraceParseError, match="not a zip archive$"):
            read_trace_csv(path)

    def test_a_truncated_archive(self, tmp_path, trace):
        path = tmp_path / "t.npz"
        write_trace_csv(trace, path)
        path.write_bytes(path.read_bytes()[:1000])
        with pytest.raises(TraceParseError) as exc:
            read_trace_csv(path)
        assert str(exc.value) == f"{path}: unreadable archive: File is not a zip file"

    @pytest.mark.parametrize("save, offset, message", [
        (np.savez, 300, "Bad CRC-32 for file 'samples.npy'"),
        (np.savez, 120, "('EOF in multi-line statement', (2, 0))"),
        (np.savez_compressed, 120,
         "Error -3 while decompressing data: invalid literal/lengths set"),
    ], ids=["samples", "npy_header", "compressed"])
    def test_a_corrupted_member(self, tmp_path, save, offset, message):
        path = tmp_path / "t.npz"
        save(path, **{**self.GOOD, "samples": np.random.default_rng(0).normal(size=500)})
        raw = bytearray(path.read_bytes())
        raw[offset:offset + 20] = bytes(20)
        path.write_bytes(raw)
        with pytest.raises(TraceParseError) as exc:
            read_trace_csv(path)
        assert str(exc.value) == f"{path}: unreadable archive: {message}"

    def test_a_member_that_is_not_an_array(self, tmp_path):
        import zipfile

        path = tmp_path / "t.npz"
        with zipfile.ZipFile(path, "w") as zf:
            for name in ("samples", "sample_rate_hz.npy", "t0_s.npy"):
                zf.writestr(name, b"raw bytes")
        with pytest.raises(TraceParseError) as exc:
            read_trace_csv(path)
        assert str(exc.value) == f"{path}: 'samples' is not a .npy array"


class TestInputBeatFrequency:
    def test_splitting_plus_detuning(self, config):
        cfg = replace(config, delta_r_hz=4e3)
        assert input_beat_frequency(cfg) == pytest.approx(
            cfg.magnetic.zeeman_splitting() + 4e3
        )


def test_storage_imports_neither_atom_nor_scipy():
    # trace synthesis reads the light shift from the config, not from the
    # master-equation module and its scipy dependency
    code = (
        "import sys\n"
        "import lightstore.storage\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'lightstore.atom' or m.split('.')[0] == 'scipy'))\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(lightstore.__file__).parents[1]))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=120, check=True)
    assert proc.stdout.strip() == "[]"
