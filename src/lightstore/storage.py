"""Light-storage protocol and photodiode-trace synthesis.

Storage is modeled at the polariton level: the input beat's phase is handed
to the ground-state spin wave when the fields switch off, advances at the
bare Zeeman splitting while stored, and re-emerges on readout at the
retrieved beat frequency (splitting + differential light shift of the
retrieval drive + geometric pulling).  No spatial propagation is computed;
the observables of interest are carried entirely by this phase bookkeeping.

Traces are written only as binary .npz files, the format of run
directories.  A trace CSV, the interchange format of measured traces, is
read but never written.
"""

from __future__ import annotations

import functools
import math
import re
import tokenize
import zipfile
import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .model import (
    TWO_PI,
    ConfigurationError,
    ExperimentConfig,
    MagneticEnvironment,
    PulseSequence,
    PHASE_INPUT,
    PHASE_READOUT,
)

__all__ = [
    "PhotodiodeTrace",
    "TraceParseError",
    "mixing_angle",
    "frequency_pulling",
    "retrieved_beat_frequency",
    "simulate_storage",
    "input_beat_frequency",
    "write_trace_csv",
    "read_trace_csv",
]


class TraceParseError(ValueError):
    """A trace file that fit reads is not a valid .npz trace or trace CSV."""


def mixing_angle(gn_rad: float, omega_c_rad: float) -> float:
    """Polariton mixing angle, tan(theta) = g sqrt(N) / Omega_C, in [0, pi/2].

    gn_rad is the collective coupling g sqrt(N).  theta -> 0 is fully
    photonic (strong control), theta = pi/2 is a pure spin wave (control
    off); with no coupling and no drive nothing is read out, so that case is
    pi/2 too.
    """
    if gn_rad < 0.0:
        raise ValueError("coupling must be >= 0")
    if omega_c_rad < 0.0:
        raise ValueError("control Rabi frequency must be >= 0")
    if gn_rad == 0.0 and omega_c_rad == 0.0:
        return 0.5 * math.pi
    return math.atan2(gn_rad, omega_c_rad)


def frequency_pulling(delta_r_hz: float, alpha_rad: float, theta_rad: float) -> float:
    """Residual detuning dependence delta_R (1 - cos alpha) cos^2(theta), Hz.

    Vanishes for collinear beams (alpha = 0) and for a pure spin wave
    (theta = pi/2).
    """
    return delta_r_hz * (1.0 - math.cos(alpha_rad)) * math.cos(theta_rad) ** 2


def retrieved_beat_frequency(
    magnetic: MagneticEnvironment,
    light_shift_hz: float,
    alpha_rad: float,
    theta_rad: float,
    delta_r_hz: float,
) -> float:
    """Beat frequency of the retrieved signal against the readout control (Hz).

    Locks to the atomic splitting plus ``light_shift_hz``, the light shift of
    the retrieval drive; the input detuning enters only through the geometric
    pulling term and drops out entirely for collinear beams.
    """
    return (
        magnetic.zeeman_splitting()
        + light_shift_hz
        + frequency_pulling(delta_r_hz, alpha_rad, theta_rad)
    )


def input_beat_frequency(config: ExperimentConfig) -> float:
    """Beat of the input signal against the control: splitting + delta_R (Hz)."""
    return config.magnetic.zeeman_splitting() + config.delta_r_hz


@dataclass(frozen=True)
class PhotodiodeTrace:
    """Uniformly sampled detector record of the full pulse sequence."""

    t0_s: float
    sample_rate_hz: float
    samples: np.ndarray

    def __post_init__(self) -> None:
        arr = np.array(self.samples, dtype=float)
        if arr.ndim != 1:
            raise ValueError("samples must be one-dimensional")
        if not np.all(np.isfinite(arr)):
            raise ValueError("samples contain non-finite values")
        arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)
        if not (self.sample_rate_hz > 0.0 and math.isfinite(self.sample_rate_hz)):
            raise ValueError(f"sample_rate_hz must be finite and > 0, got {self.sample_rate_hz!r}")
        if not math.isfinite(self.t0_s):
            raise ValueError(f"t0_s must be finite, got {self.t0_s!r}")

    @property
    def n_samples(self) -> int:
        return int(self.samples.size)

    @property
    def duration_s(self) -> float:
        return self.n_samples / self.sample_rate_hz

    def times(self) -> np.ndarray:
        return self.t0_s + np.arange(self.n_samples) / self.sample_rate_hz

    def index_range(self, t_a: float, t_b: float) -> tuple[int, int]:
        """Sample index span [i_a, i_b) for the half-open window [t_a, t_b).

        Boundaries within a millionth of a sample of a grid point count as
        on-grid, so 1-ulp wobble in stored segment times cannot shift the
        selection; a window ending exactly on a segment edge excludes the
        first sample of the next segment.
        """
        eps = 1e-6
        i_a = max(0, int(math.ceil((t_a - self.t0_s) * self.sample_rate_hz - eps)))
        i_b = min(self.n_samples, int(math.ceil((t_b - self.t0_s) * self.sample_rate_hz - eps)))
        return i_a, i_b


def simulate_storage(config: ExperimentConfig, sequence: PulseSequence) -> PhotodiodeTrace:
    """Synthesize the photodiode record of one storage/retrieval cycle.

    Per segment: control-only phases carry the leaked-control DC level;
    the input phase beats at splitting + delta_R with amplitude
    2 sqrt(leak I_C I_S); the storage gap is dark; the readout phase beats
    at the retrieved frequency with an exponential envelope whose initial
    amplitude is scaled by sqrt(storage_efficiency).  White Gaussian noise
    of width trace_noise_sigma is added throughout; identical seeds give
    bit-identical traces.  Repetitions of a detuning point share the cached
    noise-free record, which depends on neither seed nor noise width.
    """
    signal = _noise_free_record(replace(config, rng_seed=0, trace_noise_sigma=0.0), sequence)
    if config.trace_noise_sigma > 0.0:
        rng = np.random.default_rng(config.rng_seed)
        signal = signal + rng.normal(0.0, config.trace_noise_sigma, signal.size)
    return PhotodiodeTrace(t0_s=sequence.t_start, sample_rate_hz=config.sample_rate_hz, samples=signal)


@functools.lru_cache(maxsize=16)
def _noise_free_record(config: ExperimentConfig, sequence: PulseSequence) -> np.ndarray:
    """The noise-free samples of one cycle; read-only, since the cache shares them."""
    fs = config.sample_rate_hz
    f_in = input_beat_frequency(config)
    theta_out = mixing_angle(config.coupling_gn_rad, config.readout_rabi_rad())
    f_ret = retrieved_beat_frequency(
        config.magnetic,
        config.light_shift_hz(config.readout_intensity()),
        config.signal.angle_alpha_rad,
        theta_out,
        config.delta_r_hz,
    )
    if 2.0 * max(abs(f_in), abs(f_ret)) >= fs:
        raise ConfigurationError(
            f"beat frequencies ({f_in:.3e}, {f_ret:.3e} Hz) violate Nyquist at {fs:.3e} Hz"
        )

    t0 = sequence.t_start
    n_total = int(round((sequence.t_end - t0) * fs))
    edges = [int(round((b - t0) * fs)) for b in sequence.boundaries]
    edges[-1] = n_total
    signal = np.zeros(n_total)

    leak = config.control_leak_fraction
    i_s = config.signal.intensity
    zeeman = config.magnetic.zeeman_splitting()

    stored = False
    input_end_phase = 0.0
    input_end_time = 0.0
    for seg, i_a, i_b in zip(sequence.segments, edges[:-1], edges[1:]):
        if i_b <= i_a:
            continue
        t = t0 + np.arange(i_a, i_b) / fs
        i_c = config.readout_intensity() if seg.name == PHASE_READOUT else config.control.intensity
        dc = (leak * i_c if seg.control_on else 0.0) + (i_s if seg.signal_on else 0.0)
        chunk = np.full(t.size, dc)
        if seg.control_on and seg.signal_on:
            amp = 2.0 * math.sqrt(leak * i_c * i_s)
            chunk += amp * np.sin(TWO_PI * f_in * (t - seg.t_start))
            if seg.name == PHASE_INPUT:
                stored = True
                input_end_time = seg.t_end
                input_end_phase = TWO_PI * f_in * (seg.t_end - seg.t_start)
        elif seg.name == PHASE_READOUT and stored and config.storage_efficiency > 0.0:
            # spin-wave phase advances at the bare splitting while dark
            phase0 = input_end_phase + TWO_PI * zeeman * (seg.t_start - input_end_time)
            amp = 2.0 * math.sqrt(
                config.storage_efficiency * leak * config.readout_intensity() * i_s
            )
            envelope = np.exp(-(t - seg.t_start) / config.retrieval_decay_time_s)
            chunk += amp * envelope * np.sin(phase0 + TWO_PI * f_ret * (t - seg.t_start))
        signal[i_a:i_b] = chunk
    signal.setflags(write=False)
    return signal


# -- trace file formats ------------------------------------------------------

_HEADER_RE = re.compile(r"^#\s*sample_rate_hz=(\S+)\s+t0_s=(\S+)\s*$")
# The arrays of a binary trace file, in the order they are written
NPZ_KEYS = ("samples", "sample_rate_hz", "t0_s")
_ZIP_MAGIC = (b"PK\x03\x04", b"PK\x05\x06")


def write_trace_csv(trace: PhotodiodeTrace, path: "str | Path") -> None:
    """Write a trace as a binary .npz file; any other suffix raises ValueError.

    The .npz is NumPy's uncompressed archive of exactly the NPZ_KEYS arrays:
    the float64 samples and the 0-d float64 sample_rate_hz and t0_s, and two
    writes of one trace are byte-identical.  Runs persist their traces this
    way.  The name predates the binary format; the benchmark's tracer wraps
    this function by name.
    """
    if Path(path).suffix != ".npz":
        raise ValueError(f"trace files are written as .npz, got {str(path)!r}")
    with open(path, "wb") as fh:
        np.savez(fh, samples=trace.samples, sample_rate_hz=np.float64(trace.sample_rate_hz),
                 t0_s=np.float64(trace.t0_s))


def read_trace_csv(path: "str | Path") -> PhotodiodeTrace:
    """Read a trace file: the .npz a run wrote, or a measured trace CSV.

    A path ending in .npz is read as the binary format, without unpickling
    anything; a bad file raises TraceParseError naming the file and what is
    wrong.  Any other path is parsed as CSV: one comment header with the
    sampling metadata, then time,signal rows, of which only the signal
    column is read and blank rows are skipped.  TraceParseError names the
    first offending line, a byte that is not UTF-8 included.  The name
    predates the binary format; the benchmark's tracer wraps this function
    by name.
    """
    if Path(path).suffix == ".npz":
        return _read_trace_npz(path)
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        lines = raw.decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        lineno = len((raw[:exc.start].decode("utf-8") + "x").splitlines())
        raise TraceParseError(
            f"line {lineno}: not UTF-8 text: byte 0x{raw[exc.start]:02x} at offset {exc.start}"
        ) from exc
    if not lines:
        raise TraceParseError("line 1: empty trace file")
    match = _HEADER_RE.match(lines[0])
    if not match:
        raise TraceParseError(
            "line 1: expected header '# sample_rate_hz=<v> t0_s=<v>', got "
            f"{lines[0][:60]!r}"
        )
    try:
        fs = float(match.group(1))
        t0 = float(match.group(2))
    except ValueError as exc:
        raise TraceParseError(f"line 1: bad header value: {exc}") from exc
    values = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split(",")
        if len(parts) != 2:
            raise TraceParseError(f"line {lineno}: expected 'time_s,signal', got {line[:60]!r}")
        try:
            values.append(float(parts[1]))
        except ValueError as exc:
            raise TraceParseError(f"line {lineno}: bad signal value: {exc}") from exc
        if not math.isfinite(values[-1]):
            raise TraceParseError(f"line {lineno}: non-finite signal value {parts[1]!r}")
    if not values:
        raise TraceParseError("line 2: trace has no samples")
    try:
        return PhotodiodeTrace(t0_s=t0, sample_rate_hz=fs, samples=values)
    except ValueError as exc:
        raise TraceParseError(f"line 1: {exc}") from exc


def _read_trace_npz(path: "str | Path") -> PhotodiodeTrace:
    """Load the NPZ_KEYS arrays of a binary trace file, checking each."""
    with open(path, "rb") as fh:
        if fh.read(4) not in _ZIP_MAGIC:
            raise TraceParseError(f"{path}: not a zip archive")
        fh.seek(0)
        try:
            with np.load(fh, allow_pickle=False) as npz:
                files = sorted(npz.files)
                arrays = {key: npz[key] for key in NPZ_KEYS} if files == sorted(NPZ_KEYS) else None
        except (ValueError, EOFError, tokenize.TokenError, zipfile.BadZipFile,
                zlib.error) as exc:
            raise TraceParseError(f"{path}: unreadable archive: {exc}") from exc
    if arrays is None:
        raise TraceParseError(
            f"{path}: expected arrays {', '.join(NPZ_KEYS)}, got {', '.join(files) or 'none'}"
        )
    for key, arr in arrays.items():
        if not isinstance(arr, np.ndarray):
            raise TraceParseError(f"{path}: {key!r} is not a .npy array")
        ndim = 1 if key == "samples" else 0
        if arr.dtype != np.float64 or arr.ndim != ndim or (ndim and not arr.size):
            raise TraceParseError(
                f"{path}: {key!r} must be a {'non-empty 1-D' if ndim else '0-d'} float64 "
                f"array, got {arr.dtype} of shape {arr.shape}"
            )
    samples = arrays["samples"]
    bad = np.flatnonzero(~np.isfinite(samples))
    if bad.size:
        raise TraceParseError(
            f"{path}: non-finite sample {float(samples[bad[0]])!r} at index {int(bad[0])}"
        )
    try:
        return PhotodiodeTrace(t0_s=float(arrays["t0_s"]),
                               sample_rate_hz=float(arrays["sample_rate_hz"]), samples=samples)
    except ValueError as exc:
        raise TraceParseError(f"{path}: {exc}") from exc
