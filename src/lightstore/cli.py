"""Command-line front end.

Subcommands: dark-resonance, spectroscopy, control-sweep, signal-sweep, fit,
init-config.  Exit codes: 0 success, 1 configuration error, 2 numerical
failure, 3 I/O error.  The job count comes from --jobs, default 1; a count
below 1 is a configuration error.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .analysis import FitError
from .atom import DegenerateSteadyStateError
from .configfile import default_config, dump_config, load_config
from .model import ConfigurationError
from .orchestrator import (
    OrchestrationError,
    StudyPlan,
    fit_only,
    run_control_sweep,
    run_dark_resonance,
    run_signal_sweep,
    run_spectroscopy,
)
from .storage import TraceParseError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_NUMERICAL = 2
EXIT_IO = 3


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for numerical
    # failures here, so remap usage problems to the configuration code.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_CONFIG, f"{self.prog}: error: {message}\n")


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", type=Path, default=None,
                     help="experiment config file (defaults to the calibrated built-ins)")
    sub.add_argument("--out", type=Path, required=True, help="output directory for this run")
    sub.add_argument("--seed", type=int, default=None,
                     help="seed base (defaults to the config rng_seed)")
    sub.add_argument("--jobs", type=int, default=1, help="parallel point evaluation (default 1)")
    sub.add_argument("--no-traces", action="store_true",
                     help="do not persist raw trace files")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lightstore",
                     description="Light-storage spectroscopy simulator and analysis")
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    subs = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    for name, help_text in (
        ("dark-resonance", "steady-state transmission spectrum vs Raman detuning"),
        ("spectroscopy", "beat-frequency spectroscopy over the detuning grid"),
        ("control-sweep", "light shift vs retrieval control intensity"),
        ("signal-sweep", "light shift vs input signal intensity"),
    ):
        _add_common(subs.add_parser(name, help=help_text))

    fit = subs.add_parser("fit", help="fit a beat note in a stored trace file")
    fit.add_argument("--out", type=Path, required=True, help="output directory for the fit")
    fit.add_argument("trace", type=Path,
                     help="trace file: a .csv, or a .npz as a run directory holds")
    fit.add_argument("--window", type=float, nargs=2, metavar=("T_A", "T_B"),
                     default=None, help="fit window in seconds (default: whole trace)")
    fit.add_argument("--f-guess", type=float, default=None,
                     help="seed frequency in Hz (default: periodogram peak)")
    fit.add_argument("--envelope", action="store_true",
                     help="fit an exponential envelope (retrieved epochs)")

    init = subs.add_parser("init-config", help="write the calibrated default config")
    init.add_argument("path", type=Path, help="file to create")
    return parser


def _print_kv(rows) -> None:
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"  {key:<{width}}  {value}")


# What a study prints, per kind: the study, then a header over the record's
# point counts (or None) and (label, summary keys, format of their values)
# rows; a row whose keys the summary lacks is not printed.
_STUDIES = {
    "spectroscopy": (run_spectroscopy, "spectroscopy: {usable} points, {excluded} excluded", (
        ("input slope", ("input_slope", "input_slope_err"), "{:.6f} +- {:.6f}".format),
        ("retrieved slope", ("retrieved_slope", "retrieved_slope_err"),
         "{:.6f} +- {:.6f}".format),
        ("delta_f_ac", ("delta_f_ac_hz", "delta_f_ac_err_hz"), "{:.3f} +- {:.3f} Hz".format),
    )),
    "dark_resonance": (run_dark_resonance, None, (
        ("FWHM", ("fwhm_hz",), lambda hz: f"{hz / 1e3:.3f} kHz"),
        ("peak at", ("peak_delta_r_hz",), "{:.1f} Hz".format),
        ("peak transmission", ("peak_transmission",), "{:.4f}".format),
    )),
    "control_sweep": (run_control_sweep, None, (
        ("slope", ("slope_hz_per_intensity", "slope_err_hz_per_intensity"),
         "{:.4f} +- {:.4f} Hz per I/I_sat".format),
        ("intercept", ("intercept_hz", "intercept_err_hz"), "{:.3f} +- {:.3f} Hz".format),
        ("R^2", ("r_squared",), "{:.6f}".format),
    )),
    "signal_sweep": (run_signal_sweep, None, (
        ("full-range slope", ("full_slope_hz_per_intensity", "full_slope_err_hz_per_intensity"),
         "{:.4f} +- {:.4f} Hz per I/I_sat".format),
        ("full-range |t|", ("full_slope_t_statistic",), lambda t: f"{abs(t):.3f}"),
        ("restricted slope",
         ("restricted_slope_hz_per_intensity", "restricted_slope_err_hz_per_intensity"),
         "{:.4f} +- {:.4f}".format),
        ("restricted |t|", ("restricted_slope_t_statistic",), lambda t: f"{abs(t):.3f}"),
    )),
}


def _run_study(args, kind: str) -> int:
    loaded = default_config() if args.config is None else load_config(args.config)
    plan = StudyPlan.from_loaded(loaded, kind, seed_base=args.seed, out_dir=args.out,
                                 jobs=args.jobs, persist_traces=not args.no_traces)
    run, header, rows = _STUDIES[kind]
    record = run(plan)[-1]
    if header is not None:
        excluded = sum(p.excluded for p in record.points)
        print(header.format(usable=len(record.points) - excluded, excluded=excluded))
    summary = dict(record.summary)
    _print_kv([(label, fmt(*(summary[k] for k in keys))) for label, keys, fmt in rows
               if all(k in summary for k in keys)])
    print(f"outputs in {args.out}")
    return EXIT_OK


def _run_fit(args) -> int:
    window = None if args.window is None else (args.window[0], args.window[1])
    fit = fit_only(
        args.trace,
        window=window,
        f_guess=args.f_guess,
        with_envelope=args.envelope,
        out_dir=args.out,
    )
    _print_kv([
        ("f_b", f"{fit.f_b_hz:.3f} +- {fit.f_b_err_hz:.3f} Hz"),
        ("amplitude", f"{fit.amplitude:.4g} +- {fit.amplitude_err:.4g}"),
        ("tau_e", "inf" if math.isinf(fit.envelope_decay_time_s)
                  else f"{fit.envelope_decay_time_s:.4g} s"),
        ("rms residual", f"{fit.rms_residual:.4g}"),
        ("converged", str(fit.converged).lower()),
    ])
    print(f"outputs in {args.out}")
    return EXIT_OK


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "init-config":
            dump_config(default_config(), args.path)
            print(f"wrote {args.path}")
            return EXIT_OK
        if args.command == "fit":
            return _run_fit(args)
        kind = args.command.replace("-", "_")
        return _run_study(args, kind)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except TraceParseError as exc:
        print(f"trace parse error: {exc}", file=sys.stderr)
        return EXIT_IO
    except (FitError, DegenerateSteadyStateError, OrchestrationError,
            np.linalg.LinAlgError, FloatingPointError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
