"""Command-line front end.

Subcommands: dark-resonance, spectroscopy, control-sweep, signal-sweep, fit,
init-config.  Exit codes: 0 success, 1 configuration error, 2 numerical
failure, 3 I/O error.  The job count comes from --jobs, else the
LIGHTSTORE_JOBS environment variable, else 1; a count below 1 is a
configuration error.
"""

from __future__ import annotations

import argparse
import math
import os
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

JOBS_ENV_VAR = "LIGHTSTORE_JOBS"


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
    sub.add_argument("--jobs", type=int, default=None,
                     help=f"parallel point evaluation (default ${JOBS_ENV_VAR} or 1)")
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


def _resolve_jobs(args) -> int:
    if args.jobs is not None:
        return args.jobs
    env = os.environ.get(JOBS_ENV_VAR, "").strip()
    if env:
        try:
            return int(env)
        except ValueError as exc:
            raise ConfigurationError(f"bad {JOBS_ENV_VAR} value {env!r}") from exc
    return 1


def _load(args):
    if args.config is None:
        return default_config()
    return load_config(args.config)


def _print_kv(rows) -> None:
    width = max(len(k) for k, _ in rows)
    for key, value in rows:
        print(f"  {key:<{width}}  {value}")


def _run_study(args, kind: str) -> int:
    loaded = _load(args)
    plan = StudyPlan.from_loaded(
        loaded, kind,
        seed_base=args.seed,
        out_dir=args.out,
        jobs=_resolve_jobs(args),
        persist_traces=not args.no_traces,
    )
    if kind == "spectroscopy":
        result, record = run_spectroscopy(plan)
        print(f"spectroscopy: {len(result.points)} points, "
              f"{sum(p.excluded for p in record.points)} excluded")
        _print_kv([
            ("input slope", f"{result.input_fit.slope:.6f} +- {result.input_fit.slope_err:.6f}"),
            ("retrieved slope", f"{result.retrieved_fit.slope:.6f} +- {result.retrieved_fit.slope_err:.6f}"),
            ("delta_f_ac", f"{result.delta_f_ac_hz:.3f} +- {result.delta_f_ac_err_hz:.3f} Hz"),
        ])
    elif kind == "dark_resonance":
        points, record = run_dark_resonance(plan)
        summary = dict(record.summary)
        _print_kv([
            ("FWHM", f"{summary['fwhm_hz'] / 1e3:.3f} kHz"),
            ("peak at", f"{summary['peak_delta_r_hz']:.1f} Hz"),
            ("peak transmission", f"{summary['peak_transmission']:.4f}"),
        ])
    elif kind == "control_sweep":
        triples, fit, record = run_control_sweep(plan)
        summary = dict(record.summary)
        _print_kv([
            ("slope", f"{fit.slope:.4f} +- {fit.slope_err:.4f} Hz per I/I_sat"),
            ("intercept", f"{fit.intercept:.3f} +- {fit.intercept_err:.3f} Hz"),
            ("R^2", f"{summary['r_squared']:.6f}"),
        ])
    else:
        triples, fits, record = run_signal_sweep(plan)
        summary = dict(record.summary)
        rows = [("full-range slope",
                 f"{fits['full'].slope:.4f} +- {fits['full'].slope_err:.4f} Hz per I/I_sat"),
                ("full-range |t|", f"{abs(summary['full_slope_t_statistic']):.3f}")]
        if "restricted" in fits:
            rows += [("restricted slope",
                      f"{fits['restricted'].slope:.4f} +- {fits['restricted'].slope_err:.4f}"),
                     ("restricted |t|", f"{abs(summary['restricted_slope_t_statistic']):.3f}")]
        _print_kv(rows)
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
