"""Measurement loop, set-up probes, environment record and result lines."""

from __future__ import annotations

import functools
import json
import os
import resource
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from lightstore.configfile import default_config

import stats
from tracer import COUNTED, LAYERS, ROOT, Tracer, summarize
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120
# Share of a normal distribution within 1 and 3 standard deviations.
NOMINAL_COVERAGE = (0.6826894921370859, 0.9973002039367398)

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_ms.p50": "ms",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    **{f"{name}.{key}": unit
       for name in COUNTED for key, unit in (("calls", "calls/op"), ("busy_ms", "ms/op"))},
    "storage.write_trace_csv.bytes": "B/op",
    "storage.read_trace_csv.bytes": "B/op",
    "analysis.fit_beat.input.nfev": "nfev/op",
    "analysis.fit_beat.input.failed": "calls/op",
    "analysis.fit_beat.retrieved.nfev": "nfev/op",
    "analysis.fit_beat.retrieved.failed": "calls/op",
    "analysis.coverage_1sigma_gap": "ratio",
    "analysis.coverage_3sigma_gap": "ratio",
    "atom.transmission_spectrum.self_ms": "ms/op",
    **{f"{layer}.self_ms": "ms/op" for layer in LAYERS},
    "orchestrator.pool.count": "pools/op",
    "orchestrator.pool.worker_busy_ratio": "ratio",
    "orchestrator.reanalyze.busy_ms": "ms/op",
    "orchestrator.points.usable_ratio": "ratio",
    "cli.import_ms": "ms",
    "cli.first_op_ms": "ms",
    "trace.ops": "count",
    "trace.accounted_ratio": "ratio",
    "trace.overhead_ms": "ms",
    "trace.overhead_ratio": "ratio",
}


@dataclass
class OpLog:
    """What the loop saw: timed-op latencies (s) by tracing, failures, shift coverage.

    ``within_1sigma`` and ``within_3sigma`` count the ops whose quoted error
    covers the injected shift, of ``shift_ops`` ops that report a shift.
    """

    untraced: list = field(default_factory=list)
    traced: list = field(default_factory=list)
    attempted: int = 0
    errors: list = field(default_factory=list)
    within_1sigma: int = 0
    within_3sigma: int = 0
    shift_ops: int = 0

    def record(self, error: "str | None") -> None:
        self.attempted += 1
        if error is not None:
            self.errors.append(error)

    def coverage_gaps(self) -> tuple[float, float]:
        """How far the 1 and 3 sigma coverage lie from nominal; 0 without shifts."""
        if self.shift_ops == 0:
            return 0.0, 0.0
        return (abs(self.within_1sigma / self.shift_ops - NOMINAL_COVERAGE[0]),
                abs(self.within_3sigma / self.shift_ops - NOMINAL_COVERAGE[1]))


def run_op(workload, i: int, tracer: "Tracer | None", log: OpLog) -> float:
    """One op, checked and cleaned up outside the timed region; returns its latency."""
    if tracer is not None:
        tracer.install()
        tracer.op_id = i
        root = tracer.begin(ROOT)
    out, error = None, None
    t0 = time.perf_counter()
    try:
        out = workload.op(i)
    except Exception as exc:  # a failed op is counted, not fatal
        error = f"op {i}: {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if tracer is not None:
        tracer.end(root)
        tracer.uninstall()
    if out is not None:
        try:
            reason = workload.check(out)
        except Exception as exc:  # a malformed output fails its check
            reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            error = f"op {i}: {reason}"
        coverage = workload.shift_coverage(out)
        if coverage is not None:
            log.shift_ops += 1
            log.within_1sigma += coverage[0]
            log.within_3sigma += coverage[1]
        workload.cleanup(out)
    log.record(error)
    return elapsed


def run_ops(workload, seconds: float, tracer: "Tracer | None", probe) -> tuple[OpLog, list]:
    """An untimed warm-up op, then a closed loop of ops for ``seconds``.

    With a tracer, every second op is traced, so the traced and untraced
    latencies come from the same stretch of time.  ``probe(k, log)`` runs
    ``SETUP_PROBES`` times between ops, evenly over the stretch, so that a
    burst of load from elsewhere on the machine hits at most one of them;
    time spent probing does not count toward ``seconds``.  The loop runs on
    past ``seconds`` until it has timed an op of each kind it needs.
    """
    log = OpLog()
    probes = []
    run_op(workload, 0, None, log)
    i = 1
    start = time.monotonic()
    while ((elapsed := time.monotonic() - start) < seconds or not log.untraced
           or (tracer is not None and not log.traced)):
        if len(probes) < SETUP_PROBES and elapsed >= seconds * len(probes) / SETUP_PROBES:
            t_probe = time.monotonic()
            probes.append(probe(len(probes), log))
            start += time.monotonic() - t_probe
            continue
        traced = tracer is not None and i % 2 == 0
        latency = run_op(workload, i, tracer if traced else None, log)
        (log.traced if traced else log.untraced).append(latency)
        i += 1
    return log, probes


def run_probe(workload: str, seed: int, work_dir: Path, src: Path, k: int, log: OpLog) -> dict:
    """Set-up time of one fresh interpreter, from launch to its first op."""
    cmd = [sys.executable, str(HERE / "probe.py"), str(src), workload, str(seed),
           str(work_dir / f"probe-{k}")]
    launched = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    probe = json.loads(proc.stdout.splitlines()[-1])
    probe["setup_s"] = probe["done"] - launched
    log.record(None if probe["error"] is None else f"probe {k}: {probe['error']}")
    return probe


def peak_rss_mb() -> float:
    """Largest resident set (MiB) of this process or a child it waited for.

    The children are the pool workers and the set-up probe interpreters.
    """
    kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024.0


def filesystem_type(path: Path) -> str:
    best, fstype = "", "unknown"
    target = str(path.resolve())
    with open("/proc/mounts") as fh:
        for line in fh:
            parts = line.split()
            mount = parts[1].replace("\\040", " ")
            inside = target == mount or target.startswith(mount.rstrip("/") + "/")
            if inside and len(mount) >= len(best):
                best, fstype = mount, parts[2]
    return fstype


def environment(root: Path, work_dir: Path, seed: int) -> dict:
    import numpy as np
    import scipy

    try:
        # The ceiling keeps git from reporting an enclosing repository.
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True, timeout=10,
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(root.parent)},
        ).stdout.strip() or "unknown"
    except OSError:
        sha = "unknown"
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_sha": sha,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "blas": blas,
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "filesystem": filesystem_type(work_dir),
        "seed": seed,
    }


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def tail_detail(latencies: "list[float]") -> "dict | None":
    """``op_ms.tail`` with its percentile and sample count; ``None`` if too few ops."""
    if len(latencies) <= stats.TAIL_BEYOND:
        return None
    tail_s, percentile, n = stats.tail(latencies)
    return {"value": tail_s * 1e3, "unit": "ms", "percentile": percentile, "samples": n}


def run(workload_name: str, seed: int, seconds: float, trace: bool, root: Path) -> int:
    src = root / "src"
    work_dir = root / ".perfbench_runs" / f"{workload_name}-s{seed}-{os.getpid()}"
    shutil.rmtree(work_dir, ignore_errors=True)  # left by a killed run with this pid
    work_dir.mkdir(parents=True)
    try:
        workload = WORKLOADS[workload_name](default_config(), seed, work_dir / "ops")
        tracer = Tracer(work_dir / "trace") if trace else None
        if tracer is not None:
            tracer.trace_dir.mkdir()
        probe = functools.partial(run_probe, workload_name, seed, work_dir / "probes", src)
        log, probes = run_ops(workload, seconds, tracer, probe)
        rss = peak_rss_mb()
        env = environment(root, work_dir, seed)
        if tracer is not None:
            tracer.collect()
            spans_path = root / ".perfbench_runs" / f"last-trace-{workload_name}.jsonl"
            with open(spans_path, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(span.as_list()) + "\n")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced_p50 = stats.median(log.untraced) * 1e3
    detail = {
        "workload": workload_name,
        "seconds": seconds,
        "trace": trace,
        "untraced_ops": len(log.untraced),
        "error_rate": len(log.errors) / log.attempted,
        "errors": log.errors[:10],
        "setup_probes_s": [p["setup_s"] for p in probes],
        "env": env,
    }
    if trace:
        traced_p50 = stats.median(log.traced) * 1e3
        values = summarize(tracer.spans, tracer.pid)
        gap_1sigma, gap_3sigma = log.coverage_gaps()
        values.update({
            "analysis.coverage_1sigma_gap": gap_1sigma,
            "analysis.coverage_3sigma_gap": gap_3sigma,
            "cli.import_ms": stats.median([p["import_ms"] for p in probes]),
            "cli.first_op_ms": stats.median([p["first_op_ms"] for p in probes]) - untraced_p50,
            "trace.overhead_ms": traced_p50 - untraced_p50,
            "trace.overhead_ratio": traced_p50 / untraced_p50 - 1.0,
        })
        metrics = {k: _metric(values[k], u) for k, u in PER_LAYER_UNITS.items()}
        detail["traced_ops"] = len(log.traced)
        detail["shift_coverage"] = {"ops": log.shift_ops, "within_1sigma": log.within_1sigma,
                                    "within_3sigma": log.within_3sigma}
        detail["op_ms.p50_untraced"] = untraced_p50
        detail["op_ms.p50_traced"] = traced_p50
    else:
        detail["op_ms.tail"] = tail_detail(log.untraced)
        values = {
            "setup_s": stats.median([p["setup_s"] for p in probes]),
            "ops_per_s": len(log.untraced) / sum(log.untraced),
            "op_ms.p50": untraced_p50,
            "peak_rss_mb": rss,
        }
        metrics = {k: _metric(values[k], u) for k, u in END_TO_END_UNITS.items()}
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": not log.errors,
        "attempted": log.attempted,
        "failed": len(log.errors),
        "metrics": metrics,
    }))
    return 0
