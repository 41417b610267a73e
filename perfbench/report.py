"""Run every workload over several seeds; print each metric by name and unit.

Usage, from the repository root::

    python3 perfbench/report.py                      # 10 seeds, end-to-end
    python3 perfbench/report.py --trace 1 --seeds 3  # per-layer metrics
    python3 perfbench/report.py --json perfbench/baseline/end_to_end.json

Each run is a fresh ``perfbench/run.py`` process, for every workload in
BENCHMARK.json, with seeds 1 to ``--seeds`` and ``run_seconds`` from there.  For each workload and metric the table gives the median
over the seeds, the quartile spread as a share of the median (what the
metric's bound is compared with), and the unit; ``error_rate`` is failed
over attempted ops of all runs, and ``op_ms.tail`` the median tail latency
from the runs' details.  ``--json`` also writes every run's result
and details.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import stats

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])["detail"]


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--json", type=Path)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    seeds = range(1, args.seeds + 1)

    report = {"seconds": seconds, "trace": args.trace, "seeds": list(seeds), "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in seeds:
            result, detail = run_once(workload, seed, seconds, args.trace)
            runs.append({"seed": seed, "result": result, "detail": detail})
            print(f"{workload} seed {seed}: attempted {result['attempted']} "
                  f"failed {result['failed']}", file=sys.stderr, flush=True)
        attempted = sum(r["result"]["attempted"] for r in runs)
        failed = sum(r["result"]["failed"] for r in runs)
        summary = {}
        print(f"\n{workload}  ({len(runs)} runs x {seconds} s)")
        for name, first in runs[0]["result"]["metrics"].items():
            values = [r["result"]["metrics"][name]["value"] for r in runs]
            med = stats.median(values)
            spread = stats.quartile_spread(values) if len(values) > 1 and med else None
            summary[name] = {"median": med, "quartile_spread": spread, "unit": first["unit"]}
            shown = "" if spread is None else f"spread {spread:7.4f}"
            print(f"  {name:42s} {med:14.6g} {first['unit']:9s} {shown}")
        print(f"  {'error_rate':42s} {failed / attempted:14.6g} {'fraction':9s} "
              f"({failed} of {attempted} ops)")
        tails = [r["detail"]["op_ms.tail"] for r in runs if r["detail"].get("op_ms.tail")]
        if tails:
            print(f"  {'op_ms.tail':42s} {stats.median([t['value'] for t in tails]):14.6g} "
                  f"{'ms':9s} (unbounded; p{tails[0]['percentile']:.1f} of "
                  f"{tails[0]['samples']} ops in the first run with one)")
        report["workloads"][workload] = {
            "error_rate": failed / attempted, "metrics": summary, "runs": runs,
        }
    if args.json is not None:
        args.json.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
