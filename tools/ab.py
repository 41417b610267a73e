"""Time the working tree against a parent revision in alternating benchmark runs.

Resolves ``--parent`` to one commit, whose SHA the report records, and
exports it the way tools/equivalence.py does; a revision that names no
commit ends the tool before any run.  Then it runs
``perfbench/run.py --trace 0`` of each tree on every workload in pairs
numbered from 1, the parent first in odd pairs and the child first in even
ones, pair p with seed ``--seed`` + p - 1.  Each tree runs its own benchmark
on its own source, for the run length that BENCHMARK.json fixes.  Writes
a BENCH_*.json: per workload and end-to-end metric of BENCHMARK.json, each
side's median and quartiles, the number of pairs the child won and the
verdict (see ``verdict``), followed by every run's values.

    python tools/ab.py --parent <rev> --workload master-equation --pairs 10 \\
        --seed 101 --out BENCH_change.json --change "what changed"

``--workload`` may be given more than once.  If a run fails to print a
result line, the report is still written, with every run made so far and
the failure under ``"failed"``, and the exit status is 1.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from equivalence import REPO, export_revision  # noqa: E402

SIDES = ("parent", "child")


def parse_result(stdout: str) -> tuple[dict, dict]:
    """The result line and the detail of one ``perfbench/run.py`` output."""
    lines = stdout.strip().splitlines()
    if len(lines) < 2:
        raise ValueError(f"no result line in benchmark output: {stdout!r}")
    result = json.loads(lines[-1])
    if "metrics" not in result:
        raise ValueError(f"last line is not a result line: {lines[-1]!r}")
    return result, json.loads(lines[-2])["detail"]


def run_record(pair: int, result: dict) -> dict:
    """One run's entry in the ``runs`` list: its pair, op counts and metric values."""
    return {"pair": pair, "attempted": result["attempted"], "failed": result["failed"],
            **{name: m["value"] for name, m in result["metrics"].items()}}


def verdict(entry: dict, values: dict, sign: float, bound: float) -> str:
    """What one metric's summary entry shows, judged by the metric's bound.

    ``values`` maps each side to its runs' values, and ``sign`` is 1 when
    higher is better and -1 when lower is.  "gain": the child won at least
    0.9 of the pairs and its median is better than the parent's by more than
    the parent's interquartile range.  "regression": the child's median is
    worse than the parent's by more than bound times the parent's median.
    "unresolved": the parent's interquartile range is wider than bound times
    its median, and not every child run is better than every parent run.
    "no change": none of these.
    """
    parent = entry["parent"]
    improvement = sign * (entry["child"]["median"] - parent["median"])
    spread = parent["q3"] - parent["q1"]
    if entry["child_wins"] >= 0.9 * entry["pairs"] and improvement > spread:
        return "gain"
    if -improvement > bound * abs(parent["median"]):
        return "regression"
    every_run_better = (min(sign * v for v in values["child"])
                        > max(sign * v for v in values["parent"]))
    if spread > bound * abs(parent["median"]) and not every_run_better:
        return "unresolved"
    return "no change"


def summarize(runs: dict, metrics: "dict[str, dict]") -> dict:
    """Per metric, each side's median and quartiles, the pairs the child won and the verdict.

    ``runs`` maps "parent" and "child" to run records in pair order, and
    ``metrics`` maps a metric name to its BENCHMARK.json entry, of which
    "better" ("lower" or "higher") and "bound" are read.  Quartiles are the
    inclusive ones of ``statistics.quantiles``.
    """
    summary = {}
    for name, metric in metrics.items():
        sign = 1.0 if metric["better"] == "higher" else -1.0
        values = {side: [r[name] for r in runs[side]] for side in SIDES}
        entry = {}
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(values[side], n=4, method="inclusive")
            entry[side] = {"median": median, "q1": q1, "q3": q3}
        wins = sum(sign * c > sign * p for p, c in zip(values["parent"], values["child"]))
        entry.update(child_wins=wins, pairs=len(values["child"]))
        summary[name] = {**entry, "verdict": verdict(entry, values, sign, float(metric["bound"]))}
    return summary


def resolve_commit(rev: str) -> str:
    """The SHA of the commit that rev names; CalledProcessError if it names none."""
    return subprocess.run(["git", "-C", str(REPO), "rev-parse", "--verify", "--quiet",
                           f"{rev}^{{commit}}"],
                          capture_output=True, text=True, check=True).stdout.strip()


def run_benchmark(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """Run one untraced benchmark of the tree at root; returns its result line and detail."""
    proc = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=root,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} under {root} exited {proc.returncode}: {proc.stderr}")
    return parse_result(proc.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True, action="append", help="benchmark workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1, help="seed of the first pair")
    parser.add_argument("--out", type=Path, help="BENCH_*.json to write (default: stdout)")
    parser.add_argument("--change", default="", help="what the change does")
    args = parser.parse_args(argv)
    if args.pairs < 2 or args.seed < 0:
        parser.error("--pairs must be >= 2 (for quartiles) and --seed >= 0")
    try:
        parent = resolve_commit(args.parent)
    except subprocess.CalledProcessError:
        parser.error(f"--parent {args.parent!r} names no commit")
    benchmark = json.loads((REPO / "BENCHMARK.json").read_text())
    seconds = float(benchmark["run_seconds"])
    metrics = {m["name"]: m for m in benchmark["end_to_end"]}
    report = {
        "what": f"perfbench/run.py --trace 0 --seconds {seconds:g} (BENCHMARK.json run_seconds), "
                f"{args.pairs} alternating parent/child pairs per workload (odd pairs parent "
                f"first, even pairs child first), seed = {args.seed} + pair - 1",
        "change": args.change,
        "parent": parent,
        "environment": {},
        "workloads": {},
    }
    status = 0
    with tempfile.TemporaryDirectory(prefix="ab-") as tmp:
        roots = {"parent": Path(tmp) / "parent", "child": REPO}
        export_revision(parent, roots["parent"])
        try:
            for workload in args.workload:
                runs = {side: [] for side in SIDES}
                report["workloads"][workload] = {"runs": runs}
                for i in range(args.pairs):
                    for side in (SIDES if i % 2 == 0 else SIDES[::-1]):
                        result, detail = run_benchmark(roots[side], workload, args.seed + i, seconds)
                        runs[side].append(run_record(i + 1, result))
                        if side == "child":
                            report["environment"] = {k: detail["env"].get(k) for k in
                                                     ("python", "numpy", "nproc", "blas")}
                        print(f"{workload} pair {i + 1} {side}: " + ", ".join(
                            f"{k} {runs[side][-1][k]:.4g}" for k in metrics), file=sys.stderr)
                report["workloads"][workload] = {"summary": summarize(runs, metrics),
                                                 "runs": runs}
        except (RuntimeError, ValueError) as exc:
            print(exc, file=sys.stderr)
            report["failed"] = str(exc)
            status = 1
    text = json.dumps(report, indent=1) + "\n"
    if args.out is None:
        sys.stdout.write(text)
    else:
        args.out.write_text(text)
    return status


if __name__ == "__main__":
    sys.exit(main())
