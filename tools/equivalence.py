"""Check that a change leaves every run output as a parent revision wrote it.

Runs five studies with seed base 12345 through the command line of the
working tree and of a parent revision, at jobs 1 and 2, every run in its
own subprocess: spectroscopy in both average modes, the control sweep, the
signal sweep and the dark resonance.  After them it runs ``init-config`` and
``fit`` on the trace file that the first study of the same tree wrote.  Then
it compares the two trees of outputs file by file.  ``run.json`` may differ
only in its timing.  A trace file is compared by content: a parent's
``points/.../trace*.csv`` pairs with a child's ``trace*.npz`` of the same
stem, and the pair is identical when the samples, ``sample_rate_hz`` and
``t0_s`` are bit-equal.  Every other file must be byte-identical.  For a CSV
or trace file that is not, it prints the largest relative difference of any
value.  Exits 1 on any difference.
It also prints the non-blank line count of ``src/lightstore`` in both trees.

    python tools/equivalence.py --parent <rev>

The parent is exported with ``git archive`` into a temporary directory, so
only the local repository is read and no worktree is left registered.
"""

from __future__ import annotations

import argparse
import csv
import glob
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass, field
from pathlib import Path, PurePosixPath

import numpy as np

REPO = Path(__file__).resolve().parents[1]
SEED_BASE = 12345
JOBS = (1, 2)
# run.json keys that hold wall-clock facts of the run rather than its results
TIMING_KEYS = ("started_at", "elapsed_s")
# (run directory, CLI subcommand, config file text or None for the defaults)
STUDIES = (
    ("spectroscopy-average-traces", "spectroscopy", None),
    ("spectroscopy-fit-then-average", "spectroscopy", "[study]\naverage_mode = fit-then-average\n"),
    ("control-sweep", "control-sweep", None),
    ("signal-sweep", "signal-sweep", None),
    ("dark-resonance", "dark-resonance", None),
)
# (output directory, CLI arguments with {runs} for the runs' root), run after
# STUDIES; an argument with a * is the one file of its tree that it matches.
# The fit window is the guarded readout epoch of the default sequence.
COMMANDS = (
    ("init-config", ("init-config", "{runs}/init-config/default.cfg")),
    ("fit", ("fit", "{runs}/spectroscopy-average-traces/points/0/trace.*", "--out",
             "{runs}/fit", "--window", "8.7e-05", "1.45e-04", "--envelope")),
)


@dataclass
class Comparison:
    """Outcome of comparing two trees of run directories."""

    # relative paths; a trace pair as points/<i>/trace.{csv,npz}
    identical: list[str] = field(default_factory=list)
    # relative path -> largest relative |difference| of its values (inf when
    # the files do not line up value by value)
    differing: dict[str, float] = field(default_factory=dict)
    # relative paths present in only one of the trees and not paired
    unmatched: list[str] = field(default_factory=list)

    @property
    def equal(self) -> bool:
        return not self.differing and not self.unmatched


def _relative(x: float, y: float) -> float:
    scale = max(abs(x), abs(y))
    return abs(x - y) / scale if scale > 0.0 else math.inf


def max_relative_difference(a: str, b: str) -> float:
    """Largest |x - y| / max(|x|, |y|) over the cells of two CSV texts.

    Cells with equal text count as equal; a differing cell that is not a
    number on both sides, or a different row or column layout, gives inf.
    """
    rows_a, rows_b = list(csv.reader(io.StringIO(a))), list(csv.reader(io.StringIO(b)))
    if [len(r) for r in rows_a] != [len(r) for r in rows_b]:
        return math.inf
    worst = 0.0
    for row_a, row_b in zip(rows_a, rows_b):
        for cell_a, cell_b in zip(row_a, row_b):
            if cell_a == cell_b:
                continue
            try:
                x, y = float(cell_a), float(cell_b)
            except ValueError:
                return math.inf
            worst = max(worst, _relative(x, y))
    return worst


def trace_values(path: Path) -> np.ndarray:
    """sample_rate_hz, t0_s and the samples of a trace file, .npz or CSV, as one array.

    Read without the package under comparison: the .npz arrays as stored,
    the CSV header values and the cells after each row's comma.
    """
    if path.suffix == ".npz":
        with np.load(path, allow_pickle=False) as npz:
            return np.concatenate([[npz["sample_rate_hz"], npz["t0_s"]], npz["samples"]])
    header, *rows = path.read_text().splitlines()
    meta = [float(item.split("=")[1]) for item in header.lstrip("#").split()]
    return np.array(meta + [float(row.split(",")[1]) for row in rows if row.strip()])


def trace_difference(a: Path, b: Path) -> "float | None":
    """None when two trace files hold bit-equal values, else their largest relative difference."""
    x, y = trace_values(a), trace_values(b)
    if x.shape != y.shape:
        return math.inf
    if x.tobytes() == y.tobytes():
        return None
    return max((_relative(u, v) for u, v in zip(x.tolist(), y.tolist()) if u != v), default=0.0)


def _trace_pairs(only_a: set[str], only_b: set[str]) -> dict[str, str]:
    """points/.../trace*.csv of tree a -> the trace*.npz of the same stem in tree b."""
    pairs = {}
    for rel in only_a:
        path = PurePosixPath(rel)
        twin = path.with_suffix(".npz").as_posix()
        if (path.suffix == ".csv" and path.name.startswith("trace")
                and "points" in path.parts[:-1] and twin in only_b):
            pairs[rel] = twin
    return pairs


def _same_run_json(a: bytes, b: bytes) -> bool:
    meta_a, meta_b = ({k: v for k, v in json.loads(raw).items() if k not in TIMING_KEYS}
                      for raw in (a, b))
    return meta_a == meta_b


def _difference(a: Path, b: Path) -> "float | None":
    """None when two files count as identical, else the largest relative difference of their values."""
    if a.suffix != b.suffix:
        return trace_difference(a, b)
    bytes_a, bytes_b = a.read_bytes(), b.read_bytes()
    if _same_run_json(bytes_a, bytes_b) if a.name == "run.json" else bytes_a == bytes_b:
        return None
    if a.suffix == ".csv":
        return max_relative_difference(bytes_a.decode(), bytes_b.decode())
    if a.suffix == ".npz":
        worst = trace_difference(a, b)
        return math.inf if worst is None else worst
    return math.inf


def compare_trees(dir_a: Path, dir_b: Path) -> Comparison:
    """Compare every file under two directories of tree a (parent) and tree b (child).

    run.json files are compared up to their timing, a CSV trace of a with
    the .npz trace of b that replaces it by content, and every other file
    by its bytes.
    """
    files_a = {p.relative_to(dir_a).as_posix() for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b).as_posix() for p in dir_b.rglob("*") if p.is_file()}
    pairs = _trace_pairs(files_a - files_b, files_b - files_a)
    result = Comparison(unmatched=sorted((files_a ^ files_b) - {*pairs, *pairs.values()}))
    for rel_a, rel_b in sorted([(rel, rel) for rel in files_a & files_b] + list(pairs.items())):
        worst = _difference(dir_a / rel_a, dir_b / rel_b)
        label = rel_a if rel_a == rel_b else f"{rel_a[:-len('.csv')]}.{{csv,npz}}"
        if worst is None:
            result.identical.append(label)
        else:
            result.differing[label] = worst
    return result


def nonblank_lines(package: Path) -> int:
    """Non-blank lines of every Python file under a package directory."""
    return sum(1 for path in package.rglob("*.py")
               for line in path.read_text().splitlines() if line.strip())


def export_revision(rev: str, dest: Path) -> None:
    """Write the files of a revision of this repository into dest."""
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, **({"filter": "data"} if hasattr(tarfile, "data_filter") else {}))


def _one_match(pattern: str) -> str:
    """The one file that a glob pattern matches, such as the trace file a tree wrote."""
    matches = glob.glob(pattern)
    if len(matches) != 1:
        raise RuntimeError(f"{pattern} matches {len(matches)} files, not 1")
    return matches[0]


def run_studies(src: Path, out: Path, jobs: int) -> Path:
    """Run STUDIES, then COMMANDS, with the package under src; returns the runs' root."""
    runs = out / "runs"
    env = dict(os.environ, PYTHONPATH=str(src))
    argvs = []
    for name, command, config_text in STUDIES:
        argv = [command, "--out", str(runs / name), "--seed", str(SEED_BASE), "--jobs", str(jobs)]
        if config_text is not None:
            config = out / f"{name}.cfg"
            config.write_text(config_text)
            argv += ["--config", str(config)]
        argvs.append((name, argv))
    argvs += [(name, [arg.format(runs=runs) for arg in args]) for name, args in COMMANDS]
    for name, argv in argvs:
        argv = [_one_match(arg) if "*" in arg else arg for arg in argv]
        (runs / name).mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([sys.executable, "-m", "lightstore.cli", *argv],
                              capture_output=True, text=True, env=env, cwd=out)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} under {src} exited {proc.returncode}: {proc.stderr}")
    return runs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="equivalence-") as tmp:
        root = Path(tmp)
        export_revision(args.parent, root / "parent")
        print("src/lightstore non-blank lines: "
              f"parent {nonblank_lines(root / 'parent' / 'src' / 'lightstore')}, "
              f"child {nonblank_lines(REPO / 'src' / 'lightstore')}")
        equal = True
        for jobs in JOBS:
            trees = {}
            for side, src in (("parent", root / "parent" / "src"), ("child", REPO / "src")):
                out = root / f"{side}-jobs{jobs}"
                out.mkdir()
                trees[side] = run_studies(src, out, jobs)
            result = compare_trees(trees["parent"], trees["child"])
            print(f"jobs {jobs}: {len(result.identical)} files identical, "
                  f"{len(result.differing)} differ, {len(result.unmatched)} in one tree only")
            for rel, worst in result.differing.items():
                print(f"  differs  {rel}  max relative |delta| {worst:.3g}")
            for rel in result.unmatched:
                print(f"  only in one tree  {rel}")
            if result.differing:
                print(f"  max relative |delta| of any differing cell: "
                      f"{max(result.differing.values()):.3g}")
            equal = equal and result.equal
    print(f"parent {args.parent}: " + ("equivalent" if equal else "NOT equivalent"))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
