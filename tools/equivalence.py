"""Check that a change leaves every run output as a parent revision wrote it.

Runs five studies with seed base 12345 through the command line of the
working tree and of a parent revision, at jobs 1 and 2, every run in its
own subprocess: spectroscopy in both average modes, the control sweep, the
signal sweep and the dark resonance.  After them it runs ``init-config`` and
``fit`` on a trace of the first study.  Then it compares the two trees of
outputs file by file.  ``run.json`` may differ only in its timing; every
other file must be byte-identical.  For a CSV file that is not, it prints the
largest relative difference of any cell.  Exits 1 on any difference.
It also prints the non-blank line count of ``src/lightstore`` in both trees.

    python tools/equivalence.py --parent <rev>

The parent is exported with ``git archive`` into a temporary directory, so
only the local repository is read and no worktree is left registered.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

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
# STUDIES; the fit window is the guarded readout epoch of the default sequence
COMMANDS = (
    ("init-config", ("init-config", "{runs}/init-config/default.cfg")),
    ("fit", ("fit", "{runs}/spectroscopy-average-traces/points/0/trace.csv", "--out",
             "{runs}/fit", "--window", "8.7e-05", "1.45e-04", "--envelope")),
)


@dataclass
class Comparison:
    """Outcome of comparing two trees of run directories."""

    identical: list[str] = field(default_factory=list)
    # relative path -> largest relative |difference| of its cells (inf when
    # the files do not line up cell by cell)
    differing: dict[str, float] = field(default_factory=dict)
    # relative paths present in only one of the trees
    unmatched: list[str] = field(default_factory=list)

    @property
    def equal(self) -> bool:
        return not self.differing and not self.unmatched


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
            scale = max(abs(x), abs(y))
            worst = max(worst, abs(x - y) / scale if scale > 0.0 else math.inf)
    return worst


def _same_run_json(a: bytes, b: bytes) -> bool:
    meta_a, meta_b = ({k: v for k, v in json.loads(raw).items() if k not in TIMING_KEYS}
                      for raw in (a, b))
    return meta_a == meta_b


def compare_trees(dir_a: Path, dir_b: Path) -> Comparison:
    """Compare every file under two directories; run.json files up to their timing."""
    files_a = {p.relative_to(dir_a).as_posix() for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b).as_posix() for p in dir_b.rglob("*") if p.is_file()}
    result = Comparison(unmatched=sorted(files_a ^ files_b))
    for rel in sorted(files_a & files_b):
        a, b = (dir_a / rel).read_bytes(), (dir_b / rel).read_bytes()
        same = _same_run_json(a, b) if Path(rel).name == "run.json" else a == b
        if same:
            result.identical.append(rel)
        elif rel.endswith(".csv"):
            result.differing[rel] = max_relative_difference(a.decode(), b.decode())
        else:
            result.differing[rel] = math.inf
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
