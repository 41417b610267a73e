"""Check that a change leaves every run output as a parent revision wrote it.

Runs five studies with seed base 12345 through the command line of the
working tree and of a parent revision, at jobs 1 and 2, every run in its
own subprocess: spectroscopy in both average modes, the control sweep, the
signal sweep and the dark resonance.  After them it writes a CSV copy of
the first study's ``points/0/trace.npz`` with NumPy alone, in the trace CSV
format of the README, and runs ``init-config``, then ``fit`` on the
``.npz`` and on the CSV copy.  Then it compares the two trees of outputs
file by file.  ``run.json`` may differ only in its timing; every other
file must be byte-identical.  For a CSV or ``.npz`` trace file that is
not, it prints the largest relative difference of any value; for a ``.cfg``
file, the lines that only the parent's has and those that only the child's
has, each after its ``[section]``.
It also compares what each command printed to stdout, with the runs' root
replaced by ``{runs}``, and prints the first line that differs.
Exits 1 on any difference.
It also prints the non-blank line count of ``src/lightstore`` in both trees.

    python tools/equivalence.py --parent <rev>

The parent must write its run traces as ``.npz``, as every revision from
c259e5b on does.  It is exported with ``git archive`` into a temporary
directory, so only the local repository is read and no worktree is left
registered.
"""

from __future__ import annotations

import argparse
import csv
import difflib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

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
# The trace that fit reads, as .npz and as the CSV copy this tool writes of it
FIT_TRACE = "spectroscopy-average-traces/points/0/trace.npz"
CSV_COPY = "fit-csv/trace.csv"
# The guarded readout epoch of the default sequence
FIT_ARGS = ("--window", "8.7e-05", "1.45e-04", "--envelope")
# (output directory, CLI arguments with {runs} for the runs' root), run after STUDIES
COMMANDS = (
    ("init-config", ("init-config", "{runs}/init-config/default.cfg")),
    ("fit", ("fit", f"{{runs}}/{FIT_TRACE}", "--out", "{runs}/fit", *FIT_ARGS)),
    ("fit-csv", ("fit", f"{{runs}}/{CSV_COPY}", "--out", "{runs}/fit-csv", *FIT_ARGS)),
)


@dataclass
class Comparison:
    """Outcome of comparing two trees of run directories."""

    # relative paths
    identical: list[str] = field(default_factory=list)
    # relative path -> largest relative |difference| of its values (inf when
    # the files do not line up value by value)
    differing: dict[str, float] = field(default_factory=dict)
    # relative path of a differing .cfg file -> (lines only a has, lines only b has)
    differing_lines: dict[str, tuple[tuple[str, ...], tuple[str, ...]]] = field(
        default_factory=dict)
    # relative paths present in only one of the trees
    unmatched: list[str] = field(default_factory=list)

    @property
    def equal(self) -> bool:
        return not self.differing and not self.differing_lines and not self.unmatched


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
    """sample_rate_hz, t0_s and the samples of a .npz trace file, as stored, in one array."""
    with np.load(path, allow_pickle=False) as npz:
        return np.concatenate([[npz["sample_rate_hz"], npz["t0_s"]], npz["samples"]])


def write_csv_copy(npz_path: Path, csv_path: Path) -> None:
    """Write a .npz trace as a trace CSV, with NumPy alone: the header, then time,signal rows.

    Every value is written as its repr, so the CSV holds the same float64 bits.
    """
    with np.load(npz_path, allow_pickle=False) as npz:
        fs, t0, samples = float(npz["sample_rate_hz"]), float(npz["t0_s"]), npz["samples"]
    rows = zip((t0 + np.arange(samples.size) / fs).tolist(), samples.tolist())
    csv_path.write_text(f"# sample_rate_hz={fs!r} t0_s={t0!r}\n"
                        + "".join(f"{t!r},{v!r}\n" for t, v in rows))


def trace_difference(a: Path, b: Path) -> "float | None":
    """None when two trace files hold bit-equal values, else their largest relative difference."""
    x, y = trace_values(a), trace_values(b)
    if x.shape != y.shape:
        return math.inf
    if x.tobytes() == y.tobytes():
        return None
    return max((_relative(u, v) for u, v in zip(x.tolist(), y.tolist()) if u != v), default=0.0)


def _section_lines(text: str) -> list[str]:
    """The non-blank lines of a config file, each key line after its "[section]"."""
    section, lines = "", []
    for line in text.splitlines():
        if line.startswith("["):
            section = line
        if line.strip():
            lines.append(line if line == section else f"{section} {line}")
    return lines


def line_difference(a: str, b: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """The lines of config text a that a line diff finds missing in b, and those b adds."""
    lines_a, lines_b = _section_lines(a), _section_lines(b)
    only_a, only_b = [], []
    matcher = difflib.SequenceMatcher(None, lines_a, lines_b, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag != "equal":
            only_a += lines_a[i1:i2]
            only_b += lines_b[j1:j2]
    return tuple(only_a), tuple(only_b)


def _same_run_json(a: bytes, b: bytes) -> bool:
    meta_a, meta_b = ({k: v for k, v in json.loads(raw).items() if k not in TIMING_KEYS}
                      for raw in (a, b))
    return meta_a == meta_b


def _difference(a: Path, b: Path) -> "float | None":
    """None when two files count as identical, else the largest relative difference of their values."""
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

    run.json files are compared up to their timing and every other file by
    its bytes.  A differing .cfg file is described by its differing lines.
    """
    files_a = {p.relative_to(dir_a).as_posix() for p in dir_a.rglob("*") if p.is_file()}
    files_b = {p.relative_to(dir_b).as_posix() for p in dir_b.rglob("*") if p.is_file()}
    result = Comparison(unmatched=sorted(files_a ^ files_b))
    for rel in sorted(files_a & files_b):
        worst = _difference(dir_a / rel, dir_b / rel)
        if worst is None:
            result.identical.append(rel)
        elif rel.endswith(".cfg"):
            result.differing_lines[rel] = line_difference(
                (dir_a / rel).read_text(), (dir_b / rel).read_text())
        else:
            result.differing[rel] = worst
    return result


def stdout_difference(a: str, b: str) -> "str | None":
    """None when two printed outputs are equal, else their first differing line.

    Lines are numbered from 1; a line one output lacks shows as None.
    """
    for number, (line_a, line_b) in enumerate(
            itertools.zip_longest(a.split("\n"), b.split("\n")), 1):
        if line_a != line_b:
            return f"line {number}: {line_a!r} != {line_b!r}"
    return None


def compare_stdout(stdout_a: dict[str, str], stdout_b: dict[str, str]) -> dict[str, str]:
    """Command name -> first differing line, for each command of a whose stdout in b differs."""
    diffs = {name: stdout_difference(text, stdout_b[name]) for name, text in stdout_a.items()}
    return {name: diff for name, diff in diffs.items() if diff is not None}


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


def run_studies(src: Path, out: Path, jobs: int) -> tuple[Path, dict[str, str]]:
    """Run STUDIES, write the CSV copy of FIT_TRACE, then run COMMANDS, with the package under src.

    Returns the runs' root and each command's stdout, in which the root
    reads ``{runs}``.
    """
    runs = out / "runs"
    env = dict(os.environ, PYTHONPATH=str(src))
    stdout = {}

    def run(name: str, argv: list[str]) -> None:
        (runs / name).mkdir(parents=True, exist_ok=True)
        proc = subprocess.run([sys.executable, "-m", "lightstore.cli", *argv],
                              capture_output=True, text=True, env=env, cwd=out)
        if proc.returncode != 0:
            raise RuntimeError(f"{name} under {src} exited {proc.returncode}: {proc.stderr}")
        stdout[name] = proc.stdout.replace(str(runs), "{runs}")

    for name, command, config_text in STUDIES:
        argv = [command, "--out", str(runs / name), "--seed", str(SEED_BASE), "--jobs", str(jobs)]
        if config_text is not None:
            config = out / f"{name}.cfg"
            config.write_text(config_text)
            argv += ["--config", str(config)]
        run(name, argv)
    (runs / CSV_COPY).parent.mkdir()
    write_csv_copy(runs / FIT_TRACE, runs / CSV_COPY)
    for name, args in COMMANDS:
        run(name, [arg.format(runs=runs) for arg in args])
    return runs, stdout


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
            trees, stdout = {}, {}
            for side, src in (("parent", root / "parent" / "src"), ("child", REPO / "src")):
                out = root / f"{side}-jobs{jobs}"
                out.mkdir()
                trees[side], stdout[side] = run_studies(src, out, jobs)
            result = compare_trees(trees["parent"], trees["child"])
            printed = compare_stdout(stdout["parent"], stdout["child"])
            print(f"jobs {jobs}: {len(result.identical)} files identical, "
                  f"{len(result.differing) + len(result.differing_lines)} differ, "
                  f"{len(result.unmatched)} in one tree only; "
                  f"stdout of {len(stdout['parent']) - len(printed)} of "
                  f"{len(stdout['parent'])} commands identical")
            for name, diff in printed.items():
                print(f"  stdout differs  {name}  {diff}")
            for rel, worst in result.differing.items():
                print(f"  differs  {rel}  max relative |delta| {worst:.3g}")
            # config files with the same differing lines are listed together
            groups: dict[tuple, list[str]] = {}
            for rel, lines in result.differing_lines.items():
                groups.setdefault(lines, []).append(rel)
            for (only_a, only_b), rels in groups.items():
                print(f"  differs  {len(rels)} config file(s): {', '.join(rels)}")
                for side, lines in (("parent", only_a), ("child", only_b)):
                    for line in lines:
                        print(f"    only in {side}  {line}")
            for rel in result.unmatched:
                print(f"  only in one tree  {rel}")
            if result.differing:
                print(f"  max relative |delta| of any differing cell: "
                      f"{max(result.differing.values()):.3g}")
            equal = equal and result.equal and not printed
    print(f"parent {args.parent}: " + ("equivalent" if equal else "NOT equivalent"))
    return 0 if equal else 1


if __name__ == "__main__":
    sys.exit(main())
