#!/usr/bin/env python3
"""Compare the equitile CLI of two source trees, run by run, byte for byte.

    python3 scripts/cli_diff.py PARENT_SRC CHANGE_SRC [--seeds 1 5 9] [--workdir DIR]

PARENT_SRC and CHANGE_SRC are source checkouts (or their src/ directories).
The inputs are made once, with the parent tree: the cli-files set of
perfbench/workloads.py for each seed, the set of scripts/make_demo_inputs.py,
and three sets of extreme values derived from it, whose square and
rectangular matrices are scaled by 1e-30 and by 1e200 or replaced by
matrices of exact 17-digit decimal ties, so that inputs and emitted files
also hold values outside the writer's fast range, and ties; each set also
gets a file of random complex weights. Eight commands run on every set
under each tree, as `python -m equitile.cli`:

    refine; check --epsilon --regular on the front side, on the rear side
    and with the complex weights; transform --emit full,E,F,D,eigvecs;
    transform with the complex weights; split; rect.

A run is the same when the exit code, stderr, the stdout report (as JSON,
less "timing_s") and every file it emits are identical, with the two trees'
output directories named alike, and in stderr their source directories and
the line numbers of warning locations in them. Prints one line per run and
exits 1 on any difference.
"""
from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: the eight runs; {key} names an input file of the set
COMMANDS = (
    ("refine", ["refine", "{graph}"]),
    ("check", ["check", "{square}", "{part}", "--epsilon", "--regular"]),
    ("check-rear", ["check", "{square}", "{part}", "--side", "rear", "--epsilon", "--regular"]),
    ("check-weighted", ["check", "{square}", "{part}", "--weights", "wc.json",
                        "--epsilon", "--regular"]),
    ("transform", ["transform", "{square}", "{part}", "--emit", "full,E,F,D,eigvecs",
                   "--out-dir", "{out}"]),
    ("transform-weighted", ["transform", "{square}", "{part}", "--weights", "wc.json",
                            "--out-dir", "{out}"]),
    ("split", ["split", "{square}", "{part}"]),
    ("rect", ["rect", "{rect}", "{structure}", "{wm}", "{wp}", "--out-dir", "{out}"]),
)

CLI_FILES = {"graph": "grid.mtx", "square": "herm.mtx", "part": "part.json", "rect": "rect.mtx",
             "structure": "structure.json", "wm": "wm.mtx", "wp": "wp.mtx"}
DEMO_FILES = {"graph": "A.mtx", "square": "A.mtx", "part": "part.json", "rect": "A_rect.mtx",
              "structure": "structure.json", "wm": "Wm.mtx", "wp": "Wp.mtx"}

#: writes the cli-files inputs of perfbench for a seed into a directory
_MAKE_CLI_FILES = "import sys, pathlib, workloads; workloads.CliFiles(int(sys.argv[2]), " \
    "pathlib.Path(sys.argv[1]))"

#: copies the demo set in argv[1] to argv[2] with A.mtx and A_rect.mtx scaled
#: by the factor argv[3], or, for "ties", replaced by matrices of exact
#: 17-digit decimal ties: odd multiples of 2**-25, and n + 1/4, n + 3/4 for
#: integers n of 16 digits
_MAKE_EXTREME = """
import shutil, sys
from pathlib import Path
import numpy as np
from equitile.mmio import load_dense, save_matrix_market
src, dst, how = Path(sys.argv[1]), Path(sys.argv[2]), sys.argv[3]
shutil.copytree(src, dst)
A, R = load_dense(src / "A.mtx"), load_dense(src / "A_rect.mtx")
if how == "ties":
    n = np.random.default_rng(0).integers(10 ** 15, 2 ** 50, (2,) + R.shape)
    A, R = A * 2.0 ** -25, (n[0] + 0.25) + 1j * (n[1] + 0.75)
else:
    A, R = A * float(how), R * float(how)
save_matrix_market(dst / "A.mtx", A)
save_matrix_market(dst / "A_rect.mtx", R)
"""


def _src(tree: str) -> Path:
    path = Path(tree).resolve()
    src = path / "src" if (path / "src" / "equitile").is_dir() else path
    if not (src / "equitile").is_dir():
        raise SystemExit(f"{tree}: no equitile package in it or in its src/")
    return src


def _env(src: Path, *extra: Path) -> dict:
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    env["PYTHONPATH"] = os.pathsep.join(str(p) for p in (src, *extra))
    return env


def _write_weights(directory: Path, seed: int) -> None:
    """wc.json: one random complex weight per index of the set's partition."""
    import random

    n = json.loads((directory / "part.json").read_text())["n"]
    rnd = random.Random(seed)
    weights = [[rnd.uniform(0.5, 2.0), rnd.uniform(-1.0, 1.0)] for _ in range(n)]
    (directory / "wc.json").write_text(json.dumps(weights))


def _make_sets(parent: Path, workdir: Path, seeds) -> list[tuple[str, Path, dict]]:
    sets = []
    for seed in seeds:
        directory = workdir / f"cli-files-{seed}"
        directory.mkdir()
        subprocess.run([sys.executable, "-c", _MAKE_CLI_FILES, str(directory), str(seed)],
                       env=_env(parent, ROOT / "perfbench"), check=True)
        _write_weights(directory, seed)
        sets.append((f"cli-files seed {seed}", directory, CLI_FILES))
    directory = workdir / "demo"
    subprocess.run([sys.executable, str(ROOT / "scripts" / "make_demo_inputs.py"),
                    str(directory)], env=_env(parent), check=True, capture_output=True)
    _write_weights(directory, 0)
    sets.append(("demo", directory, DEMO_FILES))
    for how in ("1e-30", "1e200", "ties"):
        derived = workdir / f"demo-{how}"
        subprocess.run([sys.executable, "-c", _MAKE_EXTREME, str(directory), str(derived), how],
                       env=_env(parent), check=True)
        sets.append((f"demo {how}", derived, DEMO_FILES))
    return sets


def _run(src: Path, directory: Path, argv: list[str], out: str) -> dict:
    """Exit code, stderr, report and emitted files of one run, out-dir named alike."""
    proc = subprocess.run([sys.executable, "-m", "equitile.cli", *argv], cwd=directory,
                          env=_env(src), capture_output=True, text=True)
    stdout = proc.stdout.replace(out, "OUT")
    try:
        report = json.loads(stdout)
    except ValueError:
        report = stdout
    if isinstance(report, dict):
        report.pop("timing_s", None)
    emitted = {}
    if (directory / out).is_dir():
        emitted = {str(p.relative_to(directory / out)): p.read_bytes()
                   for p in sorted((directory / out).rglob("*")) if p.is_file()}
    stderr = proc.stderr.replace(out, "OUT").replace(str(src), "SRC")
    stderr = re.sub(r"(SRC\S*\.py):\d+:", r"\1:N:", stderr)  # a warning's location
    return {"exit code": proc.returncode, "stderr": stderr,
            "stdout": report, "files": emitted}


def _differences(a: dict, b: dict) -> list[str]:
    diffs = [key for key in ("exit code", "stderr", "stdout") if a[key] != b[key]]
    if a["files"].keys() != b["files"].keys():
        diffs.append(f"files {sorted(a['files'])} vs {sorted(b['files'])}")
    else:
        diffs += [f"file {name}" for name in a["files"] if a["files"][name] != b["files"][name]]
    return diffs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent_src")
    ap.add_argument("change_src")
    ap.add_argument("--seeds", nargs="+", type=int, default=[1, 5, 9])
    ap.add_argument("--workdir", help="where to make the scratch directory (default: the "
                    "system's temporary directory); it is removed at the end")
    args = ap.parse_args(argv)
    trees = {"parent": _src(args.parent_src), "change": _src(args.change_src)}

    workdir = Path(tempfile.mkdtemp(prefix="cli_diff-", dir=args.workdir))
    status = 0
    try:
        for label, directory, names in _make_sets(trees["parent"], workdir, args.seeds):
            for name, template in COMMANDS:
                runs = {}
                for tree, src in trees.items():
                    out = f"out-{tree}-{name}"
                    runs[tree] = _run(src, directory,
                                      [t.format(out=out, **names) for t in template], out)
                diffs = _differences(runs["parent"], runs["change"])
                status |= bool(diffs)
                change = runs["change"]
                verdict = "DIFFERENT " + ", ".join(diffs) if diffs else "same"
                print(f"{label} {name}: {verdict} (exit {change['exit code']}, "
                      f"{len(change['files'])} files)", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("no differences" if status == 0 else "differences found")
    return status


if __name__ == "__main__":
    sys.exit(main())
