#!/usr/bin/env python3
"""How fast and how lean are the Matrix Market reader and block writer?

Writes seeded array files in the shapes of a cli-files session of
perfbench/ (a 600x600 complex and a 600x500 real matrix of normal entries)
with save_matrix_market, and prints per file the load time per value (a
complex entry is two values; best of --repeats), the peak that tracemalloc
traces during one extra load, and whether every value is bit for bit the
one np.loadtxt reads.

Then it writes the five files of `equitile transform --emit full,E,F,D`
for a 600x600 complex block form with k=10 (A_hat, E, D_minus,
D_plus_conj, F) in one pass, as the command line does, and again with
one save_matrix_market of A_hat and of each block, and prints for each
the time per value written (best of --repeats) and the traced peak of
one extra run. Every file of the one pass must be byte-identical to
its save. The script fails on any mismatch.

    PYTHONPATH=src python scripts/mmio_timing.py
    PYTHONPATH=src python scripts/mmio_timing.py --repeats 9 --dir /tmp/mtx
"""
from __future__ import annotations

import argparse
import tempfile
import time
import tracemalloc
from pathlib import Path

import numpy as np

from equitile.cli import _emit_blocks
from equitile.mmio import load_matrix_market, save_matrix_market
from equitile.rectangular import _BlockForm

SHAPES = {"herm": ((600, 600), True), "rect": ((600, 500), False)}
NAMES = ("A_hat", "E", "D_minus", "D_plus_conj", "F")


def _best_and_peak(step, repeats: int) -> tuple[float, int]:
    """The least time of repeats calls of step, and the traced peak of one more."""
    best = float("inf")
    for _ in range(repeats):
        t = time.perf_counter()
        step()
        best = min(best, time.perf_counter() - t)
    tracemalloc.start()
    try:
        step()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return best, peak


def _loads(out: Path, rng, repeats: int) -> None:
    for name, (shape, complex_) in SHAPES.items():
        M = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_ else 0)
        path = out / f"{name}.mtx"
        save_matrix_market(path, M)
        values = M.size * (2 if complex_ else 1)
        best, peak = _best_and_peak(lambda: load_matrix_market(path), repeats)
        got = load_matrix_market(path).matrix
        want = np.loadtxt(path, skiprows=2, ndmin=2)
        want = (want.view(complex) if complex_ else want).reshape(shape[::-1]).T
        if got.tobytes() != np.ascontiguousarray(want).tobytes():
            raise SystemExit(f"{name}.mtx: a value differs from np.loadtxt's")
        print(f"load {name}.mtx {shape[0]}x{shape[1]} {'complex' if complex_ else 'real'}: "
              f"{best / values * 1e9:.0f} ns a value, peak {peak / 2 ** 20:.2f} MiB "
              f"({peak / M.nbytes:.2f}x the matrix), bit-identical to np.loadtxt")


def _emission(out: Path, rng, repeats: int, n: int = 600, k: int = 10) -> None:
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    form = _BlockForm(M, k, k)
    one_pass, per_block = out / "one_pass", out / "per_block"
    per_block.mkdir(exist_ok=True)

    def save_each():
        for name in NAMES:
            save_matrix_market(per_block / f"{name}.mtx", getattr(form, name))

    values = 2 * 2 * M.size  # each entry twice (in A_hat and in its block), two parts
    for label, step in (("one pass", lambda: _emit_blocks(one_pass, form, NAMES)),
                        ("a save per block", save_each)):
        best, peak = _best_and_peak(step, repeats)
        print(f"emit {', '.join(NAMES)} of a {n}x{n} complex block form, k={k}, {label}: "
              f"{best * 1e3:.0f} ms, {best / values * 1e9:.0f} ns a value written, "
              f"peak {peak / 2 ** 20:.2f} MiB ({peak / M.nbytes:.2f}x A_hat)")
    for name in NAMES:
        if (one_pass / f"{name}.mtx").read_bytes() != (per_block / f"{name}.mtx").read_bytes():
            raise SystemExit(f"{name}.mtx: the one-pass file differs from its save")
    print("every one-pass file is byte-identical to its save")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--repeats", type=int, default=5)
    ap.add_argument("--seed", type=int, default=11)
    ap.add_argument("--dir", type=Path, default=None, help="keep the files here")
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        out = args.dir or Path(tmp)
        out.mkdir(parents=True, exist_ok=True)
        _loads(out, rng, args.repeats)
        _emission(out, rng, args.repeats)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
