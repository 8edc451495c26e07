#!/usr/bin/env python3
"""How fast and how lean is load_matrix_market on the files the CLI writes?

Writes seeded array files in the shapes of a cli-files session of
perfbench/ (a 600x600 complex and a 600x500 real matrix of normal entries)
with save_matrix_market, and prints per file the load time per value (a
complex entry is two values; best of --repeats), the peak that tracemalloc
traces during one extra load, and whether every value is bit for bit the
one np.loadtxt reads (the script fails otherwise).

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

from equitile.mmio import load_matrix_market, save_matrix_market

SHAPES = {"herm": ((600, 600), True), "rect": ((600, 500), False)}


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
        for name, (shape, complex_) in SHAPES.items():
            M = rng.normal(size=shape) + (1j * rng.normal(size=shape) if complex_ else 0)
            path = out / f"{name}.mtx"
            save_matrix_market(path, M)
            values = M.size * (2 if complex_ else 1)
            best = float("inf")
            for _ in range(args.repeats):
                t = time.perf_counter()
                got = load_matrix_market(path).matrix
                best = min(best, time.perf_counter() - t)
            tracemalloc.start()
            load_matrix_market(path)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            want = np.loadtxt(path, skiprows=2, ndmin=2)
            want = (want.view(complex) if complex_ else want).reshape(shape[::-1]).T
            assert got.tobytes() == np.ascontiguousarray(want).tobytes(), name
            print(f"{name}.mtx {shape[0]}x{shape[1]} {'complex' if complex_ else 'real'}: "
                  f"{best / values * 1e9:.0f} ns a value, peak {peak / 2 ** 20:.2f} MiB "
                  f"({peak / M.nbytes:.2f}x the matrix), bit-identical to np.loadtxt")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
