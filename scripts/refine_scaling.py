#!/usr/bin/env python3
"""How does exact colour refinement scale on paths and grids?

Refines randomly relabelled path graphs and near-square grid graphs of N
vertices at color_tol 0 and prints, per input, the refinement time (best of
--repeats), the number of rounds, that time per round in microseconds, the
rounds that fell back from the signature key to the lexicographic sort (a
key collision or a key that is not finite), the cells found, the indices
summed into over every round after the first against the N*log2(N) bound of
the "process the smaller half" rule, and the form of the aggregate kernel
the rounds took: "table" (the stored entries of a sparse A) or "blocked".
The sums and the fallbacks are counted by wrapping the aggregate kernel and
the lexicographic sort during one extra, untimed run. Next to the
refinement it prints the equitability verdict on the
result: the time of check_equitable (best of --repeats) and the peak that
tracemalloc traces during one extra call, in MiB.

With --labels N it instead times Partition.from_labels on a random
permutation of 0..N-1 halved (N/2 cells of two), best of --repeats, and
prints the peak that tracemalloc traces during one extra run, in int64s
per index.

    PYTHONPATH=src python scripts/refine_scaling.py
    PYTHONPATH=src python scripts/refine_scaling.py --sizes 1000 --repeats 5
    PYTHONPATH=src python scripts/refine_scaling.py --labels 1000000
"""
from __future__ import annotations

import argparse
import time
import tracemalloc

import numpy as np

import equitile as eq
from equitile import partition


def path_graph(n: int) -> np.ndarray:
    A = np.zeros((n, n), dtype=np.int64)
    i = np.arange(n - 1)
    A[i, i + 1] = A[i + 1, i] = 1
    return A


def grid_graph(n: int) -> tuple[np.ndarray, str]:
    """r-by-c grid with r * c = n and r the largest divisor up to sqrt(n)."""
    r = max(d for d in range(1, int(np.sqrt(n)) + 1) if n % d == 0)
    c = n // r
    A = np.kron(path_graph(r), np.eye(c, dtype=np.int64)) + \
        np.kron(np.eye(r, dtype=np.int64), path_graph(c))
    return A, f"grid {r}x{c}"


def summed_per_round(A: np.ndarray) -> tuple[list[int], str, int]:
    """Indices each aggregate pass of one refinement summed into, in order,
    the kernel forms the passes took, and the rounds sorted lexicographically."""
    calls, forms, fallbacks = [], set(), []
    kernel, lexsort = partition._aggregate, partition._lexsort_groups

    def counted(M, lay, *args, cols=None, **kwargs):
        calls.append(lay.order.size if cols is None else cols[0].size)
        forms.add("table" if isinstance(M, partition._Entries) else "blocked")
        return kernel(M, lay, *args, cols=cols, **kwargs)

    def fallen(*args):
        fallbacks.append(args)
        return lexsort(*args)

    partition._aggregate, partition._lexsort_groups = counted, fallen
    try:
        eq.coarsest_front_equitable_refinement(A)
    finally:
        partition._aggregate, partition._lexsort_groups = kernel, lexsort
    return calls, "+".join(sorted(forms)), len(fallbacks)


def best_time(f, repeats: int):
    """f's result and its best wall time over repeats calls."""
    best = np.inf
    for _ in range(repeats):
        t = time.perf_counter()
        out = f()
        best = min(best, time.perf_counter() - t)
    return out, best


def traced_peak(f) -> int:
    """The peak bytes tracemalloc traces during one call of f."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def time_from_labels(n: int, repeats: int, rng) -> None:
    labels = rng.permutation(n) // 2
    p, best = best_time(lambda: eq.Partition.from_labels(labels), repeats)
    peak = traced_peak(lambda: eq.Partition.from_labels(labels))
    print(f"from_labels N={n} cells={p.k} time_s={best:.4f} "
          f"peak_int64_per_index={peak / (8 * n):.1f}")


def main(argv=None) -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--sizes", type=int, nargs="+", default=[250, 500, 1000, 2000])
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--labels", type=int, metavar="N",
                    help="time Partition.from_labels on N labels instead")
    args = ap.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    if args.labels:
        return time_from_labels(args.labels, args.repeats, rng)
    print(f"{'input':>14} {'N':>5} {'time_s':>8} {'rounds':>6} {'us_round':>8} {'lexsort':>7} "
          f"{'cells':>5} {'summed':>7} {'N*log2N':>8} {'kernel':>7} {'check_s':>8} "
          f"{'check_MiB':>9}")
    for n in args.sizes:
        for A, name in ((path_graph(n), "path"), grid_graph(n)):
            p = rng.permutation(n)
            A = A[np.ix_(p, p)]
            out, best = best_time(lambda: eq.coarsest_front_equitable_refinement(A), args.repeats)
            calls, form, fallbacks = summed_per_round(A)
            wi = eq.WeightedIndicator.unit(out)
            verdict, check = best_time(lambda: eq.check_equitable(A, wi), args.repeats)
            assert verdict.is_equitable
            peak = traced_peak(lambda: eq.check_equitable(A, wi))
            print(f"{name:>14} {n:>5} {best:>8.4f} {len(calls):>6} "
                  f"{best / len(calls) * 1e6:>8.1f} {fallbacks:>7} {out.k:>5} "
                  f"{sum(calls[1:]):>7} {n * np.log2(n):>8.0f} {form:>7} "
                  f"{check:>8.4f} {peak / 2**20:>9.2f}")


if __name__ == "__main__":
    main()
