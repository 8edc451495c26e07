#!/usr/bin/env python3
"""Print each metric's median and quartiles for one or two result sets.

    python3 perfbench/compare.py perfbench/baseline.jsonl perfbench/out/mine.jsonl

A set is a JSON-lines file written by perfbench/sweep.py. Every run of the
sets compared must have the same run length (`seconds`) and trace setting;
the command stops with exit code 2 otherwise. Rows are
workload and metric. The spread is the distance between the first and third
quartile (statistics.quantiles, n=4) as a share of the median. For a metric
with a bound in BENCHMARK.json:

- one set: "steady" when the spread is below a third of the bound,
  "noisy" when below the bound, else "unresolved";
- two sets: "unresolved" when either spread exceeds the bound, unless every
  run of the second set is better than every run of the first; otherwise
  "worse" when the second median is worse than the first by more than the
  bound, else "within bound".
"""
from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path, runs: set) -> dict:
    """(workload, metric) -> list of values; adds each run's (seconds,
    trace) to `runs`."""
    values = defaultdict(list)
    for line in Path(path).read_text().splitlines():
        rec = json.loads(line)
        runs.add((rec.get("seconds"), rec.get("trace")))
        for name, m in rec["result"]["metrics"].items():
            values[rec["workload"], name].append(m["value"])
    return values


def stats(vals):
    q1, med, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
    spread = (q3 - q1) / abs(med) if med else 0.0
    return med, q1, q3, spread


def verdict(spec, a, b=None) -> str:
    bound = spec.get("bound")
    if bound is None:
        return ""
    _, _, _, sa = stats(a)
    if b is None:
        return "steady" if sa < bound / 3 else "noisy" if sa <= bound else "unresolved"
    lower = spec["better"] == "lower"
    all_better = (max(b) < min(a)) if lower else (min(b) > max(a))
    if max(sa, stats(b)[3]) > bound and not all_better:
        return "unresolved"
    ma, mb = statistics.median(a), statistics.median(b)
    worse = (mb - ma) / abs(ma) if lower else (ma - mb) / abs(ma)
    return "worse" if worse > bound else "within bound"


def main(argv) -> int:
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    runs: set = set()
    sets = [load(p, runs) for p in argv]
    if len(runs) != 1:
        print(f"error: the runs differ in (seconds, trace): {sorted(runs, key=str)}",
              file=sys.stderr)
        return 2
    present = set().union(*sets)
    order = [w["name"] for w in bench["workloads"]]
    order += sorted({w for w, _ in present} - set(order))
    fmt = "{:.6g} [{:.6g}, {:.6g}] ±{:.1%} n={}"
    for workload in order:
        names = list(specs) + sorted({n for w, n in present if w == workload} - set(specs))
        for name in names:
            vals = [s.get((workload, name)) for s in sets]
            if not any(vals):
                continue
            spec = specs.get(name, {})
            cols = [fmt.format(*stats(v), len(v)) if v else "-" for v in vals]
            v = verdict(spec, *vals) if all(vals) else ""
            if spec.get("bound") is not None:
                v = f"{v} (bound {spec['bound']:g})"
            print(f"{workload:<13} {name:<46} " + "  |  ".join(cols) + f"  {v}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
