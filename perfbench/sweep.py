#!/usr/bin/env python3
"""Run the benchmark over several seeds and collect the results in one set.

    python3 perfbench/sweep.py --out perfbench/out/mine.jsonl --seeds 1 2 3 4 5

Runs perfbench/run.py once per seed and every workload of BENCHMARK.json,
for its run_seconds, one at a time, seeds in the outer loop so slow spells
of the machine spread over all workloads. Each run appends one JSON line to
--out: workload, seed, seconds, trace, the environment record, the run's
result object and its other output lines. Compare sets with
perfbench/compare.py.
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", required=True, type=Path)
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(1, 11)))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    seconds = bench["run_seconds"]

    args.out.parent.mkdir(parents=True, exist_ok=True)
    status = 0
    for seed in args.seeds:
        for workload in (w["name"] for w in bench["workloads"]):
            cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds),
                   "--trace", str(args.trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                                  timeout=RUN_TIMEOUT_S)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}",
                      file=sys.stderr)
                status = 1
                continue
            env = next((json.loads(ln[4:]) for ln in lines if ln.startswith("env ")), None)
            result = json.loads(lines[-1])
            with args.out.open("a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed, "seconds": seconds,
                                     "trace": args.trace, "env": env, "result": result,
                                     "log": lines[:-1]}) + "\n")
            shown = {k: round(v["value"], 4) for k, v in result["metrics"].items()}
            print(f"{workload} seed {seed}: correct {result['correct']} {shown}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
