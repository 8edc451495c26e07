#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload dense-fine --seed 1 --seconds 20 --trace 0

Run it from the root of a source checkout; the package is imported from
src/ and the CLI runs as `python -m equitile.cli` on the same source. One
process runs a closed loop, one instance at a time, in whole cycles over
the workload's cases until the instances have taken --seconds. Every output
is checked against oracles.py, in forked processes so that oracle memory
never enters the measured peak RSS. With --trace 0 it reports the end-to-end
metrics, timed at the host's reference speed (clock.py); with --trace 1 the
per-layer metrics of a traced run, which also writes its spans to
perfbench/out/. The last line of stdout is one JSON object; metric names
and units must match BENCHMARK.json.
"""
from __future__ import annotations

import argparse
import json
import os
import pickle
import platform
import shutil
import statistics
import subprocess
import sys
import tracemalloc
import traceback
from pathlib import Path

import spans
from clock import HostClock, Timing, WallClock, peak_rss_kb

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPS = 3
#: workloads whose program runs in CLI processes, so peak RSS is theirs
CHILD_RSS = {"cli-files"}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def declared_metrics(trace: int) -> dict:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench["per_layer" if trace else "end_to_end"]}


def git_commit() -> str:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"


def environment(equitile, np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": NPROC,
        "numpy": np.__version__,
        "python": platform.python_version(),
        "equitile": equitile.__version__,
        "commit": git_commit(),
    }


def forked(fn, *args):
    """fn(*args) in a forked process; its result comes back pickled.

    Oracle work runs this way so that its memory never enters this
    process's peak RSS. The process has ended when this returns. An
    exception in it is raised here as RuntimeError with its traceback.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_fd)
            try:
                result = (True, fn(*args))
            except BaseException:
                result = (False, traceback.format_exc())
            with os.fdopen(write_fd, "wb") as fh:
                pickle.dump(result, fh)
        finally:
            os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    try:
        ok, value = pickle.loads(data)
    except Exception as exc:
        raise RuntimeError(f"oracle process {pid} sent no result") from exc
    if not ok:
        raise RuntimeError(value)
    return value


def _check(case, out, ref):
    from workloads import Checks

    checks = Checks()
    case.check(out, ref, checks)
    return checks.attempted, checks.failures


def run_cycles(cases, refs, seconds, tracer, clock, checks) -> list[tuple]:
    """Whole cycles over the cases, at least one, until the instances (cases
    that are not replays) have taken `seconds` of wall time.

    Returns a (Timing, n2, kind) triple per instance."""
    samples: list[tuple] = []
    while not samples or sum(s[0].wall for s in samples) < seconds:
        for case in cases:
            with tracer.instance(case.kind, case.replay), clock.timed() as timing:
                try:
                    out = case.run(tracer, clock)
                except Exception:  # a failed operation: count it and go on
                    traceback.print_exc()
                    checks.expect(False, f"{case.kind}: the program raised")
                    out = None
            if not case.replay:
                samples.append((timing, case.n2, case.kind))
            if out is not None and case.check is not None:
                try:
                    attempted, failures = forked(_check, case, out, refs[case])
                    checks.attempted += attempted
                    checks.failures += failures
                except Exception:  # an output the oracle cannot read is wrong
                    traceback.print_exc()
                    checks.expect(False, f"{case.kind}: output could not be checked")
    return samples


def _mean_wall(samples) -> float:
    return sum(s[0].wall for s in samples) / len(samples)


def end_to_end(cases, refs, args, setup, checks) -> dict:
    clock = HostClock()
    samples = run_cycles([c for c in cases if not c.replay], refs, args.seconds,
                         spans.NullTracer(), clock, checks)
    entries = sum(n for _, n, _ in samples)
    rss_kb = clock.child_maxrss_kb if args.workload in CHILD_RSS else peak_rss_kb()
    ok = 1 - len(checks.failures) / checks.attempted
    print(f"  {len(samples)} instances; {checks.attempted} checks, {len(checks.failures)} failed, "
          f"ops_failed_ratio {1 - ok!r}")
    print(f"  wall clock: setup_s {setup.wall:.4g}, entries_per_s "
          f"{entries / sum(t.wall for t, _, _ in samples):.4g}, instance_s.p50 "
          f"{statistics.median(t.wall for t, _, _ in samples):.4g}; host slowdown per instance "
          + " ".join(f"{t.slowdown:.2f}" for t, _, _ in samples))
    print("  instance_s: " + " ".join(f"{t.corrected:.3f}" for t, _, _ in samples))
    by_kind: dict[str, list] = {}
    for t, _, kind in samples:
        by_kind.setdefault(kind, []).append(t.corrected)
    print("  instance_s median by kind: "
          + ", ".join(f"{kind} {statistics.median(v):.4g}" for kind, v in by_kind.items()))
    return {
        "setup_s": (setup.corrected, "s"),
        "entries_per_s": (entries / sum(t.corrected for t, _, _ in samples), "entries/s"),
        "instance_s.p50": (statistics.median(t.corrected for t, _, _ in samples), "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
        "ops_ok_ratio": (ok, "ratio"),
    }


def per_layer(cases, refs, args, checks, meta) -> dict:
    """Untraced and traced halves of the run, then one cycle under tracemalloc
    whose timings are discarded; per-layer values are per traced instance."""
    instances = [c for c in cases if not c.replay]
    plain = run_cycles(instances, refs, args.seconds / 2, spans.NullTracer(), WallClock(),
                       checks)
    tracer = spans.Tracer()
    traced = run_cycles(cases, refs, args.seconds / 2, tracer, WallClock(), checks)
    probe = spans.Tracer(alloc=True)
    tracemalloc.start()
    try:
        run_cycles(cases, refs, 0, probe, WallClock(), checks)
    finally:
        tracemalloc.stop()
    tracer.dump(OUT / f"trace-{args.workload}-{args.seed}.json", meta)
    metrics = spans.layer_metrics(tracer, probe, len(traced))
    metrics["trace.overhead_ratio"] = (_mean_wall(traced) / _mean_wall(plain), "ratio")
    print(f"  {len(plain)} untraced and {len(traced)} traced instances; "
          f"{checks.attempted} checks, {len(checks.failures)} failed")
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "equitile" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    try:
        declared = declared_metrics(args.trace)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2

    # the thread cap must be in place before numpy loads its BLAS
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(NPROC)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    sys.path.insert(0, str(SRC))
    clock = HostClock()
    with clock.timed() as import_time:
        import equitile
    if Path(equitile.__file__).resolve().parent != (SRC / "equitile").resolve():
        print(f"error: imported equitile from {equitile.__file__}", file=sys.stderr)
        return 2
    import numpy as np
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    env = environment(equitile, np)
    print(f"workload {args.workload} seed {args.seed} seconds {args.seconds} trace {args.trace}")
    print(f"env {json.dumps(env)}")
    workdir = OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        reps, cases = [], None
        for _ in range(SETUP_REPS):
            cases = None  # the previous set-up's inputs are not kept alive
            with clock.timed() as rep:
                cases = workloads.WORKLOADS[args.workload](args.seed, workdir)
            reps.append(rep)
        setup = Timing(wall=import_time.wall + statistics.median(r.wall for r in reps),
                       corrected=import_time.corrected
                       + statistics.median(r.corrected for r in reps))
        # oracle data is computed before the first instance and not timed
        refs = {case: forked(case.refs) for case in cases}
        checks = workloads.Checks()
        if args.trace:
            meta = {"workload": args.workload, "seed": args.seed, "env": env}
            metrics = per_layer(cases, refs, args, checks, meta)
        else:
            metrics = end_to_end(cases, refs, args, setup, checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    produced = {name: unit for name, (_, unit) in metrics.items()}
    if produced != declared:
        print(f"error: metrics differ from BENCHMARK.json: "
              f"{sorted(set(produced.items()) ^ set(declared.items()))}", file=sys.stderr)
        return 3
    for what in checks.failures[:20]:
        print(f"FAILED {what}", file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<45} {value:<14.6g} {unit}")
    failed = len(checks.failures)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": checks.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
