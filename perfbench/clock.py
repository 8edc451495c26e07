"""Wall time corrected to the host's reference speed.

On a host whose vCPUs share cores with other machines, each vCPU's speed
drifts by up to 2x, in stretches from under a second to minutes, and plain
wall times of one workload spread by about 20 % between runs. While a block
is timed, a timer signal runs a short reference loop every SAMPLE_EVERY_S
(and once at each end) in the process doing the work. The block is charged
with its wall time, less the loops' own time, divided by the mean slowdown
the loops saw. The loop is pure Python and touches no package code, so no
change to the program can move it.

Kept to the standard library's lightest modules: cli_child.py imports it
into every CLI process it times.
"""
from __future__ import annotations

import json
import os
import resource
import signal
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

#: iterations and uncontended duration of the reference loop, measured on a
#: 2.1 GHz Xeon vCPU; only the scale of corrected times depends on it
REF_LOOP = 50_000
REF_LOOP_S = 0.0018
SAMPLE_EVERY_S = 0.1

CLI_CHILD = Path(__file__).resolve().parent / "cli_child.py"


def peak_rss_kb() -> int:
    """Peak resident set of this process's own address space, in KiB.

    ru_maxrss is not used where VmHWM is available: after exec it also
    carries the RSS of the address space the process had before, which for
    a process started with fork or vfork is its parent's.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def host_slowdown() -> float:
    """How much slower than REF_LOOP_S the reference loop runs right now."""
    start = time.perf_counter()
    total = 0
    for i in range(REF_LOOP):
        total += i
    return (time.perf_counter() - start) / REF_LOOP_S


class Sampler:
    """Reference-loop samples taken on a timer signal, and their own time."""

    def __init__(self):
        self.samples: list[float] = []
        self.busy = 0.0

    def _tick(self, signum, frame):
        start = time.perf_counter()
        self.samples.append(host_slowdown())
        self.busy += time.perf_counter() - start

    def start(self) -> None:
        self.samples.append(host_slowdown())
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        self.samples.append(host_slowdown())

    def slowdown(self) -> float:
        return sum(self.samples) / len(self.samples)


class Timing:
    """Wall and corrected seconds of a timed block, set when it ends."""

    def __init__(self, wall: float = 0.0, corrected: float = 0.0):
        self.wall, self.corrected = wall, corrected

    @property
    def slowdown(self) -> float:
        return self.wall / self.corrected if self.corrected else 1.0


def run_cli(args, **kwargs) -> subprocess.CompletedProcess:
    """`python -m equitile.cli ARGS`, untimed."""
    return subprocess.run([sys.executable, "-m", "equitile.cli", *args], **kwargs)


class WallClock:
    """Plain wall time, for traced runs, whose spans must not hold samples."""

    run_cli = staticmethod(run_cli)

    @contextmanager
    def timed(self):
        timing = Timing()
        start = time.perf_counter()
        try:
            yield timing
        finally:
            timing.wall = timing.corrected = time.perf_counter() - start


class HostClock:
    """Times blocks and corrects them to the reference speed.

    Work done in a CLI process started through run_cli is corrected with the
    samples that process took itself, on the CPU it ran on: a sampler in
    this process would compete with it for a CPU and read a false slowdown.
    """

    def __init__(self):
        self._wall = self._charged = 0.0
        #: largest peak RSS (KiB) a CLI process started by run_cli reported
        self.child_maxrss_kb = 0

    def _open(self) -> None:
        self._sampler = Sampler()
        self._sampler.start()
        self._start = time.perf_counter()

    def _close(self) -> None:
        wall = time.perf_counter() - self._start - self._sampler.busy
        self._sampler.stop()
        self._charge(wall, self._sampler.slowdown())

    def _charge(self, wall: float, slowdown: float) -> None:
        self._wall += wall
        self._charged += wall / slowdown

    @contextmanager
    def timed(self):
        timing = Timing()
        self._wall = self._charged = 0.0
        self._open()
        try:
            yield timing
        finally:
            self._close()
            timing.wall, timing.corrected = self._wall, self._charged

    def run_cli(self, args, cwd, **kwargs) -> subprocess.CompletedProcess:
        """`python -m equitile.cli ARGS`, through cli_child.py, inside timed()."""
        self._close()
        report = Path(cwd) / f"speed-{os.getpid()}.json"
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, str(CLI_CHILD), str(report), *args],
                              cwd=cwd, **kwargs)
        wall = time.perf_counter() - start
        try:
            child = json.loads(report.read_text())
            report.unlink()
            self.child_maxrss_kb = max(self.child_maxrss_kb, child["maxrss_kb"])
            self._charge(wall - child["busy"], sum(child["samples"]) / len(child["samples"]))
        except (OSError, ValueError, KeyError, ZeroDivisionError):
            self._charge(wall, 1.0)  # no report: the process failed, which the checks see
        self._open()
        return proc
