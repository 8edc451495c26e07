"""Run the equitile CLI in this process while it samples the host's speed.

    python perfbench/cli_child.py REPORT SUBCOMMAND [ARGS...]

Runs the unmodified `equitile.cli` module as `python -m equitile.cli
SUBCOMMAND ARGS` would, with a clock.Sampler running. At exit it writes the
samples, their own time and the process's peak RSS to REPORT, for
clock.HostClock.run_cli.
"""
import atexit
import json
import runpy
import sys

from clock import Sampler, peak_rss_kb

sampler = Sampler()
sampler.start()
report = sys.argv[1]


@atexit.register
def _write_report():
    sampler.stop()
    with open(report, "w") as fh:
        json.dump({"samples": sampler.samples, "busy": sampler.busy,
                   "maxrss_kb": peak_rss_kb()}, fh)


sys.argv = ["equitile", *sys.argv[2:]]
runpy.run_module("equitile.cli", run_name="__main__", alter_sys=True)
