"""Spans and counts recorded by the benchmark around calls into each module.

A span is (name, start, end, parent, instance): parent is the index of the
enclosing span or -1, instance the id of the benchmark instance it belongs
to. Spans stay in memory and are written out when the run ends. Spans are
recorded only from the benchmark's own files; the package is not patched.
Package calls that no metric names (building an indicator, assembling A_hat,
splitting side blocks) get spans too, so that they do not count as glue;
they appear only in the trace file.
"""
from __future__ import annotations

import json
import time
import tracemalloc
from collections import Counter
from contextlib import contextmanager, nullcontext

#: every span the workloads record: name -> (O(N^2) target, so also reported
#: per matrix entry as <name>.ns_per_n2; tracemalloc peak recorded as
#: <name>.peak_alloc_mb). A span not called on a workload reports 0.
SPANS = {
    "partition.check_equitable": (True, True),
    "partition.epsilon": (True, True),
    "partition.regular": (True, True),
    "partition.refine": (False, True),
    "partition.weighted_refine": (False, True),
    "triangularize.quotient": (True, True),
    "triangularize.deviation": (True, True),
    "triangularize.block_triangularize": (True, True),
    "triangularize.spectrum_split": (False, True),
    "analysis.deviation_report": (False, True),
    "analysis.theta_residual": (True, True),
    "analysis.weyl_check": (False, True),
    "mmio.load": (True, True),
    "mmio.save": (True, True),
    "rectangular.block_svd": (False, True),
    "rectangular.rect_transform": (True, True),
    "rectangular.deviation_rect": (True, True),
    "cli.import": (False, False),
    "cli.refine": (False, False),
    "cli.check": (False, False),
    "cli.transform": (False, False),
    "cli.split": (False, False),
    "cli.rect": (False, False),
}

#: counts recorded at the same boundaries, with their units
COUNTS = {
    "reflector.multiplies": "count",
    "partition.refine_cells": "count",
    "mmio.bytes_read": "B",
    "mmio.bytes_written": "B",
}

INSTANCE = "instance"
REPLAY = "replay"


class NullTracer:
    """Tracing off: every hook does nothing."""

    def span(self, name, n2=0):
        return nullcontext()

    def instance(self, kind, replay=False):
        return nullcontext()

    def multiplies(self):
        return nullcontext()

    def count(self, name, n):
        pass


class Tracer(NullTracer):
    """Records spans and counts in memory.

    n2 is the number of matrix entries the call works on, for ns_per_n2.
    With alloc=True each span also records its tracemalloc peak above the
    memory traced at its start; the timings of such a run are not used.
    """

    def __init__(self, alloc: bool = False):
        self.spans: list[list] = []  # name, start, end, parent, instance, n2, peak
        self.counts: Counter = Counter()
        self.alloc = alloc
        self._stack: list[int] = []
        self._instance = -1

    @contextmanager
    def span(self, name, n2=0):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, 0.0, 0.0, parent, self._instance, n2, 0]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        if self.alloc:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        rec[1] = time.perf_counter()
        try:
            yield
        finally:
            rec[2] = time.perf_counter()
            if self.alloc:
                rec[6] = tracemalloc.get_traced_memory()[1] - base
            self._stack.pop()

    def instance(self, kind, replay=False):
        """A span around one case of a cycle. A replay is not an instance:
        its span is named REPLAY and its self time is not glue."""
        self._instance += 1
        return self.span(REPLAY if replay else f"{INSTANCE}:{kind}")

    @contextmanager
    def multiplies(self):
        from equitile import opcount

        with opcount.counting() as c:
            yield
        self.counts["reflector.multiplies"] += c.multiplies

    def count(self, name, n):
        self.counts[name] += n

    def glue_seconds(self) -> float:
        """Instance time not covered by any call into the package. Replays
        are left out."""
        child = Counter()
        for _, s, e, parent, *_ in self.spans:
            if parent >= 0:
                child[parent] += e - s
        return sum(e - s - child[i] for i, (name, s, e, *_) in enumerate(self.spans)
                   if name.startswith(f"{INSTANCE}:"))

    def dump(self, path, meta: dict) -> None:
        fields = ["name", "start", "end", "parent", "instance", "n2", "peak_alloc_bytes"]
        with open(path, "w") as fh:
            json.dump({"meta": meta, "fields": fields, "spans": self.spans,
                       "counts": dict(self.counts)}, fh)


def layer_metrics(traced: Tracer, probe: Tracer, instances: int) -> dict:
    """Per-layer metrics, per measured instance, as name -> (value, unit)."""
    total = Counter()
    n2 = Counter()
    peak = Counter()
    for name, s, e, _, _, entries, _ in traced.spans:
        total[name] += e - s
        n2[name] += entries
    for name, *_, alloc in probe.spans:
        peak[name] = max(peak[name], alloc)
    out = {}
    for name, (quadratic, alloc) in SPANS.items():
        out[f"{name}_s"] = (total[name] / instances, "s")
        if quadratic:
            out[f"{name}.ns_per_n2"] = (total[name] * 1e9 / n2[name] if n2[name] else 0.0, "ns")
        if alloc:
            out[f"{name}.peak_alloc_mb"] = (peak[name] / 2**20, "MB")
    for name, unit in COUNTS.items():
        out[name] = (traced.counts[name] / instances, unit)
    out["trace.glue_s"] = (traced.glue_seconds() / instances, "s")
    return out
