"""Spans recorded by the benchmark around its calls into each layer.

A span has a name, the layer it enters, start and end (``perf_counter``
seconds), the span that caused it, and the run id shared by the spans of one
op.  Spans stay in memory and are written out once, at the end of a run.
With tracing off the recorder keeps nothing, so the untraced run pays one
no-op context manager per call.
"""

from __future__ import annotations

import contextlib
import json
import time


class Tracer:
    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.run_id = ""

    @contextlib.contextmanager
    def span(self, name: str, layer: str):
        if not self.enabled:
            yield
            return
        rec = {"name": name, "layer": layer, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def durations(self, name: str, run_prefix: str = "") -> list[float]:
        """Wall seconds of every span called ``name`` in runs whose id starts
        with ``run_prefix``."""
        return [s["end"] - s["start"] for s in self.spans
                if s["name"] == name and s["run"].startswith(run_prefix)]

    def self_times(self, run_prefix: str) -> dict[str, list[float]]:
        """Per layer, the self seconds of each op (run) whose id starts with
        ``run_prefix``: a span's duration minus the part of it that its
        child spans cover, summed over the layer's spans in that op."""
        children: dict[int, list[dict]] = {}
        for s in self.spans:
            if s["parent"] is not None:
                children.setdefault(s["parent"], []).append(s)
        per_run: dict[str, dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            if not s["run"].startswith(run_prefix):
                continue
            covered = _union_length([(c["start"], c["end"]) for c in children.get(i, [])])
            layers = per_run.setdefault(s["run"], {})
            layers[s["layer"]] = layers.get(s["layer"], 0.0) + (s["end"] - s["start"]) - covered
        out: dict[str, list[float]] = {}
        for layers in per_run.values():
            for layer, v in layers.items():
                out.setdefault(layer, []).append(v)
        return out

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps(s) + "\n")


def _union_length(intervals: list[tuple[float, float]]) -> float:
    total, cur_start, cur_end = 0.0, None, None
    for a, b in sorted(intervals):
        if cur_end is None or a > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = a, b
        else:
            cur_end = max(cur_end, b)
    if cur_end is not None:
        total += cur_end - cur_start
    return total
