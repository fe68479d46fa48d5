"""Benchmark-side spans and per-layer self time.

The benchmark opens a span around every public call it makes into the
program, under one root span per job.  Spans the program records itself
(read through ``repro.obs.collecting()`` in a traced run) are grafted
under the benchmark span that made the call.  Everything stays in
memory until the run ends.

A span's *self time* is its duration minus the durations of its direct
children.  Self times telescope, so over one job the self times of all
layer spans plus the root's own self time (reported as ``unattributed``)
add up to the job's wall time.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager

__all__ = ["Tracer", "self_times"]


class Tracer:
    """Collects spans ``{id, parent, job, name, start, end}`` in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: per job: the program's own counters, summed over its calls
        self.counts: dict[int, dict[str, float]] = {}
        self._stack: list[dict] = []
        self._job = None

    def _open(self, name: str) -> dict:
        span = {
            "id": len(self.spans),
            "parent": self._stack[-1]["id"] if self._stack else None,
            "job": self._job,
            "name": name,
            "start": time.perf_counter(),
            "end": None,
        }
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def job(self, job_id: int):
        """The root span of one job; yields the span dict."""
        self._job = job_id
        span = self._open("job")
        try:
            yield span
        finally:
            self._close(span)
            self._job = None

    @contextmanager
    def span(self, name: str):
        """A layer span nested under the innermost open span."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def graft(self, node, parent: dict | None = None) -> None:
        """Attach one program span (a ``repro.obs`` ``Span``) and its
        subtree under ``parent`` (default: the innermost open span)."""
        parent = parent if parent is not None else self._stack[-1]
        span = {
            "id": len(self.spans),
            "parent": parent["id"],
            "job": self._job,
            "name": node.name,
            "start": node.start,
            "end": node.end if node.end is not None else node.start,
        }
        self.spans.append(span)
        for child in node.children:
            self.graft(child, span)

    def add_span(self, name: str, start: float, end: float) -> None:
        """A closed span with given times under the innermost open span
        (for time measured in another process)."""
        self.spans.append({
            "id": len(self.spans),
            "parent": self._stack[-1]["id"],
            "job": self._job,
            "name": name,
            "start": start,
            "end": end,
        })

    def absorb(self, registry) -> None:
        """Graft a ``repro.obs`` registry's spans under the innermost open
        span and add its counters to the current job's counts."""
        for root in registry.roots:
            self.graft(root)
        counts = self.counts.setdefault(self._job, {})
        for name, value in registry.counters.items():
            counts[name] = counts.get(name, 0) + value

    def add_counts(self, values: dict) -> None:
        counts = self.counts.setdefault(self._job, {})
        for name, value in values.items():
            counts[name] = counts.get(name, 0) + value

    def job_spans(self, job_id: int) -> list[dict]:
        return [s for s in self.spans if s["job"] == job_id]

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def self_times(spans: list[dict]) -> tuple[float, dict[str, float]]:
    """``(wall_s, {layer: self_s})`` for the spans of one job.

    ``wall_s`` is the root span's duration.  The root's own self time is
    returned under the key ``"unattributed"``.
    """
    child_total: dict[int, float] = {}
    for span in spans:
        if span["parent"] is not None:
            child_total[span["parent"]] = (
                child_total.get(span["parent"], 0.0) + span["end"] - span["start"]
            )
    wall = 0.0
    layers: dict[str, float] = {}
    for span in spans:
        own = span["end"] - span["start"] - child_total.get(span["id"], 0.0)
        if span["parent"] is None:
            wall = span["end"] - span["start"]
            layers["unattributed"] = layers.get("unattributed", 0.0) + own
        else:
            layers[span["name"]] = layers.get(span["name"], 0.0) + own
    return wall, layers
