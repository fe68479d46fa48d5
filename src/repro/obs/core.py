"""Metric primitives and the tracing registry.

A :class:`Registry` is a process-local collection point for three kinds of
metrics plus a tree of tracing spans:

* *counters* -- monotonically increasing event counts (``count``);
* *gauges* -- last-value-wins measurements (``gauge``);
* *histograms* -- streaming aggregates of observed values (``observe``),
  kept as count/sum/min/max plus a bounded deterministic sample reservoir
  for percentiles, so instrumenting a hot loop costs O(1) memory;
* *spans* -- nested wall-time intervals on the monotonic clock
  (``span``), forming a tree that mirrors the call structure.

Registries are plain objects: they can be used directly (as the E7
experiment does, to time both analyzers with one mechanism) or installed
as the process-wide active registry via :func:`repro.obs.collecting`, in
which case the library's built-in instrumentation feeds them.

Two v2 capabilities live here:

* **Streaming** -- sinks attached via :meth:`Registry.add_sink` receive a
  structured event for every mutation in real time (see
  :mod:`repro.obs.bus`).  With no sinks the emit branch is one truthiness
  check on an empty list.
* **Cross-process deltas** -- :meth:`Registry.delta` serializes a whole
  registry (counters, gauges, histogram state, span trees) to a JSON-ready
  dict and :meth:`Registry.merge_delta` folds such a delta into another
  registry, attaching the foreign span trees under the currently open span
  with process attribution.  This is how the sharded search's block
  registries, evaluated in worker processes, merge into the parent's
  single coherent trace.
"""

from __future__ import annotations

import math
import os
import time
from typing import Iterator, Mapping

__all__ = ["Histogram", "Span", "Registry"]

#: Bounded per-histogram sample reservoir for percentile estimates.
RESERVOIR_CAP = 512

#: Percentiles reported by :meth:`Histogram.as_dict` (and hence every
#: metrics export).
PERCENTILES = (50, 90, 99)


class Histogram:
    """Streaming aggregate of a series of observations.

    Alongside count/sum/min/max, a bounded reservoir of raw samples backs
    the percentile estimates.  The reservoir is **deterministic**: the
    first :data:`RESERVOIR_CAP` observations are kept verbatim (exact
    percentiles), after which each new observation overwrites the slot
    ``(count - 1) % cap`` -- no RNG, so identical observation sequences
    always produce identical percentile reports.
    """

    __slots__ = ("count", "total", "min", "max", "samples", "cap")

    def __init__(self, cap: int = RESERVOIR_CAP) -> None:
        self.count = 0
        self.total = 0.0
        self.min: float | None = None
        self.max: float | None = None
        self.samples: list[float] = []
        self.cap = cap

    def observe(self, value: float) -> None:
        """Fold one observation into the aggregate."""
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if len(self.samples) < self.cap:
            self.samples.append(value)
        else:
            self.samples[(self.count - 1) % self.cap] = value

    @property
    def mean(self) -> float:
        """Arithmetic mean of all observations (0.0 when empty)."""
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float | None:
        """Nearest-rank percentile over the reservoir (None when empty).

        Exact while ``count <= cap``; an estimate from the deterministic
        reservoir beyond that.
        """
        if not self.samples:
            return None
        ordered = sorted(self.samples)
        # Classic nearest-rank: the smallest value with at least q% of
        # the samples at or below it.
        rank = max(0, min(len(ordered) - 1,
                          math.ceil(q * len(ordered) / 100) - 1))
        return ordered[rank]

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's state into this one.

        Count/sum/min/max merge exactly.  The reservoirs are combined as a
        multiset: while the union fits the cap it is kept whole (so
        percentiles stay exact and independent of how observations were
        partitioned across processes); an oversized union is sorted and
        decimated to ``cap`` evenly spaced order statistics, which is a
        pure function of the combined multiset -- merge order never
        changes the result.
        """
        self.count += other.count
        self.total += other.total
        if other.min is not None and (self.min is None or other.min < self.min):
            self.min = other.min
        if other.max is not None and (self.max is None or other.max > self.max):
            self.max = other.max
        combined = self.samples + other.samples
        if len(combined) <= self.cap:
            self.samples = combined
        else:
            combined.sort()
            n = len(combined)
            self.samples = [
                combined[round(i * (n - 1) / (self.cap - 1))]
                for i in range(self.cap)
            ]

    def state_dict(self) -> dict:
        """Full serializable state (for cross-process deltas)."""
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "samples": list(self.samples),
        }

    @classmethod
    def from_state(cls, state: Mapping) -> "Histogram":
        hist = cls()
        hist.count = int(state["count"])
        hist.total = float(state["sum"])
        hist.min = state["min"]
        hist.max = state["max"]
        hist.samples = [float(v) for v in state.get("samples", ())][:hist.cap]
        return hist

    def as_dict(self) -> dict:
        """JSON-ready summary (count/sum/min/max/mean + percentiles)."""
        out = {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
        }
        for q in PERCENTILES:
            out[f"p{q}"] = self.percentile(q)
        return out

    def __repr__(self) -> str:
        return (
            f"Histogram(count={self.count}, sum={self.total:g}, "
            f"min={self.min}, max={self.max})"
        )


class Span:
    """One timed interval in the trace tree.

    ``start``/``end`` are :func:`time.perf_counter` readings; ``duration``
    is valid after the span closes (and reads as time-so-far while open).
    """

    __slots__ = ("span_id", "parent_id", "name", "attrs", "start", "end", "children")

    def __init__(
        self,
        span_id: int,
        parent_id: int | None,
        name: str,
        attrs: Mapping | None = None,
    ):
        self.span_id = span_id
        self.parent_id = parent_id
        self.name = name
        self.attrs = dict(attrs) if attrs else {}
        self.start = time.perf_counter()
        self.end: float | None = None
        self.children: list[Span] = []

    @property
    def duration(self) -> float:
        """Seconds elapsed (to now, if the span is still open)."""
        return (self.end if self.end is not None else time.perf_counter()) - self.start

    def close(self) -> None:
        """Stamp the end time (idempotent)."""
        if self.end is None:
            self.end = time.perf_counter()

    def walk(self) -> Iterator["Span"]:
        """Depth-first, pre-order iteration over this span and descendants."""
        yield self
        for child in self.children:
            yield from child.walk()

    def to_dict(self) -> dict:
        """The subtree as a JSON-ready nested dict (ids are omitted; they
        are registry-local and reassigned on merge)."""
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "attrs": dict(self.attrs),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:
        return f"Span({self.name!r}, {self.duration * 1e3:.3f}ms)"


class _SpanContext:
    """Context manager pushing/popping one span on a registry's stack."""

    __slots__ = ("_registry", "_span")

    def __init__(self, registry: "Registry", span: Span):
        self._registry = registry
        self._span = span

    def __enter__(self) -> Span:
        return self._span

    def __exit__(self, *exc) -> None:
        self._span.close()
        registry = self._registry
        stack = registry._stack
        if stack and stack[-1] is self._span:
            stack.pop()
        if registry.sinks:
            registry._emit(
                "span_end",
                self._span.name,
                id=self._span.span_id,
                dur_s=self._span.duration,
            )
        return None


class Registry:
    """Process-local metrics + trace collection point."""

    def __init__(self) -> None:
        self.counters: dict[str, int] = {}
        self.gauges: dict[str, float] = {}
        self.histograms: dict[str, Histogram] = {}
        self.roots: list[Span] = []
        self.sinks: list = []
        self.pid = os.getpid()
        self._stack: list[Span] = []
        self._next_id = 0

    # -- the event bus --------------------------------------------------------
    def add_sink(self, sink) -> None:
        """Attach a sink; every subsequent mutation streams to it."""
        self.sinks.append(sink)

    def remove_sink(self, sink) -> None:
        """Detach (and close) a previously attached sink."""
        try:
            self.sinks.remove(sink)
        except ValueError:
            return
        sink.close()

    def _emit(self, type_: str, name: str, **fields) -> None:
        event = {
            "type": type_,
            "ts": time.perf_counter(),
            "pid": self.pid,
            "name": name,
        }
        event.update(fields)
        for sink in self.sinks:
            sink.emit(event)

    def emit_series(self, name: str, points) -> None:
        """Stream a pre-computed time series (e.g. busy PEs per beat).

        ``points`` is an iterable of ``(t, value)`` pairs on a timebase
        the producer defines (the simulator uses beats).  Emitted only
        when sinks are attached; series are bus-only, never part of the
        metrics dict.
        """
        if self.sinks:
            self._emit(
                "series", name, points=[[t, v] for t, v in points]
            )

    def progress(self, name: str, total: int | None = None, **kw):
        """A live :class:`~repro.obs.bus.Progress` tracker on this registry."""
        from repro.obs.bus import Progress

        return Progress(self, name, total, **kw)

    # -- scalar metrics -------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        value = self.counters.get(name, 0) + n
        self.counters[name] = value
        if self.sinks:
            self._emit("counter", name, delta=n, value=value)

    def count_many(self, values: Mapping[str, int], prefix: str = "") -> None:
        """Fold a whole ``{name: n}`` mapping into the counters at once
        (lets hot loops keep a local dict and report on exit)."""
        emit = bool(self.sinks)
        for key, n in values.items():
            name = prefix + key
            value = self.counters.get(name, 0) + n
            self.counters[name] = value
            if emit:
                self._emit("counter", name, delta=n, value=value)

    def gauge(self, name: str, value: float) -> None:
        """Set gauge ``name`` (last write wins)."""
        self.gauges[name] = value
        if self.sinks:
            self._emit("gauge", name, value=value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram ``name``."""
        hist = self.histograms.get(name)
        if hist is None:
            hist = self.histograms[name] = Histogram()
        hist.observe(value)
        if self.sinks:
            self._emit("observe", name, value=value)

    # -- spans ----------------------------------------------------------------
    def span(self, name: str, **attrs) -> _SpanContext:
        """Open a nested span; use as ``with reg.span("phase") as sp:``.

        The yielded :class:`Span` exposes ``duration`` after the block, so
        span timing doubles as a timer API.
        """
        parent = self._stack[-1] if self._stack else None
        self._next_id += 1
        span = Span(
            self._next_id,
            parent.span_id if parent is not None else None,
            name,
            attrs,
        )
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        self._stack.append(span)
        if self.sinks:
            self._emit(
                "span_start",
                name,
                id=span.span_id,
                parent=span.parent_id,
                attrs=span.attrs,
            )
        return _SpanContext(self, span)

    def current_span(self) -> Span | None:
        """The innermost open span, if any."""
        return self._stack[-1] if self._stack else None

    def iter_spans(self) -> Iterator[Span]:
        """All spans, depth-first from each root."""
        for root in self.roots:
            yield from root.walk()

    # -- cross-process deltas -------------------------------------------------
    def delta(self) -> dict:
        """The registry's full state as a JSON-ready dict.

        Worker processes return this over the result channel; the parent
        folds it back with :meth:`merge_delta`.
        """
        return {
            "pid": self.pid,
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: h.state_dict() for name, h in self.histograms.items()
            },
            "spans": [root.to_dict() for root in self.roots],
        }

    def _graft_span(self, parent: Span | None, node: Mapping,
                    extra_attrs: Mapping | None) -> None:
        self._next_id += 1
        span = Span(
            self._next_id,
            parent.span_id if parent is not None else None,
            node["name"],
            node.get("attrs"),
        )
        if extra_attrs:
            span.attrs.update(extra_attrs)
        span.start = node["start"]
        span.end = node["end"]
        if parent is not None:
            parent.children.append(span)
        else:
            self.roots.append(span)
        for child in node.get("children", ()):
            self._graft_span(span, child, None)

    def merge_delta(self, delta: Mapping, attrs: Mapping | None = None) -> None:
        """Fold a :meth:`delta` from another registry into this one.

        Counters add, gauges last-write-win, histograms merge their exact
        aggregates and sample reservoirs, and span trees are grafted under
        the currently open span (or as new roots) with fresh ids.  The
        delta's ``pid`` plus any ``attrs`` are stamped onto the root of
        each grafted tree, so merged traces keep per-process attribution.
        Merging the deltas of a partitioned run in partition order yields
        the same aggregate metrics as the unpartitioned run (up to the
        reservoir decimation documented on :meth:`Histogram.merge`).
        """
        for name, n in delta.get("counters", {}).items():
            self.count(name, n)
        for name, value in delta.get("gauges", {}).items():
            self.gauge(name, value)
        for name, state in delta.get("histograms", {}).items():
            hist = self.histograms.get(name)
            if hist is None:
                hist = self.histograms[name] = Histogram()
            hist.merge(Histogram.from_state(state))
        root_attrs = dict(attrs) if attrs else {}
        if "pid" in delta:
            root_attrs.setdefault("pid", delta["pid"])
        parent = self.current_span()
        for node in delta.get("spans", ()):
            self._graft_span(parent, node, root_attrs)

    # -- aggregation ----------------------------------------------------------
    def span_stats(self) -> dict[str, dict]:
        """Wall time per span name: ``{name: {count, total_s, min_s, max_s}}``."""
        agg: dict[str, Histogram] = {}
        for span in self.iter_spans():
            hist = agg.get(span.name)
            if hist is None:
                hist = agg[span.name] = Histogram()
            hist.observe(span.duration)
        return {
            name: {
                "count": h.count,
                "total_s": h.total,
                "min_s": h.min,
                "max_s": h.max,
            }
            for name, h in agg.items()
        }

    def metrics(self) -> dict:
        """The flat, JSON-ready metrics dict (the canonical export)."""
        return {
            "counters": dict(self.counters),
            "gauges": dict(self.gauges),
            "histograms": {
                name: h.as_dict() for name, h in self.histograms.items()
            },
            "spans": self.span_stats(),
        }

    def __repr__(self) -> str:
        return (
            f"Registry({len(self.counters)} counters, {len(self.gauges)} "
            f"gauges, {len(self.histograms)} histograms, "
            f"{sum(1 for _ in self.iter_spans())} spans)"
        )
