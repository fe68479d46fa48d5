"""Metric definitions and their computation from job records and spans.

End-to-end metrics come from untraced runs; per-layer metrics from a
separate traced run.  ``BENCHMARK.json`` declares the same names and
units (a test keeps the two in step).
"""

from __future__ import annotations

import math
import statistics
import time

from perfbench.tracing import self_times
from perfbench.workloads import IMPORT_MODULES

__all__ = ["END_TO_END", "PER_LAYER", "percentile", "host_probe", "slowdowns",
           "end_to_end", "per_layer", "self_time_table"]

#: name -> unit
END_TO_END = {
    "setup_s": "s",
    "jobs_per_s": "1/s",
    "job_p50_ms": "ms",
    "job_tail_ms": "ms",
    "cold_job_p50_ms": "ms",
    "ok_ratio": "ratio",
    "peak_rss_mb": "MB",
}

_MAPPING_PRUNED = ("schedule", "interconnect", "conflict", "rank", "coprime",
                   "space_rank", "coprime_precheck")
_SOLVER_PRUNED = ("rank_subtree", "row_budget", "lattice", "conflict_screen",
                  "interconnect", "deadline", "rank")

#: (name, unit, better, rule).  Rules:
#:   ("span", layer, population)  median per job of the layer's span time
#:   ("self", layer)              median per job of the layer's self time
#:   ("count", counter)           program counter, total over the first cycle
#:   ("span_count", layer)        number of spans, total over the first cycle
#:   ("ratio", numerators, denominators)   first-cycle counter totals
#:   ("measure", name)            median per job of a value the job recorded
#:   ("per_point", layer)         layer time per simulated index point
#:   ("unattributed", workload)   median per job of the root span's self time
#:   ("overhead",)                traced / untraced jobs per second
PER_LAYER = [
    ("expansion.structure_ms", "ms", "lower", ("span", "expansion.structure", "all")),
    ("machine.run_first_ms", "ms", "lower", ("span", "machine.run", "first")),
    ("machine.run_reuse_ms", "ms", "lower", ("span", "machine.run", "reuse")),
    ("machine.ns_per_point", "ns", "lower", ("per_point", "machine.run")),
    ("machine.store_reads", "count", "lower", ("count", "machine.store_reads")),
    ("machine.store_writes", "count", "lower", ("count", "machine.store_writes")),
    ("machine.computations", "count", "lower", ("count", "machine.computations")),
    ("mapping.search_ms", "ms", "lower", ("span", "mapping.search", "all")),
    ("mapping.candidates_enumerated", "count", "lower",
     ("count", "mapping.candidates_enumerated")),
    ("mapping.space_candidates", "count", "lower", ("count", "mapping.space_candidates")),
    ("mapping.conflict_checks", "count", "lower", ("count", "mapping.conflict_checks")),
    *[(f"mapping.pruned.{c}", "count", "lower", ("count", f"mapping.pruned.{c}"))
      for c in _MAPPING_PRUNED],
    *[(f"mapping.solver.pruned.{c}", "count", "lower",
       ("count", f"mapping.solver.pruned.{c}")) for c in _SOLVER_PRUNED],
    ("mapping.feasible_ratio", "ratio", "higher",
     ("ratio", ("mapping.feasible",), ("mapping.candidates_enumerated",))),
    ("mapping.cache_hit_ratio", "ratio", "higher",
     ("ratio", ("mapping.cache_hits",), ("mapping.cache_hits", "mapping.cache_misses"))),
    ("mapping.evaluate_space.count", "count", "lower",
     ("span_count", "mapping.evaluate_space")),
    ("mapping.evaluate_space.self_ms", "ms", "lower", ("self", "mapping.evaluate_space")),
    ("ir.expand_ms", "ms", "lower", ("span", "ir.expand", "all")),
    ("depanalysis.analyze_ms", "ms", "lower", ("span", "depanalysis.analyze", "all")),
    ("depanalysis.pairs_batch_screened", "count", "lower",
     ("count", "depanalysis.pairs_batch_screened")),
    ("depanalysis.points_batch_visited", "count", "lower",
     ("count", "depanalysis.points_batch_visited")),
    ("depanalysis.system_memo_hits", "count", "higher",
     ("count", "depanalysis.system_memo_hits")),
    ("expansion.theorem31_ms", "ms", "lower", ("span", "expansion.theorem31", "all")),
    ("symbolic.solve_ms", "ms", "lower", ("span", "symbolic.solve", "all")),
    ("symbolic.instantiate_ms", "ms", "lower", ("span", "symbolic.instantiate", "all")),
    ("symbolic.memo_hits", "count", "higher", ("count", "symbolic.memo_hits")),
    ("cli.import_ms", "ms", "lower", ("span", "cli.import", "all")),
    *[(f"cli.import.{m}_ms", "ms", "lower", ("measure", f"cli.import.{m}_ms"))
      for m in IMPORT_MODULES],
    ("cli.command_ms", "ms", "lower", ("span", "cli.command", "all")),
    ("cli.unattributed_ms", "ms", "lower", ("unattributed", "cli")),
    ("cache.hits", "count", "higher", ("count", "cache.hits")),
    ("cache.misses", "count", "lower", ("count", "cache.misses")),
    ("cache.writes", "count", "lower", ("count", "cache.writes")),
    ("cache.hit_ratio", "ratio", "higher",
     ("ratio", ("cache.hits",), ("cache.hits", "cache.misses"))),
    ("unattributed_ms", "ms", "lower", ("unattributed", None)),
    ("obs.trace_overhead_ratio", "ratio", "higher", ("overhead",)),
]


def percentile(values, pct: float) -> float:
    """Percentile (``pct`` in 0..100) of a non-empty list, interpolating
    linearly between order statistics (so the 50th is the median)."""
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _timed(records):
    """Jobs of complete cycles (all jobs when no cycle completed)."""
    complete = [r for r in records if r["complete"]]
    return complete or list(records)


def _rate(records) -> float:
    busy = sum(r["latency_s"] for r in records)
    return sum(r["ok"] for r in records) / busy if busy else 0.0


def host_probe() -> float:
    """Seconds taken by a fixed piece of pure-Python work (about 1 ms):
    the host's speed at this moment, independent of the program."""
    start = time.perf_counter()
    table: dict = {}
    acc = 0
    for i in range(4000):
        acc = (acc * 31 + i) % 1000003
        table[i & 255] = table.get(i & 255, 0) + acc
    sorted(table.values())
    return time.perf_counter() - start


#: probes on either side of a job that give the host's speed around it
SPEED_WINDOW = 4
#: the probe time that defines the reference host speed, about the
#: probe's best on the 2-vCPU Xeon host this benchmark was tuned on
REFERENCE_PROBE_S = 0.0006


def slowdowns(records) -> list[float]:
    """Per record (in run order), how much slower than the reference
    speed the host ran around the job.

    After every job the worker times a fixed pure-Python probe
    (:func:`host_probe`), outside the job's latency.  A
    job's slowdown is the median probe time of the job and its
    ``SPEED_WINDOW`` neighbours on either side, over
    ``REFERENCE_PROBE_S``.  The probe does not touch the program, so a
    change to the program moves the job latencies and not the slowdowns."""
    probes = [r["probe_s"] for r in records]
    return [
        statistics.median(probes[max(0, i - SPEED_WINDOW):i + SPEED_WINDOW + 1])
        / REFERENCE_PROBE_S
        for i in range(len(probes))
    ]


def end_to_end(workload, records, peak_rss_mb: float) -> tuple[dict, dict]:
    """``(values, notes)``: every end-to-end metric except ``setup_s``
    (measured by the launcher), and the tail percentile and sample
    counts behind them.

    Job latencies are taken at the reference host speed: each is divided
    by its :func:`slowdowns` factor.  The unadjusted figures are in the
    notes.  A run too short for a complete cycle past the first reports
    every job."""
    every = [dict(r, latency_s=r["latency_s"] / f, raw_s=r["latency_s"], slowdown=f)
             for r, f in zip(records, slowdowns(records))]
    timed = [r for r in every
             if r["complete"] and r["cycle"] >= workload.timed_from_cycle] or every
    main = [r for r in timed
            if workload.p50_includes_first_use or not r["first_use"]]
    main_ms = [r["latency_s"] * 1e3 for r in main]
    # a run too short to reach the fresh jobs falls back to the pool's
    # first uses
    cold = ([r for r in timed if r["first_use"]]
            or [r for r in every if r["first_use"]])
    cold_ms = [r["latency_s"] * 1e3 for r in cold]
    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    values = {
        "jobs_per_s": _rate(timed),
        "job_p50_ms": _median(main_ms),
        "job_tail_ms": percentile(main_ms, workload.tail_pct) if main_ms else 0.0,
        "cold_job_p50_ms": _median(cold_ms),
        "ok_ratio": (attempted - failed) / attempted if attempted else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    n = len(main_ms)
    notes = {
        "job_tail_pct": workload.tail_pct,
        "job_tail_samples": n,
        "job_tail_beyond": math.floor(n * (1 - workload.tail_pct / 100.0)),
        "cold_samples": len(cold_ms),
        "timed_jobs": len(timed),
        "fail_ratio": failed / attempted if attempted else 0.0,
        "slowdown_p50": _median([r["slowdown"] for r in timed]),
        "slowdown_max": max((r["slowdown"] for r in timed), default=1.0),
        "unadjusted_jobs_per_s": _rate([dict(r, latency_s=r["raw_s"]) for r in timed]),
        "unadjusted_job_p50_ms": _median([r["raw_s"] * 1e3 for r in main]),
    }
    return values, notes


def _job_views(records, tracer):
    """Per traced job: self time, span time and span count per layer, and
    the program's counters."""
    views = {}
    for r in records:
        if not r["traced"]:
            continue
        spans = tracer.job_spans(r["id"])
        _wall, selfs = self_times(spans)
        inclusive: dict[str, float] = {}
        counted: dict[str, int] = {}
        for s in spans:
            if s["parent"] is None:
                continue
            inclusive[s["name"]] = inclusive.get(s["name"], 0.0) + s["end"] - s["start"]
            counted[s["name"]] = counted.get(s["name"], 0) + 1
        views[r["id"]] = {"self": selfs, "incl": inclusive, "spans": counted,
                          "counts": tracer.counts.get(r["id"], {})}
    return views


def per_layer(workload, records, tracer) -> dict:
    """Every per-layer metric (0 for a layer the workload never enters)."""
    views = _job_views(records, tracer)
    traced = [r for r in records if r["id"] in views]
    first_cycles = [r for r in traced if r["cycle"] == 0]
    totals: dict[str, float] = {}
    span_totals: dict[str, int] = {}
    for r in first_cycles:
        for name, value in views[r["id"]]["counts"].items():
            totals[name] = totals.get(name, 0) + value
        for name, value in views[r["id"]]["spans"].items():
            span_totals[name] = span_totals.get(name, 0) + value
    populations = {
        "all": traced,
        "first": [r for r in traced if r["first_use"]],
        "reuse": [r for r in traced if not r["first_use"]],
    }
    out = {}
    for name, _unit, _better, rule in PER_LAYER:
        kind = rule[0]
        if kind == "span":
            _, layer, population = rule
            value = _median([views[r["id"]]["incl"][layer] * 1e3
                             for r in populations[population]
                             if layer in views[r["id"]]["incl"]])
        elif kind == "self":
            value = _median([views[r["id"]]["self"][rule[1]] * 1e3 for r in traced
                             if rule[1] in views[r["id"]]["self"]])
        elif kind == "count":
            value = totals.get(rule[1], 0)
        elif kind == "span_count":
            value = span_totals.get(rule[1], 0)
        elif kind == "ratio":
            num = sum(totals.get(n, 0) for n in rule[1])
            den = sum(totals.get(n, 0) for n in rule[2])
            value = num / den if den else 0.0
        elif kind == "measure":
            value = _median([views[r["id"]]["counts"][rule[1]] for r in traced
                             if rule[1] in views[r["id"]]["counts"]])
        elif kind == "per_point":
            reuse = [r for r in populations["reuse"] if rule[1] in views[r["id"]]["incl"]]
            points = sum(r["points"] for r in reuse)
            busy = sum(views[r["id"]]["incl"][rule[1]] for r in reuse)
            value = busy / points * 1e9 if points else 0.0
        elif kind == "unattributed":
            if rule[1] is not None and rule[1] != workload.name:
                value = 0.0
            else:
                value = _median([views[r["id"]]["self"]["unattributed"] * 1e3
                                 for r in traced])
        elif kind == "overhead":
            value = _overhead(workload, records)
        else:
            raise ValueError(f"unknown rule {rule!r}")
        out[name] = value
    return out


def _overhead(workload, records) -> float:
    compared = [r for r in _timed(records)
                if r["cycle"] >= workload.overhead_from_cycle]
    traced = _rate([r for r in compared if r["traced"]])
    untraced = _rate([r for r in compared if not r["traced"]])
    return traced / untraced if traced and untraced else 0.0


def self_time_table(records, tracer) -> dict[str, float]:
    """Median self milliseconds per traced job, for every layer seen."""
    views = _job_views(records, tracer)
    layers = sorted({name for v in views.values() for name in v["self"]})
    return {
        layer: _median([v["self"].get(layer, 0.0) * 1e3 for v in views.values()])
        for layer in layers
    }
