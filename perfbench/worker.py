"""One benchmark worker process: set up, run a workload's job stream, report.

Spawned by ``run.py``; not meant to be run by hand.  The worker prints
``READY`` on stdout once set-up is done (the launcher times set-up up to
that line), then runs one closed loop of jobs for ``--seconds`` and writes
its records and metrics as JSON to ``--out``.  With ``--setup-only`` it
exits after ``READY``.

In a traced run (``--trace 1``) even cycles are traced and odd ones are
not, so the tracing overhead is measured on the same job mix.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import metrics  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, make_workload  # noqa: E402


def run_stream(workload, seconds: float, trace: bool):
    """The closed loop: ``(records, tracer)``."""
    tracer = Tracer() if trace else None
    records: list[dict] = []
    start = time.perf_counter()
    cycle = 0
    while True:
        jobs = workload.cycle(cycle)
        traced = trace and cycle % 2 == 0
        first_record = len(records)
        finished = True
        for job in jobs:
            if time.perf_counter() - start >= seconds:
                finished = False
                break
            records.append(run_job(workload, job, len(records), cycle,
                                   tracer if traced else None))
        for record in records[first_record:]:
            record["complete"] = finished
        if not finished:
            return records, tracer
        cycle += 1


def run_job(workload, job, job_id: int, cycle: int, tracer) -> dict:
    """Time one job, then check its output; a raise or a wrong output is
    one failed job."""
    first_use = workload.first_use(job)
    workload.prepare(job)
    out = None
    reason = None
    start = time.perf_counter()
    try:
        if tracer is None:
            out = workload.run(job, None)
        else:
            with tracer.job(job_id):
                out = workload.run(job, tracer)
    except Exception as exc:  # a failing job is counted, not fatal
        reason = f"raised {type(exc).__name__}: {exc}"
    latency = time.perf_counter() - start
    workload.finish(job)
    if reason is None:
        try:
            reason = workload.check(job, out)
        except Exception as exc:  # a malformed output fails its check
            reason = f"check raised {type(exc).__name__}: {exc}"
    return {
        "id": job_id,
        "cycle": cycle,
        "key": str(workload.key(job)),
        "first_use": first_use,
        "latency_s": latency,
        "traced": tracer is not None,
        "probe_s": metrics.host_probe(),
        "ok": reason is None,
        "reason": reason,
        **workload.features(job, out),
    }


def peak_rss_mb(workload) -> float:
    """Peak resident memory of this worker, or of its largest child for
    the ``cli`` workload (``ru_maxrss`` is in KiB on Linux)."""
    who = resource.RUSAGE_CHILDREN if workload.name == "cli" else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def pin_to_one_cpu() -> None:
    """Keep the job loop, its probes and any child process on one CPU, so
    that a probe times the CPU the jobs around it ran on."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--spans", type=Path, default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    workload = make_workload(args.workload, args.seed, args.workdir)
    workload.setup()
    print("READY", flush=True)
    if args.setup_only:
        return 0

    pin_to_one_cpu()
    records, tracer = run_stream(workload, args.seconds, bool(args.trace))
    result = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "failures": [r for r in records if not r["ok"]][:20],
        "mix": workload.mix(records),
        "backends": sorted({str(r.get("backend")) for r in records}),
    }
    if args.trace:
        result["metrics"] = metrics.per_layer(workload, records, tracer)
        result["self_ms"] = metrics.self_time_table(records, tracer)
        if args.spans is not None:
            tracer.write_jsonl(args.spans)
    else:
        values, notes = metrics.end_to_end(workload, records, peak_rss_mb(workload))
        result["metrics"] = values
        result["notes"] = notes
    result["records"] = records
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
