"""End-to-end, per-layer benchmark of the repro pipeline.

One run of one workload::

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 20 --trace 0

prints the workload's metrics, one per line with its unit, and as its last
line one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run.

Everything, every workload untraced and traced, with all outputs checked
(exit status 1 if any job failed)::

    python3 perfbench/run.py --all

Each run gets a private work directory under ``.perfbench_work/`` in the
checkout, the program's backend and cache environment variables are
cleared, and results are written to ``.perfbench_work/results/`` stamped
with the commit, Python, numpy, CPU count and platform.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.metrics import (  # noqa: E402
    END_TO_END, PER_LAYER, REFERENCE_PROBE_S, host_probe)

WORKLOAD_NAMES = ("simulate", "search", "analyze", "cli")
WORK = ROOT / ".perfbench_work"
#: set-ups per untraced run (setup_s is their median); a cli set-up primes
#: the cache with one process per command, so it repeats fewer times
SETUP_REPEATS = {"simulate": 5, "search": 5, "analyze": 5, "cli": 3}
#: host probes timed before a set-up (and after one that exits at READY)
SETUP_PROBES = 25
#: a run must end within this many seconds of its start
RUN_DEADLINE_S = 170.0
#: environment variables that would select a non-default code path
CLEARED_ENV = ("REPRO_SIM_BACKEND", "REPRO_ANALYSIS_BACKEND", "REPRO_CACHE_DIR")


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed job)."""


def clean_env() -> dict:
    """The workers' environment: the checkout's ``src`` first on the path,
    no backend or cache override.  In-process workloads therefore run with
    the library default (no on-disk cache); the ``cli`` workload points
    ``REPRO_CACHE_DIR`` at private directories of its own."""
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    paths = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        paths.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(paths)
    return env


def _wait_ready(proc, deadline: float) -> None:
    """Block until the worker prints ``READY`` (or fail at ``deadline``)."""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while True:
            remaining = deadline - time.perf_counter()
            if remaining <= 0 or not sel.select(timeout=remaining):
                raise BenchError("worker did not finish set-up in time")
            line = proc.stdout.readline()
            if not line:
                raise BenchError(f"worker exited during set-up ({proc.wait()})")
            if line.strip() == "READY":
                return


def _host_probes() -> list[float]:
    return [host_probe() for _ in range(SETUP_PROBES)]


def _worker(args: list[str], env: dict, deadline: float) -> tuple[float, list]:
    """Run one worker to completion; returns its set-up seconds and the
    host probes timed next to the set-up (before it, and after it when
    the worker exits at ``READY``)."""
    cmd = [sys.executable, str(ROOT / "perfbench" / "worker.py"), *args]
    probes = _host_probes()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            cwd=ROOT)
    try:
        _wait_ready(proc, deadline)
        setup = time.perf_counter() - start
        proc.communicate(timeout=max(1.0, deadline - time.perf_counter()))
    except (BenchError, subprocess.TimeoutExpired) as exc:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker {' '.join(args[:2])}: {exc}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited with status {proc.returncode}")
    if "--setup-only" in args:
        probes += _host_probes()
    return setup, probes


def _src_digest() -> str | None:
    src = ROOT / "src"
    if not src.is_dir():
        return None
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def environment_stamp() -> dict:
    """Commit, interpreter, numpy, CPU count and platform of this run."""
    commit = None
    if (ROOT / ".git").exists():  # a plain checkout has no commit to name
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    try:
        from importlib.metadata import version

        numpy_version = version("numpy")
    except Exception:  # numpy missing or unreadable metadata
        numpy_version = None
    return {
        "commit": commit,
        "src_sha256": _src_digest(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "platform": platform.platform(),
    }


def run_one(workload: str, seed: int, seconds: float, trace: int,
            setup_repeats: int | None = None) -> dict:
    """One run of one workload; returns the worker's result with
    ``setup_s`` added and the environment stamp attached."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    run_dir = WORK / f"{workload}-seed{seed}-trace{trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    stem = results / f"{workload}-seed{seed}-trace{trace}"
    out = run_dir / "result.json"
    common = ["--workload", workload, "--seed", str(seed), "--seconds",
              str(seconds), "--trace", str(trace), "--workdir", str(run_dir),
              "--out", str(out)]
    env = clean_env()
    try:
        repeats = 1 if trace else (setup_repeats or SETUP_REPEATS[workload])
        setups = [_worker(common + ["--setup-only"], env, deadline)
                  for _ in range(repeats - 1)]
        spans = ["--spans", f"{stem}.spans.jsonl"] if trace else []
        setups.append(_worker(common + spans, env, deadline))
        setups = [(setup, statistics.median(probes) / REFERENCE_PROBE_S)
                  for setup, probes in setups]
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(
            setup / slowdown for setup, slowdown in setups)
        result["setup_samples_s"] = [setup for setup, _s in setups]
        result["setup_slowdowns"] = [slowdown for _s, slowdown in setups]
    result["environment"] = environment_stamp()
    with open(f"{stem}.json", "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return result


def _units(trace: int) -> dict:
    if trace:
        return {name: unit for name, unit, _b, _r in PER_LAYER}
    return dict(END_TO_END)


def report(result: dict) -> dict:
    """Print the metrics by name with units; return the final JSON object."""
    trace = result["trace"]
    units = _units(trace)
    print(f"# {result['workload']} seed={result['seed']} trace={trace} "
          f"attempted={result['attempted']} failed={result['failed']} "
          f"backends={','.join(result['backends'])}")
    print(f"# mix: {json.dumps(result['mix'], sort_keys=True)}")
    if "notes" in result:
        print(f"# notes: {json.dumps(result['notes'], sort_keys=True)}")
    for failure in result["failures"][:5]:
        print(f"# FAILED job {failure['id']} {failure['key']}: {failure['reason']}")
    for name, unit in units.items():
        print(f"{name} {result['metrics'][name]!r} {unit}")
    if trace:
        print("# median self ms per traced job: " + ", ".join(
            f"{k}={v:.3f}" for k, v in result["self_ms"].items()))
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end, per-layer benchmark of the repro pipeline.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds "
                        "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true",
                        help="every workload, untraced and traced")
    parser.add_argument("--smoke", action="store_true",
                        help="--all with one-second runs and one set-up each")
    args = parser.parse_args(argv)
    if not (args.all or args.smoke or args.workload):
        parser.error("give --workload, --all or --smoke")
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else _run_seconds()
    try:
        if args.workload and not (args.all or args.smoke):
            result = report(run_one(args.workload, args.seed, seconds, args.trace))
            print(json.dumps(result))
            return 0
        failed = 0
        for workload in WORKLOAD_NAMES:
            for trace in (0, 1):
                result = run_one(workload, args.seed, seconds, trace,
                                 setup_repeats=1 if args.smoke else None)
                failed += report(result)["failed"]
        print(f"# all workloads: {failed} failed jobs")
        return 1 if failed else 0
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


def _run_seconds() -> float:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return float(json.load(fh)["run_seconds"])


if __name__ == "__main__":
    sys.exit(main())
