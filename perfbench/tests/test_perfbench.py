"""Tests of the benchmark itself: its checks, its tracing and its output.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
for entry in (str(ROOT / "src"), str(ROOT)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from perfbench import metrics, oracles, worker  # noqa: E402
from perfbench.tracing import Tracer, self_times  # noqa: E402
from perfbench.workloads import Cli, Search, Simulate, make_workload  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_what_the_benchmark_prints():
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert declared == metrics.END_TO_END
    declared = [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]]
    assert declared == [(n, u, b) for n, u, b, _rule in metrics.PER_LAYER]
    assert [w["name"] for w in BENCHMARK["workloads"]] == [
        "simulate", "search", "analyze", "cli"]


def test_smoke_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--smoke",
         "--seed", "3"],
        capture_output=True, text=True, timeout=600, cwd=ROOT,
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    printed = {}
    for line in proc.stdout.splitlines():
        parts = line.split()
        if line.startswith("# ") and " trace=" in line:
            run = printed.setdefault((parts[1], line.split(" trace=")[1][0]), {})
        elif len(parts) == 3 and not line.startswith("#"):
            run[parts[0]] = parts[2]
    for workload in BENCHMARK["workloads"]:
        untraced = printed[workload["name"], "0"]
        traced = printed[workload["name"], "1"]
        for metric in BENCHMARK["end_to_end"]:
            assert untraced[metric["name"]] == metric["unit"]
        for metric in BENCHMARK["per_layer"]:
            assert traced[metric["name"]] == metric["unit"]


def test_missing_program_exits_nonzero_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "analyze", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=180, cwd=tmp_path,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_same_seed_same_jobs(tmp_path):
    for name in ("simulate", "search", "analyze", "cli"):
        first = make_workload(name, 7, tmp_path)
        again = make_workload(name, 7, tmp_path)
        other = make_workload(name, 8, tmp_path)
        assert first.cycle(0) == again.cycle(0)
        assert first.cycle(1) == again.cycle(1)
        assert [first.cycle(k) for k in range(6)] != [other.cycle(k) for k in range(6)]


class _FlippedBit(Simulate):
    """Returns the product with one bit flipped in one job."""

    victim = None

    def run(self, job, tracer):
        out = super().run(job, tracer)
        if job is self.victim:
            out["product"][0][0] ^= 1
        return out


def test_flipped_product_bit_counts_as_one_failure(tmp_path):
    workload = _FlippedBit(1, tmp_path)
    workload.setup()
    jobs = workload.cycle(0)[:6]
    workload.victim = jobs[2]
    records = [worker.run_job(workload, job, i, 0, None)
               for i, job in enumerate(jobs)]
    for record in records:
        record["complete"] = True
    assert [r["ok"] for r in records] == [True, True, False, True, True, True]
    assert "Z[0][0]" in records[2]["reason"]
    values, notes = metrics.end_to_end(workload, records, 1.0)
    assert notes["fail_ratio"] == pytest.approx(1 / 6)
    assert values["ok_ratio"] == pytest.approx(5 / 6)


def test_slow_stretch_of_the_host_is_divided_out(tmp_path):
    workload = Simulate(1, tmp_path)
    cost = {"a": 0.010, "b": 0.030, "c": 0.020, "fresh": 0.025}
    records = []
    for cycle in range(10):
        host = 2.0 if cycle in (4, 5, 6) else 1.0  # the host slows for a while
        for key in ("a", "b", "c", "fresh"):
            records.append({
                "id": len(records), "cycle": cycle, "complete": True, "ok": True,
                "key": f"fresh{cycle}" if key == "fresh" else key,
                "first_use": key == "fresh" or cycle == 0,
                "latency_s": cost[key] * host,
                "probe_s": metrics.REFERENCE_PROBE_S * host,
            })
    records[9]["latency_s"] *= 3  # one job pauses; that stays in its latency
    factors = metrics.slowdowns(records)
    assert factors == [2.0 if 16 <= i < 28 else 1.0 for i in range(40)]
    values, notes = metrics.end_to_end(workload, records, 1.0)
    assert values["cold_job_p50_ms"] == pytest.approx(25.0)
    assert values["job_p50_ms"] == pytest.approx(22.5)
    assert values["job_tail_ms"] == pytest.approx(metrics.percentile(
        [10.0] * 9 + [20.0] * 9 + [25.0] * 9 + [30.0] * 8 + [90.0], 95))
    assert notes["unadjusted_job_p50_ms"] > values["job_p50_ms"]


class _DuplicatedPoint(Search):
    """Returns one design whose ``T`` maps two index points to the same
    space-time point, in place of the first design found."""

    victim = None

    def run(self, job, tracer):
        out = super().run(job, tracer)
        if job is self.victim:
            out["designs"][0]["rows"] = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0],
                                         [1, 1, 1, 1, 1]]
        return out


def test_design_with_duplicated_space_time_point_counts_as_failure(tmp_path):
    rows = [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0], [1, 1, 1, 1, 1]]
    reason = oracles.check_design({"rows": rows, "time": 7, "processors": 4}, 2, 2)
    assert reason and "maps two index points" in reason

    workload = _DuplicatedPoint(1, tmp_path)
    workload.setup()
    job = next(j for j in workload.cycle(0) if (j["u"], j["p"]) == (1, 2))
    workload.victim = job
    record = worker.run_job(workload, job, 0, 0, None)
    assert not record["ok"]
    assert "maps two index points" in record["reason"]


def test_self_times_add_up_to_the_job_wall_time(tmp_path):
    workload = make_workload("analyze", 2, tmp_path)
    workload.setup()
    records, tracer = worker.run_stream(workload, 1.0, trace=True)
    traced = [r for r in records if r["traced"]]
    assert traced
    for record in traced:
        wall, layers = self_times(tracer.job_spans(record["id"]))
        assert "unattributed" in layers
        assert {"depanalysis.analyze", "symbolic.solve"} <= set(layers)
        assert sum(layers.values()) == pytest.approx(wall, rel=1e-9, abs=1e-12)
        assert wall <= record["latency_s"]


def test_self_time_of_a_hand_built_tree():
    tracer = Tracer()
    with tracer.job(0):
        with tracer.span("a"):
            tracer.add_span("b", tracer.spans[-1]["start"], tracer.spans[-1]["start"])
    root, a, b = tracer.spans
    root.update(start=0.0, end=10.0)
    a.update(start=1.0, end=7.0)
    b.update(start=2.0, end=5.0)
    wall, layers = self_times(tracer.job_spans(0))
    assert wall == 10.0
    assert layers == {"unattributed": 4.0, "a": 3.0, "b": 3.0}


def test_cli_verdicts_come_from_formulas_and_reference(tmp_path):
    workload = Cli(1, tmp_path)
    assert workload.verdicts(["design", "--u", "2", "--p", "2"])[1] == "t = 7, PEs = 16"
    assert workload.verdicts(["simulate", "--u", "2", "--p", "3"]) == [
        "makespan: 10 PEs: 36", "product correct (mod 2^5): True"]
    good = "makespan: 10 PEs: 36 utilization: 10%\nproduct correct (mod 2^5): True"
    verdicts = workload.verdicts(["simulate", "--u", "2", "--p", "3"])
    assert oracles.check_cli(0, good, verdicts) is None
    assert oracles.check_cli(0, good.replace("True", "False"), verdicts)
    assert oracles.check_cli(1, good, verdicts) == "exit status 1"
