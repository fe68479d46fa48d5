"""Benchmark: the design-space search of [5, 6, 10].

Times the joint (S, Π) search that produced designs like the paper's
Fig. 4, and reports the best designs found for the bit-level matmul
structure -- including ones the paper does not list (same optimal time,
fewer processors at small sizes).

Besides the pytest-benchmark kernels, this module doubles as a script:

* ``python benchmarks/bench_design_search.py --smoke [--metrics-out F]``
  runs a small instance once and asserts the engine's memoization is
  live (``mapping.cache_hits > 0``) -- the CI guard.
* ``python benchmarks/bench_design_search.py --record`` runs the blocked
  u=3, p=3 instance three ways -- catalog strategy in-process and sharded
  over 4 workers (``run_sharded_search``), then the branch-and-prune
  solver strategy -- verifies
  every run returns identical designs, and updates
  ``BENCH_design_search.json`` at the repo root with the engine timings
  plus the solver's candidates-enumerated ratio and wall-clock speedup
  (the pre-engine baseline entry is preserved).
"""

import argparse
import json
import os
import pathlib
import sys
import time

import pytest

from repro import obs
from repro.expansion.theorem31 import matmul_bit_level
from repro.experiments.tables import format_table
from repro.ir.builders import matmul_word_structure
from repro.mapping import designs
from repro.mapping.engine import SearchConfig, run_search
from repro.mapping.shard import run_sharded_search

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_design_search.json"


@pytest.fixture(scope="module", autouse=True)
def report(report_writer):
    yield
    u, p = 2, 2
    alg = matmul_bit_level(u, p, "II")
    config = SearchConfig(target_space_dim=2, block_values=[p],
                          schedule_bound=2, max_candidates=5)
    with obs.collecting() as reg:
        cands = run_search(alg, {"u": u, "p": p},
                           designs.fig4_primitives(p), config)
    rows = [
        (i + 1, c.time, c.processors,
         "; ".join(str(list(r)) for r in c.mapping.rows))
        for i, c in enumerate(cands)
    ]
    rows.append(
        ("Fig4", designs.t_fig4(u, p), designs.fig4_processor_count(u, p),
         "; ".join(str(list(r)) for r in designs.fig4_mapping(p).rows))
    )
    text = format_table(
        ["rank", "time", "PEs", "T = [S; Π]"],
        rows,
        title=f"Design-space search, bit-level matmul (u={u}, p={p})",
    )
    report_writer(
        "design-search", text,
        data={"u": u, "p": p, "rows": rows, "metrics": obs.metrics_dict(reg)},
    )


def test_bench_search_word_level(benchmark):
    alg = matmul_word_structure()
    config = SearchConfig(target_space_dim=2, block_values=(),
                          schedule_bound=1, max_candidates=3)
    cands = benchmark(run_search, alg, {"u": 3}, None, config)
    assert cands and cands[0].time == 7


def test_bench_search_bit_level(benchmark):
    alg = matmul_bit_level(2, 2, "II")
    config = SearchConfig(target_space_dim=2, block_values=[2],
                          schedule_bound=2, max_candidates=2)
    cands = benchmark(
        run_search, alg, {"u": 2, "p": 2}, designs.fig4_primitives(2), config
    )
    assert cands
    assert cands[0].time <= designs.t_fig4(2, 2)


def test_bench_search_parallel_identical(benchmark):
    """Sharded 4-worker path; asserts determinism against run_search."""
    alg = matmul_bit_level(2, 2, "II")
    binding = {"u": 2, "p": 2}
    prims = designs.fig4_primitives(2)
    config = SearchConfig(block_values=[2], max_candidates=5)
    base = run_search(alg, binding, prims, config)
    result = benchmark.pedantic(
        run_sharded_search, args=(alg, binding, prims, config),
        kwargs={"workers": 4}, rounds=1, iterations=1,
    )
    assert _design_rows(result.designs) == _candidate_rows(base)


# -- script modes -----------------------------------------------------------

def _candidate_rows(cands):
    return [
        {"time": c.time, "processors": c.processors,
         "rows": [list(r) for r in c.mapping.rows]}
        for c in cands
    ]


def _design_rows(designs_):
    """``_candidate_rows`` for the JSON records of a sharded search."""
    return [
        {"time": d["time"], "processors": d["processors"], "rows": d["rows"]}
        for d in designs_
    ]


def _timed_search(search, repeats=3):
    """Best-of-N wall clock of ``search()`` plus its (identical) result
    rows and metrics."""
    best = None
    rows = None
    metrics = None
    for _ in range(repeats):
        with obs.collecting() as reg:
            t0 = time.perf_counter()
            rows = search()
            elapsed = time.perf_counter() - t0
        metrics = obs.metrics_dict(reg)
        best = elapsed if best is None else min(best, elapsed)
    return best, rows, metrics


def _smoke(metrics_out: str | None) -> int:
    alg = matmul_bit_level(2, 2, "II")
    config = SearchConfig(target_space_dim=2, block_values=[2],
                          schedule_bound=2, max_candidates=5)
    with obs.collecting() as reg:
        cands = run_search(alg, {"u": 2, "p": 2},
                           designs.fig4_primitives(2), config)
    metrics = obs.metrics_dict(reg)
    if metrics_out:
        pathlib.Path(metrics_out).write_text(
            json.dumps(metrics, indent=2, sort_keys=True) + "\n"
        )
    hits = metrics["counters"].get("mapping.cache_hits", 0)
    found = metrics["counters"].get("mapping.designs_found", 0)
    print(f"smoke: {len(cands)} designs, cache_hits={hits}, "
          f"designs_found={found}")
    assert cands, "smoke search found no designs"
    assert hits > 0, "memoization produced no cache hits"
    return 0


def _record(repeats: int) -> int:
    u, p = 3, 3
    alg = matmul_bit_level(u, p, "II")
    binding = {"u": u, "p": p}
    prims = designs.fig4_primitives(p)

    def config(strategy="catalog"):
        return SearchConfig(target_space_dim=2, block_values=[p],
                            schedule_bound=2, max_candidates=5,
                            strategy=strategy)

    print(f"recording u={u} p={p} blocked-catalog instance "
          f"(best of {repeats})...")
    t_seq, rows_seq, m_seq = _timed_search(
        lambda: _candidate_rows(run_search(alg, binding, prims, config())),
        repeats,
    )
    t_par, rows_par, m_par = _timed_search(
        lambda: _design_rows(run_sharded_search(
            alg, binding, prims, config(), workers=4
        ).designs),
        repeats,
    )
    identical = rows_seq == rows_par
    print(f"workers=1: {t_seq:.3f}s  workers=4 (sharded): {t_par:.3f}s  "
          f"identical={identical}")
    assert identical, "sharded search diverged from in-process search"

    t_sol, rows_sol, m_sol = _timed_search(
        lambda: _candidate_rows(
            run_search(alg, binding, prims, config(strategy="solver"))
        ),
        repeats,
    )
    solver_identical = rows_sol == rows_seq
    n_catalog = m_seq["counters"].get("mapping.candidates_enumerated", 0)
    n_solver = m_sol["counters"].get("mapping.candidates_enumerated", 0)
    ratio = n_catalog / max(n_solver, 1)
    print(f"solver: {t_sol:.3f}s  candidates {n_solver} vs catalog "
          f"{n_catalog} ({ratio:.1f}x fewer)  identical={solver_identical}")
    assert solver_identical, "solver search diverged from catalog"
    assert ratio >= 10, f"solver candidate cut {ratio:.1f}x below 10x"

    data = {}
    if BENCH_FILE.exists():
        data = json.loads(BENCH_FILE.read_text())
    baseline = data.get("baseline", {}).get("seconds")
    data.update({
        "instance": {
            "algorithm": "matmul_bit_level", "u": u, "p": p,
            "expansion": "II", "primitives": "fig4",
            "config": {"target_space_dim": 2, "block_values": [p],
                       "schedule_bound": 2, "max_candidates": 5},
        },
        "environment": {"cpu_count": os.cpu_count(),
                        "python": sys.version.split()[0]},
        "engine": {
            "workers_1": {
                "seconds": round(t_seq, 3),
                "cache_hits": m_seq["counters"].get("mapping.cache_hits"),
                "cache_misses": m_seq["counters"].get("mapping.cache_misses"),
                "candidates_enumerated": m_seq["counters"].get(
                    "mapping.candidates_enumerated"),
                "conflict_checks": m_seq["counters"].get(
                    "mapping.conflict_checks"),
            },
            "workers_4": {
                "seconds": round(t_par, 3),
                "cache_hits": m_par["counters"].get("mapping.cache_hits"),
            },
            "results_identical_across_workers": identical,
        },
        "solver": {
            "seconds": round(t_sol, 3),
            "cache_hits": m_sol["counters"].get("mapping.cache_hits"),
            "cache_misses": m_sol["counters"].get("mapping.cache_misses"),
            "candidates_enumerated": n_solver,
            "catalog_candidates_enumerated": n_catalog,
            "candidates_ratio": round(ratio, 2),
            "speedup_vs_catalog": round(t_seq / t_sol, 2),
            "results_identical_to_catalog": solver_identical,
        },
        "top_candidates": rows_seq,
    })
    if baseline:
        data["speedup_workers_1_vs_baseline"] = round(baseline / t_seq, 2)
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BENCH_FILE}")
    if baseline:
        print(f"speedup vs pre-engine baseline ({baseline}s): "
              f"{baseline / t_seq:.1f}x")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--smoke", action="store_true",
                      help="small instance; assert memoization is live")
    mode.add_argument("--record", action="store_true",
                      help="measure the u=3,p=3 instance and update "
                           "BENCH_design_search.json")
    parser.add_argument("--metrics-out", metavar="FILE", default=None,
                        help="write the smoke run's metrics dict as JSON")
    parser.add_argument("--repeats", type=int, default=3,
                        help="timing repeats for --record (best-of)")
    args = parser.parse_args(argv)
    if args.smoke:
        return _smoke(args.metrics_out)
    return _record(args.repeats)


if __name__ == "__main__":
    raise SystemExit(main())
