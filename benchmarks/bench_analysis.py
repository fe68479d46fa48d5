"""Benchmark: scalar reference vs batched dependence-analysis engine + cache.

Times the scalar reference analyzers and :func:`repro.depanalysis.analyze`
(the batched engine) on the same expanded bit-level matmul programs and
checks bit-identical results (same ordered instance list, same statistics
counters), then measures the persistent artifact cache cold (miss + write)
and warm (hit).

Besides the pytest-benchmark kernels, this module doubles as a script:

* ``python benchmarks/bench_analysis.py --smoke`` runs one small instance
  through the reference and the engine plus a cache round-trip,
  asserting equivalence and a >= 2x batched speedup -- the CI guard.
* ``python benchmarks/bench_analysis.py --record`` runs the E7-shaped
  sweep on the reference and the engine (expecting >= 5x batched cold and
  >= 20x warm-cache vs the scalar baseline), re-times E7, runs the
  ``u = p = 16`` Theorem 3.1 cross-validation at scale, and updates
  ``BENCH_analysis.json`` at the repo root (an existing baseline entry is
  preserved).
"""

import argparse
import json
import pathlib
import tempfile
import time

import pytest

from repro import obs
from repro.depanalysis import AnalysisConfig, analyze
from repro.experiments.tables import format_table
from repro.ir.expand import expand_bit_level
from repro.verify.oracle_analysis import reference_analysis

BENCH_FILE = pathlib.Path(__file__).resolve().parent.parent / "BENCH_analysis.json"

_MATMUL_H = ([0, 1, 0], [1, 0, 0], [0, 0, 1])

#: The E7-shaped sweep: |J| = u^3 p^2 grows ~50x across it.
SWEEP = ((2, 2), (3, 2), (3, 3), (4, 3))


def _program(u, p, expansion="II"):
    h1, h2, h3 = _MATMUL_H
    return expand_bit_level(h1, h2, h3, [1, 1, 1], [u, u, u], p, expansion)


def _timed(program, p, method="exact", reference=False, cache=False,
           cache_dir=None, repeats=1):
    """Best-of-N wall clock plus the (identical) result, from the scalar
    reference (``reference=True``) or the engine."""
    config = AnalysisConfig(cache=cache, cache_dir=cache_dir)
    best = None
    result = None
    for _ in range(repeats):
        t0 = time.perf_counter()
        if reference:
            result = reference_analysis(program, {"p": p}, method)
        else:
            result = analyze(program, {"p": p}, method=method, config=config)
        elapsed = time.perf_counter() - t0
        best = elapsed if best is None else min(best, elapsed)
    return best, result


def _assert_identical(a, b, label):
    assert [i.key() for i in a.instances] == [i.key() for i in b.instances], (
        f"{label}: instance lists diverged"
    )
    assert a.stats == b.stats, f"{label}: stats diverged"


# -- pytest-benchmark kernels -----------------------------------------------

U, P = 3, 2
PROGRAM = _program(U, P)


@pytest.fixture(scope="module", autouse=True)
def report(report_writer):
    yield
    rows = []
    data_rows = []
    for u, p in ((2, 2), (3, 2), (3, 3)):
        program = _program(u, p)
        t_s, r_s = _timed(program, p, reference=True)
        t_b, r_b = _timed(program, p)
        _assert_identical(r_s, r_b, f"u={u} p={p}")
        rows.append(
            (u, p, u**3 * p**2, r_s.stats["instances"],
             f"{t_s * 1e3:.1f}", f"{t_b * 1e3:.1f}", f"{t_s / t_b:.1f}x")
        )
        data_rows.append({
            "u": u, "p": p, "instances": r_s.stats["instances"],
            "scalar_s": round(t_s, 4), "batched_s": round(t_b, 4),
            "speedup": round(t_s / t_b, 2), "identical": True,
        })
    text = format_table(
        ["u", "p", "|J|", "instances", "scalar ms", "batched ms", "speedup"],
        rows,
        title="Analysis engine: exact method, scalar reference vs batched",
    )
    report_writer(
        "analysis-engine", text,
        data={"backend": "batched-vs-scalar", "rows": data_rows},
    )


def test_bench_exact_scalar(benchmark):
    _, result = benchmark(
        _timed, PROGRAM, P, method="exact", reference=True
    )
    assert result.stats["instances"] > 0


def test_bench_exact_batched(benchmark):
    _, result = benchmark(
        _timed, PROGRAM, P, method="exact"
    )
    assert result.stats["instances"] > 0


def test_bench_enumerate_batched(benchmark):
    _, result = benchmark(
        _timed, PROGRAM, P, method="enumerate"
    )
    assert result.stats["instances"] > 0


def test_bench_warm_cache(benchmark, tmp_path):
    cache_dir = str(tmp_path / "cache")
    _timed(PROGRAM, P, cache=True, cache_dir=cache_dir)
    _, result = benchmark(
        _timed, PROGRAM, P, cache=True, cache_dir=cache_dir
    )
    assert result.stats["instances"] > 0


# -- script modes -----------------------------------------------------------

def _smoke() -> int:
    u, p = 3, 2
    program = _program(u, p)
    t_s, r_s = _timed(program, p, reference=True)
    t_b, r_b = _timed(program, p)
    _assert_identical(r_s, r_b, f"u={u} p={p} exact")
    _, r_es = _timed(program, p, method="enumerate", reference=True)
    _, r_eb = _timed(program, p, method="enumerate")
    _assert_identical(r_es, r_eb, f"u={u} p={p} enumerate")
    with tempfile.TemporaryDirectory() as d:
        t_cold, r_cold = _timed(program, p, cache=True,
                                cache_dir=d)
        t_warm, r_warm = _timed(program, p, cache=True,
                                cache_dir=d)
    _assert_identical(r_s, r_cold, f"u={u} p={p} cache cold")
    _assert_identical(r_s, r_warm, f"u={u} p={p} cache warm")
    speedup = t_s / t_b
    print(f"smoke: u={u} p={p}  scalar {t_s * 1e3:.1f} ms  "
          f"batched {t_b * 1e3:.1f} ms  speedup {speedup:.1f}x  "
          f"cache cold {t_cold * 1e3:.1f} ms warm {t_warm * 1e3:.1f} ms  "
          f"identical=True")
    assert speedup >= 2.0, (
        f"batched speedup {speedup:.2f}x below the 2x smoke floor"
    )
    return 0


def _record(repeats: int, scale: int) -> int:
    print(f"recording E7 sweep {list(SWEEP)} on reference and engine "
          f"(best of {repeats})...")
    sweep_rows = []
    total_scalar = 0.0
    total_batched = 0.0
    total_cold = 0.0
    total_warm = 0.0
    with tempfile.TemporaryDirectory() as cache_dir:
        for u, p in SWEEP:
            program = _program(u, p)
            t_s, r_s = _timed(program, p, reference=True, repeats=repeats)
            t_b, r_b = _timed(program, p, repeats=repeats)
            _assert_identical(r_s, r_b, f"u={u} p={p}")
            t_cold, r_cold = _timed(program, p, cache=True,
                                    cache_dir=cache_dir)
            t_warm, r_warm = _timed(program, p, cache=True,
                                    cache_dir=cache_dir, repeats=repeats)
            _assert_identical(r_s, r_cold, f"u={u} p={p} cache cold")
            _assert_identical(r_s, r_warm, f"u={u} p={p} cache warm")
            total_scalar += t_s
            total_batched += t_b
            total_cold += t_cold
            total_warm += t_warm
            sweep_rows.append({
                "u": u, "p": p, "points": u**3 * p**2,
                "instances": r_s.stats["instances"],
                "scalar_s": round(t_s, 4),
                "batched_s": round(t_b, 4),
                "cache_cold_s": round(t_cold, 4),
                "cache_warm_s": round(t_warm, 4),
                "speedup_batched": round(t_s / t_b, 2),
            })
            print(f"  u={u} p={p}: scalar {t_s * 1e3:.1f} ms  "
                  f"batched {t_b * 1e3:.1f} ms ({t_s / t_b:.1f}x)  "
                  f"cold {t_cold * 1e3:.1f} ms  warm {t_warm * 1e3:.1f} ms")
    speedup_cold = total_scalar / total_batched
    speedup_warm = total_scalar / total_warm
    print(f"sweep totals: scalar {total_scalar:.3f}s  "
          f"batched {total_batched:.3f}s ({speedup_cold:.1f}x)  "
          f"warm cache {total_warm:.3f}s ({speedup_warm:.1f}x)")

    print("re-timing E7...")
    from repro.experiments import e7_analysis_cost

    data = e7_analysis_cost.run()
    e7 = {"batched": {
        "general_ms": {
            f"u{u}p{p}": general_ms
            for u, p, _pts, _cand, general_ms, _comp, _ratio, _ok
            in data["rows"]
        },
        "ok": data["ok"],
    }}
    assert data["ok"], "E7 disagreement"

    print(f"running the u=p={scale} Theorem 3.1 cross-validation...")
    from repro.expansion.verify import verify_theorem31

    t0 = time.perf_counter()
    rep = verify_theorem31(
        [0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1],
        [scale, scale, scale], scale, method="enumerate",
    )
    t_scale = time.perf_counter() - t0
    assert rep.matches, f"u=p={scale} cross-validation MISMATCH"
    print(f"  u=p={scale}: {rep.analysis_stats['points_visited']} points, "
          f"{rep.analysis_stats['instances']} instances, "
          f"matches=True in {t_scale:.1f}s")

    data = {}
    if BENCH_FILE.exists():
        data = json.loads(BENCH_FILE.read_text())
    data.setdefault("baseline", {
        "backend": "scalar",
        "seconds": round(total_scalar, 3),
        "note": "point-by-point exact analyzer over the E7 sweep",
    })
    data.update({
        "instance": {
            "algorithm": "bit-level matmul (add-shift, expansion II)",
            "sweep": [[u, p] for u, p in SWEEP],
            "method": "exact",
        },
        "environment": obs.environment_info(),
        "engine": {
            "scalar": {"seconds": round(total_scalar, 3)},
            "batched": {"seconds": round(total_batched, 3)},
            "cache_cold": {"seconds": round(total_cold, 3)},
            "cache_warm": {"seconds": round(total_warm, 3)},
            "results_identical_across_backends": True,
            "speedup_batched_vs_scalar": round(speedup_cold, 2),
            "speedup_warm_cache_vs_scalar": round(speedup_warm, 2),
            "speedup_warm_vs_cold_batched": round(total_cold / total_warm, 2),
        },
        "e7": e7,
        "scale_run": {
            "u": scale, "p": scale, "method": "enumerate",
            "points": rep.analysis_stats["points_visited"],
            "instances": rep.analysis_stats["instances"],
            "seconds": round(t_scale, 3),
            "theorem31_matches": True,
        },
        "sweep": sweep_rows,
    })
    baseline = data["baseline"]["seconds"]
    data["speedup_vs_baseline"] = round(baseline / total_batched, 2)
    BENCH_FILE.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    print(f"wrote {BENCH_FILE}")
    assert speedup_cold >= 5.0, (
        f"batched speedup {speedup_cold:.2f}x below the 5x record floor"
    )
    assert speedup_warm >= 20.0, (
        f"warm-cache speedup {speedup_warm:.2f}x below the 20x record floor"
    )
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--smoke", action="store_true",
                      help="small instance on reference and engine plus a "
                      "cache round-trip; assert equivalence and >= 2x")
    mode.add_argument("--record", action="store_true",
                      help="measure the E7 sweep, cache, E7 before/after and "
                      "the scale run; update BENCH_analysis.json")
    parser.add_argument("--repeats", type=int, default=3,
                        help="best-of-N timing repeats for --record")
    parser.add_argument("--scale", type=int, default=16,
                        help="u = p for the --record cross-validation scale "
                        "run (default 16; lower for quick refreshes)")
    args = parser.parse_args(argv)
    if args.smoke:
        return _smoke()
    return _record(args.repeats, args.scale)


if __name__ == "__main__":
    raise SystemExit(main())
