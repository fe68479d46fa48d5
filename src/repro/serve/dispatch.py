"""The one job dispatcher every front-end shares.

:func:`run_job` executes a :class:`~repro.serve.jobs.JobSpec`
synchronously and returns a :class:`~repro.serve.jobs.JobResult` whose
``output`` is byte-identical to what the matching CLI subcommand prints:
the CLI subcommands *are* ``run_job`` plus ``sys.stdout.write``, and the
HTTP server is ``run_job`` on a worker thread -- one dispatch, three
front-ends.

Two execution-context subtleties:

* **Verbosity follows the caller's ambient obs state, not the job
  registry.**  The simulate handler's extra per-PE block is part of the
  *CLI contract* ("printed when the user passed an obs flag"), so
  whether it appears is decided by ``obs.enabled()`` at entry -- before
  any job-scoped registry is installed.  A server-side run therefore
  produces exactly the unflagged CLI's bytes even though the server
  instruments every job.
* **Registry install is compare-and-swap restored.**  A job registry is
  installed process-globally for the duration of the run (that is how
  the existing instrumentation reaches it) and restored only if still
  current, so a budget-orphaned worker thread finishing late can never
  clobber a newer job's registry.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
import traceback

from repro import obs
from repro.serve.jobs import JobLimits, JobResult, JobSpec, check_limits

__all__ = ["run_analyze_batch", "run_job"]


@contextlib.contextmanager
def _installed(registry):
    """Install ``registry`` ambiently; restore with compare-and-swap."""
    if registry is None:
        yield
        return
    previous = obs.set_registry(registry)
    try:
        yield
    finally:
        if obs.get_registry() is registry:
            obs.set_registry(previous)


def _refusal(spec: JobSpec, reason: str) -> JobResult:
    return JobResult(
        kind=spec.kind, status="error", exit_code=2, error=reason
    )


def run_job(
    spec: JobSpec,
    registry=None,
    limits: JobLimits | None = None,
) -> JobResult:
    """Execute one job; never raises for job-level failures.

    ``registry`` (a fresh :class:`repro.obs.Registry`, typically with a
    streaming sink attached) is installed for the duration of the run
    and its flat metrics dict lands in ``JobResult.metrics``.  ``limits``
    applies admission control first (structured ``status="error"``).
    """
    reason = check_limits(spec, limits)
    if reason is not None:
        return _refusal(spec, reason)
    verbose = obs.enabled()  # the *caller's* obs state, see module docstring
    handler = _HANDLERS[spec.kind]
    out = io.StringIO()
    t0 = time.perf_counter()
    with _installed(registry):
        try:
            exit_code, data = handler(spec, out, verbose)
            status = "ok"
            error = None
        except Exception:
            exit_code, data = 3, None
            status = "error"
            error = traceback.format_exc()
    elapsed = time.perf_counter() - t0
    metrics = None if registry is None else registry.metrics()
    return JobResult(
        kind=spec.kind,
        status=status,
        exit_code=exit_code,
        output=out.getvalue(),
        data=data,
        error=error,
        metrics=metrics,
        elapsed_s=elapsed,
    )


def run_analyze_batch(
    specs,
    registry=None,
    limits: JobLimits | None = None,
) -> list[JobResult]:
    """Execute compatible analyze jobs as one vectorized-engine call.

    All specs must be ``kind="analyze"`` with equal engine knobs
    (method/screens/backend/cache policy) -- the server's batch grouping
    guarantees this.  The whole group goes through one
    :func:`repro.depanalysis.engine.run_analysis_batch` call (one cache
    store, one shared Diophantine memo, one ``analysis.engine_calls``
    increment), and each spec still gets its own byte-exact CLI output.
    """
    specs = list(specs)
    if not specs:
        return []
    refused: dict[int, JobResult] = {}
    admitted: list[tuple[int, JobSpec]] = []
    for i, spec in enumerate(specs):
        if spec.kind != "analyze":
            raise ValueError("run_analyze_batch accepts only analyze jobs")
        reason = check_limits(spec, limits)
        if reason is not None:
            refused[i] = _refusal(spec, reason)
        else:
            admitted.append((i, spec))
    results: list[JobResult | None] = [None] * len(specs)
    for i, refusal in refused.items():
        results[i] = refusal

    if admitted:
        from repro.depanalysis.engine import AnalysisConfig, run_analysis_batch
        from repro.ir.expand import expand_bit_level

        t0 = time.perf_counter()
        with _installed(registry):
            try:
                head = admitted[0][1]
                config = AnalysisConfig(
                    backend=head.analysis_backend,
                    cache=head.cache,
                    cache_dir=head.cache_dir,
                )
                requests = []
                for _i, spec in admitted:
                    u = spec.u
                    program = expand_bit_level(
                        [0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1],
                        [u, u, u], spec.p, spec.expansion,
                    )
                    requests.append(
                        (program, {"p": spec.p}, spec.method,
                         spec.use_screens)
                    )
                timings: list[float] = []
                analyses = run_analysis_batch(
                    requests, config=config, timings=timings
                )
                failure = None
            except Exception:
                analyses = None
                failure = traceback.format_exc()
        elapsed = time.perf_counter() - t0
        metrics = None if registry is None else registry.metrics()
        for pos, (i, spec) in enumerate(admitted):
            if analyses is None:
                results[i] = JobResult(
                    kind="analyze", status="error", exit_code=3,
                    error=failure, metrics=metrics, elapsed_s=elapsed,
                )
                continue
            out = io.StringIO()
            _render_analysis(spec, analyses[pos], timings[pos], out)
            results[i] = JobResult(
                kind="analyze",
                status="ok",
                exit_code=0,
                output=out.getvalue(),
                data=_analysis_data(analyses[pos]),
                metrics=metrics,
                elapsed_s=elapsed,
            )
    return results


# ---------------------------------------------------------------------------
# Kind handlers (exact ports of the CLI subcommand bodies)
# ---------------------------------------------------------------------------

def _analysis_data(result) -> dict:
    return {
        "instances": len(result.instances),
        "distinct_vectors": [list(v) for v in result.distinct_vectors()],
        "stats": dict(result.stats),
    }


def _render_analysis(spec: JobSpec, result, elapsed: float, out) -> None:
    from repro.depanalysis.engine import resolve_backend

    print(f"bit-level matmul u={spec.u} p={spec.p} "
          f"expansion={spec.expansion}: "
          f"method={spec.method} "
          f"backend={resolve_backend(spec.analysis_backend)} "
          f"screens={spec.use_screens}", file=out)
    print(f"{len(result.instances)} dependence instances, "
          f"{len(result.distinct_vectors())} distinct vectors "
          f"({elapsed:.3f}s)", file=out)
    for vec in result.distinct_vectors():
        print(f"  d = {list(vec)}", file=out)
    for key, value in result.stats.items():
        print(f"  {key}: {value}", file=out)


def _handle_analyze(spec: JobSpec, out, verbose: bool):
    from repro.depanalysis.engine import AnalysisConfig, run_analysis_batch
    from repro.ir.expand import expand_bit_level

    u, p = spec.u, spec.p
    program = expand_bit_level(
        [0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1], [u, u, u], p,
        spec.expansion,
    )
    config = AnalysisConfig(
        backend=spec.analysis_backend,
        cache=spec.cache,
        cache_dir=spec.cache_dir,
    )
    timings: list[float] = []
    result, = run_analysis_batch(
        [(program, {"p": p}, spec.method, spec.use_screens)],
        config=config, timings=timings,
    )
    _render_analysis(spec, result, timings[0], out)
    return 0, _analysis_data(result)


def _handle_analyze_symbolic(spec: JobSpec, out, verbose: bool):
    from repro.ir.expand import expand_bit_level
    from repro.structures.params import S
    from repro.symbolic import analyze_symbolic

    program = expand_bit_level(
        [0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1],
        [S("u"), S("u"), S("u")], S("p"), spec.expansion,
    )
    t0 = time.perf_counter()
    result = analyze_symbolic(
        program, cache=spec.cache, cache_dir=spec.cache_dir
    )
    solve_s = time.perf_counter() - t0
    binding = {"u": spec.u, "p": spec.p}
    t0 = time.perf_counter()
    summary = result.summary(binding)
    instantiate_s = time.perf_counter() - t0
    form = "closed form" if result.closed_form else "general"
    print(f"bit-level matmul expansion={spec.expansion}: "
          f"symbolic analysis, {len(result.families)} families "
          f"({form}, solved in {solve_s:.3f}s)", file=out)
    print(f"instantiated at u={spec.u} p={spec.p}: "
          f"{summary['instances']} dependence instances, "
          f"{len(summary['distinct_vectors'])} distinct vectors "
          f"({instantiate_s * 1e3:.2f}ms)", file=out)
    for vec in summary["distinct_vectors"]:
        print(f"  d = {list(vec)}", file=out)
    for kind, count in summary["by_kind"].items():
        print(f"  {kind}: {count}", file=out)
    for key, value in result.stats.items():
        print(f"  {key}: {value}", file=out)
    data = {
        "instances": summary["instances"],
        "distinct_vectors": [list(v) for v in summary["distinct_vectors"]],
        "by_kind": dict(summary["by_kind"]),
        "families": summary["families"],
        "closed_form": summary["closed_form"],
        "stats": dict(result.stats),
        "solve_s": solve_s,
        "instantiate_s": instantiate_s,
    }
    return 0, data


def _handle_search(spec: JobSpec, out, verbose: bool):
    from repro.expansion.theorem31 import matmul_bit_level
    from repro.experiments.tables import format_table
    from repro.mapping import designs
    from repro.mapping.engine import SearchConfig, run_search
    from repro.mapping.interconnect import mesh_primitives

    alg = matmul_bit_level(spec.u, spec.p, expansion=spec.expansion)
    binding = {"u": spec.u, "p": spec.p}
    primitives = {
        "fig4": lambda: designs.fig4_primitives(spec.p),
        "fig5": lambda: designs.fig5_primitives(),
        "mesh": lambda: mesh_primitives(spec.target_space_dim),
        "none": lambda: None,
    }[spec.primitives]()
    config = SearchConfig(
        target_space_dim=spec.target_space_dim,
        block_values=spec.block if spec.block is not None else [spec.p],
        schedule_bound=spec.schedule_bound,
        max_candidates=None if spec.exhaustive else spec.max_candidates,
        overcollect=None if spec.exhaustive else spec.overcollect,
        strategy=spec.strategy,
        frontier=spec.frontier,
    )
    sharded = None
    if spec.workers > 1 or spec.shard_dir is not None:
        from repro.mapping.shard import run_sharded_search

        sharded = run_sharded_search(
            alg, binding, primitives, config,
            workers=spec.workers, shard_dir=spec.shard_dir,
        )
        records = sharded.designs
    else:
        found = run_search(alg, binding, primitives, config)
        records = [
            {
                "rows": [list(r) for r in c.mapping.rows],
                "time": c.time,
                "processors": c.processors,
                "wire_length": c.wire_length,
            }
            for c in found
        ]
    scope = f"workers={spec.workers}"
    if not records:
        print("no feasible design within the search bounds", file=out)
        return 1, {"candidates": []}
    if spec.frontier is not None:
        headers = ["rank", "time", "PEs", "wire", "T = [S; Π]"]
        rows = [
            (i + 1, d["time"], d["processors"], d["wire_length"],
             "; ".join(str(list(r)) for r in d["rows"]))
            for i, d in enumerate(records)
        ]
        title = (f"Pareto frontier ({', '.join(spec.frontier)}): "
                 f"bit-level matmul (u={spec.u}, p={spec.p}, "
                 f"primitives={spec.primitives}, {scope})")
    else:
        headers = ["rank", "time", "PEs", "T = [S; Π]"]
        rows = [
            (i + 1, d["time"], d["processors"],
             "; ".join(str(list(r)) for r in d["rows"]))
            for i, d in enumerate(records)
        ]
        title = (f"design-space search: bit-level matmul "
                 f"(u={spec.u}, p={spec.p}, primitives={spec.primitives}, "
                 f"{scope})")
    print(format_table(headers, rows, title=title), file=out)
    data: dict = {
        "candidates": [
            {
                "rank": i + 1,
                "time": d["time"],
                "processors": d["processors"],
                "wire_length": d["wire_length"],
                "rows": [list(r) for r in d["rows"]],
            }
            for i, d in enumerate(records)
        ]
    }
    if spec.frontier is not None:
        data["frontier"] = (
            sharded.frontier
            if sharded is not None
            else [
                {
                    "metrics": [d[m] for m in spec.frontier],
                    "rows": [list(r) for r in d["rows"]],
                }
                for d in records
            ]
        )
    if sharded is not None:
        data["shard"] = {
            "run_key": sharded.run_key,
            "blocks": sharded.blocks,
            "metrics": sharded.metrics,
        }
    return 0, data


def _handle_simulate(spec: JobSpec, out, verbose: bool):
    from repro.machine import BitLevelMatmulMachine, resolve_backend
    from repro.mapping import designs
    from repro.render import render_gantt

    u, p = spec.u, spec.p
    rng = random.Random(spec.seed)
    x = [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]
    y = [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]
    t = (designs.fig5_mapping(p) if spec.design == "fig5"
         else designs.fig4_mapping(p))
    machine = BitLevelMatmulMachine(
        u, p, t, spec.expansion, backend=spec.sim_backend
    )
    run = machine.run(x, y)
    mask = (1 << (2 * p - 1)) - 1
    want = [
        [sum(x[i][k] * y[k][j] for k in range(u)) & mask for j in range(u)]
        for i in range(u)
    ]
    print(f"design={spec.design} u={u} p={p} expansion={spec.expansion} "
          f"backend={resolve_backend(spec.sim_backend)}", file=out)
    print(f"makespan: {run.sim.makespan}  PEs: {run.sim.processor_count}  "
          f"utilization: {run.sim.mean_utilization:.1%}", file=out)
    if verbose:
        # Condition 5 of Definition 4.1, measured from the simulator's
        # per-PE busy counters rather than asserted from coprimality.
        print(f"condition 5 (some PE busy at every beat): "
              f"{run.sim.always_busy}", file=out)
        print("per-PE utilization:", file=out)
        util = run.sim.pe_utilization()
        for pos in sorted(run.sim.pe_busy):
            busy = run.sim.pe_busy[pos]
            print(f"  PE{pos}: {busy}/{run.sim.makespan} beats "
                  f"({util[pos]:.1%})", file=out)
        print(f"ValueStore: {run.sim.store_reads} reads, "
              f"{run.sim.store_writes} writes", file=out)
    correct = run.product == want
    print(f"product correct (mod 2^{2*p-1}): {correct}", file=out)
    if spec.gantt:
        from repro.machine.simulator import SpaceTimeSimulator

        sim = SpaceTimeSimulator(
            t, machine.algorithm, machine.binding, backend=spec.sim_backend
        )
        sim.run(lambda q, s: None)
        print(render_gantt(sim.pes), file=out)
    data = {
        "makespan": run.sim.makespan,
        "processors": run.sim.processor_count,
        "utilization": run.sim.mean_utilization,
        "correct": correct,
        "backend": resolve_backend(spec.sim_backend),
        "product": [list(row) for row in run.product],
    }
    return (0 if correct else 1), data


def _handle_verify(spec: JobSpec, out, verbose: bool):
    from repro.verify import VerifyConfig, run_verification

    defaults = VerifyConfig()
    config = VerifyConfig(
        seed=spec.seed,
        cases=spec.cases if spec.cases is not None else defaults.cases,
        budget_s=spec.oracle_budget_s,
        oracles=spec.oracles if spec.oracles else defaults.oracles,
    )
    report = run_verification(config)
    print(report.summary(), file=out)
    return (0 if report.ok else 1), report.to_dict()


_HANDLERS = {
    "analyze": _handle_analyze,
    "analyze_symbolic": _handle_analyze_symbolic,
    "search": _handle_search,
    "simulate": _handle_simulate,
    "verify": _handle_verify,
}
