"""Differential backend-equivalence suite: compiled vs wavefront vs pointwise.

The compiled backend is only a speedup if it is *undetectable*: same
product, same :class:`~repro.machine.simulator.SimulationResult`, same
store contents, same ``machine.*`` metric values, same PE firing
records.  This module pins that down across

* the bit-level matmul machine (both designs x both expansions);
* every registered arithmetic structure, each on its machine path;
* the generic model-(3.5) machine and >= 20 seeded random feasible
  mappings (the compiled backend's generic fallback);
* the no-NumPy shim fallback;
* wide words past the slot kernel's exact domain (``p > 32``), where the
  fast backends fall back to the generic per-point path.
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.arith.baughwooley import BaughWooleyMultiplier
from repro.arith.registry import list_structures
from repro.compile.plan import clear_plan_memo, plan_for
from repro.compile.runner import clear_program_memo
from repro.machine import bitlevel as bitlevel_mod
from repro.machine import wavefront as wavefront_mod
from repro.machine import wordlevel as wordlevel_mod
from repro.machine.bitlevel import BitLevelMatmulMachine
from repro.machine.model import BitLevelModelMachine
from repro.machine.signed import signed_matmul
from repro.machine.simulator import SpaceTimeSimulator
from repro.machine.wordlevel import WordLevelMatmulMachine
from repro.mapping import check_feasibility, designs
from repro.mapping.transform import MappingMatrix
from repro.verify.generator import gen_mapping_case
from tests.conftest import random_matrix, reference_matmul

BACKENDS = ("pointwise", "wavefront", "compiled")


@pytest.fixture(autouse=True)
def _no_disk_cache(monkeypatch):
    """Equivalence runs compare metrics exactly; pin the artifact cache
    off and start every test from cold compiled programs."""
    monkeypatch.delenv("REPRO_CACHE_DIR", raising=False)
    clear_program_memo()


# ---------------------------------------------------------------------------
# Capture plumbing (same shape as tests/test_wavefront_equivalence.py)
# ---------------------------------------------------------------------------

class _CaptureSimulator(SpaceTimeSimulator):
    instances: list[SpaceTimeSimulator] = []

    def run(self, compute, kernel=None):
        type(self).instances.append(self)
        return super().run(compute, kernel)


@pytest.fixture
def capture(monkeypatch):
    _CaptureSimulator.instances = []
    monkeypatch.setattr(bitlevel_mod, "SpaceTimeSimulator", _CaptureSimulator)
    monkeypatch.setattr(wordlevel_mod, "SpaceTimeSimulator", _CaptureSimulator)
    return _CaptureSimulator.instances


def _observed(fn):
    with obs.collecting() as reg:
        out = fn()
    return out, obs.metrics_dict(reg)


def _firings(sim):
    return {pos: dict(pe.firings) for pos, pe in sim.pes.items()}


def _assert_all_match(runs, label):
    """``runs[backend] = (sim_result, snapshot, metrics, firings)``."""
    ref = runs["pointwise"]
    for backend in ("wavefront", "compiled"):
        got = runs[backend]
        where = f"{label}: pointwise vs {backend}"
        assert ref[0] == got[0], f"{where}: SimulationResult diverged"
        assert ref[1] == got[1], f"{where}: store contents diverged"
        assert ref[2]["counters"] == got[2]["counters"], (
            f"{where}: counters diverged"
        )
        assert ref[2]["gauges"] == got[2]["gauges"], f"{where}: gauges diverged"
        assert ref[3] == got[3], f"{where}: PE firing records diverged"


# ---------------------------------------------------------------------------
# Bit-level matmul machine: designs x expansions, three backends
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("design", ["fig4", "fig5"])
@pytest.mark.parametrize("expansion", ["I", "II"])
def test_bitlevel_three_backend_equivalence(design, expansion, capture, rng):
    u = p = 3
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    mapping = (
        designs.fig5_mapping(p) if design == "fig5" else designs.fig4_mapping(p)
    )
    runs = {}
    products = {}
    states = {}
    for backend in BACKENDS:
        machine = BitLevelMatmulMachine(u, p, mapping, expansion, backend=backend)
        out, metrics = _observed(lambda: machine.run(x, y))
        sim = capture[-1]
        runs[backend] = (out.sim, sim.store.snapshot(), metrics, _firings(sim))
        products[backend] = out.product
        states[backend] = (out.dropped_bits, out.max_summands)
    mask = (1 << (2 * p - 1)) - 1
    assert products["pointwise"] == products["wavefront"] == products["compiled"]
    assert products["compiled"] == reference_matmul(x, y, mask)
    assert states["pointwise"] == states["wavefront"] == states["compiled"]
    _assert_all_match(runs, f"bitlevel {design}/exp {expansion}")


@pytest.mark.parametrize(
    "size",
    [(2, 4), (4, 2), (3, 4), (2, 31), (2, 32), (2, 33), (2, 36)],
)
def test_bitlevel_rectangular_sizes(size, capture, rng):
    u, p = size
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    beyond_kernel = p > wavefront_mod.MATMUL_KERNEL_MAX_P
    runs = {}
    for backend in BACKENDS:
        machine = BitLevelMatmulMachine(
            u, p, designs.fig4_mapping(p), "II", backend=backend
        )
        out, metrics = _observed(lambda: machine.run(x, y))
        # Wide words leave the slot kernel's exact domain: the fast
        # backends count one fallback; every other metric must match.
        fallbacks = metrics["counters"].pop("machine.kernel_fallback", 0)
        assert fallbacks == int(beyond_kernel and backend != "pointwise")
        sim = capture[-1]
        runs[backend] = (out.sim, sim.store.snapshot(), metrics, _firings(sim))
        assert out.product == reference_matmul(x, y, (1 << (2 * p - 1)) - 1)
    _assert_all_match(runs, f"bitlevel u={u} p={p}")


def test_compiled_kernel_and_shim_agree(rng):
    """NumPy gated off: the compiled backend's generic fallback must
    produce the same run as the compiled kernel path."""
    u = p = 3
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)

    def run_once():
        machine = BitLevelMatmulMachine(
            u, p, designs.fig4_mapping(p), "II", backend="compiled"
        )
        return _observed(lambda: machine.run(x, y))

    out_kernel, m_kernel = run_once()
    have_numpy, wavefront_mod.HAVE_NUMPY = wavefront_mod.HAVE_NUMPY, False
    try:
        out_shim, m_shim = run_once()
    finally:
        wavefront_mod.HAVE_NUMPY = have_numpy
    assert out_kernel.product == out_shim.product
    assert out_kernel.sim == out_shim.sim
    assert m_kernel["counters"] == m_shim["counters"]
    assert m_kernel["gauges"] == m_shim["gauges"]


# ---------------------------------------------------------------------------
# Every registered arithmetic structure
# ---------------------------------------------------------------------------

def _run_addshift(backend, rng):
    u, p = 3, 3
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    machine = BitLevelMatmulMachine(
        u, p, designs.fig4_mapping(p), "II", backend=backend
    )
    out, metrics = _observed(lambda: machine.run(x, y))
    return (out.product, out.sim), metrics


def _run_carrysave(backend, rng):
    u, p = 4, 3
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    machine = WordLevelMatmulMachine(u, p, "carry-save", backend=backend)
    out, metrics = _observed(lambda: machine.run(x, y))
    assert out.product == reference_matmul(x, y)
    return (out.product, out.total_cycles, out.sim), metrics


def _run_baughwooley(backend, rng):
    u, p = 2, 4
    half = 1 << (p - 1)
    x = [[rng.randint(-half, half - 1) for _ in range(u)] for _ in range(u)]
    y = [[rng.randrange(half // u) for _ in range(u)] for _ in range(u)]
    machine = BitLevelMatmulMachine(
        u, p, designs.fig4_mapping(p), "II", backend=backend
    )
    modulus = 1 << (2 * p - 1)
    out, metrics = _observed(
        lambda: signed_matmul(
            lambda a, b: machine.run(a, b).product, x, y, modulus
        )
    )
    bw = BaughWooleyMultiplier(p)
    ref = [
        [sum(bw.multiply(x[i][k], y[k][j]) for k in range(u)) for j in range(u)]
        for i in range(u)
    ]
    assert out == ref
    return out, metrics


_ARITH_RUNNERS = {
    "add-shift": _run_addshift,
    "carry-save": _run_carrysave,
    "baugh-wooley": _run_baughwooley,
}


@pytest.mark.parametrize("arith", list_structures())
def test_registered_arithmetic_compiled_equivalence(arith):
    runner = _ARITH_RUNNERS.get(arith)
    if runner is None:
        pytest.fail(
            f"arithmetic structure {arith!r} has no backend-equivalence "
            f"runner; extend _ARITH_RUNNERS"
        )
    results = {
        backend: runner(backend, random.Random(0xC0))
        for backend in BACKENDS
    }
    out_pw, m_pw = results["pointwise"]
    for backend in ("wavefront", "compiled"):
        out_b, m_b = results[backend]
        assert out_pw == out_b, f"{arith}: results diverged ({backend})"
        assert m_pw["counters"] == m_b["counters"], (
            f"{arith}: counters diverged ({backend})"
        )
        assert m_pw["gauges"] == m_b["gauges"], (
            f"{arith}: gauges diverged ({backend})"
        )


# ---------------------------------------------------------------------------
# Generic model-(3.5) machine and random mappings (compiled fallback path)
# ---------------------------------------------------------------------------

CONV_T = MappingMatrix([[3, 0, 1, 0], [0, 0, 0, 1], [2, 1, 2, 1]], "T-conv")


@pytest.mark.parametrize("expansion", ["I", "II"])
def test_model_machine_compiled_equivalence(expansion, rng):
    n_pts, taps, p = 4, 3, 3
    w = [rng.randrange(1 << p) for _ in range(taps)]
    sig = [rng.randrange(1 << p) for _ in range(n_pts + taps - 1)]
    xw, yw = {}, {}
    for j1 in range(1, n_pts + 1):
        for j2 in range(1, taps + 1):
            xw[(j1, j2)] = w[j2 - 1]
            yw[(j1, j2)] = sig[j1 + j2 - 2]
    runs = {}
    outputs = {}
    for backend in BACKENDS:
        machine = BitLevelModelMachine(
            [1, 0], [1, -1], [0, 1], [1, 1], [n_pts, taps], p, CONV_T,
            expansion, backend=backend,
        )
        out, metrics = _observed(lambda: machine.run(xw, yw))
        runs[backend] = (out.sim, metrics)
        outputs[backend] = (out.z_words, out.outputs, out.dropped_bits)
        assert out.outputs == machine.reference(xw, yw)
    for backend in ("wavefront", "compiled"):
        assert outputs["pointwise"] == outputs[backend]
        assert runs["pointwise"][0] == runs[backend][0]
        assert (runs["pointwise"][1]["counters"]
                == runs[backend][1]["counters"])
        assert runs["pointwise"][1]["gauges"] == runs[backend][1]["gauges"]


N_RANDOM_MAPPINGS = 20


def _feasible_cases(seed, count, max_attempts=400):
    rng = random.Random(seed)
    out = []
    for _ in range(max_attempts):
        if len(out) >= count:
            break
        case = gen_mapping_case(rng)
        try:
            alg, binding, t, prims = case.build()
            rep = check_feasibility(t, alg, binding, prims)
        except Exception:
            continue
        if rep.feasible:
            out.append((case, alg, binding, t))
    return out


def _generic_compute(alg, binding):
    deps = list(alg.dependences)

    def compute(q, store):
        total = sum((i + 1) * v for i, v in enumerate(q)) % 17
        written = []
        for k, dep in enumerate(deps):
            causes = dep.causes or (f"d{k}",)
            for var in causes:
                if var not in written:
                    written.append(var)
            if not dep.valid_at(q, binding):
                continue
            src = tuple(a - b for a, b in zip(q, dep.vector))
            for var in causes:
                total += store.get(var, src, 0)
        for var in written:
            store.put(var, q, total % 251)

    return compute


def test_random_feasible_mappings_three_backends():
    cases = _feasible_cases(seed=42, count=N_RANDOM_MAPPINGS)
    assert len(cases) >= N_RANDOM_MAPPINGS, (
        f"generator produced only {len(cases)} feasible mappings; "
        f"loosen the draw budget"
    )
    for case, alg, binding, t in cases:
        runs = {}
        for backend in BACKENDS:
            compute = _generic_compute(alg, binding)
            with obs.collecting() as reg:
                sim = SpaceTimeSimulator(t, alg, binding, backend=backend)
                result = sim.run(compute)
            runs[backend] = (
                result,
                sim.store.snapshot(),
                obs.metrics_dict(reg),
                _firings(sim),
            )
        _assert_all_match(runs, f"{case.kind} mapping {t.rows}")


# ---------------------------------------------------------------------------
# Plan memoization (the wavefront repeated-run fix)
# ---------------------------------------------------------------------------

def test_schedule_plan_is_memoized_across_runs():
    """Repeat simulations of the same design reuse one SchedulePlan (the
    per-run argsort/grouping work is paid once per design)."""
    p = 3
    mapping = designs.fig4_mapping(p)
    lowers = (1, 1, 1, 1, 1)
    uppers = (3, 3, 3, p, p)
    clear_plan_memo()
    first = plan_for(mapping, lowers, uppers)
    again = plan_for(mapping, lowers, uppers)
    assert first is again
    # Distinct bounds get a distinct plan.
    other = plan_for(mapping, lowers, (2, 2, 2, p, p))
    assert other is not first


def test_wavefront_and_compiled_share_plan_memo(rng):
    """Back-to-back wavefront then compiled runs of one design hit the
    same memoized plan entry rather than regrouping the lattice."""
    import repro.compile.plan as plan_mod

    u = p = 3
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    mapping = designs.fig4_mapping(p)
    clear_plan_memo()
    calls = []
    real_build = plan_mod._build_plan

    def counting_build(mapping_, lowers, uppers):
        calls.append((mapping_.rows, lowers, uppers))
        return real_build(mapping_, lowers, uppers)

    plan_mod._build_plan, saved = counting_build, real_build
    try:
        for backend in ("wavefront", "compiled", "wavefront", "compiled"):
            BitLevelMatmulMachine(
                u, p, mapping, "II", backend=backend
            ).run(x, y)
    finally:
        plan_mod._build_plan = saved
    assert len(calls) == 1, f"plan rebuilt {len(calls)} times for one design"


def test_plan_memo_failures_not_cached():
    """Conflicting mappings raise on every call (errors never memoize)."""
    bad = MappingMatrix(
        [[1, 1, 1, 1, 1], [0, 0, 0, 0, 0], [0, 0, 0, 0, 0]], "T-conflict"
    )
    clear_plan_memo()
    for _ in range(2):
        with pytest.raises(ValueError, match="conflict"):
            plan_for(bad, (1, 1, 1, 1, 1), (2, 2, 2, 2, 2))


# ---------------------------------------------------------------------------
# Serve path
# ---------------------------------------------------------------------------

def test_serve_simulate_compiled_backend():
    from repro.serve.dispatch import run_job
    from repro.serve.jobs import JobSpec

    result = run_job(JobSpec(kind="simulate", u=2, p=2, sim_backend="compiled"))
    assert result.ok
    assert result.data["correct"] is True
    assert result.data["backend"] == "compiled"
