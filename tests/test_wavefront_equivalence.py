"""Differential backend-equivalence suite: wavefront vs pointwise.

The wavefront engine is only a speedup if it is *undetectable*: same
product, same :class:`~repro.machine.simulator.SimulationResult`, same
store contents, same ``machine.*`` metric values.  This module pins that
down across

* the bit-level matmul machine (both designs x both expansions, with and
  without the vectorized slot kernel), at rectangular sizes and at wide
  words past the slot kernel's exact domain (``p > 32``), where the
  wavefront backend falls back to its generic per-point path;
* every registered arithmetic structure, each exercised on the machine
  path that executes it;
* the generic model-(3.5) machine (the generic per-point path);
* >= 20 seeded random feasible mappings drawn from
  :mod:`repro.verify.generator`;
* the memoized schedule plans the wavefront runs share;
* the backend choice itself: ``wavefront`` is the default, and only the
  two backends are accepted.

Each machine comparison runs twice: once naming ``wavefront`` explicitly
and once leaving the backend unset with ``REPRO_SIM_BACKEND`` cleared, so
the default a caller gets without asking is pinned to the reference too
(also when the whole suite runs under ``REPRO_SIM_BACKEND=pointwise``).
"""

from __future__ import annotations

import random

import pytest

from repro import obs
from repro.arith.baughwooley import BaughWooleyMultiplier
from repro.arith.registry import list_structures
from repro.__main__ import build_parser
from repro.machine import model as model_mod
from repro.machine import plan as plan_mod
from repro.machine import wavefront as wavefront_mod
from repro.machine import wordmodel as wordmodel_mod
from repro.machine.bitlevel import BitLevelMatmulMachine
from repro.machine.model import BitLevelModelMachine
from repro.machine.plan import clear_plan_memo, plan_for
from repro.machine.signed import signed_matmul
from repro.machine.simulator import (
    SpaceTimeSimulator,
    default_backend,
    resolve_backend,
)
from repro.machine.wordlevel import WordLevelMatmulMachine
from repro.mapping import check_feasibility, designs
from repro.mapping.transform import MappingMatrix
from repro.verify.generator import gen_mapping_case
from tests.conftest import random_matrix, reference_matmul

BACKENDS = ("pointwise", "wavefront")

#: The fast run's ``backend=`` argument: named explicitly, or left to the
#: default (``None``, with ``REPRO_SIM_BACKEND`` cleared).
FAST_CHOICES = {"explicit": "wavefront", "default": None}


@pytest.fixture
def default_env(monkeypatch):
    """Clear ``REPRO_SIM_BACKEND`` so ``backend=None`` means the built-in
    default, which must be the wavefront engine."""
    monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
    assert resolve_backend(None) == "wavefront"


# ---------------------------------------------------------------------------
# Capture plumbing: the machines build their simulator internally (the
# matmul machines through the model machines they front), so the store
# snapshots are grabbed by substituting a recording subclass.
# ---------------------------------------------------------------------------

class _CaptureSimulator(SpaceTimeSimulator):
    instances: list[SpaceTimeSimulator] = []

    def run(self, compute, kernel=None):
        type(self).instances.append(self)
        return super().run(compute, kernel)


@pytest.fixture
def capture(monkeypatch):
    """Patch the machine modules to record every simulator they build."""
    _CaptureSimulator.instances = []
    monkeypatch.setattr(model_mod, "SpaceTimeSimulator", _CaptureSimulator)
    monkeypatch.setattr(wordmodel_mod, "SpaceTimeSimulator", _CaptureSimulator)
    return _CaptureSimulator.instances


def _observed(fn):
    """Run ``fn`` under a fresh obs registry; return (result, metrics)."""
    with obs.collecting() as reg:
        out = fn()
    return out, obs.metrics_dict(reg)


def _assert_runs_match(runs, label):
    """``runs[backend] = (sim_result, store_snapshot, metrics, firings)``."""
    pw, wf = runs["pointwise"], runs["wavefront"]
    assert pw[0] == wf[0], f"{label}: SimulationResult diverged"
    assert pw[1] == wf[1], f"{label}: store contents diverged"
    assert pw[2]["counters"] == wf[2]["counters"], f"{label}: counters diverged"
    assert pw[2]["gauges"] == wf[2]["gauges"], f"{label}: gauges diverged"
    assert pw[3] == wf[3], f"{label}: PE firing records diverged"


def _firings(sim):
    return {pos: dict(pe.firings) for pos, pe in sim.pes.items()}


# ---------------------------------------------------------------------------
# Bit-level matmul machine: designs x expansions (kernel path vs reference)
# ---------------------------------------------------------------------------

def _check_bitlevel(design, expansion, capture, rng, fast):
    u = p = 3
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    mapping = (
        designs.fig5_mapping(p) if design == "fig5" else designs.fig4_mapping(p)
    )
    runs = {}
    products = {}
    states = {}
    for backend, arg in (("pointwise", "pointwise"), ("wavefront", fast)):
        machine = BitLevelMatmulMachine(u, p, mapping, expansion, backend=arg)
        out, metrics = _observed(lambda: machine.run(x, y))
        sim = capture[-1]
        assert sim.backend == backend
        runs[backend] = (out.sim, sim.store.snapshot(), metrics, _firings(sim))
        products[backend] = out.product
        states[backend] = (out.dropped_bits, out.max_summands)
    mask = (1 << (2 * p - 1)) - 1
    assert products["pointwise"] == products["wavefront"]
    assert products["wavefront"] == reference_matmul(x, y, mask)
    assert states["pointwise"] == states["wavefront"]
    _assert_runs_match(runs, f"bitlevel {design}/exp {expansion}")


@pytest.mark.parametrize("design", ["fig4", "fig5"])
@pytest.mark.parametrize("expansion", ["I", "II"])
def test_bitlevel_machine_equivalence(design, expansion, capture, rng):
    _check_bitlevel(design, expansion, capture, rng, FAST_CHOICES["explicit"])


@pytest.mark.parametrize("design", ["fig4", "fig5"])
@pytest.mark.parametrize("expansion", ["I", "II"])
def test_bitlevel_default_backend_equivalence(
    design, expansion, capture, rng, default_env
):
    _check_bitlevel(design, expansion, capture, rng, FAST_CHOICES["default"])


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
        # Wide words leave the slot kernel's exact domain: the wavefront
        # backend counts one fallback; every other metric must match.
        fallbacks = metrics["counters"].pop("machine.kernel_fallback", 0)
        assert fallbacks == int(beyond_kernel and backend == "wavefront")
        sim = capture[-1]
        runs[backend] = (out.sim, sim.store.snapshot(), metrics, _firings(sim))
        assert out.product == reference_matmul(x, y, (1 << (2 * p - 1)) - 1)
    _assert_runs_match(runs, f"bitlevel u={u} p={p}")


@pytest.mark.parametrize("expansion", ["I", "II"])
@pytest.mark.parametrize("p", [33, 36])
def test_kernel_cap_is_load_bearing(p, expansion, monkeypatch):
    """Mutation check of ``MATMUL_KERNEL_MAX_P``.

    Unpatched, wide words fall back to the generic path (one
    ``machine.kernel_fallback``) and the product is exact.  With the cap
    raised to 62 the int64 kernel takes them and the product must come
    out wrong: all-ones operands set the bits of weight 63 and 64, which
    int64 lanes cannot hold.
    """
    u = 2
    ones = [[(1 << p) - 1] * u for _ in range(u)]
    want = reference_matmul(ones, ones, (1 << (2 * p - 1)) - 1)

    def run_once():
        machine = BitLevelMatmulMachine(
            u, p, designs.fig4_mapping(p), expansion, backend="wavefront"
        )
        return _observed(lambda: machine.run(ones, ones))

    out, metrics = run_once()
    assert out.product == want
    assert metrics["counters"]["machine.kernel_fallback"] == 1
    monkeypatch.setattr(wavefront_mod, "MATMUL_KERNEL_MAX_P", 62)
    out, metrics = run_once()
    assert "machine.kernel_fallback" not in metrics["counters"]
    assert out.product != want


class _NoKernelSimulator(SpaceTimeSimulator):
    """Drops the machine's slot kernel, forcing the generic path."""

    def run(self, compute, kernel=None):
        return super().run(compute, kernel=None)


def test_bitlevel_kernel_and_shim_agree(monkeypatch, rng):
    """Same backend, kernel dropped: the generic path must also match."""
    u = p = 3
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)

    def run_once():
        machine = BitLevelMatmulMachine(
            u, p, designs.fig4_mapping(p), "II", backend="wavefront"
        )
        return _observed(lambda: machine.run(x, y))

    out_kernel, m_kernel = run_once()
    monkeypatch.setattr(model_mod, "SpaceTimeSimulator", _NoKernelSimulator)
    out_shim, m_shim = run_once()
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
    # Baugh-Wooley is the signed-operand path: the coefficient-split driver
    # over the bit-level machine, cross-checked against the combinational
    # multiplier on every product term.
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


def _check_arithmetic(arith, fast):
    runner = _ARITH_RUNNERS.get(arith)
    if runner is None:
        pytest.fail(
            f"arithmetic structure {arith!r} has no backend-equivalence "
            f"runner; extend _ARITH_RUNNERS"
        )
    results = {}
    for backend, arg in (("pointwise", "pointwise"), ("wavefront", fast)):
        results[backend] = runner(arg, random.Random(0xA1))
    out_pw, m_pw = results["pointwise"]
    out_wf, m_wf = results["wavefront"]
    assert out_pw == out_wf, f"{arith}: results diverged across backends"
    assert m_pw["counters"] == m_wf["counters"], f"{arith}: counters diverged"
    assert m_pw["gauges"] == m_wf["gauges"], f"{arith}: gauges diverged"


@pytest.mark.parametrize("arith", list_structures())
def test_registered_arithmetic_equivalence(arith):
    _check_arithmetic(arith, FAST_CHOICES["explicit"])


@pytest.mark.parametrize("arith", list_structures())
def test_registered_arithmetic_default_backend_equivalence(arith, default_env):
    _check_arithmetic(arith, FAST_CHOICES["default"])


# ---------------------------------------------------------------------------
# Generic model-(3.5) machine (convolution mapping -> generic path)
# ---------------------------------------------------------------------------

CONV_T = MappingMatrix([[3, 0, 1, 0], [0, 0, 0, 1], [2, 1, 2, 1]], "T-conv")


def _check_model_machine(expansion, rng, fast):
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
    for backend, arg in (("pointwise", "pointwise"), ("wavefront", fast)):
        machine = BitLevelModelMachine(
            [1, 0], [1, -1], [0, 1], [1, 1], [n_pts, taps], p, CONV_T,
            expansion, backend=arg,
        )
        out, metrics = _observed(lambda: machine.run(xw, yw))
        runs[backend] = (out.sim, None, metrics, None)
        outputs[backend] = (out.z_words, out.outputs, out.dropped_bits)
        assert out.outputs == machine.reference(xw, yw)
    assert outputs["pointwise"] == outputs["wavefront"]
    pw, wf = runs["pointwise"], runs["wavefront"]
    assert pw[0] == wf[0]
    assert pw[2]["counters"] == wf[2]["counters"]
    assert pw[2]["gauges"] == wf[2]["gauges"]


@pytest.mark.parametrize("expansion", ["I", "II"])
def test_model_machine_equivalence(expansion, rng):
    _check_model_machine(expansion, rng, FAST_CHOICES["explicit"])


@pytest.mark.parametrize("expansion", ["I", "II"])
def test_model_machine_default_backend_equivalence(expansion, rng, default_env):
    _check_model_machine(expansion, rng, FAST_CHOICES["default"])


# ---------------------------------------------------------------------------
# Random feasible mappings from the verification generator
# ---------------------------------------------------------------------------

N_RANDOM_MAPPINGS = 20


def _feasible_cases(seed, count, max_attempts=400):
    """Draw generator mapping cases until ``count`` are feasible."""
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
    """A deterministic per-point computation exercising every dependence:
    read each (valid) source along its cause variables, fold, write every
    cause variable once at the firing point."""
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


def _check_random_mappings(fast):
    cases = _feasible_cases(seed=42, count=N_RANDOM_MAPPINGS)
    assert len(cases) >= N_RANDOM_MAPPINGS, (
        f"generator produced only {len(cases)} feasible mappings; "
        f"loosen the draw budget"
    )
    for case, alg, binding, t in cases:
        runs = {}
        for backend, arg in (("pointwise", "pointwise"), ("wavefront", fast)):
            compute = _generic_compute(alg, binding)
            with obs.collecting() as reg:
                sim = SpaceTimeSimulator(t, alg, binding, backend=arg)
                result = sim.run(compute)
            assert sim.backend == backend
            runs[backend] = (
                result,
                sim.store.snapshot(),
                obs.metrics_dict(reg),
                _firings(sim),
            )
        _assert_runs_match(runs, f"{case.kind} mapping {t.rows}")


def test_random_feasible_mappings_equivalent():
    _check_random_mappings(FAST_CHOICES["explicit"])


def test_random_feasible_mappings_default_backend(default_env):
    _check_random_mappings(FAST_CHOICES["default"])


def test_random_mapping_count_is_at_least_twenty():
    """Guard: the suite's random sweep keeps covering >= 20 mappings."""
    assert N_RANDOM_MAPPINGS >= 20


# ---------------------------------------------------------------------------
# Plan memoization
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


def test_repeat_wavefront_runs_share_plan_memo(monkeypatch, rng):
    """Back-to-back wavefront runs of one design, through separate
    machines, hit the same memoized plan rather than regrouping the
    lattice."""
    u = p = 3
    x, y = random_matrix(rng, u, p), random_matrix(rng, u, p)
    mapping = designs.fig4_mapping(p)
    clear_plan_memo()
    calls = []
    real_build = plan_mod._build_plan

    def counting_build(mapping_, lowers, uppers):
        calls.append((mapping_.rows, lowers, uppers))
        return real_build(mapping_, lowers, uppers)

    monkeypatch.setattr(plan_mod, "_build_plan", counting_build)
    for _ in range(3):
        BitLevelMatmulMachine(u, p, mapping, "II", backend="wavefront").run(x, y)
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
# Backend choice: wavefront by default, exactly two backends
# ---------------------------------------------------------------------------

#: The deleted codegen backend's name; every entry point must refuse it.
REMOVED_BACKEND = 'compiled'


def test_default_backend_is_wavefront_and_compiled_is_rejected(monkeypatch):
    monkeypatch.delenv("REPRO_SIM_BACKEND", raising=False)
    assert default_backend() == "wavefront"
    assert resolve_backend(None) == "wavefront"
    with pytest.raises(ValueError, match="unknown backend"):
        resolve_backend(REMOVED_BACKEND)
    monkeypatch.setenv("REPRO_SIM_BACKEND", REMOVED_BACKEND)
    with pytest.raises(ValueError, match="REPRO_SIM_BACKEND"):
        default_backend()
    with pytest.raises(SystemExit):
        build_parser().parse_args(["simulate", "--backend", REMOVED_BACKEND])
    args = build_parser().parse_args(["simulate", "--backend", "pointwise"])
    assert args.backend == "pointwise"


# ---------------------------------------------------------------------------
# Serve path
# ---------------------------------------------------------------------------

def test_serve_simulate_pointwise_backend():
    """The reference stays reachable through serve as a non-default
    backend."""
    from repro.serve.dispatch import run_job
    from repro.serve.jobs import JobSpec

    result = run_job(
        JobSpec(kind="simulate", u=2, p=2, sim_backend="pointwise")
    )
    assert result.ok
    assert result.data["correct"] is True
    assert result.data["backend"] == "pointwise"
