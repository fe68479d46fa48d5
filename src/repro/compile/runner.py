"""The ``compiled`` simulation backend.

Dispatches a :class:`~repro.machine.simulator.SpaceTimeSimulator` run to
a compiled per-design program:

* resolve the program for (design rows, kernel family, size, expansion)
  from the in-process program memo, compiling it on a miss -- so repeat
  simulations of a known design skip compilation entirely;
* execute it against a fresh
  :class:`~repro.machine.wavefront.DenseValueStore` and assemble the
  :class:`~repro.machine.simulator.SimulationResult` from the program's
  precomputed utilization statistics, emitting metrics through the same
  :func:`~repro.machine.simulator.emit_machine_metrics` as the other
  backends (bit-identical names and values).

Kernels the compiler does not know (custom machines, no-NumPy
processes) fall back to the wavefront module's generic shim under the
``compiled`` span label -- every caller keeps working.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Callable

from repro import obs
from repro.machine import wavefront
from repro.machine.simulator import SimulationResult, emit_machine_metrics
from repro.compile.matmul import compile_matmul_program
from repro.compile.word import compile_word_program

__all__ = ["run_compiled", "clear_program_memo"]

#: Compiled programs hold O(points) int32 index plans; keep a small
#: in-process working set (a serve process sees a handful of designs).
_MEMO_CAPACITY = 8

_PROGRAMS: "OrderedDict[tuple, object]" = OrderedDict()


def clear_program_memo() -> None:
    """Drop every memoized compiled program (tests/benchmarks force cold
    compiles with this)."""
    _PROGRAMS.clear()


def _program_for(memo_key, compile_fn):
    """The memoized program for ``memo_key``, compiled on a miss."""
    program = _PROGRAMS.get(memo_key)
    if program is None:
        program = _PROGRAMS[memo_key] = compile_fn()
        while len(_PROGRAMS) > _MEMO_CAPACITY:
            _PROGRAMS.popitem(last=False)
    _PROGRAMS.move_to_end(memo_key)
    return program


def _lazy_pes(mapping, lowers, uppers):
    """PE-map builder deferred to first ``sim.pes`` access (the compiled
    hot path never needs the O(points) firing records)."""

    def build():
        from repro.compile.plan import plan_for

        plan = plan_for(mapping, lowers, uppers)
        return wavefront._pes_materializer(
            plan.lattice, plan.times, plan.procs
        )()

    return build


def _run_program(sim, kernel, program) -> SimulationResult:
    reg = obs.get_registry()
    mapping = sim.mapping
    with obs.span(
        "machine.simulate", mapping=mapping.name, backend="compiled"
    ):
        store = wavefront.DenseValueStore(
            mapping, kernel.lowers, kernel.uppers
        )
        store._registry = reg
        sim.store = store
        busy: dict[int, int] = {}
        pe_busy: dict[tuple[int, ...], int] = {}
        first, last = 0, -1
        if program.n_points:
            counters = program.execute(kernel, store)
            store.reads += counters.reads
            store.writes += counters.writes
            store.causality_checks += counters.causality_checks
            if reg is not None:
                for label in sorted(counters.links):
                    reg.count(label, counters.links[label])
            busy = dict(program.busy)
            pe_busy = dict(program.pe_busy)
            first, last = program.first, program.last
            sim._pes_builder = _lazy_pes(mapping, kernel.lowers, kernel.uppers)
        result = SimulationResult(
            makespan=last - first + 1,
            first_time=first,
            last_time=last,
            computations=program.n_points,
            processor_count=len(pe_busy),
            busy_per_step=busy,
            store_reads=store.reads,
            store_writes=store.writes,
            pe_busy=pe_busy,
        )
    emit_machine_metrics(reg, result, store)
    return result


def run_compiled(sim, compute: Callable, kernel=None) -> SimulationResult:
    """Execute ``sim`` under the ``compiled`` backend.

    Slot kernels the compiler recognizes run through a compiled
    per-design program (memoized in-process); anything else --
    generic ``compute`` callables, unknown kernels, no-NumPy processes
    -- runs through the wavefront module's batched per-point shim.  The
    result, store contents, and metrics are identical to the other
    backends either way.
    """
    if kernel is not None and wavefront.HAVE_NUMPY:
        mapping = sim.mapping
        if isinstance(kernel, wavefront.MatmulSlotKernel):
            expkey = "I" if kernel.exp1 else "II"
            u, p = kernel.u, kernel.p
            program = _program_for(
                ("matmul", mapping.rows, u, p, expkey),
                lambda: compile_matmul_program(mapping, u, p, expkey),
            )
            return _run_program(sim, kernel, program)
        if isinstance(kernel, wavefront.WordMatmulSlotKernel):
            u = kernel.u
            program = _program_for(
                ("word", mapping.rows, u),
                lambda: compile_word_program(mapping, u),
            )
            return _run_program(sim, kernel, program)
    return wavefront._run_generic(sim, compute, label="compiled")
