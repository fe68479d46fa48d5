"""The vectorized wavefront execution backend.

The paper's machine model (Definition 4.1, condition 5) is a *wavefront*
machine: every index point with schedule time ``Π j̄ = t`` fires in the same
beat.  The pointwise backend of :mod:`repro.machine.simulator` interprets
that model one point at a time through a Python dict; this module executes
it the way the hardware would -- whole time slots at once:

* the full lattice is built as one integer block and pushed through the
  batch space-time transforms (:meth:`MappingMatrix.times_of` /
  :meth:`MappingMatrix.processors_of` -- two matmuls, not ``2N`` dot
  products);
* points are bucketed by schedule time once, and each slot fires as an
  array operation against dense, lattice-indexed value storage
  (:class:`DenseValueStore`);
* the machine-model checks are preserved as vectorized assertions:
  *conflicts* (condition 3) by uniqueness of ``(S j̄, Π j̄)`` over the whole
  run, *causality* (condition 1) by ``Π d̄ >= 1`` per realized read
  displacement plus a per-slot check on re-routed carries, *write-once* by
  a fired mask per slot;
* per-PE busy beats, busy-per-step, makespan and link traffic are derived
  from the same arrays, and :func:`repro.machine.simulator.
  emit_machine_metrics` emits them under exactly the names and values the
  pointwise backend produces.

Two execution surfaces exist:

* :func:`run_wavefront` with a *slot kernel* (:class:`MatmulSlotKernel`,
  :class:`WordMatmulSlotKernel`) -- fully vectorized; the shipped
  arithmetic machines provide kernels and this is where the order-of-
  magnitude speedups come from;
* :func:`run_wavefront` with only a generic per-point ``compute`` callable
  -- the compatibility shim: points still go through the batched
  transforms and fire in slot order, but the callable runs per point
  against the ordinary dict-backed :class:`ValueStore`.

NumPy is optional.  Without it the kernel path is skipped and the shim
(pure-Python batch transforms) keeps every caller working.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from repro import obs
from repro.machine.pe import ProcessorElement
from repro.machine.simulator import (
    SimulationResult,
    ValueStore,
    emit_machine_metrics,
)
from repro.mapping.transform import MappingMatrix

try:  # pragma: no cover - both paths exercised by the test suite
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None

__all__ = [
    "HAVE_NUMPY",
    "DenseValueStore",
    "SlotCounters",
    "MatmulSlotKernel",
    "WordMatmulSlotKernel",
    "matmul_read_sites",
    "run_wavefront",
]

#: Whether the vectorized kernel path is available in this process.
HAVE_NUMPY = _np is not None


# ---------------------------------------------------------------------------
# Dense storage
# ---------------------------------------------------------------------------

class DenseValueStore:
    """Write-once space-time memory over dense lattice-indexed arrays.

    Drop-in for :class:`~repro.machine.simulator.ValueStore`: same
    ``get``/``put``/``add_pending``/``pop_pending``/``snapshot`` surface and
    the same ``reads``/``writes``/``causality_checks`` counters, but each
    variable is an ndarray indexed by (offset) lattice coordinates instead
    of a ``(var, point)`` dict.  Kernels attach their arrays with
    :meth:`attach`; scalar accesses outside the box (or to variables the
    kernel never materialized) fall through to a small dict overlay so the
    store stays value-complete.
    """

    def __init__(
        self,
        mapping: MappingMatrix,
        lowers: Sequence[int],
        uppers: Sequence[int],
    ):
        self._mapping = mapping
        self.lowers = tuple(int(x) for x in lowers)
        self.uppers = tuple(int(x) for x in uppers)
        self.shape = tuple(
            max(0, hi - lo + 1) for lo, hi in zip(self.lowers, self.uppers)
        )
        self._arrays: dict[str, object] = {}
        self._masks: dict[str, object] = {}
        self._extra: dict[tuple[str, tuple[int, ...]], int] = {}
        self._current_time: int | None = None
        self._reader_point: tuple[int, ...] | None = None
        self._registry = None
        self.reads = 0
        self.writes = 0
        self.causality_checks = 0

    # -- kernel surface ------------------------------------------------------
    def attach(self, var: str, array, mask) -> None:
        """Register ``var``'s dense value array and boolean presence mask
        (broadcastable to the box shape)."""
        self._arrays[var] = array
        self._masks[var] = mask

    def _index(self, point: Sequence[int]) -> tuple[int, ...] | None:
        """Zero-based array index of ``point``, or ``None`` outside the box."""
        pt = tuple(int(x) for x in point)
        if len(pt) != len(self.lowers):
            return None
        idx = []
        for x, lo, hi in zip(pt, self.lowers, self.uppers):
            if not lo <= x <= hi:
                return None
            idx.append(x - lo)
        return tuple(idx)

    # -- ValueStore surface --------------------------------------------------
    def time_of(self, point: tuple[int, ...]) -> int:
        """``Π j̄`` (delegated; kernels use the batched transform instead)."""
        return self._mapping.time_of(point)

    def processor_of(self, point: tuple[int, ...]) -> tuple[int, ...]:
        """``S j̄`` (delegated)."""
        return self._mapping.processor_of(point)

    def _set_context(self, time, point) -> None:
        self._current_time = time
        self._reader_point = tuple(point) if point is not None else None

    def _lookup(self, var: str, point: Sequence[int]):
        key = (var, tuple(int(x) for x in point))
        if key in self._extra:
            return self._extra[key]
        array = self._arrays.get(var)
        if array is None:
            return None
        idx = self._index(point)
        if idx is None or not bool(self._masks[var][idx]):
            return None
        return int(array[idx])

    def get(
        self, var: str, point: Sequence[int], default: int | None = None
    ) -> int:
        """Read ``var`` produced at ``point`` (same contract as
        :meth:`ValueStore.get`, including counter and causality/link
        bookkeeping for clocked reads)."""
        self.reads += 1
        value = self._lookup(var, point)
        if value is None:
            if default is None:
                raise KeyError(
                    f"no value for {(var, tuple(point))} and no boundary default"
                )
            return default
        if self._current_time is not None:
            self.causality_checks += 1
            produced_at = self.time_of(tuple(point))
            if produced_at >= self._current_time:
                raise AssertionError(
                    f"causality violation: {(var, tuple(point))} produced at "
                    f"t={produced_at}, read at t={self._current_time}"
                )
        reg = self._registry
        if reg is not None and self._reader_point is not None:
            src = self.processor_of(tuple(point))
            dst = self.processor_of(self._reader_point)
            if src == dst:
                reg.count("machine.link.local")
            else:
                delta = ",".join(str(b - a) for a, b in zip(src, dst))
                reg.count(f"machine.link.{delta}")
        return value

    def put(self, var: str, point: Sequence[int], value: int) -> None:
        """Scalar write (single assignment enforced against both the dense
        arrays and the overlay)."""
        key = (var, tuple(int(x) for x in point))
        if self._lookup(var, point) is not None:
            raise AssertionError(f"double write to {key}")
        self._extra[key] = int(value)
        self.writes += 1

    def add_pending(self, var: str, point: Sequence[int], value: int) -> None:
        """Accumulate into a pending overlay slot."""
        key = (var, tuple(int(x) for x in point))
        self._extra[key] = self._extra.get(key, 0) + int(value)
        self.writes += 1

    def pop_pending(self, var: str, point: Sequence[int]) -> int:
        """Consume a pending overlay slot (0 if nothing was routed there)."""
        return self._extra.pop((var, tuple(int(x) for x in point)), 0)

    def snapshot(self) -> dict[tuple[str, tuple[int, ...]], int]:
        """The full ``(var, point) -> value`` contents, as the pointwise
        store would hold them.  O(#values): intended for verification on
        moderate instances, not for the hot path."""
        out: dict[tuple[str, tuple[int, ...]], int] = {}
        for var, array in self._arrays.items():
            mask = self._masks[var]
            if _np is None:  # pragma: no cover - arrays imply numpy
                continue
            for idx in _np.argwhere(_np.broadcast_to(mask, self.shape)):
                pt = tuple(int(x + lo) for x, lo in zip(idx, self.lowers))
                out[(var, pt)] = int(array[tuple(idx)])
        out.update(self._extra)
        return out


# ---------------------------------------------------------------------------
# Counter accounting shared by the slot kernels
# ---------------------------------------------------------------------------

@dataclass
class SlotCounters:
    """Aggregate store/link bookkeeping a kernel hands back to the runner."""

    reads: int = 0
    writes: int = 0
    causality_checks: int = 0
    #: obs counter label -> increment (``machine.link.*``)
    links: dict[str, int] = field(default_factory=dict)

    def account_site(
        self,
        mapping: MappingMatrix,
        displacement: Sequence[int],
        reads_n: int,
        hits_n: int | None = None,
    ) -> None:
        """Fold one uniform read site into the totals.

        A *site* is a ``store.get`` call site whose producer is at a fixed
        displacement ``d̄`` from the reader; ``reads_n`` of them execute and
        ``hits_n`` find a produced value (the rest return the boundary
        default).  Performs the vectorized causality check -- every realized
        read at the site is legal iff ``Π d̄ >= 1`` -- and attributes link
        traffic ``S d̄`` exactly as the pointwise store does per access.
        """
        hits = reads_n if hits_n is None else hits_n
        self.reads += int(reads_n)
        if hits <= 0:
            return
        self.causality_checks += int(hits)
        step = mapping.time_of(displacement)
        if step < 1:
            raise AssertionError(
                f"causality violation: reads along displacement "
                f"{tuple(displacement)} have schedule step Π·d = {step} < 1 "
                f"under {mapping.name}"
            )
        delta = mapping.processor_of(displacement)
        if any(delta):
            label = "machine.link." + ",".join(str(x) for x in delta)
        else:
            label = "machine.link.local"
        self.links[label] = self.links.get(label, 0) + int(hits)


# ---------------------------------------------------------------------------
# The wavefront runner
# ---------------------------------------------------------------------------

def _box_lattice(lowers, uppers):
    """All lattice points of the box as one ``(N, n)`` int64 block, in
    lexicographic order (the order ``IndexSet.points`` enumerates)."""
    axes = [_np.arange(lo, hi + 1, dtype=_np.int64) for lo, hi in zip(lowers, uppers)]
    if any(len(ax) == 0 for ax in axes):
        return _np.zeros((0, len(axes)), dtype=_np.int64)
    grids = _np.meshgrid(*axes, indexing="ij")
    return _np.stack([g.reshape(-1) for g in grids], axis=1)


def _slot_slices(sorted_times):
    """``(start, end)`` index pairs of the equal-time runs."""
    cuts = _np.flatnonzero(_np.diff(sorted_times)) + 1
    starts = _np.concatenate([[0], cuts])
    ends = _np.concatenate([cuts, [len(sorted_times)]])
    return list(zip(starts.tolist(), ends.tolist()))


def _encode_columns(columns):
    """Mixed-radix encoding of integer columns into one int64 key array."""
    key = None
    for col in columns:
        lo = int(col.min())
        span = int(col.max()) - lo + 1
        shifted = col - lo
        key = shifted if key is None else key * span + shifted
    return key


def _check_conflicts(lattice, times, procs):
    """Condition 3, vectorized: ``(S j̄, Π j̄)`` must be unique across the
    run.  Raises the same ``ValueError`` the pointwise PE would."""
    columns = [procs[:, k] for k in range(procs.shape[1])] + [times]
    key = _encode_columns(columns)
    order = _np.argsort(key, kind="stable")
    sorted_key = key[order]
    dup = _np.flatnonzero(sorted_key[1:] == sorted_key[:-1])
    if len(dup) == 0:
        return
    # Report the earliest-scheduled collision, pointwise-style.
    pairs = order[dup], order[dup + 1]
    worst = int(_np.argmin(times[pairs[0]]))
    i, j = int(pairs[0][worst]), int(pairs[1][worst])
    pos = tuple(int(x) for x in procs[i])
    raise ValueError(
        f"conflict on PE {pos} at t={int(times[i])}: "
        f"{tuple(int(x) for x in lattice[i])} vs "
        f"{tuple(int(x) for x in lattice[j])}"
    )


def _group_counts(encoded, rows):
    """``{tuple(row): multiplicity}`` for the distinct rows of an encoded
    column set (used for per-PE busy counts)."""
    uniq, first, counts = _np.unique(
        encoded, return_index=True, return_counts=True
    )
    out = {}
    for idx, n in zip(first.tolist(), counts.tolist()):
        out[tuple(int(x) for x in rows[idx])] = int(n)
    return out


def _pes_materializer(lattice, times, procs):
    """Deferred construction of the ``{coords: ProcessorElement}`` map (the
    conflict check already ran, so firings can be bulk-inserted)."""

    def build() -> dict[tuple[int, ...], ProcessorElement]:
        pes: dict[tuple[int, ...], ProcessorElement] = {}
        for pos_row, t, pt in zip(
            procs.tolist(), times.tolist(), lattice.tolist()
        ):
            pos = tuple(pos_row)
            pe = pes.get(pos)
            if pe is None:
                pe = pes[pos] = ProcessorElement(pos)
            pe.firings[int(t)] = tuple(pt)
        return pes

    return build


def run_wavefront(sim, compute: Callable, kernel=None) -> SimulationResult:
    """Execute ``sim`` under the wavefront backend.

    With a ``kernel`` (and NumPy), runs the fully vectorized slot path;
    otherwise falls back to the compatibility shim, which batches the
    space-time transforms and fires ``compute`` per point in slot order.
    Either way the :class:`SimulationResult`, final store contents, and
    emitted ``machine.*`` metrics are identical to the pointwise backend's.
    """
    if kernel is not None and _np is not None:
        return _run_kernel(sim, kernel)
    return _run_generic(sim, compute)


def _run_kernel(sim, kernel) -> SimulationResult:
    reg = obs.get_registry()
    mapping = sim.mapping
    # Lazy: plan.py imports this module's helpers inside its builder, so
    # neither module needs the other at import time.
    from repro.compile.plan import plan_for

    with obs.span(
        "machine.simulate", mapping=mapping.name, backend="wavefront"
    ):
        plan = plan_for(mapping, kernel.lowers, kernel.uppers)
        lattice = plan.lattice
        n_points = plan.n_points
        times = plan.times

        store = DenseValueStore(mapping, kernel.lowers, kernel.uppers)
        store._registry = reg
        sim.store = store

        busy_per_step: dict[int, int] = {}
        pe_busy: dict[tuple[int, ...], int] = {}
        first, last = 0, -1
        if n_points:
            first = plan.first
            last = plan.last
            counters = kernel.execute(lattice, times, store, plan=plan)
            store.reads += counters.reads
            store.writes += counters.writes
            store.causality_checks += counters.causality_checks
            if reg is not None:
                for label in sorted(counters.links):
                    reg.count(label, counters.links[label])
            busy_per_step = plan.busy_per_step()
            pe_busy = plan.pe_busy()
            sim._pes_builder = _pes_materializer(lattice, times, plan.procs)
        result = SimulationResult(
            makespan=last - first + 1,
            first_time=first,
            last_time=last,
            computations=n_points,
            processor_count=len(pe_busy),
            busy_per_step=busy_per_step,
            store_reads=store.reads,
            store_writes=store.writes,
            pe_busy=pe_busy,
        )
    emit_machine_metrics(reg, result, store)
    return result


def _run_generic(
    sim, compute: Callable, label: str = "wavefront"
) -> SimulationResult:
    """The compatibility shim: batched transforms + slot-ordered per-point
    interpretation against the dict-backed :class:`ValueStore`.

    The batched times/processors and the slot bucketing are constants of
    (mapping, index-set bounds); they come from the memoized
    :func:`repro.compile.plan.generic_plan_for` so repeat runs of the same
    design skip straight to firing.  ``label`` names the backend in the
    obs span (the compiled backend reuses this shim when NumPy is absent).
    """
    reg = obs.get_registry()
    store: ValueStore = sim.store
    store._registry = reg
    from repro.compile.plan import generic_plan_for

    with obs.span(
        "machine.simulate", mapping=sim.mapping.name, backend=label
    ):
        plan = generic_plan_for(
            sim.mapping, sim.algorithm.index_set, sim.binding
        )
        points = plan.points
        tlist = plan.times
        store._time_cache.update(zip(points, tlist))
        store._proc_cache.update(zip(points, plan.procs))

        pes = sim.pes
        busy: dict[int, int] = {}
        for t, slot_points in plan.slots:
            for point in slot_points:
                pos = store.processor_of(point)
                pe = pes.get(pos)
                if pe is None:
                    pe = pes[pos] = ProcessorElement(pos)
                pe.fire(t, point)
                busy[t] = busy.get(t, 0) + 1
                store._set_context(t, point)
                compute(point, store)
        store._set_context(None, None)  # post-run reads: off the clock
        result = SimulationResult(
            makespan=(max(tlist) - min(tlist) + 1) if tlist else 0,
            first_time=min(tlist) if tlist else 0,
            last_time=max(tlist) if tlist else -1,
            computations=len(points),
            processor_count=len(pes),
            busy_per_step=busy,
            store_reads=store.reads,
            store_writes=store.writes,
            pe_busy={pos: pe.busy_cycles for pos, pe in pes.items()},
        )
    emit_machine_metrics(reg, result, store)
    return result


# ---------------------------------------------------------------------------
# The bit-level matmul slot kernel (add-shift compressor lattice)
# ---------------------------------------------------------------------------

def matmul_read_sites(u: int, p: int, exp1: bool, lattice):
    """The uniform read sites of the bit-level matmul lattice.

    Returns ``[(displacement, mask), ...]`` where ``mask`` selects the
    lattice points whose compute performs a ``store.get`` along that fixed
    displacement (every such read hits a produced value).  Shared by the
    wavefront slot kernel's counter accounting and by the design compiler,
    which bakes the same site census into its generated kernels.
    """
    j1, j2, j3 = lattice[:, 0], lattice[:, 1], lattice[:, 2]
    i1, i2 = lattice[:, 3], lattice[:, 4]
    sites = [
        ((0, 1, 0, 0, 0), (i1 == 1) & (j2 > 1)),  # x entry row, d̄ along j2
        ((0, 0, 0, 1, 0), i1 > 1),  # x pipelining d̄₄
        ((1, 0, 0, 0, 0), (i2 == 1) & (j1 > 1)),  # y entry column
        ((0, 0, 0, 0, 1), i2 > 1),  # y pipelining d̄₅
        ((0, 0, 0, 0, 1), i2 > 1),  # in-row carry
    ]
    if exp1:
        sites += [
            ((0, 0, 1, 0, 0), j3 > 1),  # position-wise z forwarding
            ((0, 0, 0, 1, -1), (j3 == u) & (i1 > 1) & (i2 < p)),
            ((0, 0, 0, 0, 2), (j3 == u) & (i2 > 2)),
        ]
    else:
        sites += [
            ((0, 0, 0, 1, -1), (i1 > 1) & (i2 < p)),  # δ̄₃ collapse
            ((0, 0, 1, 0, 0), ((i1 == p) | (i2 == 1)) & (j3 > 1)),
            ((0, 0, 0, 0, 2), (i1 == p) & (i2 > 2)),
        ]
    return sites


#: Largest word length ``p`` on which :class:`MatmulSlotKernel` is exact:
#: product words carry ``2p - 1`` bits and are assembled in int64, so
#: ``2p - 1 <= 63``.  Wider words run through the generic per-point path.
MATMUL_KERNEL_MAX_P = 32


class MatmulSlotKernel:
    """Vectorized slot kernel for the bit-level matmul lattice.

    Exact for ``p <= MATMUL_KERNEL_MAX_P``; callers fall back outside it.

    Implements exactly the per-point semantics of
    :meth:`repro.machine.bitlevel.BitLevelMatmulMachine.run`'s ``compute``
    -- the add-shift compressor lattice of Example 3.1 under Expansion I or
    II, including the boundary carry re-routing -- but consumes a whole
    time slot's point block per step.  The signed coefficient-splitting
    driver (:func:`repro.machine.signed.signed_matmul`) runs through this
    kernel unchanged, since splitting happens at the word level.

    ``state`` is the machine's ``{"dropped": .., "max_summands": ..}`` dict,
    updated in place as the pointwise compute would.
    """

    def __init__(
        self,
        u: int,
        p: int,
        expansion_key: str,
        x: Sequence[Sequence[int]],
        y: Sequence[Sequence[int]],
        state: dict,
    ):
        if _np is None:  # pragma: no cover - callers gate on HAVE_NUMPY
            raise RuntimeError("MatmulSlotKernel requires numpy")
        self.u = int(u)
        self.p = int(p)
        self.exp1 = expansion_key == "I"
        self.state = state
        self.lowers = (1, 1, 1, 1, 1)
        self.uppers = (u, u, u, p, p)
        shifts = _np.arange(p, dtype=_np.int64)
        # x bit i2 of X[j1, j3]; y bit i1 of Y[j3, j2].
        self._xbits = (
            (_np.asarray(x, dtype=_np.int64)[:, :, None] >> shifts) & 1
        ).astype(_np.int8)
        self._ybits = (
            (_np.asarray(y, dtype=_np.int64)[:, :, None] >> shifts) & 1
        ).astype(_np.int8)

    # -- counter model -------------------------------------------------------
    def _account(self, counters: SlotCounters, mapping, lattice) -> None:
        """Fold every read site into the counters (each site is a fixed
        displacement; all matmul-lattice reads hit a produced value)."""
        for displacement, mask in matmul_read_sites(
            self.u, self.p, self.exp1, lattice
        ):
            counters.account_site(mapping, displacement, int(mask.sum()))

    # -- execution -----------------------------------------------------------
    def execute(
        self, lattice, times, store: DenseValueStore, plan=None
    ) -> SlotCounters:
        np = _np
        u, p = self.u, self.p
        exp1 = self.exp1
        shape = (u, u, u, p, p)
        int8 = np.int8
        X = np.zeros(shape, int8)
        Y = np.zeros(shape, int8)
        S = np.zeros(shape, int8)
        C = np.zeros(shape, int8)
        C2 = np.zeros(shape, int8)
        NR = np.zeros(shape, int8)
        fired = np.zeros(shape, bool)

        always = np.broadcast_to(np.bool_(True), shape)
        i2_axis = np.arange(1, p + 1)
        store.attach("x", X, always)
        store.attach("y", Y, always)
        store.attach("s", S, always)
        store.attach("c", C, np.broadcast_to(i2_axis <= p - 1, shape))
        store.attach("c2", C2, np.broadcast_to(i2_axis <= p - 2, shape))

        counters = SlotCounters()
        self._account(counters, store._mapping, lattice)
        pi = [int(c) for c in store._mapping.schedule]
        max_summands = int(self.state.get("max_summands", 0))
        dropped = 0
        writes = 0

        if plan is not None:
            order, sorted_times, slices = plan.order, plan.sorted_times, plan.slices
        else:
            order = np.argsort(times, kind="stable")
            sorted_times = times[order]
            slices = _slot_slices(sorted_times)
        for start, end in slices:
            block = lattice[order[start:end]]
            t = int(sorted_times[start])
            j1, j2, j3 = block[:, 0], block[:, 1], block[:, 2]
            i1, i2 = block[:, 3], block[:, 4]
            a, b, c, d, e = j1 - 1, j2 - 1, j3 - 1, i1 - 1, i2 - 1

            if fired[a, b, c, d, e].any():
                raise AssertionError(
                    f"double write in slot t={t}: a lattice point fired twice"
                )
            fired[a, b, c, d, e] = True

            xb = self._xbits[a, c, e]
            yb = self._ybits[c, b, d]
            inputs = (xb & yb).astype(np.int64)
            m = i2 > 1  # in-row carry
            inputs[m] += C[a[m], b[m], c[m], d[m], e[m] - 1]
            inputs += NR[a, b, c, d, e]  # pending boundary re-routes
            NR[a, b, c, d, e] = 0
            if exp1:
                m = j3 > 1
                inputs[m] += S[a[m], b[m], c[m] - 1, d[m], e[m]]
                m = (j3 == u) & (i1 > 1) & (i2 < p)
                inputs[m] += S[a[m], b[m], c[m], d[m] - 1, e[m] + 1]
                m = (j3 == u) & (i2 > 2)
                inputs[m] += C2[a[m], b[m], c[m], d[m], e[m] - 2]
            else:
                m = (i1 > 1) & (i2 < p)
                inputs[m] += S[a[m], b[m], c[m], d[m] - 1, e[m] + 1]
                m = ((i1 == p) | (i2 == 1)) & (j3 > 1)
                inputs[m] += S[a[m], b[m], c[m] - 1, d[m], e[m]]
                m = (i1 == p) & (i2 > 2)
                inputs[m] += C2[a[m], b[m], c[m], d[m], e[m] - 2]

            overflow = inputs > 7
            if overflow.any():
                k = int(np.argmax(overflow))
                raise AssertionError(
                    f"compressor overflow at {tuple(int(v) for v in block[k])}:"
                    f" {int(inputs[k])}"
                )
            if len(inputs):
                max_summands = max(max_summands, int(inputs.max()))

            X[a, b, c, d, e] = xb
            Y[a, b, c, d, e] = yb
            S[a, b, c, d, e] = (inputs & 1).astype(int8)
            writes += 3 * len(block)
            for offset, target, bits in (
                (1, C, (inputs >> 1) & 1),
                (2, C2, (inputs >> 2) & 1),
            ):
                keep = i2 + offset <= p
                target[a[keep], b[keep], c[keep], d[keep], e[keep]] = (
                    bits[keep].astype(int8)
                )
                writes += int(keep.sum())
                rr = (~keep) & (bits == 1)
                if not rr.any():
                    continue
                pos = i1[rr] + i2[rr] - 1 + offset
                ok = pos <= 2 * p - 1
                dropped += int((~ok).sum())
                if not ok.any():
                    continue
                ra, rb, rc = a[rr][ok], b[rr][ok], c[rr][ok]
                rd = pos[ok] - p  # target row i1' = pos - p + 1, zero-based
                target_time = (
                    pi[0] * (ra + 1) + pi[1] * (rb + 1) + pi[2] * (rc + 1)
                    + pi[3] * (rd + 1) + pi[4] * p
                )
                if not (target_time > t).all():
                    raise AssertionError(
                        f"causality violation: boundary carry re-routed from "
                        f"slot t={t} into a slot <= t under "
                        f"{store._mapping.name}"
                    )
                np.add.at(
                    NR, (ra, rb, rc, rd, np.full(len(ra), p - 1)), int8(1)
                )
                writes += int(ok.sum())

        if NR.any():  # every pending slot must have been consumed
            raise AssertionError("unconsumed re-routed carries at end of run")
        counters.writes += writes
        self.state["dropped"] = self.state.get("dropped", 0) + dropped
        self.state["max_summands"] = max_summands
        return counters


# ---------------------------------------------------------------------------
# The word-level matmul slot kernel (sequential arithmetic, batched)
# ---------------------------------------------------------------------------

class WordMatmulSlotKernel:
    """Vectorized slot kernel for the word-level baseline array.

    Mirrors :meth:`repro.machine.wordlevel.WordLevelMatmulMachine.run`'s
    per-point compute; products come from the sequential multiplier's
    batched ``multiply_block`` (add-shift or carry-save), so the arithmetic
    algorithm under test still computes every product bit.
    """

    def __init__(self, u: int, multiplier, x, y):
        if _np is None:  # pragma: no cover - callers gate on HAVE_NUMPY
            raise RuntimeError("WordMatmulSlotKernel requires numpy")
        self.u = int(u)
        self.multiplier = multiplier
        self.lowers = (1, 1, 1)
        self.uppers = (u, u, u)
        self._x = _np.asarray(x, dtype=_np.int64)
        self._y = _np.asarray(y, dtype=_np.int64)

    def execute(
        self, lattice, times, store: DenseValueStore, plan=None
    ) -> SlotCounters:
        np = _np
        u = self.u
        shape = (u, u, u)
        X = np.zeros(shape, np.int64)
        Y = np.zeros(shape, np.int64)
        Z = np.zeros(shape, np.int64)
        fired = np.zeros(shape, bool)
        always = np.broadcast_to(np.bool_(True), shape)
        for var, array in (("x", X), ("y", Y), ("z", Z)):
            store.attach(var, array, always)

        counters = SlotCounters()
        mapping = store._mapping
        j1, j2, j3 = lattice[:, 0], lattice[:, 1], lattice[:, 2]
        counters.account_site(mapping, (0, 1, 0), int((j2 > 1).sum()))
        counters.account_site(mapping, (1, 0, 0), int((j1 > 1).sum()))
        counters.account_site(
            mapping, (0, 0, 1), len(lattice), int((j3 > 1).sum())
        )
        writes = 0

        if plan is not None:
            order, sorted_times, slices = plan.order, plan.sorted_times, plan.slices
        else:
            order = np.argsort(times, kind="stable")
            sorted_times = times[order]
            slices = _slot_slices(sorted_times)
        for start, end in slices:
            block = lattice[order[start:end]]
            t = int(sorted_times[start])
            a, b, c = block[:, 0] - 1, block[:, 1] - 1, block[:, 2] - 1
            if fired[a, b, c].any():
                raise AssertionError(
                    f"double write in slot t={t}: a lattice point fired twice"
                )
            fired[a, b, c] = True
            xv = np.empty(len(block), np.int64)
            entry = b == 0
            xv[entry] = self._x[a[entry], c[entry]]
            xv[~entry] = X[a[~entry], b[~entry] - 1, c[~entry]]
            yv = np.empty(len(block), np.int64)
            entry = a == 0
            yv[entry] = self._y[c[entry], b[entry]]
            yv[~entry] = Y[a[~entry] - 1, b[~entry], c[~entry]]
            zv = np.zeros(len(block), np.int64)
            m = c > 0
            zv[m] = Z[a[m], b[m], c[m] - 1]
            X[a, b, c] = xv
            Y[a, b, c] = yv
            Z[a, b, c] = zv + self.multiplier.multiply_block(xv, yv)
            writes += 3 * len(block)

        counters.writes += writes
        return counters
