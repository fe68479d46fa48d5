"""Per-design schedule plans: the run-invariant structure, computed once.

Everything the wavefront runner would otherwise re-derive on every
``simulate`` call -- the box lattice, the batched ``Π j̄`` / ``S j̄``
transforms, the conflict check, the time-sorted slot grouping,
busy-per-step and per-PE busy counts -- is a constant of
``(T, lowers, uppers)``.  :func:`plan_for` builds that structure exactly
once per design and memoizes it in-process (an LRU keyed like the mapping
engine's ``EvalCache``: by content, not identity), so repeat simulations
of the same design -- the serve tier's bread and butter -- skip straight
to value execution.

Two plan shapes exist:

* :class:`SchedulePlan`: dense arrays + slot slices, consumed by the
  wavefront slot kernel;
* :class:`GenericPlan` (pure Python): the point list, batched times /
  processors, and time-bucketed slots used by the generic per-point
  path, memoized only for plain box index sets (whose point enumeration
  is fully determined by the bounds).

Plans are read-only by convention: consumers receive *copies* of the
mutable per-run statistics (``busy_per_step``, ``pe_busy``) and must not
write into the shared arrays.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as _np

from repro.mapping.transform import MappingMatrix
from repro.structures.indexset import IndexSet

__all__ = [
    "SchedulePlan",
    "GenericPlan",
    "plan_for",
    "generic_plan_for",
    "clear_plan_memo",
]

#: In-process memo capacity (plans are O(points) memory; a handful of
#: designs is the realistic working set of a serve process).
_MEMO_CAPACITY = 32

_PLAN_MEMO: "OrderedDict[tuple, SchedulePlan]" = OrderedDict()
_GENERIC_MEMO: "OrderedDict[tuple, GenericPlan]" = OrderedDict()


def clear_plan_memo() -> None:
    """Drop every memoized plan (tests and benchmarks use this to force
    cold builds)."""
    _PLAN_MEMO.clear()
    _GENERIC_MEMO.clear()


def _memo_put(memo: OrderedDict, key, value) -> None:
    memo[key] = value
    memo.move_to_end(key)
    while len(memo) > _MEMO_CAPACITY:
        memo.popitem(last=False)


# ---------------------------------------------------------------------------
# Vectorized lattice helpers
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


# ---------------------------------------------------------------------------
# Dense plans (slot kernel)
# ---------------------------------------------------------------------------

class SchedulePlan:
    """The dense run-invariant schedule structure of one design + box."""

    __slots__ = (
        "lattice", "times", "procs", "order", "slices", "sorted_times",
        "first", "last", "n_points", "_busy", "_pe_busy",
    )

    def __init__(self, lattice, times, procs, order, slices, sorted_times,
                 first, last, busy, pe_busy):
        self.lattice = lattice
        self.times = times
        self.procs = procs
        self.order = order
        self.slices = slices
        self.sorted_times = sorted_times
        self.first = first
        self.last = last
        self.n_points = len(lattice)
        self._busy = busy
        self._pe_busy = pe_busy

    def busy_per_step(self) -> dict[int, int]:
        """Per-time-step busy-PE counts (a fresh dict per caller)."""
        return dict(self._busy)

    def pe_busy(self) -> dict[tuple[int, ...], int]:
        """Per-PE busy-beat counts (a fresh dict per caller)."""
        return dict(self._pe_busy)


def _build_plan(
    mapping: MappingMatrix,
    lowers: Sequence[int],
    uppers: Sequence[int],
) -> SchedulePlan:
    lattice = _box_lattice(lowers, uppers)
    times = mapping.times_of(lattice)
    procs = mapping.processors_of(lattice)
    if len(lattice):
        _check_conflicts(lattice, times, procs)
        first = int(times.min())
        last = int(times.max())
        order = _np.argsort(times, kind="stable")
        sorted_times = times[order]
        slices = _slot_slices(sorted_times)
        step_values, step_counts = _np.unique(times, return_counts=True)
        busy = {
            int(t): int(n)
            for t, n in zip(step_values.tolist(), step_counts.tolist())
        }
        pe_busy = _group_counts(
            _encode_columns([procs[:, k] for k in range(procs.shape[1])]),
            procs,
        )
    else:
        first, last = 0, -1
        order = _np.zeros(0, dtype=_np.int64)
        sorted_times = times
        slices = []
        busy = {}
        pe_busy = {}
    return SchedulePlan(
        lattice, times, procs, order, slices, sorted_times,
        first, last, busy, pe_busy,
    )


def plan_for(
    mapping: MappingMatrix,
    lowers: Sequence[int],
    uppers: Sequence[int],
) -> SchedulePlan:
    """The (memoized) :class:`SchedulePlan` of ``mapping`` over the box.

    Keyed by the mapping's *rows* (content, like ``EvalCache``), so two
    equal designs share one plan regardless of object identity or name.
    Conflicting designs raise the usual ``ValueError`` and are never
    cached, so the error re-raises on every attempt.
    """
    key = (mapping.rows, tuple(lowers), tuple(uppers))
    plan = _PLAN_MEMO.get(key)
    if plan is not None:
        _PLAN_MEMO.move_to_end(key)
        return plan
    plan = _build_plan(mapping, lowers, uppers)
    _memo_put(_PLAN_MEMO, key, plan)
    return plan


# ---------------------------------------------------------------------------
# Generic plans (per-point path)
# ---------------------------------------------------------------------------

class GenericPlan:
    """The pure-Python plan consumed by the generic per-point path."""

    __slots__ = ("points", "times", "procs", "slots")

    def __init__(self, points, times, procs, slots):
        self.points = points  # list[tuple[int, ...]]
        self.times = times  # list[int], aligned with points
        self.procs = procs  # list[tuple[int, ...]], aligned with points
        #: ``[(t, [points...]), ...]`` in ascending schedule time
        self.slots = slots


def _build_generic_plan(mapping: MappingMatrix, points) -> GenericPlan:
    points = list(points)
    tlist = mapping.times_of(points).tolist()
    procs = [tuple(row) for row in mapping.processors_of(points).tolist()]
    buckets: dict[int, list[tuple[int, ...]]] = {}
    for point, t in zip(points, tlist):
        buckets.setdefault(t, []).append(point)
    slots = [(t, buckets[t]) for t in sorted(buckets)]
    return GenericPlan(points, tlist, procs, slots)


def generic_plan_for(mapping: MappingMatrix, index_set, binding) -> GenericPlan:
    """The (memoized) :class:`GenericPlan` for an algorithm instance.

    Only plain rectangular :class:`~repro.structures.indexset.IndexSet`
    instances are memoized -- their point enumeration is a pure function
    of the concrete bounds, which become the memo key.  Any other index
    set (or unbound parameters) builds a fresh plan every call.
    """
    key = None
    if type(index_set) is IndexSet:
        try:
            bounds = tuple(tuple(b) for b in index_set.bounds(binding))
        except KeyError:
            bounds = None
        if bounds is not None:
            key = (mapping.rows, bounds)
            plan = _GENERIC_MEMO.get(key)
            if plan is not None:
                _GENERIC_MEMO.move_to_end(key)
                return plan
    plan = _build_generic_plan(mapping, index_set.points(binding))
    if key is not None:
        _memo_put(_GENERIC_MEMO, key, plan)
    return plan
