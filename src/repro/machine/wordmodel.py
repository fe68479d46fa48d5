"""Word-level execution of arbitrary model-(3.5) algorithms.

The word-level counterpart of :class:`repro.machine.model.
BitLevelModelMachine`: runs the recurrence

    ``z(j̄) = z(j̄ - h̄₃) + x(j̄) · y(j̄)``

on a word-level systolic array (one multiply-accumulate per beat, performed
by a *sequential* arithmetic unit costing ``t_b`` cycles), under any
feasible word-level mapping.  Together the two machines measure the paper's
speedup claim for any workload the model covers, not just matmul.  Its
per-point cell is the package's only word-level compute:
:class:`~repro.machine.wordlevel.WordLevelMatmulMachine` runs it at
matmul's ``h̄`` vectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

from repro.arith.sequential import SequentialAddShift, SequentialCarrySave
from repro.ir.builders import word_model_structure
from repro.machine.model import shift_in_box
from repro.machine.simulator import SimulationResult, SpaceTimeSimulator, ValueStore
from repro.mapping.transform import MappingMatrix
from repro.structures.indexset import IndexSet

__all__ = ["WordLevelModelMachine", "WordModelRun"]

Point = tuple[int, ...]


@dataclass
class WordModelRun:
    """Result of one word-level model execution."""

    z_words: dict[Point, int]
    outputs: dict[Point, int]
    sim: SimulationResult
    word_beats: int
    cycles_per_beat: int
    total_cycles: int


class WordLevelModelMachine:
    """Run a model-(3.5) instance word by word on a mapped array."""

    def __init__(
        self,
        h1: Sequence[int],
        h2: Sequence[int],
        h3: Sequence[int],
        lowers: Sequence[int],
        uppers: Sequence[int],
        p: int,
        mapping: MappingMatrix,
        arithmetic: str = "add-shift",
        backend: str | None = None,
    ):
        self.backend = backend
        self.n = len(h1)
        if not (len(h2) == len(h3) == len(lowers) == len(uppers) == self.n):
            raise ValueError("h̄ vectors and bounds must share one dimension")
        self.h1 = tuple(int(x) for x in h1)
        self.h2 = tuple(int(x) for x in h2)
        self.h3 = tuple(int(x) for x in h3)
        self.p = int(p)
        self.mapping = mapping
        if arithmetic == "add-shift":
            self.multiplier = SequentialAddShift(p)
        elif arithmetic == "carry-save":
            self.multiplier = SequentialCarrySave(p)
        else:
            raise ValueError(f"unknown arithmetic {arithmetic!r}")
        self.algorithm = word_model_structure(h1, h2, h3, lowers, uppers)
        self.word_set = IndexSet(list(lowers), list(uppers))
        self._bounds = self.word_set.bounds({})

    def _is_chain_final(self, j: Point) -> bool:
        return shift_in_box(self._bounds, j, self.h3, 1) is None

    def run(
        self,
        x_words: Mapping[Point, int],
        y_words: Mapping[Point, int],
        z_init: Mapping[Point, int] | None = None,
    ) -> WordModelRun:
        """Execute; words pipeline along ``h̄₁``/``h̄₂`` through the store."""
        z_init = dict(z_init or {})
        sim, result = self.simulate(
            x_words.__getitem__, y_words.__getitem__,
            lambda j: z_init.get(j, 0),
        )
        z_words = {
            j: sim.store.get("z", j) for j in self.word_set.points({})
        }
        outputs = {
            j: v for j, v in z_words.items() if self._is_chain_final(j)
        }
        t_b = self.multiplier.cycles
        return WordModelRun(
            z_words=z_words,
            outputs=outputs,
            sim=result,
            word_beats=result.makespan,
            cycles_per_beat=t_b,
            total_cycles=result.makespan * t_b,
        )

    def simulate(
        self,
        x_entry: Callable[[Point], int],
        y_entry: Callable[[Point], int],
        z_entry: Callable[[Point], int],
    ) -> tuple[SpaceTimeSimulator, SimulationResult]:
        """Fire every word point; return the simulator and its result.

        ``x_entry(j̄)`` / ``y_entry(j̄)`` give the word entering at a point
        whose ``h̄₁`` / ``h̄₂`` source lies outside ``J_w``, ``z_entry(j̄)``
        the initial accumulator of a chain start.  Each point's sources
        are resolved once, the first time it fires; the ``z`` words stay
        in ``sim.store``.
        """
        bounds = self._bounds
        h1, h2, h3 = self.h1, self.h2, self.h3
        multiply = self.multiplier.multiply
        rows: dict[Point, tuple] = {}

        def word_row(q: Point) -> tuple:
            src_x = shift_in_box(bounds, q, h1, -1)
            src_y = shift_in_box(bounds, q, h2, -1)
            src_z = shift_in_box(bounds, q, h3, -1)
            return (
                src_x, x_entry(q) if src_x is None else None,
                src_y, y_entry(q) if src_y is None else None,
                src_z, z_entry(q) if src_z is None else None,
            )

        def compute(q: Point, store: ValueStore) -> None:
            row = rows.get(q)
            if row is None:
                row = rows[q] = word_row(q)
            src_x, xv, src_y, yv, src_z, acc = row
            if src_x is not None:
                xv = store.get("x", src_x)
            store.put("x", q, xv)
            if src_y is not None:
                yv = store.get("y", src_y)
            store.put("y", q, yv)
            if src_z is not None:
                acc = store.get("z", src_z)
            store.put("z", q, acc + multiply(xv, yv))

        sim = SpaceTimeSimulator(
            self.mapping, self.algorithm, {}, backend=self.backend
        )
        return sim, sim.run(compute)
