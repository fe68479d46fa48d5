"""The word-level baseline: the best word-level systolic matmul array [4].

A ``u x u`` mesh under ``T_w = [[1,0,0],[0,1,0],[1,1,1]]``: ``x`` words
pipeline along ``j2``, ``y`` words along ``j1``, ``z`` stays resident and
accumulates along ``j3``.  The schedule has ``3(u-1)+1`` word *beats*; each
beat performs one multiply-accumulate inside a PE using a *sequential*
arithmetic algorithm, so one beat costs ``t_b`` cycles and the total is

.. math:: t_{word} = (3(u-1)+1) \\cdot t_b

(Section 4.2).  ``t_b`` is ``O(p²)`` for add-shift and ``O(p)`` for
carry-save -- the choice that decides whether the bit-level design of Fig. 4
wins by ``O(p²)`` or by ``O(p)``.

The machine is a front end over :class:`~repro.machine.wordmodel.
WordLevelModelMachine` at matmul's ``h̄`` vectors; it runs through the
simulator's generic per-point path on every backend.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.machine.bitlevel import MATMUL_H
from repro.machine.simulator import SimulationResult
from repro.machine.wordmodel import WordLevelModelMachine
from repro.mapping.designs import word_level_mapping

__all__ = ["WordLevelMatmulMachine", "WordMatmulRun"]


@dataclass
class WordMatmulRun:
    """Result of one word-level matmul execution."""

    product: list[list[int]]
    sim: SimulationResult
    word_beats: int  # schedule length in word beats: 3(u-1)+1
    cycles_per_beat: int  # t_b of the chosen arithmetic
    total_cycles: int  # word_beats * t_b


class WordLevelMatmulMachine:
    """Run ``Z = X · Y`` on the word-level array with sequential arithmetic.

    A front end over :class:`~repro.machine.wordmodel.WordLevelModelMachine`
    at matmul's ``h̄`` vectors under ``T_w``.
    """

    def __init__(
        self,
        u: int,
        p: int,
        arithmetic: str = "add-shift",
        backend: str | None = None,
    ):
        self.u = int(u)
        self.p = int(p)
        self.arithmetic = arithmetic
        self.backend = backend
        self.model = WordLevelModelMachine(
            *MATMUL_H, (1, 1, 1), (u, u, u), p, word_level_mapping(),
            arithmetic, backend,
        )
        self.multiplier = self.model.multiplier
        self.mapping = self.model.mapping
        self.algorithm = self.model.algorithm

    def run(
        self, x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]
    ) -> WordMatmulRun:
        """Execute; products are computed by the sequential multiplier (so a
        multiplier bug would corrupt the result, not just the timing)."""
        u = self.u
        sim, result = self.model.simulate(
            lambda j: x[j[0] - 1][j[2] - 1],  # x(j̄) = X[j1, j3]
            lambda j: y[j[2] - 1][j[1] - 1],  # y(j̄) = Y[j3, j2]
            lambda j: 0,
        )
        product = [
            [sim.store.get("z", (j1, j2, u)) for j2 in range(1, u + 1)]
            for j1 in range(1, u + 1)
        ]
        t_b = self.multiplier.cycles
        return WordMatmulRun(
            product=product,
            sim=result,
            word_beats=result.makespan,
            cycles_per_beat=t_b,
            total_cycles=result.makespan * t_b,
        )
