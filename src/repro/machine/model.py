"""Bit-level execution of arbitrary model-(3.5) algorithms on mapped arrays.

:class:`BitLevelModelMachine` runs any word-level algorithm of the form
(3.5)::

    x(j̄) = x(j̄ - h̄₁);  y(j̄) = y(j̄ - h̄₂);
    z(j̄) = z(j̄ - h̄₃) + x(j̄) · y(j̄)

over an arbitrary ``n``-dimensional box, under either expansion, on any
feasible mapping of the ``(n+2)``-dimensional bit-level structure.  This is
what lets the convolution / matrix-vector designs produced by the search in
:mod:`repro.mapping.lowerdim` be *executed*, not just scheduled.

Word operand values are supplied as dictionaries over the word index set;
the machine checks they respect the pipelining recurrences (``x(j̄)`` must
equal ``x(j̄-h̄₁)`` whenever both are inside ``J_w``), then runs every bit
through the space-time executor with full conflict/causality checking, and
returns the accumulated ``z`` words at the ends of the ``h̄₃`` chains --
verified reproducible against the word-level recurrence mod ``2^{2p-1}``.

Its per-point compressor cell is the package's only bit-level compute:
:class:`~repro.machine.bitlevel.BitLevelMatmulMachine` runs it at matmul's
``h̄`` vectors through :meth:`BitLevelModelMachine.simulate`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Mapping, Sequence

from repro.arith.bitops import to_bits
from repro.expansion.expansions import Expansion, get_expansion
from repro.expansion.theorem31 import bit_level_from_vectors
from repro.machine.simulator import SimulationResult, SpaceTimeSimulator, ValueStore
from repro.mapping.transform import MappingMatrix
from repro.structures.algorithm import Algorithm
from repro.structures.indexset import IndexSet

__all__ = ["BitLevelModelMachine", "ModelRun"]

Point = tuple[int, ...]


def shift_in_box(bounds, j: Point, h: Sequence[int], sign: int) -> Point | None:
    """``j̄ + sign·h̄`` if it lies in the box ``bounds``, else ``None``."""
    out = tuple(a + sign * b for a, b in zip(j, h))
    for x, (lo, hi) in zip(out, bounds):
        if not lo <= x <= hi:
            return None
    return out


@dataclass
class ModelRun:
    """Result of one generic bit-level model execution."""

    #: z word at every word index point (mod 2^{2p-1})
    z_words: dict[Point, int]
    #: z words at the ends of the accumulation chains (j̄ + h̄₃ outside J_w)
    outputs: dict[Point, int]
    sim: SimulationResult
    dropped_bits: int
    max_summands: int


class BitLevelModelMachine:
    """Execute a model-(3.5) instance bit by bit on a mapped array."""

    def __init__(
        self,
        h1: Sequence[int],
        h2: Sequence[int],
        h3: Sequence[int],
        lowers: Sequence[int],
        uppers: Sequence[int],
        p: int,
        mapping: MappingMatrix,
        expansion: str | Expansion = "II",
        backend: str | None = None,
    ):
        self.n = len(h1)
        if not (len(h2) == len(h3) == len(lowers) == len(uppers) == self.n):
            raise ValueError("h̄ vectors and bounds must share one dimension")
        if not any(h3):
            raise ValueError("h̄₃ must be nonzero (z must accumulate)")
        self.backend = backend
        self.h1 = tuple(int(x) for x in h1)
        self.h2 = tuple(int(x) for x in h2)
        self.h3 = tuple(int(x) for x in h3)
        self.p = int(p)
        self.mapping = mapping
        self.expansion = get_expansion(expansion)
        self.word_set = IndexSet(list(lowers), list(uppers))
        self._bounds = self.word_set.bounds({})
        self.binding: dict[str, int] = {}
        #: The bit-level index set ``J_w x {1 <= i1, i2 <= p}`` of Theorem
        #: 3.1 -- all a run reads of the structure.
        self.index_set = self.word_set.product(
            IndexSet([1, 1], [self.p, self.p], ("i1", "i2"))
        )

    @cached_property
    def algorithm(self) -> Algorithm:
        """The full Theorem 3.1 structure, built on first read."""
        w = self.word_set
        return bit_level_from_vectors(
            self.h1, self.h2, self.h3, w.lowers, w.uppers, self.p,
            self.expansion.key,
        )

    # -- operand validation ----------------------------------------------------
    def _check_pipelining(
        self, words: Mapping[Point, int], h: tuple[int, ...], name: str
    ) -> None:
        for j in self.word_set.points({}):
            if j not in words:
                raise ValueError(f"{name} word missing at {j}")
            if not (0 <= words[j] < (1 << self.p)):
                raise ValueError(f"{name}[{j}] exceeds the word length")
            src = shift_in_box(self._bounds, j, h, -1)
            if src is not None and words[src] != words[j]:
                raise ValueError(
                    f"{name} violates its pipelining recurrence at {j}: "
                    f"{name}(j̄) = {words[j]} but {name}(j̄-h̄) = {words[src]}"
                )

    def _is_chain_final(self, j: Point) -> bool:
        return shift_in_box(self._bounds, j, self.h3, 1) is None

    # -- execution ----------------------------------------------------------------
    def run(
        self,
        x_words: Mapping[Point, int],
        y_words: Mapping[Point, int],
        z_init: Mapping[Point, int] | None = None,
    ) -> ModelRun:
        """Run the machine.

        Parameters
        ----------
        x_words, y_words:
            Word values per word index point (validated against the
            pipelining recurrences).
        z_init:
            Initial accumulator words, keyed by the *first* point of each
            ``h̄₃`` chain (those with ``j̄ - h̄₃`` outside ``J_w``); absent
            entries default to 0.
        """
        self._check_pipelining(x_words, self.h1, "x")
        self._check_pipelining(y_words, self.h2, "y")
        p = self.p
        mask = (1 << (2 * p - 1)) - 1
        z_init_bits = {
            j: to_bits(v & mask, 2 * p - 1) for j, v in (z_init or {}).items()
        }
        state = {"dropped": 0, "max_summands": 0}
        sim, result = self.simulate(
            lambda j: to_bits(x_words[j], p),
            lambda j: to_bits(y_words[j], p),
            z_init_bits.get,
            state,
        )

        # Extract z words.  Under Expansion I, non-final iterations hold a
        # position-wise redundant state; words are extracted at chain-final
        # iterations only.  Under Expansion II, every iteration has a
        # complete word at its boundary.
        exp1 = self.expansion.key == "I"
        z_words: dict[Point, int] = {}
        outputs: dict[Point, int] = {}
        for j in self.word_set.points({}):
            final = self._is_chain_final(j)
            if exp1 and not final:
                continue
            z_words[j] = value = self.read_word(sim.store, j)
            if final:
                outputs[j] = value
        return ModelRun(
            z_words=z_words,
            outputs=outputs,
            sim=result,
            dropped_bits=state["dropped"],
            max_summands=state["max_summands"],
        )

    def simulate(
        self,
        x_entry: Callable[[Point], Sequence[int]],
        y_entry: Callable[[Point], Sequence[int]],
        z_entry: Callable[[Point], Sequence[int] | None],
        state: dict,
        kernel=None,
    ) -> tuple[SpaceTimeSimulator, SimulationResult]:
        """Fire every bit-level point; return the simulator and its result.

        ``x_entry(j̄)`` / ``y_entry(j̄)`` give the bits of the word entering
        at a word point whose ``h̄₁`` / ``h̄₂`` source lies outside ``J_w``;
        ``z_entry(j̄)`` the ``2p - 1`` initial accumulator bits of a chain
        start (or ``None`` for zero).  ``state`` is the ``{"dropped",
        "max_summands"}`` dict the run updates, and ``kernel`` an optional
        wavefront slot kernel with the same semantics (see
        :meth:`SpaceTimeSimulator.run`).  The final ``s`` bits stay in
        ``sim.store`` for :meth:`read_word`.
        """
        # The simulator fires the index set and reads no dependences.
        sim = SpaceTimeSimulator(
            self.mapping, Algorithm(self.index_set, ()), self.binding,
            backend=self.backend,
        )
        compute = self._compute(x_entry, y_entry, z_entry, state)
        return sim, sim.run(compute, kernel=kernel)

    def _compute(self, x_entry, y_entry, z_entry, state):
        """The per-point compressor cell of model (3.5).

        Word-level facts (``h̄`` sources inside ``J_w``, entering words,
        chain-final flag) come from a per-word-point row built the first
        time the word point fires, so a run that never calls the cell (a
        slot kernel) builds none.
        """
        n, p = self.n, self.p
        exp1 = self.expansion.key == "I"
        bounds = self._bounds
        h1, h2, h3 = self.h1, self.h2, self.h3
        rows: dict[Point, tuple] = {}

        def word_row(j: Point) -> tuple:
            src_x = shift_in_box(bounds, j, h1, -1)
            src_y = shift_in_box(bounds, j, h2, -1)
            prev = shift_in_box(bounds, j, h3, -1)
            return (
                src_x, x_entry(j) if src_x is None else None,
                src_y, y_entry(j) if src_y is None else None,
                prev, z_entry(j) if prev is None else None,
                self._is_chain_final(j),
            )

        def route(store, q, j, i1, i2, offset, bit, var):
            """Carry (``offset`` 1) or second carry (2): along the row while
            inside it, else re-routed south to the column-``p`` owner of its
            weight, else dropped as accumulator overflow."""
            if i2 + offset <= p:
                store.put(var, q, bit)
            elif bit:
                pos = i1 + i2 - 1 + offset
                if pos <= 2 * p - 1:
                    store.add_pending("nr", j + (pos - p + 1, p), 1)
                else:
                    state["dropped"] += 1

        def compute(q: Point, store: ValueStore) -> None:
            j = q[:n]
            i1, i2 = q[n], q[n + 1]
            row = rows.get(j)
            if row is None:
                row = rows[j] = word_row(j)
            src_x, x_in, src_y, y_in, prev, z_in, final = row

            # x bit (index i2 of the multiplicand word), moving along i1.
            if i1 > 1:
                xb = store.get("x", j + (i1 - 1, i2))
            elif src_x is None:
                xb = x_in[i2 - 1]
            else:
                xb = store.get("x", src_x + (1, i2))
            store.put("x", q, xb)

            # y bit (index i1 of the multiplier word), moving along i2; the
            # carry comes along the row from the same western neighbour.
            if i2 > 1:
                west = j + (i1, i2 - 1)
                yb = store.get("y", west)
                store.put("y", q, yb)
                inputs = (xb & yb) + store.get("c", west, 0)
            else:
                yb = y_in[i1 - 1] if src_y is None else store.get(
                    "y", src_y + (i1, 1)
                )
                store.put("y", q, yb)
                inputs = xb & yb
            inputs += store.pop_pending("nr", q)

            # A chain-start iteration's initial z word enters bit by bit at
            # the boundary owner of each weight position w = i1 + i2 - 1:
            # (w, 1), or (p, w - p + 1) for the high half.
            on_boundary = i1 == p or i2 == 1
            if exp1:
                # Expansion I: position-wise z forwarding at every point;
                # the δ̄₃ collapse and c' only at the chain-final iteration.
                if prev is not None:
                    inputs += store.get("s", prev + (i1, i2))
                elif z_in is not None and on_boundary:
                    inputs += z_in[i1 + i2 - 2]
                if final:
                    if i1 > 1 and i2 < p:
                        inputs += store.get("s", j + (i1 - 1, i2 + 1), 0)
                    if i2 > 2:
                        inputs += store.get("c2", j + (i1, i2 - 2), 0)
            else:
                # Expansion II: the δ̄₃ collapse everywhere; the previous
                # iteration's final z bits injected at the boundary; c' on
                # the i1 = p hyperplane.
                if i1 > 1 and i2 < p:
                    inputs += store.get("s", j + (i1 - 1, i2 + 1), 0)
                if on_boundary:
                    if prev is not None:
                        inputs += store.get("s", prev + (i1, i2))
                    elif z_in is not None:
                        inputs += z_in[i1 + i2 - 2]
                if i1 == p and i2 > 2:
                    inputs += store.get("c2", j + (i1, i2 - 2), 0)

            if inputs > 7:
                raise AssertionError(f"compressor overflow at {q}: {inputs}")
            if inputs > state["max_summands"]:
                state["max_summands"] = inputs
            store.put("s", q, inputs & 1)
            route(store, q, j, i1, i2, 1, (inputs >> 1) & 1, "c")
            route(store, q, j, i1, i2, 2, (inputs >> 2) & 1, "c2")

        return compute

    def read_word(self, store: ValueStore, j: Point) -> int:
        """The ``2p - 1``-bit z word at word point ``j̄``: its boundary sum
        bits, ``(w, 1)`` for weights ``1..p`` then ``(p, k)`` for
        ``p+1..2p-1``."""
        p = self.p
        value = 0
        for w in range(1, p + 1):
            value |= store.get("s", (*j, w, 1)) << (w - 1)
        for k in range(2, p + 1):
            value |= store.get("s", (*j, p, k)) << (p + k - 2)
        return value

    # -- reference semantics (for verification) ---------------------------
    def reference(
        self,
        x_words: Mapping[Point, int],
        y_words: Mapping[Point, int],
        z_init: Mapping[Point, int] | None = None,
    ) -> dict[Point, int]:
        """The word-level recurrence evaluated directly, mod ``2^{2p-1}``."""
        z_init = dict(z_init or {})
        mask = (1 << (2 * self.p - 1)) - 1
        z: dict[Point, int] = {}
        for j in self.word_set.points({}):  # lexicographic: sources first
            prev = shift_in_box(self._bounds, j, self.h3, -1)
            acc = z_init.get(j, 0) if prev is None else z[prev]
            z[j] = (acc + x_words[j] * y_words[j]) & mask
        return {j: v for j, v in z.items() if self._is_chain_final(j)}
