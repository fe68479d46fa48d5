"""The bit-level matrix-multiplication machine.

Executes the bit-level matmul algorithm (Example 3.1) on a mapped systolic
array, bit-exactly.  Matmul is the model-(3.5) instance ``h̄₁ = (0,1,0)``,
``h̄₂ = (1,0,0)``, ``h̄₃ = (0,0,1)`` over the cube ``[1, u]³``, so this
machine is a front end over :class:`~repro.machine.model.
BitLevelModelMachine`, whose per-point compressor cell it runs.  Per index
point ``q̄ = (j1, j2, j3, i1, i2)``:

* ``x`` bits enter the lattice on the ``i1 = 1`` row (bit ``i2`` of
  ``X[j1, j3]``, pipelined along ``j2``) and move along ``i1`` elsewhere
  (``d̄₄``);
* ``y`` bits enter on the ``i2 = 1`` column (bit ``i1`` of ``Y[j3, j2]``,
  pipelined along ``j1``) and move along ``i2`` (``d̄₅``);
* the summation follows the chosen expansion, with the boundary carry
  completion of :mod:`repro.expansion.semantics`: carries escaping the
  western column re-enter one row south (an existing link direction), and
  bits of weight position ``>= 2p`` drop as accumulator overflow, so the
  computed product matrix is exact modulo ``2^{2p-1}``.

What the front end adds is matrix-shaped operands, the vectorized
:class:`~repro.machine.wavefront.MatmulSlotKernel` on the wavefront backend
(while ``p <= MATMUL_KERNEL_MAX_P``), and a dense gather of the product.
The machine checks, dynamically and per datum: schedule causality, PE
conflicts, single assignment -- everything Definition 4.1 promises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro import obs
from repro.arith.bitops import to_bits
from repro.expansion.expansions import Expansion
from repro.machine.model import BitLevelModelMachine
from repro.machine.simulator import SimulationResult, ValueStore, resolve_backend
from repro.mapping.transform import MappingMatrix

__all__ = ["BitLevelMatmulMachine", "MatmulRun", "MATMUL_H"]

#: ``(h̄₁, h̄₂, h̄₃)`` of matmul as a model-(3.5) instance (Example 3.1).
MATMUL_H = ((0, 1, 0), (1, 0, 0), (0, 0, 1))


@dataclass
class MatmulRun:
    """Result of one bit-level matmul execution."""

    product: list[list[int]]  # Z = X·Y mod 2^{2p-1}
    sim: SimulationResult
    dropped_bits: int  # overflow bits beyond position 2p-1
    max_summands: int


class BitLevelMatmulMachine:
    """Run ``Z = X · Y`` bit-level on a mapped array.

    Parameters
    ----------
    u:
        Matrix dimension.
    p:
        Word length; operands must satisfy ``0 <= X[i][j] < 2^p``.
    mapping:
        The space-time mapping ``T`` (e.g. :func:`repro.mapping.designs.
        fig4_mapping`).
    expansion:
        ``"I"`` or ``"II"`` (the paper's designs use Expansion II).
    backend:
        Simulator backend (``"pointwise"`` | ``"wavefront"``); ``None``
        defers to :func:`repro.machine.simulator.default_backend`.  Under
        the wavefront backend the run executes through the vectorized
        :class:`~repro.machine.wavefront.MatmulSlotKernel` when
        ``p <= MATMUL_KERNEL_MAX_P``, and through the generic
        per-point path (counted as ``machine.kernel_fallback``) otherwise.
    """

    def __init__(
        self,
        u: int,
        p: int,
        mapping: MappingMatrix,
        expansion: str | Expansion = "II",
        backend: str | None = None,
    ):
        self.u = int(u)
        self.p = int(p)
        self.mapping = mapping
        self.backend = backend
        self.model = BitLevelModelMachine(
            *MATMUL_H, (1, 1, 1), (u, u, u), p, mapping, expansion, backend
        )
        self.expansion = self.model.expansion
        self.binding = self.model.binding

    @property
    def algorithm(self):
        """The model machine's Theorem 3.1 structure (built on first read)."""
        return self.model.algorithm

    def run(self, x: Sequence[Sequence[int]], y: Sequence[Sequence[int]]) -> MatmulRun:
        """Execute and return the product matrix (mod ``2^{2p-1}``)."""
        u, p = self.u, self.p
        x_bits = [[to_bits(x[i][j], p) for j in range(u)] for i in range(u)]
        y_bits = [[to_bits(y[i][j], p) for j in range(u)] for i in range(u)]
        state = {"dropped": 0, "max_summands": 0}
        kernel = None
        if resolve_backend(self.backend) == "wavefront":
            from repro.machine import wavefront

            if p > wavefront.MATMUL_KERNEL_MAX_P:
                obs.count("machine.kernel_fallback")
            else:
                kernel = wavefront.MatmulSlotKernel(
                    u, p, self.expansion.key, x, y, state
                )
        sim, result = self.model.simulate(
            lambda j: x_bits[j[0] - 1][j[2] - 1],  # x(j̄) = X[j1, j3]
            lambda j: y_bits[j[2] - 1][j[1] - 1],  # y(j̄) = Y[j3, j2]
            lambda j: None,  # z starts at 0
            state,
            kernel,
        )
        product = self._gather_dense(sim.store)
        if product is None:
            product = [
                [self.model.read_word(sim.store, (j1, j2, u))
                 for j2 in range(1, u + 1)]
                for j1 in range(1, u + 1)
            ]
        return MatmulRun(
            product=product,
            sim=result,
            dropped_bits=state["dropped"],
            max_summands=state["max_summands"],
        )

    def _gather_dense(self, store: ValueStore) -> list[list[int]] | None:
        """Batched extraction against a dense array store: gather the same
        ``2p - 1`` boundary bits per product word in two slices instead of
        ``u²(2p - 1)`` scalar reads.  Read accounting matches
        :meth:`BitLevelModelMachine.read_word`; values are identical bit for
        bit.  ``None`` when ``store`` is not a kernel-filled dense store."""
        u, p = self.u, self.p
        arrays = getattr(store, "_arrays", None)
        if arrays is None:
            return None
        s = arrays.get("s")
        if s is None or getattr(s, "shape", None) != (u, u, u, p, p):
            return None
        if any(key[0] == "s" for key in store._extra):
            return None  # scalar overrides present: take the exact path
        import numpy as np

        low = s[:, :, u - 1, :, 0].astype(np.int64)  # weights 0 .. p-1
        high = s[:, :, u - 1, p - 1, 1:].astype(np.int64)  # p .. 2p-2
        weights = np.int64(1) << np.arange(2 * p - 1, dtype=np.int64)
        values = low @ weights[:p] + high @ weights[p:]
        store.reads += u * u * (2 * p - 1)
        return [[int(v) for v in row] for row in values.tolist()]
