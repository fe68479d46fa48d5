"""Systolic-machine models: the simulation substrate.

The paper's architectures (Figs. 4 and 5) are VLSI arrays; we substitute a
functional, timing-faithful simulator implementing the paper's own machine
model -- the computation indexed by ``q̄`` fires at time ``Π q̄`` on
processor ``S q̄``, data moves one interconnection primitive per time unit,
early arrivals sit in link buffers:

* :mod:`repro.machine.pe` / :mod:`repro.machine.links` /
  :mod:`repro.machine.array` -- the structural model: processor elements,
  typed links with buffer stages, wire-length accounting, built from a
  mapping plus its interconnect solution;
* :mod:`repro.machine.simulator` -- the space-time executor: runs an
  algorithm's computations in schedule order with exact arrival checking
  and conflict detection;
* :mod:`repro.machine.model` / :mod:`repro.machine.wordmodel` -- the
  bit-level compressor cell and the word-level multiply-accumulate cell
  of any model-(3.5) instance: one per-point compute per machine level;
* :mod:`repro.machine.bitlevel` -- the bit-level matrix-multiplication
  machine, a front end over the model cell at Example 3.1's ``h̄``
  vectors (plus the vectorized slot kernel): executes the Expansion I/II
  matmul on a mapped array and checks the product bit-exactly;
* :mod:`repro.machine.wordlevel` -- the word-level baseline array [4] with
  pluggable sequential arithmetic (``t_b``), a front end over the
  word-level model cell.
"""

from repro.machine.array import SystolicArray
from repro.machine.bitlevel import BitLevelMatmulMachine
from repro.machine.io_schedule import input_schedule, output_schedule
from repro.machine.model import BitLevelModelMachine
from repro.machine.partition import PartitionedModelMachine
from repro.machine.simulator import (
    BACKENDS,
    SimulationResult,
    SpaceTimeSimulator,
    default_backend,
    resolve_backend,
)
from repro.machine.wordlevel import WordLevelMatmulMachine
from repro.machine.wordmodel import WordLevelModelMachine

__all__ = [
    "BACKENDS",
    "default_backend",
    "resolve_backend",
    "SystolicArray",
    "BitLevelMatmulMachine",
    "BitLevelModelMachine",
    "PartitionedModelMachine",
    "input_schedule",
    "output_schedule",
    "SimulationResult",
    "SpaceTimeSimulator",
    "WordLevelMatmulMachine",
    "WordLevelModelMachine",
]
