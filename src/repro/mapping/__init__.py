"""Linear space-time mapping of algorithms onto processor arrays.

Implements the design method of Definition 4.1 (Shang/Fortes [5,6], Li/Wah
[4], Ganapathy/Wah [10]) that the paper applies to its bit-level structures:

* :mod:`repro.mapping.transform` -- the mapping matrix ``T = [S; Π]``;
* :mod:`repro.mapping.interconnect` -- interconnection-primitive matrices
  ``P`` and the ``S·D = P·K`` factorization under the arrival constraint
  (4.1), including buffer accounting;
* :mod:`repro.mapping.feasibility` -- the five feasibility conditions;
* :mod:`repro.mapping.conflicts` -- exact computational-conflict detection;
* :mod:`repro.mapping.schedule` -- execution time (4.5), optimal linear
  schedule search, and time-optimality certification;
* :mod:`repro.mapping.spacetime` -- processor counts and array geometry;
* :mod:`repro.mapping.engine` -- the design-space search engine (shared
  schedule enumeration, short-circuit feasibility with memoization)
  behind the frozen :class:`SearchConfig`;
* :mod:`repro.mapping.solver` -- Definition 4.1 as an integer constraint
  system: the branch-and-prune candidate generator whose sound cuts make
  the search enumerate orders of magnitude fewer candidates;
* :mod:`repro.mapping.pareto` -- Pareto-frontier ranking over
  (makespan, PE count, wire length) with deterministic merge;
* :mod:`repro.mapping.shard` -- the one multi-process search: work-queue
  sharding over the shared artifact cache (block claims, partial
  frontiers, deterministic merge);
* :mod:`repro.mapping.designs` -- the paper's concrete designs: ``T`` of
  (4.2) with ``P, K`` of (4.3) (Fig. 4), ``T'`` of (4.6) with ``P', K'`` of
  (4.7) (Fig. 5), and the word-level baseline of Section 4.2.
"""

from repro.mapping.transform import MappingMatrix
from repro.mapping.interconnect import (
    InterconnectSolution,
    mesh_primitives,
    solve_interconnect,
)
from repro.mapping.feasibility import FeasibilityReport, check_feasibility
from repro.mapping.conflicts import (
    enumerate_conflict_pairs,
    find_conflicts,
    is_conflict_free,
)
from repro.mapping.memo import EvalCache
from repro.mapping.engine import (
    DesignCandidate,
    SearchConfig,
    ranked_schedules,
    run_search,
    search_designs,
    space_map_catalog,
)
from repro.mapping.pareto import (
    METRIC_NAMES,
    FrontierPoint,
    design_wire_length,
    dominates,
    merge_frontiers,
    pareto_frontier,
)
from repro.mapping.shard import ShardedSearchResult, run_sharded_search
from repro.mapping.schedule import (
    execution_time,
    find_optimal_schedule,
    schedule_is_valid,
)
from repro.mapping.spacetime import processor_count, space_extents
from repro.mapping.throughput import (
    pipelining_period,
    steady_state_utilization,
)
from repro.mapping.bounds import (
    critical_path_length,
    free_schedule_time,
    free_schedule_times,
)
from repro.mapping import designs

__all__ = [
    "MappingMatrix",
    "InterconnectSolution",
    "mesh_primitives",
    "solve_interconnect",
    "FeasibilityReport",
    "check_feasibility",
    "enumerate_conflict_pairs",
    "find_conflicts",
    "is_conflict_free",
    "EvalCache",
    "SearchConfig",
    "DesignCandidate",
    "ranked_schedules",
    "run_search",
    "search_designs",
    "space_map_catalog",
    "execution_time",
    "find_optimal_schedule",
    "schedule_is_valid",
    "processor_count",
    "space_extents",
    "critical_path_length",
    "free_schedule_time",
    "free_schedule_times",
    "pipelining_period",
    "steady_state_utilization",
    "designs",
]
