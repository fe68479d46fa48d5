"""Scaling benchmarks: how the simulators and derivations grow with size.

Not a paper figure; evidence that the substrate itself behaves: machine
time grows with the index-set volume ``u³p²``, the Theorem 3.1 derivation
stays flat, and the free-schedule DP is near-linear in points.
"""

import pytest

from repro.expansion.theorem31 import matmul_bit_level
from repro.machine.bitlevel import BitLevelMatmulMachine
from repro.mapping import designs
from repro.mapping.bounds import free_schedule_time
from repro.mapping.engine import SearchConfig
from repro.mapping.shard import run_sharded_search


def _operands(u, p):
    x = [[(3 * i + j) % (1 << p) for j in range(u)] for i in range(u)]
    y = [[(i + 5 * j + 1) % (1 << p) for j in range(u)] for i in range(u)]
    return x, y


@pytest.mark.parametrize("u,p", [(2, 2), (3, 3), (4, 4)])
def test_bench_machine_scaling(benchmark, u, p):
    machine = BitLevelMatmulMachine(u, p, designs.fig4_mapping(p), "II")
    x, y = _operands(u, p)
    out = benchmark(machine.run, x, y)
    assert out.sim.makespan == designs.t_fig4(u, p)
    assert out.sim.computations == u**3 * p**2


@pytest.mark.parametrize("u,p", [(4, 4), (16, 16), (64, 64)])
def test_bench_derivation_flat(benchmark, u, p):
    alg = benchmark(matmul_bit_level, u, p, "II")
    assert len(alg.dependences) == 7


@pytest.mark.parametrize("u,p", [(2, 2), (3, 3), (4, 3)])
def test_bench_free_schedule_scaling(benchmark, u, p):
    alg = matmul_bit_level(u, p, "II")
    t = benchmark(free_schedule_time, alg, {"u": u, "p": p})
    assert t == designs.t_fig4(u, p)


@pytest.mark.parametrize("workers", [1, 2])
def test_bench_search_engine_scaling(benchmark, workers):
    """Sharded search wall clock per worker count (single run; pools are
    costly)."""
    alg = matmul_bit_level(2, 2, "II")
    config = SearchConfig(target_space_dim=2, block_values=[2],
                          schedule_bound=2, max_candidates=5)
    result = benchmark.pedantic(
        run_sharded_search,
        args=(alg, {"u": 2, "p": 2}, designs.fig4_primitives(2), config),
        kwargs={"workers": workers}, rounds=1, iterations=1,
    )
    assert result.designs
    assert result.designs[0]["time"] <= designs.t_fig4(2, 2)
