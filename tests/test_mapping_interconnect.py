"""Tests for the S·D = P·K factorization and primitive matrices."""

import itertools
import random

import pytest

from repro.expansion.theorem31 import matmul_bit_level
from repro.mapping.designs import (
    fig4_k_paper,
    fig4_mapping,
    fig4_primitives,
    fig5_mapping,
    fig5_primitives,
)
from repro.mapping.interconnect import (
    _column_combinations,
    mesh_primitives,
    min_hop_column,
    solve_interconnect,
    with_long_wires,
)
from repro.mapping.memo import EvalCache
from repro.util.linalg import mat_mul


def matmul_D(u=3, p=3):
    alg = matmul_bit_level(u, p, "II")
    cols = alg.dependences.columns()
    return [[c[r] for c in cols] for r in range(5)], alg


class TestPrimitiveMatrices:
    def test_mesh_2d(self):
        p = mesh_primitives(2)
        cols = {tuple(p[r][j] for r in range(2)) for j in range(4)}
        assert cols == {(1, 0), (-1, 0), (0, 1), (0, -1)}

    def test_mesh_1d(self):
        p = mesh_primitives(1)
        assert p == [[1, -1]]

    def test_with_long_wires(self):
        p = with_long_wires([[5, 0]])
        assert len(p[0]) == 5
        assert (p[0][4], p[1][4]) == (5, 0)

    def test_long_wire_dim_mismatch(self):
        with pytest.raises(ValueError):
            with_long_wires([[5]])


class TestSolveInterconnect:
    def test_fig4_solution(self):
        d, _ = matmul_D(3, 3)
        t = fig4_mapping(3)
        sol = solve_interconnect(t.space, d, t.schedule, fig4_primitives(3))
        assert sol is not None
        assert sol.verify(t.space, d)
        # d̄₄ column: one hop, deadline 2 -> one buffer.
        i_d4 = next(
            i for i in range(7)
            if [d[r][i] for r in range(5)] == [0, 0, 0, 1, 0]
        )
        assert sol.hops[i_d4] == 1
        assert sol.deadlines[i_d4] == 2
        assert sol.buffers[i_d4] == 1

    def test_fig5_solution_unit_wires(self):
        d, _ = matmul_D(3, 3)
        t = fig5_mapping(3)
        sol = solve_interconnect(t.space, d, t.schedule, fig5_primitives())
        assert sol is not None
        assert sol.verify(t.space, d)
        # Word pipelining now takes p mesh hops.
        i_d1 = next(
            i for i in range(7)
            if [d[r][i] for r in range(5)] == [1, 0, 0, 0, 0]
        )
        assert sol.hops[i_d1] == 3

    def test_fig4_infeasible_on_pure_mesh(self):
        # Without the long wires, d̄₁ needs p hops in 1 time unit.
        d, _ = matmul_D(3, 3)
        t = fig4_mapping(3)
        sol = solve_interconnect(t.space, d, t.schedule, mesh_primitives(2))
        assert sol is None

    def test_paper_k_matrix_verifies(self):
        # The literal K of (4.3) against the paper-ordered D.
        from repro.experiments.e4_fig4 import paper_order_D

        _, alg = matmul_D(3, 3)
        d = paper_order_D(alg)
        t = fig4_mapping(3)
        k = fig4_k_paper()
        assert mat_mul(t.space, d) == mat_mul(fig4_primitives(3), k)
        for i in range(7):
            hops = sum(k[j][i] for j in range(6))
            deadline = sum(t.schedule[r] * d[r][i] for r in range(5))
            assert hops <= deadline

    def test_zero_displacement_zero_hops(self):
        # Stationary data (S·d = 0) needs no hops.
        sol = solve_interconnect(
            [[1, 0]], [[0], [0]], [0, 1], mesh_primitives(1)
        )
        assert sol is not None
        assert sol.hops == [0]

    def test_deadline_violation_returns_none(self):
        # Displacement (2, 0) with deadline 1 on a unit mesh: impossible.
        sol = solve_interconnect(
            [[1, 0], [0, 1]],
            [[2], [0]],
            [0, 1],  # Π d = 0·2 + 1·0 ... deadline computed from schedule
            mesh_primitives(2),
        )
        # Π·d = 0, so even zero hops cannot be "before" -- target (2,0)
        # unreachable within 0 hops.
        assert sol is None

    def test_minimal_hops_preferred(self):
        # Target (1, 0) with generous deadline: the solver picks 1 hop,
        # not a 3-hop detour.
        sol = solve_interconnect(
            [[1, 0], [0, 1]], [[1], [0]], [5, 5], mesh_primitives(2)
        )
        assert sol is not None
        assert sol.hops == [1]


def _brute_min_hops(p, target, budget):
    """Lexicographically first minimum-hop ``k̄ >= 0`` with ``P k̄ = t``
    and ``Σ k̄ <= budget``, by exhaustive enumeration."""
    r = len(p[0])
    best = None
    for k in itertools.product(range(max(budget, -1) + 1), repeat=r):
        if sum(k) > budget:
            continue
        if all(sum(p[i][j] * k[j] for j in range(r)) == target[i]
               for i in range(len(p))):
            if best is None or sum(k) < sum(best):
                best = list(k)
    return best


class TestHopCountLemma:
    """``_column_combinations`` answers the same k̄ under every budget that
    fits the minimum, and ``None`` exactly below it -- so one memo entry
    per ``(P, target)`` answers every deadline."""

    @pytest.mark.parametrize("seed", range(6))
    def test_budget_independence(self, seed):
        rng = random.Random(seed)
        for _ in range(60):
            rows, r = rng.randint(1, 2), rng.randint(1, 4)
            p = [[rng.randint(-2, 2) for _ in range(r)] for _ in range(rows)]
            target = [rng.randint(-3, 3) for _ in range(rows)]
            b1 = rng.randint(-1, 4)
            b2 = rng.randint(b1, 5)
            at_b1 = _column_combinations(p, target, b1)
            at_b2 = _column_combinations(p, target, b2)
            assert at_b1 == _brute_min_hops(p, target, b1)
            assert at_b2 == _brute_min_hops(p, target, b2)
            if at_b2 is not None and sum(at_b2) <= b1:
                assert at_b1 == at_b2
            minimum = None if at_b2 is None else sum(at_b2)
            # None at B1 iff the minimum exceeds B1 (or does not exist).
            assert (at_b1 is None) == (minimum is None or minimum > b1)

    @pytest.mark.parametrize("seed", range(3))
    def test_one_memo_entry_answers_every_budget(self, seed):
        rng = random.Random(50 + seed)
        p = mesh_primitives(2) if seed == 0 else fig5_primitives()
        cache = EvalCache()
        for _ in range(80):
            target = [rng.randint(-3, 3), rng.randint(-3, 3)]
            budget = rng.randint(-1, 6)
            assert min_hop_column(p, target, budget, cache) == (
                _column_combinations(p, target, budget)
            )
        assert all(key[0] == "icol" and len(key) == 3 for key in cache.data)

    def test_cached_solve_matches_uncached(self):
        D, alg = matmul_D(2, 2)
        cache = EvalCache()
        for schedule in ([1, 1, 1, 2, 1], [2, 2, 1, 2, 1], [1, 1, 1, 1, 1]):
            for mapping in (fig4_mapping(2), fig5_mapping(2)):
                for prims in (fig4_primitives(2), fig5_primitives()):
                    got = solve_interconnect(
                        mapping.space, D, schedule, prims, cache=cache)
                    want = solve_interconnect(
                        mapping.space, D, schedule, prims)
                    assert (got is None) == (want is None)
                    if got is not None:
                        assert got.k_matrix == want.k_matrix
                        assert got.hops == want.hops
