"""Shared fixtures for the test suite."""

from __future__ import annotations

import random

import pytest


@pytest.fixture
def rng() -> random.Random:
    """Deterministic RNG for sampled tests."""
    return random.Random(0xBEEF)


@pytest.fixture
def corrupt_product(monkeypatch):
    """Make every bit-level matmul run return a product with one bit
    flipped, as a machine fault would."""
    from repro.machine.bitlevel import BitLevelMatmulMachine

    run = BitLevelMatmulMachine.run

    def corrupted(self, x, y):
        out = run(self, x, y)
        out.product[0][0] ^= 1
        return out

    monkeypatch.setattr(BitLevelMatmulMachine, "run", corrupted)


def random_matrix(rng: random.Random, u: int, p: int) -> list[list[int]]:
    """A ``u x u`` matrix of ``p``-bit nonnegative integers."""
    return [[rng.randrange(1 << p) for _ in range(u)] for _ in range(u)]


def reference_matmul(
    x: list[list[int]], y: list[list[int]], mask: int | None = None
) -> list[list[int]]:
    """Plain-integer matrix product, optionally reduced mod ``mask + 1``."""
    u = len(x)
    out = [
        [sum(x[i][k] * y[k][j] for k in range(u)) for j in range(u)]
        for i in range(u)
    ]
    if mask is not None:
        out = [[v & mask for v in row] for row in out]
    return out
