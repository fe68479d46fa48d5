"""Memoization support for the design-space search engine.

The per-candidate work of the search -- conflict enumeration and
interconnect factorization -- is pure in its inputs, and the inputs repeat
heavily across candidates: many mappings ``T = [S; Π]`` share a nullspace
lattice, and the interconnect subproblems ``P k̄ = S d̄_i`` under a deadline
``Π d̄_i`` recur for every schedule sharing a space row.  :class:`EvalCache`
is a plain dictionary over *canonicalized* keys with hit/miss accounting
surfaced through :mod:`repro.obs` (``mapping.cache_hits`` /
``mapping.cache_misses``).

A cache is scoped to one search run (one per block in a sharded
search); entries are never invalidated.  Cached callables must be
deterministic and their results treated as immutable.
"""

from __future__ import annotations

from typing import Callable, Hashable, TypeVar

from repro import obs

__all__ = ["EvalCache"]

V = TypeVar("V")


class EvalCache:
    """A run-scoped memo table with obs-visible hit/miss counters."""

    __slots__ = ("data", "hits", "misses")

    def __init__(self) -> None:
        self.data: dict[Hashable, object] = {}
        self.hits = 0
        self.misses = 0

    def get_or_compute(self, key: Hashable, compute: Callable[[], V]) -> V:
        """Return the cached value for ``key``, computing it on first use."""
        data = self.data
        if key in data:
            self.hits += 1
            obs.count("mapping.cache_hits")
            return data[key]  # type: ignore[return-value]
        self.misses += 1
        obs.count("mapping.cache_misses")
        value = compute()
        data[key] = value
        return value

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return (
            f"EvalCache({len(self.data)} entries, "
            f"{self.hits} hits, {self.misses} misses)"
        )
