"""Independent output checks for every benchmark job.

Nothing here imports ``repro``: each check recomputes the expected answer
from the paper's equations or by brute force over the index box, so a
wrong answer from any code path of the program under test is counted as a
failed job rather than compared against itself.

Every check returns ``None`` when the output is right and a one-line
reason when it is not; callers count a reason as one failed job.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import gcd

__all__ = [
    "paper_mapping",
    "box_points",
    "makespan_and_pes",
    "check_product",
    "check_simulate",
    "integer_rank",
    "check_design",
    "effective_vectors",
    "check_analyze",
    "check_cli",
]


def paper_mapping(design: str, p: int) -> list[list[int]]:
    """``T`` of eq. (4.2) (``fig4``) or eq. (4.6) (``fig5``), transcribed
    from the paper rather than taken from the program's design functions."""
    if design == "fig4":
        return [[p, 0, 0, 1, 0], [0, p, 0, 0, 1], [1, 1, 1, 2, 1]]
    if design == "fig5":
        return [[p, 0, 0, 1, 0], [0, p, 0, 0, 1], [p, p, 1, 2, 1]]
    raise ValueError(f"unknown design {design!r}")


def box_points(u: int, p: int):
    """The bit-level matmul index box ``[1, u]^3 x [1, p]^2``."""
    word = range(1, u + 1)
    bit = range(1, p + 1)
    return itertools.product(word, word, word, bit, bit)


def _dot(row, q) -> int:
    return sum(a * b for a, b in zip(row, q))


def makespan_and_pes(rows, u: int, p: int) -> tuple[int, int]:
    """``max Πq̄ - min Πq̄ + 1`` and the number of distinct ``Sq̄`` over
    the index box, for ``T = [S; Π]`` given as rows."""
    schedule = rows[-1]
    space = rows[:-1]
    times = []
    places = set()
    for q in box_points(u, p):
        times.append(_dot(schedule, q))
        places.add(tuple(_dot(row, q) for row in space))
    return max(times) - min(times) + 1, len(places)


def check_product(x, y, z, p: int) -> str | None:
    """``Z == X·Y mod 2^(2p-1)``, entry by entry, in Python integers."""
    u = len(x)
    mod = 1 << (2 * p - 1)
    if len(z) != u or any(len(row) != u for row in z):
        return f"product has shape {len(z)}x{len(z[0]) if z else 0}, want {u}x{u}"
    for i in range(u):
        for j in range(u):
            want = sum(x[i][k] * y[k][j] for k in range(u)) % mod
            if z[i][j] != want:
                return f"Z[{i}][{j}] = {z[i][j]}, want {want} (mod 2^{2 * p - 1})"
    return None


def check_simulate(job: dict, out: dict, makespan: int, pes: int) -> str | None:
    """A simulate job: exact product, and the makespan and PE count the
    benchmark computed over the index box for the paper's ``T``."""
    reason = check_product(job["x"], job["y"], out["product"], job["p"])
    if reason:
        return reason
    if out["makespan"] != makespan:
        return f"makespan {out['makespan']}, want {makespan}"
    if out["pes"] != pes:
        return f"PE count {out['pes']}, want {pes}"
    return None


def integer_rank(rows) -> int:
    """Rank over the rationals by exact Gaussian elimination."""
    matrix = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    cols = len(matrix[0]) if matrix else 0
    for col in range(cols):
        pivot = next(
            (r for r in range(rank, len(matrix)) if matrix[r][col] != 0), None
        )
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col] != 0:
                factor = matrix[r][col] / matrix[rank][col]
                matrix[r] = [a - factor * b for a, b in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


def check_design(design: dict, u: int, p: int) -> str | None:
    """One searched design ``{"rows", "time", "processors"}``.

    ``T`` must map the index box injectively into space-time (Definition
    4.1's conflict-freedom, by brute force), have full row rank ``k``, have
    coprime entries in every row, and its reported time and PE count must
    match the recomputed ones.
    """
    rows = [list(r) for r in design["rows"]]
    k = len(rows)
    seen = set()
    for q in box_points(u, p):
        image = tuple(_dot(row, q) for row in rows)
        if image in seen:
            return f"T={rows} maps two index points to space-time point {image}"
        seen.add(image)
    if integer_rank(rows) != k:
        return f"T={rows} has rank {integer_rank(rows)}, want {k}"
    for row in rows:
        g = 0
        for x in row:
            g = gcd(g, abs(x))
        if g != 1:
            return f"T={rows} has row {row} with gcd {g}"
    time, pes = makespan_and_pes(rows, u, p)
    if design["time"] != time:
        return f"T={rows} reports time {design['time']}, want {time}"
    if design["processors"] != pes:
        return f"T={rows} reports {design['processors']} PEs, want {pes}"
    return None


def effective_vectors(vectors, lowers, uppers) -> set[tuple[int, ...]]:
    """The distance vectors of a dependence structure that have at least
    one instance in the box ``[lowers, uppers]``.

    ``vectors`` is a list of ``(vector, holds)`` where ``holds(point)``
    tells whether the vector's validity condition holds at a sink point;
    a vector counts when its condition holds at some sink whose source
    ``point - vector`` also lies in the box.
    """
    ranges = [range(lo, hi + 1) for lo, hi in zip(lowers, uppers)]
    out = set()
    for vec, holds in vectors:
        for point in itertools.product(*ranges):
            source_inside = all(
                lo <= x - d <= hi
                for x, d, lo, hi in zip(point, vec, lowers, uppers)
            )
            if source_inside and holds(point):
                out.add(tuple(vec))
                break
    return out


def check_analyze(out: dict, theorem_vectors: set) -> str | None:
    """An analyze job: the concrete analysis finds exactly the Theorem 3.1
    structure's vectors, and the symbolic closed form counts exactly the
    concrete number of instances and the same vectors."""
    concrete = {tuple(v) for v in out["concrete_vectors"]}
    if concrete != theorem_vectors:
        return (
            f"concrete vectors {sorted(concrete)} != Theorem 3.1 vectors "
            f"{sorted(theorem_vectors)}"
        )
    if out["symbolic_count"] != out["concrete_count"]:
        return (
            f"symbolic count {out['symbolic_count']} != concrete count "
            f"{out['concrete_count']}"
        )
    symbolic = {tuple(v) for v in out["symbolic_vectors"]}
    if symbolic != concrete:
        return f"symbolic vectors {sorted(symbolic)} != concrete {sorted(concrete)}"
    return None


def check_cli(returncode: int, stdout: str, verdicts) -> str | None:
    """A CLI job: exit status 0, and for every expected verdict a line of
    ``stdout`` that starts with it (verdict lines may end in timings)."""
    if returncode != 0:
        return f"exit status {returncode}"
    lines = stdout.splitlines()
    for verdict in verdicts:
        if not any(line.startswith(verdict) for line in lines):
            return f"missing verdict line {verdict!r}"
    return None
