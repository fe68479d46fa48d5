"""Vectorized dependence-analysis engine.

The scalar analyzers (:mod:`repro.depanalysis.exact`,
:func:`repro.depanalysis.analyzer.analyze_enumerate`) are the reference
semantics; this module re-implements both as batched numpy passes that
produce **bit-identical** :class:`AnalysisResult`\\ s (same instances, same
``stats`` dict) while touching each reference pair / iteration point with
matrix arithmetic instead of Python loops:

* **Batched screening** -- every subscript row of every write/read pair is
  stacked into one int64 matrix; the GCD divisibility test and the
  Banerjee bounds run as single vectorized passes, and only surviving
  pairs reach the per-pair Diophantine solver.  The scalar short-circuit
  order is preserved exactly (``gcd_pruned`` counts GCD failures,
  ``banerjee_pruned`` counts Banerjee failures *among GCD passers*).
* **Memoized exact solves** -- surviving pairs whose subscript systems
  have the same Hermite normal form of ``[A | b]`` share one solve and
  candidate enumeration (equal row lattices have identical solution
  sets); counters are charged per pair, so stats match the scalar run.
* **Block candidate enumeration** -- instead of branch-and-prune
  recursion, the lattice-parameter box from
  :func:`repro.depanalysis.diophantine.lattice_intervals` is materialized
  as a dense grid and mapped through the basis in one matmul; in-box
  filtering, guard checks, and lex-sign classification are all masked
  array ops.
* **Batched enumeration** -- the hash-join oracle walks the index set as
  one lex-ordered lattice block (the mixed-radix trick from
  :mod:`repro.machine.wavefront`): per-statement guard masks, write
  coordinates via one matmul per access, writer tables as sorted
  mixed-radix codes, and reads joined by ``searchsorted``.

Each batched path declares its exact-integer domain as data
(``_INT64_SAFE``, ``_GRID_CAP``, ``_POINTS_CAP``; magnitudes are
range-checked with exact Python arithmetic first) and hands the work to
the scalar reference outside it, counting ``depanalysis.fallback`` once
per hand-off.

:func:`run_analysis` is the engine entry point: it runs the batched
engine and consults the persistent artifact cache (:mod:`repro.cache`)
keyed by the canonicalized program instance, so repeated
pipeline/verify/experiment runs skip re-analysis entirely.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.cache import (
    Uncacheable,
    analysis_key,
    analysis_result_from_payload,
    analysis_result_to_payload,
    resolve_cache,
    system_key,
)
from repro.depanalysis.banerjee import banerjee_test
from repro.depanalysis.diophantine import (
    bounded_lattice_points,
    lattice_intervals,
)
from repro.depanalysis.exact import analyze_exact
from repro.depanalysis.gcdtest import gcd_test
from repro.depanalysis.pairs import AnalysisResult, DependenceInstance
from repro.ir.program import LoopNest
from repro.structures.conditions import And, Condition, Eq, Ne, Not, Or, _False, _True
from repro.structures.params import ParamBinding
from repro.util.linalg import solve_integer_system

__all__ = [
    "AnalysisConfig",
    "analyze_enumerate_batched",
    "analyze_exact_batched",
    "box_lattice",
    "condition_mask",
    "resolve_backend",
    "run_analysis",
]

#: int64 safety margin: all intermediate products must stay below this.
_INT64_SAFE = 1 << 62
#: densest candidate grid the exact verifier will materialize.
_GRID_CAP = 1 << 20
#: largest iteration-space block the batched enumerator will materialize.
_POINTS_CAP = 1 << 23


@dataclass(frozen=True)
class AnalysisConfig:
    """How :func:`run_analysis` uses the persistent artifact cache.

    ``cache=None`` enables the cache iff ``cache_dir`` is given or
    ``$REPRO_CACHE_DIR`` is set; ``True``/``False`` force it.
    """

    cache: bool | None = None
    cache_dir: str | os.PathLike | None = None


def resolve_backend(name: str | None = None) -> str:
    """The analysis engine's name, ``"batched"``, as runs record it.

    There is one engine; it picks the scalar reference by itself outside
    its domain (counted as ``depanalysis.fallback``), so ``None`` and
    ``"batched"`` are the only accepted requests.
    """
    if name not in (None, "batched"):
        raise ValueError(f"unknown analysis backend {name!r}")
    return "batched"


# ---------------------------------------------------------------------------
# Shared vector helpers
# ---------------------------------------------------------------------------

def box_lattice(bounds):
    """All points of an integer box as an ``(N, n)`` int64 array, in the
    lexicographic order of ``itertools.product`` (``meshgrid`` with
    ``indexing="ij"``)."""
    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in bounds]
    grids = np.meshgrid(*axes, indexing="ij")
    return np.stack([g.reshape(-1) for g in grids], axis=1)


def condition_mask(cond: Condition, pts, binding: ParamBinding):
    """Evaluate a condition over an ``(N, n)`` point block as a bool mask.

    The intensional algebra (``Eq``/``Ne``/``And``/``Or``/``Not`` and the
    constants) vectorizes directly; any other condition type (including
    extensional :class:`PointSet`\\ s) falls back to per-point ``holds``.
    """
    n_pts = len(pts)
    if isinstance(cond, _True):
        return np.ones(n_pts, dtype=bool)
    if isinstance(cond, _False):
        return np.zeros(n_pts, dtype=bool)
    if isinstance(cond, Eq):
        return pts[:, cond.axis] == cond.value.evaluate(binding)
    if isinstance(cond, Ne):
        return pts[:, cond.axis] != cond.value.evaluate(binding)
    if isinstance(cond, And):
        mask = np.ones(n_pts, dtype=bool)
        for term in cond.terms:
            mask &= condition_mask(term, pts, binding)
        return mask
    if isinstance(cond, Or):
        mask = np.zeros(n_pts, dtype=bool)
        for term in cond.terms:
            mask |= condition_mask(term, pts, binding)
        return mask
    if isinstance(cond, Not):
        return ~condition_mask(cond.term, pts, binding)
    return np.fromiter(
        (
            cond.holds(tuple(int(x) for x in row), binding)
            for row in pts
        ),
        dtype=bool,
        count=n_pts,
    )


def _lex_positive_mask(vecs):
    """Vectorized sign of the first nonzero component (True = lex-positive)."""
    pos = np.zeros(len(vecs), dtype=bool)
    decided = np.zeros(len(vecs), dtype=bool)
    for col in range(vecs.shape[1]):
        c = vecs[:, col]
        pos |= ~decided & (c > 0)
        decided |= c != 0
    return pos


class _Int64Overflow(Exception):
    """Internal signal: the batched path cannot stay within int64."""


def _check_magnitude(*values) -> None:
    for v in values:
        if abs(int(v)) >= _INT64_SAFE:
            raise _Int64Overflow


# ---------------------------------------------------------------------------
# Batched exact analysis
# ---------------------------------------------------------------------------

def _collect_pairs(program: LoopNest):
    """Reference pairs in the scalar analyzer's loop order."""
    pairs = []
    for w_stmt in program.statements:
        write = w_stmt.write
        for r_stmt in program.statements:
            for read in r_stmt.reads:
                if read.array != write.array:
                    continue
                pairs.append((w_stmt, write, r_stmt, read))
    return pairs


def _batched_screens(pairs, order, binding, box, stats):
    """Vectorized GCD + Banerjee screening over all pairs at once.

    Returns the list of surviving pair indices, or ``None`` when int64
    could overflow (the caller then screens pair-by-pair with the scalar
    tests).  Raises the same ``ValueError`` as :func:`gcd_test` on a
    rank-mismatched pair, at the first such pair in scalar loop order.
    """
    n_pairs = len(pairs)
    coeff_rows: list[list[int]] = []
    rhs_list: list[int] = []
    row_pair: list[int] = []
    for pi, (_w_stmt, write, _r_stmt, read) in enumerate(pairs):
        if write.rank != read.rank:
            raise ValueError(
                f"rank mismatch on array {write.array}: "
                f"{write.rank} vs {read.rank}"
            )
        for w_e, r_e in zip(write.subscripts, read.subscripts):
            coeff_rows.append(
                w_e.coeff_vector(order) + [-c for c in r_e.coeff_vector(order)]
            )
            rhs_list.append(
                r_e.offset.evaluate(binding) - w_e.offset.evaluate(binding)
            )
            row_pair.append(pi)
    if not coeff_rows:
        return list(range(n_pairs))

    max_c = max(max(abs(c) for c in row) for row in coeff_rows)
    max_b = max(max(abs(lo), abs(hi)) for lo, hi in box) if box else 0
    max_rhs = max(abs(r) for r in rhs_list)
    try:
        _check_magnitude(len(box) * max_c * max_b + max_rhs)
    except _Int64Overflow:
        return None

    C = np.asarray(coeff_rows, dtype=np.int64)
    rhs = np.asarray(rhs_list, dtype=np.int64)
    pair_idx = np.asarray(row_pair, dtype=np.intp)

    # GCD: each row needs gcd(|coeffs|) | rhs (zero gcd: rhs must be 0).
    g = np.gcd.reduce(np.abs(C), axis=1)
    zero_g = g == 0
    row_fail_gcd = np.where(zero_g, rhs != 0, rhs % np.where(zero_g, 1, g) != 0)

    # Banerjee: rhs must lie within the affine range of the row over the box.
    b_lo = np.asarray([lo for lo, _ in box], dtype=np.int64)
    b_hi = np.asarray([hi for _, hi in box], dtype=np.int64)
    pos = np.where(C > 0, C, 0)
    neg = np.where(C < 0, C, 0)
    lo = pos @ b_lo + neg @ b_hi
    hi = pos @ b_hi + neg @ b_lo
    # banerjee_test's const is w_off - r_off = -rhs.
    row_ok_ban = (lo - rhs <= 0) & (0 <= hi - rhs)

    gcd_ok = np.ones(n_pairs, dtype=bool)
    np.logical_and.at(gcd_ok, pair_idx, ~row_fail_gcd)
    ban_ok = np.ones(n_pairs, dtype=bool)
    np.logical_and.at(ban_ok, pair_idx, row_ok_ban)

    stats["gcd_pruned"] += int(np.count_nonzero(~gcd_ok))
    stats["banerjee_pruned"] += int(np.count_nonzero(gcd_ok & ~ban_ok))
    return [int(i) for i in np.nonzero(gcd_ok & ban_ok)[0]]


def _candidate_block(particular, basis, box):
    """All lattice points ``particular + B t̄`` inside the box, as tuples.

    Equivalent to ``list(bounded_lattice_points(...))`` up to ordering
    (the basis is linearly independent, so ``t̄ -> x`` is injective and
    both enumerate exactly the in-box solutions); materializes the
    ``t̄`` interval box as a dense grid and maps it through one matmul.
    Falls back to the recursive enumerator for oversized or overflowing
    grids (counted as ``depanalysis.fallback``).
    """
    n = len(particular)
    if len(box) != n:
        # Mirror bounded_lattice_points: a degenerate system (e.g. a rank-0
        # access pair) must fail identically on engine and reference.
        raise ValueError("bounds length must match solution dimension")
    if not basis:
        ok = all(lo <= x <= hi for x, (lo, hi) in zip(particular, box))
        return [tuple(int(x) for x in particular)] if ok else []
    intervals = lattice_intervals(particular, basis, box)
    if intervals is None:
        return []
    total = 1
    for lo, hi in intervals:
        total *= hi - lo + 1
    if total <= 0:
        return []
    max_t = max(max(abs(lo), abs(hi)) for lo, hi in intervals)
    max_basis = max(max(abs(int(x)) for x in vec) for vec in basis)
    max_part = max(abs(int(x)) for x in particular)
    try:
        _check_magnitude(len(basis) * max_t * max_basis + max_part)
        fits = total <= _GRID_CAP
    except _Int64Overflow:
        fits = False
    if not fits:
        obs.count("depanalysis.fallback")
        return [tuple(x) for x in bounded_lattice_points(particular, basis, box)]

    axes = [np.arange(lo, hi + 1, dtype=np.int64) for lo, hi in intervals]
    grids = np.meshgrid(*axes, indexing="ij")
    T = np.stack([g.reshape(-1) for g in grids], axis=1)
    B = np.asarray([[int(vec[i]) for i in range(n)] for vec in basis],
                   dtype=np.int64)
    X = np.asarray([int(x) for x in particular], dtype=np.int64) + T @ B
    b_lo = np.asarray([lo for lo, _ in box], dtype=np.int64)
    b_hi = np.asarray([hi for _, hi in box], dtype=np.int64)
    inside = np.all((X >= b_lo) & (X <= b_hi), axis=1)
    return [tuple(int(v) for v in row) for row in X[inside]]


def analyze_exact_batched(
    program: LoopNest,
    binding: ParamBinding,
    use_screens: bool = True,
) -> AnalysisResult:
    """Batched re-implementation of :func:`analyze_exact`.

    Produces a bit-identical :class:`AnalysisResult` (instances and
    ``stats``); see the module docstring for the batching strategy.

    Pairs whose subscript systems have the same ``(system HNF, candidate
    box)`` share one solve.  Memo hits change only wall-clock (and the
    ``depanalysis.system_memo_hits`` obs counter), never the result or
    its ``stats`` dict.
    """
    order = program.index_names
    n = program.dim
    bounds = program.index_set.bounds(binding)
    box = bounds + bounds  # unknowns: (source j̄', sink j̄)
    if box and max(max(abs(lo), abs(hi)) for lo, hi in box) >= _INT64_SAFE:
        obs.count("depanalysis.fallback")
        return analyze_exact(program, binding, use_screens=use_screens)

    stats = {
        "pairs_tested": 0,
        "gcd_pruned": 0,
        "banerjee_pruned": 0,
        "systems_solved": 0,
        "no_integer_solution": 0,
        "candidates_verified": 0,
        "instances": 0,
    }
    instances: set[DependenceInstance] = set()
    reg = obs.get_registry()

    with obs.span(
        "depanalysis.analyze_exact",
        statements=len(program.statements),
        backend="batched",
    ):
        pairs = _collect_pairs(program)
        stats["pairs_tested"] = len(pairs)
        obs.count("depanalysis.pairs_batch_screened", len(pairs))

        if use_screens:
            survivor_idx = _batched_screens(pairs, order, binding, box, stats)
            if survivor_idx is None:
                # int64-unsafe widths: screen pair-by-pair (same counters).
                obs.count("depanalysis.fallback")
                survivor_idx = []
                for pi, (_w, write, _r, read) in enumerate(pairs):
                    if not gcd_test(write, read, order, binding):
                        stats["gcd_pruned"] += 1
                        continue
                    if not banerjee_test(
                        write, read, order, program.index_set, binding
                    ):
                        stats["banerjee_pruned"] += 1
                        continue
                    survivor_idx.append(pi)
        else:
            survivor_idx = list(range(len(pairs)))

        memo: dict = {}
        box_key = tuple(box)
        progress = obs.progress(
            "depanalysis.candidate_blocks", total=len(survivor_idx)
        )
        for pi in survivor_idx:
            progress.advance()
            w_stmt, write, r_stmt, read = pairs[pi]
            a_rows: list[list[int]] = []
            rhs: list[int] = []
            for w_e, r_e in zip(write.subscripts, read.subscripts):
                a_rows.append(
                    w_e.coeff_vector(order)
                    + [-c for c in r_e.coeff_vector(order)]
                )
                rhs.append(
                    r_e.offset.evaluate(binding) - w_e.offset.evaluate(binding)
                )
            stats["systems_solved"] += 1
            memo_key = (system_key(a_rows, rhs), box_key)
            if memo_key in memo:
                candidates = memo[memo_key]
                obs.count("depanalysis.system_memo_hits")
            else:
                sol = solve_integer_system(a_rows, rhs)
                candidates = (
                    None if sol is None else _candidate_block(sol[0], sol[1], box)
                )
                memo[memo_key] = candidates
            if candidates is None:
                stats["no_integer_solution"] += 1
                continue
            stats["candidates_verified"] += len(candidates)
            if not candidates:
                continue

            Z = np.asarray(candidates, dtype=np.int64)
            src = Z[:, :n]
            snk = Z[:, n:]
            keep = np.any(src != snk, axis=1)
            keep &= condition_mask(w_stmt.guard, src, binding)
            keep &= condition_mask(r_stmt.guard, snk, binding)
            if not keep.any():
                continue
            src_k = src[keep]
            snk_k = snk[keep]
            vecs = snk_k - src_k
            lex_pos = _lex_positive_mask(vecs)
            for i in range(len(vecs)):
                instances.add(
                    DependenceInstance(
                        snk_k[i],
                        vecs[i],
                        write.array,
                        "flow" if lex_pos[i] else "reversed",
                    )
                )
        progress.close()
    stats["instances"] = len(instances)
    if reg is not None:
        reg.count_many(stats, prefix="depanalysis.")
    return AnalysisResult(sorted(instances, key=lambda i: i.key()), stats)


# ---------------------------------------------------------------------------
# Batched enumeration (hash-join oracle)
# ---------------------------------------------------------------------------

def _access_coords(access, order, binding, pts):
    """Subscript coordinates of an access over a point block: ``(M, rank)``."""
    rank = access.rank
    if rank == 0:
        return np.zeros((len(pts), 0), dtype=np.int64)
    coeffs = [e.coeff_vector(order) for e in access.subscripts]
    offsets = [e.offset.evaluate(binding) for e in access.subscripts]
    if pts.size:
        max_b = int(np.abs(pts).max())
    else:
        max_b = 0
    max_c = max((abs(c) for row in coeffs for c in row), default=0)
    _check_magnitude(
        len(order) * max_c * max_b + max((abs(o) for o in offsets), default=0)
    )
    C = np.asarray(coeffs, dtype=np.int64)
    off = np.asarray(offsets, dtype=np.int64)
    return pts @ C.T + off


def _encode_codes(shifted, radices):
    """Mixed-radix encode non-negative coordinate columns into one int64."""
    codes = np.zeros(len(shifted), dtype=np.int64)
    for j, radix in enumerate(radices):
        codes = codes * int(radix) + shifted[:, j]
    return codes


def analyze_enumerate_batched(
    program: LoopNest, binding: ParamBinding
) -> AnalysisResult:
    """Batched re-implementation of
    :func:`repro.depanalysis.analyzer.analyze_enumerate` (bit-identical
    results and stats).

    The iteration space becomes one lex-ordered lattice block; writer
    elements are mixed-radix-encoded into sorted int64 tables and reads
    join by ``searchsorted``.  Falls back to the scalar oracle (counted
    as ``depanalysis.fallback``) when the block would be too large or
    int64 could overflow.
    """
    from repro.depanalysis.analyzer import analyze_enumerate

    n = program.dim
    bounds = program.index_set.bounds(binding)
    size = program.index_set.size(binding)
    if (
        n == 0
        or size > _POINTS_CAP
        or (bounds and max(max(abs(lo), abs(hi)) for lo, hi in bounds)
            >= _INT64_SAFE)
    ):
        obs.count("depanalysis.fallback")
        return analyze_enumerate(program, binding)

    order = program.index_names
    stats = {"points_visited": 0, "reads_joined": 0, "instances": 0}
    instances: set[DependenceInstance] = set()

    try:
        with obs.span("depanalysis.analyze_enumerate", backend="batched"):
            pts = box_lattice(bounds)
            stats["points_visited"] = len(pts)
            obs.count("depanalysis.points_batch_visited", len(pts))

            active = [
                condition_mask(stmt.guard, pts, binding)
                for stmt in program.statements
            ]

            # Pass 1: writer tables per (array, rank) group.
            groups: dict[tuple[str, int], list] = {}
            for si, stmt in enumerate(program.statements):
                mask = active[si]
                if not mask.any():
                    continue
                sub = pts[mask]
                coords = _access_coords(stmt.write, order, binding, sub)
                groups.setdefault(
                    (stmt.write.array, stmt.write.rank), []
                ).append((sub, coords))

            tables: dict[tuple[str, int], tuple] = {}
            for key, entries in groups.items():
                all_pts = np.concatenate([sub for sub, _ in entries], axis=0)
                all_coords = np.concatenate([c for _, c in entries], axis=0)
                rank = key[1]
                if rank == 0:
                    mins = np.zeros(0, dtype=np.int64)
                    radices: list[int] = []
                    codes = np.zeros(len(all_coords), dtype=np.int64)
                else:
                    mins = all_coords.min(axis=0)
                    maxs = all_coords.max(axis=0)
                    radices = [int(hi - lo + 1) for lo, hi in zip(mins, maxs)]
                    product = 1
                    for r in radices:
                        product *= r
                    _check_magnitude(product)
                    codes = _encode_codes(all_coords - mins, radices)
                sort_idx = np.argsort(codes, kind="stable")
                s_codes = codes[sort_idx]
                s_pts = all_pts[sort_idx]
                if len(s_codes) > 1:
                    dup = s_codes[1:] == s_codes[:-1]
                    conflict = dup & np.any(s_pts[1:] != s_pts[:-1], axis=1)
                    if conflict.any():
                        i = int(np.nonzero(conflict)[0][0])
                        coords_i = all_coords[sort_idx][i + 1]
                        elem = (key[0], tuple(int(x) for x in coords_i))
                        prev = tuple(int(x) for x in s_pts[i])
                        point = tuple(int(x) for x in s_pts[i + 1])
                        raise ValueError(
                            f"program is not single-assignment: {elem} "
                            f"written at both {prev} and {point}"
                        )
                uniq_codes, first_idx = np.unique(s_codes, return_index=True)
                tables[key] = (mins, radices, uniq_codes, s_pts[first_idx])

            # Pass 2: join every guarded read against the writer tables.
            for si, stmt in enumerate(program.statements):
                mask = active[si]
                n_active = int(np.count_nonzero(mask))
                sub = pts[mask]
                for acc in stmt.reads:
                    stats["reads_joined"] += n_active
                    if n_active == 0:
                        continue
                    table = tables.get((acc.array, acc.rank))
                    if table is None:
                        continue
                    mins, radices, uniq_codes, rep_pts = table
                    coords = _access_coords(acc, order, binding, sub)
                    if acc.rank == 0:
                        in_range = np.ones(len(sub), dtype=bool)
                        codes = np.zeros(len(sub), dtype=np.int64)
                    else:
                        shifted = coords - mins
                        in_range = np.all(
                            (shifted >= 0)
                            & (shifted < np.asarray(radices, dtype=np.int64)),
                            axis=1,
                        )
                        codes = _encode_codes(
                            np.where(in_range[:, None], shifted, 0), radices
                        )
                    pos = np.searchsorted(uniq_codes, codes)
                    pos = np.minimum(pos, len(uniq_codes) - 1)
                    found = in_range & (uniq_codes[pos] == codes)
                    src = rep_pts[pos]
                    found &= ~np.all(src == sub, axis=1)
                    if not found.any():
                        continue
                    snk_k = sub[found]
                    vecs = snk_k - src[found]
                    lex_pos = _lex_positive_mask(vecs)
                    for i in range(len(vecs)):
                        instances.add(
                            DependenceInstance(
                                snk_k[i],
                                vecs[i],
                                acc.array,
                                "flow" if lex_pos[i] else "reversed",
                            )
                        )
    except _Int64Overflow:
        obs.count("depanalysis.fallback")
        return analyze_enumerate(program, binding)
    stats["instances"] = len(instances)
    obs.count_many(stats, prefix="depanalysis.")
    return AnalysisResult(sorted(instances, key=lambda i: i.key()), stats)


# ---------------------------------------------------------------------------
# Engine entry point
# ---------------------------------------------------------------------------

def run_analysis(
    program: LoopNest,
    binding: ParamBinding,
    method: str = "exact",
    use_screens: bool = True,
    config: AnalysisConfig | None = None,
) -> AnalysisResult:
    """Analyze through the batched engine and the persistent cache.

    The cache key covers the canonicalized program instance, method, and
    screen setting.  The ``analysis.engine_calls`` obs counter increments
    iff the analysis is actually computed (not answered from the cache);
    it is the counter the ``repro.serve`` coalescing guarantee is stated
    in.
    """
    if method not in ("exact", "enumerate"):
        raise ValueError(f"unknown analysis method {method!r}")
    if config is None:
        config = AnalysisConfig()
    store = resolve_cache(config.cache, config.cache_dir)
    key = None
    if store is not None:
        try:
            key = analysis_key(program, binding, method, use_screens)
        except Uncacheable:
            key = None
    try:
        if key is not None:
            payload = store.get("analysis", key)
            if payload is not None:
                try:
                    return analysis_result_from_payload(payload)
                except (KeyError, TypeError, ValueError):
                    pass  # malformed entry: recompute (and overwrite)
        obs.count("analysis.engine_calls")
        if method == "exact":
            result = analyze_exact_batched(
                program, binding, use_screens=use_screens
            )
        else:
            result = analyze_enumerate_batched(program, binding)
        if key is not None:
            store.put("analysis", key, analysis_result_to_payload(result))
        return result
    finally:
        if store is not None:
            store.flush_stats()
