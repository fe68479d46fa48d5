"""E10 (extension) -- design-space search re-derives (and varies) Fig. 4.

Runs the joint ``(S, Π)`` synthesis of the paper's references [5, 6, 10]
on the bit-level matmul structure and reports what it finds relative to the
paper's hand-crafted design: the search reaches Fig. 4's optimal time, and
at small sizes also finds same-time designs using fewer processors (space
maps the paper does not discuss).
"""

from __future__ import annotations

from repro.expansion.theorem31 import matmul_bit_level
from repro.experiments.tables import format_table
from repro.mapping import designs
from repro.mapping.engine import SearchConfig, run_search

__all__ = ["run", "report"]


def run(u: int = 2, p: int = 2, max_candidates: int = 5) -> dict:
    """Search and compare against the Fig. 4 reference point."""
    alg = matmul_bit_level(u, p, "II")
    config = SearchConfig(
        target_space_dim=2,
        block_values=[p],
        schedule_bound=2,
        max_candidates=max_candidates,
    )
    candidates = run_search(alg, {"u": u, "p": p},
                            designs.fig4_primitives(p), config)
    t_ref = designs.t_fig4(u, p)
    pe_ref = designs.fig4_processor_count(u, p)
    rows = [
        (i + 1, c.time, c.processors,
         "; ".join(str(list(r)) for r in c.mapping.rows))
        for i, c in enumerate(candidates)
    ]
    ok = bool(candidates) and candidates[0].time <= t_ref
    return {
        "rows": rows,
        "u": u,
        "p": p,
        "t_ref": t_ref,
        "pe_ref": pe_ref,
        "found_fewer_pes": any(
            c.time == t_ref and c.processors < pe_ref for c in candidates
        ),
        "ok": ok,
    }


def report(data: dict | None = None) -> str:
    """Render the E10 table."""
    data = data or run()
    table = format_table(
        ["rank", "time", "PEs", "T = [S; Π]"],
        data["rows"],
        title=(
            f"E10 (extension): design-space search, bit-level matmul "
            f"(u={data['u']}, p={data['p']}); Fig. 4 reference: "
            f"t={data['t_ref']}, PEs={data['pe_ref']}"
        ),
    )
    lines = [table]
    if data["found_fewer_pes"]:
        lines.append(
            "=> the search matches Fig. 4's optimal time with fewer "
            "processors at this size"
        )
    verdict = "SEARCH REACHES THE OPTIMUM" if data["ok"] else "SEARCH FELL SHORT"
    lines.append(f"=> {verdict}")
    return "\n".join(lines)
