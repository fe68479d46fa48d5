"""Regenerate the expected results the benchmark's checks compare against.

    python3 perfbench/make_expected.py

``expected/search.json`` holds, for every instance the ``search`` pool can
draw, the designs found by the reference ``catalog`` strategy (the
benchmark itself runs the default strategy).  ``expected/cli.json`` holds
the verdicts of the ``cli`` command pool: dependence-instance counts on
which the concrete and the symbolic analyzer must agree, and the ranked
designs of ``repro search`` with its default flags, again from the
``catalog`` strategy.  Run it only when the program's intended output
changes; every entry is also checked by :mod:`perfbench.oracles` here.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import oracles  # noqa: E402
from perfbench.workloads import EXPECTED_DIR, search_instances, search_key  # noqa: E402


def _catalog_search(u, p, expansion, primitives, dim, frontier, block,
                    **config):
    from repro import matmul_bit_level
    from repro.mapping import SearchConfig, designs, search_designs
    from repro.mapping.interconnect import mesh_primitives

    prims = {
        "fig4": lambda: designs.fig4_primitives(p),
        "fig5": designs.fig5_primitives,
        "mesh": lambda: mesh_primitives(dim),
    }[primitives]()
    found = search_designs(
        matmul_bit_level(u, p, expansion), {"u": u, "p": p}, prims,
        SearchConfig(target_space_dim=dim, block_values=block,
                     frontier=frontier, strategy="catalog", **config),
    )
    out = [{"rows": [list(r) for r in c.mapping.rows], "time": c.time,
            "processors": c.processors} for c in found]
    for design in out:
        reason = oracles.check_design(design, u, p)
        if reason:
            raise SystemExit(f"reference design fails its check: {reason}")
    return out


def _analysis_count(u, p):
    from repro import analyze
    from repro.ir.expand import expand_bit_level
    from repro.structures.params import S
    from repro.symbolic import analyze_symbolic

    h = ([0, 1, 0], [1, 0, 0], [0, 0, 1])
    concrete = analyze(expand_bit_level(*h, [1] * 3, [u] * 3, p, "II"), {"p": p})
    free = expand_bit_level(*h, [1] * 3, [S("u")] * 3, S("p"), "II")
    summary = analyze_symbolic(free, cache=False).summary({"u": u, "p": p})
    vectors = concrete.distinct_vectors()
    if (summary["instances"] != len(concrete.instances)
            or [tuple(v) for v in summary["distinct_vectors"]] != [tuple(v) for v in vectors]):
        raise SystemExit(f"concrete and symbolic analysis disagree at u={u} p={p}")
    return {"instances": len(concrete.instances), "vectors": len(vectors)}


def main() -> int:
    EXPECTED_DIR.mkdir(exist_ok=True)
    results = {search_key(*inst): _catalog_search(*inst)
               for inst in search_instances()}
    _write(EXPECTED_DIR / "search.json", {"strategy": "catalog", "results": results})
    cli = {
        "analyze": {f"u{u}-p{p}-II": _analysis_count(u, p)
                    for u, p in ((2, 3), (3, 2))},
        # the CLI defaults of `repro search`
        "search": {"u2-p2-II": _catalog_search(2, 2, "II", "fig4", 2, None,
                                               (2,), max_candidates=5)},
    }
    _write(EXPECTED_DIR / "cli.json", cli)
    return 0


def _write(path, doc: dict) -> None:
    """JSON with one line per entry of each top-level mapping."""
    lines = []
    for key, value in sorted(doc.items()):
        if isinstance(value, dict):
            inner = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}"
                               for k, v in sorted(value.items()))
            lines.append(f" {json.dumps(key)}: {{\n{inner}\n }}")
        else:
            lines.append(f" {json.dumps(key)}: {json.dumps(value)}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")


if __name__ == "__main__":
    sys.exit(main())
