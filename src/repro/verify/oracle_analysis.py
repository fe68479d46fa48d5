"""Oracle: the batched dependence-analysis engine vs. the scalar reference.

For one random expanded bit-level program, run :func:`repro.depanalysis.analyze`
(the batched engine) and the scalar reference analyzer for the same method
(:func:`~repro.depanalysis.exact.analyze_exact` or
:func:`~repro.depanalysis.analyzer.analyze_enumerate`), with the persistent
cache disabled, and demand bit-identical results: the same ordered list of
dependence instances *and* the same statistics counters (pairs tested,
screens pruned, systems solved, points visited, ...).  This is the contract
the vectorized engine advertises; any divergence is a bug in one of the two
implementations.
"""

from __future__ import annotations

import random

from repro.verify.generator import AnalysisCase, SizeEnvelope, gen_analysis_case

__all__ = ["NAME", "generate", "check", "reference_analysis"]

NAME = "analysis"


def generate(rng: random.Random, envelope: SizeEnvelope) -> AnalysisCase:
    return gen_analysis_case(rng, envelope)


def reference_analysis(program, binding, method: str = "exact",
                       use_screens: bool = True):
    """The scalar reference analyzer for ``method`` (no engine, no cache)."""
    from repro.depanalysis.analyzer import analyze_enumerate
    from repro.depanalysis.exact import analyze_exact

    if method == "exact":
        return analyze_exact(program, binding, use_screens=use_screens)
    if method == "enumerate":
        return analyze_enumerate(program, binding)
    raise ValueError(f"unknown analysis method {method!r}")


def check(case: AnalysisCase) -> str | None:
    """Return a divergence description, or ``None`` when the engine agrees
    with the reference."""
    from repro.depanalysis.analyzer import analyze
    from repro.depanalysis.engine import AnalysisConfig

    program = case.build_program()
    binding = {"p": case.p}
    scalar = reference_analysis(program, binding, case.method,
                                case.use_screens)
    batched = analyze(program, binding, method=case.method,
                      use_screens=case.use_screens,
                      config=AnalysisConfig(cache=False))
    s_keys = [inst.key() for inst in scalar.instances]
    b_keys = [inst.key() for inst in batched.instances]
    if s_keys != b_keys:
        only_s = sorted(set(s_keys) - set(b_keys))
        only_b = sorted(set(b_keys) - set(s_keys))
        return (
            f"instance divergence ({case.method}): "
            f"{len(s_keys)} scalar vs {len(b_keys)} batched; "
            f"scalar-only (first 3): {only_s[:3]}; "
            f"batched-only (first 3): {only_b[:3]}"
        )
    if scalar.stats != batched.stats:
        diff = {
            k: (scalar.stats.get(k), batched.stats.get(k))
            for k in sorted(set(scalar.stats) | set(batched.stats))
            if scalar.stats.get(k) != batched.stats.get(k)
        }
        return f"stats divergence ({case.method}): scalar vs batched {diff}"
    return None
