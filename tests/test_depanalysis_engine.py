"""Tests for the vectorized dependence-analysis engine.

The engine's contract is bit-identical equivalence with the scalar
reference analyzers (:func:`repro.depanalysis.exact.analyze_exact`,
:func:`repro.depanalysis.analyzer.analyze_enumerate`): the same ordered
instance list and the same statistics counters, for both the exact
(Diophantine) and enumerate (hash-join) methods, with and without
screening.  These tests pin that contract -- inside the engine's int64 and
size domain and across its edges, where it hands the request to the
reference and counts ``depanalysis.fallback`` -- plus the numpy-level
helpers.
"""

import pytest

from repro import obs
from repro.depanalysis import AnalysisConfig, analyze
from repro.depanalysis import engine
from repro.depanalysis.engine import (
    analyze_enumerate_batched,
    analyze_exact_batched,
    resolve_backend,
)
from repro.ir import builders
from repro.ir.expand import expand_bit_level
from repro.ir.expr import var
from repro.ir.program import ArrayAccess, LoopNest, Statement
from repro.structures.indexset import IndexSet
from repro.verify.oracle_analysis import reference_analysis

NO_CACHE = AnalysisConfig(cache=False)


def _assert_identical(a, b):
    assert [i.key() for i in a.instances] == [i.key() for i in b.instances]
    assert a.stats == b.stats


def _check_against_reference(prog, binding, method, use_screens=True):
    _assert_identical(
        reference_analysis(prog, binding, method, use_screens),
        analyze(prog, binding, method, use_screens=use_screens,
                config=NO_CACHE),
    )


PROGRAMS = [
    (builders.matmul_pipelined(3), {"u": 3}),
    (builders.addshift_pipelined(4), {"p": 4}),
    (builders.model_1d(2, 1, 3, upper=7), {}),
    (builders.word_model([1, 0], [1, -1], [0, 1], [1, 1], [4, 3]), {}),
    (expand_bit_level([1], [1], [1], [1], [3], 2, "II"), {}),
    (expand_bit_level([0, 1], [1, 0], [1, 1], [1, 1], [3, 2], 3, "I"), {}),
    # the bit-level matmul instance `repro analyze --u 3 --p 3` runs
    (expand_bit_level([0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1],
                      [3, 3, 3], 3, "II"), {"p": 3}),
]


class TestBackendEquivalence:
    """analyze() (the batched engine) vs the scalar reference."""

    @pytest.mark.parametrize("prog,binding", PROGRAMS)
    def test_exact_screens_on(self, prog, binding):
        _check_against_reference(prog, binding, "exact")

    @pytest.mark.parametrize("prog,binding", PROGRAMS)
    def test_exact_screens_off(self, prog, binding):
        _check_against_reference(prog, binding, "exact", use_screens=False)

    @pytest.mark.parametrize("prog,binding", PROGRAMS)
    def test_enumerate(self, prog, binding):
        _check_against_reference(prog, binding, "enumerate")

    def test_guarded_program(self):
        # Bit-level expansion guards statements with Eq/Or conditions; the
        # batched mask path must replicate guard filtering exactly.
        prog = expand_bit_level([0, 1, 0], [1, 0, 0], [0, 0, 1],
                                [1, 1, 1], [2, 2, 2], 2, "II")
        for method in ("exact", "enumerate"):
            _check_against_reference(prog, {"p": 2}, method)

    def test_reversed_dependences(self):
        j = var("j")
        prog = LoopNest(
            ("j",),
            IndexSet([1], [4], ("j",)),
            [Statement("S", ArrayAccess("x", [j]),
                       [ArrayAccess("x", [j + 1])])],
        )
        res = analyze(prog, {}, "enumerate", config=NO_CACHE)
        assert res.instances and all(
            i.kind == "reversed" for i in res.instances
        )
        _assert_identical(res, reference_analysis(prog, {}, "enumerate"))

    def test_non_single_assignment_detected_batched(self):
        j = var("j")
        prog = LoopNest(
            ("j",),
            IndexSet([1], [3], ("j",)),
            [Statement("S", ArrayAccess("z", [j - j]))],
        )
        with pytest.raises(ValueError, match="single-assignment"):
            analyze_enumerate_batched(prog, {})

    def test_rank_mismatch_raises_like_scalar(self):
        j = var("j")
        prog = LoopNest(
            ("j",),
            IndexSet([1], [3], ("j",)),
            [Statement("S", ArrayAccess("x", [j]),
                       [ArrayAccess("x", [j, j])])],
        )
        with pytest.raises(ValueError, match="rank mismatch"):
            analyze(prog, {}, "exact", config=NO_CACHE)
        with pytest.raises(ValueError, match="rank mismatch"):
            reference_analysis(prog, {}, "exact")


def _chain(lower: int, upper: int) -> LoopNest:
    """``x[j] = f(x[j - 1])`` over ``lower <= j <= upper``: one flow
    dependence per point after the first."""
    j = var("j")
    return LoopNest(
        ("j",),
        IndexSet([lower], [upper], ("j",)),
        [Statement("S", ArrayAccess("x", [j]), [ArrayAccess("x", [j - 1])])],
    )


def _fallbacks(prog, method, use_screens=True):
    """The engine's result and its ``depanalysis.fallback`` count."""
    with obs.collecting() as reg:
        result = analyze(prog, {}, method, use_screens=use_screens,
                         config=NO_CACHE)
    return result, dict(reg.counters).get("depanalysis.fallback", 0)


class TestDomainFallback:
    """Four-point loop nests at the edge of the engine's int64 domain.

    The exact method's binding guard is the screens bound
    ``2 * max|bound| + |rhs| < 2**62`` (two unknowns, unit coefficients);
    the box bound ``_INT64_SAFE = 2**62`` sends the whole request to the
    reference.  The enumerate method's guards are the box bound and the
    subscript bound ``max|bound| + |offset| < 2**62``.
    """

    @pytest.mark.parametrize("method,lower", [
        ("exact", 2**61 - 2),     # screens bound crossed
        ("exact", 2**62 - 2),     # box bound crossed
        ("enumerate", 2**62 - 2),  # box bound crossed
        # past int64 itself: without the guards the engine would raise
        # or return wrong instances here
        ("exact", 2**63 - 2),
        ("enumerate", 2**63 - 2),
    ])
    def test_crossing_the_int64_guard_falls_back(self, method, lower):
        prog = _chain(lower, lower + 3)
        result, fallbacks = _fallbacks(prog, method)
        _assert_identical(result, reference_analysis(prog, {}, method))
        assert result.stats["instances"] == 3
        assert fallbacks >= 1

    @pytest.mark.parametrize("method,lower", [
        ("exact", 2**61 - 4),
        ("enumerate", 2**62 - 5),
    ])
    def test_just_inside_the_int64_guard_stays_batched(self, method, lower):
        prog = _chain(lower, lower + 3)
        result, fallbacks = _fallbacks(prog, method)
        _assert_identical(result, reference_analysis(prog, {}, method))
        assert result.stats["instances"] == 3
        assert fallbacks == 0

    def test_grid_cap_falls_back(self, monkeypatch):
        prog, binding = PROGRAMS[0]
        monkeypatch.setattr(engine, "_GRID_CAP", 0)
        with obs.collecting() as reg:
            result = analyze(prog, binding, "exact", config=NO_CACHE)
        _assert_identical(result, reference_analysis(prog, binding, "exact"))
        assert dict(reg.counters).get("depanalysis.fallback", 0) >= 1

    def test_points_cap_falls_back(self, monkeypatch):
        prog, binding = PROGRAMS[0]
        monkeypatch.setattr(engine, "_POINTS_CAP", 0)
        with obs.collecting() as reg:
            result = analyze(prog, binding, "enumerate", config=NO_CACHE)
        _assert_identical(result,
                          reference_analysis(prog, binding, "enumerate"))
        assert dict(reg.counters).get("depanalysis.fallback") == 1


class TestBackendResolution:
    def test_explicit_names(self):
        assert resolve_backend("batched") == "batched"
        with pytest.raises(ValueError):
            resolve_backend("scalar")

    def test_default_is_batched(self):
        assert resolve_backend() == resolve_backend(None) == "batched"

    def test_unknown_backend(self):
        with pytest.raises(ValueError):
            resolve_backend("gpu")

    def test_unknown_method(self):
        with pytest.raises(ValueError):
            analyze(builders.model_1d(upper=3), {}, "magic", config=NO_CACHE)


class TestNumpyHelpers:
    def test_box_lattice_matches_product_order(self):
        import itertools

        from repro.depanalysis.engine import box_lattice

        bounds = [(1, 3), (-1, 1), (2, 2)]
        pts = box_lattice(bounds)
        expected = list(itertools.product(*[range(lo, hi + 1)
                                            for lo, hi in bounds]))
        assert [tuple(int(x) for x in row) for row in pts] == expected

    def test_condition_mask_matches_holds(self):
        from repro.depanalysis.engine import box_lattice, condition_mask
        from repro.structures.conditions import And, Eq, Ne, Not, Or

        cond = Or(And(Eq(0, 1), Ne(1, 2)), Not(Eq(2, 3)))
        bounds = [(1, 3)] * 3
        pts = box_lattice(bounds)
        mask = condition_mask(cond, pts, {})
        for row, ok in zip(pts, mask):
            point = tuple(int(x) for x in row)
            assert bool(ok) == cond.holds(point, {})

    def test_direct_batched_calls(self):
        prog = builders.matmul_pipelined(3)
        exact = analyze_exact_batched(prog, {"u": 3})
        enum = analyze_enumerate_batched(prog, {"u": 3})
        assert set(exact.instances) == set(enum.instances)


class TestObsCounters:
    def test_batched_counters_emitted(self):
        prog = builders.matmul_pipelined(3)
        with obs.collecting() as reg:
            analyze(prog, {"u": 3}, "exact", config=NO_CACHE)
        counters = dict(reg.counters)
        assert counters.get("depanalysis.pairs_batch_screened", 0) > 0
        assert counters.get("depanalysis.pairs_tested", 0) > 0
        assert "depanalysis.fallback" not in counters

    def test_scalar_counters_match_stats(self):
        prog = builders.matmul_pipelined(2)
        with obs.collecting() as reg:
            res = reference_analysis(prog, {"u": 2}, "exact")
        counters = dict(reg.counters)
        for key, value in res.stats.items():
            assert counters.get(f"depanalysis.{key}") == value
