"""Tests for the observability substrate (repro.obs)."""

import json

import pytest

from repro import obs
from repro.obs import Histogram, Registry


class TestRegistryScalars:
    def test_counter_accumulates(self):
        reg = Registry()
        reg.count("a")
        reg.count("a", 4)
        reg.count("b", 0)
        assert reg.counters == {"a": 5, "b": 0}

    def test_count_many_with_prefix(self):
        reg = Registry()
        reg.count("layer.x", 1)
        reg.count_many({"x": 2, "y": 3}, prefix="layer.")
        assert reg.counters == {"layer.x": 3, "layer.y": 3}

    def test_gauge_last_wins(self):
        reg = Registry()
        reg.gauge("g", 1.0)
        reg.gauge("g", 7.5)
        assert reg.gauges["g"] == 7.5

    def test_histogram_aggregation(self):
        reg = Registry()
        for v in (2.0, 4.0, 6.0):
            reg.observe("h", v)
        h = reg.histograms["h"]
        assert (h.count, h.total, h.min, h.max, h.mean) == (3, 12.0, 2.0, 6.0, 4.0)

    def test_empty_histogram_mean(self):
        assert Histogram().mean == 0.0


class TestSpans:
    def test_nesting_builds_tree(self):
        reg = Registry()
        with reg.span("outer") as outer:
            with reg.span("inner-1"):
                pass
            with reg.span("inner-2") as inner2:
                with reg.span("leaf"):
                    pass
        assert [s.name for s in reg.roots] == ["outer"]
        assert [c.name for c in outer.children] == ["inner-1", "inner-2"]
        assert [c.name for c in inner2.children] == ["leaf"]
        assert [s.name for s in reg.iter_spans()] == [
            "outer", "inner-1", "inner-2", "leaf",
        ]

    def test_parent_ids_and_durations(self):
        reg = Registry()
        with reg.span("outer") as outer:
            with reg.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        assert 0.0 <= inner.duration <= outer.duration

    def test_span_attrs(self):
        reg = Registry()
        with reg.span("s", u=2, p=3) as sp:
            pass
        assert sp.attrs == {"u": 2, "p": 3}

    def test_current_span(self):
        reg = Registry()
        assert reg.current_span() is None
        with reg.span("s") as sp:
            assert reg.current_span() is sp
        assert reg.current_span() is None

    def test_span_closes_on_exception(self):
        reg = Registry()
        with pytest.raises(RuntimeError):
            with reg.span("boom"):
                raise RuntimeError()
        (root,) = reg.roots
        assert root.end is not None
        assert reg.current_span() is None

    def test_span_stats_aggregates_by_name(self):
        reg = Registry()
        for _ in range(3):
            with reg.span("phase"):
                pass
        stats = reg.span_stats()
        assert stats["phase"]["count"] == 3
        assert stats["phase"]["total_s"] >= 0.0


class TestNoOpMode:
    def test_disabled_by_default(self):
        assert obs.get_registry() is None
        assert not obs.enabled()

    def test_helpers_are_noops_when_disabled(self):
        obs.count("x")
        obs.gauge("g", 1)
        obs.observe("h", 1)
        obs.count_many({"a": 1})
        with obs.span("nothing") as sp:
            assert sp is None
        assert obs.current_span() is None

    def test_collecting_installs_and_restores(self):
        assert obs.get_registry() is None
        with obs.collecting() as reg:
            assert obs.get_registry() is reg
            obs.count("seen")
            with obs.collecting() as inner:
                assert obs.get_registry() is inner
                obs.count("inner-seen")
            assert obs.get_registry() is reg
        assert obs.get_registry() is None
        assert reg.counters == {"seen": 1}

    def test_traced_decorator(self):
        calls = []

        @obs.traced("my.fn")
        def fn(x):
            calls.append(x)
            return x + 1

        assert fn(1) == 2  # disabled: plain call
        with obs.collecting() as reg:
            assert fn(2) == 3
        assert calls == [1, 2]
        assert [s.name for s in reg.iter_spans()] == ["my.fn"]


class TestExport:
    def _populated(self):
        reg = Registry()
        with reg.span("root", kind="test"):
            with reg.span("child"):
                pass
        reg.count("c", 2)
        reg.gauge("g", 1.5)
        reg.observe("h", 3.0)
        return reg

    def test_metrics_dict_round_trips_through_json(self):
        reg = self._populated()
        blob = json.dumps(obs.metrics_dict(reg))
        back = json.loads(blob)
        assert back["counters"] == {"c": 2}
        assert back["gauges"] == {"g": 1.5}
        assert back["histograms"]["h"]["count"] == 1
        assert set(back["spans"]) == {"root", "child"}

    def test_trace_jsonl_round_trip(self, tmp_path):
        reg = self._populated()
        path = tmp_path / "trace.jsonl"
        obs.write_trace(reg, path)
        records = [json.loads(line) for line in path.read_text().splitlines()]
        spans = [r for r in records if r["type"] == "span"]
        assert [s["name"] for s in spans] == ["root", "child"]
        by_id = {s["id"]: s for s in spans}
        child = next(s for s in spans if s["name"] == "child")
        assert by_id[child["parent"]]["name"] == "root"
        assert records[-1]["type"] == "metrics"
        assert records[-1]["counters"] == {"c": 2}

    def test_write_metrics_file(self, tmp_path):
        reg = self._populated()
        path = tmp_path / "m.json"
        obs.write_metrics(reg, path)
        assert json.loads(path.read_text())["counters"] == {"c": 2}

    def test_render_tree_mentions_everything(self):
        reg = self._populated()
        text = obs.render_tree(reg)
        for needle in ("root", "child", "kind=test", "c", "g", "h"):
            assert needle in text

    def test_render_tree_empty_registry(self):
        assert "no spans" in obs.render_tree(Registry())


class TestInstrumentedLayers:
    def test_feasibility_counters(self):
        from repro.expansion.theorem31 import matmul_bit_level
        from repro.mapping import check_feasibility, designs

        alg = matmul_bit_level(2, 2, "II")
        with obs.collecting() as reg:
            check_feasibility(
                designs.fig4_mapping(2), alg, {"u": 2, "p": 2},
                primitives=designs.fig4_primitives(2),
            )
        assert reg.counters["mapping.candidates_enumerated"] == 1
        assert reg.counters["mapping.feasible"] == 1
        assert reg.counters["mapping.pruned"] == 0
        assert reg.histograms["mapping.feasibility_seconds"].count == 1

    def test_analyze_exact_counters_match_stats(self):
        from repro.depanalysis import analyze
        from repro.ir.expand import expand_bit_level

        prog = expand_bit_level(
            [0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1], [2, 2, 2], 2, "II"
        )
        with obs.collecting() as reg:
            result = analyze(prog, {"p": 2}, method="exact")
        for key, value in result.stats.items():
            assert reg.counters[f"depanalysis.{key}"] == value

    def test_analyze_scalar_times_each_pair(self):
        # Only the scalar reference walks pairs one at a time; the batched
        # engine screens them in bulk and records no per-pair histogram.
        from repro.depanalysis import AnalysisConfig, analyze
        from repro.ir.expand import expand_bit_level

        prog = expand_bit_level(
            [0, 1, 0], [1, 0, 0], [0, 0, 1], [1, 1, 1], [2, 2, 2], 2, "II"
        )
        with obs.collecting() as reg:
            result = analyze(prog, {"p": 2}, method="exact",
                             config=AnalysisConfig(backend="scalar",
                                                   cache=False))
        assert (
            reg.histograms["depanalysis.pair_seconds"].count
            == result.stats["pairs_tested"]
        )

    def test_simulator_metrics(self):
        from repro.machine import BitLevelMatmulMachine
        from repro.mapping import designs

        machine = BitLevelMatmulMachine(2, 2, designs.fig4_mapping(2))
        with obs.collecting() as reg:
            run = machine.run([[1, 2], [3, 1]], [[2, 1], [1, 2]])
        assert reg.counters["machine.computations"] == run.sim.computations
        assert reg.gauges["machine.makespan"] == run.sim.makespan
        assert reg.gauges["machine.always_busy"] == int(run.sim.always_busy)
        pe_gauges = {k for k in reg.gauges if k.startswith("machine.pe_busy.")}
        assert len(pe_gauges) == run.sim.processor_count
        link = {k for k in reg.counters if k.startswith("machine.link.")}
        assert link  # dependences moved between PEs
        assert sum(run.sim.pe_busy.values()) == run.sim.computations

    def test_search_designs_enumeration_counters(self):
        from repro.expansion.theorem31 import matmul_bit_level
        from repro.mapping import designs
        from repro.mapping.engine import SearchConfig, run_search

        alg = matmul_bit_level(2, 2, "II")
        with obs.collecting() as reg:
            found = run_search(
                alg, {"u": 2, "p": 2}, designs.fig4_primitives(2),
                SearchConfig(target_space_dim=2, block_values=[2],
                             max_candidates=2),
            )
        assert found
        c = reg.counters
        assert c["mapping.candidates_enumerated"] == (
            c["mapping.feasible"] + c["mapping.pruned"]
        )
        assert c["mapping.space_candidates"] > 0
        assert c["mapping.schedules_tried"] >= c["mapping.schedules_valid"]
        assert c["mapping.cache_hits"] > 0
        assert "mapping.search_designs" in reg.span_stats()
