"""Tests for the command-line interfaces."""

import json

import pytest

from repro.__main__ import build_parser, main
from repro.experiments.__main__ import main as experiments_main


class TestTopLevelCli:
    def test_structure(self, capsys):
        assert main(["structure", "--u", "2", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "5-dimensional" in out
        assert "c'" in out

    def test_structure_expansion1(self, capsys):
        assert main(["structure", "--expansion", "I"]) == 0
        assert "expI" in capsys.readouterr().out

    def test_design(self, capsys):
        assert main(["design", "--u", "2", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 4" in out and "Fig. 5" in out
        assert "t = 7" in out and "t = 9" in out

    def test_search(self, capsys):
        assert main(["search", "--u", "2", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "design-space search" in out
        assert "T = [S; Π]" in out
        assert "workers=1" in out

    def test_search_parallel_output_identical(self, capsys):
        assert main(["search", "--u", "2", "--p", "2"]) == 0
        sequential = capsys.readouterr().out
        assert main(["search", "--u", "2", "--p", "2", "--workers", "2"]) == 0
        parallel = capsys.readouterr().out
        assert "workers=2" in parallel
        # Same ranked table; only the workers= header differs.
        strip = lambda text: text.splitlines()[1:]
        assert strip(parallel) == strip(sequential)

    def test_search_unconstrained_primitives(self, capsys):
        assert main(
            ["search", "--u", "2", "--p", "2", "--primitives", "none",
             "--max-candidates", "2"]
        ) == 0
        assert "primitives=none" in capsys.readouterr().out

    def test_search_metrics_out(self, tmp_path, capsys):
        out_file = tmp_path / "m.json"
        assert main(
            ["search", "--u", "2", "--p", "2",
             "--metrics-out", str(out_file), "--quiet-metrics"]
        ) == 0
        metrics = json.loads(out_file.read_text())
        assert metrics["counters"]["mapping.cache_hits"] > 0
        assert metrics["counters"]["mapping.designs_found"] > 0
        assert "mapping.search_designs" in metrics["spans"]

    def test_simulate_fig4(self, capsys):
        assert main(["simulate", "--u", "2", "--p", "2"]) == 0
        out = capsys.readouterr().out
        assert "product correct" in out and "True" in out

    def test_simulate_fig5_with_gantt(self, capsys):
        assert main(
            ["simulate", "--u", "2", "--p", "2", "--design", "fig5", "--gantt"]
        ) == 0
        out = capsys.readouterr().out
        assert "#" in out

    def test_parser_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestObservabilityFlags:
    def test_structure_metrics_out(self, tmp_path, capsys):
        out_file = tmp_path / "m.json"
        assert main(
            ["structure", "--u", "2", "--p", "2", "--metrics-out", str(out_file)]
        ) == 0
        captured = capsys.readouterr()
        assert "5-dimensional" in captured.out  # normal output intact
        assert "== trace ==" in captured.err
        metrics = json.loads(out_file.read_text())
        assert "cli.structure" in metrics["spans"]

    def test_design_metrics_out(self, tmp_path, capsys):
        out_file = tmp_path / "m.json"
        assert main(
            ["design", "--u", "2", "--p", "2",
             "--metrics-out", str(out_file), "--quiet-metrics"]
        ) == 0
        assert capsys.readouterr().err == ""  # --quiet-metrics
        metrics = json.loads(out_file.read_text())
        assert metrics["counters"]["mapping.candidates_enumerated"] == 2
        assert metrics["counters"]["mapping.pruned"] == 0
        assert metrics["spans"]["cli.design"]["total_s"] > 0

    def test_simulate_metrics_and_trace(self, tmp_path, capsys):
        m_file = tmp_path / "m.json"
        t_file = tmp_path / "trace.jsonl"
        assert main(
            ["simulate", "--u", "2", "--p", "2", "--metrics-out", str(m_file),
             "--trace", str(t_file), "--quiet-metrics"]
        ) == 0
        out = capsys.readouterr().out
        assert "condition 5 (some PE busy at every beat): True" in out
        assert "per-PE utilization:" in out
        assert "PE(3, 3):" in out
        metrics = json.loads(m_file.read_text())
        assert metrics["counters"]["machine.store_reads"] > 0
        assert metrics["counters"]["machine.store_writes"] > 0
        assert any(
            name.startswith("machine.pe_busy.") for name in metrics["gauges"]
        )
        records = [
            json.loads(line) for line in t_file.read_text().splitlines()
        ]
        assert records[-1]["type"] == "metrics"
        assert any(
            r["type"] == "span" and r["name"] == "machine.simulate"
            for r in records
        )

    def test_search_chrome_trace_with_workers(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.json"
        assert main(
            ["search", "--u", "2", "--p", "2", "--workers", "2",
             "--trace", str(trace_file), "--trace-format", "chrome",
             "--quiet-metrics"]
        ) == 0
        rows = json.loads(trace_file.read_text())
        assert isinstance(rows, list) and rows
        for row in rows:
            for key in ("ts", "dur", "pid", "tid", "name"):
                assert key in row
        names = {r["name"] for r in rows}
        assert "cli.search" in names
        assert "mapping.evaluate_space" in names

    def test_simulate_chrome_trace_counter_tracks(self, tmp_path):
        trace_file = tmp_path / "trace.json"
        assert main(
            ["simulate", "--u", "2", "--p", "2",
             "--trace", str(trace_file), "--trace-format", "chrome",
             "--quiet-metrics"]
        ) == 0
        rows = json.loads(trace_file.read_text())
        counters = [r for r in rows if r.get("ph") == "C"]
        assert any(r["name"].startswith("machine.pe_busy.") for r in counters)
        assert any(r["name"] == "machine.busy_pes" for r in counters)

    def test_trace_renders_progress_lines(self, tmp_path, capsys):
        trace_file = tmp_path / "trace.jsonl"
        assert main(
            ["verify", "--seed", "0", "--cases", "3",
             "--oracle", "theorem31", "--trace", str(trace_file)]
        ) == 0
        err = capsys.readouterr().err
        assert "[verify.theorem31] 3/3" in err
        assert "done" in err

    def test_flags_accepted_before_subcommand(self, tmp_path):
        out_file = tmp_path / "m.json"
        assert main(
            ["--metrics-out", str(out_file), "--quiet-metrics",
             "design", "--u", "2", "--p", "2"]
        ) == 0
        assert "cli.design" in json.loads(out_file.read_text())["spans"]

    def test_no_flags_installs_no_registry(self, capsys):
        from repro import obs

        assert main(["simulate", "--u", "2", "--p", "2"]) == 0
        out = capsys.readouterr()
        assert obs.get_registry() is None
        assert "condition 5" not in out.out
        assert out.err == ""

    def test_experiments_records_per_experiment_spans(self, tmp_path, capsys):
        out_file = tmp_path / "m.json"
        assert main(
            ["experiments", "e1", "--metrics-out", str(out_file),
             "--quiet-metrics"]
        ) == 0
        metrics = json.loads(out_file.read_text())
        assert "experiment.e1" in metrics["spans"]


class TestExperimentsCli:
    def test_single_experiment(self, capsys):
        assert experiments_main(["e1"]) == 0
        out = capsys.readouterr().out
        assert "ALL CHECKS PASS" in out

    def test_unknown_id(self, capsys):
        assert experiments_main(["e99"]) == 2
        assert "unknown" in capsys.readouterr().out

    def test_multiple(self, capsys):
        assert experiments_main(["e8", "e1"]) == 0
