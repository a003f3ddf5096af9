"""Tests for the benchmark infrastructure: datasets, tables, runner."""

import pytest

from repro.bench import (
    EXPERIMENT_IDS,
    clear_cache,
    dataset_names,
    dataset_summary,
    format_series,
    format_table,
    load_dataset,
    ratio,
    run_experiment,
)
from repro.exceptions import GraphError


class TestDatasets:
    def test_registry_names(self):
        assert dataset_names() == [
            "webgoogle",
            "wikitalk",
            "uspatent",
            "livejournal",
            "wikipedia",
            "twitter",
            "randgraph",
        ]

    def test_load_small_scale(self):
        g = load_dataset("webgoogle", 0.1)
        assert g.num_vertices >= 64
        assert g.num_edges > 0

    def test_cache_returns_same_object(self):
        a = load_dataset("randgraph", 0.1)
        b = load_dataset("randgraph", 0.1)
        assert a is b
        clear_cache()
        c = load_dataset("randgraph", 0.1)
        assert c is not a
        assert c == a  # deterministic regeneration

    def test_different_scales_different_graphs(self):
        small = load_dataset("uspatent", 0.1)
        large = load_dataset("uspatent", 0.2)
        assert large.num_vertices > small.num_vertices

    def test_unknown_dataset(self):
        with pytest.raises(GraphError):
            load_dataset("facebook")

    def test_summary_shape(self):
        rows = dataset_summary(0.1)
        assert len(rows) == 7
        for row in rows:
            assert row["vertices"] > 0
            assert row["edges"] > 0

    def test_livejournal_has_dense_core(self):
        """The planted community must make livejournal 4-clique-rich —
        hub-star graphs (wikitalk) and ER graphs (randgraph) host almost
        none, which is what the Table 2/4 K4 rows rely on."""
        from repro.baselines import count_instances
        from repro.pattern import clique4

        lj = load_dataset("livejournal", 0.3)
        rg = load_dataset("randgraph", 0.3)
        lj_k4 = count_instances(lj, clique4())
        rg_k4 = count_instances(rg, clique4())
        assert lj_k4 > 100
        assert lj_k4 > 20 * max(rg_k4, 1)


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1, 2.5], ["xx", None]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert len(set(len(line) for line in lines)) == 1

    def test_format_table_title(self):
        text = format_table(["x"], [[1]], title="hello")
        assert text.startswith("hello")

    def test_large_numbers_commafied(self):
        assert "1,234,567" in format_table(["n"], [[1234567.0]])

    def test_inf_rendered(self):
        assert "inf" in format_table(["n"], [[float("inf")]])

    def test_format_series(self):
        text = format_series("runs", {"a": 10.0, "b": 5.0})
        assert "runs" in text and "#" in text

    def test_format_series_empty(self):
        assert "(empty)" in format_series("x", {})

    def test_ratio(self):
        assert ratio(10, 5) == 2.0
        assert ratio(10, 0) == float("inf")
        assert ratio(0, 0) == 1.0


class TestRunner:
    def test_experiment_ids_complete(self):
        assert set(EXPERIMENT_IDS) == {
            "table1",
            "fig4",
            "fig3",
            "fig5",
            "fig6",
            "table2",
            "fig7",
            "table3",
            "table4",
            "fig8",
        }

    def test_unknown_experiment(self):
        with pytest.raises(ValueError):
            run_experiment("fig99")

    def test_cheap_experiment_runs(self):
        report = run_experiment("fig4")
        assert report.experiment == "fig4"
        assert "PG1" in report.text
        assert report.seconds >= 0

    def test_report_render(self):
        report = run_experiment("table1", scale=0.1)
        rendered = report.render()
        assert rendered.startswith("== table1")

    def test_run_all_subset_and_persistence(self, tmp_path):
        from repro.bench import run_all

        reports = run_all(
            scale=0.1, experiments=["table1"], out_dir=tmp_path, progress=None
        )
        assert len(reports) == 1
        assert (tmp_path / "table1.txt").exists()


class TestByteStableReports:
    def test_reports_differing_only_in_seconds_write_identical_text(self, tmp_path):
        """A committed report holds results, not the run time: a rerun
        with the same results rewrites the same bytes."""
        from repro.bench import ExperimentReport
        from repro.bench.runner import write_report

        texts = []
        for seconds in (17.7, 3.2):
            report = ExperimentReport("table2", "Pruning ratio", "a | b\n1 | 2",
                                      seconds=seconds)
            texts.append(write_report(report, tmp_path / str(seconds)).read_bytes())
            assert f"({seconds}s)" in report.render()
        assert texts[0] == texts[1]
        assert texts[0].decode() == "== table2: Pruning ratio ==\na | b\n1 | 2\n"
