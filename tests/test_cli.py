"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.cli import main
from repro.graph import complete_graph, write_edge_list
from repro.graph.generators import erdos_renyi


class TestCount:
    def test_cold_count_never_imports_numpy_ma(self, tmp_path):
        """``np.unique`` imports ``numpy.ma`` lazily (~20 ms): no grouping
        on the count path may go through it."""
        path = tmp_path / "er.txt"
        write_edge_list(erdos_renyi(40, 0.3, seed=2), path)
        script = (
            "import runpy, sys\n"
            f"sys.argv = ['psgl', 'count', '--pattern', 'PG1', '--edge-list', {str(path)!r}]\n"
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "except SystemExit as done:\n"
            "    assert not done.code, done.code\n"
            "assert 'numpy.ma' not in sys.modules\n"
        )
        src = str(Path(repro.__file__).resolve().parents[1])
        done = subprocess.run(
            [sys.executable, "-c", script],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        assert "instances" in done.stdout

    def test_count_on_edge_list(self, tmp_path, capsys):
        path = tmp_path / "k5.txt"
        write_edge_list(complete_graph(5), path)
        assert main(["count", "--pattern", "PG1", "--edge-list", str(path)]) == 0
        out = capsys.readouterr().out
        assert "instances  : 10" in out

    def test_wire_plane_default_and_reference(self, tmp_path, capsys):
        path = tmp_path / "k5.txt"
        write_edge_list(complete_graph(5), path)
        base = ["count", "--pattern", "PG1", "--edge-list", str(path)]
        assert main(base) == 0
        assert "wire plane : columnar" in capsys.readouterr().out
        assert main(base + ["--wire", "object"]) == 0
        out = capsys.readouterr().out
        assert "wire plane : object" in out and "instances  : 10" in out

    def test_count_on_dataset(self, capsys):
        code = main(
            [
                "count",
                "--pattern",
                "PG1",
                "--dataset",
                "randgraph",
                "--scale",
                "0.1",
                "--workers",
                "4",
            ]
        )
        assert code == 0
        assert "instances" in capsys.readouterr().out

    def test_count_with_forced_initial_vertex(self, tmp_path, capsys):
        path = tmp_path / "k5.txt"
        write_edge_list(complete_graph(5), path)
        main(
            [
                "count",
                "--pattern",
                "PG2",
                "--edge-list",
                str(path),
                "--initial-vertex",
                "2",
            ]
        )
        assert "initial vp : v2" in capsys.readouterr().out

    def test_count_no_index(self, tmp_path, capsys):
        path = tmp_path / "k4.txt"
        write_edge_list(complete_graph(4), path)
        main(["count", "--pattern", "PG1", "--edge-list", str(path), "--no-index"])
        assert "instances  : 4" in capsys.readouterr().out

    def test_family_pattern_name(self, tmp_path, capsys):
        path = tmp_path / "k6.txt"
        write_edge_list(complete_graph(6), path)
        main(["count", "--pattern", "K5", "--edge-list", str(path)])
        assert "instances  : 6" in capsys.readouterr().out


class TestTrace:
    def test_count_writes_valid_chrome_trace(self, tmp_path, capsys):
        from repro.obs import validate_chrome_trace

        path = tmp_path / "k5.txt"
        write_edge_list(complete_graph(5), path)
        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "count", "--pattern", "PG1", "--edge-list", str(path),
                "--trace", str(trace_path),
            ]
        )
        assert code == 0
        assert "trace      :" in capsys.readouterr().out
        info = validate_chrome_trace(trace_path)
        assert info["worker_cost_totals"] and info["supersteps"] > 0

    def test_count_writes_jsonl_by_extension(self, tmp_path):
        from repro.obs import read_jsonl

        path = tmp_path / "k5.txt"
        write_edge_list(complete_graph(5), path)
        trace_path = tmp_path / "trace.jsonl"
        main(
            [
                "count", "--pattern", "PG1", "--edge-list", str(path),
                "--trace", str(trace_path),
            ]
        )
        tracer = read_jsonl(trace_path)
        assert tracer.by_kind("worker")
        assert tracer.meta["backend"] == "serial"

    def test_count_trace_report(self, tmp_path, capsys):
        path = tmp_path / "k5.txt"
        write_edge_list(complete_graph(5), path)
        main(
            [
                "count", "--pattern", "PG1", "--edge-list", str(path),
                "--trace-report",
            ]
        )
        out = capsys.readouterr().out
        assert "per-worker totals" in out and "straggler" in out

    def test_bench_trace_dir(self, tmp_path):
        from repro.obs import validate_chrome_trace

        code = main(
            [
                "bench", "--experiments", "fig5", "--scale", "0.05",
                "--out", str(tmp_path), "--trace", str(tmp_path / "traces"),
            ]
        )
        assert code == 0
        trace_path = tmp_path / "traces" / "fig5_trace.json"
        assert trace_path.exists()
        assert validate_chrome_trace(trace_path)["events"] > 0


class TestInfoCommands:
    def test_datasets(self, capsys):
        assert main(["datasets"]) == 0
        out = capsys.readouterr().out
        assert "wikitalk" in out and "WikiTalk" in out

    def test_patterns(self, capsys):
        assert main(["patterns"]) == 0
        out = capsys.readouterr().out
        for name in ["PG1", "PG2", "PG3", "PG4", "PG5"]:
            assert name in out


class TestBench:
    def test_bench_single_experiment(self, tmp_path, capsys):
        code = main(
            [
                "bench",
                "--experiments",
                "fig4",
                "--scale",
                "0.1",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        assert (tmp_path / "fig4.txt").exists()


class TestParsing:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_count_requires_source(self):
        with pytest.raises(SystemExit):
            main(["count", "--pattern", "PG1"])


class TestStats:
    def test_stats_on_dataset(self, capsys):
        assert main(["stats", "--dataset", "randgraph", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        assert "avg degree" in out and "gamma degree" in out

    def test_stats_on_edge_list(self, tmp_path, capsys):
        path = tmp_path / "g.txt"
        write_edge_list(complete_graph(6), path)
        main(["stats", "--edge-list", str(path)])
        assert "max degree   : 5" in capsys.readouterr().out


class TestErrorHandling:
    """Library errors become one-line messages with family exit codes."""

    def test_unknown_pattern_exit_3(self, capsys):
        code = main(["count", "--pattern", "PG99", "--dataset", "randgraph"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("psgl: error:")
        assert "PG99" in err
        assert "Traceback" not in err

    def test_bad_pattern_edges_exit_3(self, tmp_path, capsys):
        path = tmp_path / "k4.txt"
        write_edge_list(complete_graph(4), path)
        code = main(
            ["count", "--pattern-edges", "1-2, 4-5", "--edge-list", str(path)]
        )
        assert code == 3
        assert "connected" in capsys.readouterr().err

    def test_unknown_dataset_exit_4(self, capsys):
        code = main(["count", "--pattern", "PG1", "--dataset", "nope"])
        assert code == 4
        assert "psgl: error:" in capsys.readouterr().err

    def test_missing_edge_list_exit_4(self, capsys):
        code = main(
            ["count", "--pattern", "PG1", "--edge-list", "/no/such/file.txt"]
        )
        assert code == 4
        assert "file not found" in capsys.readouterr().err

    def test_bad_strategy_exit_5(self, tmp_path, capsys):
        path = tmp_path / "k4.txt"
        write_edge_list(complete_graph(4), path)
        code = main(
            [
                "count", "--pattern", "PG1", "--edge-list", str(path),
                "--strategy", "psychic",
            ]
        )
        assert code == 5
        assert "psgl: error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags",
        [
            ["--workers", "0"],
            ["--backend", "process", "--procs", "-1"],
            ["--backend", "thread", "--procs", "0"],
            ["--strategy", "bogus"],
            ["--strategy", "WA,x"],
            ["--strategy", "WA,"],
            ["--strategy", "WA,nan"],
        ],
        ids=[
            "workers-0", "process-procs--1", "thread-procs-0",
            "strategy-bogus", "strategy-WA,x", "strategy-WA,", "strategy-WA,nan",
        ],
    )
    def test_misconfiguration_exit_5_before_the_graph_is_read(self, flags, capsys):
        """One ``psgl: error:`` line, the EngineError / DistributionError
        exit code — it reports the flag, not the file: the
        nonexistent edge list was never opened (that would be exit 4).
        The illegal-combination sweep is in ``test_config_surface.py``."""
        code = main(
            ["count", "--pattern", "PG1", "--edge-list", "/no/such/file.txt"]
            + flags
        )
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("psgl: error:") and err.count("\n") == 1
        assert "Traceback" not in err and "file not found" not in err

    def test_exit_code_table_is_ordered_most_specific_first(self):
        from repro.cli import EXIT_CODES, _exit_code_for
        from repro.exceptions import (
            BudgetExceededError,
            PartialOrderError,
            ReproError,
            SimulatedOOMError,
        )

        for i, (earlier, _) in enumerate(EXIT_CODES):
            for later, _ in EXIT_CODES[i + 1 :]:
                assert not issubclass(later, earlier), (
                    f"{later.__name__} is unreachable behind {earlier.__name__}"
                )
        assert _exit_code_for(PartialOrderError("x")) == 3
        assert _exit_code_for(SimulatedOOMError(9, 1)) == 6
        assert _exit_code_for(BudgetExceededError("x")) == 6
        assert _exit_code_for(ReproError("x")) == 7


class TestServe:
    def test_serve_boots_and_answers(self, tmp_path):
        """Boot the real server on an ephemeral port via the CLI handler."""
        import threading
        import time as _time

        from repro.service import ServiceClient

        port_file = tmp_path / "port.txt"
        edge_list = tmp_path / "k8.txt"
        write_edge_list(complete_graph(8), edge_list)

        thread = threading.Thread(
            target=main,
            args=(
                [
                    "serve", "--edge-list", str(edge_list),
                    "--port", "0", "--port-file", str(port_file),
                ],
            ),
            daemon=True,
        )
        thread.start()
        deadline = _time.monotonic() + 15
        while not port_file.exists() or not port_file.read_text().strip():
            assert _time.monotonic() < deadline, "server never wrote the port"
            _time.sleep(0.05)
        client = ServiceClient(
            f"http://127.0.0.1:{port_file.read_text().strip()}"
        )
        job = client.count(pattern="PG1")
        assert job["state"] == "completed"
        assert job["result"]["count"] == 56  # C(8, 3)
        assert client.submit(pattern="PG1")["cached"]


class TestCustomPattern:
    def test_count_with_pattern_edges(self, tmp_path, capsys):
        path = tmp_path / "k5.txt"
        write_edge_list(complete_graph(5), path)
        main(["count", "--pattern-edges", "1-2,2-3,3-1", "--edge-list", str(path)])
        assert "instances  : 10" in capsys.readouterr().out

    def test_pattern_and_edges_mutually_exclusive(self, tmp_path):
        path = tmp_path / "k5.txt"
        write_edge_list(complete_graph(5), path)
        with pytest.raises(SystemExit):
            main([
                "count", "--pattern", "PG1", "--pattern-edges", "1-2",
                "--edge-list", str(path),
            ])
