"""Tests for the command-line interface."""

import errno
import gc
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import PSgL, triangle
from repro.cli import main
from repro.graph import complete_graph, read_edge_list, write_edge_list
from repro.graph.generators import erdos_renyi, rmat


SRC = str(Path(repro.__file__).resolve().parents[1])

#: Modules no cold ``psgl count`` loads: ``numpy.random`` (the random
#: partition is numpy's PCG64 stream, reproduced in plain numpy, and
#: workload-aware routing draws nothing) and OpenSSL's hashing (a count
#: hashes nothing).
COLD_COUNT_NEVER_RANDOM = ("numpy.random", "secrets", "hmac", "hashlib", "_hashlib")

#: Modules a cold serial ``psgl count`` on a text edge list never loads:
#: other subcommands' machinery, the unused process backend and any pool
#: (serial runs its units inline, on the driver), the parity
#: oracle and its scalar expansion,
#: ``numpy.ma`` (``np.unique`` imports it lazily, ~20 ms: no grouping on
#: the count path may go through it), and the random/hashing stack above.
COLD_COUNT_NEVER_LOADS = COLD_COUNT_NEVER_RANDOM + (
    "numpy.ma",
    "repro.core.reference",
    "repro.core.expansion",
    "repro.core.candidates",
    "repro.bench",
    "repro.service",
    "repro.graph.stats",
    "repro.graph.binfmt",
    "repro.obs.exporters",
    "repro.runtime.process",
    "multiprocessing",
    "json",
    "subprocess",
    "socket",
    "concurrent.futures",
    "logging",
    "queue",
)

#: The OpenBLAS / OpenMP pool sizes ``psgl`` pins.
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")


def run_python(script, **env):
    """``script`` in a fresh interpreter on this checkout, with neither
    BLAS variable inherited: only what ``env`` sets, or the program
    itself, can decide the pool size."""
    child_env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
    done = subprocess.run(
        [sys.executable, "-c", script],
        env={**child_env, "PYTHONPATH": SRC, **env},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done


#: The line a cold run prints once every check of it passed.
CHECKED = "cold-run checks passed"


def cold_count_script(path, via, check="pass", argv=None):
    """A cold serial ``psgl count`` of ``path``, through ``python -m
    repro`` (``via="runpy"``) or the console script's ``main`` call,
    followed by ``check`` (statements run in a function).

    ``python -m repro`` never returns to the script: ``main`` leaves
    through ``os._exit`` after the ``atexit`` handlers.  So ``check`` runs
    as the last of those handlers, a failed check ends the process with
    status 1, and a passed one prints :data:`CHECKED`, which
    :func:`run_cold` requires — a check that never ran fails too.
    """
    if argv is None:
        argv = ["count", "--pattern", "PG1", "--edge-list", str(path)]
    body = "".join(f"    {line}\n" for line in check.splitlines())
    script = (
        "import atexit, os, runpy, sys\n"
        f"def check():\n{body}"
        "def checked():\n"
        "    try:\n"
        "        check()\n"
        "    except BaseException as exc:\n"
        "        print('check failed:', repr(exc), file=sys.stderr, flush=True)\n"
        "        os._exit(1)\n"
        f"    print({CHECKED!r}, flush=True)\n"
    )
    if via == "runpy":
        return script + (
            "atexit.register(checked)\n"
            f"sys.argv = ['psgl', *{argv!r}]\n"
            "runpy.run_module('repro', run_name='__main__')\n"
        )
    return script + (
        f"from repro.cli import main\nassert main({argv!r}) == 0\nchecked()\n"
    )


def run_cold(path, via, check="pass", argv=None, **env):
    """Run :func:`cold_count_script`; its checks must have passed."""
    done = run_python(cold_count_script(path, via, check, argv), **env)
    assert CHECKED in done.stdout, done.stdout
    return done


@pytest.fixture
def er_edge_list(tmp_path):
    path = tmp_path / "er.txt"
    write_edge_list(erdos_renyi(40, 0.3, seed=2), path)
    return path


class TestCount:
    def test_cold_count_never_imports_numpy_ma(self, er_edge_list):
        """The modules a serial count has no use for stay unloaded."""
        done = run_cold(er_edge_list, "runpy", (
            f"loaded = [m for m in {COLD_COUNT_NEVER_LOADS!r} if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        ))
        assert "instances" in done.stdout

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_cold_process_count_loads_no_pool_machinery(self, er_edge_list):
        """Forked lanes are ``os.fork`` and two pipes: a cold process
        count loads no ``multiprocessing``, futures or socket stack, and
        counts what a serial run counts."""
        never = ("multiprocessing", "concurrent.futures", "socket",
                 "subprocess", "selectors")
        argv = ["count", "--pattern", "PG1", "--edge-list", str(er_edge_list),
                "--backend", "process", "--procs", "2"]
        done = run_cold(er_edge_list, "runpy", (
            f"loaded = [m for m in {never!r} if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        ), argv=argv)
        graph, _ = read_edge_list(er_edge_list)
        assert f"instances  : {PSgL(graph).count(triangle()):,}" in done.stdout

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_cold_csrbin_process_count_loads_no_random_or_openssl(
        self, er_edge_list, tmp_path
    ):
        """A memory-mapped graph on forked lanes: the ``.csrbin`` load
        verifies no checksum, and the partition and routing draw through
        no ``numpy.random``, on the driver or in a lane's reply."""
        from repro.graph.binfmt import write_csrbin

        graph, _ = read_edge_list(er_edge_list)
        csrbin = tmp_path / "er.csrbin"
        write_csrbin(graph, csrbin)
        argv = ["count", "--pattern", "PG1", "--csrbin", str(csrbin),
                "--backend", "process", "--procs", "2"]
        done = run_cold(er_edge_list, "runpy", (
            f"loaded = [m for m in {COLD_COUNT_NEVER_RANDOM!r} if m in sys.modules]\n"
            "assert not loaded, loaded\n"
        ), argv=argv)
        assert f"instances  : {PSgL(graph).count(triangle()):,}" in done.stdout

    def test_cold_count_builds_no_dataclass_but_the_config(self, er_edge_list):
        """``@dataclass`` compiles each class's methods when the class is
        made; the records a count imports are plain ``__slots__`` classes,
        and only ``ExecutionConfig``, whose field metadata renders the
        flags, is a dataclass."""
        done = run_cold(er_edge_list, "runpy", (
            "import dataclasses\n"
            "found = sorted(\n"
            "    f'{name}.{attr}'\n"
            "    for name, module in list(sys.modules.items())\n"
            "    if name.startswith('repro.')\n"
            "    for attr, value in vars(module).items()\n"
            "    if isinstance(value, type) and value.__module__ == name\n"
            "    and dataclasses.is_dataclass(value)\n"
            ")\n"
            "assert found == ['repro.bsp.config.ExecutionConfig'], found\n"
        ))
        assert "instances" in done.stdout

    def test_a_failed_cold_check_fails_the_run(self, er_edge_list):
        """The exit inside ``main`` cannot swallow a check: a false one
        fails the run."""
        with pytest.raises(AssertionError, match="deliberately false"):
            run_cold(er_edge_list, "runpy", "assert False, 'deliberately false'")

    def test_bare_import_loads_no_numpy(self):
        run_python(
            "import sys, repro\n"
            "assert 'numpy' not in sys.modules\n"
            "loaded = [m for m in sys.modules if m.startswith('repro.')]\n"
            "assert loaded == ['repro._lazy'], loaded\n"
        )

    @pytest.mark.skipif(
        not os.path.isdir("/proc/self/task"), reason="needs Linux /proc"
    )
    @pytest.mark.parametrize("via", ["runpy", "main"])
    def test_cold_count_runs_on_one_os_thread(self, er_edge_list, via):
        """``psgl`` pins the BLAS pool before numpy loads: no OpenBLAS
        worker thread is ever started for an engine that calls no BLAS."""
        run_cold(er_edge_list, via, (
            "threads = len(os.listdir('/proc/self/task'))\n"
            "assert threads == 1, threads\n"
            f"assert all(os.environ[v] == '1' for v in {BLAS_VARS!r})\n"
        ))

    def test_one_shot_cli_exits_without_teardown(self, er_edge_list):
        """``python -m repro`` owns its process: ``main`` runs the
        ``atexit`` handlers and exits with its code, never returning into
        the script or tearing the interpreter down (no finalizer runs)."""
        script = (
            "class Witness:\n"
            "    def __del__(self):\n"
            "        os.write(1, b'torn down\\n')\n"
            "witness = Witness()\n"
        ) + cold_count_script(er_edge_list, "runpy").replace(
            "runpy.run_module('repro', run_name='__main__')\n",
            "try:\n"
            "    runpy.run_module('repro', run_name='__main__')\n"
            "finally:\n"
            "    print('main returned')\n",
        )
        out = run_python(script).stdout
        assert CHECKED in out and "instances" in out
        assert "main returned" not in out and "torn down" not in out
        failed = cold_count_script(
            er_edge_list, "runpy",
            argv=["count", "--pattern", "PG1", "--edge-list", "/nonexistent"],
        )
        done = subprocess.run(
            [sys.executable, "-c", failed], env={**os.environ, "PYTHONPATH": SRC},
            capture_output=True, text=True, timeout=120,
        )
        assert done.returncode == 4, done.stderr
        assert CHECKED in done.stdout and "psgl: error" in done.stderr

    def test_one_shot_trace_file_is_complete(self, er_edge_list, tmp_path):
        """Every file a handler writes is closed before ``main`` exits:
        a cold ``--trace x.jsonl`` parses to its last event."""
        import json

        trace = tmp_path / "x.jsonl"
        argv = ["count", "--pattern", "PG1", "--edge-list", str(er_edge_list),
                "--trace", str(trace)]
        out = run_python(cold_count_script(er_edge_list, "runpy", argv=argv)).stdout
        assert CHECKED in out
        header, *events = map(json.loads, trace.read_text().splitlines())
        assert header["kind"] == "header" and events[-1]["kind"] == "job"
        assert f"({len(events)} events, JSONL)" in out

    def test_in_process_main_leaves_the_collector_alone(self, er_edge_list, capsys):
        """An embedding caller passes ``argv`` and keeps its process's
        collector as it was."""
        argv = ["count", "--pattern", "PG1", "--edge-list", str(er_edge_list)]
        assert main(argv) == 0
        assert main(["count", "--pattern", "PG1", "--edge-list", "/nonexistent"]) == 4
        assert gc.get_freeze_count() == 0

    def test_user_blas_setting_is_kept(self, er_edge_list):
        run_cold(er_edge_list, "main", (
            "assert os.environ['OPENBLAS_NUM_THREADS'] == '2'\n"
            "assert os.environ['OMP_NUM_THREADS'] == '1'\n"
        ), OPENBLAS_NUM_THREADS="2")


    def test_count_on_edge_list(self, tmp_path, capsys):
        path = tmp_path / "k5.txt"
        write_edge_list(complete_graph(5), path)
        assert main(["count", "--pattern", "PG1", "--edge-list", str(path)]) == 0
        out = capsys.readouterr().out
        assert "instances  : 10" in out

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs the fork start method")
    def test_surplus_procs_are_capped_at_the_workers(
        self, er_edge_list, capsys, monkeypatch
    ):
        """Regression: ``--procs 64 --workers 4`` forked 63 children, of
        which at most 3 could ever get a unit.  Lanes are capped at the
        worker count, as the default already was: three children, and
        serial's count."""
        base = ["count", "--pattern", "PG1", "--edge-list", str(er_edge_list),
                "--workers", "4"]
        assert main(base) == 0
        serial = [ln for ln in capsys.readouterr().out.splitlines() if "instances" in ln]
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        assert main(base + ["--backend", "process", "--procs", "64"]) == 0
        pooled = [ln for ln in capsys.readouterr().out.splitlines() if "instances" in ln]
        assert len(forks) == 3
        assert pooled == serial and serial

    def test_wire_plane_default_and_reference(self, tmp_path, capsys):
        """One plane: ``--wire columnar`` is accepted by name and prints
        nothing extra; the scalar reference is not a plane argparse
        knows (exit 2)."""
        path = tmp_path / "k5.txt"
        write_edge_list(complete_graph(5), path)
        base = ["count", "--pattern", "PG1", "--edge-list", str(path)]
        assert main(base + ["--wire", "columnar"]) == 0
        out = capsys.readouterr().out
        assert "instances  : 10" in out and "wire" not in out
        with pytest.raises(SystemExit) as refused:
            main(base + ["--wire", "object"])
        assert refused.value.code == 2
        assert "invalid choice: 'object'" in capsys.readouterr().err

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
        main(["count", "--pattern", "PG1", "--edge-list", str(path), "--index", "none"])
        assert "instances  : 4" in capsys.readouterr().out

    def test_exact_index_lists_the_same_in_fewer_supersteps(self, tmp_path, capsys):
        path = tmp_path / "rmat.txt"
        write_edge_list(rmat(7, seed=0), path)

        def count(*flags):
            main(["count", "--pattern", "PG2", "--edge-list", str(path), *flags])
            lines = capsys.readouterr().out.splitlines()
            return {
                key.strip(): value.strip()
                for key, _, value in (line.partition(":") for line in lines)
            }

        exact, bloom = count("--index", "exact"), count("--index", "bloom")
        default = count()
        for run in (default, exact):
            del run["wall time"]
        assert default == exact
        assert exact["instances"] == bloom["instances"] == "5,015"
        assert int(exact["supersteps"]) < int(bloom["supersteps"])

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

    def test_broken_pipe_is_not_a_path_error(self, er_edge_list, capsys,
                                             monkeypatch):
        """``psgl count ... | head -3``: the reader leaving early is no
        bad input — no message, and 141 (128 + SIGPIPE), not exit 4."""

        class Closed:
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, "Broken pipe")

            def flush(self):
                pass

        monkeypatch.setattr(sys, "stdout", Closed())
        code = main(["count", "--pattern", "PG1", "--edge-list",
                     str(er_edge_list)])
        assert code == 141
        assert capsys.readouterr().err == ""

    def test_unwritable_trace_path_is_refused_before_the_job(
        self, er_edge_list, tmp_path, capsys
    ):
        """An unwritable ``--trace`` path used to be found only after the
        whole job ran and printed its results.  It is refused before the
        graph is read: with a missing graph too, the trace path is named."""
        trace = "/nonexistent/dir/t.json"
        for source in (er_edge_list, tmp_path / "missing.txt"):
            code = main(["count", "--pattern", "PG1", "--edge-list",
                         str(source), "--trace", trace])
            assert code == 4
            out, err = capsys.readouterr()
            assert "instances" not in out
            assert err == f"psgl: error: {trace}: No such file or directory\n"

    @pytest.mark.parametrize("command", ["count", "stats", "serve"])
    def test_scale_beside_a_file_source_is_a_usage_error(self, command,
                                                         capsys):
        """``--scale`` shrinks a ``--dataset`` analog only: beside
        ``--edge-list`` or ``--csrbin`` it used to be ignored silently.
        It is refused in one line, exit 2, before the graph is read (the
        path does not exist, which would be exit 4)."""
        for source in ("--edge-list", "--csrbin"):
            argv = [command, source, "/nonexistent", "--scale", "nan"]
            if command == "count":
                argv += ["--pattern", "PG1"]
            assert main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("psgl: error: ") and err.count("\n") == 1
            assert "--scale" in err and "--dataset" in err

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

    @pytest.mark.parametrize("vertex", ["9", "0"])
    def test_initial_vertex_out_of_range_exit_3_before_the_graph_is_read(
        self, vertex, capsys
    ):
        """The 1-based id the user typed, refused before the missing edge
        list is opened (that would be exit 4)."""
        code = main(
            ["count", "--pattern", "PG1", "--edge-list", "/nonexistent",
             "--initial-vertex", vertex]
        )
        assert code == 3
        assert capsys.readouterr().err == (
            f"psgl: error: initial vertex {vertex} out of range for PG1 (1..3)\n"
        )

    def test_unknown_dataset_exit_4(self, capsys):
        code = main(["count", "--pattern", "PG1", "--dataset", "nope"])
        assert code == 4
        assert "psgl: error:" in capsys.readouterr().err

    @pytest.mark.parametrize("scale", ["-1", "0", "nan", "inf"])
    @pytest.mark.parametrize("command", ["count", "stats", "serve", "bench"])
    def test_bad_scale_exit_4(self, command, scale, capsys):
        """Regression: ``--scale -1`` / ``nan`` / ``inf`` ended in a
        ``TypeError``, ``ValueError`` or ``OverflowError`` traceback, and
        ``--scale 0`` silently built the floor graph.  Every ``--scale``
        flag is refused in one line, exit 4."""
        argv = [command, "--scale", scale]
        if command != "bench":
            argv += ["--dataset", "wikitalk"]
        if command == "count":
            argv += ["--pattern", "PG1"]
        assert main(argv) == 4
        assert capsys.readouterr().err == (
            f"psgl: error: scale must be a finite number > 0, got {float(scale)!r}\n"
        )

    def test_negative_seed_exit_5_before_the_graph_is_read(self, capsys):
        """Regression: ``--seed -5`` ended in numpy's raw ``ValueError:
        expected non-negative integer`` traceback, after the graph was
        read."""
        code = main(
            ["count", "--pattern", "PG1", "--edge-list", "/nonexistent",
             "--seed", "-5"]
        )
        assert code == 5
        assert capsys.readouterr().err == "psgl: error: seed must be >= 0, got -5\n"

    def test_missing_edge_list_exit_4(self, capsys):
        code = main(
            ["count", "--pattern", "PG1", "--edge-list", "/no/such/file.txt"]
        )
        assert code == 4
        err = capsys.readouterr().err
        assert err == "psgl: error: /no/such/file.txt: No such file or directory\n"

    def test_edge_list_directory_exit_4(self, tmp_path, capsys):
        code = main(["count", "--pattern", "PG1", "--edge-list", str(tmp_path)])
        assert code == 4
        assert capsys.readouterr().err == f"psgl: error: {tmp_path}: Is a directory\n"

    def test_lane_that_cannot_start_exit_5(self, er_edge_list, capsys, monkeypatch):
        """``os.fork`` failing with ``EAGAIN`` (a pid limit) is the
        engine's typed error, exit 5 — not exit 4, the code for a bad
        path."""
        real_fork, forks = os.fork, []

        def second_fork_fails():
            forks.append(os.getpid())
            if len(forks) == 2:
                raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))
            return real_fork()

        monkeypatch.setattr(os, "fork", second_fork_fails)
        code = main(["count", "--pattern", "PG1", "--edge-list", str(er_edge_list),
                     "--workers", "4", "--backend", "process", "--procs", "3"])
        assert code == 5
        err = capsys.readouterr().err
        assert err.startswith("psgl: error: could not start process lane 2 of 3: ")
        assert "Resource temporarily unavailable" in err

    def test_allocation_failure_exit_8(self, er_edge_list, capsys, monkeypatch):
        """A ``MemoryError`` out of the expansion (numpy's names the
        allocation) is one line and exit 8, never a traceback."""
        from repro.core.listing import PSgLProgram

        def out_of_memory(self, ctx, columns):
            raise MemoryError("Unable to allocate 8.00 GiB for an array")

        monkeypatch.setattr(PSgLProgram, "compute_columns", out_of_memory)
        code = main(["count", "--pattern", "PG1", "--edge-list", str(er_edge_list),
                     "--workers", "4"])
        assert code == 8
        assert capsys.readouterr().err == (
            "psgl: error: out of memory: Unable to allocate 8.00 GiB for an array\n"
        )

    def test_allocation_failure_on_a_child_lane_exit_8(
        self, er_edge_list, capsys, monkeypatch
    ):
        """Only the child lane runs out: its ``("err", MemoryError)``
        reply is re-raised on the driver, which exits 8 with one line and
        leaves no lane behind."""
        from repro.core.listing import PSgLProgram

        from .test_runtime_schedule import children

        driver, real_compute = os.getpid(), PSgLProgram.compute_columns

        def child_out_of_memory(self, ctx, columns):
            if os.getpid() != driver:
                raise MemoryError()
            return real_compute(self, ctx, columns)

        monkeypatch.setattr(PSgLProgram, "compute_columns", child_out_of_memory)
        before = children()
        code = main(["count", "--pattern", "PG1", "--edge-list", str(er_edge_list),
                     "--workers", "4", "--backend", "process", "--procs", "2"])
        assert code == 8
        err = capsys.readouterr().err
        assert err == "psgl: error: out of memory: MemoryError\n"
        assert "Traceback" not in err
        assert children() == before

    def test_convert_into_a_directory_exit_4(self, tmp_path, capsys):
        source = tmp_path / "k4.txt"
        write_edge_list(complete_graph(4), source)
        target = tmp_path / "out"
        target.mkdir()
        code = main(["convert", str(source), str(target)])
        assert code == 4
        assert capsys.readouterr().err == f"psgl: error: {target}: Is a directory\n"
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["k4.txt", "out"]

    @pytest.mark.parametrize("staging", ["target", "tmp-dir"])
    def test_convert_staging_failure_names_the_users_path(
        self, tmp_path, capsys, staging
    ):
        """The target's directory cannot be created: the error names the
        path the user typed, and nothing is left behind.  Nothing is
        staged on disk, so ``--tmp-dir`` is no option: a usage error,
        exit 2, before anything is created."""
        source = tmp_path / "k4.txt"
        write_edge_list(complete_graph(4), source)
        blocker = tmp_path / "a-file"
        blocker.write_text("")
        if staging == "target":
            named = blocker / "g.csrbin"
            code = main(["convert", str(source), str(named)])
            assert code == 4
            err = capsys.readouterr().err
            assert err.startswith(f"psgl: error: {named}: ")
            assert err.count("\n") == 1
        else:
            with pytest.raises(SystemExit) as refused:
                main(["convert", str(source), str(tmp_path / "g.csrbin"),
                      "--tmp-dir", str(blocker / "tmp")])
            assert refused.value.code == 2
            err = capsys.readouterr().err
            assert "unrecognized arguments: --tmp-dir" in err
        assert "Traceback" not in err
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["a-file", "k4.txt"]

    @pytest.mark.parametrize("command", ["count", "convert"])
    def test_id_outside_int64_is_a_format_error(self, tmp_path, capsys,
                                                command):
        """An id that does not fit ``int64`` used to end in a raw
        ``OverflowError`` traceback, exit 1: it is one line naming the
        file's line, exit 4, and nothing is written."""
        source = tmp_path / "big.txt"
        source.write_text("0 1\n1 99999999999999999999\n")
        if command == "count":
            argv = ["count", "--pattern", "PG1", "--edge-list", str(source)]
        else:
            argv = ["convert", str(source), str(tmp_path / "g.csrbin")]
        assert main(argv) == 4
        err = capsys.readouterr().err
        assert err == (
            "psgl: error: line 2: id outside the int64 range in "
            "'1 99999999999999999999'\n"
        )
        assert sorted(p.name for p in tmp_path.iterdir()) == ["big.txt"]

    @pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs Linux /proc")
    def test_convert_into_proc_names_the_target(self, tmp_path, capsys):
        source = tmp_path / "k4.txt"
        write_edge_list(complete_graph(4), source)
        code = main(["convert", str(source), "/proc/x.csrbin"])
        assert code == 4
        err = capsys.readouterr().err
        assert err.startswith("psgl: error: /proc/x.csrbin: ")
        assert ".pairs" not in err and ".keys" not in err

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
            # The thread backend is retired (argparse refuses it, exit 2):
            # this leg checks procs on the backend that ignores it.
            ["--backend", "serial", "--procs", "0"],
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
        assert "Traceback" not in err and "/no/such/file.txt" not in err

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
        assert client.info()["graph"]["name"] == str(edge_list)


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
