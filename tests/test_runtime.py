"""Unit tests for the parallel runtime: CSR export, fork-inherited graph,
executor semantics, and engine regressions."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro import PSgL, triangle
from repro.bsp import BSPEngine, ComputeContext, ExecutionConfig
from repro.bsp.message import deliver
from repro.exceptions import BudgetExceededError, EngineError
from repro.graph import Graph, hash_partition, load_mapped, write_csrbin
from repro.graph.generators import erdos_renyi
from repro.obs import Tracer
from repro.runtime import default_procs

from .parity import assert_equivalent, reference_run
from .programs import Ripple, payload_columns


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestCSR:
    def test_roundtrip(self):
        g = erdos_renyi(40, 0.2, seed=7)
        indptr, indices = g.to_csr()
        assert indptr[0] == 0 and indptr[-1] == len(indices) == 2 * g.num_edges
        rebuilt = Graph.from_csr(indptr, indices)
        assert rebuilt == g
        assert rebuilt.num_edges == g.num_edges

    def test_views_not_copies(self):
        g = path_graph(5)
        indptr, indices = g.to_csr()
        rebuilt = Graph.from_csr(indptr, indices)
        assert rebuilt.neighbors(1).base is indices

    def test_empty_graph(self):
        g = Graph(0, [])
        indptr, indices = g.to_csr()
        rebuilt = Graph.from_csr(indptr, indices)
        assert rebuilt.num_vertices == 0 and rebuilt.num_edges == 0

    def test_isolated_vertices(self):
        g = Graph(4, [(0, 1)])
        rebuilt = Graph.from_csr(*g.to_csr())
        assert rebuilt == g
        assert rebuilt.degree(3) == 0


class TestForkInheritance:
    """A forked lane runs on the graph and program it inherits: nothing
    is exported to shared memory."""

    def test_fork_run_makes_no_block_and_starts_no_tracker(self):
        """In a fresh interpreter: no ``shm_open`` call (so no ``psm_*``
        entry in ``/dev/shm``), and no ``multiprocessing`` module loaded,
        so no resource-tracker process can start."""
        script = (
            "import sys, _posixshmem\n"
            "opened = []\n"
            "real_open = _posixshmem.shm_open\n"
            "def shm_open(name, *args, **kwargs):\n"
            "    opened.append(name)\n"
            "    return real_open(name, *args, **kwargs)\n"
            "_posixshmem.shm_open = shm_open\n"
            "from repro import PSgL, erdos_renyi, triangle\n"
            "g = erdos_renyi(40, 0.3, seed=3)\n"
            "parallel = PSgL(g, num_workers=4, backend='process', procs=2)\n"
            "assert parallel.count(triangle()) == PSgL(g, num_workers=4).count(triangle())\n"
            "assert opened == [], opened\n"
            "loaded = [m for m in sys.modules if m.startswith('multiprocessing')]\n"
            "assert not loaded, loaded\n"
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

    @pytest.mark.parametrize("mapped", [False, True], ids=["memory", "csrbin"])
    def test_export_event_is_the_same_under_fork_and_spawn(self, tmp_path, mapped):
        """The ``export`` event describes what the lanes share in the
        sizes both start methods reported while spawn existed, pinned
        exactly: 8 bytes per CSR entry (the file's array bytes for a
        mapped graph) and 8 per entry of the program's per-vertex arrays,
        of its rank-keyed adjacency and of the graph's edge-key table."""
        graph = erdos_renyi(30, 0.25, seed=6)
        n, m = graph.num_vertices, graph.num_edges
        if mapped:
            write_csrbin(graph, tmp_path / "g.csrbin")
            graph = load_mapped(tmp_path / "g.csrbin")
        tracer = Tracer()
        parallel = PSgL(graph, num_workers=3, backend="process", procs=2, trace=tracer)
        assert parallel.count(triangle()) == PSgL(graph, num_workers=3).count(triangle())
        (event,) = tracer.by_kind("export")
        csr = {"indptr": 8 * (n + 1), "indices": 8 * 2 * m}
        if mapped:
            csr = {"mapped_file": sum(csr.values())}
        # rank, nb, ns and the rank -> vertex map per vertex; one rank
        # key per directed edge; the table's power-of-two capacity (at
        # least 2m) and its probe tail.
        slots = (1 << (2 * m - 1).bit_length()) + graph.edge_table().max_probe
        aux = 8 * (4 * n + 2 * m + slots)
        total = sum(csr.values()) + aux
        assert dict(event.data) == {**csr, "aux": aux, "total_bytes": total}

    @pytest.mark.parametrize("procs", [1, 3])
    def test_procs_counts_computing_lanes(self, monkeypatch, procs):
        """The driver is one of ``procs`` lanes: ``procs=1`` forks no
        child, ``procs=3`` forks two, and both runs are the serial run."""
        forks = []
        real_fork = os.fork

        def counted_fork():
            forks.append(1)
            return real_fork()

        monkeypatch.setattr(os, "fork", counted_fork)
        assert_equivalent(
            ExecutionConfig(backend="process", procs=procs),
            reference_run(erdos_renyi(40, 0.25, seed=7), "PG3"),
        )
        assert len(forks) == procs - 1

    def test_default_procs_capped_by_affinity(self, monkeypatch):
        """Under a cpuset or ``taskset`` the pool is as wide as the CPUs
        this process may run on, not as the machine."""
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        assert default_procs(4) == 1
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 2, 5})
        assert default_procs(4) == 3
        assert default_procs(2) == 2
        # Where affinity is unknown, the machine's CPU count caps it.
        monkeypatch.delattr(os, "sched_getaffinity")
        assert default_procs(4) == 4
        assert default_procs(16) == 8


class TestMessageStoreBatches:
    """A worker's sends cross the barrier whole, as packed chunks."""

    def deliver(self, outboxes):
        batches, inbound = deliver(outboxes, np.zeros(8, dtype=np.int64), 1)
        assert inbound == [len(batches[0].columns)]
        return batches[0]

    def test_as_batch_merge_batch_roundtrip(self):
        ctx = ComputeContext(None, 0, 0, {})
        ctx.send_columns(payload_columns([2, 1], [10, 11]))
        ctx.send_columns(payload_columns([2], [12]))
        batch = self.deliver([ctx.sent])
        assert len(batch) == 2  # v2, then v1
        assert batch.columns.mapping.tolist() == [[2, 10], [2, 12], [1, 11]]

    def test_merge_preserves_worker_order(self):
        # Worker 0's sends precede worker 1's, whichever came first.
        batch = self.deliver([[payload_columns([5], [10])],
                              [payload_columns([6, 5], [20, 21])]])
        assert len(batch) == 2  # v5, then v6
        assert batch.columns.mapping.tolist() == [[5, 10], [5, 21], [6, 20]]


class TestBackendEquivalence:
    """Engine-level parity: every backend must reproduce the serial run."""

    def _run(self, backend, procs=2):
        g = erdos_renyi(24, 0.25, seed=9)
        program = Ripple(rounds=3)
        engine = BSPEngine(
            g, hash_partition(24, 3), backend=backend, procs=procs
        )
        result = engine.run(program)
        return program, result

    def test_thread_matches_serial(self):
        """The thread backend is retired; its leg runs one process lane
        per logical worker, a width the two-lane leg does not."""
        with pytest.raises(EngineError, match="thread backend is retired"):
            self._run("thread")
        p_serial, r_serial = self._run("serial")
        p_lanes, r_lanes = self._run("process", procs=3)
        assert p_lanes.seen == p_serial.seen
        assert p_lanes.pings == p_serial.pings
        assert p_lanes.hops == p_serial.hops
        assert r_lanes.ledger.summary() == r_serial.ledger.summary()

    def test_process_matches_serial(self):
        p_serial, r_serial = self._run("serial")
        p_proc, r_proc = self._run("process")
        assert p_proc.seen == p_serial.seen
        assert p_proc.pings == p_serial.pings
        assert p_proc.hops == p_serial.hops
        for s_serial, s_proc in zip(r_serial.ledger.steps, r_proc.ledger.steps):
            assert s_proc.worker_cost == s_serial.worker_cost
            assert s_proc.worker_messages == s_serial.worker_messages
            assert s_proc.worker_compute_calls == s_serial.worker_compute_calls

    def test_process_oom_budget_still_enforced(self):
        from repro.exceptions import SimulatedOOMError

        g = erdos_renyi(24, 0.25, seed=9)
        engine = BSPEngine(
            g,
            hash_partition(24, 3),
            memory_budget=3,
            backend="process",
            procs=2,
        )
        with pytest.raises(SimulatedOOMError):
            engine.run(Ripple(rounds=2))


class FaultyCompute(Ripple):
    """Raises while computing on one worker in superstep 1 — the
    child-failure path of the parallel backends."""

    def __init__(self):
        super().__init__(rounds=2)

    def visit(self, ctx, vertex, senders):
        if ctx.superstep == 1 and ctx.worker_id == 1:
            raise ValueError("injected child failure")
        return super().visit(ctx, vertex, senders)


class FaultyWithTeardown(FaultyCompute):
    """Module-level (picklable) variant that records post_application."""

    torn_down = False

    def post_application(self):
        FaultyWithTeardown.torn_down = True


class TestProcessChildFailure:
    """Regression: ``ProcessExecutor.run_superstep`` gathered futures in
    order, so the first child exception propagated while later futures
    kept running uncancelled — racing teardown's shared-memory unlink
    against children still scanning the CSR blocks."""

    def _engine(self, **kwargs):
        g = erdos_renyi(24, 0.3, seed=5)
        return BSPEngine(g, hash_partition(24, 3), **kwargs)

    def test_child_exception_propagates(self):
        engine = self._engine(backend="process", procs=2)
        with pytest.raises(ValueError, match="injected child failure"):
            engine.run(FaultyCompute())

    def test_outstanding_futures_drained_before_teardown(self):
        """After the failure the driver must be able to re-export and run
        again immediately: if close() had unlinked blocks under live
        children, the kernel names could linger or the pool would be
        wedged."""
        for _ in range(2):
            engine = self._engine(backend="process", procs=2)
            with pytest.raises(ValueError):
                engine.run(FaultyCompute())
        # And a healthy run on a fresh engine still succeeds.
        engine = self._engine(backend="process", procs=2)
        program = Ripple(rounds=1)
        engine.run(program)

    def test_program_torn_down_on_child_failure(self):
        FaultyWithTeardown.torn_down = False
        engine = self._engine(backend="process", procs=2)
        with pytest.raises(ValueError):
            engine.run(FaultyWithTeardown())
        assert FaultyWithTeardown.torn_down


class TestEngineTeardown:
    def test_post_application_called_on_max_supersteps(self):
        """Regression: the superstep cap (``superstep_budget``, which
        took over from the retired ``max_supersteps``) must tear the
        program down exactly like the OOM path does."""

        class PingPong(Ripple):
            torn_down = False

            def post_application(self):
                self.torn_down = True

        program = PingPong(rounds=100)
        engine = BSPEngine(
            path_graph(2), hash_partition(2, 1), superstep_budget=4
        )
        with pytest.raises(BudgetExceededError):
            engine.run(program)
        assert program.torn_down

    def test_post_application_called_once_on_success(self):
        class Silent(Ripple):
            calls = 0

            def post_application(self):
                Silent.calls += 1

        Silent.calls = 0
        BSPEngine(path_graph(3), hash_partition(3, 1)).run(Silent(rounds=0))
        assert Silent.calls == 1

    def test_shared_memory_released_after_process_run(self):
        g = erdos_renyi(20, 0.2, seed=4)
        engine = BSPEngine(
            g, hash_partition(20, 2), backend="process", procs=2
        )
        engine.run(Ripple(rounds=1))
        # A second run forks its lanes afresh: the first run's are gone.
        engine.run(Ripple(rounds=1))
