"""Concurrent PSgL drivers over shared graph assets.

The service promises that many jobs can run at once against one
resident graph without corrupting each other's results.  These tests
pin that contract at the library layer: concurrent ``PSgL.run()`` calls
— sharing the graph, the degree order, and detached views of one built
edge index — produce results bit-identical to sequential runs, and the
process backend's shared-memory exports never leak.
"""

import os
import threading
import time

import pytest

from repro.core import PSgL
from repro.core.edge_index import build_edge_index
from repro.graph import OrderedGraph, erdos_renyi
from repro.pattern import paper_patterns

from .test_runtime_schedule import children

THREADS = 4
PATTERNS = ["PG1", "PG2"]


@pytest.fixture(scope="module")
def graph():
    return erdos_renyi(60, 0.15, seed=12)


def sequential_reference(graph, backend="serial"):
    """Per-pattern (count, sorted instances) from isolated sequential runs."""
    reference = {}
    for name in PATTERNS:
        result = PSgL(graph, num_workers=4, backend=backend, seed=0).run(
            paper_patterns()[name], collect_instances=True
        )
        reference[name] = (result.count, sorted(result.instances))
    return reference


def run_concurrently(worker, n_threads=THREADS, timeout=60.0):
    """Start ``n_threads`` workers together; re-raise the first failure.
    The threads are daemons joined against one deadline, so a run that
    hangs fails the test instead of the suite."""
    results, errors = {}, []
    barrier = threading.Barrier(n_threads)

    def wrapped(idx):
        try:
            barrier.wait(5)
            results[idx] = worker(idx)
        except Exception as exc:  # noqa: BLE001 - surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=wrapped, args=(i,), daemon=True)
        for i in range(n_threads)
    ]
    for t in threads:
        t.start()
    deadline = time.monotonic() + timeout
    for t in threads:
        t.join(max(0.0, deadline - time.monotonic()))
    if errors:
        raise errors[0]
    hung = n_threads - len(results)
    assert not hung, f"{hung} of {n_threads} runs still running after {timeout}s"
    return results


class TestSharedDriverThreadBackend:
    """One driver shared by concurrent callers' threads.  The thread
    backend is retired; each caller's run computes serially on its own
    thread, which is how the service's job threads use a driver."""

    def test_concurrent_runs_bit_identical_to_sequential(self, graph):
        reference = sequential_reference(graph)
        driver = PSgL(graph, num_workers=4, backend="serial", seed=0)

        def worker(idx):
            name = PATTERNS[idx % len(PATTERNS)]
            result = driver.run(
                paper_patterns()[name], collect_instances=True
            )
            return name, result.count, sorted(result.instances)

        for name, count, instances in run_concurrently(worker).values():
            ref_count, ref_instances = reference[name]
            assert count == ref_count
            assert instances == ref_instances

    def test_lazy_index_built_once_under_contention(self, graph):
        driver = PSgL(graph, num_workers=4, backend="serial", seed=0)
        indices = []

        def worker(idx):
            driver.run(paper_patterns()["PG1"])
            indices.append(driver._edge_index)

        run_concurrently(worker)
        assert all(index is indices[0] for index in indices)


class TestSharedAssetsSeparateDrivers:
    def test_shared_order_and_detached_index_views(self, graph):
        # The service's exact sharing pattern: one OrderedGraph, one built
        # index, each concurrent job on its own driver + detached view.
        reference = sequential_reference(graph)
        ordered = OrderedGraph(graph)
        index = build_edge_index(graph, kind="bloom", seed=0)

        def worker(idx):
            name = PATTERNS[idx % len(PATTERNS)]
            driver = PSgL(
                graph,
                num_workers=4,
                backend="serial",
                seed=0,
                ordered=ordered,
                edge_index=index.detached_view(),
            )
            result = driver.run(
                paper_patterns()[name], collect_instances=True
            )
            return name, result.count, sorted(result.instances)

        for name, count, instances in run_concurrently(worker).values():
            ref_count, ref_instances = reference[name]
            assert count == ref_count
            assert instances == ref_instances

    def test_detached_views_keep_stats_private(self, graph):
        index = build_edge_index(graph, kind="bloom", seed=0)
        view_a, view_b = index.detached_view(), index.detached_view()
        PSgL(graph, num_workers=2, edge_index=view_a, seed=0).run(
            paper_patterns()["PG1"]
        )
        assert view_a.queries > 0
        assert view_b.queries == 0
        assert index.queries == 0


@pytest.mark.skipif(
    not os.path.isdir("/dev/shm"), reason="no /dev/shm on this platform"
)
class TestNoSharedMemoryLeak:
    def test_process_backend_run_releases_all_segments(self, graph):
        before = set(os.listdir("/dev/shm"))
        result = PSgL(
            graph, num_workers=2, backend="process", procs=2, seed=0
        ).run(paper_patterns()["PG1"])
        assert result.count > 0
        # Unlinking is prompt but not instantaneous under the resource
        # tracker; poll briefly before declaring a leak.
        deadline = time.monotonic() + 5
        while time.monotonic() < deadline:
            leaked = set(os.listdir("/dev/shm")) - before
            if not leaked:
                break
            time.sleep(0.05)
        assert not leaked, f"shared-memory segments leaked: {sorted(leaked)}"


@pytest.mark.skipif(
    not os.path.isdir("/proc/self/fd"), reason="needs Linux /proc"
)
class TestConcurrentProcessJobs:
    def test_concurrent_fork_lane_jobs_complete(self, graph):
        """Regression: a lane forked by one job inherited the driver-side
        pipe ends of every other job running in the process, so closing a
        job never gave its child end of file and ``close()`` waited in
        ``waitpid`` forever — four concurrent process-backend drivers hung
        in their first round.  Now each forked lane keeps only its own
        pipe pair: every round completes with the serial results and
        leaves no child, descriptor or ``/dev/shm`` entry behind."""
        reference = sequential_reference(graph)
        leftovers = lambda: (  # noqa: E731
            children(),
            sorted(os.listdir("/proc/self/fd")),
            sorted(os.listdir("/dev/shm")),
        )
        before = leftovers()

        def worker(idx):
            name = PATTERNS[idx % len(PATTERNS)]
            result = PSgL(
                graph, num_workers=4, backend="process", procs=2, seed=0
            ).run(paper_patterns()[name], collect_instances=True)
            return name, result.count, sorted(result.instances)

        for round_ in range(20):
            outcomes = run_concurrently(worker, timeout=20.0).values()
            for name, count, instances in outcomes:
                assert (count, instances) == reference[name], (round_, name)
        assert leftovers() == before
