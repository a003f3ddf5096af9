"""Tests for the work-stealing superstep schedule (``steal=True``).

The schedule's contract is *determinism under dynamic placement*: tasks
may run on any lane in any order, but the finalized results — instances,
ledgers, probe statistics, RNG streams — must be bit-identical to the
static schedule's.  These tests pin that contract on every backend,
force a straggler to prove steals actually happen, and check the knob
validation and observability surfaces.
"""

import time
from functools import lru_cache

import numpy as np
import pytest

from repro.bsp import BSPEngine, ExecutionConfig, VertexProgram
from repro.bsp.message import PackedWorkerBatch
from repro.core import PSgL
from repro.core.listing import PSgLProgram
from repro.exceptions import EngineError
from repro.graph import hash_partition
from repro.graph.generators import erdos_renyi
from repro.obs import Tracer, straggler_report
from repro.pattern import paper_patterns
from repro.runtime.process import ProcessExecutor
from repro.runtime.stealing import split_batch

from .parity import assert_equivalent, assert_illegal, reference_run

GRAPH = erdos_renyi(40, 0.25, seed=7)


@lru_cache(maxsize=None)
def reference(pattern_name="PG3"):
    return reference_run(GRAPH, pattern_name)


def stolen(pattern_name="PG3", steal_tasks=16, **config):
    """A steal run, already checked bit-identical to the reference."""
    return assert_equivalent(
        ExecutionConfig(steal=True, steal_tasks=steal_tasks, **config),
        reference(pattern_name),
    )


# ----------------------------------------------------------------------
# Bit-identical parity: dynamic schedule vs reference, every backend
# ----------------------------------------------------------------------
class TestParity:
    @pytest.mark.parametrize("pattern_name", ["PG1", "PG3", "PG5"])
    def test_serial_steal_matches_static(self, pattern_name):
        # One lane can never run a task off its owner's home lane.
        assert stolen(pattern_name).steals == 0

    @pytest.mark.parametrize("pattern_name", ["PG2", "PG3"])
    def test_thread_steal_matches_static(self, pattern_name):
        stolen(pattern_name, backend="thread")

    def test_process_steal_matches_static(self):
        stolen("PG2", backend="process", procs=2)

    def test_spawn_steal_matches_static(self):
        # spawn re-imports everything in the children: the strictest
        # pickling path the steal tasks must survive.
        stolen("PG2", backend=ProcessExecutor(procs=2, start_method="spawn"))

    def test_steal_composes_with_native_kernel(self, monkeypatch):
        from repro.core import kernels

        if not kernels.HAVE_NUMBA:
            monkeypatch.setattr(kernels, "ALLOW_INTERPRETED", True)
        stolen("PG3", backend="thread", kernel="native")


# ----------------------------------------------------------------------
# The point of the exercise: a forced straggler gets robbed
# ----------------------------------------------------------------------
class TestForcedStraggler:
    def test_straggler_tasks_get_stolen_bit_identically(self, monkeypatch):
        # Sleep-inject the pure half for one slice of the data vertices
        # (the rows' own destinations): whichever owner holds them
        # becomes the straggler, and idle lanes (sleeps release the GIL)
        # must steal its remaining tasks.
        real_expand = PSgLProgram.expand_task

        def slow_expand(self, columns, edge_index=None):
            dest = columns.mapping[np.arange(columns.n), columns.next_vertex]
            time.sleep(0.002 * np.count_nonzero(dest % 4 == 0))
            return real_expand(self, columns, edge_index)

        monkeypatch.setattr(PSgLProgram, "expand_task", slow_expand)
        tracer = Tracer()
        robbed = assert_equivalent(
            ExecutionConfig(steal=True, steal_tasks=8, backend="thread"),
            reference("PG3"),
            trace=tracer,
        )
        assert robbed.steals > 0

        events = tracer.by_kind("steal")
        assert len(events) == robbed.steals
        lanes = set()
        for event in events:
            assert event.data["rows"] > 0
            # worker names the *victim* — the owner whose task migrated —
            # and a stolen task is never the owner's first: its lane
            # differs from the lane that ran the victim's ``seq 0`` task.
            assert 0 <= event.worker < 4
            assert event.data["seq"] > 0
            lanes.add(event.data["lane"])
        assert 1 <= len(lanes) <= 4  # thread idents of the 4-wide pool

        report = straggler_report(tracer)
        assert "stolen away" in report
        assert "ran off their owner's lane" in report

    def test_static_run_emits_no_steal_events(self):
        tracer = Tracer()
        result = PSgL(GRAPH, backend="thread", trace=tracer).run(
            paper_patterns()["PG3"]
        )
        assert result.steals == 0
        assert tracer.by_kind("steal") == []


# ----------------------------------------------------------------------
# Knob validation
# ----------------------------------------------------------------------
class TestValidation:
    def test_steal_requires_columnar_wire(self):
        assert_illegal(dict(steal=True, wire="object"), "columnar")

    def test_steal_requires_strict_shuffle(self):
        assert_illegal(dict(steal=True, shuffle="pipelined"), "strict")

    def test_steal_tasks_without_steal_rejected(self):
        assert_illegal(dict(steal_tasks=64), "steal_tasks")

    def test_steal_tasks_must_be_positive(self):
        assert_illegal(dict(steal=True, steal_tasks=0), "steal_tasks")

    def test_steal_needs_task_expansion_program(self):
        # A program with a monolithic compute_columns has no pure half
        # to relocate, so the engine refuses rather than silently
        # running the static schedule.
        class Monolithic(VertexProgram):
            supports_columnar_compute = True

            def compute(self, ctx, messages):
                pass

        engine = BSPEngine(GRAPH, hash_partition(GRAPH.num_vertices, 4), steal=True)
        with pytest.raises(EngineError, match="task-expansion"):
            engine.run(Monolithic())


# ----------------------------------------------------------------------
# Scheduler internals
# ----------------------------------------------------------------------
def make_batch(vertices, counts, width=3):
    """A minimal PackedWorkerBatch-shaped object for split_batch."""

    class FakeColumns:
        def __init__(self, lo, hi):
            self.lo, self.hi = lo, hi

        def row_slice(self, a, b):
            return FakeColumns(self.lo + a, self.lo + b)

        def __len__(self):
            return self.hi - self.lo

    batch = PackedWorkerBatch.__new__(PackedWorkerBatch)
    batch.vertices = np.asarray(vertices, dtype=np.int64)
    batch.counts = np.asarray(counts, dtype=np.int64)
    batch.columns = FakeColumns(0, int(sum(counts)))
    return batch


class TestSplitBatch:
    def test_cuts_at_row_ranges(self):
        # Vertex boundaries (3, 6, 9) are not where the cuts fall.
        batch = make_batch([10, 11, 12, 13], [3, 3, 3, 3])
        tasks = split_batch(7, batch, task_rows=5)
        assert [t.seq for t in tasks] == [0, 1, 2]
        assert all(t.owner == 7 for t in tasks)
        assert [t.rows for t in tasks] == [5, 5, 2]
        # Row slices tile the batch contiguously.
        assert [(t.columns.lo, t.columns.hi) for t in tasks] == [
            (0, 5), (5, 10), (10, 12),
        ]

    def test_oversized_vertex_splits_across_tasks(self):
        batch = make_batch([1, 2, 3], [2, 50, 2])
        tasks = split_batch(0, batch, task_rows=8)
        assert [t.rows for t in tasks] == [8] * 6 + [6]
        assert tasks[0].columns.lo == 0 and tasks[-1].columns.hi == 54

    def test_single_task_when_under_budget(self):
        batch = make_batch([4, 5], [2, 2])
        tasks = split_batch(1, batch, task_rows=100)
        assert len(tasks) == 1
        assert tasks[0].rows == 4
