"""What is left of the work-stealing schedule once it was retired.

Stealing cut each owner's delivered batch into ``(owner, seq)`` tasks
and let idle lanes run them.  Process lanes are now the one pool, and a
superstep's units are dealt to them whole, so ``steal`` and
``steal_tasks`` are refused by name, with the hint that says so
(:data:`repro.bsp.config.RETIRED`).  Two things survive and are pinned
here: the knobs' refusal, and the way a delivered batch is cut into
``compute_columns`` blocks — at row ranges, wherever they fall.
"""

import pytest

from repro.bsp import BSPEngine
from repro.bsp.message import PackedWorkerBatch
from repro.exceptions import EngineError
from repro.graph import hash_partition
from repro.graph.generators import erdos_renyi
from repro.runtime import executor

from .parity import assert_illegal

GRAPH = erdos_renyi(40, 0.25, seed=7)

RETIRED_STEAL = "unknown steal: not an execution field .*work stealing is retired"
RETIRED_TASKS = "unknown steal_tasks: not an execution field .*steal tasks are retired"


# ----------------------------------------------------------------------
# Knob validation: the retired names are refused, whatever else is asked
# ----------------------------------------------------------------------
class TestValidation:
    def test_steal_requires_columnar_wire(self):
        # Named beside the retired object plane, the retired field is the
        # first name refused.
        assert_illegal(dict(steal=True, wire="object"), RETIRED_STEAL)

    def test_steal_requires_strict_shuffle(self):
        assert_illegal(dict(steal=True, shuffle="pipelined"), RETIRED_STEAL)

    def test_steal_tasks_without_steal_rejected(self):
        assert_illegal(dict(steal_tasks=64), RETIRED_TASKS)

    def test_steal_tasks_must_be_positive(self):
        assert_illegal(dict(steal=True, steal_tasks=0), RETIRED_STEAL)

    def test_steal_needs_task_expansion_program(self):
        # There is no task-expansion contract left to need: the engine
        # refuses the knob at construction, before any program is seen.
        with pytest.raises(EngineError, match="process lanes are the one pool"):
            BSPEngine(GRAPH, hash_partition(GRAPH.num_vertices, 4), steal=True)


# ----------------------------------------------------------------------
# How the schedule cuts a delivered batch into compute calls
# ----------------------------------------------------------------------
def make_batch(vertices, counts):
    """A minimal PackedWorkerBatch: ``counts[i]`` rows are delivered to
    ``vertices[i]``."""

    class FakeColumns:
        def __init__(self, lo, hi):
            self.lo, self.hi = lo, hi

        def row_slice(self, a, b):
            return FakeColumns(self.lo + a, self.lo + b)

        def __len__(self):
            return self.hi - self.lo

    return PackedWorkerBatch(len(vertices), FakeColumns(0, int(sum(counts))))


def blocks(monkeypatch, batch, block_rows):
    """The ``[lo, hi)`` row blocks ``batch`` reaches ``compute_columns``
    in, with ``block_rows`` rows per call."""
    calls = []

    class Recorder:
        def compute_columns(self, ctx, columns):
            calls.append((columns.lo, columns.hi))

    monkeypatch.setattr(executor, "EXPAND_BLOCK_ROWS", block_rows)
    active = executor._compute_batch(Recorder(), None, batch)
    assert active == batch.num_vertices  # compute_calls: active vertices
    return calls


class TestSplitBatch:
    def test_cuts_at_row_ranges(self, monkeypatch):
        # Vertex boundaries (3, 6, 9) are not where the cuts fall.
        batch = make_batch([10, 11, 12, 13], [3, 3, 3, 3])
        assert blocks(monkeypatch, batch, 5) == [(0, 5), (5, 10), (10, 12)]

    def test_oversized_vertex_splits_across_tasks(self, monkeypatch):
        batch = make_batch([1, 2, 3], [2, 50, 2])
        cuts = blocks(monkeypatch, batch, 8)
        assert [hi - lo for lo, hi in cuts] == [8] * 6 + [6]
        assert cuts[0][0] == 0 and cuts[-1][1] == 54

    def test_single_task_when_under_budget(self, monkeypatch):
        batch = make_batch([4, 5], [2, 2])
        assert blocks(monkeypatch, batch, 100) == [(0, 4)]
