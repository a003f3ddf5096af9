"""Unit tests for the BSP engine, its barrier, metrics and
partitions."""

import numpy as np
import pytest

from repro.bsp import (
    BSPEngine,
    BSPResult,
    ComputeContext,
    CostLedger,
    VertexProgram,
)
from repro.bsp.message import deliver
from repro.exceptions import BudgetExceededError, EngineError, SimulatedOOMError
from repro.graph import Graph, Partition, hash_partition, random_partition
from repro.obs import Tracer
from repro.runtime import WorkerStepResult

from .programs import Ripple, payload_columns


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


class TestEngineBasics:
    def test_two_superstep_echo(self):
        """Superstep 0: every vertex pings each neighbour with its id;
        superstep 1: the pings arrive, nothing further is sent."""
        g = path_graph(4)
        engine = BSPEngine(g, hash_partition(4, 2))
        program = Ripple(rounds=1)
        result = engine.run(program)
        assert result.supersteps == 2
        assert sorted(program.pings) == [
            (1, 0, 1), (1, 1, 0), (1, 1, 2), (1, 2, 1), (1, 2, 3), (1, 3, 2),
        ]
        assert program.hops == 6
        assert program.seen == {0: 1, 1: 2, 2: 2, 3: 1}

    def test_messages_counted(self):
        g = path_graph(4)
        result = BSPEngine(g, hash_partition(4, 2)).run(Ripple(rounds=1))
        assert result.ledger.total_messages() == 6  # 2 * |E|

    def test_makespan_positive(self):
        g = path_graph(5)
        result = BSPEngine(g, hash_partition(5, 2)).run(Ripple(rounds=1))
        assert result.makespan > 0

    def test_partition_size_mismatch_rejected(self):
        g = path_graph(4)
        with pytest.raises(EngineError):
            BSPEngine(g, hash_partition(3, 2))

    def test_program_without_messages_halts_after_one_superstep(self):
        result = BSPEngine(path_graph(3), hash_partition(3, 1)).run(
            Ripple(rounds=0)
        )
        assert result.supersteps == 1

    def test_max_supersteps_guard(self):
        """One superstep cap, ``superstep_budget``: crossing it is a budget
        kill, by default at 1000 supersteps for a program that never
        halts."""
        engine = BSPEngine(path_graph(2), hash_partition(2, 1), superstep_budget=5)
        with pytest.raises(BudgetExceededError) as killed:
            engine.run(Ripple(rounds=100))
        assert (killed.value.resource, killed.value.budget) == ("supersteps", 5)
        with pytest.raises(BudgetExceededError) as killed:
            BSPEngine(path_graph(2), hash_partition(2, 1)).run(Ripple(rounds=10**6))
        assert (killed.value.resource, killed.value.budget) == ("supersteps", 1000)
        assert killed.value.used == 1000

    def test_initial_active_subset(self):
        class OnlyZero(Ripple):
            def initial_active_vertices(self, graph):
                return [0]

        program = OnlyZero(rounds=1)
        result = BSPEngine(path_graph(4), hash_partition(4, 2)).run(program)
        assert sum(result.ledger.steps[0].worker_compute_calls) == 1
        assert program.pings == [(1, 1, 0)]  # only vertex 0 pinged

    def test_memory_budget_triggers_oom(self):
        # Superstep 0 puts 6 pings in flight.
        engine = BSPEngine(path_graph(4), hash_partition(4, 2), memory_budget=5)
        with pytest.raises(SimulatedOOMError):
            engine.run(Ripple(rounds=1))

    def test_worker_state_persists_across_supersteps(self):
        class Counter(VertexProgram):
            totals = {}

            def initialize_columns(self, ctx, vertices):
                self.tick(ctx, len(vertices))
                ctx.send_columns(payload_columns(vertices, vertices))

            def compute_columns(self, ctx, columns):
                self.tick(ctx, len(columns))

            def tick(self, ctx, vertices):
                ctx.worker_state["n"] = ctx.worker_state.get("n", 0) + vertices
                Counter.totals[ctx.worker_id] = ctx.worker_state["n"]

        Counter.totals = {}
        BSPEngine(path_graph(4), hash_partition(4, 2)).run(Counter())
        # each worker computed its 2 vertices twice (superstep 0 and 1)
        assert all(n == 4 for n in Counter.totals.values())


class TestOneWayHome:
    def test_the_state_delta_is_the_only_channel(self):
        """A worker's effects reach the driver only through the program's
        state delta: the aggregator plane, ``emit`` and the outputs list
        are gone, and no trace event counts outputs."""
        with pytest.raises(ModuleNotFoundError):
            import repro.bsp.aggregate  # noqa: F401
        for name in ("emit", "aggregate", "aggregated"):
            assert not hasattr(ComputeContext, name), name
        for name in ("aggregators", "persistent_aggregators"):
            assert not hasattr(VertexProgram, name), name
        assert not set(BSPResult.__slots__) & {"outputs", "aggregated"}
        assert not set(WorkerStepResult.__slots__) & {"outputs", "agg_contribs"}
        tracer = Tracer()
        program = Ripple(rounds=1)
        BSPEngine(path_graph(4), hash_partition(4, 2), trace=tracer).run(program)
        assert program.hops == 6
        assert tracer.by_kind("worker") and tracer.by_kind("job")
        assert not any("outputs" in event.data for event in tracer.events)


class TestMessageStore:
    """The barrier: packed rows in, per-worker deliveries out."""

    OWNERS = Partition(np.array([0, 1, 0, 1, 0, 1]), 2).owner_array

    def deliver(self, *sends):
        return deliver([[payload_columns(*s)] for s in sends], self.OWNERS, 2)

    def test_add_take(self):
        batches, inbound = self.deliver(([2, 2], [7, 8]))
        assert inbound == [2, 0]
        assert len(batches[0]) == 1
        assert batches[0].columns.mapping.tolist() == [[2, 7], [2, 8]]

    def test_take_missing_vertex(self):
        batches, _ = self.deliver(([2], [1]))
        assert not len(batches[1])

    def test_destinations(self):
        batches, inbound = self.deliver(([4, 1, 2, 4], [0, 1, 2, 3]))
        # Per owning worker, the next superstep's active set in first-send
        # order, each vertex's rows together.
        assert (len(batches[0]), len(batches[1]), inbound) == (2, 1, [3, 1])
        assert batches[0].columns.mapping[:, 0].tolist() == [4, 4, 2]
        assert batches[0].columns.mapping[:, 1].tolist() == [0, 3, 2]
        assert batches[1].columns.mapping[:, 0].tolist() == [1]

    def test_bool(self):
        """Nothing sent delivers nothing: every batch is falsy."""
        batches, inbound = self.deliver()
        assert not any(batches) and inbound == [0, 0]
        batches, inbound = self.deliver(([0], [1]))
        assert batches[0] and not batches[1] and inbound == [1, 0]


class TestCostLedger:
    def test_makespan_is_sum_of_maxima(self):
        ledger = CostLedger(2)
        ledger.begin_superstep(0)
        ledger.add_cost(0, 10.0)
        ledger.add_cost(1, 4.0)
        ledger.end_superstep(0)
        ledger.begin_superstep(1)
        ledger.add_cost(0, 1.0)
        ledger.add_cost(1, 7.0)
        ledger.end_superstep(0)
        assert ledger.makespan() == 17.0
        assert ledger.total_cost() == 22.0

    def test_worker_totals(self):
        ledger = CostLedger(2)
        ledger.begin_superstep(0)
        ledger.add_cost(0, 3.0)
        ledger.end_superstep(0)
        assert ledger.worker_totals() == [3.0, 0.0]

    def test_imbalance_balanced(self):
        ledger = CostLedger(2)
        ledger.begin_superstep(0)
        ledger.add_cost(0, 5.0)
        ledger.add_cost(1, 5.0)
        ledger.end_superstep(0)
        assert ledger.imbalance() == 1.0

    def test_imbalance_empty(self):
        assert CostLedger(3).imbalance() == 1.0

    def test_oom_raised_at_barrier(self):
        ledger = CostLedger(1, memory_budget=10)
        ledger.begin_superstep(0)
        with pytest.raises(SimulatedOOMError):
            ledger.end_superstep(live_messages=11)

    def test_peak_live_tracked(self):
        ledger = CostLedger(1)
        ledger.begin_superstep(0)
        ledger.end_superstep(live_messages=42)
        ledger.begin_superstep(1)
        ledger.end_superstep(live_messages=7)
        assert ledger.peak_live_messages == 42

    def test_summary_keys(self):
        ledger = CostLedger(1)
        ledger.begin_superstep(0)
        ledger.end_superstep(0)
        summary = ledger.summary()
        assert {"supersteps", "makespan", "total_cost", "messages"} <= set(summary)

    def test_misuse_raises_engine_error_not_assert(self):
        """Regression: "no superstep in progress" was a bare ``assert``,
        which vanishes under ``python -O`` and silently corrupted the
        ledger; it must be a real EngineError on every path."""
        ledger = CostLedger(2)
        with pytest.raises(EngineError):
            ledger.add_cost(0, 1.0)
        with pytest.raises(EngineError):
            ledger.add_messages(0, 2)
        with pytest.raises(EngineError):
            ledger.add_compute(0, 2)
        with pytest.raises(EngineError):
            ledger.end_superstep(live_messages=0)

    def test_double_begin_raises(self):
        ledger = CostLedger(1)
        ledger.begin_superstep(0)
        with pytest.raises(EngineError):
            ledger.begin_superstep(1)


class TestPartitions:
    def test_random_partition_covers_all(self):
        p = random_partition(100, 7, seed=1)
        assert sum(p.sizes()) == 100

    def test_owner_consistent_with_vertices_of(self):
        p = random_partition(50, 4, seed=2)
        for w in range(4):
            for v in p.vertices_of(w):
                assert p.owner(int(v)) == w
