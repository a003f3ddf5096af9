"""The engine against the paper-faithful oracle: one differential check.

PSgL runs one engine (``docs/perf.md``): packed chunks through one
barrier store, ``expand_columns``, ``choose_many``.  The paper's own
statement of the job — one ``Gpsi`` object per message, scalar
``expand_gpsi`` and ``choose`` — is not a second plane but the oracle,
:func:`repro.core.reference.run_reference`.  The engine has one delivery
schedule (each outbox crosses the barrier whole) and a backend, reads
its graph from memory or from a memory-mapped ``.csrbin``, and none of
them may change *what* a run computes.  This file
pins that in one place: every engine configuration against the oracle —
counts, instances, probe statistics, per-worker ledgers (which pin the
RNG-dependent routing step by step) — and the exact wire bytes across
all engine configurations.

Also here: the engine's one payload (self-addressed packed columns, no
``Gpsi`` object, exact wire bytes) and the plane guards.
"""

import dataclasses
from functools import lru_cache

import pytest

from repro.bsp import ExecutionConfig
from repro.core import Gpsi, PSgL
from repro.exceptions import EngineError
from repro.graph.binfmt import load_mapped, write_csrbin
from repro.graph.generators import chung_lu_power_law, erdos_renyi
from repro.core.psi import row_bytes
from repro.obs import Tracer
from repro.pattern import paper_patterns

from .parity import (
    assert_equivalent,
    assert_illegal,
    assert_outboxes_cross_whole,
    reference_run,
)

GRAPHS = {
    "er": erdos_renyi(28, 0.25, seed=13),
    "powerlaw": chung_lu_power_law(30, gamma=2.5, avg_degree=4, seed=5),
}

#: The schedule axis keeps both of its ids.  ``pipelined`` named the
#: retired streaming schedule: its legs ask for it, are refused with the
#: retired hint, then run the one schedule traced and pin that every
#: worker's outbox crossed the barrier whole.
SCHEDULES = ["strict", "pipelined"]

#: The graph axis keeps the ids of the storage axis it replaced.
#: ``spill`` named the retired spill plane: its legs ask for it, are
#: refused with the retired hint, then run on the oracle's graph written
#: to ``.csrbin`` and memory-mapped back, the out-of-core graph.
STORAGE_IDS = ["memory", "spill"]


@lru_cache(maxsize=None)
def reference(pattern_name, graph="er", strategy="WA,0.5"):
    """The oracle run on one of this file's inputs."""
    return reference_run(
        GRAPHS[graph], pattern_name, strategy=strategy, seed=3
    )


@lru_cache(maxsize=None)
def production_baseline(pattern_name):
    """Serial / in-memory engine run: the wire-byte yardstick."""
    return assert_equivalent(ExecutionConfig(), reference(pattern_name))


def wire_bytes(result):
    return [step.worker_wire_bytes for step in result.ledger.steps]


def production_config(backend):
    """``backend``'s leg.  The backend axis keeps its ``thread`` id: the
    thread backend is retired, so a ``thread`` leg asks for it, is
    refused with the retired hint, then runs on three process lanes — a
    width no ``process`` leg deals to."""
    kwargs = dict(backend=backend)
    if backend == "thread":
        with pytest.raises(EngineError, match="thread backend is retired"):
            ExecutionConfig(backend=backend)
        kwargs = dict(backend="process", procs=3)
    elif backend != "serial":
        kwargs["procs"] = 2
    return ExecutionConfig(**kwargs)


def mapped(reference, tmp_path):
    """``reference`` with its graph written to ``.csrbin`` and opened
    back as memory-mapped views: a run on it must equal the oracle's run
    on the in-memory graph."""
    with pytest.raises(EngineError, match="spill plane is retired"):
        ExecutionConfig().with_overrides(spill_dir=str(tmp_path))
    path = tmp_path / "graph.csrbin"
    write_csrbin(reference.graph, path)
    return dataclasses.replace(reference, graph=load_mapped(path))


def run_schedule(schedule, config, reference):
    """``config`` against the oracle on ``schedule``'s leg (see
    :data:`SCHEDULES`)."""
    if schedule == "strict":
        return assert_equivalent(config, reference)
    with pytest.raises(EngineError, match="ships each outbox whole"):
        config.with_overrides(shuffle=schedule)
    tracer = Tracer()
    result = assert_equivalent(config, reference, trace=tracer)
    assert_outboxes_cross_whole(tracer, result)
    return result


class TestReferenceVsProduction:
    """Every engine configuration against the oracle."""

    @pytest.mark.parametrize("on_disk", [False, True], ids=STORAGE_IDS)
    @pytest.mark.parametrize("schedule", SCHEDULES)
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("pattern_name", sorted(paper_patterns()))
    def test_matrix(self, pattern_name, backend, schedule, on_disk, tmp_path):
        oracle = reference(pattern_name)
        if on_disk:
            oracle = mapped(oracle, tmp_path)
            assert oracle.graph.mmap_spec is not None
        result = run_schedule(schedule, production_config(backend), oracle)
        assert wire_bytes(result) == wire_bytes(
            production_baseline(pattern_name)
        )

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("strategy", ["random", "roulette", "WA,0"])
    @pytest.mark.parametrize("pattern_name", ["PG2", "PG5"])
    def test_rng_routing_per_strategy(self, pattern_name, strategy, backend):
        """Each strategy's ``choose_many`` must replay its scalar
        ``choose`` RNG stream draw for draw."""
        assert_equivalent(
            production_config(backend),
            reference(pattern_name, "powerlaw", strategy),
        )

    def test_byte_watermark_and_thread_pool_width(self):
        """Skewed outbox sizes (powerlaw graph) on fewer lanes than
        workers deliver identically.  The byte watermark this test once
        varied is retired (each outbox crosses whole), and so is the
        thread pool: the lanes are processes."""
        assert_equivalent(
            ExecutionConfig(backend="process", procs=3),
            reference("PG3", "powerlaw"),
        )

    def test_trace_totals_identical(self):
        """A traced run records the oracle's per-worker cost totals and
        summary (``wire_bytes`` and the chunk fields ride alongside on
        the barrier events, changing nothing)."""
        tracer = Tracer()
        assert_equivalent(ExecutionConfig(), reference("PG2"), trace=tracer)
        ledger = reference("PG2").result.ledger
        assert tracer.worker_totals() == ledger.worker_totals()
        assert tracer.summary() == ledger.summary()
        for event in tracer.by_kind("barrier"):
            assert "wire_bytes" in event.data


class TestDefaults:
    def test_production_plane_is_the_default(self):
        """``columnar`` is the only plane: the default, and still
        accepted by name; the scalar path is not selectable."""
        graph = GRAPHS["er"]
        pattern = paper_patterns()["PG1"]
        assert PSgL(graph).config.wire == "columnar"
        assert PSgL(graph, wire="columnar").count(pattern) == (
            reference("PG1").result.count
        )
        with pytest.raises(EngineError, match="unknown wire 'object'"):
            PSgL(graph, wire="object")

    def test_exact_wire_bytes_on_production_only(self):
        """The engine records the exact bytes it shipped; the oracle
        moves no buffers and records none."""
        col = production_baseline("PG2")
        per_step = [sum(step) for step in wire_bytes(col)]
        assert sum(per_step) == col.ledger.total_wire_bytes() > 0
        assert reference("PG2").result.ledger.total_wire_bytes() == 0


class TestOnePayload:
    """The engine moves self-addressed ``GpsiColumns`` from superstep 0
    to delivery, and nothing else."""

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_builds_no_gpsi_or_message(self, monkeypatch, backend):
        expected = reference("PG2")  # computed before anything is patched

        def refuse(*args, **kwargs):
            raise AssertionError("the engine built a per-row object")

        monkeypatch.setattr(Gpsi, "__init__", refuse)
        assert_equivalent(
            production_config(backend), expected
        )

    @pytest.mark.parametrize("pattern_name", ["PG1", "PG2", "PG4", "PG5"])
    def test_wire_bytes_are_the_packed_columns_only(self, pattern_name):
        """Per step and worker: rows x (4k mapping + 4 per 32-bit BLACK
        word + 1 next-vertex byte) — no destination column."""
        row = row_bytes(paper_patterns()[pattern_name].num_vertices)
        result = production_baseline(pattern_name)
        for step in result.ledger.steps:
            assert step.worker_wire_bytes == [
                row * sent for sent in step.worker_messages
            ]


class TestPlaneGuards:
    def test_unknown_wire_plane_rejected(self):
        assert_illegal(dict(wire="quantum"), "unknown wire")

    @pytest.mark.parametrize(
        "kwargs,match",
        [
            (dict(shuffle="pipelined"), "ships each outbox whole"),
            (dict(steal=True), "work stealing is retired"),
            (dict(spill_dir="unused"), "spill plane is retired"),
        ],
        ids=["pipelined", "steal", "spill"],
    )
    def test_reference_plane_refuses_production_features(self, kwargs, match):
        """The reference plane is no longer selectable: naming it is an
        unknown wire whatever else is asked for, and the refusal points
        at the one plane.  A retired field beside it is refused first,
        by name, pointing at the one schedule, the one pool or the
        retired spill plane."""
        assert_illegal(dict(wire="object", **kwargs), match)
