"""Reference plane vs production plane: one differential check.

PSgL has exactly two pipelines (``docs/perf.md``): the **reference**
plane (``wire="object"``: one ``Gpsi`` object per message, scalar
``expand_gpsi``) and the **production** plane (``wire="columnar"``:
packed chunks through the one barrier store, ``expand_columns``).  The
production plane has a delivery schedule (strict / pipelined), a storage
policy (spill off / forced) and a backend, and none of them may change
*what* a run computes.  This file pins that in one place: every
production configuration against the serial reference run — counts,
instances, probe statistics, per-worker ledgers (which pin the
RNG-dependent routing step by step) — and the exact wire bytes across
all production configurations.

Also here: the production plane's one payload (self-addressed packed
columns, no ``Gpsi``/``Message`` object, exact wire bytes), the automatic
fallback (a run that cannot use the production plane runs on the
reference plane and says so), and the plane guards.
"""

from dataclasses import replace
from functools import lru_cache

import pytest

from repro.bsp import BSPEngine, ExecutionConfig, Message, VertexProgram
from repro.core import Gpsi, PSgL
from repro.core.distribution import DistributionStrategy, RandomStrategy
from repro.exceptions import EngineError
from repro.graph import Graph, hash_partition
from repro.graph.generators import chung_lu_power_law, erdos_renyi
from repro.obs import Tracer
from repro.pattern import paper_patterns
from repro.runtime import ProcessExecutor

from .parity import (
    assert_equivalent,
    assert_illegal,
    reference_run,
    run_listing,
)

GRAPHS = {
    "er": erdos_renyi(28, 0.25, seed=13),
    "powerlaw": chung_lu_power_law(30, gamma=2.5, avg_degree=4, seed=5),
}

#: Tiny watermark so even the 28-vertex graphs stream many chunks per
#: superstep — pipelined legs exercise real interleaving, not the
#: degenerate everything-in-the-residual case.
TINY_CHUNK = 4


@lru_cache(maxsize=None)
def reference(pattern_name, graph="er", strategy="WA,0.5"):
    """The oracle: serial backend, reference plane."""
    return reference_run(
        GRAPHS[graph], pattern_name, strategy=strategy, seed=3
    )


@lru_cache(maxsize=None)
def production_baseline(pattern_name):
    """Serial / strict / in-memory production run: the wire-byte yardstick."""
    return assert_equivalent(ExecutionConfig(), reference(pattern_name))


def wire_bytes(result):
    return [step.worker_wire_bytes for step in result.ledger.steps]


def production_config(backend, shuffle, spill, tmp_path):
    kwargs = dict(backend=backend, shuffle=shuffle)
    if backend != "serial":
        kwargs["procs"] = 2
    if shuffle == "pipelined":
        kwargs["chunk_gpsis"] = TINY_CHUNK
    if spill:
        # Watermark of one byte: every sealed chunk goes through disk.
        kwargs.update(spill_dir=str(tmp_path), memory_watermark_bytes=1)
    return ExecutionConfig(**kwargs)


class TestReferenceVsProduction:
    @pytest.mark.parametrize("spill", [False, True], ids=["memory", "spill"])
    @pytest.mark.parametrize("shuffle", ["strict", "pipelined"])
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("pattern_name", sorted(paper_patterns()))
    def test_matrix(self, pattern_name, backend, shuffle, spill, tmp_path):
        result = assert_equivalent(
            production_config(backend, shuffle, spill, tmp_path),
            reference(pattern_name),
        )
        assert result.wire == "columnar"
        assert wire_bytes(result) == wire_bytes(
            production_baseline(pattern_name)
        )
        if spill:
            assert result.ledger.spill_chunks >= 1
            assert list(tmp_path.iterdir()) == []  # cleaned up

    @pytest.mark.parametrize(
        "shuffle,spill", [("strict", False), ("pipelined", True)]
    )
    def test_spawn_process_leg(self, shuffle, spill, tmp_path):
        """Packed chunks, replica state and the chunk queue must survive
        a spawn-fresh interpreter (everything crossing by pickle)."""
        config = replace(
            production_config("process", shuffle, spill, tmp_path),
            backend=ProcessExecutor(procs=2, start_method="spawn"),
            procs=None,
        )
        result = assert_equivalent(config, reference("PG2"))
        assert wire_bytes(result) == wire_bytes(production_baseline("PG2"))

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("strategy", ["random", "roulette", "WA,0"])
    @pytest.mark.parametrize("pattern_name", ["PG2", "PG5"])
    def test_rng_routing_per_strategy(self, pattern_name, strategy, backend):
        """Each strategy's ``choose_many`` must replay its scalar
        ``choose`` RNG stream draw for draw."""
        assert_equivalent(
            production_config(backend, "pipelined", False, None),
            reference(pattern_name, "powerlaw", strategy),
        )

    def test_byte_watermark_and_thread_pool_width(self):
        """A bytes-denominated watermark chunks differently but delivers
        identically (powerlaw graph: skewed outbox sizes)."""
        assert_equivalent(
            ExecutionConfig(
                backend="thread", procs=3, shuffle="pipelined", chunk_bytes=256
            ),
            reference("PG3", "powerlaw"),
        )

    def test_trace_totals_identical(self):
        """Traced runs record the same per-worker cost totals and
        summary on both planes (``wire_bytes`` and the chunk fields ride
        alongside on the production barrier events, changing nothing)."""
        tracers = {}
        for wire in ("object", "columnar"):
            tracers[wire] = Tracer()
            assert_equivalent(
                ExecutionConfig(wire=wire), reference("PG2"), trace=tracers[wire]
            )
            assert tracers[wire].meta["wire"] == wire
        assert (
            tracers["columnar"].worker_totals()
            == tracers["object"].worker_totals()
        )
        assert tracers["columnar"].summary() == tracers["object"].summary()
        for event in tracers["object"].by_kind("barrier"):
            assert "wire_bytes" not in event.data


class TestDefaults:
    def test_production_plane_is_the_default(self):
        graph = GRAPHS["er"]
        pattern = paper_patterns()["PG1"]
        assert PSgL(graph).run(pattern).wire == "columnar"
        assert PSgL(graph, wire="object").run(pattern).wire == "object"

    def test_exact_wire_bytes_on_production_only(self):
        col = production_baseline("PG2")
        per_step = [sum(step) for step in wire_bytes(col)]
        assert sum(per_step) == col.ledger.total_wire_bytes() > 0
        assert reference("PG2").result.ledger.total_wire_bytes() == 0


class TestOnePayload:
    """The production plane moves self-addressed ``GpsiColumns`` from
    superstep 0 to delivery, and nothing else."""

    @pytest.mark.parametrize("backend", ["serial", "thread"])
    def test_builds_no_gpsi_or_message(self, monkeypatch, backend):
        expected = reference("PG2")  # computed before anything is patched

        def refuse(*args, **kwargs):
            raise AssertionError("production plane built a per-row object")

        monkeypatch.setattr(Gpsi, "__init__", refuse)
        monkeypatch.setattr(Message, "__new__", refuse)
        assert_equivalent(
            production_config(backend, "strict", False, None), expected
        )

    @pytest.mark.parametrize("pattern_name", ["PG1", "PG2", "PG4", "PG5"])
    def test_wire_bytes_are_the_packed_columns_only(self, pattern_name):
        """Per step and worker: rows x (8k mapping + 4 per 32-bit BLACK
        word + 1 next-vertex byte) — no destination column."""
        k = paper_patterns()[pattern_name].num_vertices
        row_bytes = 8 * k + 4 * -(-k // 32) + 1
        result = production_baseline(pattern_name)
        for step in result.ledger.steps:
            assert step.worker_wire_bytes == [
                row_bytes * sent for sent in step.worker_messages
            ]

    def test_each_plane_refuses_the_others_send(self):
        class ScalarSend(VertexProgram):
            supports_columnar_compute = True

            def initialize_columns(self, ctx, vertices):
                ctx.send(int(vertices[0]), None)

        class ColumnSend(VertexProgram):
            def compute(self, ctx, messages):
                ctx.send_columns(None)

        graph = Graph(4, [(0, 1), (1, 2)])
        for program, plane in (
            (ScalarSend(), "reference"),
            (ColumnSend(), "production"),
        ):
            with pytest.raises(RuntimeError, match=f"available on the {plane}"):
                BSPEngine(graph, hash_partition(4, 2)).run(program)


class ScalarOnlyRandom(DistributionStrategy):
    """A custom strategy that implements scalar ``choose`` only."""

    name = "scalar-only-random"

    def __init__(self):
        self._inner = RandomStrategy()

    def choose(self, *args):
        return self._inner.choose(*args)


class Summing(VertexProgram):
    """Every vertex sends 1 to vertex 0; the combiner folds them."""

    def compute(self, ctx, messages):
        if ctx.superstep == 0:
            ctx.send(0, 1)
        else:
            ctx.emit((ctx.vertex, list(messages)))

    def message_combiner(self):
        return lambda a, b: a + b


class TestAutomaticFallback:
    """The plane follows from what the code can observe — a combiner, a
    scalar-only strategy — never from a second option."""

    def test_scalar_only_strategy_runs_on_reference_plane(self):
        # Bit-identical whether the reference plane was asked for or
        # fallen back to, and (same RNG stream) to the built-in random
        # strategy on it.
        for config in (ExecutionConfig(), ExecutionConfig(wire="object")):
            fallen = assert_equivalent(
                config, reference("PG2", "er", "random"),
                strategy=ScalarOnlyRandom(),
            )
            assert fallen.wire == "object"

    def test_scalar_only_strategy_on_process_backend(self):
        fallen = assert_equivalent(
            ExecutionConfig(backend="process", procs=2),
            reference("PG1", "er", "random"),
            strategy=ScalarOnlyRandom(),
        )
        assert fallen.wire == "object"

    def test_combiner_program_through_engine(self):
        graph = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5)])
        partition = hash_partition(6, 2)
        tracer = Tracer()
        default = BSPEngine(graph, partition, trace=tracer).run(Summing())
        explicit = BSPEngine(graph, partition, wire="object").run(Summing())
        assert default.wire == explicit.wire == "object"
        assert tracer.meta["wire"] == "object"
        assert default.outputs == explicit.outputs == [(0, [6])]
        assert default.ledger.summary() == explicit.ledger.summary()

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(shuffle="pipelined"),
            dict(steal=True),
            dict(spill_dir="unused", memory_watermark_bytes=1),
        ],
        ids=["pipelined", "steal", "spill"],
    )
    def test_explicit_production_feature_on_fallback_is_an_error(self, kwargs):
        """Defaulting into a fallback is fine; *asking* for something
        only the production plane has, on a run that must fall back,
        stays a typed error naming the reason."""
        with pytest.raises(EngineError, match="columnar compute"):
            run_listing(
                GRAPHS["er"], "PG1", strategy=ScalarOnlyRandom(), **kwargs
            )
        graph = Graph(4, [(0, 1), (1, 2)])
        engine = BSPEngine(graph, hash_partition(4, 2), **kwargs)
        with pytest.raises(EngineError, match="combiner"):
            engine.run(Summing())


class TestPlaneGuards:
    def test_unknown_wire_plane_rejected(self):
        assert_illegal(dict(wire="quantum"), "unknown wire")

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(shuffle="pipelined"),
            dict(steal=True),
            dict(spill_dir="unused", memory_watermark_bytes=1),
        ],
        ids=["pipelined", "steal", "spill"],
    )
    def test_reference_plane_refuses_production_features(self, kwargs):
        assert_illegal(dict(wire="object", **kwargs), "wire='columnar'")
