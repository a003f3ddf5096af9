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

Also here: the automatic fallback (a run that cannot use the production
plane runs on the reference plane and says so), and the plane guards.
"""

from functools import lru_cache

import pytest

from repro.bsp import BSPEngine, VertexProgram
from repro.core import PSgL
from repro.core.distribution import DistributionStrategy, RandomStrategy
from repro.exceptions import EngineError
from repro.graph import Graph, hash_partition
from repro.graph.generators import chung_lu_power_law, erdos_renyi
from repro.obs import Tracer
from repro.pattern import paper_patterns
from repro.runtime import ProcessExecutor

GRAPHS = {
    "er": erdos_renyi(28, 0.25, seed=13),
    "powerlaw": chung_lu_power_law(30, gamma=2.5, avg_degree=4, seed=5),
}

#: Tiny watermark so even the 28-vertex graphs stream many chunks per
#: superstep — pipelined legs exercise real interleaving, not the
#: degenerate everything-in-the-residual case.
TINY_CHUNK = 4


def run_listing(pattern_name, graph="er", strategy="WA,0.5", **kwargs):
    kwargs.setdefault("num_workers", 4)
    return PSgL(GRAPHS[graph], strategy=strategy, seed=3, **kwargs).run(
        paper_patterns()[pattern_name],
        collect_instances=True,
        count_per_vertex=True,
        track_message_bytes=True,
    )


@lru_cache(maxsize=None)
def reference(pattern_name, graph="er", strategy="WA,0.5"):
    """The oracle: serial backend, reference plane."""
    result = run_listing(pattern_name, graph, strategy, wire="object")
    assert result.wire == "object"
    return result


@lru_cache(maxsize=None)
def production_baseline(pattern_name):
    """Serial / strict / in-memory production run: the wire-byte yardstick."""
    return run_listing(pattern_name)


def observables(result):
    """Everything a run computes, in a form that compares with ``==``."""
    return {
        "count": result.count,
        "instances": sorted(result.instances),
        "supersteps": result.supersteps,
        "gpsi_by_vertex": result.gpsi_by_vertex,
        "index": (result.index_queries, result.index_pruned),
        "per_vertex_counts": result.per_vertex_counts,
        "message_bytes": result.message_bytes,
        "summary": result.ledger.summary(),
        # Per-step, per-worker: a single diverging RNG draw in the
        # distribution strategy moves a Gpsi to another worker and shows
        # up here one superstep later.
        "steps": [
            (s.worker_cost, s.worker_messages, s.worker_compute_calls)
            for s in result.ledger.steps
        ],
        "peak_live": result.ledger.peak_live_messages,
    }


def wire_bytes(result):
    return [step.worker_wire_bytes for step in result.ledger.steps]


def production_kwargs(backend, shuffle, spill, tmp_path):
    kwargs = dict(backend=backend, shuffle=shuffle)
    if backend != "serial":
        kwargs["procs"] = 2
    if shuffle == "pipelined":
        kwargs["chunk_gpsis"] = TINY_CHUNK
    if spill:
        # Watermark of one byte: every sealed chunk goes through disk.
        kwargs.update(spill_dir=str(tmp_path), memory_watermark_bytes=1)
    return kwargs


class TestReferenceVsProduction:
    @pytest.mark.parametrize("spill", [False, True], ids=["memory", "spill"])
    @pytest.mark.parametrize("shuffle", ["strict", "pipelined"])
    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    @pytest.mark.parametrize("pattern_name", sorted(paper_patterns()))
    def test_matrix(self, pattern_name, backend, shuffle, spill, tmp_path):
        result = run_listing(
            pattern_name, **production_kwargs(backend, shuffle, spill, tmp_path)
        )
        assert result.wire == "columnar"
        assert result.count == len(result.instances)
        assert observables(result) == observables(reference(pattern_name))
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
        kwargs = production_kwargs("process", shuffle, spill, tmp_path)
        kwargs["backend"] = ProcessExecutor(procs=2, start_method="spawn")
        del kwargs["procs"]
        result = run_listing("PG2", **kwargs)
        assert observables(result) == observables(reference("PG2"))
        assert wire_bytes(result) == wire_bytes(production_baseline("PG2"))

    @pytest.mark.parametrize("backend", ["serial", "process"])
    @pytest.mark.parametrize("strategy", ["random", "roulette", "WA,0"])
    @pytest.mark.parametrize("pattern_name", ["PG2", "PG5"])
    def test_rng_routing_per_strategy(self, pattern_name, strategy, backend):
        """Each strategy's ``choose_many`` must replay its scalar
        ``choose`` RNG stream draw for draw."""
        kwargs = production_kwargs(backend, "pipelined", False, None)
        result = run_listing(
            pattern_name, "powerlaw", strategy, **kwargs
        )
        assert observables(result) == observables(
            reference(pattern_name, "powerlaw", strategy)
        )

    def test_byte_watermark_and_thread_pool_width(self):
        """A bytes-denominated watermark chunks differently but delivers
        identically (powerlaw graph: skewed outbox sizes)."""
        result = run_listing(
            "PG3", "powerlaw", backend="thread", procs=3,
            shuffle="pipelined", chunk_bytes=256,
        )
        assert observables(result) == observables(reference("PG3", "powerlaw"))

    def test_trace_totals_identical(self):
        """Traced runs record the same per-worker cost totals and
        summary on both planes (``wire_bytes`` and the chunk fields ride
        alongside on the production barrier events, changing nothing)."""
        tracers = {}
        for wire in ("object", "columnar"):
            tracers[wire] = Tracer()
            run_listing("PG2", wire=wire, trace=tracers[wire])
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
        assert reference("PG2").ledger.total_wire_bytes() == 0


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
        fallen = run_listing("PG2", strategy=ScalarOnlyRandom())
        assert fallen.wire == "object"
        # Bit-identical to asking for the reference plane outright, and
        # (same RNG stream) to the built-in random strategy on it.
        explicit = run_listing("PG2", strategy=ScalarOnlyRandom(), wire="object")
        assert observables(fallen) == observables(explicit)
        builtin = observables(reference("PG2", "er", "random"))
        assert observables(fallen) == builtin

    def test_scalar_only_strategy_on_process_backend(self):
        fallen = run_listing(
            "PG1", strategy=ScalarOnlyRandom(), backend="process", procs=2
        )
        assert fallen.wire == "object"
        assert observables(fallen) == observables(
            reference("PG1", "er", "random")
        )

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
            run_listing("PG1", strategy=ScalarOnlyRandom(), **kwargs)
        graph = Graph(4, [(0, 1), (1, 2)])
        engine = BSPEngine(graph, hash_partition(4, 2), **kwargs)
        with pytest.raises(EngineError, match="combiner"):
            engine.run(Summing())


class TestPlaneGuards:
    GRAPH = Graph(4, [(0, 1), (1, 2)])

    def test_unknown_wire_plane_rejected(self):
        with pytest.raises(EngineError, match="wire plane"):
            BSPEngine(self.GRAPH, hash_partition(4, 2), wire="quantum")

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
        with pytest.raises(EngineError, match="wire='columnar'"):
            BSPEngine(
                self.GRAPH, hash_partition(4, 2), wire="object", **kwargs
            )
