"""Unit tests for the distribution strategies (Algorithm 3)."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import PSgL, erdos_renyi
from repro.core import (
    DistributionStrategy,
    Gpsi,
    RandomStrategy,
    RouletteStrategy,
    UNMAPPED,
    WorkloadAwareStrategy,
    make_strategy,
)
from repro.exceptions import DistributionError
from repro.graph import Graph, Partition, hash_partition
from repro.pattern import PatternGraph, square


def worker_state(seed=0):
    return {"dist_rng": np.random.default_rng(seed)}


@pytest.fixture
def setup():
    # star-ish graph: vertex 0 is a hub (degree 4), 5/6 are low degree.
    g = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (5, 6), (5, 0)])
    pattern = square()
    partition = hash_partition(7, 2)
    # gpsi with two grays: v2 -> hub 0, v4 -> leaf 6
    gpsi = Gpsi((5, 0, UNMAPPED, 6), black=0b0001, next_vertex=-1)
    return g, pattern, partition, gpsi


class TestFactory:
    def test_names(self):
        assert make_strategy("random").name == "random"
        assert make_strategy("roulette").name == "roulette"
        assert make_strategy("workload-aware", 0.5).name == "workload-aware(0.5)"
        assert make_strategy("WA,0").name == "workload-aware(0.0)"
        assert make_strategy("wa,1").name == "workload-aware(1.0)"

    def test_unknown(self):
        with pytest.raises(DistributionError):
            make_strategy("magic")

    def test_alpha_out_of_range(self):
        with pytest.raises(DistributionError):
            WorkloadAwareStrategy(alpha=2.0)

    @pytest.mark.parametrize("name", ["WA,x", "WA,", "WA,nan", "WA,inf", 5, None])
    def test_malformed_name_is_a_distribution_error(self, name):
        """Regression: ``WA,x``/``WA,`` escaped as a bare ValueError, a
        non-string as AttributeError, and ``WA,nan`` was *accepted* (both
        ``nan < 0`` and ``nan > 1`` are false) — every score NaN, the
        argmin's ``-1`` sentinel routed a superstep later."""
        with pytest.raises(DistributionError):
            make_strategy(name)


class TestRandom:
    def test_single_candidate_no_rng_needed(self, setup):
        g, pattern, partition, gpsi = setup
        chosen = RandomStrategy().choose(gpsi, [3], pattern, g, partition, {})
        assert chosen == 3

    def test_uniform_over_candidates(self, setup):
        g, pattern, partition, gpsi = setup
        state = worker_state(1)
        picks = [
            RandomStrategy().choose(gpsi, [1, 3], pattern, g, partition, state)
            for _ in range(300)
        ]
        assert 0.35 < picks.count(1) / 300 < 0.65

    def test_missing_rng_raises(self, setup):
        g, pattern, partition, gpsi = setup
        with pytest.raises(DistributionError):
            RandomStrategy().choose(gpsi, [1, 3], pattern, g, partition, {})


class TestRoulette:
    def test_prefers_low_degree(self, setup):
        """Heuristic 1: Gpsis should be expanded by low-degree vertices.

        Gray v2 maps to the hub (deg 5), gray v4 to a leaf (deg 1): the
        leaf must win about 5x more often.
        """
        g, pattern, partition, gpsi = setup
        state = worker_state(2)
        picks = [
            RouletteStrategy().choose(gpsi, [1, 3], pattern, g, partition, state)
            for _ in range(600)
        ]
        leaf_share = picks.count(3) / 600
        assert leaf_share > 0.7

    def test_single_candidate(self, setup):
        g, pattern, partition, gpsi = setup
        assert RouletteStrategy().choose(gpsi, [1], pattern, g, partition, {}) == 1

    def test_equation6_probabilities(self, setup):
        """p_k must equal (1/deg_k) / sum(1/deg_i)."""
        g, pattern, partition, gpsi = setup
        state = worker_state(3)
        n = 4000
        picks = [
            RouletteStrategy().choose(gpsi, [1, 3], pattern, g, partition, state)
            for _ in range(n)
        ]
        deg_hub, deg_leaf = g.degree(0), g.degree(6)
        expected_leaf = (1 / deg_leaf) / (1 / deg_leaf + 1 / deg_hub)
        assert abs(picks.count(3) / n - expected_leaf) < 0.04


class TestEmptyCandidates:
    """Regression: every strategy must raise DistributionError on an
    empty candidate list.  Before the fix each failed differently —
    workload-aware returned the ``-1`` sentinel (which negative indexing
    turned into a silently wrong ``mapping[-1]`` route), random raised
    ValueError from ``rng.integers(0)``, roulette IndexError."""

    def test_random_raises_distribution_error(self, setup):
        g, pattern, partition, gpsi = setup
        with pytest.raises(DistributionError, match="no GRAY candidates"):
            RandomStrategy().choose(
                gpsi, [], pattern, g, partition, worker_state()
            )

    def test_roulette_raises_distribution_error(self, setup):
        g, pattern, partition, gpsi = setup
        with pytest.raises(DistributionError, match="no GRAY candidates"):
            RouletteStrategy().choose(
                gpsi, [], pattern, g, partition, worker_state()
            )

    def test_workload_aware_raises_instead_of_sentinel(self, setup):
        g, pattern, partition, gpsi = setup
        strategy = WorkloadAwareStrategy(alpha=0.5)
        with pytest.raises(DistributionError, match="no GRAY candidates"):
            strategy.choose(gpsi, [], pattern, g, partition, worker_state())
        # The guard must also fire before the load view is touched.
        state = worker_state()
        with pytest.raises(DistributionError):
            strategy.choose(gpsi, [], pattern, g, partition, state)
        assert "dist_load_view" not in state


class TestWorkloadAware:
    def test_alpha_zero_always_cheapest(self, setup):
        """alpha=0 ignores worker load entirely: pure min-increase."""
        g, pattern, partition, gpsi = setup
        strategy = WorkloadAwareStrategy(alpha=0.0)
        state = worker_state(4)
        for _ in range(10):
            # leaf (deg 1, one white neighbour) has the smaller C(deg, w)
            assert strategy.choose(gpsi, [1, 3], pattern, g, partition, state) == 3

    def test_local_view_accumulates(self, setup):
        g, pattern, partition, gpsi = setup
        strategy = WorkloadAwareStrategy(alpha=1.0)
        state = worker_state(5)
        strategy.choose(gpsi, [1, 3], pattern, g, partition, state)
        view = state["dist_load_view"]
        assert sum(view) > 0

    def test_alpha_one_balances(self, setup):
        """With a saturated worker, alpha=1 must route away from it."""
        g, pattern, partition, _ = setup
        # grays on *different* workers: v2 -> hub 0 (worker 0),
        # v4 -> vertex 5 (worker 1)
        gpsi = Gpsi((6, 0, UNMAPPED, 5), black=0b0001, next_vertex=-1)
        strategy = WorkloadAwareStrategy(alpha=1.0)
        state = worker_state(6)
        saturated = partition.owner(5)
        state["dist_load_view"] = [0.0, 0.0]
        state["dist_load_view"][saturated] = 1e9
        chosen = strategy.choose(gpsi, [1, 3], pattern, g, partition, state)
        assert partition.owner(gpsi.mapping[chosen]) != saturated

    def test_deterministic(self, setup):
        g, pattern, partition, gpsi = setup
        strategy = WorkloadAwareStrategy(alpha=0.5)
        a = strategy.choose(gpsi, [1, 3], pattern, g, partition, worker_state(7))
        b = strategy.choose(gpsi, [1, 3], pattern, g, partition, worker_state(7))
        assert a == b


# ----------------------------------------------------------------------
# choose_many against its oracle, the scalar choose
# ----------------------------------------------------------------------
#: Sparse 7-vertex pattern: candidates of one group see 0-3 WHITE
#: neighbours each.
ROUTING_PATTERN = PatternGraph(
    7,
    [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0),
     (0, 3), (1, 4), (2, 6), (0, 2)],
)
#: Vertex 0 is a hub (degree 30), 1-30 its leaves with a few chords,
#: 31-39 have degree 0.
ROUTING_GRAPH = Graph(
    40, [(0, v) for v in range(1, 31)] + [(v, v + 1) for v in range(1, 12)]
)
STRATEGY_NAMES = ["random", "roulette", "WA,0", "WA,0.5", "WA,1"]


@st.composite
def routing_blocks(draw):
    """``(mapping, group_of, groups, partition, load_view, seed)``: 1-4
    signature groups of 1-4 candidates (width 1 is drawn because no paper
    pattern produces it), their children interleaved in arbitrary order,
    over hub and degree-0 images, with a pre-loaded load view or none."""
    k = ROUTING_PATTERN.num_vertices
    masks, groups = [], []
    for _ in range(draw(st.integers(1, 4))):
        grays = tuple(
            draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=4, unique=True))
        )
        mapped = set(grays) | draw(st.sets(st.integers(0, k - 1)))
        masks.append(sorted(mapped))
        groups.append((
            grays,
            tuple(
                sum(1 for w in ROUTING_PATTERN.neighbors(vp) if w not in mapped)
                for vp in grays
            ),
        ))
    group_of = draw(
        st.lists(st.integers(0, len(groups) - 1), min_size=1, max_size=30)
    )
    image = st.sampled_from([0, 1, 2, 5, 12, 30, 31, 39])
    mapping = np.full((len(group_of), k), UNMAPPED, dtype=np.int64)
    for row, g in zip(mapping, group_of):
        row[masks[g]] = draw(
            st.lists(image, min_size=len(masks[g]), max_size=len(masks[g]))
        )
    workers = draw(st.integers(2, 4))
    load_view = draw(
        st.none()
        | st.lists(
            st.floats(0.5, 1e6), min_size=workers, max_size=workers
        )
    )
    return (
        mapping, np.array(group_of), groups,
        hash_partition(ROUTING_GRAPH.num_vertices, workers),
        load_view, draw(st.integers(0, 2**16)),
    )


def routing_state(load_view, seed):
    state = worker_state(seed)
    if load_view is not None:
        state["dist_load_view"] = list(load_view)
    return state


class TestChooseManyAgainstChoose:
    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    @settings(deadline=None, max_examples=60)
    @given(block=routing_blocks())
    def test_same_choices_load_view_and_rng_stream(self, name, block):
        mapping, group_of, groups, partition, load_view, seed = block
        strategy = make_strategy(name)
        batched_state = routing_state(load_view, seed)
        scalar_state = routing_state(load_view, seed)
        batched = strategy.choose_many(
            mapping, group_of, groups, ROUTING_GRAPH, partition, batched_state
        )
        scalar = [
            strategy.choose(
                Gpsi(tuple(row), 0, -1), list(groups[g][0]), ROUTING_PATTERN,
                ROUTING_GRAPH, partition, scalar_state,
            )
            for row, g in zip(mapping.tolist(), group_of.tolist())
        ]
        assert batched.dtype == np.int64 and batched.tolist() == scalar
        assert batched_state.get("dist_load_view") == scalar_state.get(
            "dist_load_view"
        )
        assert (
            batched_state["dist_rng"].bit_generator.state
            == scalar_state["dist_rng"].bit_generator.state
        )

    @pytest.mark.parametrize("name", STRATEGY_NAMES)
    def test_empty_group_raises_before_the_load_view_exists(self, name):
        state = worker_state()
        with pytest.raises(DistributionError, match="no GRAY candidates"):
            make_strategy(name).choose_many(
                np.zeros((2, 7), dtype=np.int64), np.array([0, 1]),
                [((1, 2), (0, 1)), ((), ())],
                ROUTING_GRAPH, hash_partition(40, 2), state,
            )
        assert "dist_load_view" not in state


class TestTheorem3Bound:
    """``WA,0.5`` makespan <= K * OPT on instances small enough for a
    brute-force optimum — the guard ROADMAP item 1(d) asks for before
    any change to what the load view sees."""

    @settings(deadline=None, max_examples=60)
    @given(
        workers=st.integers(2, 3),
        children=st.lists(
            st.lists(
                st.tuples(st.integers(0, 2), st.integers(1, 40)),
                min_size=1, max_size=3,
            ),
            min_size=1, max_size=8,
        ),
    )
    def test_greedy_within_k_times_brute_force_optimum(self, workers, children):
        # Candidate slot s is its own data vertex with ``increase`` private
        # leaves and one WHITE pattern neighbour: C(deg, 1) == increase.
        slots = [slot for child in children for slot in child]
        edges, leaf = [], len(slots)
        for vertex, (_, increase) in enumerate(slots):
            edges += [(vertex, leaf + i) for i in range(increase)]
            leaf += increase
        owner = np.zeros(leaf, dtype=np.int64)
        owner[: len(slots)] = [worker % workers for worker, _ in slots]
        mapping = np.zeros((len(children), 3), dtype=np.int64)
        vertex = 0
        for row, child in zip(mapping, children):
            row[: len(child)] = range(vertex, vertex + len(child))
            vertex += len(child)
        groups = [(tuple(range(w)), (1,) * w) for w in (1, 2, 3)]
        state = worker_state()
        WorkloadAwareStrategy(0.5).choose_many(
            mapping, np.array([len(child) - 1 for child in children]), groups,
            Graph(leaf, edges), Partition(owner, workers), state,
        )
        optimum = float("inf")
        for assignment in itertools.product(*children):
            loads = [0.0] * workers
            for worker, increase in assignment:
                loads[worker % workers] += increase
            optimum = min(optimum, max(loads))
        assert sum(state["dist_load_view"]) > 0
        assert max(state["dist_load_view"]) <= workers * optimum


class TestFrozenHarnessSeam:
    def test_positional_proxy_runs_the_production_plane(self):
        """``benchmarks/e2e/layers.py::TimedStrategy`` — which this repo
        may not edit — forwards ``choose_many``'s six arguments
        positionally, counts ``len(mapping)`` rows and forwards no
        attributes: the engine must keep calling it that way."""

        class Forwarding(DistributionStrategy):
            def __init__(self, inner):
                self.inner = inner
                self.name = inner.name
                self.rows = 0

            def choose(self, *args):
                self.rows += 1
                return self.inner.choose(*args)

            def choose_many(self, *args):
                assert len(args) == 6
                self.rows += len(args[0])
                return self.inner.choose_many(*args)

        graph = erdos_renyi(60, 0.15, seed=3)
        runs = {}
        for wire in ("columnar", "object"):
            proxy = Forwarding(make_strategy("WA,0.5"))
            result = PSgL(graph, num_workers=4, strategy=proxy, wire=wire).run(square())
            assert result.wire == wire
            runs[wire] = (proxy.rows, result.count, result.makespan)
        assert runs["columnar"][0] > 0
        assert runs["columnar"] == runs["object"]
