"""Batched expansion kernel: bit-identical parity with the scalar path.

The columnar batch kernel (:mod:`repro.core.batch_expand`) must be an
*observable no-op*: expanding a packed column slice produces exactly what
running :func:`repro.core.expansion.expand_gpsi` row by row would —
the same instances in the same order, the same pending children with the
same useful-GRAY sets, the same cost charge, the same edge-index probe
counters.  These tests pin that equivalence at the kernel level:

1. the kernel directly, driven superstep by superstep against the scalar
   reference on every paper pattern and every index kind (plus a
   hypothesis sweep over random graphs) — one destination vertex per
   call, the whole frontier of a superstep in one call, and the frontier
   cut at arbitrary rows;
2. the ``useful_grays_for`` memo on :class:`PatternGraph` (it is keyed
   per pattern instance and must never leak across patterns).

Whole listing jobs — every strategy, backend, shuffle and spill setting
against the reference plane — are ``tests/test_plane_parity.py``.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core import Gpsi, expand_columns, expand_gpsi, pack_gpsis
from repro.core.edge_index import build_edge_index
from repro.core.init_vertex import select_initial_vertex
from repro.graph import Graph, OrderedGraph
from repro.graph.generators import chung_lu_power_law, erdos_renyi
from repro.pattern import PatternGraph, paper_patterns

GRAPHS = {
    "er": erdos_renyi(28, 0.25, seed=13),
    "powerlaw": chung_lu_power_law(30, gamma=2.5, avg_degree=4, seed=5),
}


def _black_int(words) -> int:
    return sum(int(w) << (32 * i) for i, w in enumerate(words))


def scalar_outcomes(gpsis, pattern, ordered, index):
    """``expand_gpsi`` row by row, concatenated, in comparable form."""
    out = dict(complete=[], pending=[], cost=0.0, generated=0, by_vp={})
    for g in gpsis:
        one = expand_gpsi(g, pattern, ordered, index)
        out["cost"] += one.cost
        out["generated"] += one.generated
        if one.generated:
            vp = g.next_vertex
            out["by_vp"][vp] = out["by_vp"].get(vp, 0) + one.generated
        out["complete"].extend(one.complete)
        out["pending"].extend(one.pending)
    return out


def batch_outcomes(pieces, pattern, ordered, index):
    """One ``expand_columns`` call per piece, concatenated likewise
    (``kernel="auto"``: the compiled kernels on CI's numba leg)."""
    out = dict(complete=[], pending=[], cost=0.0, generated=0, by_vp={})
    for gpsis in pieces:
        b = expand_columns(
            pack_gpsis(gpsis, k=pattern.num_vertices), pattern, ordered, index,
            kernel="auto",
        )
        out["cost"] += b.cost
        out["generated"] += b.generated
        for vp, n in b.generated_by_vp.items():
            out["by_vp"][vp] = out["by_vp"].get(vp, 0) + n
        if b.complete is not None:
            out["complete"].extend(tuple(r) for r in b.complete.tolist())
        if b.pending is not None:
            for m, w, (grays, _) in zip(
                b.pending.mapping.tolist(), b.pending.black,
                (b.pending.groups[g] for g in b.pending.group_of.tolist()),
            ):
                child = Gpsi(tuple(m), _black_int(w), -1)
                assert grays == tuple(child.useful_grays(pattern))
                out["pending"].append(child)
    return out


def drive_parity(graph, pattern, index_kind, max_supersteps=12):
    """Run the whole expansion BFS on the scalar path and on the kernel,
    asserting parity at every superstep and returning the total
    completed-instance count.  The kernel runs three ways: one call per
    destination vertex's delivery; the whole frontier of the superstep —
    all destination vertices, in shuffled vertex order — in one call;
    and that frontier cut at arbitrary rows (mid-vertex too), one call
    per piece.

    Routing is deterministic (first useful GRAY) so the drive needs no
    RNG; each path probes its own index copy so probe counters compare.
    """
    ordered = OrderedGraph(graph)
    scalar, per_vertex, whole, cut = (
        build_edge_index(graph, kind=index_kind, fp_rate=0.01, seed=7)
        for _ in range(4)
    )
    rng = np.random.default_rng(graph.num_edges)
    init_vp = select_initial_vertex(pattern, graph)
    frontier = [
        (vd, Gpsi.initial(pattern, init_vp, vd))
        for vd in range(graph.num_vertices)
        if graph.degree(vd) >= pattern.degree(init_vp)
    ]
    total_complete = 0
    for _ in range(max_supersteps):
        if not frontier:
            break
        by_dest = {}
        for vd, g in frontier:
            by_dest.setdefault(vd, []).append(g)
        deliveries = list(by_dest.values())
        rows = [g for gpsis in deliveries for g in gpsis]

        expected = scalar_outcomes(rows, pattern, ordered, scalar)
        assert batch_outcomes(deliveries, pattern, ordered, per_vertex) == expected
        assert (per_vertex.queries, per_vertex.positives) == (
            scalar.queries, scalar.positives
        )

        shuffled = [
            g for i in rng.permutation(len(deliveries)) for g in deliveries[i]
        ]
        expected_shuffled = scalar_outcomes(
            shuffled, pattern, ordered, scalar.detached_view()
        )
        assert batch_outcomes([shuffled], pattern, ordered, whole) == expected_shuffled
        cuts = sorted(rng.integers(0, len(rows) + 1, size=3).tolist())
        pieces = [
            shuffled[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(rows)])
        ]
        assert batch_outcomes(pieces, pattern, ordered, cut) == expected_shuffled
        for index in (whole, cut):
            assert (index.queries, index.positives) == (
                scalar.queries, scalar.positives
            )

        total_complete += len(expected["complete"])
        frontier = []
        for child in expected["pending"]:
            grays = child.useful_grays(pattern)
            if grays:
                nxt = grays[0]
                frontier.append((child.mapping[nxt], child.with_next(nxt)))
    assert not frontier, "expansion did not terminate"
    return total_complete


class TestKernelParity:
    @pytest.mark.parametrize("index_kind", ["bloom", "exact", "none"])
    @pytest.mark.parametrize("pattern_name", sorted(paper_patterns()))
    def test_matches_scalar_reference(self, pattern_name, index_kind):
        pattern = paper_patterns()[pattern_name]
        count = drive_parity(GRAPHS["er"], pattern, index_kind)
        if index_kind != "bloom":  # bloom FPs may admit extra combos
            assert count == drive_parity(GRAPHS["er"], pattern, "exact")

    @pytest.mark.parametrize("pattern_name", ["PG2", "PG5"])
    def test_matches_scalar_on_powerlaw(self, pattern_name):
        pattern = paper_patterns()[pattern_name]
        drive_parity(GRAPHS["powerlaw"], pattern, "bloom")

    @pytest.mark.parametrize("pattern_name", ["PG2", "PG4"])
    def test_cross_product_runs_do_not_change_the_outcome(
        self, monkeypatch, pattern_name
    ):
        # Tiny runs: every cross product is cut between (never inside) rows.
        from repro.core import batch_expand

        monkeypatch.setattr(batch_expand, "CROSS_BLOCK_COMBOS", 5)
        drive_parity(GRAPHS["powerlaw"], paper_patterns()[pattern_name], "bloom")

    def test_empty_slice_is_noop(self):
        graph = GRAPHS["er"]
        pattern = paper_patterns()["PG1"]
        idx = build_edge_index(graph, kind="exact")
        out = expand_columns(pack_gpsis([], k=3), pattern, OrderedGraph(graph), idx)
        assert out.complete is None and out.pending is None
        assert out.cost == 0.0 and out.generated == 0

    def test_rejects_unaddressed_rows(self):
        graph = GRAPHS["er"]
        pattern = paper_patterns()["PG1"]
        idx = build_edge_index(graph, kind="exact")
        cols = pack_gpsis([Gpsi.initial(pattern, 0, 5)])
        cols.next_vertex[0] = 0xFF
        with pytest.raises(ValueError, match="no next vertex"):
            expand_columns(cols, pattern, OrderedGraph(graph), idx)


class TestDispatchShape:
    """The production plane probes and routes per delivered block, not
    per data vertex: the two entry points the harness times are called
    O(workers x supersteps x blocks) times, whatever ``num_vertices``."""

    WORKERS = 4

    def entry_point_calls(self, monkeypatch, graph):
        from repro.core import PSgL
        from repro.core.distribution import WorkloadAwareStrategy
        from repro.core.edge_index import BloomEdgeIndex

        calls = {"choose_many": 0, "might_contain_pairs": 0}

        def counted(cls, name):
            real = getattr(cls, name)

            def proxy(self, *args):
                calls[name] += 1
                return real(self, *args)

            monkeypatch.setattr(cls, name, proxy)

        with monkeypatch.context() as monkeypatch:
            counted(WorkloadAwareStrategy, "choose_many")
            counted(BloomEdgeIndex, "might_contain_pairs")
            result = PSgL(graph, num_workers=self.WORKERS).run(
                paper_patterns()["PG1"]
            )
        assert result.wire == "columnar" and result.count > 0
        return calls, result

    def test_calls_do_not_grow_with_the_graph(self, monkeypatch):
        from repro.graph.generators import rmat
        from repro.runtime.executor import EXPAND_BLOCK_ROWS

        small, small_run = self.entry_point_calls(monkeypatch, rmat(7, seed=3))
        large, large_run = self.entry_point_calls(monkeypatch, rmat(9, seed=3))
        assert large_run.total_gpsis > 4 * small_run.total_gpsis
        # Small enough that a worker's delivery is one block in both runs.
        assert large_run.total_gpsis < self.WORKERS * EXPAND_BLOCK_ROWS
        assert large == small
        # PG1: one routing call per (worker, expanding superstep with
        # pending children) and one probe call — the (v2, v3) cross
        # check — per block; the parent made one of each per data vertex.
        assert large == {
            "choose_many": self.WORKERS,
            "might_contain_pairs": self.WORKERS,
        }


@st.composite
def random_graphs(draw, max_vertices=20, edge_fraction=0.4):
    n = draw(st.integers(min_value=4, max_value=max_vertices))
    possible = [(i, j) for i in range(n) for j in range(i + 1, n)]
    edges = draw(
        st.lists(
            st.sampled_from(possible),
            max_size=int(len(possible) * edge_fraction) + 1,
            unique=True,
        )
    )
    return Graph(n, edges)


class TestKernelParityProperties:
    @settings(
        deadline=None,
        max_examples=25,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(graph=random_graphs(), pattern_name=st.sampled_from(["PG1", "PG2", "PG3"]))
    def test_random_graphs(self, graph, pattern_name):
        pattern = paper_patterns()[pattern_name]
        drive_parity(graph, pattern, "exact")


class TestUsefulGraysCache:
    """Satellite: the per-pattern ``useful_grays_for`` memo."""

    def test_cache_hit_returns_same_tuple(self):
        pattern = paper_patterns()["PG2"]
        a = pattern.useful_grays_for(0b0001, 0b0011)
        b = pattern.useful_grays_for(0b0001, 0b0011)
        assert a is b  # memoised, not recomputed

    def test_matches_scalar_useful_grays(self):
        for pattern in paper_patterns().values():
            k = pattern.num_vertices
            init = Gpsi.initial(pattern, 0, 17)
            assert pattern.useful_grays_for(
                init.black, init.mapped_mask()
            ) == tuple(init.useful_grays(pattern))

    def test_no_cross_pattern_leak(self):
        """Two patterns sharing a (black, mask) key must answer from
        their own structure — the memo is per instance, never global.
        With v1 BLACK and {v0, v1} mapped, the path v0-v1-v2 has no
        useful GRAY (v0's only neighbour is mapped and every edge is
        covered) while the triangle keeps v0 GRAY-useful through its
        uncovered (v0, v2) edge."""
        path = PatternGraph(3, [(0, 1), (1, 2)], name="P3")
        tri = PatternGraph(3, [(0, 1), (1, 2), (0, 2)], name="K3")
        key = (0b010, 0b011)
        # Warm the path's cache first: a global (black, mask)-keyed memo
        # would now hand the path's empty answer to the triangle.
        assert path.useful_grays_for(*key) == ()
        assert tri.useful_grays_for(*key) == (0,)
        # And in the reverse warm-up order on fresh instances.
        tri2 = PatternGraph(3, [(0, 1), (1, 2), (0, 2)], name="K3")
        path2 = PatternGraph(3, [(0, 1), (1, 2)], name="P3")
        assert tri2.useful_grays_for(*key) == (0,)
        assert path2.useful_grays_for(*key) == ()
        # The caches live on the instances, not the class.
        assert path._useful_grays_cache is not tri._useful_grays_cache

    def test_cache_survives_pickling(self):
        import pickle

        pattern = paper_patterns()["PG3"]
        pattern.useful_grays_for(0b00001, 0b00011)
        clone = pickle.loads(pickle.dumps(pattern))
        assert clone.useful_grays_for(0b00001, 0b00011) == (
            pattern.useful_grays_for(0b00001, 0b00011)
        )
