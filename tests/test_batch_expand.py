"""Batched expansion kernel: bit-identical parity with the scalar path.

The columnar batch kernel (:mod:`repro.core.batch_expand`) must be an
*observable no-op*: expanding a packed column slice produces exactly what
running :func:`repro.core.expansion.expand_gpsi` row by row would —
the same instances in the same order, the same pending children with the
same useful-GRAY sets, the same cost charge, the same edge-index probe
counters.  These tests pin that equivalence at the kernel level:

1. the kernel directly, driven superstep by superstep against the scalar
   reference on every paper pattern and every index kind (plus a
   hypothesis sweep over random graphs);
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


def drive_parity(graph, pattern, index_kind, max_supersteps=12):
    """Run the whole expansion BFS twice — scalar per Gpsi vs. one kernel
    call per (vertex, delivered slice) — asserting parity at every
    superstep and returning the total completed-instance count.

    Routing is deterministic (first useful GRAY) so the drive needs no
    RNG; each path probes its own index copy so probe counters compare.
    """
    ordered = OrderedGraph(graph)
    idx_scalar = build_edge_index(graph, kind=index_kind, fp_rate=0.01, seed=7)
    idx_batch = build_edge_index(graph, kind=index_kind, fp_rate=0.01, seed=7)
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
        frontier = []
        for vd, gpsis in by_dest.items():
            s_complete, s_pending, s_cost, s_generated = [], [], 0.0, 0
            for g in gpsis:
                out = expand_gpsi(g, pattern, ordered, idx_scalar)
                s_cost += out.cost
                s_generated += out.generated
                s_complete.extend(out.complete)
                s_pending.extend(out.pending)

            b = expand_columns(
                pack_gpsis(gpsis), vd, pattern, ordered, idx_batch
            )

            got_complete = (
                [] if b.complete is None
                else [tuple(r) for r in b.complete.tolist()]
            )
            assert got_complete == s_complete
            assert b.cost == s_cost
            assert b.generated == s_generated
            if b.pending is None:
                assert not s_pending
            else:
                assert len(b.pending) == len(s_pending)
                for i, child in enumerate(s_pending):
                    assert tuple(b.pending.mapping[i].tolist()) == child.mapping
                    assert _black_int(b.pending.black[i]) == child.black
                    assert b.pending.grays[i] == tuple(
                        child.useful_grays(pattern)
                    )
            assert idx_batch.queries == idx_scalar.queries
            assert idx_batch.positives == idx_scalar.positives

            total_complete += len(s_complete)
            for child in s_pending:
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

    def test_empty_slice_is_noop(self):
        graph = GRAPHS["er"]
        pattern = paper_patterns()["PG1"]
        idx = build_edge_index(graph, kind="exact")
        out = expand_columns(
            pack_gpsis([], k=3), 0, pattern, OrderedGraph(graph), idx
        )
        assert out.complete is None and out.pending is None
        assert out.cost == 0.0 and out.generated == 0

    def test_rejects_unaddressed_rows(self):
        graph = GRAPHS["er"]
        pattern = paper_patterns()["PG1"]
        idx = build_edge_index(graph, kind="exact")
        cols = pack_gpsis([Gpsi.initial(pattern, 0, 5)])
        cols.next_vertex[0] = 0xFF
        with pytest.raises(ValueError, match="no next vertex"):
            expand_columns(cols, 5, pattern, OrderedGraph(graph), idx)


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
