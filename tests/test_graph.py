"""Unit tests for repro.graph.graph."""

import contextlib
import io
import tracemalloc

import numpy as np
import pytest

from repro.exceptions import GraphError
from repro.graph import (
    Graph,
    complete_graph,
    load_mapped,
    normalize_edge,
    read_edge_list,
    write_csrbin,
)
from repro.runtime.shared_graph import AttachedSharedGraph, SharedGraphExport


class TestConstruction:
    def test_empty_graph(self):
        g = Graph(0, [])
        assert g.num_vertices == 0
        assert g.num_edges == 0
        assert list(g.edges()) == []

    def test_vertices_without_edges(self):
        g = Graph(5, [])
        assert g.num_vertices == 5
        assert all(g.degree(v) == 0 for v in g.vertices())

    def test_basic_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.num_edges == 3
        assert g.has_edge(0, 1)
        assert g.has_edge(1, 0)
        assert not g.has_edge(0, 2)

    def test_duplicate_edges_dropped(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.num_edges == 1

    def test_self_loops_dropped(self):
        g = Graph(3, [(0, 0), (1, 1), (0, 1)])
        assert g.num_edges == 1

    def test_out_of_range_edge_rejected(self):
        with pytest.raises(GraphError):
            Graph(2, [(0, 5)])

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(GraphError):
            Graph(-1, [])

    def test_from_edges_sizes_to_max_id(self):
        g = Graph.from_edges([(0, 7), (2, 3)])
        assert g.num_vertices == 8

    def test_from_edges_empty(self):
        g = Graph.from_edges([])
        assert g.num_vertices == 0


class TestAccessors:
    def test_neighbors_sorted(self):
        g = Graph(5, [(2, 4), (2, 0), (2, 3), (2, 1)])
        assert list(g.neighbors(2)) == [0, 1, 3, 4]

    def test_degree_matches_neighbors(self):
        g = complete_graph(6)
        for v in g.vertices():
            assert g.degree(v) == len(g.neighbors(v)) == 5

    def test_degrees_array(self):
        g = Graph(3, [(0, 1)])
        assert list(g.degrees) == [1, 1, 0]

    def test_edges_iterated_once_canonical(self):
        g = Graph(4, [(3, 1), (0, 2), (2, 1)])
        edges = list(g.edges())
        assert edges == sorted(edges)
        assert all(u < v for u, v in edges)
        assert len(edges) == 3

    def test_has_edge_out_of_range_is_false(self):
        g = Graph(3, [(0, 1)])
        assert not g.has_edge(0, 99)
        assert not g.has_edge(-1, 0)

    def test_contains(self):
        g = Graph(3, [])
        assert 2 in g
        assert 3 not in g

    def test_len(self):
        assert len(Graph(7, [])) == 7

    def test_max_degree(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3)])
        assert g.max_degree() == 3
        assert Graph(0, []).max_degree() == 0


class TestSubgraphAndTriangles:
    def test_subgraph_relabels(self):
        g = complete_graph(5)
        sub = g.subgraph([1, 3, 4])
        assert sub.num_vertices == 3
        assert sub.num_edges == 3  # K3

    def test_subgraph_drops_external_edges(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        sub = g.subgraph([0, 1, 3])
        assert sub.num_edges == 1

    def test_subgraph_matches_naive_filter(self):
        # The sliced implementation must behave exactly like filtering the
        # full edge list: for random graphs and random keep sets, every
        # kept edge appears (relabelled) and nothing else does.
        rng = np.random.default_rng(17)
        for _ in range(10):
            n = int(rng.integers(5, 40))
            m = int(rng.integers(0, n * 3))
            edges = [
                (int(rng.integers(0, n)), int(rng.integers(0, n)))
                for _ in range(m)
            ]
            g = Graph(n, [e for e in edges if e[0] != e[1]])
            keep = sorted(
                set(int(v) for v in rng.integers(0, n, size=n // 2 + 1))
            )
            relabel = {v: i for i, v in enumerate(keep)}
            expected = sorted(
                (relabel[u], relabel[v])
                for u, v in g.edges()
                if u in relabel and v in relabel
            )
            sub = g.subgraph(keep)
            assert sub.num_vertices == len(keep)
            assert sorted(sub.edges()) == expected

    def test_subgraph_out_of_range_ids_isolated(self):
        # Historical behaviour: keep ids outside [0, n) occupy a slot in
        # the relabelled graph but contribute no edges.
        g = Graph(3, [(0, 1), (1, 2)])
        sub = g.subgraph([0, 1, 99])
        assert sub.num_vertices == 3
        assert sorted(sub.edges()) == [(0, 1)]
        assert sub.degree(2) == 0

    def test_subgraph_empty_keep(self):
        g = complete_graph(4)
        sub = g.subgraph([])
        assert sub.num_vertices == 0
        assert sub.num_edges == 0

    def test_triangles_at(self):
        g = complete_graph(4)
        # every vertex of K4 is in C(3,2) = 3 triangles
        assert all(g.triangles_at(v) == 3 for v in g.vertices())

    def test_triangles_at_triangle_free(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        assert all(g.triangles_at(v) == 0 for v in g.vertices())


class TestEquality:
    def test_equal_graphs(self):
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b

    def test_unequal_edge_sets(self):
        assert Graph(3, [(0, 1)]) != Graph(3, [(1, 2)])

    def test_unequal_sizes(self):
        assert Graph(3, []) != Graph(4, [])

    def test_eq_other_type(self):
        assert Graph(1, []).__eq__(42) is NotImplemented

    def test_equal_graphs_hash_equal(self):
        # Regression: __hash__ used to be id(self), so two equal graphs
        # hashed differently — a contract violation that breaks dict/set
        # membership for structurally identical graphs.
        a = Graph(3, [(0, 1), (1, 2)])
        b = Graph(3, [(1, 2), (0, 1)])
        assert a == b
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_unequal_graphs_usually_hash_differently(self):
        a = Graph(3, [(0, 1)])
        b = Graph(3, [(1, 2)])
        assert hash(a) != hash(b)  # structural hash, not size-only

    def test_hash_stable_across_csr_round_trip(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        indptr, indices = g.to_csr()
        h = Graph.from_csr(indptr.copy(), indices.copy())
        assert hash(g) == hash(h)

    def test_repr(self):
        assert repr(Graph(3, [(0, 1)])) == "Graph(|V|=3, |E|=1)"


def test_normalize_edge():
    assert normalize_edge(5, 2) == (2, 5)
    assert normalize_edge(2, 5) == (2, 5)


def test_neighbor_arrays_are_int64():
    g = Graph(3, [(0, 1), (1, 2)])
    assert g.neighbors(1).dtype == np.int64


# ----------------------------------------------------------------------
# One representation: however a graph is built or attached, it is the same
# read-only CSR.
# ----------------------------------------------------------------------

# Duplicates, reversed pairs and self loops; every vertex has a real edge,
# so read_edge_list's id compaction is the identity.
MESSY_EDGES = [
    (0, 1), (1, 0), (0, 1), (2, 2), (3, 1), (1, 3), (4, 0), (2, 4), (5, 2),
    (5, 5), (3, 5), (5, 3),
]


def _from_edge_list_text(edges):
    text = "".join(f"{u} {v}\n" for u, v in edges)
    graph, id_map = read_edge_list(io.StringIO(text), allow_self_loops=True)
    assert id_map == {v: v for v in range(6)}
    return graph


@contextlib.contextmanager
def _every_kind(graph, tmp_path):
    """``graph`` as an in-memory, re-wrapped, mapped and attached graph."""
    path = tmp_path / "g.csrbin"
    write_csrbin(graph, path)
    with SharedGraphExport(graph) as export:
        attached = AttachedSharedGraph(export.handle)
        try:
            yield {
                "memory": graph,
                "from_csr": Graph.from_csr(*graph.to_csr()),
                "mapped": load_mapped(path),
                "attached": attached.graph,
            }
        finally:
            attached.close()


@pytest.mark.parametrize(
    "edges",
    [
        MESSY_EDGES,
        (edge for edge in MESSY_EDGES),
        np.array(MESSY_EDGES),
    ],
    ids=["list", "generator", "ndarray"],
)
def test_every_construction_is_the_same_graph(edges, tmp_path):
    reference = Graph(6, MESSY_EDGES)
    expected_edges = [
        (0, 1), (0, 4), (1, 3), (2, 4), (2, 5), (3, 5),
    ]
    assert list(reference.edges()) == expected_edges
    built = Graph(6, edges)
    with _every_kind(built, tmp_path) as kinds:
        kinds["read_edge_list"] = _from_edge_list_text(MESSY_EDGES)
        kinds["from_edges"] = Graph.from_edges(MESSY_EDGES)
        for name, g in kinds.items():
            assert g == reference, name
            assert g.fingerprint() == reference.fingerprint(), name
            assert list(g.edges()) == expected_edges, name
            for v in range(6):
                assert g.degree(v) == reference.degree(v), name
                assert np.array_equal(g.neighbors(v), reference.neighbors(v))
                for u in range(6):
                    assert g.has_edge(u, v) == ((min(u, v), max(u, v)) in expected_edges)


def test_has_edges_matches_scalar_has_edge(tmp_path):
    # A hub, a tail, isolated vertices (7, 9) and ids outside the graph.
    graph = Graph(
        10, [(0, v) for v in range(1, 7)] + [(1, 2), (2, 3), (5, 6), (6, 8)]
    )
    ids = np.arange(-2, 13)
    us, vs = (a.ravel() for a in np.meshgrid(ids, ids))
    expected = [graph.has_edge(u, v) for u, v in zip(us.tolist(), vs.tolist())]
    assert sum(expected) == 2 * graph.num_edges
    with _every_kind(graph, tmp_path) as kinds:
        for name, g in kinds.items():
            found = g.has_edges(us, vs)
            assert found.dtype == bool and found.tolist() == expected, name
            assert g.has_edges([], []).tolist() == [], name
    assert Graph(3, []).has_edges([0, 1], [1, 2]).tolist() == [False, False]


def test_from_csr_wraps_the_callers_buffers(tmp_path):
    indptr = np.array([0, 1, 3, 4], dtype=np.int64)
    indices = np.array([1, 0, 2, 1], dtype=np.int64)
    g = Graph.from_csr(indptr, indices)
    assert np.shares_memory(g.to_csr()[0], indptr)
    assert np.shares_memory(g.to_csr()[1], indices)
    assert np.shares_memory(g.neighbors(1), indices)
    # O(1): the held arrays themselves, every call.
    assert g.to_csr()[0] is g.to_csr()[0] and g.to_csr()[1] is g.to_csr()[1]
    # The caller's own array object is not frozen behind its back.
    assert indices.flags.writeable

    path = tmp_path / "g.csrbin"
    write_csrbin(g, path)
    mapped = load_mapped(path)
    mapping = mapped.mmap_spec.keepalive
    assert all(np.shares_memory(arr, mapping) for arr in mapped.to_csr())
    assert mapped == g


def test_from_csr_allocates_only_degrees():
    # 2^18 vertices x degree 8, built flat: the parent allocated 32 MiB of
    # per-vertex view objects here; the CSR graph needs only np.diff(indptr).
    n = 1 << 18
    offsets = np.array([-4, -3, -2, -1, 1, 2, 3, 4])
    indices = np.sort((np.arange(n)[:, None] + offsets) % n, axis=1).ravel()
    indptr = np.arange(n + 1, dtype=np.int64) * 8
    tracemalloc.start()
    try:
        g = Graph.from_csr(indptr, indices)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 3 << 20, f"from_csr peaked at {peak / 2**20:.1f} MiB"
    assert g.num_edges == 4 * n and g.degree(n - 1) == 8
    assert list(g.neighbors(0)) == [1, 2, 3, 4, n - 4, n - 3, n - 2, n - 1]


@pytest.mark.parametrize(
    "indptr, indices",
    [
        ([0, 5], [1]),  # end beyond the indices: was degree(0) == 5
        ([0, 1], [0, 0]),  # end short of the indices
        ([1, 2, 2], [1, 0]),  # does not start at 0
        ([0, 2, 1, 2], [1, 2]),  # non-monotone: was a negative degree
        ([], []),
    ],
)
def test_from_csr_rejects_inconsistent_indptr(indptr, indices):
    with pytest.raises(GraphError):
        Graph.from_csr(np.array(indptr, dtype=np.int64), np.array(indices, dtype=np.int64))


def test_malformed_edges_rejected():
    with pytest.raises(GraphError, match=r"edge \(0, 5\) out of range for 2 vertices"):
        Graph(2, np.array([[1, 1], [0, 1], [0, 5]]))
    with pytest.raises(GraphError, match="pairs"):
        Graph(4, [(0, 1, 2), (1, 2, 3)])


def test_graph_arrays_are_read_only(tmp_path):
    # "Do not mutate" is enforced: a write through any handed-out array would
    # leave the cached hash/fingerprint stale.
    with _every_kind(Graph(4, [(0, 1), (1, 2), (2, 3)]), tmp_path) as kinds:
        for name, g in kinds.items():
            before = g.fingerprint()
            for array in (g.neighbors(1), *g.to_csr(), g.degrees):
                with pytest.raises(ValueError):
                    array[0] = 2
            assert g.fingerprint() == before, name
