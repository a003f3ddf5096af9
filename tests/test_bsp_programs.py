"""Classic Pregel programs on the BSP substrate.

PageRank, connected components and single-source shortest paths exercise
what the engine promises any vertex program beyond PSgL's: data-dependent
halting and a declared initial active set.  Reductions a Pregel combiner would do (the rank sum, the
minimum label, the shortest candidate) happen on the receiving side.
"""

import struct

import pytest

from repro.bsp import BSPEngine
from repro.graph import Graph, complete_graph, hash_partition

from .programs import PerVertex


def float_bits(x):
    """``x`` as the int64 with the same bits: a float rides in an
    integer payload column unchanged."""
    return struct.unpack("<q", struct.pack("<d", x))[0]


def bits_float(bits):
    return struct.unpack("<d", struct.pack("<q", bits))[0]


class PageRank(PerVertex):
    """Fixed-iteration PageRank; ``ranks`` holds each vertex's latest rank."""

    def __init__(self, iterations=10, damping=0.85):
        self.iterations = iterations
        self.damping = damping
        self.ranks = {}

    def visit(self, ctx, vertex, shares):
        n = ctx.graph.num_vertices
        if ctx.superstep == 0:
            rank = 1.0 / n
        else:
            received = sum(bits_float(share) for share in shares)
            rank = (1 - self.damping) / n + self.damping * received
        self.ranks[vertex] = rank
        degree = ctx.graph.degree(vertex)
        if ctx.superstep < self.iterations and degree:
            return float_bits(rank / degree)
        return None


class ConnectedComponents(PerVertex):
    """Label propagation: every vertex converges to its component's
    minimum id; halts when no label changes (no messages sent)."""

    def __init__(self):
        self.labels = {}

    def visit(self, ctx, vertex, labels):
        if ctx.superstep == 0:
            label = vertex
        else:
            label = min(labels)
            if label >= self.labels[vertex]:
                return None  # no improvement: stay silent (vote to halt)
        self.labels[vertex] = label
        return label


class SSSP(PerVertex):
    """Single-source shortest paths (unit weights)."""

    def __init__(self, source):
        self.source = source
        self.dist = {}

    def initial_active_vertices(self, graph):
        return [self.source]

    def visit(self, ctx, vertex, distances):
        candidate = min(distances) if ctx.superstep else 0
        if candidate >= self.dist.get(vertex, float("inf")):
            return None
        self.dist[vertex] = candidate
        return candidate + 1


def two_triangles_and_isolate():
    # components {0,1,2}, {3,4,5}, {6}
    return Graph(7, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


class TestPageRank:
    def test_mass_conserved(self):
        g = complete_graph(6)
        program = PageRank(iterations=8)
        BSPEngine(g, hash_partition(6, 2)).run(program)
        assert sum(program.ranks.values()) == pytest.approx(1.0, abs=1e-6)

    def test_symmetric_graph_uniform_ranks(self):
        g = complete_graph(5)
        program = PageRank(iterations=6)
        BSPEngine(g, hash_partition(5, 2)).run(program)
        values = list(program.ranks.values())
        assert max(values) - min(values) < 1e-9

    def test_hub_outranks_leaves(self):
        g = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        program = PageRank(iterations=20)
        BSPEngine(g, hash_partition(5, 2)).run(program)
        assert program.ranks[0] > 2 * program.ranks[1]


class TestConnectedComponents:
    def test_labels(self):
        g = two_triangles_and_isolate()
        program = ConnectedComponents()
        BSPEngine(g, hash_partition(7, 3)).run(program)
        assert program.labels[0] == program.labels[1] == program.labels[2] == 0
        assert program.labels[3] == program.labels[4] == program.labels[5] == 3
        assert program.labels[6] == 6

    def test_halts_without_iteration_cap(self):
        g = two_triangles_and_isolate()
        result = BSPEngine(g, hash_partition(7, 2)).run(ConnectedComponents())
        assert result.supersteps <= 5

    def test_path_graph_propagates(self):
        n = 20
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        program = ConnectedComponents()
        BSPEngine(g, hash_partition(n, 4)).run(program)
        assert all(label == 0 for label in program.labels.values())


class TestSSSP:
    def test_distances_on_path(self):
        n = 10
        g = Graph(n, [(i, i + 1) for i in range(n - 1)])
        program = SSSP(source=0)
        BSPEngine(g, hash_partition(n, 3)).run(program)
        assert program.dist == {v: v for v in range(n)}

    def test_unreachable_vertices_absent(self):
        g = Graph(4, [(0, 1)])
        program = SSSP(source=0)
        BSPEngine(g, hash_partition(4, 2)).run(program)
        assert 2 not in program.dist and 3 not in program.dist

