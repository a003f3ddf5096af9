"""Four-byte vertex ids on the data plane.

Packed rows, candidates and the rank -> vertex map carry ``int32`` ids
(a graph holds at most ``2**31`` vertices, and :data:`UNMAPPED` is -1).
Every key that shifts or multiplies ids is built in ``int64``; each test
below drives one such site with ids whose key does not fit 32 bits —
``2**31 - 1`` wherever the site does not index a graph by it — and
fails if that site computes in ``int32``.
"""

from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest

from repro.bsp import engine
from repro.bsp.message import deliver
from repro.core import PSgL, UNMAPPED
from repro.core.batch_expand import _vertex_order, _white_candidates
from repro.core.edge_index import NullEdgeIndex, _edge_key, _edge_keys_pairs
from repro.core.psi import GpsiColumns, row_bytes
from repro.exceptions import GraphError
from repro.graph import Graph
from repro.graph.ordered import OrderedGraph
from repro.pattern import PatternGraph, triangle

TOP = 2**31 - 1  # the largest id of a 2**31-vertex graph


def ids(*values):
    return np.array(values, dtype=np.int32)


class TestDtypes:
    def test_rows_and_rank_map_are_four_bytes(self):
        graph = Graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])
        assert OrderedGraph(graph).by_rank.dtype == np.int32
        initial = GpsiColumns.initial(triangle(), 0, np.arange(4))
        assert initial.mapping.dtype == np.int32
        assert GpsiColumns.empty(3).mapping.dtype == np.int32
        assert initial.nbytes == 4 * row_bytes(3) == 4 * (4 * 3 + 4 + 1)

    def test_sent_children_are_four_bytes(self):
        sent = []
        real = deliver

        def spy(outboxes, owner_of, num_workers):
            sent.extend(chunk for outbox in outboxes for chunk in outbox)
            return real(outboxes, owner_of, num_workers)

        graph = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (4, 0)])
        with mock.patch.object(engine, "deliver", spy):
            assert PSgL(graph, num_workers=2).count(
                PatternGraph(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
            ) == 1
        assert sent and all(chunk.mapping.dtype == np.int32 for chunk in sent)

    def test_a_graph_past_two_to_the_31_vertices_is_refused(self):
        # A zero-stride indptr: the length check runs before any copy.
        indptr = np.broadcast_to(np.int64(0), ((1 << 31) + 2,))
        with pytest.raises(GraphError, match="4-byte vertex ids"):
            Graph.from_csr(indptr, np.zeros(0, dtype=np.int64))


class TestKeysAreBuiltInInt64:
    def test_white_candidates_window_keys(self):
        """``vd << rank_shift`` for ``vd = 2**31 - 1`` at shift 31: a
        rank-keyed adjacency with two rows, vertex 0 and vertex TOP."""
        shift = 31
        keys = np.array(
            [0 << shift | 0, TOP << shift | 1, TOP << shift | 2], dtype=np.int64
        )
        ordered = SimpleNamespace(
            ranks=None,
            rank_shift=shift,
            rank_floor=lambda degree: 0,
            graph=SimpleNamespace(num_vertices=1 << 31),
            rank_keys=keys,
            by_rank=ids(7, TOP - 1, 5),
        )
        edge = PatternGraph(2, [(0, 1)])
        sub_live = np.array([[TOP, UNMAPPED], [0, UNMAPPED]], dtype=np.int32)
        row_of, cand = _white_candidates(
            sub_live, sub_live[:, 0], 1, 0, 0, 0b01, edge, ordered, NullEdgeIndex()
        )
        assert row_of.tolist() == [0, 0, 1]
        assert cand.tolist() == [TOP - 1, 5, 7]
        assert cand.dtype == row_of.dtype == np.int32

    def test_white_candidates_on_a_graph_past_two_to_the_16(self):
        """End to end: a triangle on the top ids of a 131,082-vertex
        graph, where ``vd << 18`` leaves 32 bits for ``vd >= 2**13``."""
        n = (1 << 17) + 10
        a, b, c = n - 3, n - 2, n - 1
        graph = Graph(n, [(a, b), (b, c), (a, c), (0, a)])
        for kind in ("exact", "bloom", "none"):
            result = PSgL(graph, num_workers=3, edge_index=kind).run(
                triangle(), collect_instances=True
            )
            assert sorted(map(sorted, result.instances)) == [[a, b, c]], kind

    def test_vertex_order_key(self):
        """``row << shift | cand`` for rows 0..2 at shift 31."""
        per_row = np.array([2, 1, 2])
        cand = ids(TOP, 3, TOP, TOP, 0)
        got = _vertex_order(per_row, cand, 31)
        assert got.tolist() == [3, TOP, TOP, 0, TOP]
        assert got.dtype == np.int32

    def test_edge_keys_pairs(self):
        n = 1 << 31
        us = ids(TOP, TOP - 1, UNMAPPED, 0, TOP)
        vs = ids(TOP - 1, TOP, TOP, UNMAPPED, 0)
        want = [_edge_key(u, v, n) & (2**64 - 1) for u, v in zip(us.tolist(), vs.tolist())]
        assert _edge_keys_pairs(us, vs, n).tolist() == want

    def test_graph_has_edges(self):
        """``min * n + max`` past 2**31 for the top edge of a
        50,000-vertex graph; TOP and UNMAPPED are outside it."""
        n = 50_000
        graph = Graph(n, [(n - 2, n - 1), (0, 1)])
        us = ids(n - 2, n - 1, 0, TOP, UNMAPPED, n - 1)
        vs = ids(n - 1, n - 2, 1, n - 1, n - 1, 0)
        assert graph.has_edges(us, vs).tolist() == [
            True, True, True, False, False, False
        ]

    def test_deliver_sort_key(self):
        """``owner * U + rank`` with 65,537 owners and 40,000 distinct
        destinations up to TOP, through an ``int32`` owner map."""
        num_workers, distinct = 65_537, 40_000
        dests = np.concatenate(
            [TOP - np.arange(distinct, dtype=np.int32)[::-1], ids(TOP, TOP - 1)]
        )
        n = len(dests)
        mapping = np.full((n, 3), UNMAPPED, dtype=np.int32)
        mapping[:, 1] = dests
        mapping[:, 0] = np.arange(n)  # a tag: the send position
        columns = GpsiColumns(
            mapping, np.zeros((n, 1), dtype=np.uint32), np.ones(n, dtype=np.uint8)
        )

        class OwnerOf:
            """``owner_of[dest]`` for ids up to TOP, without the array."""

            def __getitem__(self, dest):
                return (dest % num_workers).astype(np.int32)

        batches, inbound = deliver([[columns]], OwnerOf(), num_workers)
        owners = dests.astype(np.int64) % num_workers
        assert inbound == np.bincount(owners, minlength=num_workers).tolist()
        # Owners ascending; within one, destinations in first-send order
        # and each destination's rows in send order.
        first = {}
        for i, dest in enumerate(dests.tolist()):
            first.setdefault(dest, i)
        first_send = np.array([first[dest] for dest in dests.tolist()])
        expected = np.lexsort((np.arange(n), first_send, owners))
        got = np.concatenate(
            [batch.columns.mapping for w, batch in enumerate(batches) if inbound[w]]
        )
        assert got[:, 0].tolist() == expected.tolist()
        assert got[:, 1].tolist() == dests[expected].tolist()
        assert (got[:, 2] == UNMAPPED).all()
