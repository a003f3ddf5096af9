"""The chunk schedule of the production plane: store, guards, trace.

The barrier store takes ``(sender, seq)``-tagged chunks in any arrival
order and must deliver as if every sender's outbox had arrived whole, in
worker-id order — that is what makes strict and pipelined shuffle two
schedules over one store.  These tests pin the store's surface
(ordering, accounting, loud failure on gaps/duplicates), the watermark
guards, and the chunk trace events that make the overlap observable.
End-to-end parity of every schedule against the reference plane is
``tests/test_plane_parity.py``.
"""

import numpy as np
import pytest

from repro.bsp import (
    BSPEngine,
    ChunkedColumnarStore,
    DEFAULT_CHUNK_GPSIS,
    ExecutionConfig,
    GpsiBatch,
    SHUFFLE_MODES,
)
from repro.core import Gpsi, PSgL, UNMAPPED, pack_gpsis, unpack_gpsis
from repro.exceptions import EngineError
from repro.graph import Graph, hash_partition
from repro.graph.generators import erdos_renyi
from repro.obs import Tracer
from repro.pattern import paper_patterns

from .parity import assert_illegal

GRAPHS = {"er": erdos_renyi(28, 0.25, seed=13)}

#: Tiny watermark so even the 28-vertex graphs stream many chunks per
#: superstep — the trace tests see real streaming, not the degenerate
#: everything-in-the-residual case.
TINY_CHUNK = 4


class TestEngineGuards:
    def test_unknown_shuffle_mode_rejected(self):
        assert_illegal(dict(shuffle="chaotic"), "unknown shuffle")
        assert SHUFFLE_MODES == ("strict", "pipelined")

    def test_default_watermark_applied(self):
        engine = BSPEngine(
            Graph(4, [(0, 1), (1, 2)]),
            hash_partition(4, 2),
            shuffle="pipelined",
        )
        assert engine.config.chunk_gpsis == DEFAULT_CHUNK_GPSIS
        assert engine.config.chunk_bytes is None
        # An explicit byte watermark is not joined by a default row one.
        config = ExecutionConfig(shuffle="pipelined", chunk_bytes=4096)
        assert config.chunk_gpsis is None

    def test_watermarks_refused_under_strict(self):
        assert_illegal(dict(chunk_gpsis=64), "pipelined")
        assert_illegal(dict(chunk_bytes=4096), "pipelined")

    def test_nonpositive_watermark_rejected(self):
        assert_illegal(dict(shuffle="pipelined", chunk_gpsis=0), "chunk_gpsis")


# ----------------------------------------------------------------------
# ChunkedColumnarStore unit semantics
# ----------------------------------------------------------------------
def g(i, nxt=1):
    return Gpsi((i, UNMAPPED, i + 100), 0b001, nxt)


def batch(*sends):
    """A packed outbox from ``(dest, gpsi)`` sends, in send order."""
    return GpsiBatch(
        np.array([dest for dest, _ in sends], dtype=np.int64),
        pack_gpsis([gpsi for _, gpsi in sends], k=3),
    )


def outbox_batches():
    """Two workers' outboxes (interleaved destinations)."""
    return (
        batch((5, g(0)), (2, g(1)), (5, g(2))),
        batch((2, g(3)), (9, g(4)), (5, g(5))),
    )


def split_rows(whole, size):
    """Slice a packed batch into ``size``-row chunks, in send order."""
    chunks = []
    for start in range(0, len(whole), size):
        rows = np.arange(start, min(start + size, len(whole)))
        chunks.append(GpsiBatch(whole.dest[rows], whole.columns.take(rows)))
    return chunks


OWNERS = np.zeros(10, dtype=np.int64)
OWNERS[5] = 1  # v5 on worker 1; v2, v9 on worker 0

#: What the two outboxes must deliver, whatever the chunking: per worker,
#: vertices in first-send order (worker 0's sends precede worker 1's),
#: each vertex's payloads in send order.
EXPECTED = [
    [(2, [g(1), g(3)]), (9, [g(4)])],
    [(5, [g(0), g(2), g(5)])],
]


def delivered(store):
    """Decode ``build_worker_batches`` to ``(vertex, payloads)`` lists."""
    out = []
    for packed in store.build_worker_batches():
        if not packed:
            out.append([])
            continue
        gpsis = unpack_gpsis(packed.columns)
        bounds = np.concatenate([[0], np.cumsum(packed.counts)]).tolist()
        out.append(
            [
                (vertex, gpsis[bounds[i] : bounds[i + 1]])
                for i, vertex in enumerate(packed.vertices.tolist())
            ]
        )
    return out


class TestChunkedStoreSemantics:
    def test_one_chunk_per_sender_is_the_strict_schedule(self):
        b0, b1 = outbox_batches()
        store = ChunkedColumnarStore(OWNERS, 2)
        store.merge_chunk(0, 0, b0)
        store.merge_chunk(1, 0, b1)
        assert delivered(store) == EXPECTED
        assert len(store) == 6 and store.chunks_merged == 2
        assert store.wire_bytes == b0.nbytes + b1.nbytes

    def test_out_of_order_chunks_deliver_in_worker_id_order(self):
        """Chunks arriving in scrambled (sender, seq) order must deliver
        exactly what whole outboxes merged in worker-id order deliver."""
        b0, b1 = outbox_batches()
        chunks = [(0, i, c) for i, c in enumerate(split_rows(b0, 1))]
        chunks += [(1, i, c) for i, c in enumerate(split_rows(b1, 2))]
        store = ChunkedColumnarStore(OWNERS, 2)
        for sender, seq, chunk in reversed(chunks):  # worst-case arrival
            store.merge_chunk(sender, seq, chunk)
        assert len(store) == 6
        assert store.wire_bytes == b0.nbytes + b1.nbytes
        assert store.max_chunk_bytes == split_rows(b1, 2)[0].nbytes
        assert delivered(store) == EXPECTED

    def test_workers_without_messages_get_falsy_batches(self):
        b0, _ = outbox_batches()
        store = ChunkedColumnarStore(OWNERS, 3)
        store.merge_chunk(0, 0, b0)
        batches = store.build_worker_batches()
        assert batches[2] == []
        assert [len(b) for b in batches[:2]] == [1, 1]  # v2 | v5

    def test_batch_nbytes_is_exact_buffer_size(self):
        b0, _ = outbox_batches()
        assert b0.nbytes == b0.dest.nbytes + b0.columns.nbytes
        assert b0.nbytes == len(b0) * (8 + 8 * 3 + 4 + 1)

    def test_duplicate_seq_rejected(self):
        b0, _ = outbox_batches()
        store = ChunkedColumnarStore(OWNERS, 2)
        store.merge_chunk(0, 0, b0)
        with pytest.raises(EngineError, match="duplicate"):
            store.merge_chunk(0, 0, b0)

    def test_seq_gap_fails_at_finalize(self):
        b0, _ = outbox_batches()
        store = ChunkedColumnarStore(OWNERS, 2)
        store.merge_chunk(0, 0, b0)
        store.merge_chunk(0, 2, b0)  # seq 1 never arrives
        with pytest.raises(EngineError, match="gaps"):
            store.finalize()

    def test_chunk_after_finalize_rejected(self):
        b0, _ = outbox_batches()
        store = ChunkedColumnarStore(OWNERS, 2)
        store.merge_chunk(0, 0, b0)
        store.finalize()
        with pytest.raises(EngineError, match="finalized"):
            store.merge_chunk(0, 1, b0)

    def test_empty_chunk_counts_toward_sequence_only(self):
        """An empty chunk must keep the seq contiguous without adding
        rows, bytes, or activating anything."""
        b0, _ = outbox_batches()
        store = ChunkedColumnarStore(OWNERS, 2)
        store.merge_chunk(0, 0, batch())
        store.merge_chunk(0, 1, b0)
        store.finalize()
        assert len(store) == len(b0)
        assert store.chunks_merged == 1
        assert store.wire_bytes == b0.nbytes


class TestChunkTraceEvents:
    def run_traced(self, **kwargs):
        tracer = Tracer()
        PSgL(
            GRAPHS["er"],
            num_workers=4,
            seed=3,
            trace=tracer,
            **kwargs,
        ).run(paper_patterns()["PG2"])
        return tracer

    def test_flush_and_deliver_events_present(self):
        tracer = self.run_traced(
            backend="thread", procs=2, shuffle="pipelined", chunk_gpsis=TINY_CHUNK
        )
        flushes = tracer.by_kind("chunk_flush")
        delivers = tracer.by_kind("chunk_deliver")
        assert flushes, "tiny watermark must stream at least one chunk"
        assert delivers
        for event in flushes:
            assert event.data["rows"] >= 1
            assert event.data["nbytes"] > 0
            assert event.data["seq"] >= 0
            assert event.wall_ms is not None and event.wall_ms >= 0
        # One deliver per streamed chunk; each worker's below-watermark
        # remainder rides the step result and is not a streamed chunk.
        assert len(delivers) == len(flushes)
        chunks = sum(b.data["chunks"] for b in tracer.by_kind("barrier"))
        assert chunks > len(flushes)

    def test_barrier_pins_chunk_size_bound(self):
        tracer = self.run_traced(
            backend="thread", procs=2, shuffle="pipelined", chunk_gpsis=TINY_CHUNK
        )
        barriers = tracer.by_kind("barrier")
        flushes = tracer.by_kind("chunk_flush")
        assert barriers and flushes
        for event in barriers:
            assert "merge_ms" in event.data
            assert "chunks" in event.data and "max_send_bytes" in event.data
        # The watermark bound: every streamed chunk is either within the
        # row watermark or a single oversized send flushed alone (whose
        # size is pinned by the barrier's ``max_send_bytes``).
        max_send = max(b.data["max_send_bytes"] for b in barriers)
        for event in flushes:
            assert (
                event.data["rows"] <= TINY_CHUNK
                or event.data["nbytes"] <= max_send
            )
        max_chunk = max(b.data["max_chunk_bytes"] for b in barriers)
        per_row = max(e.data["nbytes"] / e.data["rows"] for e in flushes)
        assert max_chunk <= max(TINY_CHUNK * per_row, max_send)

    def test_superstep_records_build_ms(self):
        tracer = self.run_traced(shuffle="pipelined", chunk_gpsis=TINY_CHUNK)
        for event in tracer.by_kind("superstep"):
            assert event.data["build_ms"] >= 0

    def test_strict_trace_has_no_chunk_events(self):
        tracer = self.run_traced(shuffle="strict")
        assert tracer.by_kind("chunk_flush") == []
        assert tracer.by_kind("chunk_deliver") == []

    def test_summary_identical_strict_vs_pipelined(self):
        strict = self.run_traced(shuffle="strict")
        pipelined = self.run_traced(shuffle="pipelined", chunk_gpsis=TINY_CHUNK)
        assert pipelined.worker_totals() == strict.worker_totals()
        assert pipelined.summary() == strict.summary()
