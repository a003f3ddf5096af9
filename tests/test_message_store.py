"""Store-level invariants the barrier accounting relies on.

The engine's memory valve and the ledgers both trust ``len(store)`` to
be the number of deliverable rows; the trace and wire ledgers trust
``wire_bytes`` to be exact.  These tests hammer the surfaces those
figures are maintained through — the barrier store's merge-and-deliver
cycle and the :class:`ColumnarOutbox` watermark machinery the pipelined
shuffle is built on.
"""

import numpy as np

from repro.bsp.message import ChunkedColumnarStore, ColumnarOutbox
from repro.core import Gpsi, UNMAPPED


def g(dest):
    """A Gpsi whose next vertex (v1) is mapped to ``dest``: a routed,
    self-addressed row."""
    return Gpsi((dest + 100, dest, UNMAPPED), 0b001, 1)


class TestMessageStoreCountInvariant:
    def test_count_tracks_takes_through_merge_cycle(self):
        """``len(store)`` counts every merged row across senders and
        chunks, and delivery hands out exactly those rows — senders in
        worker-id order, each sender's chunks in ``seq`` order."""
        store = ChunkedColumnarStore(np.zeros(40, dtype=np.int64), 1)
        store.merge_chunk(0, 0, _cols(2, base=10))
        store.merge_chunk(1, 0, _cols(3, base=20))
        store.merge_chunk(0, 1, _cols(1, base=30))
        assert len(store) == 6
        assert store.wire_bytes == 6 * _cols(1).nbytes
        batch = store.build_worker_batches()[0]
        assert len(batch.columns) == 6
        assert batch.vertices.tolist() == [10, 11, 30, 20, 21, 22]


class TestColumnarOutboxWatermarks:
    def pack(self, n, base=0):
        """``n`` packed rows addressed to ``base, base + 1, ...``."""
        return _cols(n, base)

    def test_row_watermark_flushes_bounded_chunks(self):
        flushed = []
        outbox = ColumnarOutbox(flush=flushed.append, chunk_gpsis=4)
        for i in range(5):
            outbox.append(self.pack(2, base=10 * i))
        # 10 rows at watermark 4 → two 4-row chunks out, 2-row residual.
        assert [len(b) for b in flushed] == [4, 4]
        assert outbox.chunks_flushed == 2
        assert len(outbox) == 2
        residual = outbox.to_columns()
        assert len(residual) == 2
        assert outbox.flushed_bytes == sum(b.nbytes for b in flushed)

    def test_oversized_send_is_cut_at_the_watermark(self):
        """A single send larger than the watermark (one send is a whole
        block's children) leaves in watermark-sized chunks: the pending
        rows before it flush first, its tail stays pending — so every
        chunk is ≤ the watermark."""
        flushed = []
        outbox = ColumnarOutbox(flush=flushed.append, chunk_gpsis=4)
        outbox.append(self.pack(2))
        cols = self.pack(7, base=100)
        outbox.append(cols)  # overflows: 2 flush, then 4, 3 pending
        assert [len(b) for b in flushed] == [2, 4]
        assert len(outbox) == 3
        assert outbox.max_append_bytes == cols.nbytes
        sent = np.concatenate(
            [b.destinations() for b in flushed + [outbox.to_columns()]]
        )
        assert sent.tolist() == [0, 1] + list(range(100, 107))

    def test_one_large_append_flushes_watermark_chunks_in_order(self):
        flushed = []
        outbox = ColumnarOutbox(flush=flushed.append, chunk_gpsis=4)
        outbox.append(self.pack(10))
        assert [b.destinations().tolist() for b in flushed] == [
            [0, 1, 2, 3],
            [4, 5, 6, 7],
        ]
        residual = outbox.to_columns()
        assert residual.destinations().tolist() == [8, 9]
        parts = flushed + [residual]
        whole = self.pack(10)
        assert np.array_equal(
            np.concatenate([p.mapping for p in parts]), whole.mapping
        )
        assert outbox.flushed_bytes == sum(b.nbytes for b in flushed)

    def test_byte_watermark_cuts_an_oversized_send(self):
        flushed = []
        cols = self.pack(7)
        row_bytes = cols.nbytes // 7
        outbox = ColumnarOutbox(flush=flushed.append, chunk_bytes=3 * row_bytes + 1)
        outbox.append(cols)
        assert [len(b) for b in flushed] == [3, 3]
        assert len(outbox) == 1

    def test_byte_watermark(self):
        flushed = []
        row_bytes = self.pack(1).nbytes
        outbox = ColumnarOutbox(flush=flushed.append, chunk_bytes=3 * row_bytes)
        for i in range(7):
            outbox.append(self.pack(1, base=i))
        assert [len(b) for b in flushed] == [3, 3]
        assert len(outbox) == 1

    def test_streamed_plus_residual_equals_unwatermarked(self):
        """Chunks + residual concatenate to exactly the batch a plain
        outbox would ship — the identity pipelined parity rests on."""
        plain = ColumnarOutbox()
        streaming = []
        chunked = ColumnarOutbox(flush=streaming.append, chunk_gpsis=3)
        for i in range(4):
            cols = self.pack(2, base=10 * i)
            plain.append(cols)
            chunked.append(cols)
        reference = plain.to_columns()
        parts = streaming + [chunked.to_columns()]
        rebuilt = np.concatenate([p.mapping for p in parts])
        assert rebuilt.tolist() == reference.mapping.tolist()
        assert sum(p.nbytes for p in parts) == reference.nbytes
        assert (
            chunked.flushed_bytes + chunked.to_columns().nbytes
            == reference.nbytes
        )

    def test_no_flush_callback_never_chunks(self):
        outbox = ColumnarOutbox()
        for i in range(100):
            outbox.append(self.pack(3, base=i))
        assert outbox.chunks_flushed == 0
        assert len(outbox) == 300

    def test_empty_append_is_free(self):
        flushed = []
        outbox = ColumnarOutbox(flush=flushed.append, chunk_gpsis=1)
        outbox.append(self.pack(0))
        assert len(outbox) == 0 and flushed == []


def _cols(n, base=0):
    from repro.core import pack_gpsis

    return pack_gpsis([g(base + i) for i in range(n)], k=3)
