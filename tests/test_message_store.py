"""Store-level invariants the barrier accounting relies on.

The engine's memory valve and the ledgers both trust ``len(store)`` to
be the number of deliverable payloads; the trace and wire ledgers trust
``wire_bytes`` to be exact.  These tests hammer the merge surfaces those
figures are maintained through — combiner folds across worker batches,
empty slots, duplicate destinations — plus the :class:`ColumnarOutbox`
watermark machinery the pipelined shuffle is built on.
"""

import numpy as np
import pytest

from repro.bsp import GpsiBatch, Message, MessageStore
from repro.bsp.message import ColumnarOutbox
from repro.core import Gpsi, UNMAPPED


def g(i, nxt=1):
    return Gpsi((i, UNMAPPED, i + 100), 0b001, nxt)


class TestMergeBatchCombinerFold:
    def test_fold_across_batches_matches_live_adds(self):
        """merge_batch folding worker outboxes in worker-id order must
        equal a serial store fed the same messages through ``add``."""
        combine = lambda a, b: a + b  # noqa: E731
        messages = [(3, 1), (4, 10), (3, 2), (4, 30), (3, 4)]
        live = MessageStore(combine)
        for dest, payload in messages:
            live.add(Message(dest, payload))
        merged = MessageStore(combine)
        merged.merge_batch([(3, [1]), (4, [10])])  # worker 0's outbox
        merged.merge_batch([(3, [2]), (4, [30])])  # worker 1's outbox
        merged.merge_batch([(3, [4])])  # worker 2's outbox
        assert len(merged) == len(live) == 2
        assert merged.take(3) == live.take(3) == [7]
        assert merged.take(4) == live.take(4) == [40]
        assert len(merged) == 0 and not merged

    def test_fold_is_order_sensitive_like_serial(self):
        """A non-commutative combiner pins the fold order: payloads fold
        left-to-right within a batch, batches in merge order — the same
        order a serial superstep would apply ``add``."""
        combine = lambda a, b: f"({a}+{b})"  # noqa: E731
        merged = MessageStore(combine)
        merged.merge_batch([(0, ["a", "b"])])
        merged.merge_batch([(0, ["c"])])
        assert merged.take(0) == ["((a+b)+c)"]

    def test_count_stable_under_duplicate_destination_folds(self):
        """Folding into an existing slot must not move ``_count``: one
        deliverable payload per destination, however many batches fed it."""
        combine = lambda a, b: a + b  # noqa: E731
        merged = MessageStore(combine)
        for k in range(5):
            merged.merge_batch([(7, [k]), (8, [k])])
            assert len(merged) == 2
        assert merged.take(7) == [sum(range(5))]
        assert len(merged) == 1

    def test_empty_slot_never_activates_or_counts(self):
        combine = lambda a, b: a + b  # noqa: E731
        for store in (MessageStore(), MessageStore(combine)):
            store.merge_batch([(5, []), (6, [1])])
            assert len(store) == 1
            assert store.destinations() == [6]
            assert store.take(5) == []
            assert len(store) == 1  # taking a never-activated vertex is free


class TestMessageStoreCountInvariant:
    def test_count_tracks_takes_through_merge_cycle(self):
        store = MessageStore()
        store.merge_batch([(1, [10, 11]), (2, [20])])
        store.merge_batch([(1, [12]), (3, [30])])
        assert len(store) == 5
        assert store.take(1) == [10, 11, 12]
        assert len(store) == 2  # 5 - 3: duplicate-destination lists concatenated
        assert store.take(2) == [20]
        assert store.take(3) == [30]
        assert len(store) == 0 and not store

    def test_extend_fast_path_matches_add(self):
        fast, slow = MessageStore(), MessageStore()
        msgs = [Message(1, "a"), Message(2, "b"), Message(1, "c")]
        fast.extend(msgs)
        for msg in msgs:
            slow.add(msg)
        assert len(fast) == len(slow) == 3
        assert fast.as_batch() == slow.as_batch()


class TestColumnarOutboxWatermarks:
    def pack(self, n, base=0):
        return np.arange(base, base + n, dtype=np.int64), _cols(n, base)

    def test_row_watermark_flushes_bounded_chunks(self):
        flushed = []
        outbox = ColumnarOutbox(flush=flushed.append, chunk_gpsis=4)
        for i in range(5):
            dest, cols = self.pack(2, base=10 * i)
            outbox.append(dest, cols)
        # 10 rows at watermark 4 → two 4-row chunks out, 2-row residual.
        assert [len(b) for b in flushed] == [4, 4]
        assert outbox.chunks_flushed == 2
        assert len(outbox) == 2
        residual = outbox.to_batch()
        assert len(residual) == 2
        assert outbox.flushed_bytes == sum(b.nbytes for b in flushed)

    def test_oversized_send_is_cut_at_the_watermark(self):
        """A single send larger than the watermark (one send is a whole
        block's children) leaves in watermark-sized chunks: the pending
        rows before it flush first, its tail stays pending — so every
        chunk is ≤ the watermark."""
        flushed = []
        outbox = ColumnarOutbox(flush=flushed.append, chunk_gpsis=4)
        outbox.append(*self.pack(2))
        dest, cols = self.pack(7, base=100)
        outbox.append(dest, cols)  # overflows: 2 flush, then 4, 3 pending
        assert [len(b) for b in flushed] == [2, 4]
        assert len(outbox) == 3
        assert outbox.max_append_bytes == dest.nbytes + cols.nbytes
        sent = np.concatenate([b.dest for b in flushed] + [outbox.to_batch().dest])
        assert sent.tolist() == [0, 1] + list(range(100, 107))

    def test_one_large_append_flushes_watermark_chunks_in_order(self):
        flushed = []
        outbox = ColumnarOutbox(flush=flushed.append, chunk_gpsis=4)
        outbox.append(*self.pack(10))
        assert [b.dest.tolist() for b in flushed] == [[0, 1, 2, 3], [4, 5, 6, 7]]
        residual = outbox.to_batch()
        assert residual.dest.tolist() == [8, 9]
        parts = flushed + [residual]
        whole = self.pack(10)[1]
        assert np.array_equal(
            np.concatenate([p.columns.mapping for p in parts]), whole.mapping
        )
        assert outbox.flushed_bytes == sum(b.nbytes for b in flushed)

    def test_byte_watermark_cuts_an_oversized_send(self):
        flushed = []
        dest, cols = self.pack(7)
        row_bytes = (dest.nbytes + cols.nbytes) // 7
        outbox = ColumnarOutbox(flush=flushed.append, chunk_bytes=3 * row_bytes + 1)
        outbox.append(dest, cols)
        assert [len(b) for b in flushed] == [3, 3]
        assert len(outbox) == 1

    def test_byte_watermark(self):
        flushed = []
        dest, cols = self.pack(1)
        row_bytes = dest.nbytes + cols.nbytes
        outbox = ColumnarOutbox(flush=flushed.append, chunk_bytes=3 * row_bytes)
        for i in range(7):
            outbox.append(*self.pack(1, base=i))
        assert [len(b) for b in flushed] == [3, 3]
        assert len(outbox) == 1

    def test_streamed_plus_residual_equals_unwatermarked(self):
        """Chunks + residual concatenate to exactly the batch a plain
        outbox would ship — the identity pipelined parity rests on."""
        plain = ColumnarOutbox()
        streaming = []
        chunked = ColumnarOutbox(flush=streaming.append, chunk_gpsis=3)
        for i in range(4):
            dest, cols = self.pack(2, base=10 * i)
            plain.append(dest.copy(), cols)
            chunked.append(dest, cols)
        reference = plain.to_batch()
        parts = streaming + [chunked.to_batch()]
        rebuilt_dest = np.concatenate([p.dest for p in parts])
        assert rebuilt_dest.tolist() == reference.dest.tolist()
        assert sum(p.nbytes for p in parts) == reference.nbytes
        assert (
            chunked.flushed_bytes + chunked.to_batch().nbytes == reference.nbytes
        )

    def test_no_flush_callback_never_chunks(self):
        outbox = ColumnarOutbox()
        for i in range(100):
            outbox.append(*self.pack(3, base=i))
        assert outbox.chunks_flushed == 0
        assert len(outbox) == 300

    def test_empty_append_is_free(self):
        flushed = []
        outbox = ColumnarOutbox(flush=flushed.append, chunk_gpsis=1)
        dest, cols = self.pack(0)
        outbox.append(dest, cols)
        assert len(outbox) == 0 and flushed == []


def _cols(n, base=0):
    from repro.core import pack_gpsis

    return pack_gpsis([g(base + i) for i in range(n)], k=3)
