"""Store-level invariants the barrier accounting relies on.

The engine's memory valve and the ledgers both trust ``len(store)`` to
be the number of deliverable rows; the trace and wire ledgers trust
``wire_bytes`` to be exact.  These tests hammer the surfaces those
figures are maintained through — the barrier store's merge-and-deliver
cycle and the :class:`ColumnarOutbox` a worker ships whole.
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
        """``len(store)`` counts every merged row across senders, and
        delivery hands out exactly those rows — senders in worker-id
        order, whatever order their outboxes arrived in."""
        store = ChunkedColumnarStore(np.zeros(40, dtype=np.int64), 1)
        store.merge_chunk(0, _cols(2, base=10))
        store.merge_chunk(2, _cols(1, base=30))
        store.merge_chunk(1, _cols(3, base=20))
        assert len(store) == 6
        assert store.wire_bytes == 6 * _cols(1).nbytes
        batch = store.build_worker_batches()[0]
        assert len(batch.columns) == 6
        assert batch.vertices.tolist() == [10, 11, 20, 21, 22, 30]


class TestColumnarOutboxWatermarks:
    """The outbox has no watermark left: every send is held whole and the
    worker ships everything as one chunk at the barrier.  The ids keep
    their historical names; each now pins a face of that one chunk."""

    def pack(self, n, base=0):
        """``n`` packed rows addressed to ``base, base + 1, ...``."""
        return _cols(n, base)

    def test_oversized_send_is_cut_at_the_watermark(self):
        """No send is ever cut, however large: a whole block's children
        stay one piece, in send order, behind the sends before them."""
        outbox = ColumnarOutbox()
        outbox.append(self.pack(2))
        outbox.append(self.pack(7, base=100))
        assert len(outbox) == 9
        sent = outbox.to_columns().destinations()
        assert sent.tolist() == [0, 1] + list(range(100, 107))

    def test_one_large_append_flushes_watermark_chunks_in_order(self):
        """A lone send ships as itself: no concatenation, no copy."""
        outbox = ColumnarOutbox()
        cols = self.pack(10)
        outbox.append(cols)
        assert outbox.to_columns() is cols

    def test_byte_watermark_cuts_an_oversized_send(self):
        """The one chunk's bytes are exactly the sends' bytes — the
        ``wire_bytes`` a worker reports and the barrier cross-checks."""
        outbox = ColumnarOutbox()
        sends = [self.pack(n, base=10 * n) for n in (7, 1, 3)]
        for cols in sends:
            outbox.append(cols)
        assert outbox.to_columns().nbytes == sum(c.nbytes for c in sends)

    def test_no_flush_callback_never_chunks(self):
        outbox = ColumnarOutbox()
        for i in range(100):
            outbox.append(self.pack(3, base=i))
        assert len(outbox) == 300
        assert len(outbox.to_columns()) == 300

    def test_empty_append_is_free(self):
        outbox = ColumnarOutbox()
        outbox.append(self.pack(0))
        assert len(outbox) == 0
        assert len(outbox.to_columns()) == 0


def _cols(n, base=0):
    from repro.core import pack_gpsis

    return pack_gpsis([g(base + i) for i in range(n)], k=3)
