"""The barrier function, :func:`repro.bsp.message.deliver`.

The engine's memory valve and the ledgers both trust ``deliver``'s
``inbound`` to be the rows each worker receives, and the trace and wire
ledgers trust a worker's sends to reach the barrier whole.  These tests
pin both faces: the sends a :class:`ComputeContext` keeps, and the one
pass that turns every sender's sends into one batch per owner — checked
here against a per-owner grouping written out row by row.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bsp.message import PackedWorkerBatch, deliver
from repro.bsp.vertex_program import ComputeContext
from repro.core import GpsiColumns


def _cols(n, base=0):
    """``n`` packed rows addressed to ``base, base + 1, ...``."""
    return rows([(base + i, base + i + 100) for i in range(n)])


def rows(sends):
    """Packed rows from ``(dest, tag)`` sends, in send order: row ``i``'s
    next vertex (v1) maps to ``dest``, and v0 carries ``tag``."""
    mapping = np.full((len(sends), 3), -1, dtype=np.int64)
    for i, (dest, tag) in enumerate(sends):
        mapping[i, :2] = tag, dest
    return GpsiColumns(
        mapping,
        np.zeros((len(sends), 1), dtype=np.uint32),
        np.ones(len(sends), dtype=np.uint8),
    )


def context():
    return ComputeContext(None, 0, 0, {})


def one_owner(outboxes, num_vertices=400):
    """Deliver ``outboxes`` to a single owner; its batch."""
    batches, inbound = deliver(
        outboxes, np.zeros(num_vertices, dtype=np.int64), 1)
    assert inbound == [len(batches[0].columns) if batches[0] else 0]
    return batches[0]


class TestMessageStoreCountInvariant:
    def test_count_tracks_takes_through_merge_cycle(self):
        """``inbound`` counts every delivered row across senders, and
        delivery hands out exactly those rows, senders in worker-id
        (position) order."""
        outboxes = [[_cols(2, base=10)], [_cols(3, base=20)],
                    [_cols(1, base=30)]]
        batches, inbound = deliver(outboxes, np.zeros(40, dtype=np.int64), 1)
        assert inbound == [6]
        batch = batches[0]
        assert batch.columns.nbytes == 6 * _cols(1).nbytes
        assert len(batch) == 6
        assert batch.columns.destinations().tolist() == [
            10, 11, 20, 21, 22, 30]


class TestColumnarOutboxWatermarks:
    """A worker's sends have no watermark: every send is held whole, and
    the barrier takes them all.  The ids keep their historical names;
    each now pins a face of the sends a :class:`ComputeContext` keeps."""

    def test_oversized_send_is_cut_at_the_watermark(self):
        """No send is ever cut, however large: a whole block's children
        stay one piece, in send order, behind the sends before them."""
        ctx = context()
        ctx.send_columns(_cols(2))
        ctx.send_columns(_cols(7, base=100))
        assert [len(chunk) for chunk in ctx.sent] == [2, 7]
        sent = one_owner([ctx.sent]).columns.destinations()
        assert sent.tolist() == [0, 1] + list(range(100, 107))

    def test_one_large_append_flushes_watermark_chunks_in_order(self):
        """A lone send is kept as itself: no concatenation, no copy."""
        ctx = context()
        cols = _cols(10)
        ctx.send_columns(cols)
        assert ctx.sent == [cols] and ctx.sent[0] is cols

    def test_byte_watermark_cuts_an_oversized_send(self):
        """The delivered bytes are exactly the sends' bytes — the
        ``wire_bytes`` the ledger records for the sender."""
        ctx = context()
        sends = [_cols(n, base=10 * n) for n in (7, 1, 3)]
        for cols in sends:
            ctx.send_columns(cols)
        nbytes = sum(cols.nbytes for cols in sends)
        assert sum(chunk.nbytes for chunk in ctx.sent) == nbytes
        assert one_owner([ctx.sent]).columns.nbytes == nbytes

    def test_no_flush_callback_never_chunks(self):
        ctx = context()
        for i in range(100):
            ctx.send_columns(_cols(3, base=i))
        assert len(one_owner([ctx.sent]).columns) == 300

    def test_empty_append_is_free(self):
        ctx = context()
        ctx.send_columns(_cols(0))
        assert ctx.sent == []
        batches, inbound = deliver([ctx.sent], np.zeros(4, dtype=np.int64), 2)
        assert batches == [[], []] and inbound == [0, 0]


class TestDeliverMatchesPerOwnerGrouping:
    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_deliver_is_a_stable_first_send_grouping_per_owner(self, data):
        """For any outboxes and owner map: owner ``w`` gets the rows
        addressed to its vertices, grouped by destination in first-send
        order (senders in position order, each sender's chunks and rows
        in send order), each vertex's rows in send order."""
        num_vertices = data.draw(st.integers(1, 12))
        num_workers = data.draw(st.integers(1, 4))
        owner_of = np.array(data.draw(st.lists(
            st.integers(0, num_workers - 1),
            min_size=num_vertices, max_size=num_vertices)), dtype=np.int64)
        dests = st.lists(st.integers(0, num_vertices - 1), max_size=6)
        plan = data.draw(st.lists(st.lists(dests, max_size=3),
                                  min_size=1, max_size=num_workers))
        tag = iter(range(10 ** 6))
        outboxes = [[rows([(d, next(tag)) for d in chunk]) for chunk in sends]
                    for sends in plan]
        sent = [(d, t) for sends in outboxes for chunk in sends
                for t, d in chunk.mapping[:, :2].tolist()]

        batches, inbound = deliver(outboxes, owner_of, num_workers)

        assert all(outbox == [] for outbox in outboxes)
        for w in range(num_workers):
            mine = [(d, t) for d, t in sent if owner_of[d] == w]
            order = list(dict.fromkeys(d for d, _ in mine))
            expected = [(d, t) for v in order for d, t in mine if d == v]
            assert inbound[w] == len(mine)
            if not mine:
                assert batches[w] == []
                continue
            batch = batches[w]
            assert isinstance(batch, PackedWorkerBatch)
            assert len(batch) == len(order)
            got = [(d, t) for t, d in batch.columns.mapping[:, :2].tolist()]
            assert got == expected
