"""The engine's one shuffle schedule: barrier, retired knobs, trace.

Every worker's outbox crosses the barrier whole; the pipelined schedule
that streamed watermark-sized chunks mid-compute is retired (the file
keeps its name and test ids).  The barrier is one function,
``deliver``, which takes every sender's sends in worker-id order and
delivers them in that order.  These tests pin its surface (ordering,
accounting, an outbox consumed once), the refusal of the retired knobs,
and the barrier trace.  End-to-end parity against the reference oracle is
``tests/test_plane_parity.py``.
"""

import dataclasses

import numpy as np

import repro.bsp
from repro.bsp import BSPEngine, ExecutionConfig
from repro.bsp.message import deliver
from repro.core import Gpsi, PSgL, UNMAPPED, pack_gpsis, unpack_gpsis
from repro.core.psi import row_bytes
from repro.graph import Graph, hash_partition
from repro.graph.generators import erdos_renyi
from repro.obs import Tracer
from repro.pattern import paper_patterns

from .parity import assert_illegal, assert_outboxes_cross_whole

GRAPHS = {"er": erdos_renyi(28, 0.25, seed=13)}

#: What a caller who asks for a retired knob is told.
ONE_CHUNK = "a barrier ships each outbox whole, as one chunk"


class TestEngineGuards:
    def test_unknown_shuffle_mode_rejected(self):
        """``shuffle`` is a retired field: refused by name, whatever the
        value — the one that used to be the default included."""
        for mode in ("chaotic", "pipelined", "strict"):
            assert_illegal(dict(shuffle=mode), ONE_CHUNK)
        assert not hasattr(repro.bsp, "SHUFFLE_MODES")

    def test_default_watermark_applied(self):
        """No watermark is left to default: the config has no chunk
        knob, and what an engine reads back is the one schedule's."""
        engine = BSPEngine(Graph(4, [(0, 1), (1, 2)]), hash_partition(4, 2))
        names = {spec.name for spec in dataclasses.fields(engine.config)}
        assert not names & {"shuffle", "chunk_gpsis", "chunk_bytes"}
        assert engine.config == ExecutionConfig()
        assert not hasattr(repro.bsp, "DEFAULT_CHUNK_GPSIS")

    def test_watermarks_refused_under_strict(self):
        assert_illegal(dict(chunk_gpsis=64), "chunk watermarks are retired")
        assert_illegal(dict(chunk_bytes=4096), "chunk watermarks are retired")

    def test_nonpositive_watermark_rejected(self):
        """A retired field is refused by name before its value is read."""
        assert_illegal(dict(chunk_gpsis=0), "unknown chunk_gpsis: not an")
        assert_illegal(dict(chunk_bytes=-5), "unknown chunk_bytes: not an")


# ----------------------------------------------------------------------
# The barrier function's unit semantics
# ----------------------------------------------------------------------
def g(dest, i):
    """Gpsi ``i`` routed to ``dest``: its next vertex (v1) maps there."""
    return Gpsi((i, dest, UNMAPPED), 0b001, 1)


def batch(*sends):
    """A packed outbox from ``(dest, i)`` sends, in send order."""
    return pack_gpsis([g(dest, i) for dest, i in sends], k=3)


def outbox_batches():
    """Two workers' outboxes (interleaved destinations)."""
    return (
        batch((5, 0), (2, 1), (5, 2)),
        batch((2, 3), (9, 4), (5, 5)),
    )


OWNERS = np.zeros(10, dtype=np.int64)
OWNERS[5] = 1  # v5 on worker 1; v2, v9 on worker 0

#: What the two outboxes must deliver: per worker, vertices in first-send
#: order (worker 0's sends precede worker 1's), each vertex's payloads in
#: send order.
EXPECTED = [
    [(2, [g(2, 1), g(2, 3)]), (9, [g(9, 4)])],
    [(5, [g(5, 0), g(5, 2), g(5, 5)])],
]


def delivered(batches):
    """Decode ``deliver``'s batches to ``(vertex, payloads)`` lists;
    each row's vertex is the destination it derives."""
    out = []
    for packed in batches:
        if not packed:
            out.append([])
            continue
        dest = packed.columns.destinations().tolist()
        gpsis = unpack_gpsis(packed.columns)
        vertices = list(dict.fromkeys(dest))
        assert len(packed) == len(vertices)
        out.append(
            [
                (vertex, [p for d, p in zip(dest, gpsis) if d == vertex])
                for vertex in vertices
            ]
        )
        # Grouped delivery: each vertex's rows are one consecutive run.
        assert dest == sorted(dest, key=vertices.index)
    return out


class TestChunkedStoreSemantics:
    """The ids keep the retired barrier store's names; each now pins the
    face of :func:`deliver` that replaced it."""

    def test_one_chunk_per_sender_is_the_strict_schedule(self):
        b0, b1 = outbox_batches()
        batches, inbound = deliver([[b0], [b1]], OWNERS, 2)
        assert delivered(batches) == EXPECTED
        assert inbound == [3, 3]
        assert sum(len(b.columns) for b in batches) == 6

    def test_out_of_order_chunks_deliver_in_worker_id_order(self):
        """Delivery follows the outboxes' position, which is worker-id
        order, not where a sender cut its sends: chunks cut anywhere
        deliver exactly what one whole chunk per sender delivers."""
        b0, b1 = outbox_batches()
        cut = [[b0.row_slice(0, 1), b0.row_slice(1, 3)],
               [b1.row_slice(0, 2), b1.row_slice(2, 3)]]
        batches, inbound = deliver(cut, OWNERS, 2)
        assert inbound == [3, 3]
        assert delivered(batches) == EXPECTED

    def test_workers_without_messages_get_falsy_batches(self):
        b0, _ = outbox_batches()
        batches, inbound = deliver([[b0]], OWNERS, 3)
        assert batches[2] == [] and inbound == [1, 2, 0]
        assert [len(b) for b in batches[:2]] == [1, 1]  # v2 | v5

    def test_batch_nbytes_is_exact_buffer_size(self):
        """A chunk is the three Gpsi columns and nothing else: no
        destination column rides beside the rows."""
        b0, _ = outbox_batches()
        assert b0.nbytes == (
            b0.mapping.nbytes + b0.black.nbytes + b0.next_vertex.nbytes
        )
        assert b0.nbytes == len(b0) * row_bytes(3) == len(b0) * (4 * 3 + 4 + 1)

    def test_duplicate_seq_rejected(self):
        """No sender's rows are delivered twice: ``deliver`` consumes its
        outboxes, so handing the same lists over again delivers nothing."""
        b0, b1 = outbox_batches()
        outboxes = [[b0], [b1]]
        deliver(outboxes, OWNERS, 2)
        assert outboxes == [[], []]
        assert deliver(outboxes, OWNERS, 2) == ([[], []], [0, 0])

    def test_chunk_after_finalize_rejected(self):
        """What was delivered is a copy: a sender's chunk changed after
        the barrier does not reach the delivered batches."""
        b0, b1 = outbox_batches()
        batches, _ = deliver([[b0], [b1]], OWNERS, 2)
        b0.mapping[:] = -7
        assert delivered(batches) == EXPECTED

    def test_empty_chunk_counts_toward_sequence_only(self):
        """An empty outbox or chunk adds no rows, bytes or batch."""
        _, b1 = outbox_batches()
        batches, inbound = deliver([[batch()], [b1, batch()]], OWNERS, 2)
        assert sum(inbound) == len(b1)
        assert sum(b.columns.nbytes for b in batches if b) == b1.nbytes


class TestChunkTraceEvents:
    def run_traced(self, **kwargs):
        tracer = Tracer()
        result = PSgL(
            GRAPHS["er"],
            num_workers=4,
            seed=3,
            trace=tracer,
            **kwargs,
        ).run(paper_patterns()["PG2"])
        return tracer, result

    def test_barrier_pins_chunk_size_bound(self):
        """The one-chunk bound: each barrier's ``max_chunk_bytes`` is that
        superstep's largest worker ``wire_bytes``, and ``chunks`` counts
        the workers that sent anything."""
        tracer, result = self.run_traced(backend="process", procs=2)
        for event in tracer.by_kind("barrier"):
            assert "merge_ms" in event.data
            assert "max_send_bytes" not in event.data
        assert_outboxes_cross_whole(tracer, result)

    def test_superstep_records_build_ms(self):
        tracer, _ = self.run_traced()
        for event in tracer.by_kind("superstep"):
            assert event.data["build_ms"] >= 0

    def test_strict_trace_has_no_chunk_events(self):
        """No backend streams: a trace, process lanes included, has no
        per-chunk flush or delivery event."""
        for backend in ("serial", "process"):
            tracer, result = self.run_traced(backend=backend, procs=2)
            kinds = {event.kind for event in tracer.events}
            assert not kinds & {"chunk_flush", "chunk_deliver"}
            assert_outboxes_cross_whole(tracer, result)
