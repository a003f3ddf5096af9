"""The BSP engine's message plane: packed, self-addressed Gpsi chunks.

Messages are addressed to data vertices (vertex-centric model); the engine
routes each to the worker owning the destination and delivers it at the
start of the next superstep, exactly like Pregel/Giraph.

The one message a PSgL job moves is a Gpsi, and it travels packed:
each worker's outbox crosses the barrier whole, as one chunk of
:class:`~repro.core.psi.GpsiColumns` keyed by its sender, and nothing
else.  A row is self-addressed (PSgL sends a Gpsi to the data image of
its next vertex, ``GpsiColumns.destinations()``), so no destination
column travels beside it.  The barrier store
(:class:`ChunkedColumnarStore`) owner-splits each outbox as it arrives
and hands every worker a still-packed :class:`PackedWorkerBatch`; no
per-message object exists anywhere on this plane.  Its parity with the
paper-faithful reference (:mod:`repro.core.reference`) is pinned
message-for-message by tests.

Delivery follows worker-id merge order, the interleaving a serial run
produces, whatever order the outboxes arrived in.
"""

from __future__ import annotations

from typing import Any, List, Set, Tuple

import numpy as np

from ..exceptions import EngineError
from ..unique import sorted_unique


def _psi():
    # Deferred: repro.core builds on repro.bsp, not vice versa; by the
    # time a columnar batch is packed both packages are fully imported.
    from ..core import psi

    return psi


class ColumnarOutbox:
    """A worker outbox that accumulates packed Gpsi chunks directly.

    Every send is a whole packed batch (``ctx.send_columns``: superstep
    0's initial Gpsis, then one block's children per compute call), so
    the outbox is a list of :class:`~repro.core.psi.GpsiColumns` chunks
    instead of a per-message dict.  Rows are self-addressed — row ``i``
    goes to ``columns.destinations()[i]`` — so nothing but the columns is
    queued.  ``to_columns`` concatenates everything in send order: the
    one chunk the worker ships at the barrier.
    """

    __slots__ = ("_chunks", "_count")

    def __init__(self):
        self._chunks: List[Any] = []
        self._count = 0

    def append(self, columns: Any) -> None:
        """Queue one packed send, whole."""
        if len(columns):
            self._chunks.append(columns)
            self._count += len(columns)

    def to_columns(self) -> Any:
        """Everything queued, as one packed chunk in send order."""
        if not self._chunks:
            return _psi().GpsiColumns.empty(0)
        return _psi().GpsiColumns.concat(self._chunks)

    def __len__(self) -> int:
        return self._count


class PackedWorkerBatch:
    """One logical worker's superstep input, still in packed form.

    ``vertices`` lists the worker's active vertices in activation order;
    ``columns`` holds their delivered rows, grouped by destination in
    that order.  The executing worker cuts ``columns`` into row blocks —
    every row names its own destination, so a block may span or split
    vertices — and hands each to ``compute_columns``; rows are never
    decoded into objects.
    """

    __slots__ = ("vertices", "columns")

    def __init__(self, vertices: np.ndarray, columns: Any):
        self.vertices = vertices
        self.columns = columns

    def __len__(self) -> int:
        return len(self.vertices)


def _group_first_send(dest_w: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Stable grouping of one worker's rows by destination vertex.

    Returns ``(vertices, perm)``: distinct destinations in first-send
    order, and the permutation that reorders rows so each destination's
    rows are consecutive (groups by first send, rows within a group in
    send order) — exactly the activation and delivery order of the
    paper-faithful reference (:mod:`repro.core.reference`).
    """
    uniq, first_idx, inverse = sorted_unique(dest_w)
    # Rank each distinct destination by first appearance, then
    # stable-sort rows by that rank: groups ordered by first
    # send, rows within a group in send order.
    first_order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[first_order] = np.arange(len(uniq))
    return uniq[first_order], np.argsort(rank[inverse], kind="stable")


class ChunkedColumnarStore:
    """The engine's barrier store: one outbox per sender in, one
    :class:`PackedWorkerBatch` per worker out.

    Each sender's whole outbox reaches the store through
    :meth:`merge_chunk` and is split on arrival by the worker owning each
    row's derived destination, so what is left for
    :meth:`build_worker_batches` is one concatenation and one stable
    per-vertex grouping per worker.  Outboxes may arrive in any order:
    :meth:`finalize` orders every worker's pieces by sender, which is
    worker-id merge order.  A second outbox from one sender, or one that
    arrives after :meth:`finalize`, fails loudly instead of corrupting
    the superstep.

    Accounting is exact: ``len(store)`` is the number of deliverable
    rows and :attr:`wire_bytes` the exact bytes of every merged outbox —
    the engine cross-checks both against the workers' own counters at
    every barrier.
    """

    __slots__ = (
        "_owner_of",
        "_num_workers",
        "_pieces",
        "_senders",
        "_finalized",
        "_count",
        "wire_bytes",
        "chunks_merged",
        "max_chunk_bytes",
    )

    def __init__(self, owner_of: np.ndarray, num_workers: int):
        self._owner_of = owner_of
        self._num_workers = num_workers
        #: Per destination worker: ``(sender, columns_sub)``.
        self._pieces: List[List[Tuple[int, Any]]] = [
            [] for _ in range(num_workers)
        ]
        self._senders: Set[int] = set()
        self._finalized = False
        self._count = 0
        #: Exact bytes of every outbox merged so far.
        self.wire_bytes = 0
        #: Non-empty outboxes merged so far.
        self.chunks_merged = 0
        #: Largest single merged outbox.
        self.max_chunk_bytes = 0

    def merge_chunk(self, sender: int, columns: Any) -> None:
        """Ingest worker ``sender``'s whole outbox, a packed
        :class:`~repro.core.psi.GpsiColumns`."""
        if self._finalized:
            raise EngineError(
                f"outbox of worker {sender} arrived after the barrier "
                "store was finalized"
            )
        if sender in self._senders:
            raise EngineError(f"duplicate outbox from worker {sender}")
        self._senders.add(sender)
        n = len(columns)
        if n == 0:
            return
        nbytes = columns.nbytes
        self._count += n
        self.wire_bytes += nbytes
        self.chunks_merged += 1
        self.max_chunk_bytes = max(self.max_chunk_bytes, nbytes)
        owner = self._owner_of[columns.destinations()]
        for w in np.flatnonzero(np.bincount(owner)).tolist():
            rows = np.flatnonzero(owner == w)
            self._pieces[w].append((sender, columns.take(rows)))

    def finalize(self) -> None:
        """Order every worker's pieces by sender and close the store.

        Idempotent.  After this the store delivers senders in worker-id
        order, each sender's rows in send order.
        """
        if not self._finalized:
            for pieces in self._pieces:
                pieces.sort(key=lambda piece: piece[0])
            self._finalized = True

    def __len__(self) -> int:
        return self._count

    def build_worker_batches(self) -> List[Any]:
        """One packed batch per logical worker, in delivery order.

        The owner gather and row select already happened chunk-by-chunk
        at merge time; what remains is one concatenation per worker plus
        the stable per-vertex grouping.  Workers with no messages get an
        empty (falsy) batch.  Consumes the store: each worker's pieces
        are released as its batch is built, so the delivered batches
        replace the merged chunks in memory instead of doubling them.
        """
        self.finalize()
        psi = _psi()
        batches: List[Any] = []
        for w in range(self._num_workers):
            pieces, self._pieces[w] = self._pieces[w], []
            if not pieces:
                batches.append([])
                continue
            columns = psi.GpsiColumns.concat([p[1] for p in pieces])
            vertices, perm = _group_first_send(columns.destinations())
            batches.append(PackedWorkerBatch(vertices, columns.take(perm)))
        return batches
