"""The BSP engine's message plane: packed, self-addressed Gpsi chunks.

Messages are addressed to data vertices (vertex-centric model); the engine
routes each to the worker owning the destination and delivers it at the
start of the next superstep, exactly like Pregel/Giraph.

The one message a PSgL job moves is a Gpsi, and it travels packed:
outboxes cross the barrier as ``(sender, seq)``-tagged chunks of
:class:`~repro.core.psi.GpsiColumns` and nothing else.  A row is
self-addressed (PSgL sends a Gpsi to the data image of its next vertex,
``GpsiColumns.destinations()``), so no destination column travels
beside it.  The barrier store (:class:`ChunkedColumnarStore`)
owner-splits each chunk as it arrives and hands every worker a
still-packed :class:`PackedWorkerBatch`; no per-message object exists
anywhere on this plane.  Its parity with the paper-faithful reference
(:mod:`repro.core.reference`) is pinned message-for-message by tests.

The *shuffle mode* (see :mod:`repro.bsp.engine`) is a delivery schedule
over that one store, not a second one:

* **strict** — each worker's whole outbox arrives at the barrier as its
  single chunk ``(worker_id, 0)``;
* **pipelined** — the outbox flushes watermark-sized chunks while compute
  is still running (:class:`ColumnarOutbox`), the store ingests them
  mid-superstep, and the remainder arrives at the barrier as the sender's
  last chunk.

Sorting chunks by ``(sender, seq)`` at finalisation yields the same row
order either way, so the schedule changes *when* bytes move, never what
is delivered.  Spilling (:mod:`repro.bsp.spill`) is a storage policy of
the same store: chunks past the resident-bytes watermark wait on disk
under their tag and rejoin before the sort.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, Dict, List, Optional, Tuple

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
    queued.  ``to_columns`` concatenates everything in send order.

    Under the **pipelined shuffle mode** the outbox also streams: give it
    a ``flush`` callback plus a ``chunk_gpsis`` (rows) and/or
    ``chunk_bytes`` watermark and it hands off the pending rows as one
    packed chunk whenever a watermark is reached, *before* an append that
    would overflow it, and cuts a send that is itself larger at the
    watermark — so every flushed chunk is bounded by the watermark in
    both dimensions (one row at least) and the worker's peak buffered
    outbox shrinks from O(superstep volume) to O(chunk).  Whatever is
    still pending when compute ends stays in the outbox as the
    *residual* (``to_columns``); callers ship it with the step result.
    """

    __slots__ = (
        "_chunks",
        "_count",
        "_pending_bytes",
        "_flush",
        "_chunk_gpsis",
        "_chunk_bytes",
        "chunks_flushed",
        "flushed_bytes",
        "max_append_bytes",
    )

    def __init__(
        self,
        flush: Optional[Callable[[Any], None]] = None,
        chunk_gpsis: Optional[int] = None,
        chunk_bytes: Optional[int] = None,
    ):
        self._chunks: List[Any] = []
        self._count = 0
        self._pending_bytes = 0
        self._flush = flush
        self._chunk_gpsis = chunk_gpsis
        self._chunk_bytes = chunk_bytes
        #: Chunks handed to ``flush`` so far (the residual not included).
        self.chunks_flushed = 0
        #: Exact bytes of every flushed chunk (residual not included).
        self.flushed_bytes = 0
        #: Largest single ``append`` seen, whole (before any cut).
        self.max_append_bytes = 0

    def _would_overflow(self, n: int, nbytes: int) -> bool:
        if self._chunk_gpsis is not None and self._count + n > self._chunk_gpsis:
            return True
        return (
            self._chunk_bytes is not None
            and self._pending_bytes + nbytes > self._chunk_bytes
        )

    def _at_watermark(self) -> bool:
        if self._chunk_gpsis is not None and self._count >= self._chunk_gpsis:
            return True
        return (
            self._chunk_bytes is not None
            and self._pending_bytes >= self._chunk_bytes
        )

    def flush_pending(self) -> None:
        """Hand the pending rows to the flush callback as one chunk."""
        if self._flush is None or not self._count:
            return
        columns = self.to_columns()
        self._chunks = []
        self._count = 0
        self._pending_bytes = 0
        self.chunks_flushed += 1
        self.flushed_bytes += columns.nbytes
        self._flush(columns)

    def _push(self, columns: Any) -> None:
        self._chunks.append(columns)
        self._count += len(columns)
        self._pending_bytes += columns.nbytes

    def append(self, columns: Any) -> None:
        """Queue one packed send.  When streaming, a send larger than the
        watermark is cut *at* the watermark (one send is a whole block's
        children): full chunks leave at once, its tail stays pending."""
        n = len(columns)
        if n == 0:
            return
        nbytes = columns.nbytes
        self.max_append_bytes = max(self.max_append_bytes, nbytes)
        if self._flush is None:
            self._push(columns)
            return
        if self._count and self._would_overflow(n, nbytes):
            self.flush_pending()
        cut = n if self._chunk_gpsis is None else self._chunk_gpsis
        if self._chunk_bytes is not None:
            cut = min(cut, max(1, self._chunk_bytes // (nbytes // n)))
        for lo in range(0, n, cut):
            self._push(columns.row_slice(lo, lo + cut))
            if lo + cut < n or self._at_watermark():
                self.flush_pending()

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
    """The engine's barrier store: ``(sender, seq)``-tagged
    chunks in, one :class:`PackedWorkerBatch` per worker out.

    Every sender's outbox reaches the store as a contiguous run of chunks
    ``seq = 0, 1, ...`` through :meth:`merge_chunk`.  Under strict
    shuffle that is a single chunk per sender, merged at the barrier;
    under pipelined shuffle watermark-sized chunks arrive **while senders
    are still computing** and the remainder follows at the barrier.  Each
    chunk is split on arrival by the worker owning each row's derived
    destination, so what is left for :meth:`build_worker_batches` is one
    concatenation and one stable per-vertex grouping per worker.

    Order and parity
    ----------------
    Concatenating one sender's chunks in ``seq`` order equals its full
    outbox, and sorting all chunks by ``(sender, seq)`` at
    :meth:`finalize` is worker-id merge order — the interleaving a serial
    run produces — no matter how chunks interleaved on the way in.
    ``merge_chunk`` is thread-safe (one drain thread per backend feeds
    it); ``finalize`` validates that each sender's sequence numbers are
    contiguous from zero, so a lost or duplicated chunk fails loudly
    instead of corrupting the superstep.

    Accounting is exact: ``len(store)`` is the number of deliverable
    rows and :attr:`wire_bytes` the exact bytes of every merged chunk —
    the engine cross-checks both against the workers' own counters at
    every barrier.

    Spilling is a storage policy, not another store: with a
    :class:`repro.bsp.spill.SuperstepSpill` attached, a chunk arriving
    past ``watermark_bytes`` of resident payload is sealed to disk at
    merge time (accounting unchanged) and re-mapped at :meth:`finalize`
    under the same ``(sender, seq)`` tag, ahead of the order-restoring
    sort — so delivery is bit-identical.
    """

    __slots__ = (
        "_owner_of",
        "_num_workers",
        "_lock",
        "_pieces",
        "_seqs",
        "_finalized",
        "_count",
        "_spill",
        "_watermark",
        "_resident_bytes",
        "_spilled",
        "wire_bytes",
        "chunks_merged",
        "max_chunk_bytes",
    )

    def __init__(
        self,
        owner_of: np.ndarray,
        num_workers: int,
        spill: Any = None,
        watermark_bytes: Optional[int] = None,
    ):
        self._owner_of = owner_of
        self._num_workers = num_workers
        self._lock = threading.Lock()
        #: Per destination worker: ``(sender, seq, columns_sub)``.
        self._pieces: List[List[Tuple[int, int, Any]]] = [
            [] for _ in range(num_workers)
        ]
        self._seqs: Dict[int, set] = {}
        self._spill = spill
        self._watermark = watermark_bytes
        self._resident_bytes = 0
        self._spilled: List[Tuple[int, int, Any]] = []
        self._finalized = False
        self._count = 0
        #: Exact bytes of every chunk merged so far.
        self.wire_bytes = 0
        self.chunks_merged = 0
        #: Largest single merged chunk — pinned by tests against
        #: the watermark under pipelined shuffle.
        self.max_chunk_bytes = 0

    def _split_by_owner(self, sender: int, seq: int, columns: Any) -> None:
        owner = self._owner_of[columns.destinations()]
        for w in np.flatnonzero(np.bincount(owner)).tolist():
            rows = np.flatnonzero(owner == w)
            self._pieces[w].append((sender, seq, columns.take(rows)))

    def merge_chunk(self, sender: int, seq: int, columns: Any) -> None:
        """Ingest chunk ``seq`` of worker ``sender``'s outbox (thread-safe);
        a chunk is a packed :class:`~repro.core.psi.GpsiColumns`."""
        with self._lock:
            if self._finalized:
                raise EngineError(
                    f"chunk (worker {sender}, seq {seq}) arrived after the "
                    "barrier store was finalized"
                )
            seqs = self._seqs.setdefault(sender, set())
            if seq in seqs:
                raise EngineError(
                    f"duplicate shuffle chunk (worker {sender}, seq {seq})"
                )
            seqs.add(seq)
            n = len(columns)
            if n == 0:
                return
            nbytes = columns.nbytes
            self._count += n
            self.wire_bytes += nbytes
            self.chunks_merged += 1
            if nbytes > self.max_chunk_bytes:
                self.max_chunk_bytes = nbytes
            if (
                self._spill is not None
                and self._resident_bytes + nbytes > self._watermark
            ):
                ref = self._spill.spill(sender, seq, columns)
                self._spilled.append((sender, seq, ref))
                return
            self._resident_bytes += nbytes
            self._split_by_owner(sender, seq, columns)

    def finalize(self) -> None:
        """Order chunks by ``(sender, seq)`` and validate completeness.

        Idempotent.  After this the store delivers senders in worker-id
        order, each sender's rows in send order.
        """
        with self._lock:
            if self._finalized:
                return
            # Spilled chunks rejoin here, under their merge-time tag:
            # the (sender, seq) sort below cannot tell a mapped chunk
            # from one that never left memory.
            for sender, seq, ref in self._spilled:
                self._split_by_owner(
                    sender, seq, self._spill.load(sender, seq, ref)
                )
            self._spilled = []
            for sender in sorted(self._seqs):
                seqs = sorted(self._seqs[sender])
                if seqs != list(range(len(seqs))):
                    raise EngineError(
                        f"shuffle chunk sequence from worker {sender} has "
                        f"gaps: got seqs {seqs}"
                    )
            for pieces in self._pieces:
                pieces.sort(key=lambda p: (p[0], p[1]))
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
            columns = psi.GpsiColumns.concat([p[2] for p in pieces])
            vertices, perm = _group_first_send(columns.destinations())
            batches.append(PackedWorkerBatch(vertices, columns.take(perm)))
        return batches
