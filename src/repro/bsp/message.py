"""Message containers for the BSP engine's two data planes.

Messages are addressed to data vertices (vertex-centric model); the engine
routes each to the worker owning the destination and delivers it at the
start of the next superstep, exactly like Pregel/Giraph.

Two planes implement the barrier crossing, each with one store:

* the **reference plane** (:class:`MessageStore`) moves per-message Python
  payloads — fully generic, combiner-aware, the executable specification
  and the parity oracle;
* the **production plane** (:class:`ChunkedColumnarStore`) moves Gpsi
  outboxes as ``(sender, seq)``-tagged chunks of contiguous numpy buffers
  (:class:`GpsiBatch`), owner-splits each chunk as it arrives and hands
  every worker a still-packed :class:`PackedWorkerBatch` — no ``Gpsi``
  object exists anywhere between two supersteps.  Gpsi-only,
  combiner-less; parity with the reference plane is pinned
  message-for-message by tests.

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
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    NamedTuple,
    Optional,
    Sequence,
    Tuple,
)

import numpy as np

from ..exceptions import EngineError
from ..unique import sorted_unique


def _psi():
    # Deferred: repro.core builds on repro.bsp, not vice versa; by the
    # time a columnar batch is packed both packages are fully imported.
    from ..core import psi

    return psi


class Message(NamedTuple):
    """A payload addressed to a data vertex."""

    dest: int
    payload: Any


class MessageStore:
    """Holds messages for one superstep, grouped by destination vertex.

    With a ``combiner`` (a commutative binary reduction over payloads),
    messages to the same destination collapse into one — Pregel's message
    combiner, which shrinks both network volume and barrier memory.
    """

    __slots__ = ("_by_vertex", "_count", "_combiner")

    def __init__(self, combiner=None):
        self._by_vertex: Dict[int, List[Any]] = {}
        self._count = 0
        self._combiner = combiner

    def add(self, message: Message) -> None:
        """Queue a message for delivery next superstep."""
        existing = self._by_vertex.get(message.dest)
        if self._combiner is not None and existing:
            existing[0] = self._combiner(existing[0], message.payload)
            return
        if existing is None:
            self._by_vertex[message.dest] = [message.payload]
        else:
            existing.append(message.payload)
        self._count += 1

    def extend(self, messages: Iterable[Message]) -> None:
        """Queue several messages.

        Combiner-less stores take a bulk fast path: one dict probe and an
        append per message, no per-message ``add`` dispatch or combiner
        checks — this is the worker outbox's hot loop.
        """
        if self._combiner is not None:
            for msg in messages:
                self.add(msg)
            return
        by_vertex = self._by_vertex
        added = 0
        for dest, payload in messages:
            existing = by_vertex.get(dest)
            if existing is None:
                by_vertex[dest] = [payload]
            else:
                existing.append(payload)
            added += 1
        self._count += added

    def as_batch(self) -> List[Tuple[int, List[Any]]]:
        """Snapshot as ``(dest, payloads)`` pairs in first-send order.

        This is the wire format one worker's outbox crosses the barrier
        in; rebuild with :meth:`merge_batch`.
        """
        return list(self._by_vertex.items())

    def merge_batch(self, batch: Sequence[Tuple[int, List[Any]]]) -> None:
        """Fold one worker's outbox batch into this store.

        Merging batches in worker-id order reproduces exactly the store a
        serial run builds, because a serial superstep never interleaves
        two workers' sends: payload lists concatenate in worker order and
        the combiner (if any) folds across workers in that same order.
        """
        for dest, payloads in batch:
            if not payloads:
                # Guard against empty slots: they would activate the
                # vertex next superstep with zero messages and (in the
                # no-combiner branch) leave ``_count`` out of sync with
                # the payloads ``take`` can ever deliver.
                continue
            existing = self._by_vertex.get(dest)
            if self._combiner is not None:
                # A fold into an existing slot replaces its single
                # payload, so ``_count`` must not move — ``len(store)``
                # stays the number of deliverable (post-combine)
                # payloads, exactly as ``add`` maintains it.
                merged = existing[0] if existing else None
                for payload in payloads:
                    merged = (
                        payload
                        if merged is None
                        else self._combiner(merged, payload)
                    )
                if existing:
                    existing[0] = merged
                else:
                    self._by_vertex[dest] = [merged]
                    self._count += 1
            else:
                if existing is None:
                    self._by_vertex[dest] = list(payloads)
                else:
                    existing.extend(payloads)
                self._count += len(payloads)

    def destinations(self) -> List[int]:
        """Vertices with pending messages (the next superstep's active set)."""
        return list(self._by_vertex.keys())

    def take(self, vertex: int) -> List[Any]:
        """Remove and return the payloads addressed to ``vertex``."""
        payloads = self._by_vertex.pop(vertex, [])
        self._count -= len(payloads)
        return payloads

    def __len__(self) -> int:
        return self._count

    def __bool__(self) -> bool:
        return self._count > 0


# ----------------------------------------------------------------------
# Columnar wire plane
# ----------------------------------------------------------------------


class GpsiBatch:
    """One worker's packed Gpsi outbox: the columnar plane's wire unit.

    ``dest`` is an ``int64`` destination-vertex column; ``columns`` the
    struct-of-arrays Gpsi payload (:class:`repro.core.psi.GpsiColumns`).
    Rows are in send order; the barrier store groups them stably by
    first occurrence of each destination, which is exactly the reference
    plane's activation and delivery order.
    """

    __slots__ = ("dest", "columns")

    def __init__(self, dest: np.ndarray, columns: Any):
        self.dest = dest
        self.columns = columns

    @property
    def nbytes(self) -> int:
        """Exact bytes of the buffers this batch ships across the barrier."""
        return self.dest.nbytes + self.columns.nbytes

    def __len__(self) -> int:
        return len(self.dest)


class ColumnarOutbox:
    """A worker outbox that accumulates packed Gpsi chunks directly.

    Expansion supersteps send whole child batches per compute call
    (``ctx.send_columns``), so the outbox is a list of ``(dest, columns)``
    chunk pairs instead of a per-message dict.  Scalar ``ctx.send`` calls
    (the initialisation superstep) are buffered and packed together at
    the next seal point, so they cost one ``pack_gpsis`` per worker, not
    one per message.  ``to_batch`` concatenates everything into one
    :class:`GpsiBatch` in send order.

    Under the **pipelined shuffle mode** the outbox also streams: give it
    a ``flush`` callback plus a ``chunk_gpsis`` (rows) and/or
    ``chunk_bytes`` watermark and it hands off the pending rows as one
    packed :class:`GpsiBatch` whenever a watermark is reached, *before*
    an append that would overflow it, and cuts a send that is itself
    larger at the watermark — so every flushed chunk is bounded by the
    watermark in both dimensions (one row at least) and the worker's
    peak buffered outbox shrinks from O(superstep volume) to O(chunk).
    Whatever is still pending when compute ends stays in the outbox as
    the *residual* (``to_batch``); callers ship it with the step result.
    """

    __slots__ = (
        "_dest_chunks",
        "_col_chunks",
        "_scalars",
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
        flush: Optional[Callable[["GpsiBatch"], None]] = None,
        chunk_gpsis: Optional[int] = None,
        chunk_bytes: Optional[int] = None,
    ):
        self._dest_chunks: List[np.ndarray] = []
        self._col_chunks: List[Any] = []
        #: Scalar sends not yet packed (see :meth:`append_message`).
        self._scalars: List[Message] = []
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
        if self._flush is None or not len(self):
            return
        batch = self.to_batch()
        self._dest_chunks = []
        self._col_chunks = []
        self._count = 0
        self._pending_bytes = 0
        self.chunks_flushed += 1
        self.flushed_bytes += batch.nbytes
        self._flush(batch)

    def _push(self, dest: np.ndarray, columns: Any) -> None:
        nbytes = dest.nbytes + columns.nbytes
        if nbytes > self.max_append_bytes:
            self.max_append_bytes = nbytes
        self._dest_chunks.append(dest)
        self._col_chunks.append(columns)
        self._count += len(columns)
        self._pending_bytes += nbytes

    def append(self, dest: np.ndarray, columns: Any) -> None:
        """Queue one packed send: row ``i`` of ``columns`` goes to data
        vertex ``dest[i]``.  When streaming, a send larger than the
        watermark is cut *at* the watermark (one send is a whole block's
        children): full chunks leave at once, its tail stays pending."""
        n = len(columns)
        if n == 0:
            return
        self._seal_scalars()
        dest = np.asarray(dest, dtype=np.int64)
        if self._flush is None:
            self._push(dest, columns)
            return
        nbytes = dest.nbytes + columns.nbytes
        if self._count and self._would_overflow(n, nbytes):
            self.flush_pending()
        self.max_append_bytes = max(self.max_append_bytes, nbytes)
        cut = n if self._chunk_gpsis is None else self._chunk_gpsis
        if self._chunk_bytes is not None:
            cut = min(cut, max(1, self._chunk_bytes // (nbytes // n)))
        for lo in range(0, n, cut):
            self._push(dest[lo : lo + cut], columns.row_slice(lo, lo + cut))
            if lo + cut < n or self._at_watermark():
                self.flush_pending()

    def append_message(self, message: Message) -> None:
        """Queue one scalar :class:`Message` — ``ctx.send`` on the
        production plane.  Buffered: the run of scalar sends is packed as
        one chunk, in send order, before anything else is queued or read
        (it never triggers a flush on its own; it rides out with the
        next one, or as the residual)."""
        self._scalars.append(message)

    def _seal_scalars(self) -> None:
        if not self._scalars:
            return
        messages, self._scalars = self._scalars, []
        self._push(
            np.fromiter(
                (m.dest for m in messages), dtype=np.int64, count=len(messages)
            ),
            _psi().pack_gpsis([m.payload for m in messages]),
        )

    def to_batch(self) -> "GpsiBatch":
        """Everything queued, as one packed batch in send order."""
        self._seal_scalars()
        psi = _psi()
        if not self._col_chunks:
            return GpsiBatch(np.empty(0, dtype=np.int64), psi.GpsiColumns.empty(0))
        return GpsiBatch(
            np.concatenate(self._dest_chunks),
            psi.GpsiColumns.concat(self._col_chunks),
        )

    def __len__(self) -> int:
        return self._count + len(self._scalars)


class PackedWorkerBatch:
    """One logical worker's superstep input, still in packed form.

    ``vertices`` lists the worker's active vertices in activation order;
    ``counts[i]`` rows of ``columns`` (consecutive, starting at
    ``sum(counts[:i])``) are the payloads delivered to ``vertices[i]``.
    The executing worker cuts ``columns`` into row blocks — the rows carry
    their own destination, so a block may span or split vertices — and
    hands each to ``compute_columns``; rows are never decoded into objects.
    """

    __slots__ = ("vertices", "counts", "columns")

    def __init__(self, vertices: np.ndarray, counts: np.ndarray, columns: Any):
        self.vertices = vertices
        self.counts = counts
        self.columns = columns

    def __len__(self) -> int:
        return len(self.vertices)


def _group_first_send(
    dest_w: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stable grouping of one worker's rows by destination vertex.

    Returns ``(vertices, counts, perm)``: distinct destinations in
    first-send order, the row count per destination, and the permutation
    that reorders rows so each destination's rows are consecutive (groups
    by first send, rows within a group in send order) — exactly the
    activation and delivery order the reference plane produces.
    """
    uniq, first_idx, inverse = sorted_unique(dest_w)
    # Rank each distinct destination by first appearance, then
    # stable-sort rows by that rank: groups ordered by first
    # send, rows within a group in send order.
    first_order = np.argsort(first_idx, kind="stable")
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[first_order] = np.arange(len(uniq))
    row_rank = rank[inverse]
    return (
        uniq[first_order],
        np.bincount(row_rank, minlength=len(uniq)),
        np.argsort(row_rank, kind="stable"),
    )


class ChunkedColumnarStore:
    """The production plane's barrier store: ``(sender, seq)``-tagged
    chunks in, one :class:`PackedWorkerBatch` per worker out.

    Every sender's outbox reaches the store as a contiguous run of chunks
    ``seq = 0, 1, ...`` through :meth:`merge_chunk`.  Under strict
    shuffle that is a single chunk per sender, merged at the barrier;
    under pipelined shuffle watermark-sized chunks arrive **while senders
    are still computing** and the remainder follows at the barrier.  Each
    chunk is split by destination-owning worker on arrival, so what is
    left for :meth:`build_worker_batches` is one concatenation and one
    stable per-vertex grouping per worker.

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
        #: Per destination worker: ``(sender, seq, dest_sub, cols_sub)``.
        self._pieces: List[List[Tuple[int, int, np.ndarray, Any]]] = [
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

    def _split_by_owner(
        self, sender: int, seq: int, dest: np.ndarray, columns: Any
    ) -> None:
        owner = self._owner_of[dest]
        for w in np.flatnonzero(np.bincount(owner)).tolist():
            rows = np.flatnonzero(owner == w)
            self._pieces[w].append(
                (sender, seq, dest[rows], columns.take(rows))
            )

    def merge_chunk(self, sender: int, seq: int, batch: GpsiBatch) -> None:
        """Ingest chunk ``seq`` of worker ``sender``'s outbox (thread-safe)."""
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
            n = len(batch)
            if n == 0:
                return
            self._count += n
            self.wire_bytes += batch.nbytes
            self.chunks_merged += 1
            if batch.nbytes > self.max_chunk_bytes:
                self.max_chunk_bytes = batch.nbytes
            if (
                self._spill is not None
                and self._resident_bytes + batch.nbytes > self._watermark
            ):
                ref = self._spill.spill(sender, seq, batch.dest, batch.columns)
                self._spilled.append((sender, seq, ref))
                return
            self._resident_bytes += batch.nbytes
            self._split_by_owner(sender, seq, batch.dest, batch.columns)

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
                dest, columns = self._spill.load(sender, seq, ref)
                self._split_by_owner(sender, seq, dest, columns)
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
            dest_w = np.concatenate([p[2] for p in pieces])
            cols_w = psi.GpsiColumns.concat([p[3] for p in pieces])
            vertices, counts, perm = _group_first_send(dest_w)
            batches.append(
                PackedWorkerBatch(
                    vertices=vertices,
                    counts=counts,
                    columns=cols_w.take(perm),
                )
            )
        return batches
