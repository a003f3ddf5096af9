"""The BSP engine's message plane: packed, self-addressed Gpsi chunks.

Messages are addressed to data vertices (vertex-centric model); the engine
routes each to the worker owning the destination and delivers it at the
start of the next superstep, exactly like Pregel/Giraph.

The one message a PSgL job moves is a Gpsi, and it travels packed: a
worker's sends are a list of :class:`~repro.core.psi.GpsiColumns`
chunks, and a row is self-addressed (PSgL sends a Gpsi to the data image
of its next vertex, ``GpsiColumns.destinations()``), so no destination
column travels beside it.  The barrier is one function, :func:`deliver`:
every sender's chunks in worker-id order in, one still-packed
:class:`PackedWorkerBatch` per owner out.  No per-message object exists
anywhere on this plane.  Its parity with the paper-faithful reference
(:mod:`repro.core.reference`) is pinned message-for-message by tests.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np

from ..unique import sorted_unique


class PackedWorkerBatch:
    """One logical worker's superstep input, still in packed form.

    ``columns`` holds the worker's delivered rows, grouped by destination
    vertex in first-send order; ``num_vertices`` counts those vertices,
    the worker's active set.  The executing worker cuts ``columns`` into
    row blocks — every row names its own destination, so a block may span
    or split vertices — and hands each to ``compute_columns``; rows are
    never decoded into objects.
    """

    __slots__ = ("num_vertices", "columns")

    def __init__(self, num_vertices: int, columns: Any):
        self.num_vertices = num_vertices
        self.columns = columns

    def __len__(self) -> int:
        return self.num_vertices


def deliver(
    outboxes: Sequence[List[Any]], owner_of: np.ndarray, num_workers: int
) -> Tuple[List[Any], List[int]]:
    """The barrier: every sender's sends in, one batch per owner out.

    ``outboxes`` holds each sender's list of packed chunks, senders in
    worker-id order.  Returns ``(batches, inbound)``: ``batches[w]`` is a
    :class:`PackedWorkerBatch` of the rows owner ``w`` receives (an empty
    list where it receives none), ``inbound[w]`` their number.  Within an
    owner, rows are grouped by destination vertex in first-send order,
    and each vertex's rows stay in send order — senders in worker-id
    order, each sender's rows as it sent them: the activation and
    delivery order of the paper-faithful reference.

    One concatenation, one owner gather and one stable sort on
    ``owner * U + first-send rank`` (built in ``int64``); each owner's
    batch is a view of the sorted rows.  Consumes ``outboxes``: each
    list is emptied once concatenated, so the delivered rows replace the
    sent chunks in memory instead of doubling them.  Each index array is
    dropped as soon as it has been used, and the rows are permuted one
    column at a time, so above the rows themselves the barrier holds a
    few ids per row and one column's copy.
    """
    chunks = [chunk for outbox in outboxes for chunk in outbox if len(chunk)]
    for outbox in outboxes:
        outbox.clear()
    if not chunks:
        return [[] for _ in range(num_workers)], [0] * num_workers
    columns = type(chunks[0]).concat(chunks)
    del chunks
    dest = columns.destinations()
    uniq, first_idx, inverse = sorted_unique(dest)
    owner = owner_of[dest]
    del dest
    inbound = np.bincount(owner, minlength=num_workers)
    vertices = np.bincount(owner[first_idx], minlength=num_workers)
    rank = np.empty(len(uniq), dtype=np.int64)
    rank[np.argsort(first_idx)] = np.arange(len(uniq))
    key = owner.astype(np.int64, copy=False)
    del owner
    key *= len(uniq)
    key += rank[inverse]
    del inverse
    order = np.argsort(key, kind="stable")
    del key
    packed = type(columns)
    mapping, black, next_vertex = columns.mapping, columns.black, columns.next_vertex
    del columns
    mapping = mapping[order]
    black = black[order]
    next_vertex = next_vertex[order]
    del order
    columns = packed(mapping, black, next_vertex)
    bounds = np.concatenate(([0], np.cumsum(inbound))).tolist()
    batches = [
        PackedWorkerBatch(int(vertices[w]),
                          columns.row_slice(bounds[w], bounds[w + 1]))
        if inbound[w] else []
        for w in range(num_workers)
    ]
    return batches, inbound.tolist()
