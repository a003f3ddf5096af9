"""Partial subgraph instances (Gpsi) and the BLACK/GRAY/WHITE colouring.

A Gpsi (Section 3) records the mapping between pattern and data vertices
built so far.  Following Section 4.3, pattern vertices are coloured:

* **BLACK** — mapped and already expanded; all its pattern edges to
  earlier vertices have been *exactly* verified against the data graph;
* **GRAY** — mapped but not yet expanded; the expansion frontier;
* **WHITE** — not mapped yet.

A Gpsi is *complete* when every pattern vertex is mapped **and** the BLACK
set covers every pattern edge — the cover condition is what guarantees
each pattern edge received an exact adjacency check at one of its
endpoints (the bloom edge index used during candidate generation is only a
prefilter and may admit false positives).

Instances are immutable; expansion produces new ones.  The ``black`` set
is a bitmask so Gpsis stay small — they are the dominant memory cost of
the whole framework.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from ..pattern.pattern import PatternGraph

UNMAPPED = -1

#: ``next_vertex`` sentinel in the packed uint8 column (mirrors the codec).
PACKED_UNSET_NEXT = 0xFF


class Gpsi:
    """One partial subgraph instance.

    Parameters
    ----------
    mapping:
        Tuple of data-vertex ids indexed by pattern vertex;
        :data:`UNMAPPED` marks WHITE vertices.
    black:
        Bitmask of expanded (BLACK) pattern vertices.
    next_vertex:
        The GRAY pattern vertex the destination worker must expand, chosen
        by the distribution strategy (or the initial pattern vertex for
        freshly initialised instances).
    """

    __slots__ = ("mapping", "black", "next_vertex")

    def __init__(self, mapping: Tuple[int, ...], black: int, next_vertex: int):
        self.mapping = mapping
        self.black = black
        self.next_vertex = next_vertex

    # ------------------------------------------------------------------
    @classmethod
    def initial(cls, pattern: PatternGraph, init_vertex: int, data_vertex: int) -> "Gpsi":
        """The one-pair Gpsi created by the initialization phase."""
        mapping = [UNMAPPED] * pattern.num_vertices
        mapping[init_vertex] = data_vertex
        return cls(tuple(mapping), 0, init_vertex)

    # ------------------------------------------------------------------
    def is_mapped(self, vp: int) -> bool:
        """Whether pattern vertex ``vp`` has a data image (GRAY or BLACK)."""
        return self.mapping[vp] != UNMAPPED

    def is_black(self, vp: int) -> bool:
        """Whether ``vp`` has been expanded."""
        return bool(self.black >> vp & 1)

    def is_gray(self, vp: int) -> bool:
        """Whether ``vp`` is mapped but not yet expanded."""
        return self.mapping[vp] != UNMAPPED and not (self.black >> vp & 1)

    def is_white(self, vp: int) -> bool:
        """Whether ``vp`` is still unmapped."""
        return self.mapping[vp] == UNMAPPED

    def gray_vertices(self) -> List[int]:
        """All GRAY pattern vertices (the expansion candidates)."""
        return [
            vp
            for vp, vd in enumerate(self.mapping)
            if vd != UNMAPPED and not (self.black >> vp & 1)
        ]

    def white_vertices(self) -> List[int]:
        """All WHITE pattern vertices."""
        return [vp for vp, vd in enumerate(self.mapping) if vd == UNMAPPED]

    def mapped_data_vertices(self) -> List[int]:
        """Data vertices already used by this instance (for injectivity)."""
        return [vd for vd in self.mapping if vd != UNMAPPED]

    def fully_mapped(self) -> bool:
        """Whether every pattern vertex has a data image."""
        return UNMAPPED not in self.mapping

    def uncovered_edges(self, pattern: PatternGraph) -> List[Tuple[int, int]]:
        """Pattern edges with no BLACK endpoint — still awaiting an exact
        adjacency check."""
        return [
            (a, b)
            for a, b in pattern.edges()
            if not (self.black >> a & 1) and not (self.black >> b & 1)
        ]

    def is_complete(self, pattern: PatternGraph) -> bool:
        """All vertices mapped and all edges exactly verified."""
        if not self.fully_mapped():
            return False
        return not self.uncovered_edges(pattern)

    def mapped_mask(self) -> int:
        """Bitmask of mapped (GRAY or BLACK) pattern vertices."""
        mask = 0
        for vp, vd in enumerate(self.mapping):
            if vd != UNMAPPED:
                mask |= 1 << vp
        return mask

    def useful_grays(self, pattern: PatternGraph) -> List[int]:
        """GRAY vertices whose expansion makes progress.

        A GRAY vertex is useful when it is adjacent (in the pattern) to a
        WHITE vertex, or to an endpoint of an uncovered edge.  For any
        incomplete Gpsi of a connected pattern at least one exists.  The
        answer depends only on the colouring signature, so it is served
        from the pattern's per-signature cache
        (:meth:`repro.pattern.pattern.PatternGraph.useful_grays_for`).
        """
        return list(pattern.useful_grays_for(self.black, self.mapped_mask()))

    # ------------------------------------------------------------------
    def __reduce__(self):
        # Gpsis are the bulk of inter-process message traffic; reduce to a
        # plain constructor call so pickling skips slot-state dicts.
        return (Gpsi, (self.mapping, self.black, self.next_vertex))

    def with_next(self, next_vertex: int) -> "Gpsi":
        """Copy addressed at a different expansion vertex."""
        return Gpsi(self.mapping, self.black, next_vertex)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gpsi):
            return NotImplemented
        return (
            self.mapping == other.mapping
            and self.black == other.black
            and self.next_vertex == other.next_vertex
        )

    def __hash__(self):
        return hash((self.mapping, self.black, self.next_vertex))

    def __repr__(self) -> str:
        cells = ",".join("?" if v == UNMAPPED else str(v) for v in self.mapping)
        return f"Gpsi({{{cells}}}, black={self.black:b}, next=v{self.next_vertex + 1})"


# ----------------------------------------------------------------------
# Array <-> Gpsi bridging (the columnar wire plane's struct-of-arrays)
# ----------------------------------------------------------------------

def _black_words(k: int) -> int:
    """32-bit words needed to hold a ``k``-bit BLACK mask (min 1)."""
    return max(1, (k + 31) // 32)


@dataclass(frozen=True)
class GpsiColumns:
    """A batch of ``n`` Gpsis as contiguous struct-of-arrays columns.

    * ``mapping`` — ``int64 (n, k)`` matrix; :data:`UNMAPPED` cells stay -1;
    * ``black`` — ``uint32 (n, ceil(k/32))`` little-endian mask words (one
      column for every pattern the paper runs, |Vp| <= 32);
    * ``next_vertex`` — ``uint8 (n,)`` with :data:`PACKED_UNSET_NEXT`
      (0xFF) standing in for the unset ``-1``.

    This is the unit the columnar message plane ships across the BSP
    barrier: a handful of buffers per worker pair instead of one pickled
    constructor call per Gpsi.
    """

    mapping: np.ndarray
    black: np.ndarray
    next_vertex: np.ndarray

    @property
    def n(self) -> int:
        """Number of packed instances."""
        return self.mapping.shape[0]

    @property
    def k(self) -> int:
        """Pattern size |Vp|."""
        return self.mapping.shape[1]

    @property
    def nbytes(self) -> int:
        """Exact payload bytes the three buffers occupy on the wire."""
        return self.mapping.nbytes + self.black.nbytes + self.next_vertex.nbytes

    def __len__(self) -> int:
        return self.n

    def take(self, rows: np.ndarray) -> "GpsiColumns":
        """Row subset/permutation (fancy-indexed copy) as new columns."""
        return GpsiColumns(
            self.mapping[rows], self.black[rows], self.next_vertex[rows]
        )

    def row_slice(self, start: int, stop: int) -> "GpsiColumns":
        """Contiguous row range as zero-copy views — the unit the
        runtime cuts a delivered batch into."""
        return GpsiColumns(
            self.mapping[start:stop],
            self.black[start:stop],
            self.next_vertex[start:stop],
        )

    @classmethod
    def empty(cls, k: int) -> "GpsiColumns":
        """A zero-instance batch for a ``k``-vertex pattern."""
        return cls(
            np.empty((0, k), dtype=np.int64),
            np.empty((0, _black_words(k)), dtype=np.uint32),
            np.empty(0, dtype=np.uint8),
        )

    @classmethod
    def concat(cls, chunks: Sequence["GpsiColumns"]) -> "GpsiColumns":
        """Concatenate batches row-wise (same ``k`` required)."""
        if not chunks:
            raise ValueError("cannot concatenate zero chunks without a k")
        if len(chunks) == 1:
            return chunks[0]
        return cls(
            np.concatenate([c.mapping for c in chunks], axis=0),
            np.concatenate([c.black for c in chunks], axis=0),
            np.concatenate([c.next_vertex for c in chunks], axis=0),
        )


def pack_gpsis(gpsis: Sequence[Gpsi], k: int = None) -> GpsiColumns:
    """Pack Gpsis into :class:`GpsiColumns` (inverse of :func:`unpack_gpsis`).

    All instances must share one pattern size; ``k`` is only required for
    empty batches.  Packing iterates the Python objects once through
    ``np.fromiter`` C loops — the costly per-object work happens exactly
    once, on the sending worker, after which every barrier/shuffle step
    downstream is pure array manipulation.
    """
    n = len(gpsis)
    if n == 0:
        if k is None:
            raise ValueError("empty batch needs an explicit pattern size k")
        return GpsiColumns.empty(k)
    k = len(gpsis[0].mapping)
    mapping = np.fromiter(
        (cell for g in gpsis for cell in g.mapping),
        dtype=np.int64,
        count=n * k,
    ).reshape(n, k)
    words = _black_words(k)
    if words == 1:
        black = np.fromiter(
            (g.black for g in gpsis), dtype=np.uint32, count=n
        ).reshape(n, 1)
    else:
        black = np.fromiter(
            (
                (g.black >> (32 * w)) & 0xFFFFFFFF
                for g in gpsis
                for w in range(words)
            ),
            dtype=np.uint32,
            count=n * words,
        ).reshape(n, words)
    next_vertex = np.fromiter(
        (g.next_vertex & 0xFF for g in gpsis), dtype=np.uint8, count=n
    )
    return GpsiColumns(mapping, black, next_vertex)


def unpack_gpsis(columns: GpsiColumns) -> List[Gpsi]:
    """Materialise :class:`Gpsi` objects from packed columns.

    This is the *delivery-time* decode: the columnar plane defers it until
    a destination vertex's payloads are actually handed to ``compute``, so
    ``Gpsi.__init__`` never runs during the shuffle itself.
    """
    rows = columns.mapping.tolist()
    nv = columns.next_vertex.astype(np.int64)
    nv[nv == PACKED_UNSET_NEXT] = -1
    nexts = nv.tolist()
    words = columns.black.shape[1]
    if words == 1:
        blacks = columns.black[:, 0].tolist()
    else:
        blacks = [
            sum(int(word) << (32 * w) for w, word in enumerate(row))
            for row in columns.black.tolist()
        ]
    return [
        Gpsi(tuple(row), black, nxt)
        for row, black, nxt in zip(rows, blacks, nexts)
    ]
