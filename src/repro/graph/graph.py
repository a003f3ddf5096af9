"""Immutable undirected data graph.

The data graph is the substrate every other subsystem builds on.  It follows
the paper's preliminaries (Section 3): simple, undirected, no labels on
vertices or edges, no self loops.  Vertices are dense integers ``0..n-1``.

The graph *is* its CSR: two read-only, contiguous ``int64`` arrays —
``indptr`` (``n + 1`` slice boundaries) and ``indices`` (the sorted
neighbour lists back to back) — plus the derived ``degrees``.  ``N(v)`` is
the slice ``indices[indptr[v]:indptr[v + 1]]``, which gives

* ``O(log deg(v))`` edge-existence tests via binary search,
* cache-friendly neighbourhood scans for the expansion inner loop,
* one representation whoever owns the buffers: an in-memory graph, a
  ``/dev/shm`` block and a mapped ``.csrbin`` differ only in that.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional, Tuple

import numpy as np

from ..exceptions import GraphError

Edge = Tuple[int, int]


@dataclass(frozen=True, eq=False)
class MappedCSR:
    """Where a graph's CSR arrays live on disk (``.csrbin`` mapping).

    Set by :func:`repro.graph.binfmt.load_mapped` on graphs whose
    ``indptr``/``indices`` are ``np.memmap`` views.  The shared-memory
    export (:class:`repro.runtime.shared_graph.SharedGraphExport`) reads
    it to hand worker processes the *file* instead of copying the arrays
    into ``/dev/shm``.  ``keepalive`` pins the underlying mapping for the
    graph's lifetime and never crosses a process boundary — only the
    path and offsets travel.
    """

    path: str
    indptr_offset: int
    indices_offset: int
    keepalive: Any = field(default=None, repr=False)


def normalize_edge(u: int, v: int) -> Edge:
    """Return the canonical ``(min, max)`` form of an undirected edge."""
    return (u, v) if u < v else (v, u)


def _as_pairs(edges: Iterable[Edge]) -> np.ndarray:
    """``edges`` (an iterable of pairs or an ``(m, 2)`` array) as int64."""
    if not isinstance(edges, np.ndarray):
        edges = list(edges)
    pairs = np.asarray(edges, dtype=np.int64)
    if pairs.size and (pairs.ndim != 2 or pairs.shape[1] != 2):
        raise GraphError(f"edges must be (u, v) pairs, got shape {pairs.shape}")
    return pairs.reshape(-1, 2)


def _csr_from_pairs(n: int, pairs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The one edge-list -> CSR build: drop self loops, range-check,
    symmetrise, then sort and dedup on the ``src * n + dst`` key."""
    loops = pairs[:, 0] == pairs[:, 1]
    if loops.any():
        pairs = pairs[~loops]
    if pairs.size and (pairs.min() < 0 or pairs.max() >= n):
        bad = ((pairs < 0) | (pairs >= n)).any(axis=1)
        u, v = pairs[int(np.argmax(bad))].tolist()
        raise GraphError(f"edge ({u}, {v}) out of range for {n} vertices")
    if n > (1 << 31):
        raise GraphError(f"{n} vertices overflow the int64 edge sort key")
    base = max(n, 1)
    us, vs = pairs[:, 0], pairs[:, 1]
    keys = np.append(us * base + vs, vs * base + us)
    keys.sort()
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]  # not np.unique: it imports numpy.ma
    keys = keys[fresh]
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(keys // base, minlength=n), out=indptr[1:])
    return indptr, keys % base


def _frozen(array: np.ndarray) -> np.ndarray:
    """``array`` as read-only contiguous int64, backed by the caller's
    buffer: a writeable array is frozen through a view, so the caller's
    own array object stays writeable."""
    array = np.ascontiguousarray(array, dtype=np.int64)
    if array.flags.writeable:
        array = array.view()
        array.flags.writeable = False
    return array


class Graph:
    """A simple undirected graph with dense integer vertex ids.

    Parameters
    ----------
    num_vertices:
        Number of vertices; vertex ids are ``0..num_vertices-1``.
    edges:
        Iterable of ``(u, v)`` pairs or an ``(m, 2)`` integer array.
        Duplicates and self loops are silently dropped, matching the
        paper's preprocessing ("adding reciprocal edge and eliminating
        loops").

    Attributes
    ----------
    indptr, indices, degrees:
        The CSR arrays and ``np.diff(indptr)``; read-only ``int64``.
    mmap_spec:
        Backing ``.csrbin`` mapping (:class:`MappedCSR`), or ``None``
        unless :func:`~repro.graph.binfmt.load_mapped` built the graph.
        Non-None means the CSR arrays are views into a file on disk;
        the shared-memory runtime then exports the file path instead of
        a ``/dev/shm`` copy.
    """

    __slots__ = (
        "indptr", "indices", "degrees", "mmap_spec",
        "_n", "_m", "_hash", "_fingerprint",
    )

    def __init__(self, num_vertices: int, edges: Iterable[Edge]):
        if num_vertices < 0:
            raise GraphError(f"num_vertices must be >= 0, got {num_vertices}")
        indptr, indices = _csr_from_pairs(int(num_vertices), _as_pairs(edges))
        indptr.flags.writeable = indices.flags.writeable = False  # ours
        self._wrap(indptr, indices)

    def _wrap(self, indptr: np.ndarray, indices: np.ndarray) -> None:
        """Adopt CSR arrays after an O(n) shape check that never reads
        ``indices`` (a mapped ``.csrbin`` stays lazily paged)."""
        indptr, indices = _frozen(indptr), _frozen(indices)
        if len(indptr) == 0:
            raise GraphError("indptr must have at least one entry")
        degrees = np.diff(indptr)
        if indptr[0] != 0 or indptr[-1] != len(indices):
            raise GraphError(
                f"indptr endpoints ({int(indptr[0])}, {int(indptr[-1])}) do "
                f"not bracket {len(indices)} indices"
            )
        if len(degrees) and degrees.min() < 0:
            raise GraphError("indptr must be non-decreasing")
        degrees.flags.writeable = False
        self.indptr, self.indices, self.degrees = indptr, indices, degrees
        self.mmap_spec: Optional[MappedCSR] = None
        self._n = len(degrees)
        self._m = len(indices) // 2
        self._hash = None
        self._fingerprint = None

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices ``|V|``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """Number of undirected edges ``|E|``."""
        return self._m

    def vertices(self) -> range:
        """All vertex ids as a ``range``."""
        return range(self._n)

    def neighbors(self, v: int) -> np.ndarray:
        """Sorted neighbour array of ``v`` (a read-only CSR slice)."""
        return self.indices[self.indptr[v]:self.indptr[v + 1]]

    def degree(self, v: int) -> int:
        """``deg(v) = |N(v)|``."""
        return int(self.degrees[v])

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        if not (0 <= u < self._n and 0 <= v < self._n):
            return False
        # Probe the smaller adjacency list: same answer, less work.
        if self.degrees[v] < self.degrees[u]:
            u, v = v, u
        adj = self.neighbors(u)
        i = int(np.searchsorted(adj, v))
        return i < len(adj) and int(adj[i]) == v

    def has_edges(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Vectorised :meth:`has_edge`: one bool per ``(us[i], vs[i])``.

        A binary search over every pair's CSR segment at once — the
        shorter adjacency list of the two, as in :meth:`has_edge` — in
        ``~log2(max degree)`` numpy passes.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        n, indices = self._n, self.indices
        inside = (us >= 0) & (us < n) & (vs >= 0) & (vs < n)
        if not inside.all():
            found = np.zeros(len(us), dtype=bool)
            found[inside] = self.has_edges(us[inside], vs[inside])
            return found
        if not len(us) or not len(indices):
            return np.zeros(len(us), dtype=bool)
        swap = self.degrees[vs] < self.degrees[us]
        src, needle = np.where(swap, vs, us), np.where(swap, us, vs)
        lo, end = self.indptr[src], self.indptr[src + 1]
        hi, last = end, len(indices) - 1
        for _ in range(int((end - lo).max()).bit_length()):
            mid = (lo + hi) >> 1
            open_ = lo < hi  # then mid < hi <= len(indices)
            below = open_ & (indices[np.minimum(mid, last)] < needle)
            lo = np.where(below, mid + 1, lo)
            hi = np.where(open_ & ~below, mid, hi)
        return (lo < end) & (indices[np.minimum(lo, last)] == needle)

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every undirected edge once, as ``(us, vs)`` arrays with
        ``us < vs`` elementwise, sorted by ``(u, v)``."""
        us = np.repeat(np.arange(self._n, dtype=np.int64), self.degrees)
        once = us < self.indices  # each edge at its (u < v) slot
        return us[once], self.indices[once]

    def edges(self) -> Iterator[Edge]:
        """Iterate every undirected edge once, as ``(u, v)`` with ``u < v``."""
        us, vs = self.edge_arrays()
        return zip(us.tolist(), vs.tolist())

    # ------------------------------------------------------------------
    # CSR (compressed sparse row) export / import
    # ------------------------------------------------------------------
    def to_csr(self) -> Tuple[np.ndarray, np.ndarray]:
        """The CSR ``(indptr, indices)`` arrays themselves — O(1), no copy.

        ``indices[indptr[v]:indptr[v+1]]`` is the sorted neighbour list of
        ``v``.  Both arrays are ``int64``, contiguous and read-only.
        """
        return self.indptr, self.indices

    @classmethod
    def from_csr(cls, indptr: np.ndarray, indices: np.ndarray) -> "Graph":
        """Wrap existing CSR arrays **without copying**.

        The caller's buffers (e.g. a ``multiprocessing.shared_memory``
        block or a file mapping) back the whole graph.  ``indptr`` is
        checked (starts at 0, non-decreasing, ends at ``len(indices)``);
        neighbour lists must already be sorted and duplicate/self-loop
        free, as produced by :meth:`to_csr`.
        """
        graph = cls.__new__(cls)
        graph._wrap(indptr, indices)
        return graph

    # ------------------------------------------------------------------
    # Convenience constructors and views
    # ------------------------------------------------------------------
    @classmethod
    def from_edges(cls, edges: Iterable[Edge]) -> "Graph":
        """Build a graph sized to the maximum vertex id in ``edges``."""
        pairs = _as_pairs(edges)
        return cls(int(pairs.max()) + 1 if pairs.size else 0, pairs)

    def _gather(self, vertices: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """``(sources, neighbours)`` over the adjacency slices of
        ``vertices`` — ``O(sum of their degrees)``."""
        lens = self.degrees[vertices]
        ends = np.cumsum(lens)
        slots = np.arange(lens.sum()) + np.repeat(
            self.indptr[vertices] - (ends - lens), lens
        )
        return np.repeat(vertices, lens), self.indices[slots]

    def subgraph(self, keep: Iterable[int]) -> "Graph":
        """Induced subgraph on ``keep``, *relabelled* to ``0..k-1``.

        Returns the subgraph; the mapping from new ids to original ids is
        the sorted order of ``keep``.  Only the kept vertices' adjacency
        slices are scanned — ``O(sum of kept degrees)``, not ``O(m)`` —
        so carving a small neighbourhood out of a large graph is cheap.
        Ids in ``keep`` outside the graph become isolated vertices, as
        before.
        """
        keep_arr = np.unique(np.fromiter(keep, dtype=np.int64))
        inside = keep_arr[(keep_arr >= 0) & (keep_arr < self._n)]
        src, dst = self._gather(inside)
        kept = np.isin(dst, inside)
        # The relabelling is each id's position in the sorted keep set.
        pairs = np.searchsorted(keep_arr, (src[kept], dst[kept])).T
        return Graph(len(keep_arr), pairs)

    def max_degree(self) -> int:
        """Largest degree in the graph (0 for an empty graph)."""
        return int(self.degrees.max(initial=0))

    def triangles_at(self, v: int) -> int:
        """Number of triangles incident to ``v`` (neighbour-intersection)."""
        adj = self.neighbors(v)
        us, ws = self._gather(adj)
        # Edges (u, w), u < w, with both ends in N(v).
        return int(np.count_nonzero(np.isin(ws[ws > us], adj)))

    # ------------------------------------------------------------------
    # Dunder plumbing
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._n

    def __contains__(self, v: int) -> bool:
        return 0 <= v < self._n

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return np.array_equal(self.indptr, other.indptr) and np.array_equal(
            self.indices, other.indices
        )

    def fingerprint(self) -> str:
        """Stable hex digest of the graph structure.

        A 128-bit blake2b over the CSR arrays, computed once and cached
        (graphs are immutable).  Unlike :meth:`__hash__` — whose value is
        process-local because it folds through Python's ``hash()`` — the
        fingerprint is reproducible across processes and runs, which is
        what the query service keys its result cache on and reports on
        ``/graph``.
        """
        if self._fingerprint is None:
            digest = hashlib.blake2b(digest_size=16)
            digest.update(np.int64(self._n).tobytes())
            digest.update(self.indptr)
            digest.update(self.indices)
            self._fingerprint = digest.hexdigest()
        return self._fingerprint

    def __hash__(self):
        # Structural, consistent with __eq__: equal graphs hash equal.
        # Computed once over the CSR bytes and cached (graphs are
        # immutable), so only the first hash of a graph costs O(m).
        if self._hash is None:
            self._hash = hash((self._n, self._m, self.fingerprint()))
        return self._hash

    def __repr__(self) -> str:
        return f"Graph(|V|={self._n}, |E|={self._m})"
