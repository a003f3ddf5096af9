"""Immutable undirected data graph.

The data graph is the substrate every other subsystem builds on.  It follows
the paper's preliminaries (Section 3): simple, undirected, no labels on
vertices or edges, no self loops.  Vertices are dense integers ``0..n-1``.

The graph *is* its CSR: two read-only, contiguous ``int64`` arrays —
``indptr`` (``n + 1`` slice boundaries) and ``indices`` (the sorted
neighbour lists back to back) — plus the derived ``degrees``.  ``N(v)`` is
the slice ``indices[indptr[v]:indptr[v + 1]]``, which gives

* expected ``O(1)`` edge-existence tests in the graph's hashed
  edge-key table (:meth:`Graph.edge_table`, built on first use),
* cache-friendly neighbourhood scans for the expansion inner loop,
* one representation whoever owns the buffers: an in-memory graph and
  a mapped ``.csrbin`` differ only in that.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Optional, Tuple

import numpy as np

from .._record import FrozenRecord
from ..exceptions import GraphError

Edge = Tuple[int, int]


class MappedCSR(FrozenRecord):
    """Where a graph's CSR arrays live on disk (``.csrbin`` mapping).

    Set by :func:`repro.graph.binfmt.load_mapped` on graphs whose
    ``indptr``/``indices`` are ``np.memmap`` views.  A forked process
    lane inherits the mapping itself, and the process backend's
    ``export`` trace event reads this to report the file's bytes
    (``mapped_file``) instead of the CSR arrays.  ``keepalive`` pins the
    underlying mapping for the graph's lifetime.
    """

    __slots__ = ("path", "indptr_offset", "indices_offset", "keepalive")

    def __init__(
        self,
        path: str,
        indptr_offset: int,
        indices_offset: int,
        keepalive: Any = None,
    ) -> None:
        object.__setattr__(self, "path", path)
        object.__setattr__(self, "indptr_offset", indptr_offset)
        object.__setattr__(self, "indices_offset", indices_offset)
        object.__setattr__(self, "keepalive", keepalive)


#: The dtype of vertex ids on the data plane: packed rows, candidates and
#: the rank -> vertex map.  A graph holds at most ``2**31`` vertices, so
#: every id fits, and so does the unmapped marker -1; a key that shifts or
#: multiplies ids is built in ``int64``.  The CSR itself stays ``int64``.
VERTEX_ID = np.int32

#: Fibonacci hashing's multiplier, ``2**64`` over the golden ratio.  It is
#: odd, so ``key * _HASH_MULTIPLIER mod 2**64`` is a bijection, undone by
#: multiplying with ``_HASH_INVERSE``.
_HASH_MULTIPLIER = 0x9E3779B97F4A7C15
_HASH_INVERSE = pow(_HASH_MULTIPLIER, -1, 1 << 64)
_MASK64 = (1 << 64) - 1
#: An empty slot.  No canonical key ``min * n + max`` reaches it: ``n``
#: is capped at ``2**31`` vertices.
EMPTY_SLOT = np.uint64(_MASK64)


class EdgeTable:
    """Open-addressing hash set of a graph's canonical edge keys
    (``min * n + max``, one per undirected edge).

    ``slots`` holds ``C + max_probe`` ``uint64`` words, where ``C`` is
    the smallest power of two at least ``2m`` (one or two words of table
    per key, so at most 32 bytes per edge, plus the tail).  A key's home
    is the top ``log2 C`` bits of ``key * _HASH_MULTIPLIER mod 2**64``.
    The keys are laid out by linear probing in home order, without
    wrap-around: key ``i`` of the home-sorted keys takes slot
    ``max(home_i, slot_{i-1} + 1)``.  So no key lies more than
    ``max_probe`` slots past its home, and every slot from a key's home
    to its own slot is occupied.  A lookup compares a key with the
    ``max_probe + 1`` slots from its home on (only the first, if that one
    is empty): exact for any key set, colliding or not.
    """

    __slots__ = ("slots", "shift", "max_probe")

    def __init__(self, keys: np.ndarray):
        """Build over ``keys``, which must be unique and non-negative."""
        keys = np.asarray(keys, dtype=np.uint64)
        bits = max(1, (2 * len(keys) - 1).bit_length())
        self.shift = np.uint64(64 - bits)
        # Sorting the hashes sorts the keys by home; the inverse multiply
        # turns each hash back into its key.
        hashed = np.sort(keys * np.uint64(_HASH_MULTIPLIER))
        home = (hashed >> self.shift).astype(np.int64)
        rank = np.arange(len(keys))
        slot = rank + np.maximum.accumulate(home - rank)
        self.max_probe = int((slot - home).max(initial=0))
        slots = np.full((1 << bits) + self.max_probe, EMPTY_SLOT)
        slots[slot] = hashed * np.uint64(_HASH_INVERSE)
        slots.flags.writeable = False
        self.slots = slots

    def keys(self) -> np.ndarray:
        """Every key in the table, in slot order (a fresh array)."""
        return self.slots[self.slots != EMPTY_SLOT]

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """One bool per ``uint64`` key: whether it is in the table.

        One gather at every key's home; the keys that missed on an
        occupied slot are then compared with the ``max_probe`` slots past
        their home, one gather per slot."""
        keys = np.asarray(keys, dtype=np.uint64)
        at = keys * np.uint64(_HASH_MULTIPLIER)
        at >>= self.shift
        at = at.view(np.int64)  # a slot number: below 2**63
        got = self.slots.take(at)
        found = got == keys
        if self.max_probe:
            walk = np.flatnonzero(~found & (got != EMPTY_SLOT))
            at, want = at[walk], keys[walk]
            hit = np.zeros(len(walk), dtype=bool)
            for _ in range(self.max_probe):
                at += 1
                hit |= self.slots.take(at) == want
            found[walk] = hit
        return found

    def contains_key(self, key: int) -> bool:
        """Scalar :meth:`contains`: the same walk in Python integers."""
        at = (key * _HASH_MULTIPLIER & _MASK64) >> int(self.shift)
        for got in self.slots[at:at + self.max_probe + 1].tolist():
            if got == key:
                return True
            if got == _MASK64:
                return False
        return False


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
    m = len(pairs)
    # Both directions' keys written in place: one 2m array, no temporaries.
    keys = np.empty(2 * m, dtype=np.int64)
    head, tail = keys[:m], keys[m:]
    np.multiply(pairs[:, 0], base, out=head)
    head += pairs[:, 1]
    np.multiply(pairs[:, 1], base, out=tail)
    tail += pairs[:, 0]
    keys.sort()
    fresh = np.ones(len(keys), dtype=bool)
    fresh[1:] = keys[1:] != keys[:-1]  # not np.unique: it imports numpy.ma
    if not fresh.all():
        keys = keys[fresh]
    indptr = np.searchsorted(keys, np.arange(n + 1) * base)
    np.remainder(keys, base, out=keys)
    return indptr, keys


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
        Non-None means the CSR arrays are views into a file on disk,
        which the process backend's ``export`` trace event reports as
        ``mapped_file``.
    """

    __slots__ = (
        "indptr", "indices", "degrees", "mmap_spec",
        "_n", "_m", "_hash", "_fingerprint", "_edge_table",
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
        if len(indptr) == 0:
            raise GraphError("indptr must have at least one entry")
        if len(indptr) - 1 > np.iinfo(VERTEX_ID).max + 1:
            raise GraphError(
                f"{len(indptr) - 1} vertices overflow the 4-byte vertex ids"
            )
        indptr, indices = _frozen(indptr), _frozen(indices)
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
        self._edge_table: Optional[EdgeTable] = None

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

        Every pair's canonical ``(min, max)`` key is looked up in
        :meth:`edge_table`; ids outside the graph are masked off, since
        their keys may alias a real edge's.  The ids may be 4-byte; the
        key is built in ``int64``.
        """
        us = np.asarray(us, dtype=np.int64)
        vs = np.asarray(vs, dtype=np.int64)
        n = self._n
        inside = (us >= 0) & (us < n) & (vs >= 0) & (vs < n)
        needles = np.minimum(us, vs) * n + np.maximum(us, vs)
        return inside & self.edge_table().contains(needles.view(np.uint64))

    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray]:
        """Every undirected edge once, as ``(us, vs)`` arrays with
        ``us < vs`` elementwise, sorted by ``(u, v)``."""
        us = np.repeat(np.arange(self._n, dtype=np.int64), self.degrees)
        once = us < self.indices  # each edge at its (u < v) slot
        return us[once], self.indices[once]

    def edge_table(self) -> EdgeTable:
        """The :class:`EdgeTable` of every edge's ``u * n + v`` key
        (``u < v``), built on first use and cached: the graph's one exact
        membership structure, behind :meth:`has_edges` and both edge
        indexes."""
        if self._edge_table is None:
            us, vs = self.edge_arrays()
            self._edge_table = EdgeTable(us * self._n + vs)
        return self._edge_table

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

        The caller's buffers (e.g. a file mapping) back the whole graph.
        ``indptr`` is checked (starts at 0, non-decreasing, ends at
        ``len(indices)``); neighbour lists must already be sorted and
        duplicate/self-loop free, as produced by :meth:`to_csr`.
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
            import hashlib  # loads OpenSSL (~5 ms): not on a count's path

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
