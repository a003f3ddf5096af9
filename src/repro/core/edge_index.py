"""The light-weight edge index (Section 5.2.3).

The data graph lives in distributed memory, so checking a *remote* edge's
existence during candidate generation would cost a network round trip.
The paper instead replicates a small bloom filter over all edges on every
worker: candidate pruning consults it locally, accepting a small false-
positive rate (those survivors are killed by the exact adjacency check
when the corresponding GRAY vertex is later expanded).

Three interchangeable implementations support the Table 2 ablation:

* :class:`BloomEdgeIndex` — the paper's index;
* :class:`ExactEdgeIndex` — the graph's own hashed edge-key table (an
  upper bound on what any such index can prune; also how the tests
  validate the bloom).  Its positives are proofs, so a fully mapped Gpsi
  closes where it is generated (:attr:`EdgeIndexBase.exact`);
* :class:`NullEdgeIndex` — claims every edge exists, i.e. the index
  disabled ("w/o index" columns).

Every implementation answers one probe at a time
(:meth:`~EdgeIndexBase.might_contain`, the scalar reference's) and a
whole batch of edges at once (:meth:`~EdgeIndexBase.might_contain_pairs`,
the engine's batch-expansion kernel); the two must agree
probe-for-probe, including the ``queries``/``positives`` statistics,
which charge one query per edge either way.
"""

from __future__ import annotations

import copy

import numpy as np

from ..bsp.config import coerce
from ..exceptions import EngineError
from ..graph.graph import Graph
from .bloom import BloomFilter

#: The index kinds :func:`build_edge_index` builds, by name.
EDGE_INDEX_KINDS = ("bloom", "exact", "none")


def _edge_key(u: int, v: int, n: int) -> int:
    """Canonical integer key of undirected edge ``(u, v)``."""
    if u > v:
        u, v = v, u
    return u * n + v


def _edge_keys_pairs(us: np.ndarray, vs: np.ndarray, n: int) -> np.ndarray:
    """Canonical keys of elementwise ``(us[i], vs[i])`` edges, as ``uint64``.

    Matches :func:`_edge_key` value-for-value: keys are ``min * n + max``
    and ``n**2`` fits 64 bits for any graph this package can hold.
    """
    a = np.asarray(us, dtype=np.int64)
    b = np.asarray(vs, dtype=np.int64)
    keys = np.minimum(a, b)
    keys *= n
    keys += np.maximum(a, b)
    return keys.view(np.uint64)


class EdgeIndexBase:
    """Common interface: approximate membership plus probe statistics."""

    #: Whether a positive answer proves the edge exists.  When it does,
    #: every uncovered edge of a fully mapped Gpsi has already been
    #: proved by the probe that admitted its later-mapped endpoint (the
    #: GRAY-image prefilter or the cross-combination check), so the
    #: expansion reports the instance at once instead of routing it to a
    #: final verification superstep.  A class-level fact: subclasses and
    #: :meth:`detached_view` copies inherit it.
    exact = False

    def __init__(self):
        self.queries = 0
        self.positives = 0

    def reset_statistics(self) -> None:
        """Zero the probe counters (indexes are reused across runs)."""
        self.queries = 0
        self.positives = 0

    def detached_view(self) -> "EdgeIndexBase":
        """Shallow copy with private probe counters.

        Shares the (read-only) filter/key arrays with the parent — no
        rebuild cost — but owns fresh ``queries``/``positives``
        statistics, so concurrent jobs probing one replicated index
        never race on the counters.  This is how the query service hands
        each job its own view of the graph's one resident index.
        """
        clone = copy.copy(self)
        clone.reset_statistics()
        return clone

    def might_contain(self, u: int, v: int) -> bool:
        """Whether edge ``(u, v)`` possibly exists (never a false negative
        for real implementations)."""
        raise NotImplementedError

    def might_contain_pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        """Batched form: one bool per edge ``(us[i], vs[i])``.

        The batch-expansion kernel's candidate and cross-combination
        probes.  Statistics account one query per pair, matching a
        scalar :meth:`might_contain` loop — which is what this fallback
        runs; concrete indexes override it with a vectorised probe.
        """
        return np.fromiter(
            (self.might_contain(int(u), int(v)) for u, v in zip(us, vs)),
            dtype=bool,
            count=len(us),
        )

    def _record(self, answer: bool) -> bool:
        self.queries += 1
        if answer:
            self.positives += 1
        return answer

    def _record_many(self, answers: np.ndarray) -> np.ndarray:
        self.queries += len(answers)
        self.positives += int(np.count_nonzero(answers))
        return answers

    @property
    def pruned(self) -> int:
        """Number of probes answered 'definitely absent'."""
        return self.queries - self.positives


class BloomEdgeIndex(EdgeIndexBase):
    """Bloom-filter edge index; O(m) build, small footprint, adjustable
    precision."""

    def __init__(self, graph: Graph, fp_rate: float = 0.01, seed: int = 0):
        super().__init__()
        self._n = graph.num_vertices
        self._bloom = BloomFilter(max(graph.num_edges, 1), fp_rate, seed)
        self._bloom.add_many(graph.edge_table().keys())

    def might_contain(self, u: int, v: int) -> bool:
        return self._record(_edge_key(u, v, self._n) in self._bloom)

    def might_contain_pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        keys = _edge_keys_pairs(us, vs, self._n)
        return self._record_many(self._bloom.might_contain_many(keys))

    def memory_bytes(self) -> int:
        """Index footprint (the paper notes ~2GB for Twitter's 1.2B edges)."""
        return self._bloom.memory_bytes()

    def estimated_fp_rate(self) -> float:
        """Realised false-positive probability of the underlying filter."""
        return self._bloom.estimated_fp_rate()


class ExactEdgeIndex(EdgeIndexBase):
    """Hashed edge index: zero false positives, larger footprint — the
    graph's own :meth:`~Graph.edge_table`, so a forked process lane
    probes the table it inherited."""

    exact = True

    def __init__(self, graph: Graph):
        super().__init__()
        self._n = graph.num_vertices
        self._table = graph.edge_table()

    def might_contain(self, u: int, v: int) -> bool:
        return self._record(self._table.contains_key(_edge_key(u, v, self._n)))

    def might_contain_pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        keys = _edge_keys_pairs(us, vs, self._n)
        return self._record_many(self._table.contains(keys))


class NullEdgeIndex(EdgeIndexBase):
    """The index disabled: every probe answers 'maybe', so no early
    pruning happens and all invalid Gpsis survive to exact verification."""

    def might_contain(self, u: int, v: int) -> bool:
        return self._record(True)

    def might_contain_pairs(self, us: np.ndarray, vs: np.ndarray) -> np.ndarray:
        return self._record_many(np.ones(len(us), dtype=bool))


def check_edge_index(kind: object, fp_rate: object) -> None:
    """Refuse an unknown ``kind``, or a false-positive rate outside
    (0, 1) for the bloom index (the only kind that reads it), with
    :class:`~repro.exceptions.EngineError` — shared by
    :func:`build_edge_index` and :class:`~repro.core.listing.PSgL`,
    which refuses at construction what its first run would build."""
    if kind not in EDGE_INDEX_KINDS:
        raise EngineError(
            f"unknown edge index {kind!r}; available: {list(EDGE_INDEX_KINDS)}"
        )
    if kind == "bloom":
        fp = coerce("edge_index_fp", float, fp_rate)
        if not 0.0 < fp < 1.0:
            raise EngineError(f"edge_index_fp must be in (0, 1), got {fp_rate!r}")


def build_edge_index(graph: Graph, kind: str = "bloom", fp_rate: float = 0.01, seed: int = 0) -> EdgeIndexBase:
    """Factory: ``kind`` in :data:`EDGE_INDEX_KINDS`."""
    check_edge_index(kind, fp_rate)
    if kind == "bloom":
        return BloomEdgeIndex(graph, fp_rate=fp_rate, seed=seed)
    if kind == "exact":
        return ExactEdgeIndex(graph)
    return NullEdgeIndex()
