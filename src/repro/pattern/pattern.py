"""Pattern graphs and partial-order constraint sets.

A pattern graph (Section 3) is a small connected unlabelled undirected
graph.  Internally vertices are ``0..k-1``; the paper's figures use
1-based labels, which the catalog preserves for display.

A *partial order set* is a set of ordered pairs ``(a, b)`` meaning "the
data vertex mapped to pattern vertex ``a`` must rank below the one mapped
to ``b``" in the ordered data graph.  Partial orders are produced by
automorphism breaking (Section 5.2.1) and consumed by the candidate
pruning rules (Algorithm 5).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Set, Tuple

from ..exceptions import PartialOrderError, PatternError

OrderPair = Tuple[int, int]


class PatternGraph:
    """A small connected pattern graph plus its partial-order constraints.

    Parameters
    ----------
    num_vertices:
        Number of pattern vertices (``1..~10``; listing cost is exponential
        in this).
    edges:
        Undirected edges among ``0..num_vertices-1``.
    partial_order:
        Optional ``(a, b)`` pairs constraining the data-side ranks.
    name:
        Display name (e.g. ``"PG2"``).
    """

    __slots__ = (
        "name",
        "_n",
        "_edges",
        "_adj",
        "_degrees",
        "_order",
        "_less_than",
        "_greater_than",
        "_useful_grays_cache",
        "_canonical_form",
        "_canonical_key",
    )

    def __init__(
        self,
        num_vertices: int,
        edges: Iterable[Tuple[int, int]],
        partial_order: Iterable[OrderPair] = (),
        name: str = "pattern",
    ):
        if num_vertices < 1:
            raise PatternError(f"pattern needs >= 1 vertex, got {num_vertices}")
        self.name = name
        self._n = num_vertices
        edge_set: Set[Tuple[int, int]] = set()
        adj: List[Set[int]] = [set() for _ in range(num_vertices)]
        for u, v in edges:
            if u == v:
                raise PatternError(f"self loop ({u},{u}) in pattern")
            if not (0 <= u < num_vertices and 0 <= v < num_vertices):
                raise PatternError(f"edge ({u},{v}) out of range")
            edge_set.add((min(u, v), max(u, v)))
            adj[u].add(v)
            adj[v].add(u)
        self._edges: FrozenSet[Tuple[int, int]] = frozenset(edge_set)
        self._adj: List[Tuple[int, ...]] = [tuple(sorted(s)) for s in adj]
        self._degrees = tuple(len(s) for s in adj)
        self._order: FrozenSet[OrderPair] = frozenset()
        self._less_than: List[Tuple[int, ...]] = [()] * num_vertices
        self._greater_than: List[Tuple[int, ...]] = [()] * num_vertices
        self._set_partial_order(partial_order)
        self._useful_grays_cache: Dict[Tuple[int, int], Tuple[int, ...]] = {}
        self._canonical_form: Optional[Tuple] = None
        self._canonical_key: Optional[str] = None
        if num_vertices > 1 and not self._is_connected():
            raise PatternError(f"pattern {name!r} must be connected")

    # ------------------------------------------------------------------
    def _is_connected(self) -> bool:
        seen = {0}
        stack = [0]
        while stack:
            for w in self._adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self._n

    def _set_partial_order(self, pairs: Iterable[OrderPair]) -> None:
        pairs = frozenset((int(a), int(b)) for a, b in pairs)
        for a, b in pairs:
            if not (0 <= a < self._n and 0 <= b < self._n) or a == b:
                raise PartialOrderError(f"bad order pair ({a},{b})")
        # Reject inconsistent (cyclic) constraint sets via topological sort.
        indegree = {v: 0 for v in range(self._n)}
        succs: Dict[int, List[int]] = {v: [] for v in range(self._n)}
        for a, b in pairs:
            succs[a].append(b)
            indegree[b] += 1
        queue = [v for v in range(self._n) if indegree[v] == 0]
        visited = 0
        while queue:
            v = queue.pop()
            visited += 1
            for w in succs[v]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    queue.append(w)
        if visited != self._n:
            raise PartialOrderError(f"partial order {sorted(pairs)} contains a cycle")
        self._order = pairs
        less: List[List[int]] = [[] for _ in range(self._n)]
        greater: List[List[int]] = [[] for _ in range(self._n)]
        for a, b in pairs:
            less[b].append(a)   # a must be below b
            greater[a].append(b)
        self._less_than = [tuple(sorted(x)) for x in less]
        self._greater_than = [tuple(sorted(x)) for x in greater]

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """``|Vp|``."""
        return self._n

    @property
    def num_edges(self) -> int:
        """``|Ep|``."""
        return len(self._edges)

    def vertices(self) -> range:
        """All pattern vertex ids."""
        return range(self._n)

    def edges(self) -> FrozenSet[Tuple[int, int]]:
        """Undirected edges as canonical ``(min, max)`` pairs."""
        return self._edges

    def neighbors(self, v: int) -> Tuple[int, ...]:
        """Sorted neighbours of pattern vertex ``v``."""
        return self._adj[v]

    def degree(self, v: int) -> int:
        """``deg(v)`` in the pattern."""
        return self._degrees[v]

    def has_edge(self, u: int, v: int) -> bool:
        """Whether pattern edge ``(u, v)`` exists."""
        return (min(u, v), max(u, v)) in self._edges

    def useful_grays_for(self, black: int, mapped_mask: int) -> Tuple[int, ...]:
        """GRAY vertices whose expansion makes progress, by signature.

        The answer is a pure function of the ``(black, mapped_mask)``
        colouring signature — not of the concrete data-vertex mapping — so
        it is memoised per pattern instance.  One Gpsi signature recurs
        across thousands of instances in a superstep; the cache collapses
        that recomputation to a dict hit (and the batch-expansion kernel
        asks once per signature group).  A GRAY vertex is useful when it
        is adjacent to a WHITE vertex or is an endpoint of an edge with no
        BLACK endpoint (see :meth:`repro.core.psi.Gpsi.useful_grays`).
        """
        key = (black, mapped_mask)
        cached = self._useful_grays_cache.get(key)
        if cached is not None:
            return cached
        uncovered_endpoints = set()
        for a, b in self._edges:
            if not (black >> a & 1) and not (black >> b & 1):
                uncovered_endpoints.add(a)
                uncovered_endpoints.add(b)
        result = tuple(
            vp
            for vp in range(self._n)
            if (mapped_mask >> vp & 1)
            and not (black >> vp & 1)
            and (
                any(
                    not (mapped_mask >> w & 1) for w in self._adj[vp]
                )
                or vp in uncovered_endpoints
            )
        )
        self._useful_grays_cache[key] = result
        return result

    @property
    def partial_order(self) -> FrozenSet[OrderPair]:
        """All ``(a, b)`` pairs with ``a`` constrained below ``b``."""
        return self._order

    def must_rank_below(self, v: int) -> Tuple[int, ...]:
        """Pattern vertices that must map below ``v``."""
        return self._less_than[v]

    def must_rank_above(self, v: int) -> Tuple[int, ...]:
        """Pattern vertices that must map above ``v``."""
        return self._greater_than[v]

    def with_partial_order(
        self, pairs: Iterable[OrderPair], name: str = ""
    ) -> "PatternGraph":
        """Copy of this pattern with a different partial order."""
        return PatternGraph(
            self._n,
            self._edges,
            pairs,
            name or self.name,
        )

    def relabeled(self, mapping: Sequence[int], name: str = "") -> "PatternGraph":
        """Copy with vertex ``i`` renamed to ``mapping[i]``."""
        if sorted(mapping) != list(range(self._n)):
            raise PatternError(f"mapping {mapping} is not a permutation")
        edges = [(mapping[u], mapping[v]) for u, v in self._edges]
        order = [(mapping[a], mapping[b]) for a, b in self._order]
        return PatternGraph(self._n, edges, order, name or self.name)

    def canonical_form(
        self,
    ) -> Tuple[int, Tuple[Tuple[int, int], ...], Tuple[Tuple[int, int], ...]]:
        """Automorphism-invariant canonical form of this pattern.

        ``(num_vertices, edges, partial_order)`` under the canonical
        relabeling from :func:`repro.pattern.automorphism.canonical_labeling`:
        any two patterns related by an isomorphism that also carries one
        partial order onto the other produce the *same* tuple, whatever
        vertex names they arrived with.  Cached per instance (patterns
        are immutable).
        """
        if self._canonical_form is None:
            from .automorphism import canonical_labeling

            mapping = canonical_labeling(self)
            edges = tuple(
                sorted(
                    (min(mapping[u], mapping[v]), max(mapping[u], mapping[v]))
                    for u, v in self._edges
                )
            )
            order = tuple(
                sorted((mapping[a], mapping[b]) for a, b in self._order)
            )
            self._canonical_form = (self._n, edges, order)
        return self._canonical_form

    def canonical_key(self) -> str:
        """Compact hex digest of :meth:`canonical_form`.

        The service result cache keys on this so isomorphic pattern
        inputs (e.g. the same triangle submitted with different vertex
        labels) hit the same cache entry.  Patterns whose partial orders
        are *not* isomorphic keep distinct keys — a partial order
        restricts which instances are listed, so conflating them would
        serve wrong results.
        """
        if self._canonical_key is None:
            import hashlib  # loads OpenSSL (~5 ms): not on a count's path

            digest = hashlib.blake2b(digest_size=16)
            digest.update(repr(self.canonical_form()).encode("ascii"))
            self._canonical_key = digest.hexdigest()
        return self._canonical_key

    def minimum_vertex_cover_size(self) -> int:
        """``|MVC|`` — lower bound on supersteps (Theorem 1).

        Exact exponential search; fine for pattern-sized graphs.
        """
        edges = list(self._edges)
        best = self._n

        def search(idx: int, chosen: Set[int]) -> None:
            nonlocal best
            if len(chosen) >= best:
                return
            while idx < len(edges):
                u, v = edges[idx]
                if u in chosen or v in chosen:
                    idx += 1
                    continue
                for pick in (u, v):
                    chosen.add(pick)
                    search(idx + 1, chosen)
                    chosen.remove(pick)
                return
            best = min(best, len(chosen))

        search(0, set())
        return best

    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PatternGraph):
            return NotImplemented
        return (
            self._n == other._n
            and self._edges == other._edges
            and self._order == other._order
        )

    def __hash__(self):
        return hash((self._n, self._edges, self._order))

    def __repr__(self) -> str:
        return (
            f"PatternGraph({self.name!r}, |Vp|={self._n}, |Ep|={self.num_edges}, "
            f"order={sorted(self._order)})"
        )
