"""Initial pattern-vertex selection (Section 5.2.2, Algorithm 4).

The initial pattern vertex is where the traversal starts; a bad choice can
make a power-law run hundreds of times slower (Figure 6).  Two selectors:

* :func:`deterministic_initial_vertex` — Theorem 5's rule for cycles and
  cliques: after automorphism breaking, the vertex with the **lowest rank**
  (constrained below every other vertex) is optimal on any ordered data
  graph, because its candidates are restricted to *higher*-ranked
  neighbours and the ``ns`` distribution is the balanced one (Property 1).
* :func:`estimate_initial_vertex_cost` / :func:`select_initial_vertex` —
  Algorithm 4's cost-model simulation for general patterns: breadth-first
  exploration of partial pattern graphs, accumulating
  ``cost(Gpp, n, l) = n * (costg + (1/C) * sum_i ce * f(vpi))`` with
  ``f`` estimated from the data graph's degree distribution
  (``f(vp) ~ sum_{d >= deg(vp)} p(d) * C(d, w)``).

The ``f`` estimate is refined with the partial order: when every WHITE
neighbour of the expanding vertex is constrained *above* it, candidates
come from higher-ranked neighbours, so the ``ns`` distribution applies;
when constrained *below*, ``nb``; otherwise the raw degree distribution.
This is precisely the mechanism behind Theorem 5, and it makes the general
cost model agree with the deterministic rule on cycles and cliques.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from ..graph.graph import Graph
from ..graph.ordered import OrderedGraph
from ..pattern.automorphism import _transitive_closure
from ..pattern.pattern import PatternGraph
from ..unique import sorted_unique
from .cost import CostParameters, DEFAULT_COSTS, expected_f_from_distribution


def is_clique(pattern: PatternGraph) -> bool:
    """Whether the pattern is K_k."""
    n = pattern.num_vertices
    return all(pattern.degree(v) == n - 1 for v in range(n))


def is_cycle(pattern: PatternGraph) -> bool:
    """Whether the pattern is C_k (k >= 3; connectivity is guaranteed)."""
    n = pattern.num_vertices
    return n >= 3 and all(pattern.degree(v) == 2 for v in range(n))


def lowest_rank_vertex(pattern: PatternGraph) -> Optional[int]:
    """The pattern vertex constrained below every other one, if any.

    For cycles and cliques after automorphism breaking such a vertex
    always exists (the first equivalent vertex group contains all
    vertices).
    """
    n = pattern.num_vertices
    closure = _transitive_closure(pattern.partial_order, n)
    for v in range(n):
        if all((v, u) in closure for u in range(n) if u != v):
            return v
    return None


def deterministic_initial_vertex(pattern: PatternGraph) -> Optional[int]:
    """Theorem 5's rule; ``None`` when the pattern is not a cycle/clique
    or lacks a globally lowest-ranked vertex."""
    if not (is_clique(pattern) or is_cycle(pattern)):
        return None
    return lowest_rank_vertex(pattern)


# ----------------------------------------------------------------------
# Algorithm 4: the cost-model simulation
# ----------------------------------------------------------------------
def _distribution_of(values: np.ndarray) -> Dict[int, float]:
    uniq, _, inverse = sorted_unique(values)
    counts = np.bincount(inverse)
    total = counts.sum()
    return {int(v): float(c) / total for v, c in zip(uniq, counts)}


class DegreeStatistics:
    """Degree, ``nb`` and ``ns`` distributions of an ordered data graph.

    Computed once per data graph and shared across initial-vertex
    evaluations (the paper: "easy to obtain ... by sampling or
    traversing").
    """

    def __init__(self, ordered: OrderedGraph):
        graph = ordered.graph
        self.num_vertices = graph.num_vertices
        self.degree = _distribution_of(graph.degrees)
        self.nb = _distribution_of(ordered.nb_values)
        self.ns = _distribution_of(ordered.ns_values)

    @classmethod
    def of(cls, graph: Graph) -> "DegreeStatistics":
        """Convenience constructor from a raw graph."""
        return cls(OrderedGraph(graph))


def _estimate_f_for_expansion(
    pattern: PatternGraph,
    vp: int,
    white_neighbors: list,
    stats: DegreeStatistics,
) -> float:
    """Expected number of new Gpsis when expanding ``vp``.

    Picks the distribution implied by the partial-order direction between
    ``vp`` and its WHITE neighbours (all above -> ns, all below -> nb,
    otherwise raw degree), then applies the paper's
    ``sum_{d >= deg(vp)} p(d) * C(d, w)`` estimate.
    """
    w = len(white_neighbors)
    if w == 0:
        return 1.0
    closure = _transitive_closure(pattern.partial_order, pattern.num_vertices)
    if all((vp, nb_) in closure for nb_ in white_neighbors):
        dist, min_degree = stats.ns, 0
    elif all((nb_, vp) in closure for nb_ in white_neighbors):
        dist, min_degree = stats.nb, 0
    else:
        dist, min_degree = stats.degree, pattern.degree(vp)
    return max(expected_f_from_distribution(dist, min_degree, w), 0.0)


def estimate_initial_vertex_cost(
    pattern: PatternGraph,
    init_vertex: int,
    stats: DegreeStatistics,
    costs: CostParameters = DEFAULT_COSTS,
) -> float:
    """Algorithm 4: estimated total cost of starting at ``init_vertex``.

    States are partial pattern graphs ``(mapped, black)`` bitmask pairs;
    equal states at the same level merge by summing their estimated Gpsi
    counts ``n`` (the algorithm's "update the existed" step).  The random
    distribution strategy is assumed, so a state with ``C`` GRAY vertices
    sends ``n / C`` of its Gpsis down each branch.
    """
    n_p = pattern.num_vertices
    all_edges = list(pattern.edges())
    total_cost = 0.0
    # level -> {(mapped_mask, black_mask): estimated n}
    level: Dict[tuple, float] = {(1 << init_vertex, 0): float(stats.num_vertices)}
    while level:
        next_level: Dict[tuple, float] = {}
        for (mapped, black), count in level.items():
            grays = [
                v for v in range(n_p) if mapped >> v & 1 and not black >> v & 1
            ]
            if not grays:
                continue
            # Only GRAY vertices whose expansion progresses matter; a
            # complete state (all mapped, edges covered) stops.
            uncovered = [
                e for e in all_edges
                if not black >> e[0] & 1 and not black >> e[1] & 1
            ]
            useful = []
            for v in grays:
                whites = [u for u in pattern.neighbors(v) if not mapped >> u & 1]
                if whites or any(v in e for e in uncovered):
                    useful.append((v, whites))
            if not useful:
                continue
            branch_count = count / len(useful)
            step_cost = 0.0
            for v, whites in useful:
                f_est = _estimate_f_for_expansion(pattern, v, whites, stats)
                step_cost += costs.gray_check + costs.ce * f_est
                child_mapped = mapped
                for u in pattern.neighbors(v):
                    child_mapped |= 1 << u
                child = (child_mapped, black | (1 << v))
                next_level[child] = next_level.get(child, 0.0) + branch_count * f_est
            total_cost += count * step_cost / len(useful)
        level = next_level
    return total_cost


def select_initial_vertex(
    pattern: PatternGraph,
    graph: Graph,
    method: str = "auto",
    costs: CostParameters = DEFAULT_COSTS,
    stats: Optional[DegreeStatistics] = None,
) -> int:
    """Choose the initial pattern vertex.

    ``method``:

    * ``"auto"`` — deterministic rule when it applies, cost model otherwise;
    * ``"deterministic"`` — Theorem 5's rule only (falls back to vertex 0
      when the pattern is not a cycle/clique);
    * ``"cost-model"`` — always run Algorithm 4;
    * ``"first"`` — vertex 0 (the no-optimisation baseline in Figure 6).
    """
    if method == "first":
        return 0
    if method in ("auto", "deterministic"):
        rule = deterministic_initial_vertex(pattern)
        if rule is not None:
            return rule
        if method == "deterministic":
            return 0
    if stats is None:
        stats = DegreeStatistics.of(graph)
    best_vertex = 0
    best_cost = float("inf")
    for v in range(pattern.num_vertices):
        estimated = estimate_initial_vertex_cost(pattern, v, stats, costs)
        if estimated < best_cost:
            best_cost = estimated
            best_vertex = v
    return best_vertex
