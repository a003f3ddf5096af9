"""Candidate-set generation for WHITE vertices (Algorithm 5).

When the expansion of pattern vertex ``vp`` (mapped to data vertex ``vd``)
reaches a WHITE neighbour ``wp``, the candidates for ``wp`` are drawn from
``N(vd)`` and filtered by the paper's three label-free pruning rules:

1. **degree**: ``deg(candidate) >= deg(wp)`` — a data vertex of smaller
   degree can never host ``wp``;
2. **partial order**: the ranks of the candidate and of every already
   mapped, order-constrained pattern vertex must be consistent;
3. **neighbour connectivity**: for every GRAY pattern neighbour of ``wp``,
   the edge from the candidate to that neighbour's data image must exist —
   checked through the light-weight edge index (local, possibly
   false-positive; the exact check happens when that edge's endpoint is
   expanded).

Injectivity (the candidate must not equal an already mapped data vertex)
is enforced here too: subgraph listing needs isomorphisms, not
homomorphisms.

This module is the *reference* tier: :func:`candidate_set_scalar` walks
``N(vd)`` one candidate at a time in the paper's rule order, and
:func:`repro.core.expansion.expand_gpsi` builds on it.  The production
plane generates candidates for whole delivered batches at once
(:mod:`repro.core.batch_expand`) and is pinned against this module
probe-for-probe by the plane-parity tests.
"""

from __future__ import annotations

from typing import List, Tuple

from ..graph.ordered import OrderedGraph
from ..pattern.pattern import PatternGraph
from .edge_index import EdgeIndexBase
from .psi import Gpsi


def _rank_bounds(
    gpsi: Gpsi,
    white_vp: int,
    pattern: PatternGraph,
    ordered: OrderedGraph,
) -> Tuple[int, int]:
    """Exclusive ``(lower, upper)`` rank bounds implied by the partial
    order against mapped vertices.  (The expanding vp itself is mapped, so
    constraints between white_vp and vp are included automatically.)"""
    mapping = gpsi.mapping
    lower_rank = -1
    upper_rank = ordered.graph.num_vertices
    for below in pattern.must_rank_below(white_vp):
        vd = mapping[below]
        if vd != -1:
            lower_rank = max(lower_rank, ordered.rank(vd))
    for above in pattern.must_rank_above(white_vp):
        vd = mapping[above]
        if vd != -1:
            upper_rank = min(upper_rank, ordered.rank(vd))
    return lower_rank, upper_rank


def _gray_images(
    gpsi: Gpsi, white_vp: int, expanding_vp: int, pattern: PatternGraph
) -> List[int]:
    """Images of GRAY pattern neighbours of white_vp whose data edges we
    can prefilter through the index.  BLACK neighbours cannot occur: a
    WHITE vertex has no BLACK neighbours (expanding a vertex maps all its
    neighbours), and the currently expanding vp is handled by drawing
    candidates from ``N(data_vertex)`` in the first place."""
    return [
        gpsi.mapping[np_]
        for np_ in pattern.neighbors(white_vp)
        if np_ != expanding_vp and gpsi.is_gray(np_)
    ]


def candidate_set_scalar(
    gpsi: Gpsi,
    white_vp: int,
    expanding_vp: int,
    data_vertex: int,
    pattern: PatternGraph,
    ordered: OrderedGraph,
    edge_index: EdgeIndexBase,
) -> List[int]:
    """Candidates in ``N(data_vertex)`` that may host ``white_vp``, one
    candidate at a time — executable documentation of Algorithm 5's
    per-candidate rule order and the oracle the batch kernel is tested
    against.

    Returns the (possibly empty) list of admissible data vertices.  The
    caller charges one scan unit per neighbour examined.
    """
    graph = ordered.graph
    used = set(gpsi.mapped_data_vertices())
    pattern_degree = pattern.degree(white_vp)

    lower_rank, upper_rank = _rank_bounds(gpsi, white_vp, pattern, ordered)
    if lower_rank >= upper_rank:
        return []

    gray_images = _gray_images(gpsi, white_vp, expanding_vp, pattern)

    result: List[int] = []
    for cand in graph.neighbors(data_vertex):
        cand = int(cand)
        if graph.degree(cand) < pattern_degree:
            continue  # pruning rule 1a: degree
        rank = ordered.rank(cand)
        if not lower_rank < rank < upper_rank:
            continue  # pruning rule 1b: partial order
        if cand in used:
            continue  # injectivity
        valid = True
        for image in gray_images:
            if not edge_index.might_contain(cand, image):
                valid = False
                break  # pruning rule 2: neighbour connectivity
        if valid:
            result.append(cand)
    return result


def combination_consistent(
    assignment: List[int],
    white_vps: List[int],
    pattern: PatternGraph,
    ordered: OrderedGraph,
    edge_index: EdgeIndexBase,
) -> bool:
    """Validity of one combination of candidates across WHITE neighbours.

    ``assignment[i]`` is the candidate chosen for ``white_vps[i]``.  The
    per-vertex rules already ran; this checks the *cross* constraints the
    paper folds into "pruning invalid combinations": distinctness, partial
    order between two newly mapped vertices, and (via the index) pattern
    edges joining two newly mapped vertices.

    Pairs are walked in colex order — ``(0, 1), (0, 2), (1, 2), (0, 3),
    ...`` — so every check on the first ``j + 1`` candidates precedes
    any check involving a later one.  The order is part of the
    probe-statistics contract with :mod:`repro.core.batch_expand`, which
    joins the candidates one WHITE vertex at a time and probes each
    prefix once for every combination sharing it.
    """
    k = len(white_vps)
    for j in range(1, k):
        for i in range(j):
            a, b = assignment[i], assignment[j]
            if a == b:
                return False
            pa, pb = white_vps[i], white_vps[j]
            if (pa, pb) in pattern.partial_order and not ordered.precedes(a, b):
                return False
            if (pb, pa) in pattern.partial_order and not ordered.precedes(b, a):
                return False
            if pattern.has_edge(pa, pb) and not edge_index.might_contain(a, b):
                return False
    return True
