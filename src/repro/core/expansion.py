"""Partial subgraph instance expansion (Algorithms 1 and 2).

Expanding a Gpsi at its designated GRAY vertex ``vp`` (mapped to the local
data vertex ``vd``):

1. every GRAY pattern neighbour of ``vp`` is verified with an *exact*
   adjacency check ``map(neighbour) in N(vd)`` — ``vd``'s adjacency is
   local to the executing worker, so this costs no communication;
2. every WHITE pattern neighbour gets a candidate set from ``N(vd)``
   filtered by Algorithm 5
   (:func:`repro.core.candidates.candidate_set_scalar`);
3. ``vp`` turns BLACK; new Gpsis are produced as the cross product of the
   candidate sets, with invalid combinations pruned;
4. complete instances are reported, incomplete ones handed to the
   distribution strategy for routing.

BLACK neighbours are skipped — their edges were verified when they
expanded.  A dead Gpsi (failed GRAY check or empty candidate set) simply
produces nothing; the work done before death is still charged, which is
exactly why invalid Gpsis matter for performance (Section 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import List, Tuple

from ..graph.ordered import OrderedGraph
from ..pattern.pattern import PatternGraph
from .candidates import candidate_set_scalar, combination_consistent
from .cost import CostParameters, DEFAULT_COSTS
from .edge_index import EdgeIndexBase
from .psi import Gpsi


@dataclass
class ExpansionOutcome:
    """What expanding one Gpsi produced.

    ``cost`` is the simulated computation charge (Equation 2's
    ``load(Gpsi)`` realised, not estimated); ``generated`` is ``f(vp)`` —
    the number of new Gpsis (pending + complete).
    """

    complete: List[Tuple[int, ...]] = field(default_factory=list)
    pending: List[Gpsi] = field(default_factory=list)
    cost: float = 0.0
    generated: int = 0

    @property
    def died(self) -> bool:
        """Whether the Gpsi was invalid (produced nothing at all)."""
        return not self.complete and not self.pending


def expand_gpsi(
    gpsi: Gpsi,
    pattern: PatternGraph,
    ordered: OrderedGraph,
    edge_index: EdgeIndexBase,
    costs: CostParameters = DEFAULT_COSTS,
) -> ExpansionOutcome:
    """Run Algorithm 1 on one Gpsi; the caller routes the outcome.

    This is the reference expansion — one Gpsi, one candidate at a time.
    The production plane runs :func:`repro.core.batch_expand.expand_columns`
    instead, with identical results, costs and index statistics.
    """
    outcome = ExpansionOutcome()
    vp = gpsi.next_vertex
    vd = gpsi.mapping[vp]
    graph = ordered.graph
    new_black = gpsi.black | (1 << vp)

    white_lists: List[Tuple[int, List[int]]] = []
    for np_ in pattern.neighbors(vp):
        if gpsi.is_black(np_):
            continue
        if gpsi.is_gray(np_):
            # Exact verification of a previously prefiltered edge.
            outcome.cost += costs.gray_check
            if not graph.has_edge(vd, gpsi.mapping[np_]):
                return outcome  # dead: the bloom prefilter false-positived
        else:
            # WHITE: build the candidate set, paying one scan unit per
            # neighbour of vd examined.
            outcome.cost += costs.scan * graph.degree(vd)
            cands = candidate_set_scalar(
                gpsi, np_, vp, vd, pattern, ordered, edge_index
            )
            if not cands:
                return outcome  # dead: no admissible candidate
            white_lists.append((np_, cands))

    if not white_lists:
        # Verification-only expansion: colours change, mapping does not.
        advanced = Gpsi(gpsi.mapping, new_black, -1)
        _classify(advanced, pattern, outcome)
        outcome.generated += 1
        return outcome

    white_vps = [np_ for np_, _ in white_lists]
    candidate_lists = [cands for _, cands in white_lists]
    mapping = list(gpsi.mapping)
    for combo in product(*candidate_lists):
        # Each attempted combination costs ce worth of materialisation
        # work whether or not it survives the cross checks; survivors are
        # the paper's f(vp).
        outcome.cost += costs.ce
        if len(white_vps) > 1 and not combination_consistent(
            list(combo), white_vps, pattern, ordered, edge_index
        ):
            continue
        for wv, cand in zip(white_vps, combo):
            mapping[wv] = cand
        new_gpsi = Gpsi(tuple(mapping), new_black, -1)
        _classify(new_gpsi, pattern, outcome)
        outcome.generated += 1
        for wv in white_vps:
            mapping[wv] = gpsi.mapping[wv]
    return outcome


def _classify(new_gpsi: Gpsi, pattern: PatternGraph, outcome: ExpansionOutcome) -> None:
    if new_gpsi.is_complete(pattern):
        outcome.complete.append(new_gpsi.mapping)
    else:
        outcome.pending.append(new_gpsi)
