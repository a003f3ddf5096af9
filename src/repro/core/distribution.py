"""Gpsi distribution strategies (Section 5.1, Algorithm 3).

After an expansion creates a new Gpsi, one of its GRAY vertices must be
chosen as the next expansion target; the Gpsi is then routed to the worker
owning that vertex's data image.  Choosing well is the NP-hard *partial
subgraph instance distribution problem* (Theorem 2 — reduction from
Minimum Makespan Scheduling), so the paper evaluates heuristics:

* **random** — uniform over the GRAY candidates; balances Gpsi *counts*
  but not cost (hubs overload their workers);
* **roulette wheel** — Equation 6: pick GRAY ``k`` with probability
  proportional to ``prod_{j != k} deg(vdj)``, i.e. inversely proportional
  to ``deg(vdk)`` (Heuristic 1: big-degree vertices should expand fewer
  Gpsis);
* **workload-aware (alpha)** — greedy ``argmin_j W_j^alpha + w_ij`` with
  the increased-workload estimate ``w_ij = C(deg(vd), w)`` and a
  worker-local view of the global load vector ``W`` (Section 6).
  ``alpha=1`` is the classical greedy (prone to local optima), ``alpha=0``
  pure cost-minimisation (prone to stragglers), ``alpha=0.5`` the paper's
  trade-off, bounded by ``K * OPT`` (Theorem 3).

Each strategy only sees GRAY vertices whose expansion makes progress
(:meth:`~repro.core.psi.Gpsi.useful_grays`).
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

import numpy as np

from ..exceptions import DistributionError
from ..graph.graph import Graph
from ..graph.partition import Partition
from ..pattern.pattern import PatternGraph
from .cost import estimate_f
from .psi import Gpsi


def _padded(rows: List[Tuple[int, ...]], fill: int) -> np.ndarray:
    """Ragged ``rows`` as one ``int64`` matrix, ``fill`` past each row's end."""
    width = max(map(len, rows), default=0)
    matrix = np.full((len(rows), width), fill, dtype=np.int64)
    for out, row in zip(matrix, rows):
        out[: len(row)] = row
    return matrix


def _num_white_neighbors(gpsi: Gpsi, pattern: PatternGraph, vp: int) -> int:
    return sum(1 for w in pattern.neighbors(vp) if gpsi.is_white(w))


def worker_rng(seed: int, worker_id: int) -> np.random.Generator:
    """Logical worker ``worker_id``'s private routing RNG in a job seeded
    ``seed`` — the ``dist_rng`` of its state dict, which
    :meth:`DistributionStrategy._rng` builds from the state's
    ``dist_seed`` pair on the worker's first draw.  One stream per
    worker: routing needs no cross-worker coordination and replays draw
    for draw wherever the worker runs."""
    return np.random.default_rng((seed + 1) * 1_000_003 + worker_id)


class DistributionStrategy:
    """Chooses the next expansion vertex for a freshly created Gpsi."""

    name = "abstract"

    def choose(
        self,
        gpsi: Gpsi,
        candidates: List[int],
        pattern: PatternGraph,
        graph: Graph,
        partition: Partition,
        worker_state: Dict[str, Any],
    ) -> int:
        """Return the chosen GRAY pattern vertex from ``candidates``.

        ``worker_state`` is the executing worker's private dict; strategies
        keep their RNG and local workload view there so runs are
        deterministic per worker and need no cross-worker coordination.
        """
        raise NotImplementedError

    def choose_many(
        self,
        mapping: np.ndarray,
        group_of: np.ndarray,
        groups: List[Tuple[Tuple[int, ...], Tuple[int, ...]]],
        graph: Graph,
        partition: Partition,
        worker_state: Dict[str, Any],
    ) -> np.ndarray:
        """Vectorised :meth:`choose` over a batch of children.

        ``mapping`` is the children's ``(n, k)`` data-vertex matrix.
        Children of one signature group share their candidates, so those
        arrive once per group, not once per child: ``groups`` is the
        block's group table — one ``(grays, white_counts)`` pair per
        group, a handful per block, ``grays`` the group's useful GRAY
        vertices and ``white_counts[j]`` the number of WHITE pattern
        neighbours of ``grays[j]`` (what the workload-aware estimator
        needs) — and ``group_of[i]`` is child ``i``'s row in it.
        Returns one chosen GRAY vertex per child, as ``int64``.

        Every strategy's batched form consumes the worker RNG / load view
        in exactly the per-child order the scalar loop would, so the
        engine reproduces the reference's routing
        (:mod:`repro.core.reference`) bit for bit.  This is what the
        engine calls — with these six positional parameters, no
        keywords — so every strategy must override it: ``PSgL`` refuses
        one that does not at construction.
        """
        raise NotImplementedError(f"{self.name}: choose_many is not implemented")

    def _candidate_table(self, groups) -> Tuple[np.ndarray, np.ndarray]:
        """The group table's candidates as ``(vps, lens)``: ``vps[g]`` is
        group ``g``'s GRAY vertices, zero-padded past ``lens[g]``.  An
        empty group fails like :meth:`_require_candidates`."""
        for grays, _ in groups:
            self._require_candidates(grays)
        lens = np.array([len(grays) for grays, _ in groups], dtype=np.int64)
        return _padded([grays for grays, _ in groups], 0), lens

    # ------------------------------------------------------------------
    def _require_candidates(self, candidates: List[int]) -> None:
        """Fail loudly on an empty candidate list.

        Without this guard each strategy failed differently — workload-
        aware returned the ``-1`` sentinel, which Python's negative
        indexing silently turned into routing by ``mapping[-1]`` (a wrong
        but plausible-looking worker); random raised ``ValueError`` from
        the RNG and roulette ``IndexError``.  An empty list always means
        the caller filtered every GRAY vertex out, so every strategy
        reports it the same way.
        """
        if not candidates:
            raise DistributionError(
                f"{self.name}: no GRAY candidates to choose an expansion "
                "vertex from (the Gpsi has no useful gray vertex)"
            )

    @staticmethod
    def _rng(worker_state: Dict[str, Any]) -> np.random.Generator:
        """The worker's routing RNG, built from its ``dist_seed``
        ``(seed, worker_id)`` pair on the first draw: a strategy that
        never draws (workload-aware) never imports ``numpy.random``."""
        rng = worker_state.get("dist_rng")
        if rng is None:
            if "dist_seed" not in worker_state:
                raise DistributionError(
                    "worker RNG missing; the listing driver must seed it"
                )
            rng = worker_state["dist_rng"] = worker_rng(*worker_state["dist_seed"])
        return rng


class RandomStrategy(DistributionStrategy):
    """Uniformly random GRAY choice — minimal overhead, cost-oblivious."""

    name = "random"

    def choose(self, gpsi, candidates, pattern, graph, partition, worker_state):
        self._require_candidates(candidates)
        if len(candidates) == 1:
            return candidates[0]
        rng = self._rng(worker_state)
        return candidates[int(rng.integers(len(candidates)))]

    def choose_many(self, mapping, group_of, groups, graph, partition, worker_state):
        group_vps, lens = self._candidate_table(groups)
        chosen = group_vps[group_of, 0]
        multi = np.flatnonzero(lens[group_of] > 1)
        if len(multi):
            # One bulk draw over the multi-candidate children in child
            # order: Generator.integers with an array of highs consumes
            # the stream exactly like the equivalent sequence of scalar
            # draws (single-candidate children skip the RNG, as above).
            rows = group_of[multi]
            draws = self._rng(worker_state).integers(lens[rows])
            chosen[multi] = group_vps[rows, draws]
        return chosen


class RouletteStrategy(DistributionStrategy):
    """Equation 6 roulette wheel: smaller-degree images expand more."""

    name = "roulette"

    def choose(self, gpsi, candidates, pattern, graph, partition, worker_state):
        self._require_candidates(candidates)
        if len(candidates) == 1:
            return candidates[0]
        # p_k proportional to prod_{j != k} deg_j == proportional to 1/deg_k.
        inv = [1.0 / max(graph.degree(gpsi.mapping[vp]), 1) for vp in candidates]
        total = sum(inv)
        rng = self._rng(worker_state)
        randnum = rng.random() * total
        for vp, weight in zip(candidates, inv):
            if randnum <= weight:
                return vp
            randnum -= weight
        return candidates[-1]

    def choose_many(self, mapping, group_of, groups, graph, partition, worker_state):
        group_vps, lens = self._candidate_table(groups)
        chosen = group_vps[group_of, 0]
        multi = np.flatnonzero(lens[group_of] > 1)
        m = len(multi)
        if m == 0:
            return chosen
        # Ragged candidate/weight matrices, padded past each child's
        # length; weights replicate the scalar loop's exact arithmetic
        # (IEEE division, left-to-right total, sequential subtraction) so
        # the selected wheel slot is bit-identical per child.
        rows = group_of[multi]
        vps = group_vps[rows]
        width = vps.shape[1]
        valid = np.arange(width) < lens[rows, None]
        images = mapping[multi[:, None], vps]
        weights = 1.0 / np.maximum(graph.degrees[images], 1)
        total = np.zeros(m)
        for pos in range(width):
            total = np.where(valid[:, pos], total + weights[:, pos], total)
        rng = self._rng(worker_state)
        remaining = rng.random(size=m) * total
        pick = np.full(m, -1, dtype=np.int64)
        for pos in range(width):
            undecided = valid[:, pos] & (pick < 0)
            hit = undecided & (remaining <= weights[:, pos])
            pick[hit] = pos
            remaining = np.where(
                undecided & ~hit, remaining - weights[:, pos], remaining
            )
        fallback = pick < 0  # numerical leftovers take the last slot
        pick[fallback] = lens[rows[fallback]] - 1
        chosen[multi] = vps[np.arange(m), pick]
        return chosen


class WorkloadAwareStrategy(DistributionStrategy):
    """Algorithm 3: ``argmin_j W_j^alpha + w_ij`` over GRAY candidates.

    The load vector ``W`` is a per-worker *local view* updated without
    synchronisation, exactly as in the paper's implementation notes; with
    random partitions each worker sees a statistically faithful sample of
    the global distribution.
    """

    def __init__(self, alpha: float = 0.5):
        if not 0.0 <= alpha <= 1.0:  # also refuses nan
            raise DistributionError(f"alpha must be in [0, 1], got {alpha}")
        self.alpha = alpha
        self.name = f"workload-aware({alpha})"

    def choose(self, gpsi, candidates, pattern, graph, partition, worker_state):
        self._require_candidates(candidates)
        load_view = worker_state.get("dist_load_view")
        if load_view is None:
            load_view = [0.0] * partition.num_workers
            worker_state["dist_load_view"] = load_view

        best_vp = -1
        best_worker = -1
        best_score = float("inf")
        best_increase = 0.0
        for vp in candidates:
            vd = gpsi.mapping[vp]
            target = partition.owner(vd)
            increase = estimate_f(
                graph.degree(vd), _num_white_neighbors(gpsi, pattern, vp)
            )
            score = load_view[target] ** self.alpha + increase
            if score < best_score:
                best_score = score
                best_vp = vp
                best_worker = target
                best_increase = increase
        load_view[best_worker] += best_increase
        return best_vp

    def choose_many(self, mapping, group_of, groups, graph, partition, worker_state):
        group_vps, _ = self._candidate_table(groups)
        load_view = worker_state.get("dist_load_view")
        if load_view is None:
            load_view = [0.0] * partition.num_workers
            worker_state["dist_load_view"] = load_view
        n, width = len(group_of), group_vps.shape[1]
        # Owner targets and image degrees of every candidate slot come
        # from one gather through the group table.  C(deg, w) is a table,
        # one row per white count over the degrees the call sees; padded
        # slots read a last row of inf, which can never win the strict
        # ``<`` below.
        images = mapping[np.arange(n)[:, None], group_vps[group_of]]
        targets = partition.owner_array[images]
        image_degrees = graph.degrees[images]
        white_values = {w for _, whites in groups for w in whites}
        inf_row = max(white_values) + 1
        group_whites = _padded([whites for _, whites in groups], inf_row)
        seen_degrees = np.flatnonzero(np.bincount(image_degrees.ravel()))
        estimates = np.full((inf_row + 1, seen_degrees[-1] + 1), np.inf)
        for whites in white_values:
            estimates[whites, seen_degrees] = [
                estimate_f(degree, whites) for degree in seen_degrees.tolist()
            ]
        increases = estimates[group_whites[group_of], image_degrees]
        # The load view is sequentially dependent — child i's argmin sees
        # the updates of children 0..i-1 — so the argmin itself stays a
        # Python loop over pure floats (bit-identical to the scalar path:
        # same additions in the same order, first minimum wins) over one
        # flat list per candidate slot.  Slot 0 is always a real candidate
        # and seeds the minimum; ``W_j ** alpha`` is kept per worker and
        # refreshed only for the worker that just took an increase.
        alpha = self.alpha
        powers = [load ** alpha for load in load_view]
        target_slots = targets.T.tolist()
        increase_slots = increases.T.tolist()
        later_slots = range(1, width)
        picks = [0] * n
        for i, (worker, increase) in enumerate(
            zip(target_slots[0], increase_slots[0])
        ):
            best_score = powers[worker] + increase
            for slot in later_slots:
                score = powers[target_slots[slot][i]] + increase_slots[slot][i]
                if score < best_score:
                    best_score = score
                    picks[i] = slot
                    worker = target_slots[slot][i]
                    increase = increase_slots[slot][i]
            load_view[worker] += increase
            powers[worker] = load_view[worker] ** alpha
        return group_vps[group_of, picks]


def make_strategy(name: str, alpha: float = 0.5) -> DistributionStrategy:
    """Factory accepting the names used throughout the benchmarks.

    ``"random"``, ``"roulette"``, ``"workload-aware"`` (uses ``alpha``),
    and the paper's shorthands ``"WA,0"``, ``"WA,0.5"``, ``"WA,1"``.
    """
    if not isinstance(name, str):
        raise DistributionError(
            f"distribution strategy must be a name, got {name!r}"
        )
    lowered = name.lower()
    if lowered == "random":
        return RandomStrategy()
    if lowered == "roulette":
        return RouletteStrategy()
    if lowered in ("workload-aware", "wa"):
        return WorkloadAwareStrategy(alpha)
    if lowered.startswith("wa,"):
        try:
            alpha = float(lowered[3:])
        except ValueError:
            raise DistributionError(
                f"distribution strategy {name!r}: alpha is not a number"
            ) from None
        return WorkloadAwareStrategy(alpha)
    raise DistributionError(f"unknown distribution strategy {name!r}")
