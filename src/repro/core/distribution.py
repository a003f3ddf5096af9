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

from typing import Any, Dict, List

import numpy as np

from ..exceptions import DistributionError
from ..graph.graph import Graph
from ..graph.partition import Partition
from ..pattern.pattern import PatternGraph
from .cost import estimate_f
from .psi import Gpsi


def _num_white_neighbors(gpsi: Gpsi, pattern: PatternGraph, vp: int) -> int:
    return sum(1 for w in pattern.neighbors(vp) if gpsi.is_white(w))


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
        grays: List[tuple],
        white_counts: List[tuple],
        graph: Graph,
        partition: Partition,
        worker_state: Dict[str, Any],
    ) -> np.ndarray:
        """Vectorised :meth:`choose` over a batch of children.

        ``mapping`` is the children's ``(n, k)`` data-vertex matrix,
        ``grays[i]`` child ``i``'s useful GRAY vertices, and
        ``white_counts[i][j]`` the number of WHITE pattern neighbours of
        ``grays[i][j]`` (what the workload-aware estimator needs).
        Returns one chosen GRAY vertex per child, as ``int64``.

        Every strategy's batched form consumes the worker RNG / load view
        in exactly the per-child order the scalar loop would, so a
        columnar run reproduces the object path's routing bit for bit.
        Custom strategies override this to run on the production plane;
        a strategy that leaves it alone is detected by the driver, which
        runs the job on the reference plane (scalar :meth:`choose`) and
        reports that in ``ListingResult.wire``.
        """
        raise NotImplementedError(
            f"{self.name}: choose_many is not implemented; the strategy "
            "can only route children one at a time (reference plane)"
        )

    def _require_gray_batches(self, grays: List[tuple]) -> None:
        """Batched form of :meth:`_require_candidates`."""
        for g in grays:
            if not g:
                self._require_candidates([])

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
        rng = worker_state.get("dist_rng")
        if rng is None:
            raise DistributionError(
                "worker RNG missing; the listing driver must seed it"
            )
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

    def choose_many(self, mapping, grays, white_counts, graph, partition, worker_state):
        self._require_gray_batches(grays)
        n = len(grays)
        lens = np.fromiter((len(g) for g in grays), dtype=np.int64, count=n)
        chosen = np.fromiter(
            (g[0] for g in grays), dtype=np.int64, count=n
        )
        multi = np.flatnonzero(lens > 1)
        if len(multi):
            # One bulk draw over the multi-candidate children in child
            # order: Generator.integers with an array of highs consumes
            # the stream exactly like the equivalent sequence of scalar
            # draws (single-candidate children skip the RNG, as above).
            rng = self._rng(worker_state)
            draws = rng.integers(lens[multi])
            chosen[multi] = np.fromiter(
                (grays[i][d] for i, d in zip(multi.tolist(), draws.tolist())),
                dtype=np.int64,
                count=len(multi),
            )
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

    def choose_many(self, mapping, grays, white_counts, graph, partition, worker_state):
        self._require_gray_batches(grays)
        n = len(grays)
        lens = np.fromiter((len(g) for g in grays), dtype=np.int64, count=n)
        chosen = np.fromiter((g[0] for g in grays), dtype=np.int64, count=n)
        multi = np.flatnonzero(lens > 1)
        m = len(multi)
        if m == 0:
            return chosen
        width = int(lens[multi].max())
        # Ragged candidate/weight matrices, padded past each child's
        # length; weights replicate the scalar loop's exact arithmetic
        # (IEEE division, left-to-right total, sequential subtraction) so
        # the selected wheel slot is bit-identical per child.
        vps = np.zeros((m, width), dtype=np.int64)
        valid = np.zeros((m, width), dtype=bool)
        for r, i in enumerate(multi.tolist()):
            g = grays[i]
            vps[r, : len(g)] = g
            valid[r, : len(g)] = True
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
        pick[fallback] = lens[multi[fallback]] - 1
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
        if alpha < 0.0 or alpha > 1.0:
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

    def choose_many(self, mapping, grays, white_counts, graph, partition, worker_state):
        self._require_gray_batches(grays)
        load_view = worker_state.get("dist_load_view")
        if load_view is None:
            load_view = [0.0] * partition.num_workers
            worker_state["dist_load_view"] = load_view
        n = len(grays)
        # The load view is sequentially dependent — child i's argmin sees
        # the updates of children 0..i-1 — so the argmin itself stays a
        # Python loop over pure floats (bit-identical to the scalar path).
        # Everything else is hoisted out: owner targets come from one
        # vectorised gather, and the C(deg, w) estimates are memoised per
        # distinct (degree, white-count) pair, of which a superstep sees a
        # handful across millions of children.
        width = max((len(g) for g in grays), default=0)
        vps = np.zeros((n, width), dtype=np.int64)
        for i, g in enumerate(grays):
            vps[i, : len(g)] = g
        images = mapping[np.arange(n)[:, None], vps]
        targets = partition.owner_array[images].tolist()
        image_degrees = graph.degrees[images].tolist()
        estimate_cache: Dict[tuple, float] = {}
        alpha = self.alpha
        chosen = np.empty(n, dtype=np.int64)
        for i, g in enumerate(grays):
            row_targets = targets[i]
            row_degrees = image_degrees[i]
            row_whites = white_counts[i]
            best_vp = -1
            best_worker = -1
            best_score = float("inf")
            best_increase = 0.0
            for j, vp in enumerate(g):
                key = (row_degrees[j], row_whites[j])
                increase = estimate_cache.get(key)
                if increase is None:
                    increase = estimate_f(key[0], key[1])
                    estimate_cache[key] = increase
                score = load_view[row_targets[j]] ** alpha + increase
                if score < best_score:
                    best_score = score
                    best_vp = vp
                    best_worker = row_targets[j]
                    best_increase = increase
            load_view[best_worker] += best_increase
            chosen[i] = best_vp
        return chosen


def make_strategy(name: str, alpha: float = 0.5) -> DistributionStrategy:
    """Factory accepting the names used throughout the benchmarks.

    ``"random"``, ``"roulette"``, ``"workload-aware"`` (uses ``alpha``),
    and the paper's shorthands ``"WA,0"``, ``"WA,0.5"``, ``"WA,1"``.
    """
    lowered = name.lower()
    if lowered == "random":
        return RandomStrategy()
    if lowered == "roulette":
        return RouletteStrategy()
    if lowered in ("workload-aware", "wa"):
        return WorkloadAwareStrategy(alpha)
    if lowered.startswith("wa,"):
        return WorkloadAwareStrategy(float(lowered.split(",", 1)[1]))
    raise DistributionError(f"unknown distribution strategy {name!r}")
