"""Cost accounting for the BSP simulator.

The paper reports wall-clock seconds on a 28-node cluster.  Our substrate
is an in-process simulator, so the primary "runtime" is the **simulated
makespan** computed exactly per Equation 3:

    T = sum over supersteps i of  max over workers k of  L_ki

where ``L_ki`` is the cost (in abstract units) worker ``k`` accumulated in
superstep ``i``.  Algorithms charge units through the worker context as
they do work (edge checks, candidate scans, Gpsi generation), so the
ledger reflects genuine operation counts, not estimates.

The ledger also tracks message volume and the peak number of live
intermediate results, which backs the ``SimulatedOOMError`` budget used to
reproduce the paper's OOM table cells.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from .._record import Record
from ..exceptions import EngineError, SimulatedOOMError


class SuperstepStats(Record):
    """Per-superstep snapshot across all workers.

    ``worker_wire_bytes`` is the exact bytes each worker's packed outbox
    shipped across the barrier (zeros from a driver that moves no packed
    buffers, such as the scalar reference).
    """

    __slots__ = (
        "superstep", "worker_cost", "worker_messages",
        "worker_compute_calls", "worker_wire_bytes",
    )

    def __init__(
        self,
        superstep: int,
        worker_cost: List[float],
        worker_messages: List[int],
        worker_compute_calls: List[int],
        worker_wire_bytes: List[int],
    ) -> None:
        self.superstep = superstep
        self.worker_cost = worker_cost
        self.worker_messages = worker_messages
        self.worker_compute_calls = worker_compute_calls
        self.worker_wire_bytes = worker_wire_bytes

    @property
    def max_cost(self) -> float:
        """Slowest worker's cost — the superstep's contribution to Eq. 3."""
        return max(self.worker_cost) if self.worker_cost else 0.0

    @property
    def total_cost(self) -> float:
        """Sum of all workers' cost in the superstep."""
        return float(sum(self.worker_cost))

    @property
    def total_messages(self) -> int:
        """Messages produced during the superstep."""
        return int(sum(self.worker_messages))


class CostLedger:
    """Accumulates per-(superstep, worker) costs and enforces memory budget.

    Parameters
    ----------
    num_workers:
        Number of logical workers ``K``.
    memory_budget:
        Maximum number of in-flight intermediate results allowed at any
        superstep barrier, summed over all workers; ``None`` disables it.
    worker_memory_budget:
        Maximum in-flight results queued for any *single* worker — the
        paper's "OOM on some nodes" failure mode, triggered by imbalanced
        distribution long before aggregate memory runs out.
    """

    def __init__(
        self,
        num_workers: int,
        memory_budget: Optional[int] = None,
        worker_memory_budget: Optional[int] = None,
    ):
        self.num_workers = num_workers
        self.memory_budget = memory_budget
        self.worker_memory_budget = worker_memory_budget
        self.steps: List[SuperstepStats] = []
        self.peak_live_messages = 0
        self.peak_worker_live = 0
        self._current: Optional[SuperstepStats] = None

    # ------------------------------------------------------------------
    def _require_open(self) -> SuperstepStats:
        """The in-progress superstep row, or a real error.

        This used to be a bare ``assert``, which vanishes under
        ``python -O`` and let mis-sequenced callers silently corrupt the
        ledger; misuse must fail identically under any interpreter flag.
        """
        if self._current is None:
            raise EngineError(
                "no superstep in progress; call begin_superstep first"
            )
        return self._current

    def begin_superstep(self, superstep: int) -> None:
        """Open accounting for a new superstep."""
        if self._current is not None:
            raise EngineError(
                f"superstep {self._current.superstep} still in progress; "
                "call end_superstep before opening another"
            )
        self._current = SuperstepStats(
            superstep=superstep,
            worker_cost=[0.0] * self.num_workers,
            worker_messages=[0] * self.num_workers,
            worker_compute_calls=[0] * self.num_workers,
            worker_wire_bytes=[0] * self.num_workers,
        )

    def end_superstep(
        self, live_messages: int, max_worker_live: int = 0
    ) -> SuperstepStats:
        """Close the superstep.

        ``live_messages`` is the barrier's total queue size;
        ``max_worker_live`` the largest single worker's queue.
        """
        stats = self._require_open()
        self.steps.append(stats)
        self._current = None
        self.peak_live_messages = max(self.peak_live_messages, live_messages)
        self.peak_worker_live = max(self.peak_worker_live, max_worker_live)
        if self.memory_budget is not None and live_messages > self.memory_budget:
            raise SimulatedOOMError(
                live_messages, self.memory_budget, where=f"superstep {stats.superstep}"
            )
        if (
            self.worker_memory_budget is not None
            and max_worker_live > self.worker_memory_budget
        ):
            raise SimulatedOOMError(
                max_worker_live,
                self.worker_memory_budget,
                where=f"one worker at superstep {stats.superstep}",
            )
        return stats

    # ------------------------------------------------------------------
    def add_cost(self, worker: int, units: float) -> None:
        """Charge ``units`` of work to ``worker`` in the current superstep."""
        self._require_open().worker_cost[worker] += units

    def add_messages(self, worker: int, count: int) -> None:
        """Record ``count`` messages produced by ``worker`` (bulk form,
        used when merging a worker's whole superstep at the barrier)."""
        self._require_open().worker_messages[worker] += count

    def add_compute(self, worker: int, count: int) -> None:
        """Record ``count`` vertex-program invocations on ``worker``."""
        self._require_open().worker_compute_calls[worker] += count

    def add_wire_bytes(self, worker: int, nbytes: int) -> None:
        """Record exact barrier bytes shipped by ``worker``'s outbox.

        The engine reports its packed-column sizes here: every routed
        Gpsi is one row of ``8k + 4 * ceil(k / 32) + 1`` bytes for a
        ``k``-vertex pattern.  The scalar reference moves no buffers and
        records none."""
        self._require_open().worker_wire_bytes[worker] += nbytes

    # ------------------------------------------------------------------
    # Derived metrics
    # ------------------------------------------------------------------
    @property
    def num_supersteps(self) -> int:
        """Number of completed supersteps ``S``."""
        return len(self.steps)

    def makespan(self) -> float:
        """Equation 3: sum over supersteps of the slowest worker's cost."""
        return float(sum(s.max_cost for s in self.steps))

    def total_cost(self) -> float:
        """Total work across all workers and supersteps."""
        return float(sum(s.total_cost for s in self.steps))

    def total_messages(self) -> int:
        """Total messages (Gpsis) communicated over the whole run."""
        return int(sum(s.total_messages for s in self.steps))

    def total_wire_bytes(self) -> int:
        """Exact barrier bytes over the whole run (0 when nothing measured
        them; see :meth:`add_wire_bytes`)."""
        return int(sum(sum(s.worker_wire_bytes) for s in self.steps))

    def worker_totals(self) -> List[float]:
        """Per-worker cost summed over all supersteps (Figure 5's bars)."""
        totals = [0.0] * self.num_workers
        for step in self.steps:
            for k, c in enumerate(step.worker_cost):
                totals[k] += c
        return totals

    def imbalance(self) -> float:
        """max/mean worker total cost; 1.0 = perfectly balanced."""
        totals = self.worker_totals()
        mean = sum(totals) / max(len(totals), 1)
        if mean == 0:
            return 1.0
        return max(totals) / mean

    def summary(self) -> Dict[str, float]:
        """Headline numbers as a plain dict (for tables and logs)."""
        return {
            "supersteps": float(self.num_supersteps),
            "makespan": self.makespan(),
            "total_cost": self.total_cost(),
            "messages": float(self.total_messages()),
            "peak_live": float(self.peak_live_messages),
            "imbalance": self.imbalance(),
        }
