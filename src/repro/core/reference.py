"""The paper-faithful reference: PSgL as a single-process superstep loop.

This is the parity oracle of the production engine (``PSgL.run``: the
BSP engine driving :class:`~repro.core.listing.PSgLProgram` over packed
columns).  It states the same job in the paper's own terms — one
:class:`~repro.core.psi.Gpsi` object per partial instance, Algorithm 1
one Gpsi at a time (:func:`~repro.core.expansion.expand_gpsi`),
Algorithm 3 one child at a time (the scalar
:meth:`~repro.core.distribution.DistributionStrategy.choose`) — and
shares nothing with the engine but what the driver prepares
(:meth:`~repro.core.listing.PSgL.prepare`: the broken pattern, the
initial vertex, the edge index) and the cost ledger it fills.

Supersteps follow §4.2 and Pregel:

* **superstep 0**, the initialization phase: every data vertex costs one
  unit, and each one whose degree admits the initial pattern vertex
  (pruning rule 1) sends the one-pair Gpsi to itself;
* **superstep i > 0**: per worker in worker-id order, per active vertex
  in first-send order, every delivered Gpsi is expanded; complete
  children are counted, pending ones are routed with that worker's own
  strategy state (RNG stream, local load view) to the worker owning the
  data image of the chosen GRAY vertex;
* the job **halts** after a superstep that sends nothing.

Workers run one after another, and a superstep's sends land in one
dict keyed by destination — the order a Pregel barrier delivers them
in.  Every figure the engine's ledger records (per-worker cost, sends
and active vertices per superstep, the Gpsis live at each barrier) is
recorded here in the same order, so ``run_reference(driver, p)`` and
``driver.run(p)`` must agree observable for observable, on any input.
"""

from __future__ import annotations

from collections import Counter
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from ..bsp.metrics import CostLedger
from ..pattern.pattern import PatternGraph
from .expansion import expand_gpsi
from .listing import ListingResult, PSgL
from .psi import Gpsi

#: Gpsis addressed to each data vertex, vertices in first-send order.
Mailbox = Dict[int, List[Gpsi]]


class _Job:
    """One reference run's state: the driver's inputs plus every tally
    :class:`~repro.core.listing.ListingResult` reports."""

    def __init__(
        self,
        driver: PSgL,
        pattern: PatternGraph,
        initial_vertex: int,
        index,
        collect_instances: bool,
        count_per_vertex: bool,
    ):
        self.driver = driver
        self.pattern = pattern
        self.initial_vertex = initial_vertex
        self.index = index
        self.collect_instances = collect_instances
        self.count_per_vertex = count_per_vertex
        self.found = 0
        self.instances: List[Tuple[int, ...]] = []
        self.per_vertex: Counter = Counter()
        self.gpsi_by_vertex: Dict[int, int] = {}

    def generated(self, vp: int, n: int) -> None:
        self.gpsi_by_vertex[vp] = self.gpsi_by_vertex.get(vp, 0) + n

    def initialize(self, vd: int, send) -> float:
        """The initialization phase on data vertex ``vd``; returns its cost."""
        v0 = self.initial_vertex
        if self.driver.graph.degree(vd) >= self.pattern.degree(v0):
            self.generated(v0, 1)
            send(vd, Gpsi.initial(self.pattern, v0, vd))
        return 1.0

    def expand(self, gpsi: Gpsi, state: dict, send) -> float:
        """Algorithm 1 on one Gpsi, Algorithm 3 on each pending child;
        returns the expansion's cost."""
        driver, pattern = self.driver, self.pattern
        outcome = expand_gpsi(gpsi, pattern, driver.ordered, self.index)
        if outcome.generated:
            self.generated(gpsi.next_vertex, outcome.generated)
        self.found += len(outcome.complete)
        if self.collect_instances:
            self.instances.extend(outcome.complete)
        if self.count_per_vertex:
            for mapping in outcome.complete:
                self.per_vertex.update(mapping)
        for child in outcome.pending:
            chosen = driver.strategy.choose(
                child,
                child.useful_grays(pattern),
                pattern,
                driver.graph,
                driver.partition,
                state,
            )
            send(child.mapping[chosen], child.with_next(chosen))
        return outcome.cost


def run_reference(
    driver: PSgL,
    pattern: PatternGraph,
    initial_vertex: Optional[int] = None,
    collect_instances: bool = False,
    count_per_vertex: bool = False,
) -> ListingResult:
    """List ``pattern`` on ``driver``'s inputs the paper's way.

    Takes :meth:`PSgL.run`'s arguments and returns what it returns.
    ``driver`` supplies the graph, partition, strategy and seed
    and prepares the pattern and index exactly as its own ``run`` does;
    of its execution config only the two memory budgets apply (the
    ledger enforces them) — the rest says how the engine runs, and
    nothing here runs on the engine.
    """
    started = perf_counter()
    pattern, initial_vertex, index = driver.prepare(pattern, initial_vertex)
    job = _Job(
        driver, pattern, initial_vertex, index, collect_instances, count_per_vertex
    )
    partition = driver.partition
    num_workers = partition.num_workers
    config = driver.config
    ledger = CostLedger(
        num_workers, config.memory_budget, config.worker_memory_budget
    )
    # Each logical worker's private view (Section 6): its routing RNG
    # stream (seeded here, built on its first draw) and, for
    # workload-aware routing, its local load vector.
    states = [
        {"dist_seed": (driver.seed, w)} for w in range(num_workers)
    ]

    # Superstep 0 activates every data vertex, with nothing delivered.
    inbox: Mailbox = {vd: [] for vd in range(driver.graph.num_vertices)}
    superstep = 0
    while True:
        ledger.begin_superstep(superstep)
        active: List[List[int]] = [[] for _ in range(num_workers)]
        for vd in inbox:
            active[partition.owner(vd)].append(vd)
        outbox: Mailbox = {}
        inbound = [0] * num_workers

        def send(dest: int, gpsi: Gpsi) -> None:
            outbox.setdefault(dest, []).append(gpsi)
            inbound[partition.owner(dest)] += 1

        for worker, vertices in enumerate(active):
            sent_before, cost = sum(inbound), 0.0
            for vd in vertices:
                if superstep == 0:
                    cost += job.initialize(vd, send)
                else:
                    for gpsi in inbox[vd]:
                        cost += job.expand(gpsi, states[worker], send)
            ledger.add_cost(worker, cost)
            ledger.add_messages(worker, sum(inbound) - sent_before)
            ledger.add_compute(worker, len(vertices))
        ledger.end_superstep(
            live_messages=sum(inbound), max_worker_live=max(inbound)
        )
        if not outbox:
            break
        inbox = outbox
        superstep += 1

    return ListingResult(
        count=job.found,
        pattern=pattern,
        initial_vertex=initial_vertex,
        strategy=driver.strategy.name,
        ledger=ledger,
        wall_seconds=perf_counter() - started,
        instances=job.instances if collect_instances else None,
        gpsi_by_vertex=job.gpsi_by_vertex,
        index_queries=index.queries,
        index_pruned=index.pruned,
        per_vertex_counts=dict(job.per_vertex) if count_per_vertex else None,
    )
