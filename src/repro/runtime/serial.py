"""The serial backend: the original simulator loop behind the new API.

Runs every logical worker's batch in the driver process against the
driver's own program object and aggregator registry, in worker-id order —
exactly what ``BSPEngine._run_superstep`` did before the runtime existed.
Outputs, ledger contents and message order are bit-for-bit identical to
the legacy engine, so all simulation results remain reproducible.
"""

from __future__ import annotations

from typing import Any, List

from ..bsp.message import PackedWorkerBatch
from .executor import (
    JobSpec,
    SuperstepExecutor,
    WorkerBatch,
    WorkerStepResult,
    run_worker_batch,
)


class SerialExecutor(SuperstepExecutor):
    """One process, one thread: the reference implementation."""

    inprocess = True
    name = "serial"

    def __init__(self, procs: int = None):  # ``procs`` ignored: always 1
        self._spec: JobSpec = None

    def start(self, spec: JobSpec) -> None:
        self._spec = spec
        if spec.tracer.enabled:
            spec.tracer.emit(
                "executor", backend=self.name, inprocess=True, pool=None
            )

    def run_superstep(
        self,
        superstep: int,
        batches: List[WorkerBatch],
        registry: Any,
        chunk_sink: Any = None,
    ) -> List[WorkerStepResult]:
        # ``chunk_sink`` (pipelined shuffle) is deliberately ignored: one
        # thread computes every batch in sequence, so streaming chunks
        # early could overlap with nothing.  Workers return whole
        # outboxes as residuals and the chunked barrier store receives
        # them at the merge — strict-mode behaviour, bit for bit.
        spec = self._spec
        if spec.config.steal and any(
            isinstance(batch, PackedWorkerBatch) for batch in batches
        ):
            # One lane, so every owner is "home" and nothing is ever
            # stolen — the degenerate dynamic schedule.  Running it
            # anyway keeps the split/expand/finalize path exercised
            # (and bit-compared) on the reference backend.
            from .stealing import (
                expand_steal_task,
                finalize_owner,
                run_stolen_superstep,
            )

            results, steals, _ = run_stolen_superstep(
                spec,
                superstep,
                batches,
                expand=lambda task: expand_steal_task(spec.program, task),
                finalize=lambda owner, task_results: finalize_owner(
                    spec.program,
                    spec,
                    owner,
                    superstep,
                    task_results,
                    spec.worker_states[owner],
                    registry,
                    collect_delta=False,
                ),
            )
            self.steals_total += steals
            return results
        results = []
        for worker_id, batch in enumerate(batches):
            if not batch:
                continue
            results.append(
                run_worker_batch(
                    program=spec.program,
                    graph=spec.graph,
                    partition=spec.partition,
                    num_workers=spec.num_workers,
                    worker_id=worker_id,
                    superstep=superstep,
                    batch=batch,
                    worker_state=spec.worker_states[worker_id],
                    aggregators=registry,
                    collect_delta=False,
                    wire=spec.wire,
                )
            )
        return results

    def close(self) -> None:
        self._spec = None
