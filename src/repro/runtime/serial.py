"""The serial backend: the original simulator semantics behind the executor API.

Every unit of the superstep schedule runs inline, on the driver thread,
against the driver's own program object and aggregator registry — units
are submitted in worker-id order, so this is exactly what
``BSPEngine._run_superstep`` did before the runtime existed.  Outputs,
ledger contents and message order are bit-for-bit identical to the
legacy engine, so all simulation results remain reproducible.
"""

from __future__ import annotations

from concurrent.futures import Future
from typing import Any, Callable

from .executor import (
    JobSpec,
    SuperstepExecutor,
    WorkerBatch,
    run_inline,
    run_worker_batch,
)


class SerialExecutor(SuperstepExecutor):
    """One process, one thread: the reference implementation.

    No chunk queue is ever set up, so pipelined shuffle degenerates to
    the strict schedule (one thread computes every batch in sequence;
    streaming chunks early could overlap with nothing).  Under
    ``steal=True`` every task runs on the one lane, so nothing is ever
    stolen — the degenerate dynamic schedule, which keeps the
    split/expand/finalize path exercised (and bit-compared) on the
    reference backend.
    """

    inprocess = True
    name = "serial"

    def __init__(self, procs: int = None):  # ``procs`` ignored: always 1
        pass

    def start(self, spec: JobSpec) -> None:
        super().start(spec)
        if spec.tracer.enabled:
            spec.tracer.emit(
                "executor", backend=self.name, inprocess=True, pool=None
            )

    def _submit_batch(
        self, worker_id: int, superstep: int, batch: WorkerBatch, shared: Any
    ) -> Future:
        return run_inline(
            run_worker_batch,
            self._spec,
            self._spec.program,
            worker_id,
            superstep,
            batch,
            self._states[worker_id],
            # The live registry (aggregator reads see this very
            # superstep), and no delta: state lands on the driver's
            # program as compute mutates it.
            shared,
            collect_delta=False,
        )

    def _submit_task(self, expand: Callable[[Any, Any], Any], task: Any) -> Future:
        return run_inline(expand, self._spec.program, task)
