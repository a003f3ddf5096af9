"""The serial backend: every unit inline, on the driver thread.

Units run in worker-id order against the driver's own program object,
which serves as every logical worker's replica: the batch reads the
barrier snapshot and hands its tallies back as a state delta, exactly as
on the process backend's lanes.
"""

from __future__ import annotations

from typing import Any, Callable

from .executor import Completed, JobSpec, SuperstepExecutor, run_inline


class SerialExecutor(SuperstepExecutor):
    """One process, one lane: the driver's program is every replica."""

    name = "serial"

    def __init__(self, procs: int = None):  # ``procs`` ignored: always 1
        pass

    def start(self, spec: JobSpec) -> None:
        super().start(spec)
        if spec.tracer.enabled:
            spec.tracer.emit("executor", backend=self.name, pool=None)

    def _submit(self, owner: int, unit: Callable[..., Any], *args: Any) -> Completed:
        return run_inline(unit, self._spec, self._spec.program, *args)
