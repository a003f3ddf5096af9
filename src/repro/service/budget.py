"""Per-job resource budgets: the SimulatedOOM machinery made real.

The batch engine always had one budget knob — ``memory_budget`` capping
live Gpsis, used to reproduce the paper's OOM table cells.  A resident
multi-tenant server needs the general form: one misbehaving query (a
5-clique on a dense graph, a pattern with no pruning order) must die
cleanly at a declared limit instead of taking the process down.

:class:`ResourceBudget` bundles the four per-job limits the runtime can
enforce and maps them onto the corresponding ``PSgL`` constructor
arguments.  Crossing any limit raises
:class:`~repro.exceptions.BudgetExceededError` (of which the classic
:class:`~repro.exceptions.SimulatedOOMError` is now a subclass) at a
superstep boundary — the engine's teardown and tracing run normally, so
a killed job still has a complete trace and straggler report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Optional

from ..bsp.config import coerce
from ..exceptions import EngineError, QuerySpecError

__all__ = ["ResourceBudget"]


@dataclass(frozen=True)
class ResourceBudget:
    """Declarative limits for one job.

    ``None`` means unlimited for that axis.

    Attributes
    ----------
    max_live_gpsis:
        Cap on total in-flight intermediate results at any barrier
        (maps to ``PSgL(memory_budget=...)``).
    max_worker_live_gpsis:
        Cap on the Gpsis queued for any single worker — the paper's
        "OOM on some nodes" mode (``worker_memory_budget``).
    max_supersteps:
        Cap on expansion supersteps (``superstep_budget``).
    max_wall_seconds:
        Wall-clock cap, checked at superstep boundaries
        (``wall_budget_seconds``).
    """

    max_live_gpsis: Optional[int] = None
    max_worker_live_gpsis: Optional[int] = None
    max_supersteps: Optional[int] = None
    max_wall_seconds: Optional[float] = None

    FIELDS = (
        "max_live_gpsis",
        "max_worker_live_gpsis",
        "max_supersteps",
        "max_wall_seconds",
    )

    @classmethod
    def from_json(cls, obj: Optional[Dict[str, Any]]) -> "ResourceBudget":
        """Validate and build from a request's ``budget`` object."""
        if not obj:
            return cls()
        unknown = set(obj) - set(cls.FIELDS)
        if unknown:
            raise QuerySpecError(
                f"unknown budget fields {sorted(unknown)}; "
                f"allowed: {list(cls.FIELDS)}"
            )
        values: Dict[str, Any] = {}
        for name in cls.FIELDS:
            value = obj.get(name)
            if value is None:
                continue
            kind = float if name == "max_wall_seconds" else int
            try:
                values[name] = coerce(f"budget field {name}", kind, value)
            except EngineError as exc:  # "abc", 2.7 supersteps: no guessing
                raise QuerySpecError(str(exc)) from exc
            if values[name] <= 0:
                raise QuerySpecError(f"budget field {name} must be > 0")
        return cls(**values)

    def merged_over(self, base: "ResourceBudget") -> "ResourceBudget":
        """This budget with unset axes filled from ``base``.

        The service applies its default budget underneath whatever the
        request declares, so "no budget given" still means "the server's
        limits", never "unbounded".
        """
        return ResourceBudget(
            **{
                name: (
                    getattr(self, name)
                    if getattr(self, name) is not None
                    else getattr(base, name)
                )
                for name in self.FIELDS
            }
        )

    def psgl_kwargs(self) -> Dict[str, Any]:
        """The ``ExecutionConfig`` fields enforcing this budget (apply
        with ``dataclasses.replace`` or as ``PSgL`` overrides)."""
        return {
            "memory_budget": self.max_live_gpsis,
            "worker_memory_budget": self.max_worker_live_gpsis,
            "superstep_budget": self.max_supersteps,
            "wall_budget_seconds": self.max_wall_seconds,
        }

    def to_json(self) -> Dict[str, Any]:
        """Only the set axes, for echoing in job payloads."""
        return {
            name: getattr(self, name)
            for name in self.FIELDS
            if getattr(self, name) is not None
        }
