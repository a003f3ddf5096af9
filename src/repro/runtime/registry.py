"""Backend registry: name -> superstep-executor factory.

``BSPEngine(..., backend="process", procs=4)`` resolves here.  A backend
is any callable accepting ``procs`` and returning a
:class:`~repro.runtime.executor.SuperstepExecutor`; third parties can
register their own (e.g. an async or NUMA-aware shuffler).  The built-in
backends are ``serial`` and ``process``, and each imports its module
when first made: a serial run never loads the process lanes.
"""

from __future__ import annotations

import importlib
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Union

from ..exceptions import EngineError

if TYPE_CHECKING:
    from .executor import SuperstepExecutor

ExecutorFactory = Callable[..., "SuperstepExecutor"]

_BACKENDS: Dict[str, ExecutorFactory] = {}


def register_backend(name: str, factory: ExecutorFactory) -> None:
    """Register (or replace) a backend under ``name``."""
    _BACKENDS[name] = factory


def available_backends() -> List[str]:
    """Registered backend names, serial first."""
    names = sorted(_BACKENDS)
    names.remove("serial")
    return ["serial"] + names


def make_executor(
    backend: Union[str, SuperstepExecutor, None] = "serial",
    procs: Optional[int] = None,
) -> SuperstepExecutor:
    """Resolve ``backend`` to a ready-to-start executor.

    Accepts a registered name, an executor instance (returned as-is, for
    callers that pre-configured one), or ``None`` (serial).
    """
    from .executor import SuperstepExecutor

    if backend is None:
        backend = "serial"
    if isinstance(backend, SuperstepExecutor):
        return backend
    factory = _BACKENDS.get(backend)
    if factory is None:
        raise EngineError(
            f"unknown backend {backend!r}; available: {available_backends()}"
        )
    executor = factory(procs=procs)
    executor.name = backend
    return executor


def _builtin(module: str, name: str) -> ExecutorFactory:
    """Factory for the executor class ``name`` of ``module``, imported
    on the first call."""

    def factory(**kwargs) -> SuperstepExecutor:
        return getattr(importlib.import_module(module, __package__), name)(**kwargs)

    return factory


register_backend("serial", _builtin(".serial", "SerialExecutor"))
register_backend("process", _builtin(".process", "ProcessExecutor"))
