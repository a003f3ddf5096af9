"""The one declaration of every execution knob: :class:`ExecutionConfig`.

The paper's PSgL has four user-visible parameters (distribution strategy,
initial pattern vertex, worker count, edge index); those stay arguments
of :class:`~repro.core.listing.PSgL`.  Everything else a caller can
choose — backend, lanes, data plane, budgets — is
*result-neutral* by the bit-parity contract and is declared here, once:
one field per knob, one ``__post_init__`` with every legality rule, one
strict name check for keyword overrides and argparse/JSON mappings
(:meth:`ExecutionConfig.with_overrides`,
:meth:`ExecutionConfig.from_mapping`).  ``BSPEngine``, ``PSgL``, ``psgl
count`` and the query service read this class instead of keeping
copies, and no field is ever part of a result-cache key.

Bottom of the stack: imports nothing from ``repro.core``,
``repro.runtime`` or numpy.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Any, Mapping, Optional, Tuple

from ..exceptions import EngineError

#: Data planes (see repro.bsp.message): only ``"columnar"``, packed
#: self-addressed chunks.  The field stays so callers that name the
#: plane keep working; the paper-faithful scalar path is not a plane but
#: the parity oracle, :mod:`repro.core.reference`.
WIRE_PLANES = ("columnar",)

#: Execution backends: inline on the driver, or forked process lanes.
BACKENDS = ("serial", "process")

#: Knobs that used to be legal, with where their job went: the refusal
#: says so instead of leaving the caller to guess.  A ``(field, value)``
#: key retires one value of a live field, a bare name a whole field.
_ONE_CHUNK = "a barrier ships each outbox whole, as one chunk"
_ONE_POOL = "process lanes are the one pool"
RETIRED = {
    ("wire", "object"): (
        " (the object plane is gone: wire='columnar' is the one plane, "
        "and the paper-faithful scalar path is the parity oracle "
        "repro.core.run_reference)"
    ),
    "shuffle": f" (the pipelined shuffle is retired: {_ONE_CHUNK})",
    "chunk_gpsis": f" (chunk watermarks are retired: {_ONE_CHUNK})",
    "chunk_bytes": f" (chunk watermarks are retired: {_ONE_CHUNK})",
    "kernel": (
        " (the native tier is retired: expansion and probes run on numpy, "
        "the one path)"
    ),
    ("backend", "thread"): (
        f" (the thread backend is retired: {_ONE_POOL}; use "
        "backend='process')"
    ),
    "steal": (
        f" (work stealing is retired: {_ONE_POOL}, and each superstep's "
        "units are dealt to them whole)"
    ),
    "steal_tasks": f" (steal tasks are retired with work stealing: {_ONE_POOL})",
    **dict.fromkeys(
        ("spill_dir", "memory_watermark_bytes"),
        " (the spill plane is retired: the barrier store is no longer where "
        "a job's memory goes; memory_budget / worker_memory_budget cap live "
        "Gpsis)",
    ),
}


def coerce(name: str, kind: type, value: Any) -> Any:
    """``value`` as ``kind``, or :class:`~repro.exceptions.EngineError` —
    never a guess: a bool must be a bool (``"false"`` is not ``False``),
    an int integral (``2.0`` is ``2``; ``2.7``, ``"2"`` are refused), a
    float a real number, a str a str."""
    if kind is bool or isinstance(value, bool):
        ok = kind is bool and isinstance(value, bool)
    elif kind is int:
        ok = isinstance(value, Integral) or (
            isinstance(value, float) and value.is_integer()
        )
    else:
        ok = isinstance(value, Real if kind is float else kind)
    if not ok:
        raise EngineError(f"{name} must be {kind.__name__}, got {value!r}")
    return kind(value)


def _knob(
    default: Any,
    kind: type,
    help: str,  # noqa: A002 - argparse's name for it
    choices: Optional[Tuple[str, ...]] = None,
    cli: bool = True,
) -> Any:
    """One knob: its default plus what every surface renders from
    (``kind`` drives coercion and argparse ``type=``; ``cli`` says whether
    ``psgl count`` offers a flag for it)."""
    return field(
        default=default,
        metadata={"kind": kind, "help": help, "choices": choices, "cli": cli},
    )


@dataclass(frozen=True)
class ExecutionConfig:
    """How a listing job executes — never what it computes.

    Construct it directly, derive one with :func:`dataclasses.replace`,
    or pass fields as keyword overrides to ``BSPEngine``/``PSgL``
    (``PSgL(g, backend="process", procs=4)``, through
    :meth:`with_overrides`).  Every path runs the same ``__post_init__``,
    so an illegal value or combination raises
    :class:`~repro.exceptions.EngineError` at construction; so does an
    override or mapping key that is not a field.  ``backend`` also takes
    a pre-built :class:`~repro.runtime.SuperstepExecutor` (single-use),
    the seam a test backend plugs into.  The knob
    table in ``docs/api.md`` is checked against these fields by
    ``tests/test_config_surface.py``.
    """

    backend: Any = _knob(
        "serial", str,
        "execution backend: serial (reference loop) or process "
        "(real parallelism on forked lanes over one read-only graph)",
        choices=BACKENDS,
    )
    procs: Optional[int] = _knob(
        None, int,
        "computing lanes of the process backend (default min(workers, "
        "cpu count), never more than workers); the driver is one lane, so "
        "--procs 1 starts no child; ignored by serial",
    )
    wire: str = _knob(
        "columnar", str,
        "data plane: columnar, the one plane (packed Gpsi buffers, batch "
        "expansion)",
        choices=WIRE_PLANES,
    )
    memory_budget: Optional[int] = _knob(
        None, int,
        "cap on in-flight Gpsis at a superstep barrier; crossing it "
        "raises SimulatedOOMError (the paper's OOM cells)",
        cli=False,
    )
    worker_memory_budget: Optional[int] = _knob(
        None, int,
        "cap on the Gpsis queued for any single worker (the paper's "
        "'OOM on some nodes' mode)",
        cli=False,
    )
    max_supersteps: int = _knob(
        1000, int,
        "safety valve against non-terminating programs: crossing it "
        "raises EngineError",
        cli=False,
    )
    superstep_budget: Optional[int] = _knob(
        None, int,
        "per-job superstep budget; crossing it raises BudgetExceededError "
        "(a clean resource kill, unlike max_supersteps)",
        cli=False,
    )
    wall_budget_seconds: Optional[float] = _knob(
        None, float,
        "per-job wall-clock budget, checked at every superstep boundary; "
        "crossing it raises BudgetExceededError",
        cli=False,
    )

    def __post_init__(self) -> None:
        # Frozen: resolved values go in through object.__setattr__.
        put = lambda name, value: object.__setattr__(self, name, value)  # noqa: E731
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if value is None and spec.default is None:
                continue  # an optional knob left unset
            if spec.name == "backend" and hasattr(value, "run_superstep"):
                continue  # a pre-built executor: the engine runs it as is
            kind, choices = spec.metadata["kind"], spec.metadata["choices"]
            value = coerce(spec.name, kind, value)
            retired = RETIRED.get((spec.name, value))
            if retired is not None or (choices is not None and value not in choices):
                available = f"; available: {list(choices)}" if choices else ""
                raise EngineError(
                    f"unknown {spec.name} {value!r}{available}{retired or ''}"
                )
            if kind is int and value < 1:
                raise EngineError(f"{spec.name} must be >= 1, got {value}")
            if kind is float and not (math.isfinite(value) and value > 0):
                raise EngineError(
                    f"{spec.name} must be a finite number > 0, got {value}"
                )
            put(spec.name, value)

    @classmethod
    def from_mapping(cls, values: Mapping[str, Any]) -> "ExecutionConfig":
        """Build from argparse/JSON values: unknown keys are refused,
        every value is coerced strictly (see :func:`coerce`)."""
        _check_names(values)
        return cls(**values)

    def with_overrides(self, **overrides: Any) -> "ExecutionConfig":
        """This config with ``overrides`` applied by field name — how
        ``BSPEngine`` and ``PSgL`` take knobs as keywords."""
        _check_names(overrides)
        return dataclasses.replace(self, **overrides)


def _check_names(names: Any) -> None:
    """Refuse any name that is not an :class:`ExecutionConfig` field
    with :class:`~repro.exceptions.EngineError`, naming where a retired
    field's job went (the direct constructor keeps Python's
    ``TypeError``)."""
    known = [spec.name for spec in dataclasses.fields(ExecutionConfig)]
    for name in names:
        if name not in known:
            raise EngineError(
                f"unknown {name}: not an execution field"
                + RETIRED.get(name, f"; known: {known}")
            )
