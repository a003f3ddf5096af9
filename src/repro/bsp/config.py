"""The one declaration of every execution knob: :class:`ExecutionConfig`.

The paper's PSgL has four user-visible parameters (distribution strategy,
initial pattern vertex, worker count, edge index); those stay arguments
of :class:`~repro.core.listing.PSgL`.  Everything else a caller can
choose — backend, data plane, shuffle schedule, kernel, stealing, spill,
budgets — is *result-neutral* by the bit-parity contract and is declared
here, once: one field per knob, one ``__post_init__`` with every
legality rule, one strict :meth:`ExecutionConfig.from_mapping` for
argparse/JSON values.  ``BSPEngine``, ``PSgL``, ``psgl count`` and the
query service read this class instead of keeping copies, and no field is
ever part of a result-cache key.

Bottom of the stack: imports nothing from ``repro.core``,
``repro.runtime`` or numpy.  Backend *names* are the one thing it cannot
check (:mod:`repro.runtime.registry` is open to third parties); an
unknown name surfaces when the engine resolves it.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from numbers import Integral, Real
from typing import Any, Mapping, Optional, Tuple

from ..exceptions import EngineError

#: Data planes (see repro.bsp.message): ``"object"`` is the reference
#: plane (per-message payloads, scalar compute — the parity oracle),
#: ``"columnar"`` the production plane (packed chunks, batch compute).
WIRE_PLANES = ("object", "columnar")

#: Shuffle modes of the production plane: ``"strict"`` ships each
#: worker's whole outbox at the barrier as one chunk; ``"pipelined"``
#: streams watermark-sized chunks to the same barrier store while
#: workers are still computing (see docs/runtime.md §5).
SHUFFLE_MODES = ("strict", "pipelined")

#: Expansion kernels (see repro.core.kernels, which resolves them).
KERNEL_CHOICES = ("auto", "numpy", "native")

#: Default pipelined-mode flush watermark (rows per chunk) when the
#: caller sets neither ``chunk_gpsis`` nor ``chunk_bytes``.
DEFAULT_CHUNK_GPSIS = 8192

#: Default work-stealing task granularity (rows per steal task) when
#: ``steal=True`` and the caller sets no ``steal_tasks``.  Small enough
#: that a straggler's batch splits into many stealable slices, large
#: enough that per-task overhead stays negligible against expansion.
DEFAULT_STEAL_TASK_GPSIS = 2048


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
    (``PSgL(g, backend="process", procs=4)``).  Every path runs the same
    ``__post_init__``, so an illegal value or combination raises
    :class:`~repro.exceptions.EngineError` at construction.  Unset
    watermarks resolve to their defaults there, so a config reads back
    what will run.  ``backend`` also takes any name registered with
    :func:`repro.runtime.register_backend` or a pre-built
    :class:`~repro.runtime.SuperstepExecutor` (single-use).  The knob
    table in ``docs/api.md`` is checked against these fields by
    ``tests/test_config_surface.py``.
    """

    backend: Any = _knob(
        "serial", str,
        "execution backend: serial (reference loop), thread, or process "
        "(real parallelism over a shared-memory graph)",
    )
    procs: Optional[int] = _knob(
        None, int,
        "OS processes/threads for parallel backends (default: thread "
        "min(workers, 4), process min(workers, cpu count)); ignored by "
        "serial",
    )
    wire: str = _knob(
        "columnar", str,
        "data plane: columnar (production: packed Gpsi buffers, batch "
        "expansion) or object (reference: per-message objects, scalar "
        "expansion; identical results)",
        choices=WIRE_PLANES,
    )
    shuffle: str = _knob(
        "strict", str,
        "barrier shuffle mode: strict merges whole outboxes at the "
        "barrier; pipelined streams watermark-sized chunks while "
        "workers still expand (identical results)",
        choices=SHUFFLE_MODES,
    )
    chunk_gpsis: Optional[int] = _knob(
        None, int,
        "pipelined shuffle: flush a chunk every N queued Gpsis "
        f"(default {DEFAULT_CHUNK_GPSIS} when neither watermark is set)",
    )
    chunk_bytes: Optional[int] = _knob(
        None, int,
        "pipelined shuffle: flush a chunk every N packed wire bytes",
    )
    kernel: str = _knob(
        "auto", str,
        "expansion/probe kernel: numpy (vectorised reference), native "
        "(numba-jitted fused loops), or auto (native when a numba "
        "runtime is installed, else numpy; identical results)",
        choices=KERNEL_CHOICES,
    )
    steal: bool = _knob(
        False, bool,
        "work-stealing superstep scheduler: idle workers steal packed "
        "batch slices from stragglers; results stay bit-identical to "
        "the static schedule",
    )
    steal_tasks: Optional[int] = _knob(
        None, int,
        "work-stealing task granularity in Gpsi rows (default "
        f"{DEFAULT_STEAL_TASK_GPSIS}; requires steal; a single vertex's "
        "slice is never split)",
    )
    spill_dir: Optional[str] = _knob(
        None, str,
        "out-of-core shuffle: spill sealed columnar chunks here once the "
        "barrier store exceeds the watermark (set together with "
        "memory_watermark_bytes)",
    )
    memory_watermark_bytes: Optional[int] = _knob(
        None, int,
        "resident-bytes watermark for the barrier store before chunks "
        "spill to spill_dir (results stay bit-identical)",
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
                continue  # a pre-built executor: the registry passes it through
            kind, choices = spec.metadata["kind"], spec.metadata["choices"]
            value = coerce(spec.name, kind, value)
            if choices is not None and value not in choices:
                raise EngineError(
                    f"unknown {spec.name} {value!r}; available: {list(choices)}"
                )
            if kind is int and value < 1:
                raise EngineError(f"{spec.name} must be >= 1, got {value}")
            if kind is float and value <= 0:
                raise EngineError(f"{spec.name} must be > 0, got {value}")
            put(spec.name, value)

        self.require_columnar_plane()
        if self.shuffle == "pipelined":
            if self.chunk_gpsis is None and self.chunk_bytes is None:
                put("chunk_gpsis", DEFAULT_CHUNK_GPSIS)
        elif self.chunk_gpsis is not None or self.chunk_bytes is not None:
            raise EngineError(
                "chunk watermarks only apply to shuffle='pipelined'"
            )
        if self.steal:
            if self.shuffle != "strict":
                raise EngineError(
                    "work stealing requires shuffle='strict'; stolen "
                    "tasks buffer their sends for canonical re-merge, "
                    "which the pipelined chunk stream cannot express"
                )
            if self.steal_tasks is None:
                put("steal_tasks", DEFAULT_STEAL_TASK_GPSIS)
        elif self.steal_tasks is not None:
            raise EngineError("steal_tasks only applies to steal=True")
        if (self.spill_dir is None) != (self.memory_watermark_bytes is None):
            raise EngineError(
                "spill_dir and memory_watermark_bytes enable the disk "
                "spill plane together; set both or neither"
            )

    def require_columnar_plane(self, fallback: Optional[str] = None) -> None:
        """The one legality rule between options and data planes.

        Pipelined shuffle, work stealing and the spill plane all operate
        on packed chunks, so they exist on the production plane only.
        Raises :class:`~repro.exceptions.EngineError` when one of them
        is requested for a run on the reference plane — either because
        ``wire="object"`` was asked for (checked at construction), or
        because the run has to fall back (``fallback`` says why: a
        combiner, no columnar compute — only ``BSPEngine.run`` can
        know).  A run that merely *defaults* to the production plane and
        falls back without having asked for any of the three is legal.
        """
        if self.wire == "columnar" and fallback is None:
            return
        why = fallback or "wire='object' was requested"
        for requested, what in (
            (self.shuffle == "pipelined", "shuffle='pipelined' streams packed chunks"),
            (self.steal, "steal=True splits packed batches into tasks"),
            (self.spill_dir is not None, "spill_dir seals packed chunks to disk"),
        ):
            if requested:
                raise EngineError(
                    f"{what} and needs the columnar plane (wire='columnar'), "
                    f"but this run is on the reference plane: {why}"
                )

    @classmethod
    def from_mapping(cls, values: Mapping[str, Any]) -> "ExecutionConfig":
        """Build from argparse/JSON values: unknown keys are refused,
        every value is coerced strictly (see :func:`coerce`)."""
        known = [spec.name for spec in dataclasses.fields(cls)]
        unknown = set(values) - set(known)
        if unknown:
            raise EngineError(
                f"unknown execution fields {sorted(unknown)}; known: {known}"
            )
        return cls(**values)
