"""Disk spill plane for the columnar shuffle.

The in-memory barrier stores hold every sealed chunk of the superstep's
message volume resident until delivery — O(superstep volume) bytes, the
reason ROADMAP item 4 capped the repo at graphs whose shuffles fit in
RAM.  Silvestri's I/O analysis of subgraph enumeration (arXiv:1402.3444)
observes that contiguous buffers spill almost for free, and the columnar
plane's chunks are exactly that: three flat arrays with an existing byte
codec (:func:`repro.core.codec.encode_columns`).

This module supplies the two pieces the stores plug in:

* :class:`SuperstepSpill` — one append-only spill file per superstep.
  ``spill`` seals a chunk to disk (its encoded Gpsi columns, 8-byte
  aligned records; rows are self-addressed, so no destination column is
  written) and returns a :class:`SpillRef`;
  ``load`` re-maps the record as **views** into an ``np.memmap`` —
  delivery reads page in lazily, nothing is eagerly copied back.
* :class:`SpillManager` — owns the spill directory, the
  ``memory_watermark_bytes`` knob, per-run counters, and the tracer
  events (``chunk_spill`` on eviction, ``chunk_map`` on re-map).

Parity
------
Spilling changes *where* a sealed chunk waits for the barrier, never its
bytes or its ``(sender, seq)`` tag: the stores record accounting at
merge time and re-insert mapped chunks under the same tag before the
(sender, seq) finalize sort, so a spilled run delivers bit-identically
to the in-memory plane (pinned by tests on serial and process).

A spill file that disappears mid-run (operator cleanup, tmpfs eviction)
surfaces as a clean :class:`~repro.exceptions.EngineError` naming the
file, never a numpy shape error.
"""

from __future__ import annotations

import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

import numpy as np

from ..exceptions import EngineError


def _codec():
    # Deferred: repro.core builds on repro.bsp, not vice versa; by the
    # time a chunk spills both packages are fully imported.
    from ..core import codec

    return codec


@dataclass(frozen=True)
class SpillRef:
    """Where one sealed chunk lives inside a superstep's spill file."""

    superstep: int
    offset: int
    num_rows: int
    nbytes: int  # encoded columns, without padding


def _pad8(size: int) -> int:
    return (size + 7) & ~7


class SuperstepSpill:
    """Append-only spill file for one superstep's evicted chunks.

    Record layout (8-byte aligned): the chunk's
    :func:`~repro.core.codec.encode_columns` bytes, then zero padding to
    the next 8-byte boundary.  Refs carry the offsets, so the
    file needs no framing of its own.  Writes happen under the owning
    store's merge lock; loads start only at finalize, after the last
    write, so the lazily created read mapping always sees every record.
    """

    def __init__(self, manager: "SpillManager", superstep: int, path: Path):
        self._manager = manager
        self._superstep = superstep
        self.path = path
        self._fh = None
        self._offset = 0
        self._mm: Optional[np.memmap] = None

    def spill(self, sender: int, seq: int, columns: Any) -> SpillRef:
        """Seal one chunk to disk; returns the ref that re-maps it."""
        if self._fh is None:
            self._fh = open(self.path, "wb")
        col_bytes = _codec().encode_columns(columns)
        size = len(col_bytes)
        ref = SpillRef(
            superstep=self._superstep,
            offset=self._offset,
            num_rows=len(columns),
            nbytes=size,
        )
        self._fh.write(col_bytes)
        padded = _pad8(size)
        if padded != size:
            self._fh.write(b"\x00" * (padded - size))
        self._offset += padded
        self._manager.record_spill(sender, seq, ref)
        return ref

    def load(self, sender: int, seq: int, ref: SpillRef) -> Any:
        """Re-map one spilled chunk as read-only views into the file."""
        if self._mm is None:
            if self._fh is not None:
                self._fh.flush()
            try:
                self._mm = np.memmap(self.path, dtype=np.uint8, mode="r")
            except (FileNotFoundError, OSError, ValueError) as exc:
                raise EngineError(
                    f"spill file {self.path} vanished mid-run "
                    f"(superstep {self._superstep}): {exc}"
                ) from exc
        if ref.offset + ref.nbytes > len(self._mm):
            raise EngineError(
                f"spill file {self.path} truncated mid-run: chunk at offset "
                f"{ref.offset} needs {ref.nbytes} bytes, file has "
                f"{len(self._mm)}"
            )
        codec = _codec()
        try:
            columns, _ = codec.map_columns(self._mm, ref.offset)
        except codec.CodecError as exc:
            raise EngineError(
                f"spill file {self.path} corrupted mid-run: {exc}"
            ) from exc
        self._manager.record_map(sender, seq, ref)
        return columns

    def close(self) -> None:
        """Drop the write handle and mapping (idempotent; file stays)."""
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                pass
            self._fh = None
        self._mm = None


class SpillManager:
    """Per-run owner of the spill directory, watermark, and counters.

    Created by the engine when ``spill_dir``/``memory_watermark_bytes``
    are set; one :class:`SuperstepSpill` file exists per superstep and is
    pruned as soon as that superstep's messages have been delivered, so
    peak disk usage is one superstep's spilled volume, not the run's.
    """

    def __init__(
        self,
        directory: Union[str, Path],
        watermark_bytes: int,
        tracer: Any = None,
    ):
        self.watermark_bytes = int(watermark_bytes)
        self._tracer = tracer
        base = Path(directory)
        base.mkdir(parents=True, exist_ok=True)
        # A private subdirectory so close() can remove spill files without
        # touching anything else the caller keeps in spill_dir.
        self.directory = Path(
            tempfile.mkdtemp(prefix="psgl-spill-", dir=str(base))
        )
        self._steps: Dict[int, SuperstepSpill] = {}
        self.chunks_spilled = 0
        self.bytes_spilled = 0
        self.chunks_mapped = 0
        self.bytes_mapped = 0
        self._closed = False

    def for_superstep(self, superstep: int) -> SuperstepSpill:
        """The (lazily created) spill file for one superstep."""
        spill = self._steps.get(superstep)
        if spill is None:
            if self._closed:
                raise EngineError("spill manager used after close")
            spill = SuperstepSpill(
                self, superstep, self.directory / f"superstep-{superstep:05d}.spill"
            )
            self._steps[superstep] = spill
        return spill

    def record_spill(self, sender: int, seq: int, ref: SpillRef) -> None:
        self.chunks_spilled += 1
        self.bytes_spilled += ref.nbytes
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.emit(
                kind="chunk_spill",
                superstep=ref.superstep,
                worker=sender,
                seq=seq,
                bytes=ref.nbytes,
                rows=ref.num_rows,
            )

    def record_map(self, sender: int, seq: int, ref: SpillRef) -> None:
        self.chunks_mapped += 1
        self.bytes_mapped += ref.nbytes
        if self._tracer is not None and self._tracer.enabled:
            self._tracer.emit(
                kind="chunk_map",
                superstep=ref.superstep,
                worker=sender,
                seq=seq,
                bytes=ref.nbytes,
                rows=ref.num_rows,
            )

    def prune(self, before_superstep: int) -> None:
        """Delete spill files of supersteps older than ``before_superstep``
        (their messages were delivered; nothing can re-map them)."""
        for step in [s for s in self._steps if s < before_superstep]:
            spill = self._steps.pop(step)
            spill.close()
            try:
                os.unlink(spill.path)
            except OSError:
                pass

    def close(self) -> None:
        """Delete every spill file and the private directory (idempotent)."""
        if self._closed:
            return
        self._closed = True
        for spill in self._steps.values():
            spill.close()
        self._steps = {}
        shutil.rmtree(self.directory, ignore_errors=True)

    def __enter__(self) -> "SpillManager":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
