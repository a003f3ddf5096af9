"""Zero-copy shared data graph for multi-process execution.

The paper replicates the data graph on every Giraph worker; shared-memory
subgraph enumerators (Kimmig et al.) instead keep **one** read-only copy
that every worker scans.  This module gives the process backend the same
property on a single machine: the driver copies the
:class:`~repro.graph.graph.Graph`'s CSR ``indptr``/``indices`` arrays once
into two ``multiprocessing.shared_memory`` blocks and ships only the block
*names* to worker processes.  Each worker wraps the blocks as read-only
numpy arrays and hands them to :meth:`Graph.from_csr` — attaching is two
array objects plus the O(num_vertices) ``degrees`` array, never a copy or
a pickle of the edge data.

Layout
------
Block ``<name>`` holds ``indptr``: ``(n + 1)`` little-endian ``int64``;
block ``<name>`` holds ``indices``: ``m2`` ``int64`` (``m2 = 2|E|``), the
concatenated sorted neighbour lists.  An optional third block carries the
program's *auxiliary* per-vertex arrays (``VertexProgram.export_shared``)
— e.g. the degree-order rank/nb/ns arrays the vectorised expansion hot
path reads — concatenated as ``int64`` in ``aux_specs`` order, so workers
probe the same precomputed arrays the driver built instead of pickling a
private copy each.  A :class:`SharedGraphHandle` carries the block names
plus the lengths, and is what crosses the process boundary (a few dozen
bytes).

File-backed graphs
------------------
A graph loaded through :func:`repro.graph.binfmt.load_mapped` already
*is* two contiguous on-disk arrays (``Graph.mmap_spec``).  Exporting
such a graph skips the ``/dev/shm`` copy entirely: the handle carries
the ``.csrbin`` path plus the two array offsets, and each worker maps
the same file read-only — the page cache, not anonymous shared memory,
is the single machine-wide copy, so an out-of-core graph never has to
fit in RAM to run on the process backend.  Auxiliary arrays still ride
a (small, O(n)) shm block either way.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from multiprocessing import shared_memory
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import GraphError
from ..graph.graph import Graph


@dataclass(frozen=True)
class SharedGraphHandle:
    """Picklable pointer to an exported shared graph.

    Exactly one of two transports is active: shm block names
    (``indptr_name``/``indices_name``) for in-memory graphs, or a
    ``.csrbin`` file path plus array offsets (``mmap_path``/...) for
    file-backed graphs.
    """

    indptr_name: Optional[str]
    indices_name: Optional[str]
    num_vertices: int
    num_indices: int
    aux_name: Optional[str] = None
    #: (array name, length) per auxiliary int64 array, in layout order.
    aux_specs: Tuple[Tuple[str, int], ...] = field(default=())
    #: File-backed transport: the ``.csrbin`` path workers re-map.
    mmap_path: Optional[str] = None
    mmap_indptr_offset: int = 0
    mmap_indices_offset: int = 0


class SharedGraphExport:
    """Driver-side owner of the shared CSR blocks.

    The driver creates one export per job, hands ``handle`` to every
    worker process, and calls :meth:`close` (which also unlinks) when the
    job finishes.  The export owns the blocks: workers only attach.
    """

    def __init__(self, graph: Graph, aux: Optional[Dict[str, np.ndarray]] = None):
        spec = graph.mmap_spec
        self._shm_indptr: Optional[shared_memory.SharedMemory] = None
        self._shm_indices: Optional[shared_memory.SharedMemory] = None
        self._mapped_bytes = 0
        indptr, indices = graph.to_csr()
        if spec is not None:
            # File-backed graph: ship the path, not the bytes.  Workers
            # re-map the .csrbin read-only; the page cache is the shared
            # copy.
            self._mapped_bytes = indptr.nbytes + indices.nbytes
        else:
            self._shm_indptr = shared_memory.SharedMemory(
                create=True, size=max(indptr.nbytes, 1)
            )
            self._shm_indices = shared_memory.SharedMemory(
                create=True, size=max(indices.nbytes, 1)
            )
            # Fill each block through a writeable view of its own; workers
            # (and Graph.from_csr) only ever see read-only ones.
            for shm, array in (
                (self._shm_indptr, indptr), (self._shm_indices, indices)
            ):
                np.ndarray(array.shape, dtype=np.int64, buffer=shm.buf)[:] = array
        self._shm_aux: Optional[shared_memory.SharedMemory] = None
        aux_name = None
        aux_specs: Tuple[Tuple[str, int], ...] = ()
        if aux:
            arrays = {
                name: np.ascontiguousarray(arr, dtype=np.int64)
                for name, arr in aux.items()
            }
            total = sum(len(arr) for arr in arrays.values())
            self._shm_aux = shared_memory.SharedMemory(
                create=True, size=max(total * 8, 1)
            )
            flat = np.ndarray((total,), dtype=np.int64, buffer=self._shm_aux.buf)
            offset = 0
            for name, arr in arrays.items():
                flat[offset:offset + len(arr)] = arr
                offset += len(arr)
            aux_name = self._shm_aux.name
            aux_specs = tuple((name, len(arr)) for name, arr in arrays.items())
        self.handle = SharedGraphHandle(
            indptr_name=(
                self._shm_indptr.name if self._shm_indptr is not None else None
            ),
            indices_name=(
                self._shm_indices.name if self._shm_indices is not None else None
            ),
            num_vertices=graph.num_vertices,
            num_indices=len(indices),
            aux_name=aux_name,
            aux_specs=aux_specs,
            mmap_path=spec.path if spec is not None else None,
            mmap_indptr_offset=spec.indptr_offset if spec is not None else 0,
            mmap_indices_offset=spec.indices_offset if spec is not None else 0,
        )
        self._closed = False

    def nbytes(self) -> int:
        """Total shared bytes (the one copy all workers scan).

        For a file-backed graph this is the mapped CSR size — shared via
        the page cache rather than ``/dev/shm``, but still the single
        machine-wide footprint the trace reports.
        """
        total = self._mapped_bytes
        if self._shm_indptr is not None:
            total += self._shm_indptr.size
        if self._shm_indices is not None:
            total += self._shm_indices.size
        if self._shm_aux is not None:
            total += self._shm_aux.size
        return total

    def block_sizes(self) -> Dict[str, int]:
        """Per-block byte sizes (the trace's ``export`` event payload)."""
        if self._shm_indptr is not None and self._shm_indices is not None:
            sizes = {
                "indptr": self._shm_indptr.size,
                "indices": self._shm_indices.size,
            }
        else:
            sizes = {"mapped_file": self._mapped_bytes}
        if self._shm_aux is not None:
            sizes["aux"] = self._shm_aux.size
        return sizes

    def close(self) -> None:
        """Release and unlink all blocks (idempotent)."""
        if self._closed:
            return
        self._closed = True
        blocks = [
            shm
            for shm in (self._shm_indptr, self._shm_indices, self._shm_aux)
            if shm is not None
        ]
        for shm in blocks:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:
                pass

    def __enter__(self) -> "SharedGraphExport":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class AttachedSharedGraph:
    """Worker-side view: a :class:`Graph` backed by the shared blocks.

    Keeps the ``SharedMemory`` objects referenced so the mapping outlives
    the numpy views; call :meth:`close` (never ``unlink``) when done.
    """

    def __init__(self, handle: SharedGraphHandle):
        self._blocks: List[shared_memory.SharedMemory] = []
        self._mmap = None
        if handle.mmap_path is not None:
            if not Path(handle.mmap_path).is_file():
                raise GraphError(
                    f"shared graph file {handle.mmap_path!r} does not exist "
                    "(moved or deleted since export?)"
                )
            self._mmap = np.memmap(handle.mmap_path, dtype=np.uint8, mode="r")
            indptr = np.frombuffer(
                self._mmap,
                dtype="<i8",
                count=handle.num_vertices + 1,
                offset=handle.mmap_indptr_offset,
            )
            indices = np.frombuffer(
                self._mmap,
                dtype="<i8",
                count=handle.num_indices,
                offset=handle.mmap_indices_offset,
            )
        else:
            shm_indptr = _attach_untracked(handle.indptr_name)
            shm_indices = _attach_untracked(handle.indices_name)
            self._blocks = [shm_indptr, shm_indices]
            indptr = np.ndarray(
                (handle.num_vertices + 1,), dtype=np.int64, buffer=shm_indptr.buf
            )
            indices = np.ndarray(
                (handle.num_indices,), dtype=np.int64, buffer=shm_indices.buf
            )
        self.graph = Graph.from_csr(indptr, indices)
        self.aux: Dict[str, np.ndarray] = {}
        if handle.aux_name is not None:
            shm_aux = _attach_untracked(handle.aux_name)
            self._blocks.append(shm_aux)
            total = sum(length for _, length in handle.aux_specs)
            flat = np.ndarray((total,), dtype=np.int64, buffer=shm_aux.buf)
            offset = 0
            for name, length in handle.aux_specs:
                self.aux[name] = flat[offset:offset + length]
                offset += length

    def close(self) -> None:
        """Drop this process's mapping (the export owns the lifetime)."""
        # The Graph's CSR arrays alias the buffers; drop them first so
        # closing the mapping cannot invalidate live arrays.
        self.graph = None
        self.aux = {}
        for shm in self._blocks:
            try:
                shm.close()
            except Exception:
                pass
        self._blocks = []
        self._mmap = None


def _attach_untracked(name: str) -> shared_memory.SharedMemory:
    """Attach to an existing block without resource-tracker registration.

    Until Python 3.13's ``track=False``, attaching re-registers the
    segment with the resource tracker, so every worker's exit would try
    to unlink a block the *driver* owns (spurious KeyErrors and
    premature unlinks).  Suppressing registration during attach restores
    single-owner semantics; attach runs in the single-threaded pool
    initializer, so the temporary patch cannot race.
    """
    try:
        from multiprocessing import resource_tracker

        original = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            return shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original
    except ImportError:
        return shared_memory.SharedMemory(name=name)


def attach_shared_graph(handle: SharedGraphHandle) -> AttachedSharedGraph:
    """Attach to an exported graph; returns the worker-side view."""
    return AttachedSharedGraph(handle)
