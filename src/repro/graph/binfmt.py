"""On-disk binary CSR graph format (``.csrbin``) and mmap loading.

The paper runs PSgL on real SNAP releases with millions of edges;
re-parsing the text edge list into memory on every run caps the
reproduction at toy scale.  This module is the out-of-core plane's graph
half:

* :func:`write_csrbin` / :func:`convert_edge_list` produce a flat binary
  file holding the same CSR ``indptr``/``indices`` arrays
  :meth:`~repro.graph.graph.Graph.to_csr` exports — the converter
  streams a SNAP-style text edge list in fixed-size chunks and stages
  everything through ``numpy`` temp files, so no Python object per edge
  ever exists and peak memory stays O(|V| + chunk), not O(|E|);
* :func:`load_mapped` returns a :class:`~repro.graph.graph.Graph` whose
  CSR arrays are read-only ``np.memmap`` views into the file.  The OS
  pages neighbour lists in on demand, and
  :class:`~repro.runtime.shared_graph.SharedGraphExport` recognises the
  mapping and hands worker processes the *file* instead of copying the
  arrays into ``/dev/shm`` (see ``docs/scale.md``).

File layout (all little-endian, arrays 8-byte aligned)
------------------------------------------------------
::

    offset  size  field
    0       8     magic  b"PSGLCSR\\0"
    8       2     format version (uint16, currently 1)
    10      6     reserved (zero)
    16      8     num_vertices n      (int64)
    24      8     num_indices  m2     (int64, = 2|E|)
    32      16    blake2b-128 of (indptr bytes || indices bytes)
    48      16    reserved (zero)
    64      ...   indptr   int64 x (n+1)
    ...     ...   indices  int64 x m2

Every malformed input — truncated file, bad magic, unknown version,
checksum mismatch, inconsistent ``indptr`` — raises
:class:`~repro.exceptions.GraphFormatError`; numpy shape errors never
escape this module.
"""

from __future__ import annotations

import errno
import hashlib
import os
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from ..exceptions import GraphError, GraphFormatError
from .graph import Graph, MappedCSR
from . import io as graph_io

PathLike = Union[str, Path]

MAGIC = b"PSGLCSR\x00"
VERSION = 1
HEADER_SIZE = 64
_CHECKSUM_OFFSET = 32

#: Bytes hashed/copied per step when streaming a file (checksums, temp
#: staging).  4 MiB keeps syscall overhead negligible without holding
#: more than one chunk resident.
STREAM_CHUNK_BYTES = 4 << 20


@dataclass(frozen=True)
class CSRBinHeader:
    """Parsed and validated ``.csrbin`` header."""

    num_vertices: int
    num_indices: int
    checksum: bytes

    @property
    def indptr_offset(self) -> int:
        return HEADER_SIZE

    @property
    def indices_offset(self) -> int:
        return HEADER_SIZE + (self.num_vertices + 1) * 8

    @property
    def file_size(self) -> int:
        """Exact byte length a well-formed file must have."""
        return self.indices_offset + self.num_indices * 8


@dataclass(frozen=True)
class ConvertStats:
    """What :func:`convert_edge_list` read and wrote."""

    num_vertices: int
    num_edges: int
    #: Edge lines parsed from the input (before dedup/loop handling).
    raw_edges: int
    duplicates_dropped: int
    self_loops_dropped: int
    #: Bytes of the produced ``.csrbin`` file.
    output_bytes: int


def _pack_header(n: int, m2: int, checksum: bytes) -> bytes:
    header = bytearray(HEADER_SIZE)
    header[0:8] = MAGIC
    header[8:10] = VERSION.to_bytes(2, "little")
    header[16:24] = int(n).to_bytes(8, "little")
    header[24:32] = int(m2).to_bytes(8, "little")
    header[_CHECKSUM_OFFSET:_CHECKSUM_OFFSET + 16] = checksum
    return bytes(header)


def read_header(path: PathLike) -> CSRBinHeader:
    """Parse and validate the fixed header of ``path``.

    Checks magic, version, and that the declared array lengths match the
    file's actual size — a truncated or padded file fails here, before
    any array is mapped.
    """
    path = Path(path)
    try:
        size = path.stat().st_size
        with open(path, "rb") as fh:
            raw = fh.read(HEADER_SIZE)
    except OSError as exc:
        raise GraphFormatError(f"cannot read {path}: {exc}") from exc
    if len(raw) < HEADER_SIZE:
        raise GraphFormatError(
            f"{path}: truncated header ({len(raw)} bytes, need {HEADER_SIZE})"
        )
    if raw[0:8] != MAGIC:
        raise GraphFormatError(
            f"{path}: bad magic {raw[0:8]!r}; not a .csrbin file"
        )
    version = int.from_bytes(raw[8:10], "little")
    if version != VERSION:
        raise GraphFormatError(
            f"{path}: unsupported .csrbin version {version} "
            f"(this build reads version {VERSION})"
        )
    n = int.from_bytes(raw[16:24], "little", signed=True)
    m2 = int.from_bytes(raw[24:32], "little", signed=True)
    if n < 0 or m2 < 0:
        raise GraphFormatError(
            f"{path}: negative array length in header (n={n}, m2={m2})"
        )
    header = CSRBinHeader(
        num_vertices=n,
        num_indices=m2,
        checksum=raw[_CHECKSUM_OFFSET:_CHECKSUM_OFFSET + 16],
    )
    if size != header.file_size:
        raise GraphFormatError(
            f"{path}: file is {size} bytes but the header declares "
            f"{header.file_size} (n={n}, m2={m2}); truncated or corrupt"
        )
    return header


def _checksum_file_arrays(path: Path, header: CSRBinHeader) -> bytes:
    """blake2b-128 of the array region, streamed in bounded chunks."""
    digest = hashlib.blake2b(digest_size=16)
    with open(path, "rb") as fh:
        fh.seek(HEADER_SIZE)
        remaining = header.file_size - HEADER_SIZE
        while remaining:
            chunk = fh.read(min(STREAM_CHUNK_BYTES, remaining))
            if not chunk:
                raise GraphFormatError(
                    f"{path}: file shrank while checksumming"
                )
            digest.update(chunk)
            remaining -= len(chunk)
    return digest.digest()


def write_csrbin(graph: Graph, path: PathLike) -> CSRBinHeader:
    """Write ``graph``'s CSR arrays as a ``.csrbin`` file.

    The arrays go out as held (a :class:`Graph` cannot hold an
    inconsistent ``indptr``), hashed and written through the buffer
    protocol — no byte-string copy of either.
    """
    indptr, indices = (a.astype("<i8", copy=False) for a in graph.to_csr())
    digest = hashlib.blake2b(digest_size=16)
    digest.update(indptr)
    digest.update(indices)
    checksum = digest.digest()
    with open(path, "wb") as fh:
        fh.write(_pack_header(graph.num_vertices, len(indices), checksum))
        fh.write(indptr)
        fh.write(indices)
    return CSRBinHeader(graph.num_vertices, len(indices), checksum)


def load_mapped(path: PathLike, verify_checksum: bool = False) -> Graph:
    """Open a ``.csrbin`` file as a :class:`Graph` over ``np.memmap`` views.

    The returned graph's ``indptr``/``indices`` (and therefore every
    per-vertex adjacency slice) are read-only views into the mapped
    file; nothing is copied, and the OS pages data in on first touch.
    The graph remembers its backing file (``Graph.mmap_spec``), which the
    shared-memory export uses to hand worker processes the file path
    instead of a ``/dev/shm`` copy.

    ``verify_checksum=True`` streams the whole array region through
    blake2b before mapping and raises
    :class:`~repro.exceptions.GraphFormatError` on a mismatch — reading
    every byte defeats lazy mapping, so it is opt-in (the converter
    already verifies what it wrote).
    """
    path = Path(path)
    header = read_header(path)
    if verify_checksum:
        actual = _checksum_file_arrays(path, header)
        if actual != header.checksum:
            raise GraphFormatError(
                f"{path}: checksum mismatch (header "
                f"{header.checksum.hex()}, arrays {actual.hex()}); "
                "the file is corrupt"
            )
    try:
        mm = np.memmap(path, dtype=np.uint8, mode="r")
    except (OSError, ValueError) as exc:
        raise GraphFormatError(f"cannot map {path}: {exc}") from exc
    indptr = np.frombuffer(
        mm, dtype="<i8", count=header.num_vertices + 1,
        offset=header.indptr_offset,
    )
    indices = np.frombuffer(
        mm, dtype="<i8", count=header.num_indices,
        offset=header.indices_offset,
    )
    try:
        graph = Graph.from_csr(indptr, indices)
    except GraphError as exc:
        raise GraphFormatError(f"{path}: {exc}; the file is corrupt") from exc
    graph.mmap_spec = MappedCSR(
        path=str(path),
        indptr_offset=header.indptr_offset,
        indices_offset=header.indices_offset,
        keepalive=mm,
    )
    return graph


# ----------------------------------------------------------------------
# Streaming edge-list -> .csrbin conversion
# ----------------------------------------------------------------------


class _PairStage:
    """Append-only temp file of packed ``(u, v)`` int64 pairs.

    The converter's only O(|E|) state lives here, on disk; readers get
    it back as a ``(N, 2)`` memmap and iterate it in bounded slices.
    """

    def __init__(self, directory: Path):
        fd, name = tempfile.mkstemp(suffix=".pairs", dir=directory)
        self._fh = os.fdopen(fd, "w+b")
        self.path = Path(name)
        self.rows = 0

    def append(self, pairs: np.ndarray) -> None:
        if len(pairs):
            self._fh.write(np.ascontiguousarray(pairs, dtype="<i8").tobytes())
            self.rows += len(pairs)

    def as_memmap(self, mode: str = "r") -> np.ndarray:
        self._fh.flush()
        if self.rows == 0:
            return np.empty((0, 2), dtype=np.int64)
        return np.memmap(
            self.path, dtype="<i8", mode=mode, shape=(self.rows, 2)
        )

    def close(self) -> None:
        try:
            self._fh.close()
        finally:
            try:
                self.path.unlink()
            except OSError:
                pass


def _stage_sorted_keys(
    pairs_mm: np.ndarray,
    num_vertices: int,
    directory: Path,
) -> Tuple[Path, np.ndarray]:
    """Write ``u * n + v`` keys for every staged pair and sort on disk.

    Returns the temp file path and a sorted int64 memmap over it.  The
    in-place ``memmap.sort`` lets the OS page the working set, so the
    sort's resident footprint is bounded even for edge lists that dwarf
    RAM.
    """
    n = max(num_vertices, 1)
    if num_vertices and num_vertices > (1 << 31):
        raise GraphFormatError(
            f"cannot convert: {num_vertices} vertices overflows the "
            "int64 sort key (u * n + v)"
        )
    fd, name = tempfile.mkstemp(suffix=".keys", dir=directory)
    key_path = Path(name)
    with os.fdopen(fd, "wb") as fh:
        for start in range(0, len(pairs_mm), _ROWS_PER_SLICE):
            block = np.asarray(pairs_mm[start:start + _ROWS_PER_SLICE])
            keys = block[:, 0] * n + block[:, 1]
            fh.write(np.ascontiguousarray(keys, dtype="<i8").tobytes())
    if len(pairs_mm) == 0:
        return key_path, np.empty(0, dtype=np.int64)
    keys_mm = np.memmap(key_path, dtype="<i8", mode="r+")
    keys_mm.sort()
    return key_path, keys_mm


#: Pair rows processed per staged slice (~16 MiB of int64 pairs).
_ROWS_PER_SLICE = 1 << 20


def convert_edge_list(
    source: PathLike,
    target: PathLike,
    *,
    dedup: bool = True,
    allow_self_loops: bool = False,
    chunk_bytes: int = graph_io.DEFAULT_CHUNK_BYTES,
    tmp_dir: Optional[PathLike] = None,
) -> ConvertStats:
    """Stream a SNAP-style edge list into a ``.csrbin`` file.

    The pipeline never holds a Python object per edge: text chunks parse
    straight into int64 arrays (:func:`repro.graph.io.iter_edge_chunks`),
    pairs stage through a temp file, id compaction/canonicalisation run
    slice-by-slice over its memmap, and the CSR build sorts composite
    keys in place on disk.  Peak resident memory is O(|V| + chunk).

    ``dedup``/``allow_self_loops`` mirror :func:`repro.graph.io.read_edge_list`:
    by default duplicate undirected edges collapse silently (the paper's
    preprocessing) and self loops are an explicit
    :class:`~repro.exceptions.GraphFormatError`; ``dedup=False`` makes
    duplicates an error too, ``allow_self_loops=True`` drops loops.

    Temp files land next to ``target`` (or in ``tmp_dir``) so staging
    stays on the same filesystem as the output.  An ``OSError`` names a
    path the caller gave: a ``target`` that is a directory is refused
    before staging begins, and a temp file that cannot be created is
    reported against ``tmp_dir`` or, without one, ``target``.
    """
    source = Path(source)
    target = Path(target)
    if target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    directory = Path(tmp_dir) if tmp_dir is not None else target.parent
    try:
        directory.mkdir(parents=True, exist_ok=True)
        stage = _PairStage(directory)
    except OSError as exc:
        staging_for = tmp_dir if tmp_dir is not None else target
        raise OSError(exc.errno, exc.strerror, str(staging_for)) from exc
    key_path: Optional[Path] = None
    raw_edges = 0
    self_loops = 0
    try:
        # ---- pass 1: parse text chunks into the pair stage ----------
        max_id = -1
        for pairs, linenos in graph_io.iter_edge_chunks(
            source, chunk_bytes=chunk_bytes
        ):
            raw_edges += len(pairs)
            if bool(np.any(pairs < 0)):
                bad = int(np.flatnonzero((pairs < 0).any(axis=1))[0])
                raise GraphFormatError(
                    f"negative vertex id in edge "
                    f"({int(pairs[bad, 0])}, {int(pairs[bad, 1])}) "
                    f"at line {int(linenos[bad])}"
                )
            loops = pairs[:, 0] == pairs[:, 1]
            if bool(np.any(loops)):
                if not allow_self_loops:
                    row = int(np.flatnonzero(loops)[0])
                    bad = int(pairs[row, 0])
                    raise GraphFormatError(
                        f"self loop ({bad}, {bad}) at line "
                        f"{int(linenos[row])}; pass allow_self_loops=True to "
                        "drop self loops"
                    )
                self_loops += int(loops.sum())
                pairs = pairs[~loops]
            if len(pairs):
                max_id = max(max_id, int(pairs.max()))
            # Canonicalise (min, max) now so dedup is a plain key sort.
            lo = np.minimum(pairs[:, 0], pairs[:, 1])
            hi = np.maximum(pairs[:, 0], pairs[:, 1])
            stage.append(np.column_stack([lo, hi]))

        # ---- pass 2: compact ids slice-by-slice over the stage ------
        pairs_mm = stage.as_memmap(mode="r+")
        present = np.zeros(max_id + 1, dtype=bool)
        for start in range(0, len(pairs_mm), _ROWS_PER_SLICE):
            block = np.asarray(pairs_mm[start:start + _ROWS_PER_SLICE])
            present[block.ravel()] = True
        original_ids = np.flatnonzero(present)
        num_vertices = len(original_ids)
        dense_of = np.empty(max_id + 1, dtype=np.int64)
        dense_of[original_ids] = np.arange(num_vertices, dtype=np.int64)
        for start in range(0, len(pairs_mm), _ROWS_PER_SLICE):
            block = np.asarray(pairs_mm[start:start + _ROWS_PER_SLICE])
            pairs_mm[start:start + _ROWS_PER_SLICE] = dense_of[block]

        # ---- pass 3: sort undirected keys, dedup, emit CSR ----------
        key_path, keys = _stage_sorted_keys(pairs_mm, num_vertices, directory)
        n = max(num_vertices, 1)
        duplicates = 0
        degrees = np.zeros(num_vertices, dtype=np.int64)
        unique_edges = 0
        for start in range(0, len(keys), _ROWS_PER_SLICE):
            block = np.asarray(keys[start:start + _ROWS_PER_SLICE])
            # A key equal to its predecessor (within or across slices)
            # is a duplicate undirected edge.
            prev = keys[start - 1] if start else None
            fresh = np.ones(len(block), dtype=bool)
            fresh[1:] = block[1:] != block[:-1]
            if prev is not None and len(block):
                fresh[0] = block[0] != prev
            dupes_here = int(len(block) - fresh.sum())
            if dupes_here and not dedup:
                bad = int(block[int(np.flatnonzero(~fresh)[0])])
                raise GraphFormatError(
                    f"duplicate edge ({int(original_ids[bad // n])}, "
                    f"{int(original_ids[bad % n])}); "
                    "pass dedup=True to collapse duplicates"
                )
            duplicates += dupes_here
            uniq = block[fresh]
            unique_edges += len(uniq)
            degrees += np.bincount(uniq // n, minlength=num_vertices)
            degrees += np.bincount(uniq % n, minlength=num_vertices)

        indptr = np.zeros(num_vertices + 1, dtype=np.int64)
        np.cumsum(degrees, out=indptr[1:])

        # Directed keys (src * n + dst), both directions of each unique
        # edge, sorted in place: the sorted remainders ARE the CSR
        # indices and the quotients group into indptr runs.
        fd, name = tempfile.mkstemp(suffix=".dkeys", dir=directory)
        dkey_path = Path(name)
        try:
            with os.fdopen(fd, "wb") as fh:
                for start in range(0, len(keys), _ROWS_PER_SLICE):
                    block = np.asarray(keys[start:start + _ROWS_PER_SLICE])
                    prev = keys[start - 1] if start else None
                    fresh = np.ones(len(block), dtype=bool)
                    fresh[1:] = block[1:] != block[:-1]
                    if prev is not None and len(block):
                        fresh[0] = block[0] != prev
                    uniq = block[fresh]
                    u, v = uniq // n, uniq % n
                    both = np.concatenate([uniq, v * n + u])
                    fh.write(np.ascontiguousarray(both, dtype="<i8").tobytes())
            if unique_edges:
                dkeys = np.memmap(dkey_path, dtype="<i8", mode="r+")
                dkeys.sort()
            else:
                dkeys = np.empty(0, dtype=np.int64)

            # ---- pass 4: stream the .csrbin out, checksumming -------
            digest = hashlib.blake2b(digest_size=16)
            indptr_le = np.ascontiguousarray(indptr, dtype="<i8")
            digest.update(indptr_le.tobytes())
            with open(target, "wb") as fh:
                fh.write(bytes(HEADER_SIZE))  # placeholder header
                fh.write(indptr_le.tobytes())
                for start in range(0, len(dkeys), _ROWS_PER_SLICE):
                    block = np.asarray(dkeys[start:start + _ROWS_PER_SLICE])
                    chunk = np.ascontiguousarray(
                        block % n, dtype="<i8"
                    ).tobytes()
                    digest.update(chunk)
                    fh.write(chunk)
                fh.seek(0)
                fh.write(
                    _pack_header(num_vertices, len(dkeys), digest.digest())
                )
        finally:
            try:
                dkey_path.unlink()
            except OSError:
                pass
    finally:
        stage.close()
        if key_path is not None:
            try:
                key_path.unlink()
            except OSError:
                pass
    # Paranoia: re-validate what we wrote before declaring success.
    header = read_header(target)
    return ConvertStats(
        num_vertices=num_vertices,
        num_edges=unique_edges,
        raw_edges=raw_edges,
        duplicates_dropped=duplicates,
        self_loops_dropped=self_loops,
        output_bytes=header.file_size,
    )
