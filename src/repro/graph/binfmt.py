"""On-disk binary CSR graph format (``.csrbin``) and mmap loading.

The paper runs PSgL on real SNAP releases with millions of edges;
re-parsing the text edge list into memory on every run caps the
reproduction at toy scale.  This module is the out-of-core plane's graph
half:

* :func:`write_csrbin` / :func:`convert_edge_list` produce a flat binary
  file holding the same CSR ``indptr``/``indices`` arrays
  :meth:`~repro.graph.graph.Graph.to_csr` exports — the converter is
  the one edge-list reader (:mod:`repro.graph.io`) followed by
  :func:`write_csrbin`;
* :func:`load_mapped` returns a :class:`~repro.graph.graph.Graph` whose
  CSR arrays are read-only ``np.memmap`` views into the file.  The OS
  pages neighbour lists in on demand, and a forked process lane
  inherits the mapping: every lane reads the one page cache, and
  nothing is copied (see ``docs/scale.md``).

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
import os
from dataclasses import dataclass
from pathlib import Path
from typing import Union

import numpy as np

from ..exceptions import GraphError, GraphFormatError
from .graph import Graph, MappedCSR
from . import io as graph_io

PathLike = Union[str, Path]

MAGIC = b"PSGLCSR\x00"
VERSION = 1
HEADER_SIZE = 64
_CHECKSUM_OFFSET = 32

#: Bytes hashed per step by ``load_mapped(verify_checksum=True)``.  4 MiB
#: keeps syscall overhead negligible without holding more than one chunk
#: resident.
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
    import hashlib  # loads OpenSSL (~5 ms): not on a count's path

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
    import hashlib  # loads OpenSSL (~5 ms): not on a count's path

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
    The graph remembers its backing file (``Graph.mmap_spec``); forked
    process lanes inherit the mapping itself.

    ``verify_checksum=True`` streams the whole array region through
    blake2b before mapping and raises
    :class:`~repro.exceptions.GraphFormatError` on a mismatch — reading
    every byte defeats lazy mapping, so it is opt-in.
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


def convert_edge_list(
    source: PathLike,
    target: PathLike,
    *,
    dedup: bool = True,
    allow_self_loops: bool = False,
    chunk_bytes: int = graph_io.DEFAULT_CHUNK_BYTES,
) -> ConvertStats:
    """Read a SNAP-style edge list and write it as a ``.csrbin`` file.

    The edge list goes through the reader behind
    :func:`repro.graph.io.read_edge_list`, with the same keywords: by
    default duplicate undirected edges collapse silently (the paper's
    preprocessing) and self loops are an explicit
    :class:`~repro.exceptions.GraphFormatError`; ``dedup=False`` makes
    duplicates an error too, ``allow_self_loops=True`` drops loops.  The
    file written is ``write_csrbin`` of that graph, byte for byte.

    ``target`` is checked before the source is read: a directory is
    refused, a missing parent directory is created, and an ``OSError``
    there names ``target``.
    """
    target = Path(target)
    if target.is_dir():
        raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR), str(target))
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(target)) from exc
    graph, _, raw_edges, self_loops = graph_io._read_edges(
        source,
        dedup=dedup,
        allow_self_loops=allow_self_loops,
        chunk_bytes=chunk_bytes,
    )
    write_csrbin(graph, target)
    # Re-validate what was written before declaring success.
    header = read_header(target)
    return ConvertStats(
        num_vertices=graph.num_vertices,
        num_edges=graph.num_edges,
        raw_edges=raw_edges,
        duplicates_dropped=raw_edges - self_loops - graph.num_edges,
        self_loops_dropped=self_loops,
        output_bytes=header.file_size,
    )
