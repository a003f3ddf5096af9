"""Compact wire encoding for partial subgraph instances.

Section 6: "The messages communicated among workers not only include
Gpsi, but also encode the status information, such as the next expanding
pattern vertex, the colors of pattern vertices and the progress of Gpsi."

The Gpsi dominates PSgL's communication volume, so its wire format
matters.  The codec here packs one Gpsi into:

* one byte for ``|Vp|`` (patterns are tiny),
* one byte for the next expanding vertex (``0xFF`` = unset),
* a varint for the BLACK bitmask,
* one varint per mapping cell (data vertex id + 1, with 0 = unmapped) —
  colors need no separate bytes: WHITE is "unmapped", BLACK comes from
  the mask, GRAY is everything else, exactly the derivation the runtime
  uses.

Varints keep small vertex ids at one byte; a 5-vertex Gpsi over a
million-vertex graph costs ~18 bytes instead of ~48 for naive fixed
64-bit fields.  The simulator keeps Gpsis as objects for speed, but the
codec backs the message-volume accounting (``encoded_size``) and is
round-trip tested so a process-distributed port could adopt it as is.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..exceptions import ReproError
from .psi import (
    Gpsi,
    GpsiColumns,
    PACKED_UNSET_NEXT,
    UNMAPPED,
    _black_words,
    pack_gpsis,
    unpack_gpsis,
)

_UNSET_NEXT = 0xFF


class CodecError(ReproError):
    """A byte string could not be decoded as a Gpsi."""


def _write_varint(value: int, out: bytearray) -> None:
    if value < 0:
        raise CodecError(f"varints are unsigned, got {value}")
    while True:
        byte = value & 0x7F
        value >>= 7
        if value:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return


def _read_varint(data: bytes, pos: int) -> Tuple[int, int]:
    result = 0
    shift = 0
    while True:
        if pos >= len(data):
            raise CodecError("truncated varint")
        byte = data[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            return result, pos
        shift += 7
        if shift > 63:
            raise CodecError("varint too long")


def encode_gpsi(gpsi: Gpsi) -> bytes:
    """Serialise one Gpsi to its compact wire form."""
    k = len(gpsi.mapping)
    if k > 0xFE:
        raise CodecError(f"pattern too large to encode ({k} vertices)")
    out = bytearray()
    out.append(k)
    out.append(_UNSET_NEXT if gpsi.next_vertex < 0 else gpsi.next_vertex)
    _write_varint(gpsi.black, out)
    for vd in gpsi.mapping:
        _write_varint(0 if vd == UNMAPPED else vd + 1, out)
    return bytes(out)


def decode_gpsi(data: bytes) -> Gpsi:
    """Inverse of :func:`encode_gpsi`; validates structure."""
    if len(data) < 2:
        raise CodecError("message shorter than the fixed header")
    k = data[0]
    next_byte = data[1]
    if next_byte != _UNSET_NEXT and next_byte >= k:
        raise CodecError(f"next vertex {next_byte} out of range for |Vp|={k}")
    pos = 2
    black, pos = _read_varint(data, pos)
    if black >> k:
        raise CodecError(f"black mask {black:#x} wider than |Vp|={k}")
    mapping = []
    for _ in range(k):
        cell, pos = _read_varint(data, pos)
        mapping.append(UNMAPPED if cell == 0 else cell - 1)
    if pos != len(data):
        raise CodecError(f"{len(data) - pos} trailing bytes after Gpsi")
    for vp in range(k):
        if black >> vp & 1 and mapping[vp] == UNMAPPED:
            raise CodecError(f"BLACK vertex v{vp + 1} has no mapping")
    next_vertex = -1 if next_byte == _UNSET_NEXT else next_byte
    return Gpsi(tuple(mapping), black, next_vertex)


def _varint_size(value: int) -> int:
    """Length in bytes of ``value``'s varint encoding, without encoding."""
    if value < 0:
        raise CodecError(f"varints are unsigned, got {value}")
    return max(1, (value.bit_length() + 6) // 7)


def encoded_size(gpsi: Gpsi) -> int:
    """Wire size in bytes (the message-volume accounting unit).

    Computed arithmetically from varint lengths — this is called once per
    routed Gpsi in the volume-accounting hot path, so it must not
    materialise the actual bytes.  Equality with
    ``len(encode_gpsi(gpsi))`` is pinned by the codec test suite.
    """
    size = 2 + _varint_size(gpsi.black)
    for vd in gpsi.mapping:
        size += 1 if vd < 0x7F else _varint_size(vd + 1)
    return size


# ----------------------------------------------------------------------
# Batch (columnar) wire format
# ----------------------------------------------------------------------
# One worker's whole Gpsi outbox as a handful of contiguous buffers
# instead of one compact-but-scalar encoding per message:
#
#   byte 0-1   magic b"GC"
#   byte 2     format version (1)
#   byte 3     |Vp| (same bound as the scalar codec: <= 0xFE)
#   byte 4-7   n, little-endian uint32
#   then       mapping  int64  LE, n*k cells, row-major (-1 = UNMAPPED)
#   then       black    uint32 LE, n*ceil(k/32) mask words, row-major
#   then       next     uint8,     n bytes (0xFF = unset)
#
# Fixed-width columns trade the scalar codec's per-cell varint
# compactness for O(1) buffers per batch and allocation-free vectorised
# pack/unpack; `encoded_size_batch` still accounts the canonical scalar
# wire volume of the same batch for apples-to-apples metrics.

_BATCH_MAGIC = b"GC"
_BATCH_VERSION = 1
_BATCH_HEADER = 8


def batch_encoded_size(n: int, k: int) -> int:
    """Exact byte length of an encoded ``n`` x ``k`` batch."""
    return _BATCH_HEADER + n * (8 * k + 4 * _black_words(k)) + n


def encode_columns(columns: GpsiColumns) -> bytes:
    """Serialise packed columns to the batch wire form."""
    n, k = columns.n, columns.k
    if k > 0xFE:
        raise CodecError(f"pattern too large to encode ({k} vertices)")
    if n > 0xFFFFFFFF:
        raise CodecError(f"batch too large to encode ({n} instances)")
    out = bytearray(_BATCH_HEADER)
    out[0:2] = _BATCH_MAGIC
    out[2] = _BATCH_VERSION
    out[3] = k
    out[4:8] = n.to_bytes(4, "little")
    out += np.ascontiguousarray(columns.mapping, dtype="<i8").tobytes()
    out += np.ascontiguousarray(columns.black, dtype="<u4").tobytes()
    out += columns.next_vertex.tobytes()
    return bytes(out)


def decode_columns(data: bytes) -> GpsiColumns:
    """Inverse of :func:`encode_columns`; validates structure."""
    if len(data) < _BATCH_HEADER:
        raise CodecError("batch shorter than the fixed header")
    if data[0:2] != _BATCH_MAGIC:
        raise CodecError("bad batch magic")
    if data[2] != _BATCH_VERSION:
        raise CodecError(f"unsupported batch version {data[2]}")
    k = data[3]
    n = int.from_bytes(data[4:8], "little")
    if len(data) != batch_encoded_size(n, k):
        raise CodecError(
            f"batch length {len(data)} != expected "
            f"{batch_encoded_size(n, k)} for n={n}, k={k}"
        )
    words = _black_words(k)
    pos = _BATCH_HEADER
    mapping = np.frombuffer(data, dtype="<i8", count=n * k, offset=pos)
    pos += n * k * 8
    black = np.frombuffer(data, dtype="<u4", count=n * words, offset=pos)
    pos += n * words * 4
    next_vertex = np.frombuffer(data, dtype=np.uint8, count=n, offset=pos)
    columns = GpsiColumns(
        mapping.astype(np.int64).reshape(n, k),
        black.astype(np.uint32).reshape(n, words),
        next_vertex.copy(),
    )
    _validate_columns(columns)
    return columns


def _validate_columns(columns: GpsiColumns) -> None:
    """The vectorised equivalent of :func:`decode_gpsi`'s checks."""
    n, k = columns.n, columns.k
    if n == 0:
        return
    nv = columns.next_vertex
    if bool(np.any((nv >= k) & (nv != PACKED_UNSET_NEXT))):
        raise CodecError(f"next vertex out of range for |Vp|={k}")
    if bool(np.any(columns.mapping < UNMAPPED)):
        raise CodecError("mapping cell below UNMAPPED")
    words = columns.black.shape[1]
    spill = 32 * words - k  # mask bits beyond |Vp| in the last word
    if spill and bool(np.any(columns.black[:, -1] >> np.uint32(32 - spill))):
        raise CodecError(f"black mask wider than |Vp|={k}")
    # A BLACK vertex must be mapped: expand each mask word against the
    # 32 mapping columns it governs.
    for w in range(words):
        lo, hi = 32 * w, min(32 * (w + 1), k)
        bits = (
            columns.black[:, w, None]
            >> np.arange(hi - lo, dtype=np.uint32)
        ) & np.uint32(1)
        if bool(np.any((bits == 1) & (columns.mapping[:, lo:hi] == UNMAPPED))):
            raise CodecError("BLACK vertex has no mapping")


def map_columns(buffer, offset: int = 0) -> Tuple[GpsiColumns, int]:
    """Re-wrap an encoded batch as **views** into ``buffer``.

    The zero-copy sibling of :func:`decode_columns` for trusted buffers
    we wrote ourselves — spill files the engine re-maps at delivery.  The
    returned columns alias ``buffer`` (read-only if the buffer is, e.g.
    an ``np.memmap`` opened ``mode="r"``); callers that mutate must
    ``.take`` first.  Structural validation is skipped: the bytes came
    from :func:`encode_columns` in this same run and the container
    (header, spill-file framing) is still checked.  Returns the columns
    and the offset one past the batch.
    """
    view = memoryview(buffer)[offset:]
    if len(view) < _BATCH_HEADER:
        raise CodecError("batch shorter than the fixed header")
    if bytes(view[0:2]) != _BATCH_MAGIC:
        raise CodecError("bad batch magic")
    if view[2] != _BATCH_VERSION:
        raise CodecError(f"unsupported batch version {view[2]}")
    k = view[3]
    n = int.from_bytes(view[4:8], "little")
    size = batch_encoded_size(n, k)
    if len(view) < size:
        raise CodecError(
            f"batch truncated: {len(view)} bytes < expected {size} "
            f"for n={n}, k={k}"
        )
    words = _black_words(k)
    pos = offset + _BATCH_HEADER
    mapping = np.frombuffer(buffer, dtype="<i8", count=n * k, offset=pos)
    pos += n * k * 8
    black = np.frombuffer(buffer, dtype="<u4", count=n * words, offset=pos)
    pos += n * words * 4
    next_vertex = np.frombuffer(buffer, dtype=np.uint8, count=n, offset=pos)
    columns = GpsiColumns(
        mapping.reshape(n, k), black.reshape(n, words), next_vertex
    )
    return columns, offset + size


def encode_batch(gpsis: Sequence[Gpsi], k: int = None) -> bytes:
    """Serialise a whole batch of Gpsis to the columnar wire form."""
    return encode_columns(pack_gpsis(gpsis, k))


def decode_batch(data: bytes) -> List[Gpsi]:
    """Inverse of :func:`encode_batch`; validates structure."""
    return unpack_gpsis(decode_columns(data))


def encoded_size_batch(columns: GpsiColumns) -> int:
    """Canonical *scalar-codec* wire volume of a packed batch, vectorised.

    Answers "how many bytes would these Gpsis cost one-by-one through
    :func:`encode_gpsi`" without touching a single Python object — the
    engine's accounting stays comparable with the scalar reference's
    (:mod:`repro.core.reference`).  Equality with
    ``sum(encoded_size(g) for g in unpack(columns))`` is pinned by tests.
    """
    n, k = columns.n, columns.k
    if n == 0:
        return 0
    # Mapping cells encode as vd + 1 (0 = unmapped); UNMAPPED is -1 so the
    # +1 shift needs no special case.  varint length = max(1, ceil(bits/7))
    # == 1 + number of 7-bit thresholds the value reaches.
    cells = (columns.mapping + 1).astype(np.uint64)
    cell_sizes = np.ones(cells.shape, dtype=np.int64)
    for shift in range(7, 64, 7):
        cell_sizes += cells >= np.uint64(1 << shift)
    total = int(cell_sizes.sum()) + 2 * n
    words = columns.black.shape[1]
    if words == 1:
        black = columns.black[:, 0].astype(np.uint64)
        black_sizes = np.ones(n, dtype=np.int64)
        for shift in range(7, 64, 7):
            black_sizes += black >= np.uint64(1 << shift)
        total += int(black_sizes.sum())
    else:
        # Wide masks (|Vp| > 32) are outside the vectorised fast path.
        total += sum(
            _varint_size(black)
            for black in (
                sum(int(word) << (32 * w) for w, word in enumerate(row))
                for row in columns.black.tolist()
            )
        )
    return total
