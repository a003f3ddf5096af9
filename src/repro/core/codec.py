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

from typing import Tuple

import numpy as np

from ..exceptions import ReproError
from .psi import Gpsi, GpsiColumns, UNMAPPED

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
