"""Edge-list I/O for data graphs.

Reads the common whitespace-separated edge-list format used by SNAP
releases (the paper's data source): one ``u v`` pair per line, ``#``/``%``
comments allowed.  Non-contiguous vertex ids are compacted to ``0..n-1``
(the original ids are returned for callers that need them), mirroring the
paper's preprocessing of the raw releases.

Parsing is chunked and vectorised: the file reads in fixed-size byte
chunks, each chunk's tokens convert to ``int64`` in one ``numpy`` call,
and compaction/dedup run as array passes — no per-line Python tuple ever
exists, which is what makes million-edge SNAP files practical.  This is
the one edge-list reader: ``psgl convert``
(:func:`repro.graph.binfmt.convert_edge_list`) is this read followed by
``write_csrbin``.  Comment lines are dropped inside the
vectorised pass; chunks that do not fit the strict two-column shape —
extra columns, malformed tokens — fall back to the original scalar
per-line parser, which preserves the exact
``line N:`` diagnostics in :class:`~repro.exceptions.GraphFormatError`
and the lenient "extra columns ignored" behaviour.

Correctness knobs (matching the paper's preprocessing, which adds the
reciprocal edge and eliminates loops explicitly):

* ``dedup=True`` (default) collapses duplicate undirected edges
  silently; ``dedup=False`` makes the first duplicate a loud
  :class:`~repro.exceptions.GraphFormatError`.
* ``allow_self_loops=False`` (default) makes a self loop a loud error
  (the :class:`~repro.graph.graph.Graph` model cannot represent one);
  ``allow_self_loops=True`` drops them.
"""

from __future__ import annotations

import io
from pathlib import Path
from typing import Dict, Iterator, List, TextIO, Tuple, Union

import numpy as np

from ..exceptions import GraphFormatError
from ..unique import sorted_unique
from .graph import Graph

PathLike = Union[str, Path]

#: Bytes of text parsed per chunk.  1 MiB keeps the token array and its
#: int64 conversion comfortably in cache while amortising call overhead.
DEFAULT_CHUNK_BYTES = 1 << 20

_COMMENT_PREFIXES = (b"#", b"%")


def _read_raw_chunks(
    source: Union[PathLike, TextIO], chunk_bytes: int
) -> Iterator[bytes]:
    """Yield byte chunks split on line boundaries (last line unterminated
    input included as a final chunk)."""
    if isinstance(source, (str, Path)):
        with open(source, "rb") as fh:
            yield from _read_raw_chunks(fh, chunk_bytes)
        return
    carry = b""
    while True:
        chunk = source.read(chunk_bytes)
        if isinstance(chunk, str):  # text streams (StringIO, open(..., "r"))
            chunk = chunk.encode("utf-8")
        if not chunk:
            break
        chunk = carry + chunk
        cut = chunk.rfind(b"\n")
        if cut < 0:
            carry = chunk
            continue
        carry = chunk[cut + 1:]
        yield chunk[:cut + 1]
    if carry:
        yield carry


def _parse_chunk_scalar(
    data: bytes, first_lineno: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Reference per-line parser: exact diagnostics, lenient extra columns.

    This is the original small-file code path, kept both for inputs the
    vectorised parser cannot shape-check (>2 columns) and to attribute
    errors in malformed lines to exact line numbers.
    """
    pairs: List[Tuple[int, int]] = []
    linenos: List[int] = []
    for offset, line in enumerate(data.splitlines()):
        stripped = line.strip()
        if not stripped or stripped.startswith(_COMMENT_PREFIXES):
            continue
        parts = stripped.split()
        text = stripped.decode("utf-8", errors="replace")
        if len(parts) < 2:
            raise GraphFormatError(
                f"line {first_lineno + offset}: expected two ids, got {text!r}"
            )
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError as exc:
            raise GraphFormatError(
                f"line {first_lineno + offset}: non-integer id in {text!r}"
            ) from exc
        linenos.append(first_lineno + offset)
    if not pairs:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    return np.array(pairs, dtype=np.int64), np.array(linenos, dtype=np.int64)


def _parse_chunk(
    data: bytes, first_lineno: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Parse one chunk of complete lines into ``(pairs, linenos)`` arrays.

    Fast path: drop comment lines (first token starting with ``#`` or
    ``%``) and verify every other non-blank line carries exactly two
    tokens with one vectorised pass over the raw bytes, then convert all
    tokens in a single ``np.array(..., dtype=int64)`` call.  A malformed
    line or an extra column defers to :func:`_parse_chunk_scalar`.
    """
    if not data:
        return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)
    buf = np.frombuffer(data, dtype=np.uint8)
    is_nl = buf == 0x0A
    is_ws = (
        is_nl
        | (buf == 0x20)  # space
        | (buf == 0x09)  # \t
        | (buf == 0x0D)  # \r
        | (buf == 0x0B)  # \v
        | (buf == 0x0C)  # \f
    )
    token_start = ~is_ws
    token_start[1:] &= is_ws[:-1]
    # Line index of each byte = newlines strictly before it.
    line_id = np.cumsum(is_nl) - is_nl
    num_lines = int(is_nl.sum()) + (0 if is_nl[-1] else 1)
    starts = np.flatnonzero(token_start)
    token_line = line_id[starts]
    first = np.ones(len(starts), dtype=bool)
    first[1:] = token_line[1:] != token_line[:-1]
    lead = buf[starts[first]]
    comment = np.zeros(num_lines, dtype=bool)
    comment[token_line[first][(lead == 0x23) | (lead == 0x25)]] = True  # '#' '%'
    counts = np.bincount(token_line, minlength=num_lines)
    counts[comment] = 0
    if not bool(np.all((counts == 0) | (counts == 2))):
        return _parse_chunk_scalar(data, first_lineno)
    if comment.any():
        # Cut comment lines out whole, newline included: every kept line
        # still ends in its own newline, so no two tokens merge.
        data = buf[~comment[line_id]].tobytes()
    try:
        tokens = np.array(data.split(), dtype=np.int64)
    except (ValueError, OverflowError):
        return _parse_chunk_scalar(data, first_lineno)
    # Rows are exactly the lines with two tokens (the rest are blank).
    linenos = first_lineno + np.flatnonzero(counts == 2).astype(np.int64)
    return tokens.reshape(-1, 2), linenos


def _compact(raw: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """``(original_ids, dense)``: the ids ``raw`` names, ascending, and
    ``raw`` renumbered to their positions ``0..n-1`` (in place when the
    table is used: ``raw`` is the reader's own copy).

    A direct table indexed by id when the largest id is below twice the
    ids read (near-contiguous ids, as every R-MAT file has); otherwise a
    sort, so sparse ids never allocate by their magnitude.
    """
    flat = raw.ravel()
    top = int(flat.max()) if len(flat) else -1
    if top < 2 * len(flat):
        seen = np.zeros(top + 1, dtype=bool)
        seen[flat] = True
        original_ids = np.flatnonzero(seen)
        dense_of = np.empty(top + 1, dtype=np.int64)
        dense_of[original_ids] = np.arange(len(original_ids))
        # Every id is in range; mode="raise" would buffer a copy of ``out``.
        return original_ids, np.take(dense_of, raw, out=raw, mode="clip")
    original_ids, _, inverse = sorted_unique(flat)
    return original_ids, inverse.reshape(-1, 2)


def _read_edges(
    source: Union[PathLike, TextIO],
    *,
    dedup: bool,
    allow_self_loops: bool,
    chunk_bytes: int,
) -> Tuple[Graph, np.ndarray, int, int]:
    """The one edge-list read behind :func:`read_edge_list` and
    :func:`repro.graph.binfmt.convert_edge_list`.

    Returns ``(graph, original_ids, raw_edges, self_loops_dropped)``:
    ``original_ids[d]`` is dense vertex ``d``'s id in the file and
    ``raw_edges`` the edge lines parsed, loops and duplicates included.
    """
    chunks: List[np.ndarray] = []
    first_loop = None
    lineno = 1
    for data in _read_raw_chunks(source, chunk_bytes):
        pairs, linenos = _parse_chunk(data, lineno)
        lineno += data.count(b"\n")
        if bool(np.any(pairs < 0)):
            bad = int(np.flatnonzero((pairs < 0).any(axis=1))[0])
            raise GraphFormatError(
                f"negative vertex id in edge "
                f"({int(pairs[bad, 0])}, {int(pairs[bad, 1])}) "
                f"at line {int(linenos[bad])}"
            )
        if first_loop is None:
            loops = pairs[:, 0] == pairs[:, 1]
            if bool(np.any(loops)):
                row = int(np.flatnonzero(loops)[0])
                first_loop = (int(pairs[row, 0]), int(linenos[row]))
        chunks.append(pairs)
    raw = (
        np.concatenate(chunks) if chunks else np.empty((0, 2), dtype=np.int64)
    )
    del chunks
    if first_loop is not None and not allow_self_loops:
        loop_id, line = first_loop
        raise GraphFormatError(
            f"self loop ({loop_id}, {loop_id}) at line {line}; "
            "pass allow_self_loops=True to drop self loops"
        )
    raw_edges = len(raw)
    if first_loop is not None:
        raw = raw[raw[:, 0] != raw[:, 1]]
    original_ids, dense = _compact(raw)
    del raw
    n = len(original_ids)
    graph = Graph(n, dense)
    if not dedup and graph.num_edges != len(dense):
        # Error path only: name the smallest duplicated (min, max) edge.
        keys = np.sort(dense.min(axis=1) * n + dense.max(axis=1))
        bad = int(keys[1:][keys[1:] == keys[:-1]][0])
        raise GraphFormatError(
            f"duplicate edge ({int(original_ids[bad // n])}, "
            f"{int(original_ids[bad % n])}); "
            "pass dedup=True to collapse duplicates"
        )
    return graph, original_ids, raw_edges, raw_edges - len(dense)


def read_edge_list(
    source: Union[PathLike, TextIO],
    *,
    dedup: bool = True,
    allow_self_loops: bool = False,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> Tuple[Graph, Dict[int, int]]:
    """Parse an edge list into a :class:`Graph`.

    Parameters
    ----------
    source:
        A path or an open (text or binary) stream.
    dedup:
        Collapse duplicate undirected edges silently (default, the
        paper's preprocessing); ``False`` raises
        :class:`~repro.exceptions.GraphFormatError` on the first
        duplicate instead.
    allow_self_loops:
        Drop self loops when ``True``; the default treats a self loop as
        a format error (the graph model is loop-free).
    chunk_bytes:
        Text bytes parsed per chunk (default 1 MiB); memory use is
        bounded by O(edges seen so far), never by Python object count.

    Negative vertex ids are always a format error (they would survive
    id compaction and poison the CSR build), reported with the offending
    edge and line number.

    Returns
    -------
    (graph, id_map):
        ``graph`` with dense ids, and ``id_map`` from dense id back to the
        original id in the file.
    """
    graph, original_ids, _, _ = _read_edges(
        source,
        dedup=dedup,
        allow_self_loops=allow_self_loops,
        chunk_bytes=chunk_bytes,
    )
    return graph, dict(enumerate(original_ids.tolist()))


def write_edge_list(graph: Graph, target: Union[PathLike, TextIO]) -> None:
    """Write ``graph`` as a ``u v`` per-line edge list (each edge once)."""
    np.savetxt(
        target,
        np.column_stack(graph.edge_arrays()),
        fmt="%d",
        header=f"undirected graph |V|={graph.num_vertices} |E|={graph.num_edges}",
    )


def graph_from_string(text: str) -> Graph:
    """Parse an inline edge list (handy in tests and doctests)."""
    graph, _ = read_edge_list(io.StringIO(text))
    return graph
