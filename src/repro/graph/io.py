"""Edge-list I/O for data graphs.

Reads the common whitespace-separated edge-list format used by SNAP
releases (the paper's data source): one ``u v`` pair per line, ``#``/``%``
comments allowed.  Non-contiguous vertex ids are compacted to ``0..n-1``
(the original ids are returned for callers that need them), mirroring the
paper's preprocessing of the raw releases.

Parsing is chunked and vectorised: the file reads in fixed-size byte
chunks, and each chunk is one pass (:func:`_parse_chunk`) — a byte-kind
lookup, the token starts and stops, per-line token counts from where
the newlines fall among the token starts, and every token converted to
``int64`` in one ``np.fromstring`` call.  Nothing wider than a byte is
held per input byte, and no per-line Python object ever exists, which is
what makes million-edge SNAP files practical; compaction and dedup run
as array passes.  This is the one edge-list reader (:func:`_read_edges`):
:func:`read_edge_list` adds the id map, ``psgl count``/``stats``/``serve
--edge-list`` take only the graph, and ``psgl convert``
(:func:`repro.graph.binfmt.convert_edge_list`) is this read followed by
``write_csrbin``.

Comment lines are cut out inside the vectorised pass.  A chunk the pass
cannot prove well-formed — a line without exactly two tokens, a token
that is not an optionally signed decimal, one longer than 18 characters
(which might not fit ``int64``) — goes whole to the per-line parser
(:func:`_parse_chunk_scalar`), which keeps the exact ``line N:``
diagnostics in :class:`~repro.exceptions.GraphFormatError` (an id
outside ``int64`` and a negative id included) and the lenient "extra
columns ignored" behaviour.  A lone ``\\r`` ends a line, as
``bytes.splitlines`` has it, so a chunk holding one goes to the per-line
parser too.  The two agree on every chunk (a hypothesis test in
``tests/test_io_stats.py``), so of two faults in a file the read names
the earlier line's, whatever the chunk size.

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
#: Rows the pair buffer of :func:`_read_edges` starts with (1 MiB).
_FIRST_ROWS = 1 << 16

_INT64_MIN, _INT64_MAX = -(1 << 63), (1 << 63) - 1
#: Longest token the fast path converts: every number of 18 characters
#: fits ``int64``, and ``np.fromstring`` clamps one that does not to
#: ``2**63 - 1`` without a word, so longer tokens take the checked path.
_MAX_FAST_CHARS = 18
#: Each byte's kind for :func:`_parse_chunk`: ASCII whitespace as
#: ``bytes.split`` sees it, a decimal digit, a sign, or anything else.
_WS, _DIGIT, _SIGN, _OTHER = 0, 1, 2, 3
_BYTE_KIND = np.full(256, _OTHER, dtype=np.uint8)
_BYTE_KIND[list(b" \t\n\r\x0b\x0c")] = _WS
_BYTE_KIND[list(b"0123456789")] = _DIGIT
_BYTE_KIND[list(b"+-")] = _SIGN


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

    The checked path: :func:`_parse_chunk` defers a whole chunk here
    whenever it cannot prove every line well-formed, so each malformed
    line is reported with its exact line number.
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
            pair = (int(parts[0]), int(parts[1]))
        except ValueError as exc:
            raise GraphFormatError(
                f"line {first_lineno + offset}: non-integer id in {text!r}"
            ) from exc
        if not (_INT64_MIN <= min(pair) and max(pair) <= _INT64_MAX):
            raise GraphFormatError(
                f"line {first_lineno + offset}: id outside the int64 range "
                f"in {text!r}"
            )
        if min(pair) < 0:
            raise _negative_id(pair, first_lineno + offset)
        pairs.append(pair)
        linenos.append(first_lineno + offset)
    if not pairs:
        return _no_pairs()
    return np.array(pairs, dtype=np.int64), np.array(linenos, dtype=np.int64)


def _no_pairs() -> Tuple[np.ndarray, np.ndarray]:
    return np.empty((0, 2), dtype=np.int64), np.empty(0, dtype=np.int64)


def _negative_id(pair: Tuple[int, int], lineno: int) -> GraphFormatError:
    """Both parsers' refusal of a negative id: it would survive id
    compaction and poison the CSR build."""
    return GraphFormatError(f"negative vertex id in edge {pair} at line {lineno}")


def _parse_chunk(
    data: bytes, first_lineno: int
) -> Tuple[np.ndarray, np.ndarray]:
    """Parse one chunk of complete lines into ``(pairs, linenos)`` arrays.

    One pass classifies the bytes and finds where each token starts and
    stops; each line's token count is where its newline falls among the
    token starts, so nothing wider than a byte is held per input byte.
    Comment lines (first token starting with ``#`` or ``%``) are cut out
    whole.  When every other line is blank or two decimal tokens (digits
    after at most one leading sign) of at most :data:`_MAX_FAST_CHARS`
    characters, so each fits ``int64``, every token converts in one
    ``np.fromstring`` call.  Anything else — an extra column, a malformed
    or overlong token, a lone ``\\r`` (a line break this pass does not
    split on) — defers the whole chunk to :func:`_parse_chunk_scalar`,
    which names the line.  Only a well-formed chunk is converted here, so
    its first negative id is its first fault.
    """
    if b"\r" in data and data.count(b"\r") != data.count(b"\r\n"):
        return _parse_chunk_scalar(data, first_lineno)
    buf = np.frombuffer(data, dtype=np.uint8)
    kind = _BYTE_KIND[buf]
    # Flips of "is whitespace": a token starts at an even flip and stops
    # (exclusive) at the odd one after it.
    flips = np.flatnonzero(np.diff(kind == _WS, prepend=True, append=True))
    starts, lengths = flips[0::2], flips[1::2] - flips[0::2]
    if not len(starts):
        return _no_pairs()
    # Last byte of each line; a line owns the tokens that start up to it.
    ends = np.flatnonzero(buf == 0x0A)
    if data[-1:] != b"\n":
        ends = np.append(ends, len(buf) - 1)
    upto = np.searchsorted(starts, ends, side="right")
    counts = np.diff(upto, prepend=0)
    lead = buf[starts[np.minimum(upto - counts, len(starts) - 1)]]
    comment = (counts > 0) & ((lead == 0x23) | (lead == 0x25))  # '#' '%'
    text = data
    if comment.any():
        kept = np.repeat(~comment, np.diff(ends, prepend=-1))
        kind = kind[kept]
        lengths = lengths[np.repeat(~comment, counts)]
        counts[comment] = 0
        # Every kept line still ends in its own newline, so no two
        # tokens merge.
        text = buf[kept].tobytes()
    rows = np.flatnonzero(counts == 2)
    if (
        bool(np.any(counts[counts != 2]))
        or bool(np.any(kind == _OTHER))
        or _misplaced_sign(kind)
        or (len(lengths) and int(lengths.max()) > _MAX_FAST_CHARS)
    ):
        return _parse_chunk_scalar(data, first_lineno)
    if not len(rows):
        return _no_pairs()
    # Exactly this many tokens, each a well-formed decimal: allocated
    # once at their final size, not grown while parsing.
    tokens = np.fromstring(text, dtype=np.int64, sep=" ", count=2 * len(rows))
    pairs = tokens.reshape(-1, 2)
    if int(tokens.min()) < 0:
        bad = int(np.flatnonzero(pairs.min(axis=1) < 0)[0])
        raise _negative_id(tuple(pairs[bad].tolist()), first_lineno + int(rows[bad]))
    return pairs, first_lineno + rows


def _misplaced_sign(kind: np.ndarray) -> bool:
    """Whether a sign byte is anywhere but first in a token and right
    before a digit — the one place ``int()`` takes it."""
    signs = np.flatnonzero(kind == _SIGN)
    if not len(signs):
        return False
    padded = np.concatenate(([_WS], kind, [_WS]))
    return bool(np.any((padded[signs] != _WS) | (padded[signs + 2] != _DIGIT)))


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
    dedup: bool = True,
    allow_self_loops: bool = False,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
) -> Tuple[Graph, np.ndarray, int, int]:
    """The one edge-list read behind :func:`read_edge_list` and
    :func:`repro.graph.binfmt.convert_edge_list`.

    Returns ``(graph, original_ids, raw_edges, self_loops_dropped)``:
    ``original_ids[d]`` is dense vertex ``d``'s id in the file and
    ``raw_edges`` the edge lines parsed, loops and duplicates included.
    """
    # Every chunk's pairs are copied into one buffer that doubles when
    # full, and freed: the read holds one copy of the pairs (two for a
    # moment at a doubling) plus one chunk, and no chunk-sized array
    # outlives its iteration (parked chunks fragment the heap and stay
    # resident after a join).
    raw = np.empty((_FIRST_ROWS, 2), dtype=np.int64)
    rows = 0
    first_loop = None
    lineno = 1
    for data in _read_raw_chunks(source, chunk_bytes):
        pairs, linenos = _parse_chunk(data, lineno)
        # Lines end as ``bytes.splitlines`` ends them: ``\n``, ``\r\n``, lone ``\r``.
        lineno += data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")
        if first_loop is None:
            loops = pairs[:, 0] == pairs[:, 1]
            if bool(np.any(loops)):
                row = int(np.flatnonzero(loops)[0])
                first_loop = (int(pairs[row, 0]), int(linenos[row]))
        if rows + len(pairs) > len(raw):
            grown = np.empty((max(2 * len(raw), rows + len(pairs)), 2), np.int64)
            grown[:rows] = raw[:rows]
            raw = grown
        raw[rows:rows + len(pairs)] = pairs
        rows += len(pairs)
    # Pages past ``rows`` were never written, so they were never resident.
    raw = raw[:rows]
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
