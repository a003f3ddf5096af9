"""Unit and property tests for the scalar Gpsi wire codec, and for the
packed columns the engine ships instead: their round trip and the two
byte accountings (``GpsiColumns.nbytes``, the engine's wire bytes, and
``encoded_size_batch``, the scalar codec's volume of the same rows)."""

import pickle

import pytest
from hypothesis import given, strategies as st

from repro.core import (
    CodecError,
    Gpsi,
    UNMAPPED,
    decode_gpsi,
    encode_gpsi,
    encoded_size,
    encoded_size_batch,
    pack_gpsis,
    unpack_gpsis,
)


@st.composite
def valid_gpsis(draw, k=None, max_id=2**48):
    """Structurally valid Gpsis: black only on mapped cells, next in range."""
    if k is None:
        k = draw(st.integers(min_value=1, max_value=8))
    mapping = draw(
        st.lists(
            st.one_of(st.just(UNMAPPED), st.integers(min_value=0, max_value=max_id)),
            min_size=k,
            max_size=k,
        )
    )
    black_seed = draw(st.integers(min_value=0))
    black = 0
    for vp in range(k):
        if mapping[vp] != UNMAPPED and black_seed >> vp & 1:
            black |= 1 << vp
    next_vertex = draw(st.integers(min_value=-1, max_value=k - 1))
    return Gpsi(tuple(mapping), black, next_vertex)


@st.composite
def gpsi_batches(draw):
    """(gpsis, k) with every instance sharing one pattern size."""
    k = draw(st.integers(min_value=1, max_value=6))
    gpsis = draw(st.lists(valid_gpsis(k=k), min_size=0, max_size=12))
    return gpsis, k


class TestRoundTrip:
    def test_initial_gpsi(self):
        from repro.pattern import square

        g = Gpsi.initial(square(), 0, 42)
        assert decode_gpsi(encode_gpsi(g)) == g

    def test_partial_gpsi(self):
        g = Gpsi((5, UNMAPPED, 1_000_000, 0), 0b1001, 3)
        assert decode_gpsi(encode_gpsi(g)) == g

    def test_unset_next_vertex(self):
        g = Gpsi((7, 8), 0b01, -1)
        decoded = decode_gpsi(encode_gpsi(g))
        assert decoded.next_vertex == -1

    def test_size_small_for_small_ids(self):
        g = Gpsi((1, 2, 3, 4, 5), 0b00111, 4)
        assert encoded_size(g) <= 8  # header 2 + mask 1 + 5 single-byte cells

    def test_size_grows_with_large_ids(self):
        small = Gpsi((1, 2), 0, 0)
        big = Gpsi((2**40, 2**40 + 1), 0, 0)
        assert encoded_size(big) > encoded_size(small)

    @given(
        st.lists(
            st.one_of(st.just(UNMAPPED), st.integers(min_value=0, max_value=2**48)),
            min_size=1,
            max_size=8,
        ),
        st.integers(min_value=0),
        st.integers(min_value=-1, max_value=7),
    )
    def test_roundtrip_property(self, mapping, black_seed, next_vertex):
        k = len(mapping)
        # black may only cover mapped cells; mask the seed accordingly
        black = 0
        for vp in range(k):
            if mapping[vp] != UNMAPPED and black_seed >> vp & 1:
                black |= 1 << vp
        next_vertex = min(next_vertex, k - 1)
        g = Gpsi(tuple(mapping), black, next_vertex)
        assert decode_gpsi(encode_gpsi(g)) == g


class TestValidation:
    def test_truncated_header(self):
        with pytest.raises(CodecError):
            decode_gpsi(b"\x03")

    def test_truncated_varint(self):
        g = Gpsi((1, 2, 3), 0, 0)
        data = encode_gpsi(g)
        with pytest.raises(CodecError):
            decode_gpsi(data[:-1])

    def test_trailing_garbage(self):
        data = encode_gpsi(Gpsi((1,), 0, 0)) + b"\x00"
        with pytest.raises(CodecError):
            decode_gpsi(data)

    def test_next_vertex_out_of_range(self):
        data = bytearray(encode_gpsi(Gpsi((1, 2), 0, 0)))
        data[1] = 9  # |Vp| is 2
        with pytest.raises(CodecError):
            decode_gpsi(bytes(data))

    def test_black_mask_too_wide(self):
        data = bytearray(encode_gpsi(Gpsi((1,), 0, 0)))
        data[2] = 0b10  # bit 1 for a 1-vertex pattern
        with pytest.raises(CodecError):
            decode_gpsi(bytes(data))

    def test_black_unmapped_inconsistency(self):
        # hand-craft: k=1, next=0, black=1, mapping cell 0 (unmapped)
        with pytest.raises(CodecError):
            decode_gpsi(bytes([1, 0, 1, 0]))

    def test_negative_varint_rejected_at_encode(self):
        from repro.core.codec import _write_varint

        with pytest.raises(CodecError):
            _write_varint(-1, bytearray())


class TestEncodedSizeArithmetic:
    """``encoded_size`` computes the wire length without materialising
    bytes; it must agree with the actual encoder on every valid Gpsi."""

    @given(valid_gpsis())
    def test_matches_real_encoding(self, gpsi):
        assert encoded_size(gpsi) == len(encode_gpsi(gpsi))

    def test_varint_boundaries(self):
        # 0x7E is the last id whose +1 shift still fits one varint byte.
        for vd in (0, 0x7E, 0x7F, 0x80, 2**14 - 2, 2**14 - 1, 2**40):
            g = Gpsi((vd, UNMAPPED), 0b01, 0)
            assert encoded_size(g) == len(encode_gpsi(g))


def row_bytes(k):
    """Packed bytes per row: 8-byte cells, 32-bit BLACK words, one next
    byte."""
    return 8 * k + 4 * -(-k // 32) + 1


class TestBatchRoundTrip:
    """The packed columns are the engine's one payload: what a lane frame
    pickles and the barrier store merges."""

    def test_empty_batch(self):
        columns = pack_gpsis([], k=4)
        assert unpack_gpsis(columns) == []
        assert columns.nbytes == encoded_size_batch(columns) == 0

    def test_empty_pack_requires_k(self):
        with pytest.raises(ValueError):
            pack_gpsis([])

    def test_one_vertex_pattern(self):
        gpsis = [Gpsi((7,), 0b1, 0), Gpsi((UNMAPPED,), 0, -1)]
        assert unpack_gpsis(pack_gpsis(gpsis)) == gpsis

    def test_unmapped_cells_and_unset_next(self):
        gpsis = [
            Gpsi((5, UNMAPPED, 1_000_000, 0), 0b1001, 3),
            Gpsi((UNMAPPED, UNMAPPED, UNMAPPED, 2), 0, -1),
        ]
        assert unpack_gpsis(pack_gpsis(gpsis)) == gpsis

    def test_wide_pattern_multiword_black(self):
        # 0xFE vertices — the scalar codec's ceiling; black spans 8 mask
        # words, so the scalar accounting takes its wide-mask path.
        k = 0xFE
        mapping = tuple(range(k))
        black = (1 << k) - 1
        gpsis = [Gpsi(mapping, black, k - 1), Gpsi(mapping, 1 << 200, -1)]
        columns = pack_gpsis(gpsis)
        assert unpack_gpsis(columns) == gpsis
        assert encoded_size_batch(columns) == sum(map(encoded_size, gpsis))

    def test_pattern_too_large_rejected(self):
        g = Gpsi(tuple(range(0xFF)), 0, 0)
        with pytest.raises(CodecError):
            encode_gpsi(g)

    @given(gpsi_batches())
    def test_roundtrip_property(self, batch):
        """Through pickle, the codec of a process lane's frames."""
        gpsis, k = batch
        columns = pickle.loads(pickle.dumps(pack_gpsis(gpsis, k)))
        assert unpack_gpsis(columns) == gpsis

    @given(gpsi_batches())
    def test_pack_unpack_property(self, batch):
        gpsis, k = batch
        assert unpack_gpsis(pack_gpsis(gpsis, k)) == gpsis

    @given(gpsi_batches())
    def test_encoded_size_batch_matches_scalar_sum(self, batch):
        gpsis, k = batch
        columns = pack_gpsis(gpsis, k)
        assert encoded_size_batch(columns) == sum(encoded_size(g) for g in gpsis)

    def test_encoded_size_batch_multiword(self):
        k = 40  # two mask words: exercises the scalar fallback
        gpsis = [
            Gpsi(tuple(range(k)), (1 << k) - 1, 0),
            Gpsi((UNMAPPED,) * k, 0, -1),
        ]
        columns = pack_gpsis(gpsis)
        assert encoded_size_batch(columns) == sum(encoded_size(g) for g in gpsis)

    @given(gpsi_batches())
    def test_batch_encoded_size_is_exact(self, batch):
        """The engine's wire bytes are the packed buffers, exactly."""
        gpsis, k = batch
        columns = pack_gpsis(gpsis, k)
        assert columns.nbytes == len(gpsis) * row_bytes(k)

    @given(gpsi_batches())
    def test_encoded_size_batch_independent_of_next(self, batch):
        """The batched expansion path accounts ``message_bytes`` with one
        ``encoded_size_batch`` call on the addressed child columns; the
        scalar path sums ``encoded_size`` per addressed child.  Byte
        parity holds for every addressing because the codec's next-vertex
        field is fixed-width — re-addressing rows never changes the
        accounted volume."""
        gpsis, k = batch
        columns = pack_gpsis(gpsis, k)
        base = encoded_size_batch(columns)
        readdressed = pack_gpsis([g.with_next(k - 1) for g in gpsis], k)
        assert encoded_size_batch(readdressed) == base
        assert base == sum(
            encoded_size(g.with_next(k - 1)) for g in gpsis
        )

    @given(st.lists(valid_gpsis(k=4, max_id=500), min_size=1, max_size=30))
    def test_columnar_vs_scalar_bytes_per_gpsi(self, gpsis):
        """Cross-check the two accountings on random Gpsis: the packed
        columns are fixed-width (8k + 4*words + 1 per instance), the
        scalar codec varint-compressed; for small ids scalar stays below
        fixed-width, and both must be internally exact."""
        columns = pack_gpsis(gpsis)
        n, k = len(gpsis), 4
        columnar = columns.nbytes
        scalar = encoded_size_batch(columns)
        assert columnar == n * (8 * k + 4 + 1)
        assert scalar == sum(len(encode_gpsi(g)) for g in gpsis)
        assert scalar <= columnar
