"""Unit tests for the partial subgraph instance (Gpsi) data structure
and its packed form, the engine's one wire format."""

import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core import (
    CostParameters,
    Gpsi,
    GpsiColumns,
    UNMAPPED,
    pack_gpsis,
    unpack_gpsis,
)
from repro.pattern import clique4, square, triangle

from .parity import row_bytes


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


class TestInitial:
    def test_initial_maps_one_vertex(self):
        g = Gpsi.initial(square(), 0, 42)
        assert g.mapping == (42, UNMAPPED, UNMAPPED, UNMAPPED)
        assert g.next_vertex == 0
        assert g.black == 0

    def test_initial_colors(self):
        g = Gpsi.initial(triangle(), 1, 7)
        assert g.is_gray(1)
        assert g.is_white(0) and g.is_white(2)
        assert not g.is_black(1)


class TestColors:
    def test_black_transitions(self):
        g = Gpsi((5, 6, UNMAPPED, UNMAPPED), black=0b01, next_vertex=1)
        assert g.is_black(0)
        assert g.is_gray(1)
        assert g.is_white(2)

    def test_gray_vertices(self):
        g = Gpsi((5, 6, 7, UNMAPPED), black=0b001, next_vertex=1)
        assert g.gray_vertices() == [1, 2]

    def test_white_vertices(self):
        g = Gpsi((5, UNMAPPED, UNMAPPED, 8), black=0, next_vertex=0)
        assert g.white_vertices() == [1, 2]

    def test_mapped_data_vertices(self):
        g = Gpsi((5, UNMAPPED, 7, UNMAPPED), black=0, next_vertex=0)
        assert g.mapped_data_vertices() == [5, 7]


class TestCompleteness:
    def test_incomplete_when_unmapped(self):
        g = Gpsi((1, 2, UNMAPPED), black=0b011, next_vertex=2)
        assert not g.is_complete(triangle())

    def test_incomplete_when_edge_uncovered(self):
        # all mapped but black={0}: edge (1,2) has no black endpoint
        g = Gpsi((1, 2, 3), black=0b001, next_vertex=1)
        assert not g.is_complete(triangle())
        assert g.uncovered_edges(triangle()) == [(1, 2)]

    def test_complete_when_black_covers(self):
        g = Gpsi((1, 2, 3), black=0b011, next_vertex=2)
        assert g.is_complete(triangle())

    def test_clique_needs_three_blacks(self):
        g = Gpsi((1, 2, 3, 4), black=0b0011, next_vertex=2)
        assert not g.is_complete(clique4())
        g2 = Gpsi((1, 2, 3, 4), black=0b0111, next_vertex=3)
        assert g2.is_complete(clique4())


class TestUsefulGrays:
    def test_gray_with_white_neighbor_is_useful(self):
        g = Gpsi.initial(triangle(), 0, 9)
        assert g.useful_grays(triangle()) == [0]

    def test_gray_on_uncovered_edge_is_useful(self):
        # square fully mapped, black={0}: uncovered edges (1,2),(2,3)
        g = Gpsi((1, 2, 3, 4), black=0b0001, next_vertex=1)
        useful = g.useful_grays(square())
        assert set(useful) == {1, 2, 3}

    def test_saturated_gray_not_useful(self):
        # triangle: black={0,1}; vertex 2 is gray, no whites, edge (1,2)
        # covered by black 1, (0,2) covered by 0 -> nothing useful.
        g = Gpsi((1, 2, 3), black=0b011, next_vertex=2)
        assert g.useful_grays(triangle()) == []

    def test_incomplete_always_has_useful_gray(self):
        # any reachable incomplete state of the square
        g = Gpsi((1, 2, UNMAPPED, 4), black=0b0001, next_vertex=1)
        assert g.useful_grays(square())


class TestPlumbing:
    def test_with_next(self):
        g = Gpsi((1, UNMAPPED), black=0, next_vertex=0)
        h = g.with_next(1)
        assert h.next_vertex == 1
        assert h.mapping == g.mapping
        assert g.next_vertex == 0  # original untouched

    def test_equality_and_hash(self):
        a = Gpsi((1, 2), 0b1, 1)
        b = Gpsi((1, 2), 0b1, 1)
        c = Gpsi((1, 2), 0b1, 0)
        assert a == b and hash(a) == hash(b)
        assert a != c

    def test_eq_other_type(self):
        assert Gpsi((1,), 0, 0).__eq__("x") is NotImplemented

    def test_repr_shows_question_marks(self):
        text = repr(Gpsi((5, UNMAPPED), 0, 0))
        assert "?" in text and "5" in text


class TestRecords:
    """The records that replaced dataclasses keep their contract: frozen
    ones refuse assignment and hash and pickle by value, and none has a
    per-instance ``__dict__``."""

    def test_frozen_records(self):
        columns = GpsiColumns.initial(triangle(), 0, np.arange(3))
        costs = CostParameters(gray_check=2.0, ce=3.0)
        for record, name in ((columns, "mapping"), (costs, "scan")):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                record.extra = 1
        clone = pickle.loads(pickle.dumps(columns))
        assert all(np.array_equal(getattr(clone, f), getattr(columns, f))
                   for f in GpsiColumns.__slots__)
        assert pickle.loads(pickle.dumps(costs)) == costs
        assert hash(costs) == hash(CostParameters(2.0, 1.0, 3.0))
        assert costs != CostParameters()
        assert repr(costs) == "CostParameters(gray_check=2.0, scan=1.0, ce=3.0)"

    def test_mutable_records_take_only_their_fields(self):
        from repro.obs import TraceEvent

        event = TraceEvent("superstep", superstep=1)
        event.worker = 2
        with pytest.raises(AttributeError):
            event.extra = 1
        assert event == TraceEvent("superstep", 1, 2)
        assert event != TraceEvent("superstep", 1, 3)


class TestBatchRoundTrip:
    """The packed columns are the engine's one payload: what a lane frame
    pickles and the barrier delivers."""

    def test_empty_batch(self):
        columns = pack_gpsis([], k=4)
        assert unpack_gpsis(columns) == []
        assert columns.nbytes == 0

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
        # 0xFE vertices: black spans 8 mask words.
        k = 0xFE
        mapping = tuple(range(k))
        black = (1 << k) - 1
        gpsis = [Gpsi(mapping, black, k - 1), Gpsi(mapping, 1 << 200, -1)]
        columns = pack_gpsis(gpsis)
        assert unpack_gpsis(columns) == gpsis
        assert columns.nbytes == 2 * row_bytes(k)

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
    def test_batch_encoded_size_is_exact(self, batch):
        """The engine's wire bytes are the packed buffers, exactly."""
        gpsis, k = batch
        columns = pack_gpsis(gpsis, k)
        assert columns.nbytes == len(gpsis) * row_bytes(k)
