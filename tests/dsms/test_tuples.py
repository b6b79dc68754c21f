"""Tests for the slotted StreamTuple and its trusted constructors."""

import dataclasses
import pickle
import struct

import pytest

from repro.dsms.tuples import StreamTuple, stream_tuples
from repro.errors import QueryError
from repro.serving import ServingStore


def _bits(tup):
    return (struct.pack("<ddd", tup.t, tup.value, tup.bound), tup.stream_id)


class TestStreamTuples:
    ROWS = [(0.0, -0.0, 0.0), (1.5, 2.0**-1074, 0.25), (2.0, -1e300, 3.0)]

    def test_equals_the_constructor_bitwise(self):
        got = stream_tuples("s", self.ROWS)
        want = tuple(StreamTuple(t, "s", v, b) for t, v, b in self.ROWS)
        assert isinstance(got, tuple) and got == want
        assert [_bits(x) for x in got] == [_bits(x) for x in want]
        assert [hash(x) for x in got] == [hash(x) for x in want]
        assert [repr(x) for x in got] == [repr(x) for x in want]
        assert [dataclasses.astuple(x) for x in got] == [
            dataclasses.astuple(x) for x in want
        ]
        assert not any(hasattr(x, "__dict__") for x in got + want)

    def test_ring_built_tuples_equal_the_constructor(self):
        store = ServingStore({"s": 0.25}, history=4)
        for t, value, _ in self.ROWS:
            store.ingest("s", t, value)
            got, want = store.point("s"), StreamTuple(float(t), "s", float(value), 0.25)
            assert got == want and _bits(got) == _bits(want)
            assert hash(got) == hash(want) and repr(got) == repr(want)
            assert dataclasses.astuple(got) == dataclasses.astuple(want)
            assert not hasattr(got, "__dict__")
            assert pickle.loads(pickle.dumps(got)) == want
            assert dataclasses.replace(got, value=4.0) == dataclasses.replace(want, value=4.0)

    def test_tuples_stay_frozen_and_picklable(self):
        (tup,) = stream_tuples("s", [(1.0, 2.0, 0.5)])
        with pytest.raises(AttributeError):
            tup.value = 3.0
        assert pickle.loads(pickle.dumps(tup)) == tup
        assert dataclasses.replace(tup, value=4.0) == StreamTuple(1.0, "s", 4.0, 0.5)
        assert (tup.low, tup.high) == (1.5, 2.5)

    def test_negative_bound_raises_like_the_constructor(self):
        with pytest.raises(QueryError, match="bound must be non-negative"):
            stream_tuples("s", [(0.0, 1.0, 0.5), (1.0, 1.0, -0.5)])

    def test_nan_bound_refused_by_both_constructors(self):
        nan = float("nan")
        with pytest.raises(QueryError, match="bound must be non-negative, got nan"):
            StreamTuple(0.0, "s", 1.0, nan)
        with pytest.raises(QueryError, match="bound must be non-negative, got nan"):
            stream_tuples("s", [(0.0, 1.0, 0.5), (1.0, 1.0, nan)])

    def test_empty_rows(self):
        assert stream_tuples("s", []) == ()
