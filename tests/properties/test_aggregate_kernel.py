"""The one-pass aggregate kernel is bitwise the window operator's replay.

``replay_aggregate`` answers a member list in one pass (``Aggregate.of`` +
one ``aggregate_bound`` call).  Its contract is that the answer — value,
bound, ``t`` and ``stream_id`` — is bit for bit the last emission of a fresh
``WindowAggregate`` sized to the member list with ``slide=1,
emit_partial=True``.  That replay was ``replay_aggregate``'s body until the
kernel replaced it; it lives on here (and in ``benchmarks/e2e/verify.py``)
as the oracle.
"""

from __future__ import annotations

import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dsms import StreamTuple, WindowAggregate, make_aggregate, replay_aggregate
from repro.dsms import operators
from repro.dsms.aggregates import Aggregate, SumAggregate
from repro.errors import QueryError

NAMES = (
    "count", "sum", "mean", "avg", "var", "min", "max",
    "median", "q0", "q0.25", "q0.95", "q1",
)

SALT = (
    0.0, -0.0, 1.0, -1.0, 1e300, -1e300, 1e-300, -1e-300,
    5e-324, -5e-324, 2.2250738585072014e-308,
)


def oracle(members, aggregate) -> StreamTuple:
    """``replay_aggregate`` as it was: push every member, keep the last emission."""
    op = WindowAggregate(aggregate, size=len(members), slide=1, emit_partial=True)
    out: list[StreamTuple] = []
    for member in members:
        out = op.process(member)
    return out[0]


def bits(x: float) -> bytes:
    return struct.pack("<d", x)


def assert_same_answer(got: StreamTuple, want: StreamTuple) -> None:
    assert bits(got.value) == bits(want.value), (got.value, want.value)
    assert bits(got.bound) == bits(want.bound), (got.bound, want.bound)
    assert got.t == want.t
    assert got.stream_id == want.stream_id


def members_of(values, bounds, stream_id="s") -> tuple[StreamTuple, ...]:
    return tuple(
        StreamTuple(t=float(k), stream_id=stream_id, value=v, bound=b)
        for k, (v, b) in enumerate(zip(values, bounds))
    )


finite = st.floats(allow_nan=False, allow_infinity=False)
value_lists = st.lists(
    st.one_of(finite, st.sampled_from(SALT), st.integers(-3, 3).map(float)),
    min_size=1,
    max_size=200,
)
bound_pool = st.one_of(
    st.just(0.0), st.floats(0.0, 1e6, allow_nan=False), st.sampled_from((0.5, 1e-300))
)


@st.composite
def member_lists(draw):
    values = draw(value_lists)
    bounds = draw(st.lists(bound_pool, min_size=len(values), max_size=len(values)))
    return members_of(values, bounds)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=60, deadline=None)
@given(members=member_lists())
def test_kernel_is_bitwise_the_operator_replay(name, members):
    with warnings.catch_warnings():
        # 1e300-sized members overflow inside variance_bound on both sides.
        warnings.simplefilter("ignore", RuntimeWarning)
        got = replay_aggregate(members, name)
        want = oracle(members, name)
    assert_same_answer(got, want)


@pytest.mark.parametrize("name", NAMES)
def test_kernel_on_a_served_looking_window(name):
    rng = np.random.default_rng(20240)
    values = np.cumsum(rng.normal(size=64)).tolist()
    members = members_of(values, [0.25] * 64, stream_id="s17")
    assert_same_answer(replay_aggregate(members, name), oracle(members, name))


@pytest.mark.parametrize("name,want", [("max", -0.0), ("min", -0.0)])
def test_extreme_ties_go_to_the_later_value(name, want):
    members = members_of([0.0, -0.0], [0.1, 0.1])
    got = replay_aggregate(members, name)
    assert bits(got.value) == bits(want)
    assert_same_answer(got, oracle(members, name))
    flipped = members_of([-0.0, 0.0], [0.1, 0.1])
    assert bits(replay_aggregate(flipped, name).value) == bits(0.0)


def test_sum_is_the_compensated_recurrence_not_a_pairwise_sum():
    values = [1e16, 1.0, -1e16, 1.0] * 4
    members = members_of(values, [0.0] * len(values))
    got = replay_aggregate(members, "sum")
    assert_same_answer(got, oracle(members, "sum"))
    assert got.value == 8.0  # a naive left-to-right sum loses every 1.0 after 1e16
    assert SumAggregate().of([]) == 0.0


def test_integer_valued_members_coerce_as_add_does():
    members = members_of([3, 1, 2, 2**53 + 1], [0.0, 0.5, 0.0, 0.25])
    for name in NAMES:
        assert_same_answer(replay_aggregate(members, name), oracle(members, name))


class LastValue(Aggregate):
    """A third-party aggregate with no ``of`` of its own."""

    name = "count"  # borrow a propagation rule

    def __init__(self) -> None:
        self.seen: list[float] = []

    def add(self, x: float) -> None:
        self.seen.append(float(x))

    def remove(self, x: float) -> None:
        self.seen.pop(0)

    def value(self) -> float:
        if not self.seen:
            raise QueryError("empty")
        return self.seen[-1]

    def fresh(self) -> "LastValue":
        return LastValue()


def test_subclass_without_of_answers_through_the_default():
    members = members_of([4.0, 9.0, 2.5], [0.1, 0.2, 0.3])
    agg = LastValue()
    got = replay_aggregate(members, agg)
    assert got.value == 2.5
    assert got.stream_id == "s/count"
    assert agg.seen == []  # the default worked on a fresh() copy
    assert_same_answer(got, oracle(members, LastValue()))


@pytest.mark.parametrize("name", NAMES)
def test_of_leaves_incremental_state_untouched(name):
    agg = make_aggregate(name)
    for x in (5.0, -2.0, 7.5):
        agg.add(x)
    before = agg.value()
    members = members_of([1.0, 100.0, -50.0, 3.0], [0.1] * 4)
    assert agg.of([1.0, 100.0, -50.0, 3.0]) == make_aggregate(name).of(
        [1.0, 100.0, -50.0, 3.0]
    )
    assert_same_answer(replay_aggregate(members, agg), oracle(members, name))
    assert bits(agg.value()) == bits(before)
    agg.remove(5.0)  # FIFO bookkeeping still intact
    agg.add(1.0)
    fresh = make_aggregate(name)
    for x in (-2.0, 7.5, 1.0):
        fresh.add(x)
    assert bits(agg.value()) == bits(fresh.value())


@pytest.mark.parametrize("name", ["mean", "var", "min", "max", "median", "q0.95"])
def test_of_an_empty_list_raises_what_value_raises(name):
    with pytest.raises(QueryError) as from_of:
        make_aggregate(name).of([])
    with pytest.raises(QueryError) as from_value:
        make_aggregate(name).value()
    assert str(from_of.value) == str(from_value.value)


@pytest.mark.parametrize("name", NAMES)
def test_one_answer_is_one_value_and_one_bound_call(name, monkeypatch):
    """O(n): the bound rule runs once and the value is formed once."""
    calls = {"bound": 0, "of": 0}
    real_bound = operators.aggregate_bound
    agg = make_aggregate(name)
    real_of = agg.of

    def counting_bound(*args):
        calls["bound"] += 1
        return real_bound(*args)

    def counting_of(values):
        calls["of"] += 1
        return real_of(values)

    monkeypatch.setattr(operators, "aggregate_bound", counting_bound)
    agg.of = counting_of
    members = members_of([float(k % 7) for k in range(64)], [0.5] * 64)
    replay_aggregate(members, agg)
    assert calls == {"bound": 1, "of": 1}


def test_default_of_reads_value_once():
    class Counting(LastValue):
        reads = 0

        def value(self) -> float:
            Counting.reads += 1
            return super().value()

        def fresh(self) -> "Counting":
            return Counting()

    members = members_of([float(k) for k in range(64)], [0.5] * 64)
    replay_aggregate(members, Counting())
    assert Counting.reads == 1


def test_empty_member_list_is_a_query_error_about_members():
    with pytest.raises(QueryError, match="aggregate of an empty member list"):
        replay_aggregate((), "mean")
    with pytest.raises(QueryError, match="aggregate of an empty member list"):
        replay_aggregate([], "no-such-aggregate")  # before touching the aggregate
