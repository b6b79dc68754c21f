"""Regression tests for the serving-tier bugfix sweeps.

Defects pinned here so they cannot regress:

1. ``ServingStore.ingest`` silently accepted out-of-order and duplicate
   per-stream timestamps, corrupting the sorted-ring invariant that
   ``oldest_t`` / ``tuples_between`` / hybrid stitching rely on.  It now
   raises a diagnosed :class:`~repro.errors.ServingError`.
2. ``load_fleet_history`` surfaced a raw ``IndexError`` for an
   out-of-range component instead of the validated ``ServingError`` that
   ``ingest_tick`` raises (and ``ingest_tick``'s own check rejected
   negative components only by accident of Python indexing).
3. ``QueryServer``'s keep-hot signature cache grew without bound — one
   entry per distinct signature, forever.  It is now a capacity-bounded
   LRU with an eviction counter, and the overload/degraded and keep-hot
   semantics are unchanged when capacity is ample.
4. ``ServingStore.ingest`` let a NaN ``t`` past the monotonicity guard
   (unsorted ring) and accepted non-finite values that only the
   archive's eviction hook refused, after the ring had dropped them.
5. An unknown aggregate name escaped ``QueryServer.handle`` as a
   ``ConfigurationError`` from inside ``make_aggregate``; both aggregate
   request types now refuse it at construction with a ``ServingError``.
6. ``ServingStore.tuples_between`` compared every resident tuple; it now
   bisects the sorted ring — same tuples, same closed ends.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import ServingError
from repro.obs import Telemetry
from repro.serving import (
    AdmissionConfig,
    AggregateQuery,
    HistoryAggregateQuery,
    QueryServer,
    RangeQuery,
    ServingStore,
)


def _store(n=40, history=64):
    store = ServingStore({"s0": 0.5, "s1": 1.25}, history=history)
    rng = np.random.default_rng(9)
    for k in range(n):
        store.ingest("s0", k, float(rng.normal(10.0, 2.0)))
        store.ingest("s1", k, float(rng.normal(-4.0, 1.0)))
        store.advance_tick()
    return store


def _handle(server, request):
    return asyncio.run(server.handle(request))


class _FakeFleetServer:
    """Just enough of StreamServer for ingest_tick: value(sid) -> ndarray."""

    def __init__(self, values):
        self._values = values

    def value(self, stream_id):
        return self._values.get(stream_id)


class TestIngestMonotonicity:
    def test_duplicate_timestamp_rejected(self):
        store = ServingStore({"s0": 0.5})
        store.ingest("s0", 3.0, 1.0)
        with pytest.raises(ServingError, match="non-monotone"):
            store.ingest("s0", 3.0, 2.0)

    def test_decreasing_timestamp_rejected_with_diagnosis(self):
        store = ServingStore({"s0": 0.5})
        store.ingest("s0", 5.0, 1.0)
        with pytest.raises(ServingError) as err:
            store.ingest("s0", 4.0, 2.0)
        msg = str(err.value)
        assert "'s0'" in msg and "4.0" in msg and "5.0" in msg

    def test_rejected_ingest_leaves_ring_and_version_untouched(self):
        store = ServingStore({"s0": 0.5})
        store.ingest("s0", 5.0, 1.0)
        version = store.version
        with pytest.raises(ServingError):
            store.ingest("s0", 5.0, 2.0)
        assert store.version == version
        assert store.history_len("s0") == 1
        assert store.point("s0").value == 1.0

    def test_streams_are_independent(self):
        store = ServingStore({"s0": 0.5, "s1": 1.25})
        store.ingest("s0", 10.0, 1.0)
        # s1 has no history yet, so an "earlier" t is fine there.
        store.ingest("s1", 2.0, 7.0)
        store.ingest("s0", 11.0, 1.5)
        assert store.point("s1").t == 2.0

    def test_ring_stays_sorted_suffix(self):
        # The invariant the check protects: pre-fix, an out-of-order
        # ingest would land *after* newer tuples and break tuples_between.
        store = ServingStore({"s0": 0.5}, history=8)
        for t in (1.0, 2.0, 5.0):
            store.ingest("s0", t, t)
        with pytest.raises(ServingError):
            store.ingest("s0", 3.0, 99.0)
        ts = [tup.t for tup in store.tuples_between("s0", 0.0, 10.0)]
        assert ts == sorted(ts) == [1.0, 2.0, 5.0]


class TestIngestFiniteness:
    """A NaN ``t`` passes every ``<=`` test; a NaN value poisons evictions."""

    @pytest.mark.parametrize("t", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_t_rejected_and_ring_stays_sorted(self, t):
        store = ServingStore({"a": 0.5}, history=8)
        store.ingest("a", 0.0, 1.0)
        version = store.version
        with pytest.raises(ServingError, match="non-finite"):
            store.ingest("a", t, 2.0)
        assert store.version == version and store.history_len("a") == 1
        store.ingest("a", 0.5, 3.0)
        assert [tup.t for tup in store.tuples_between("a", -1.0, 1.0)] == [0.0, 0.5]
        assert store.oldest_t("a") == 0.0

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_value_rejected_before_the_ring_evicts(self, value):
        # Pre-fix the ring took the tuple and only the eviction hook
        # refused it later — after the ring had dropped it (a hole in
        # ring U archive).
        evicted = []
        store = ServingStore({"a": 0.5}, history=1, on_evict=evicted.append)
        store.ingest("a", 0.0, 1.0)
        version = store.version
        with pytest.raises(ServingError, match="non-finite"):
            store.ingest("a", 1.0, value)
        assert store.version == version and not evicted
        assert store.point("a").value == 1.0


class TestComponentValidation:
    def test_load_fleet_history_out_of_range_component_is_diagnosed(self):
        store = ServingStore({"s0": 0.5, "s1": 1.25})
        served = np.zeros((5, 2, 3))
        with pytest.raises(ServingError, match="no component 3"):
            store.load_fleet_history(["s0", "s1"], served, component=3)

    def test_load_fleet_history_negative_component_rejected(self):
        store = ServingStore({"s0": 0.5})
        with pytest.raises(ServingError, match="no component -1"):
            store.load_fleet_history(["s0"], np.zeros((4, 1, 2)), component=-1)

    def test_load_fleet_history_rejects_before_any_ingest(self):
        # Pre-fix this raised IndexError mid-load, leaving a partial ring.
        store = ServingStore({"s0": 0.5})
        with pytest.raises(ServingError):
            store.load_fleet_history(["s0"], np.ones((4, 1, 1)), component=5)
        assert store.history_len("s0") == 0
        assert store.tick == 0

    def test_load_fleet_history_valid_component_works(self):
        store = ServingStore({"s0": 0.5})
        served = np.arange(8.0).reshape(4, 1, 2)
        store.load_fleet_history(["s0"], served, component=1)
        assert store.point("s0").value == 7.0
        assert store.tick == 4

    def test_ingest_tick_out_of_range_component_matches(self):
        fake = _FakeFleetServer({"s0": np.array([1.0, 2.0])})
        store = ServingStore({"s0": 0.5}, server=fake)
        with pytest.raises(ServingError, match="no component 2"):
            store.ingest_tick(0.0, component=2)

    def test_ingest_tick_negative_component_rejected(self):
        fake = _FakeFleetServer({"s0": np.array([1.0, 2.0])})
        store = ServingStore({"s0": 0.5}, server=fake)
        with pytest.raises(ServingError, match="no component -1"):
            store.ingest_tick(0.0, component=-1)

    def test_ingest_tick_valid_component_works(self):
        fake = _FakeFleetServer({"s0": np.array([1.0, 2.0])})
        store = ServingStore({"s0": 0.5}, server=fake)
        store.ingest_tick(0.0, component=1)
        assert store.point("s0").value == 2.0


class TestBoundedLruCache:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ServingError, match="cache_capacity"):
            AdmissionConfig(cache_capacity=0)

    def test_cache_never_exceeds_capacity_and_counts_evictions(self):
        tel = Telemetry()
        server = QueryServer(
            _store(),
            admission=AdmissionConfig(cache_capacity=4),
            telemetry=tel,
        )
        for size in range(1, 11):
            _handle(server, RangeQuery("s0", size))
        assert len(server._cache) == 4
        assert server.cache_evictions == 6
        families = {f.name: f for f in tel.metrics.families()}
        evictions = families["repro_serving_cache_evictions_total"].instances
        assert sum(m.value for m in evictions.values()) == 6

    def test_reads_refresh_recency(self):
        server = QueryServer(
            _store(), admission=AdmissionConfig(cache_capacity=2)
        )
        hot = AggregateQuery("s0", "mean", 8)
        _handle(server, hot)
        _handle(server, RangeQuery("s0", 3))
        _handle(server, hot)  # cache hit — refreshes recency
        assert server.cache_hits == 1
        _handle(server, RangeQuery("s0", 4))  # evicts the range-3 entry
        hits_before = server.cache_hits
        _handle(server, hot)
        assert server.cache_hits == hits_before + 1
        assert server.cache_evictions == 1

    def test_capacity_one_still_serves_repeats(self):
        server = QueryServer(
            _store(), admission=AdmissionConfig(cache_capacity=1)
        )
        query = AggregateQuery("s0", "mean", 8)
        first = _handle(server, query)
        second = _handle(server, query)
        assert second.tuples == first.tuples
        assert server.cache_hits == 1
        assert len(server._cache) == 1

    def test_keep_hot_semantics_unchanged_with_ample_capacity(self):
        # Same assertions the keep-hot suite pins, run against the LRU.
        tel = Telemetry()
        server = QueryServer(_store(), telemetry=tel)
        query = AggregateQuery("s0", "mean", 16)
        first = _handle(server, query)
        second = _handle(server, query)
        assert second.tuples == first.tuples
        assert not second.degraded and second.staleness_ticks == 0
        assert server.cache_hits == 1 and server.cache_evictions == 0
        assert tel.spans.get("serving.aggregate").count == 1

    def test_degraded_answers_still_come_from_cache_after_evictions(self):
        store = _store()
        server = QueryServer(
            store,
            admission=AdmissionConfig(
                max_inflight=1, drift_per_tick=1.0, cache_capacity=8
            ),
        )
        query = RangeQuery("s0", 5)
        fresh = _handle(server, query)
        for k in range(3):
            store.ingest("s0", 100.0 + k, 10.0)
            store.advance_tick()

        async def burst():
            return await asyncio.gather(
                *(server.handle(query) for _ in range(6))
            )

        answers = asyncio.run(burst())
        degraded = [a for a in answers if a.degraded]
        assert degraded, "overload burst should degrade some answers"
        for answer in degraded:
            assert answer.reason == "overload"
            assert answer.staleness_ticks == 3
            # Cached values re-served bitwise; bounds widened by the
            # advertised drift (3 ticks x drift 1.0 x delta 0.5).
            assert [t.value for t in answer.tuples] == [
                t.value for t in fresh.tuples
            ]
            assert [t.bound for t in answer.tuples] == [
                t.bound + 1.5 for t in fresh.tuples
            ]


class TestUnknownAggregateName:
    ACCEPTED = "accepted: count, sum, mean, avg, var, min, max, median, or qX"
    OUT_OF_RANGE = r"q must be in \[0,1\]"
    REFUSED = [
        ("nope", ACCEPTED), ("qx", ACCEPTED), ("q", ACCEPTED), ("", ACCEPTED),
        ("q1.5", OUT_OF_RANGE), ("qnan", OUT_OF_RANGE),
    ]
    BAD = [name for name, _why in REFUSED]

    @pytest.mark.parametrize("name,why", REFUSED)
    def test_aggregate_query_refuses_it_as_a_serving_error(self, name, why):
        with pytest.raises(ServingError, match=why):
            AggregateQuery("s0", name, 4)

    @pytest.mark.parametrize("name,why", REFUSED)
    def test_history_aggregate_query_refuses_it_as_a_serving_error(self, name, why):
        with pytest.raises(ServingError, match=why):
            HistoryAggregateQuery("s0", name, 0.0, 3.0)

    @pytest.mark.parametrize("name", BAD)
    def test_nothing_but_a_serving_error_leaves_handle(self, name):
        server = QueryServer(_store())
        with pytest.raises(ServingError):
            _handle(server, AggregateQuery("s0", name, 4))
        with pytest.raises(ServingError):
            _handle(server, HistoryAggregateQuery("s0", name, 30.0, 35.0))

    @pytest.mark.parametrize(
        "name", ["count", "sum", "mean", "avg", "var", "min", "max", "median",
                 "q0", "q0.95", "q1"],
    )
    def test_every_accepted_form_still_answers(self, name):
        server = QueryServer(_store())
        live = _handle(server, AggregateQuery("s0", name, 4))
        past = _handle(server, HistoryAggregateQuery("s0", name, 36.0, 39.0))
        assert (live.value, live.bound) == (past.value, past.bound)


class TestTuplesBetweenBisects:
    @staticmethod
    def _scan(store, sid, lo, hi):
        return tuple(t for t in store._rings[sid] if lo <= t.t <= hi)

    @pytest.mark.parametrize(
        "lo,hi",
        [
            (100.0, 163.0), (30.0, 39.0), (136.0, 199.0),  # middle, both ends
            (0.0, 1e9), (136.0, 136.0), (199.0, 199.0),  # all, single ticks
            (140.5, 140.75), (150.5, 160.5),  # between ticks
            (0.0, 135.0), (200.0, 300.0), (135.5, 135.9),  # miss the ring
            (float("-inf"), float("inf")), (160.0, 150.0),
        ],
    )
    def test_same_tuples_as_the_full_scan(self, lo, hi):
        store = _store(n=200, history=64)  # resident ticks 136..199
        got = store.tuples_between("s0", lo, hi)
        assert got == self._scan(store, "s0", lo, hi)
        assert all(a is b for a, b in zip(got, self._scan(store, "s0", lo, hi)))

    def test_closed_at_both_ends(self):
        store = _store(n=200, history=64)
        ts = [t.t for t in store.tuples_between("s1", 140.0, 143.0)]
        assert ts == [140.0, 141.0, 142.0, 143.0]

    def test_cold_ring_and_unknown_stream(self):
        store = ServingStore({"s0": 0.5}, history=8)
        assert store.tuples_between("s0", 0.0, 10.0) == ()
        with pytest.raises(ServingError, match="unknown stream"):
            store.tuples_between("nope", 0.0, 10.0)
