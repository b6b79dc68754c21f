"""Regression tests for the serving-tier bugfix sweeps.

Defects pinned here so they cannot regress:

1. ``ServingStore.ingest`` silently accepted out-of-order and duplicate
   per-stream timestamps, corrupting the sorted-ring invariant that
   ``oldest_t`` / ``tuples_between`` / hybrid stitching rely on.  It now
   raises a diagnosed :class:`~repro.errors.ServingError`.
2. ``load_fleet_history`` surfaced a raw ``IndexError`` for an
   out-of-range component, and took a negative one as counting from the
   end; both are now a validated ``ServingError``.
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
7. ``ServingStore`` accepted a NaN or infinite δ and ``AdmissionConfig``
   a NaN ``drift_per_tick`` (``x < 0`` is False for NaN).  An ∞-bound
   tuple then reached the archive's eviction hook only after the ring
   had dropped it, and was lost from ring ∪ archive.  Both now refuse
   a non-finite value at construction with a ``ServingError``.
8. Sizes and admission limits took any value that compared: a fractional
   ``RangeQuery`` / ``AggregateQuery`` size was accepted and then raised a
   raw ``TypeError`` inside ``handle``; a string size raised one at
   construction; a NaN ``max_inflight`` disabled overload and a NaN
   ``cache_capacity`` disabled eviction; a fractional ``history`` raised
   from ``deque``.  Each must now be an integer >= 1 (``bool`` refused),
   else a ``ServingError`` at construction.
9. An eviction the hook refused was lost: the ring had already dropped
   the old tuple (and moved ``version``) before ``on_evict`` raised.  The
   hook now sees the tuple first, and ``attach_evictions`` refuses a
   store with streams its writer does not know.
10. Under overload a cached answer was widened by store *ticks* only:
    after an ``ingest`` with no ``advance_tick`` it came back with
    staleness 0 and its old bound (a 4-member mean re-served as
    1.0 ± 0.5 while the fresh answer was 25.75).  A cached answer whose
    store version moved is now at least one tick stale.
11. ``ServingStore.range_query`` / ``window_aggregate`` checked only
    ``size < 1``: ``2.5`` raised a raw ``ValueError`` from ``islice`` and
    ``True`` answered as size 1.  Sizes are now integers >= 1, else a
    ``ServingError``.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import HistoryError, ServingError
from repro.history import ArchiveWriter
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


class TestNonFiniteBound:
    """A non-finite δ is refused before any tuple can carry it."""

    @pytest.mark.parametrize("delta", [float("nan"), float("inf"), -float("inf")])
    def test_store_refuses_nonfinite_bound(self, delta):
        with pytest.raises(ServingError, match="must be finite"):
            ServingStore({"ok": 0.5, "s": delta})

    @pytest.mark.parametrize("drift", [float("nan"), float("inf")])
    def test_admission_refuses_nonfinite_drift(self, drift):
        with pytest.raises(ServingError, match="drift_per_tick must be finite"):
            AdmissionConfig(drift_per_tick=drift)

    def test_infinite_bound_cannot_lose_a_tuple_between_ring_and_archive(self, tmp_path):
        # Pre-fix the store took δ=inf; the first eviction then raised in
        # the archive's hook after the ring had dropped t=0, which ended
        # up in neither.  Now the store is never built.
        with ArchiveWriter(tmp_path / "a.sqlite", {"s": 0.5}) as writer:
            with pytest.raises(ServingError, match="must be finite"):
                ServingStore({"s": float("inf")}, history=1,
                             on_evict=writer.ingest_tuple)
            assert writer.pending == 0


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


class TestIntegerSizes:
    """Sizes and limits are integers >= 1; anything else is refused up front."""

    def test_fractional_range_size_refused_before_admission(self):
        with pytest.raises(ServingError, match="integer"):
            RangeQuery("s0", 2.5)

    def test_fractional_window_size_refused_before_admission(self):
        with pytest.raises(ServingError, match="integer"):
            AggregateQuery("s0", "mean", 2.5)

    def test_string_range_size_is_a_serving_error(self):
        with pytest.raises(ServingError, match="integer"):
            RangeQuery("s0", "3")

    @pytest.mark.parametrize("field", ["max_inflight", "cache_capacity"])
    @pytest.mark.parametrize("bad", [float("nan"), 2.5, True, "4", 0])
    def test_admission_limits_must_be_integers(self, field, bad):
        with pytest.raises(ServingError, match=field):
            AdmissionConfig(**{field: bad})

    def test_nan_cache_capacity_can_no_longer_disable_eviction(self):
        # Pre-fix ``len(cache) > nan`` was never true: unbounded growth.
        with pytest.raises(ServingError, match="cache_capacity"):
            QueryServer(_store(), admission=AdmissionConfig(cache_capacity=float("nan")))

    @pytest.mark.parametrize("bad", [2.5, float("nan"), True, "8", None])
    def test_history_must_be_an_integer(self, bad):
        with pytest.raises(ServingError, match="history"):
            ServingStore({"s0": 0.5}, history=bad)

    @pytest.mark.parametrize("bad", [2.5, True, float("nan")], ids=repr)
    def test_store_queries_refuse_a_non_integer_size(self, bad):
        store = _store()
        with pytest.raises(ServingError, match="size must be an integer"):
            store.range_query("s0", bad)
        with pytest.raises(ServingError, match="size must be an integer"):
            store.window_aggregate("s0", "mean", bad)

    def test_numpy_integers_are_integers(self):
        store = _store()
        server = QueryServer(
            store, admission=AdmissionConfig(max_inflight=np.int64(2), cache_capacity=np.int32(8))
        )
        assert len(_handle(server, RangeQuery("s0", np.int64(3))).tuples) == 3
        assert _handle(server, AggregateQuery("s0", "max", np.int16(4))).bound == 0.5
        assert ServingStore({"s0": 0.5}, history=np.int64(4)).history == 4


class TestIngestWithoutTickIsStale:
    def test_an_ingest_without_a_tick_widens_a_degraded_answer(self):
        store = ServingStore({"a": 0.5})
        for t in range(4):
            store.ingest("a", float(t), 1.0)
        server = QueryServer(store, admission=AdmissionConfig(max_inflight=1))
        query = AggregateQuery("a", "mean", 4)
        cached = _handle(server, query)
        assert (cached.value, cached.bound) == (1.0, 0.5)
        store.ingest("a", 4.0, 100.0)  # no advance_tick: tick unchanged
        assert store.tick == 0

        async def burst():
            return await asyncio.gather(*(server.handle(query) for _ in range(4)))

        answers = asyncio.run(burst())
        degraded = [a for a in answers if a.degraded]
        assert degraded, "an overloaded burst should re-serve the cached answer"
        for answer in degraded:
            assert answer.reason == "overload"
            assert answer.staleness_ticks == 1
            assert answer.value == 1.0
            assert answer.bound == 0.5 + 1.0 * 0.5
        # Once in-flight drains, the same request evaluates fresh.
        fresh = _handle(server, query)
        assert not fresh.degraded and fresh.value == 25.75


class TestRefusedEvictionKeepsTheTuple:
    """An eviction the archive refuses must leave ring and version as they were."""

    @staticmethod
    def _full_store(writer=None, bounds=None):
        store = ServingStore(bounds or {"s": 0.5}, history=2)
        if writer is not None:
            writer.attach_evictions(store)
        store.ingest("s", 0.0, 1.0)
        store.ingest("s", 1.0, 2.0)
        return store

    def test_attach_refuses_a_store_with_unknown_streams(self, tmp_path):
        with ArchiveWriter(tmp_path / "a.sqlite", {"s": 0.5}) as writer:
            store = ServingStore({"s": 0.5, "x": 0.5, "y": 1.0}, history=2)
            with pytest.raises(HistoryError, match=r"\['x', 'y'\]"):
                writer.attach_evictions(store)
            assert store.on_evict is None

    def test_attach_accepts_a_store_with_fewer_streams(self, tmp_path):
        with ArchiveWriter(tmp_path / "a.sqlite", {"s": 0.5, "t": 0.5}) as writer:
            store = self._full_store(writer)
            store.ingest("s", 2.0, 3.0)
            assert writer.pending == 1

    def test_an_unknown_stream_eviction_keeps_ring_and_version(self, tmp_path):
        # Reaching the writer without attach_evictions' check: the hook
        # raises on the first eviction, and the ring must not have moved.
        with ArchiveWriter(tmp_path / "a.sqlite", {"other": 0.5}) as writer:
            store = ServingStore({"s": 0.5}, history=2, on_evict=writer.ingest_tuple)
            store.ingest("s", 0.0, 1.0)
            store.ingest("s", 1.0, 2.0)
            version = store.version
            with pytest.raises(HistoryError, match="unknown stream"):
                store.ingest("s", 2.0, 3.0)
            assert store.version == version
            assert [tup.t for tup in store.range_query("s", 2)] == [0.0, 1.0]

    def test_an_eviction_into_a_closed_writer_keeps_the_tuple(self, tmp_path):
        writer = ArchiveWriter(tmp_path / "a.sqlite", {"s": 0.5})
        store = self._full_store(writer)
        writer.close()
        version = store.version
        with pytest.raises(HistoryError, match="closed"):
            store.ingest("s", 2.0, 3.0)
        assert store.version == version
        assert [tup.t for tup in store.range_query("s", 2)] == [0.0, 1.0]
        # Reattached to a live writer, the same ingest now archives t=0.
        with ArchiveWriter(tmp_path / "a.sqlite", {"s": 0.5}) as again:
            again.attach_evictions(store)
            store.ingest("s", 2.0, 3.0)
            assert again.pending == 1
        assert [tup.t for tup in store.range_query("s", 2)] == [1.0, 2.0]

    def test_the_hook_sees_the_ring_before_the_eviction(self):
        seen = []
        store = ServingStore({"s": 0.5}, history=2)
        store.on_evict = lambda tup: seen.append((tup.t, store.oldest_t("s")))
        for t in range(3):
            store.ingest("s", float(t), 0.0)
        assert seen == [(0.0, 0.0)]
