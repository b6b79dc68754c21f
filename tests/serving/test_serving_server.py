"""QueryServer: correctness, concurrency soundness, honest overload.

Three claims under test.  (1) Served answers equal direct store
evaluation — the async front-end adds no arithmetic.  (2) Under real
asyncio concurrency every response's precision interval still contains
the value direct evaluation produces, and bounds stay bitwise-correct
for fresh answers.  (3) Overload degrades honestly: responses are
flagged, bounds widen by the configured drift allowance, nothing is
dropped, and the overload events land in the trace.
"""

import asyncio

import numpy as np
import pytest

from repro.errors import ServingError
from repro.obs import Telemetry, tracing
from repro.serving import (
    AdmissionConfig,
    AggregateQuery,
    PointQuery,
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


class TestCorrectness:
    def test_point_matches_store(self):
        store = _store()
        server = QueryServer(store)
        resp = _handle(server, PointQuery("s0"))
        assert not resp.degraded and resp.reason is None
        assert resp.answer == store.point("s0")
        assert resp.latency_s >= 0.0

    def test_range_matches_store(self):
        store = _store()
        resp = _handle(QueryServer(store), RangeQuery("s1", 7))
        assert resp.tuples == store.range_query("s1", 7)

    @pytest.mark.parametrize("aggregate", ["mean", "sum", "min", "max", "median"])
    def test_aggregate_bitwise_matches_direct_evaluation(self, aggregate):
        store = _store()
        resp = _handle(QueryServer(store), AggregateQuery("s0", aggregate, 16))
        direct = store.window_aggregate("s0", aggregate, 16)
        assert resp.value == direct.value
        assert resp.bound == direct.bound

    def test_unknown_stream_is_an_error_not_a_degrade(self):
        server = QueryServer(_store())
        with pytest.raises(ServingError):
            _handle(server, PointQuery("missing"))

    def test_unwarmed_window_is_an_error(self):
        store = ServingStore({"s": 1.0})
        store.ingest("s", 0.0, 1.0)
        store.advance_tick()
        with pytest.raises(ServingError):
            _handle(QueryServer(store), AggregateQuery("s", "mean", 8))


class TestConcurrencySoundness:
    def test_concurrent_mixed_queries_all_sound(self):
        """100 interleaved requests: every answer equals direct evaluation."""
        store = _store()
        server = QueryServer(store, AdmissionConfig(max_inflight=1000))
        requests = []
        rng = np.random.default_rng(0)
        for _ in range(100):
            sid = ("s0", "s1")[int(rng.integers(2))]
            kind = int(rng.integers(3))
            if kind == 0:
                requests.append(PointQuery(sid))
            elif kind == 1:
                requests.append(RangeQuery(sid, int(rng.integers(1, 20))))
            else:
                requests.append(AggregateQuery(sid, "mean", int(rng.integers(1, 20))))

        async def fire():
            return await asyncio.gather(*(server.handle(r) for r in requests))

        responses = asyncio.run(fire())
        assert len(responses) == 100
        for req, resp in zip(requests, responses):
            assert not resp.degraded  # limit never crossed
            if isinstance(req, PointQuery):
                assert resp.answer == store.point(req.stream_id)
            elif isinstance(req, RangeQuery):
                assert resp.tuples == store.range_query(req.stream_id, req.size)
            else:
                direct = store.window_aggregate(req.stream_id, "mean", req.size)
                assert resp.value == direct.value and resp.bound == direct.bound

    def test_inflight_returns_to_zero(self):
        server = QueryServer(_store())

        async def fire():
            await asyncio.gather(*(server.handle(PointQuery("s0")) for _ in range(32)))

        asyncio.run(fire())
        assert server.inflight == 0
        assert not server.overloaded
        assert server.requests_served == 32


class TestOverload:
    def test_burst_degrades_honestly(self):
        store = _store()
        server = QueryServer(
            store, AdmissionConfig(max_inflight=2, drift_per_tick=1.0)
        )
        query = AggregateQuery("s0", "mean", 8)
        fresh = _handle(server, query)  # caches the signature
        store.advance_tick()  # the cached answer is now one tick stale

        async def burst():
            return await asyncio.gather(*(server.handle(query) for _ in range(40)))

        responses = asyncio.run(burst())
        degraded = [r for r in responses if r.degraded]
        assert degraded, "a 40-deep burst over max_inflight=2 must degrade"
        assert len(responses) == 40  # nothing dropped
        for r in degraded:
            assert r.reason == "overload"
            assert r.value == fresh.value  # stale cached value
            # One tick of staleness: widened by exactly drift x delta x 1,
            # and the flag marks the suspended freshness contract.
            assert r.staleness_ticks == 1
            assert r.bound == fresh.bound + 1.0 * store.bounds["s0"]

    def test_degraded_bound_widens_with_staleness(self):
        store = _store()
        server = QueryServer(
            store, AdmissionConfig(max_inflight=1, drift_per_tick=2.0)
        )
        query = AggregateQuery("s0", "mean", 8)
        fresh = _handle(server, query)
        for k in range(3):  # three ingest ticks of staleness
            store.ingest("s0", 100.0 + k, 10.0)
            store.advance_tick()

        async def pair():
            return await asyncio.gather(server.handle(query), server.handle(query))

        responses = asyncio.run(pair())
        degraded = [r for r in responses if r.degraded]
        assert degraded
        expected_widen = 2.0 * store.bounds["s0"] * 3
        for r in degraded:
            assert r.staleness_ticks == 3
            assert r.bound == fresh.bound + expected_widen

    def test_point_queries_never_degrade(self):
        server = QueryServer(_store(), AdmissionConfig(max_inflight=1))
        _handle(server, PointQuery("s0"))

        async def burst():
            return await asyncio.gather(
                *(server.handle(PointQuery("s0")) for _ in range(20))
            )

        assert not any(r.degraded for r in asyncio.run(burst()))

    def test_cache_miss_under_overload_evaluates_fresh(self):
        server = QueryServer(_store(), AdmissionConfig(max_inflight=1))

        async def burst():
            # Distinct signatures: no request has a cached predecessor.
            return await asyncio.gather(
                *(server.handle(RangeQuery("s0", size)) for size in range(1, 21))
            )

        responses = asyncio.run(burst())
        assert not any(r.degraded for r in responses)
        assert len(responses) == 20

    def test_overload_events_traced_on_transitions_only(self):
        tel = Telemetry()
        server = QueryServer(
            _store(), AdmissionConfig(max_inflight=2), telemetry=tel
        )
        query = AggregateQuery("s0", "mean", 8)
        _handle(server, query)

        async def burst():
            await asyncio.gather(*(server.handle(query) for _ in range(30)))

        asyncio.run(burst())
        enters = tel.tracer.events(tracing.OVERLOAD_ENTER)
        exits = tel.tracer.events(tracing.OVERLOAD_EXIT)
        assert len(enters) == 1  # one transition in, not one event per request
        assert len(exits) == 1
        assert dict(enters[0].fields)["inflight"] > 2


class TestTelemetry:
    def test_request_metrics_recorded(self):
        tel = Telemetry()
        server = QueryServer(_store(), telemetry=tel)
        _handle(server, PointQuery("s0"))
        _handle(server, AggregateQuery("s0", "mean", 8))
        counters = tel.metrics.counter("repro_serving_requests_total", kind="point")
        assert counters.value == 1
        agg = tel.metrics.counter("repro_serving_requests_total", kind="aggregate")
        assert agg.value == 1
        hist = tel.metrics.histogram("repro_serving_latency_seconds", kind="point")
        assert hist.count == 1
        assert tel.metrics.gauge("repro_serving_inflight").value == 0

    def test_null_telemetry_default_records_nothing(self):
        server = QueryServer(_store())
        assert not server._tel.enabled
        _handle(server, PointQuery("s0"))  # must not raise


class TestAdmissionConfig:
    def test_validation(self):
        with pytest.raises(ServingError):
            AdmissionConfig(max_inflight=0)
        with pytest.raises(ServingError):
            AdmissionConfig(drift_per_tick=-0.5)
