"""Keep-hot signature cache: bitwise re-serves, version invalidation.

The healthy serving path memoizes fresh range/aggregate answers by
signature and re-serves them while the store's content version is
unchanged.  Pinned here: a hit is bitwise the fresh answer and *not*
flagged degraded, evaluation really is skipped (span count), any ingest
or tick advance invalidates live entries, historical answers stay
servable forever, point queries never cache, a stale entry under
overload is served degraded and widened, and a hit at an unchanged
version is served fresh even under overload.
"""

import asyncio

import numpy as np

from repro.obs import Telemetry
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


def _eval_count(tel, kind):
    """Fresh evaluations of a query kind = spans recorded for it."""
    stats = tel.spans.get(f"serving.{kind}")
    return 0 if stats is None else stats.count


class TestKeepHot:
    def test_repeat_aggregate_hits_cache_bitwise(self):
        tel = Telemetry()
        store = _store()
        server = QueryServer(store, telemetry=tel)
        query = AggregateQuery("s0", "mean", 16)
        first = _handle(server, query)
        assert _eval_count(tel, "aggregate") == 1
        second = _handle(server, query)
        # No second evaluation — and the answer is the same tuple object,
        # the strongest form of bitwise.
        assert _eval_count(tel, "aggregate") == 1
        assert second.tuples == first.tuples
        assert not second.degraded and second.staleness_ticks == 0
        assert server.cache_hits == 1
        families = {f.name: f for f in tel.metrics.families()}
        hits = families["repro_serving_cache_hits_total"].instances
        assert sum(m.value for m in hits.values()) == 1

    def test_repeat_range_hits_cache(self):
        tel = Telemetry()
        server = QueryServer(_store(), telemetry=tel)
        query = RangeQuery("s1", 7)
        first = _handle(server, query)
        second = _handle(server, query)
        assert _eval_count(tel, "range") == 1
        assert second.tuples == first.tuples
        assert not second.degraded

    def test_point_queries_never_cache(self):
        tel = Telemetry()
        server = QueryServer(_store(), telemetry=tel)
        _handle(server, PointQuery("s0"))
        _handle(server, PointQuery("s0"))
        assert _eval_count(tel, "point") == 2
        assert server.cache_hits == 0

    def test_advance_tick_invalidates(self):
        tel = Telemetry()
        store = _store()
        server = QueryServer(store, telemetry=tel)
        query = AggregateQuery("s0", "mean", 16)
        _handle(server, query)
        store.advance_tick()
        resp = _handle(server, query)
        assert _eval_count(tel, "aggregate") == 2
        assert not resp.degraded

    def test_mid_tick_ingest_invalidates(self):
        """An ingest without a tick advance must still invalidate."""
        tel = Telemetry()
        store = _store()
        server = QueryServer(store, telemetry=tel)
        query = AggregateQuery("s0", "mean", 16)
        stale = _handle(server, query)
        store.ingest("s0", 99.0, 42.0)
        resp = _handle(server, query)
        assert _eval_count(tel, "aggregate") == 2
        assert resp.value != stale.value
        assert resp.value == store.window_aggregate("s0", "mean", 16).value

    def test_other_stream_ingest_also_invalidates(self):
        """Version is store-global: coarse, but never serves stale data."""
        tel = Telemetry()
        store = _store()
        server = QueryServer(store, telemetry=tel)
        query = AggregateQuery("s0", "mean", 16)
        first = _handle(server, query)
        store.ingest("s1", 99.0, 0.0)
        second = _handle(server, query)
        assert _eval_count(tel, "aggregate") == 2
        # s0 itself did not change, so the re-evaluation agrees bitwise.
        assert second.tuples == first.tuples

    def test_refreshed_entry_caches_again(self):
        tel = Telemetry()
        store = _store()
        server = QueryServer(store, telemetry=tel)
        query = RangeQuery("s0", 5)
        _handle(server, query)
        store.advance_tick()
        _handle(server, query)  # miss, re-evaluates, re-memoizes
        _handle(server, query)  # hit again
        assert _eval_count(tel, "range") == 2
        assert server.cache_hits == 1


class TestOverloadSemanticsUnchanged:
    def test_degraded_path_still_widens_and_flags(self):
        """Under overload a stale entry (the store ticked since) still
        serves degraded with widened bounds, exactly as before the cache."""
        store = _store()
        server = QueryServer(
            store, admission=AdmissionConfig(max_inflight=1, drift_per_tick=1.0)
        )
        query = AggregateQuery("s0", "mean", 16)
        fresh = _handle(server, query)
        store.advance_tick()
        store.advance_tick()

        async def burst():
            return await asyncio.gather(
                *(server.handle(query) for _ in range(8))
            )

        responses = asyncio.run(burst())
        degraded = [r for r in responses if r.degraded]
        assert degraded
        for r in degraded:
            assert r.reason == "overload"
            assert r.staleness_ticks == 2
            assert r.bound == fresh.bound + 1.0 * store.bounds["s0"] * 2
        assert all(r.value == fresh.value for r in responses)

    def test_fresh_hit_beats_overload(self):
        """Overloaded + cached at an unchanged store version: the cached
        answer IS the fresh one, so every response is served undegraded,
        bitwise, with zero staleness and no re-evaluation."""
        tel = Telemetry()
        store = _store()
        server = QueryServer(
            store, admission=AdmissionConfig(max_inflight=1), telemetry=tel
        )
        query = AggregateQuery("s0", "mean", 16)
        fresh = _handle(server, query)

        async def burst():
            return await asyncio.gather(
                *(server.handle(query) for _ in range(8))
            )

        responses = asyncio.run(burst())
        assert server.overloaded is False and server.requests_degraded == 0
        for r in responses:
            assert not r.degraded and r.reason is None
            assert r.staleness_ticks == 0
            assert r.tuples == fresh.tuples
            assert (r.value, r.bound) == (fresh.value, fresh.bound)
        assert server.cache_hits == 8
        assert _eval_count(tel, "aggregate") == 1
