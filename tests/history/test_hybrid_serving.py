"""Hybrid live+historical serving: provenance, parity, honest overload.

The PR's acceptance criterion lives here: historical and hybrid
range/aggregate answers are bitwise-equal (values *and* bounds) to
direct dsms evaluation over the same served tuples — asserted for all
three ways an archive is fed (a bulk fleet trace, ``archive_fleet`` per
tick inside ``on_tick``, ring evictions).
Plus the residency-split provenance labels, stitched-vs-archive
equivalence, and overload honesty for cached historical answers.
"""

import asyncio

import numpy as np
import pytest

from repro.core.manager import FleetEngine
from repro.dsms.operators import WindowAggregate, replay_aggregate
from repro.dsms.tuples import StreamTuple
from repro.errors import ServingError
from repro.history import ArchiveWriter, HistoryStore
from repro.kalman.models import random_walk
from repro.obs import Telemetry
from repro.serving import (
    AdmissionConfig,
    HistoryAggregateQuery,
    HistoryRangeQuery,
    QueryServer,
    ServingStore,
)


def _handle(server, request):
    return asyncio.run(server.handle(request))


def _replay(members, aggregate):
    op = WindowAggregate(aggregate, size=len(members), slide=1, emit_partial=True)
    out = []
    for member in members:
        out = op.process(member)
    return out[0]


def _setup(tmp_path, n=60, ring_history=16):
    """Eviction-fed archive + hot ring over one manually served stream.

    With 60 ingests into a 16-deep ring: t in [44, 59] resident,
    t in [0, 43] archived — so [50, 59] is live, [0, 20] historical,
    [30, 55] straddles the boundary.
    """
    bounds = {"s": 0.5}
    writer = ArchiveWriter(tmp_path / "a.sqlite", bounds, batch_size=8)
    ring = ServingStore(bounds, history=ring_history, on_evict=writer.ingest_tuple)
    rng = np.random.default_rng(2)
    served = []
    for k in range(n):
        value = float(rng.normal(5.0, 1.5))
        ring.ingest("s", float(k), value)
        ring.advance_tick()
        served.append(
            StreamTuple(t=float(k), stream_id="s", value=value, bound=0.5)
        )
    writer.flush()
    history = HistoryStore(tmp_path / "a.sqlite")
    return ring, history, writer, served


class TestProvenance:
    def test_resident_interval_is_live(self, tmp_path):
        ring, history, _, served = _setup(tmp_path)
        server = QueryServer(ring, history=history)
        resp = _handle(server, HistoryRangeQuery("s", 50.0, 59.0))
        assert resp.provenance == "live"
        assert resp.tuples == tuple(served[50:60])

    def test_archived_interval_is_historical(self, tmp_path):
        ring, history, _, served = _setup(tmp_path)
        server = QueryServer(ring, history=history)
        resp = _handle(server, HistoryRangeQuery("s", 0.0, 20.0))
        assert resp.provenance == "historical"
        assert resp.tuples == tuple(served[0:21])

    def test_straddling_interval_is_hybrid_without_double_counting(self, tmp_path):
        ring, history, _, served = _setup(tmp_path)
        server = QueryServer(ring, history=history)
        resp = _handle(server, HistoryRangeQuery("s", 30.0, 55.0))
        assert resp.provenance == "hybrid"
        # exactly one tuple per tick — the boundary tuple is deduplicated
        assert resp.tuples == tuple(served[30:56])

    def test_cold_ring_serves_historical(self, tmp_path):
        ring, history, writer, served = _setup(tmp_path)
        writer.drain_store(ring)
        cold = ServingStore({"s": 0.5}, history=16)  # warm catalogue, no rows
        server = QueryServer(cold, history=history)
        resp = _handle(server, HistoryRangeQuery("s", 40.0, 59.0))
        assert resp.provenance == "historical"
        assert resp.tuples == tuple(served[40:60])

    def test_provenance_metric_counts_each_label(self, tmp_path):
        ring, history, _, _ = _setup(tmp_path)
        tel = Telemetry()
        server = QueryServer(ring, history=history, telemetry=tel)
        _handle(server, HistoryRangeQuery("s", 50.0, 59.0))
        _handle(server, HistoryRangeQuery("s", 0.0, 20.0))
        _handle(server, HistoryRangeQuery("s", 30.0, 55.0))
        for label in ("live", "historical", "hybrid"):
            counter = tel.metrics.counter(
                "repro_serving_provenance_total", provenance=label
            )
            assert counter.value == 1


class TestStructuralErrors:
    def test_no_history_store_attached(self, tmp_path):
        ring, _, _, _ = _setup(tmp_path)
        server = QueryServer(ring)  # no archive fall-through
        # resident interval still answers...
        assert _handle(server, HistoryRangeQuery("s", 50.0, 59.0)).tuples
        # ...but a non-resident one is structurally unanswerable
        with pytest.raises(ServingError, match="no history store"):
            _handle(server, HistoryRangeQuery("s", 0.0, 20.0))

    def test_empty_interval_is_an_error(self, tmp_path):
        ring, history, _, _ = _setup(tmp_path)
        server = QueryServer(ring, history=history)
        with pytest.raises(ServingError, match="no served tuples"):
            _handle(server, HistoryRangeQuery("s", 1000.0, 2000.0))

    def test_history_error_surfaces_as_serving_error(self, tmp_path):
        ring, history, _, _ = _setup(tmp_path)
        server = QueryServer(ring, history=history)
        with pytest.raises(ServingError, match="unknown stream"):
            _handle(server, HistoryRangeQuery("ghost", 0.0, 10.0))


class TestBitwiseParity:
    """Aggregate answers == direct dsms replay, for every provenance."""

    @pytest.mark.parametrize("aggregate", ["mean", "sum", "min", "max", "median"])
    @pytest.mark.parametrize(
        "interval,provenance",
        [((50.0, 59.0), "live"), ((0.0, 20.0), "historical"),
         ((30.0, 55.0), "hybrid")],
    )
    def test_aggregate_bitwise_per_provenance(
        self, tmp_path, aggregate, interval, provenance
    ):
        ring, history, _, served = _setup(tmp_path)
        server = QueryServer(ring, history=history)
        lo, hi = interval
        members = [tup for tup in served if lo <= tup.t <= hi]
        direct = _replay(members, aggregate)
        resp = _handle(server, HistoryAggregateQuery("s", aggregate, lo, hi))
        assert resp.provenance == provenance
        assert resp.value == direct.value  # bitwise, no tolerance
        assert resp.bound == direct.bound
        assert resp.answer.t == direct.t

    def test_stitched_equals_archive_only(self, tmp_path):
        """Once the residue is drained, hybrid == pure-archive, bitwise."""
        ring, history, writer, _ = _setup(tmp_path)
        server = QueryServer(ring, history=history)
        hybrid = _handle(server, HistoryRangeQuery("s", 30.0, 55.0))
        assert hybrid.provenance == "hybrid"
        writer.drain_store(ring)
        history.refresh_bounds()
        assert hybrid.tuples == history.range_query("s", 30.0, 55.0)
        agg = _handle(server, HistoryAggregateQuery("s", "mean", 30.0, 55.0))
        direct = replay_aggregate(history.range_query("s", 30.0, 55.0), "mean")
        assert (agg.value, agg.bound) == (direct.value, direct.bound)


def _fleet(ticks=60):
    deltas = np.array([0.5, 1.25])
    models = [random_walk(process_noise=0.2) for _ in deltas]
    rng = np.random.default_rng(11)
    walk = np.cumsum(rng.normal(0, 0.5, size=(ticks, len(deltas), 1)), axis=0)
    values = walk + rng.normal(0, 0.2, size=walk.shape)
    return FleetEngine(models, deltas), values, deltas


def _feed_archive(feed, tmp_path, sids, bounds, trace, engine2=None, values2=None):
    """Build (archive db, ring) with the named ingest feed."""
    db = tmp_path / f"{feed}.sqlite"
    if feed == "bulk":
        with ArchiveWriter(db, bounds) as w:
            w.archive_fleet(sids, trace.served)
        ring = ServingStore(bounds, history=8)
        ring.load_fleet_history(sids, trace.served)
    elif feed == "live":
        with ArchiveWriter(db, bounds) as w:
            engine2.run(values2, on_tick=lambda t, s, _: w.archive_fleet(sids, s[None], t))
        ring = ServingStore(bounds, history=8)
        ring.load_fleet_history(sids, trace.served)
    else:  # evictions
        writer = ArchiveWriter(db, bounds)
        ring = ServingStore(bounds, history=8)
        writer.attach_evictions(ring)
        ring.load_fleet_history(sids, trace.served)
        writer.flush()
        writer.close()
    return db, ring


class TestThreeFeedsAcceptance:
    """The acceptance criterion, per ingest feed.

    Whichever way the archive was fed — a bulk trace load,
    ``archive_fleet`` per tick inside ``on_tick``, or ring evictions —
    historical and hybrid answers are bitwise what direct dsms
    evaluation of the same served tuples produces.
    """

    @pytest.mark.parametrize("feed", ["bulk", "live", "evict"])
    @pytest.mark.parametrize("aggregate", ["mean", "sum", "max"])
    def test_feed_parity(self, tmp_path, feed, aggregate):
        engine, values, deltas = _fleet()
        sids = ["s0", "s1"]
        bounds = dict(zip(sids, deltas))
        trace = engine.run(values)
        engine2, values2, _ = _fleet()  # same seed: identical stream
        db, ring = _feed_archive(
            feed, tmp_path, sids, bounds, trace, engine2, values2
        )
        server = QueryServer(ring, history=HistoryStore(db))

        for i, sid in enumerate(sids):
            # ground truth straight from the fleet trace, not the archive
            served = [
                StreamTuple(
                    t=float(k), stream_id=sid,
                    value=float(trace.served[k, i, 0]), bound=float(deltas[i]),
                )
                for k in range(len(trace.served))
                if np.isfinite(trace.served[k, i, 0])
            ]
            boundary = ring.oldest_t(sid)
            historical = [t for t in served if t.t < boundary]
            assert len(historical) >= 3, "fixture must exercise the archive"
            lo, hi = historical[0].t, historical[-1].t

            resp = _handle(server, HistoryRangeQuery(sid, lo, hi))
            assert resp.provenance == "historical"
            assert resp.tuples == tuple(historical)

            resp = _handle(server, HistoryAggregateQuery(sid, aggregate, lo, hi))
            direct = _replay(historical, aggregate)
            assert resp.provenance == "historical"
            assert (resp.value, resp.bound) == (direct.value, direct.bound)

            # hybrid: straddle the residency boundary end to end
            full = [t for t in served if lo <= t.t <= served[-1].t]
            resp = _handle(
                server, HistoryRangeQuery(sid, lo, served[-1].t)
            )
            assert resp.provenance == "hybrid"
            assert resp.tuples == tuple(full)
            resp = _handle(
                server,
                HistoryAggregateQuery(sid, aggregate, lo, served[-1].t),
            )
            direct = _replay(full, aggregate)
            assert (resp.value, resp.bound) == (direct.value, direct.bound)


class TestOverloadHonesty:
    def test_cached_historical_served_undegraded_and_bitwise(self, tmp_path):
        ring, history, _, _ = _setup(tmp_path)
        server = QueryServer(
            ring, AdmissionConfig(max_inflight=1, drift_per_tick=2.0),
            history=history,
        )
        query = HistoryAggregateQuery("s", "mean", 0.0, 20.0)
        fresh = _handle(server, query)
        assert fresh.provenance == "historical"
        for k in range(3):  # staleness that would widen a live answer
            ring.ingest("s", 100.0 + k, 5.0)
            ring.advance_tick()

        async def burst():
            return await asyncio.gather(*(server.handle(query) for _ in range(20)))

        responses = asyncio.run(burst())
        assert len(responses) == 20
        for resp in responses:
            # the interval is closed and immutable: re-serving the cache
            # IS fresh evaluation, so no degraded flag, no widening
            assert not resp.degraded and resp.reason is None
            assert resp.staleness_ticks == 0
            assert resp.value == fresh.value
            assert resp.bound == fresh.bound

    def test_cached_hybrid_degrades_with_widened_bounds(self, tmp_path):
        ring, history, _, _ = _setup(tmp_path)
        server = QueryServer(
            ring, AdmissionConfig(max_inflight=1, drift_per_tick=2.0),
            history=history,
        )
        query = HistoryAggregateQuery("s", "mean", 30.0, 55.0)
        fresh = _handle(server, query)
        assert fresh.provenance == "hybrid"
        for k in range(3):
            ring.ingest("s", 100.0 + k, 5.0)
            ring.advance_tick()

        async def burst():
            return await asyncio.gather(*(server.handle(query) for _ in range(20)))

        degraded = [r for r in asyncio.run(burst()) if r.degraded]
        assert degraded, "hybrid answers keep the stale-cache contract"
        widen = 2.0 * ring.bounds["s"] * 3
        for resp in degraded:
            assert resp.reason == "overload"
            assert resp.provenance == "hybrid"
            assert resp.staleness_ticks == 3
            assert resp.value == fresh.value
            assert resp.bound == fresh.bound + widen
