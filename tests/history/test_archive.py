"""ArchiveWriter: batching, dedup, the three feeds, and no lost tuples.

The archive's load-bearing guarantee is completeness: between the hot
ring and the archive, every served tuple is accounted for.  The
eviction feed archives tuples as they age out, ``drain_store`` archives
the residue, and ``INSERT OR IGNORE`` dedup makes overlapping feeds
(live + evictions) safe — these tests pin each piece and the combined
no-tuple-lost regression.
"""

import numpy as np
import pytest

from repro.core.manager import FleetEngine
from repro.errors import HistoryError
from repro.history import ArchiveWriter, HistoryStore
from repro.kalman.models import random_walk
from repro.obs import Telemetry, tracing
from repro.serving import ServingStore


@pytest.fixture
def db(tmp_path):
    return tmp_path / "archive.sqlite"


def _fill(writer, n=10, sid="s", t0=0.0):
    for k in range(n):
        writer.ingest(sid, t0 + k, float(k) * 0.5)


class TestConstruction:
    def test_rejects_empty_bounds(self, db):
        with pytest.raises(HistoryError):
            ArchiveWriter(db, {})

    def test_rejects_bad_bound(self, db):
        with pytest.raises(HistoryError):
            ArchiveWriter(db, {"s": -0.1})
        with pytest.raises(HistoryError):
            ArchiveWriter(db, {"s": float("nan")})

    def test_rejects_nonpositive_batch(self, db):
        with pytest.raises(HistoryError):
            ArchiveWriter(db, {"s": 1.0}, batch_size=0)

    def test_registers_stream_catalogue(self, db):
        with ArchiveWriter(db, {"a": 0.5, "b": 1.25}):
            pass
        store = HistoryStore(db)
        assert store.bounds == {"a": 0.5, "b": 1.25}


class TestIngestAndBatching:
    def test_unknown_stream_rejected(self, db):
        with ArchiveWriter(db, {"s": 1.0}) as w:
            with pytest.raises(HistoryError, match="unknown stream"):
                w.ingest("nope", 0.0, 1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
    def test_nonfinite_value_rejected(self, db, bad):
        with ArchiveWriter(db, {"s": 1.0}) as w:
            with pytest.raises(HistoryError, match="non-finite"):
                w.ingest("s", 0.0, bad)

    def test_buffer_flushes_at_batch_size(self, db):
        with ArchiveWriter(db, {"s": 1.0}, batch_size=4) as w:
            for k in range(3):
                w.ingest("s", k, 1.0)
            assert (w.pending, w.rows_written) == (3, 0)
            w.ingest("s", 3, 1.0)
            assert (w.pending, w.rows_written) == (0, 4)

    def test_flush_commits_visible_to_reader(self, db):
        w = ArchiveWriter(db, {"s": 1.0}, batch_size=1024)
        _fill(w, 5)
        w.flush()
        assert HistoryStore(db).row_count("s") == 5
        w.close()

    def test_duplicate_rows_dedup(self, db):
        with ArchiveWriter(db, {"s": 1.0}, batch_size=2) as w:
            _fill(w, 6)
            _fill(w, 6)  # re-offer the same tuples
        store = HistoryStore(db)
        assert store.row_count("s") == 6

    def test_close_flushes_and_is_idempotent(self, db):
        w = ArchiveWriter(db, {"s": 1.0}, batch_size=1024)
        _fill(w, 3)
        w.close()
        w.close()
        assert HistoryStore(db).row_count("s") == 3
        with pytest.raises(HistoryError, match="closed"):
            w.ingest("s", 99, 1.0)

    def test_rows_written_counts_new_rows_only(self, db):
        with ArchiveWriter(db, {"s": 1.0}, batch_size=1024) as w:
            _fill(w, 4)
            w.flush()
            _fill(w, 4)
            w.flush()
            assert w.rows_written == 4

    def test_default_bound_is_delta_and_explicit_bound_kept(self, db):
        with ArchiveWriter(db, {"s": 0.75}) as w:
            w.ingest("s", 0.0, 1.0)
            w.ingest("s", 1.0, 2.0, bound=3.5)
        store = HistoryStore(db)
        assert store.point("s", at_t=0.0).bound == 0.75
        assert store.point("s", at_t=1.0).bound == 3.5


def _fleet(n=3, ticks=40):
    models = [random_walk(process_noise=0.2) for _ in range(n)]
    deltas = np.array([0.5, 1.0, 1.5])
    rng = np.random.default_rng(7)
    walk = np.cumsum(rng.normal(0, 0.5, size=(ticks, n, 1)), axis=0)
    values = walk + rng.normal(0, 0.2, size=walk.shape)
    return FleetEngine(models, deltas), values, deltas


class TestThreeFeeds:
    """Bulk trace load, live on_tick, and ring evictions produce one archive."""

    def test_bulk_and_live_feeds_archive_identically(self, tmp_path):
        engine, values, deltas = _fleet()
        sids = ["s0", "s1", "s2"]
        bounds = dict(zip(sids, deltas))

        live_db = tmp_path / "live.sqlite"
        with ArchiveWriter(live_db, bounds) as w:
            engine.run(values, on_tick=w.on_tick(sids))

        bulk_db = tmp_path / "bulk.sqlite"
        engine2, values2, _ = _fleet()
        trace = engine2.run(values2)
        with ArchiveWriter(bulk_db, bounds) as w:
            w.archive_fleet(sids, trace.served)

        live, bulk = HistoryStore(live_db), HistoryStore(bulk_db)
        assert live.row_count() == bulk.row_count() > 0
        for sid in sids:
            lo, hi, _ = bulk.span(sid)
            assert live.range_query(sid, lo, hi) == bulk.range_query(sid, lo, hi)

    @pytest.mark.parametrize("component", [3, -1])
    def test_archive_feeds_diagnose_a_bad_component(self, db, component):
        # One walker behind load_fleet_history / archive_fleet / on_tick:
        # pre-fix, 3 was a raw IndexError and -1 archived the last component.
        served = np.arange(12.0).reshape(2, 2, 3)
        with ArchiveWriter(db, {"a": 0.1, "b": 0.1}) as w:
            with pytest.raises(HistoryError, match=f"no component {component}"):
                w.archive_fleet(["a", "b"], served, component=component)
            with pytest.raises(HistoryError, match=f"no component {component}"):
                w.on_tick(["a", "b"], component=component)(0, served[0], None)
            with pytest.raises(HistoryError, match="shape"):
                w.archive_fleet(["a"], served)
        assert HistoryStore(db).row_count() == 0

    def test_eviction_feed_plus_drain_equals_bulk(self, tmp_path):
        engine, values, deltas = _fleet()
        sids = ["s0", "s1", "s2"]
        bounds = dict(zip(sids, deltas))

        evict_db = tmp_path / "evict.sqlite"
        writer = ArchiveWriter(evict_db, bounds)
        ring = ServingStore(bounds, history=8)  # tiny ring: constant rollover
        writer.attach_evictions(ring)
        trace = engine.run(values)
        ring.load_fleet_history(sids, trace.served)
        writer.drain_store(ring)
        writer.close()

        bulk_db = tmp_path / "bulk.sqlite"
        with ArchiveWriter(bulk_db, bounds) as w:
            w.archive_fleet(sids, trace.served)

        evict, bulk = HistoryStore(evict_db), HistoryStore(bulk_db)
        assert evict.row_count() == bulk.row_count()
        for sid in sids:
            lo, hi, _ = bulk.span(sid)
            assert evict.range_query(sid, lo, hi) == bulk.range_query(sid, lo, hi)

    def test_for_fleet_result_takes_allocated_bounds(self, tmp_path):
        from repro.core.allocation import Allocation
        from repro.core.manager import FleetResult, StreamReport

        result = FleetResult(
            method="waterfilling",
            budget=1.0,
            allocation=Allocation(
                deltas=np.array([0.25, 0.5]),
                predicted_rates=np.array([0.5, 0.5]),
                method="waterfilling",
            ),
            reports=[
                StreamReport("a", 0.25, 1, 10, 0.0, 0.0),
                StreamReport("b", 0.5, 1, 10, 0.0, 0.0),
            ],
        )
        with ArchiveWriter.for_fleet_result(
            tmp_path / "r.sqlite", result
        ) as w:
            assert w.bounds == {"a": 0.25, "b": 0.5}


class TestNoTupleLost:
    """The PR's regression: ring rollover loses nothing once archived."""

    def test_ring_union_archive_covers_every_ingest(self, db):
        bounds = {"s": 0.5}
        writer = ArchiveWriter(db, bounds, batch_size=16)
        ring = ServingStore(bounds, history=16, on_evict=writer.ingest_tuple)
        rng = np.random.default_rng(3)
        ingested = []
        for k in range(200):
            value = float(rng.normal())
            ring.ingest("s", k, value)
            ring.advance_tick()
            ingested.append((float(k), value, 0.5))
        writer.flush()
        store = HistoryStore(db)
        resident = {
            (tup.t, tup.value, tup.bound)
            for tup in ring.range_query("s", 10_000)
        }
        archived = {
            (tup.t, tup.value, tup.bound)
            for tup in store.range_query("s", 0.0, 1e9)
        }
        # Every ingested tuple is resident or archived (and the two
        # views agree where they overlap — sets union without loss).
        assert set(ingested) <= resident | archived
        # Evictions all made it to disk: everything non-resident is there.
        assert set(ingested) - resident <= archived

    def test_without_hook_eviction_still_silent(self):
        # Documents the pre-PR behavior the hook exists to fix.
        ring = ServingStore({"s": 1.0}, history=4)
        for k in range(8):
            ring.ingest("s", k, float(k))
        assert ring.history_len("s") == 4


class TestTelemetry:
    def test_flush_event_and_rows_metric(self, db):
        tel = Telemetry()
        with ArchiveWriter(db, {"s": 1.0}, batch_size=4, telemetry=tel) as w:
            _fill(w, 10)
        events = tel.tracer.events(tracing.ARCHIVE_FLUSH)
        assert [e.tick for e in events] == [1, 2, 3]
        offered = sum(dict(e.fields)["offered"] for e in events)
        inserted = sum(dict(e.fields)["inserted"] for e in events)
        assert (offered, inserted) == (10, 10)
        prom = tel.render_prometheus()
        assert "repro_history_rows_total 10" in prom
        assert 'repro_span_entries_total{span="history.flush"} 3' in prom

    def test_duplicate_rows_do_not_inflate_metric(self, db):
        tel = Telemetry()
        with ArchiveWriter(db, {"s": 1.0}, batch_size=1024, telemetry=tel) as w:
            _fill(w, 5)
            w.flush()
            _fill(w, 5)
            w.flush()
        assert "repro_history_rows_total 5" in tel.render_prometheus()
