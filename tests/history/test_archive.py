"""ArchiveWriter: batching, dedup, its feeds, and no lost tuples.

The archive's load-bearing guarantee is completeness: between the hot
ring and the archive, every served tuple is accounted for.  The
eviction feed archives tuples as they age out, ``drain_store`` archives
the residue, and ``INSERT OR IGNORE`` dedup makes overlapping feeds
(a fleet trace + evictions) safe — these tests pin each piece and the
combined no-tuple-lost regression.
"""

import dataclasses
import hashlib
import os
import sqlite3
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.core.manager import FleetEngine
from repro.errors import HistoryError
from repro.history import ArchiveWriter, HistoryStore, connect
from repro.history.db import G, WAL_AUTOCHECKPOINT
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


#: The schema-v1 layout, verbatim: one TEXT-keyed rowid table, a
#: covering index and a codec payload per row.
V1_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE streams (stream_id TEXT PRIMARY KEY, delta REAL NOT NULL);
CREATE TABLE archive (
    stream_id TEXT NOT NULL,
    t         REAL NOT NULL,
    value     REAL NOT NULL,
    bound     REAL NOT NULL,
    payload   BLOB NOT NULL,
    UNIQUE (stream_id, t)
);
CREATE INDEX archive_stream_t_cover ON archive (stream_id, t, value, bound);
INSERT INTO meta (key, value) VALUES ('schema_version', '1');
INSERT INTO streams VALUES ('s', 0.5);
INSERT INTO archive VALUES ('s', 0.0, 1.5, 0.5, X'7B7D');
"""


#: The schema-v2 layout, verbatim: one ``(stream_key, t)``-clustered
#: WITHOUT ROWID table and per-flush manifests.
V2_SCHEMA = """
CREATE TABLE meta (key TEXT PRIMARY KEY, value TEXT NOT NULL);
CREATE TABLE streams (
    stream_key INTEGER PRIMARY KEY,
    stream_id  TEXT NOT NULL UNIQUE,
    delta      REAL NOT NULL
);
CREATE TABLE archive (
    stream_key INTEGER NOT NULL,
    t          REAL NOT NULL,
    value      REAL NOT NULL,
    bound      REAL NOT NULL,
    batch      INTEGER NOT NULL,
    PRIMARY KEY (stream_key, t)
) WITHOUT ROWID;
CREATE TABLE batches (
    batch  INTEGER PRIMARY KEY,
    rows   INTEGER NOT NULL,
    sha256 TEXT NOT NULL
);
INSERT INTO meta VALUES ('schema_version', '2');
INSERT INTO streams VALUES (1, 's', 0.5);
INSERT INTO archive VALUES (1, 0.0, 1.5, 0.5, 1);
INSERT INTO batches VALUES (1, 1, 'not checked');
"""


def _sqlite_file(path, script, wal):
    conn = sqlite3.connect(path)
    if wal:
        conn.execute("PRAGMA journal_mode=WAL")
    conn.executescript(script)
    conn.close()


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestRefuseBeforeMutating:
    """A file that is not a v3 archive is refused and left byte-identical."""

    @pytest.mark.parametrize("opener", [
        lambda p: ArchiveWriter(p, {"s": 0.5}),
        HistoryStore,
    ], ids=["writer", "store"])
    def test_v1_archive_refused_untouched(self, db, opener):
        _sqlite_file(db, V1_SCHEMA, wal=True)
        before = _sha256(db)
        with pytest.raises(HistoryError, match="schema version '1' is not the supported 3"):
            opener(db)
        assert _sha256(db) == before
        conn = sqlite3.connect(db)
        tables = {n for (n,) in conn.execute("SELECT name FROM sqlite_master")}
        conn.close()
        assert "batches" not in tables

    @pytest.mark.parametrize("opener", [
        lambda p: ArchiveWriter(p, {"s": 0.5}),
        HistoryStore,
    ], ids=["writer", "store"])
    def test_v2_archive_refused_untouched(self, db, opener):
        _sqlite_file(db, V2_SCHEMA, wal=True)
        before = _sha256(db)
        with pytest.raises(HistoryError, match="schema version '2' is not the supported 3"):
            opener(db)
        assert _sha256(db) == before
        conn = sqlite3.connect(db)
        columns = [c[1] for c in conn.execute("PRAGMA table_info(archive)")]
        conn.close()
        assert columns == ["stream_key", "t", "value", "bound", "batch"]

    @pytest.mark.parametrize("opener", [
        lambda p: ArchiveWriter(p, {"s": 0.5}),
        HistoryStore,
    ], ids=["writer", "store"])
    def test_foreign_file_refused_untouched(self, db, opener):
        _sqlite_file(db, "CREATE TABLE readings (t REAL, value REAL);"
                         "INSERT INTO readings VALUES (0.0, 1.0);", wal=False)
        before = _sha256(db)
        with pytest.raises(HistoryError, match="not a history archive"):
            opener(db)
        assert _sha256(db) == before

    def test_non_sqlite_file_refused_untouched(self, db):
        db.write_bytes(b"certainly not a database " * 64)
        with pytest.raises(HistoryError):
            HistoryStore(db)
        assert db.read_bytes() == b"certainly not a database " * 64

    def test_reregistered_stream_keeps_key_and_rows(self, db):
        with ArchiveWriter(db, {"a": 0.5, "b": 1.0}) as w:
            _fill(w, 4, sid="a")
            _fill(w, 4, sid="b")

        def keys():
            conn = sqlite3.connect(db)
            try:
                return dict(conn.execute("SELECT stream_id, stream_key FROM streams"))
            finally:
                conn.close()

        before = keys()
        with ArchiveWriter(db, {"b": 2.5, "c": 0.1}) as w:  # new δ for b
            _fill(w, 3, sid="b", t0=4.0)
        assert {sid: keys()[sid] for sid in before} == before
        store = HistoryStore(db)
        assert store.bounds == {"a": 0.5, "b": 2.5, "c": 0.1}
        assert store.row_count("a") == 4
        assert [t.t for t in store.range_query("b", 0.0, 99.0)] == [float(k) for k in range(7)]
        assert store.audit() == 11


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
    """A bulk trace, the same walk per live tick, and ring evictions
    produce one archive."""

    def test_bulk_and_live_feeds_archive_identically(self, tmp_path):
        engine, values, deltas = _fleet()
        sids = ["s0", "s1", "s2"]
        bounds = dict(zip(sids, deltas))

        live_db = tmp_path / "live.sqlite"
        with ArchiveWriter(live_db, bounds) as w:
            engine.run(values, on_tick=lambda t, s, _: w.archive_fleet(sids, s[None], t))

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
        # One walker behind load_fleet_history / archive_fleet, whole trace
        # or one live tick: pre-fix, 3 was a raw IndexError and -1 archived
        # the last component.
        served = np.arange(12.0).reshape(2, 2, 3)
        with ArchiveWriter(db, {"a": 0.1, "b": 0.1}) as w:
            with pytest.raises(HistoryError, match=f"no component {component}"):
                w.archive_fleet(["a", "b"], served, component=component)
            with pytest.raises(HistoryError, match=f"no component {component}"):
                w.archive_fleet(["a", "b"], served[0][None], 0.0, component)
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
        # The allocator -> archive hand-off is the fleet result's bounds.
        with ArchiveWriter(tmp_path / "r.sqlite", result.stream_bounds()) as w:
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


class TestFailedFlush:
    """A flush SQLite refuses keeps its rows for the retry."""

    def test_rows_survive_a_refused_flush(self, db):
        writer = ArchiveWriter(db, {"s": 0.5, "u": 0.25}, batch_size=100)
        _fill(writer, n=3)
        writer._conn.execute("PRAGMA query_only=1")
        with pytest.raises(HistoryError, match="archive flush failed"):
            writer.flush()
        assert writer.pending == 3
        # Buffered after the failure: a fresh row, and a re-offer of t=0
        # with another value, which must lose to the original offer.
        writer.ingest("u", 0.0, 9.0)
        writer.ingest("s", 0.0, 99.0)
        writer._conn.execute("PRAGMA query_only=0")
        assert writer.flush() == 4
        assert writer.pending == 0
        writer.close()
        with HistoryStore(db) as store:
            assert store.row_count() == 4
            assert store.audit() == 4
            assert [tup.value for tup in store.range_query("s", 0.0, 9.0)] == [0.0, 0.5, 1.0]


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


SRC = Path(__file__).resolve().parents[2] / "src"

#: Registers STREAMS streams, commits TICKS one-tick flushes, then exits
#: without ``close()``: no final checkpoint, no WAL cleanup.
_CRASHING_WRITER = """
import os, sys
from repro.history import ArchiveWriter
streams, ticks = int(sys.argv[2]), int(sys.argv[3])
writer = ArchiveWriter(sys.argv[1], {f"s{i}": 0.25 for i in range(streams)})
for k in range(ticks):
    for i in range(streams):
        writer.ingest(f"s{i}", float(k), (i * 7919 + k * 104729) / 3.0)
    writer.flush()
os._exit(0)
"""


class TestDurabilityContract:
    """What the per-flush commit promises without a per-flush checkpoint."""

    STREAMS, TICKS = 300, 4

    def test_committed_rows_survive_process_exit_without_close(self, db):
        proc = subprocess.run(
            [sys.executable, "-c", _CRASHING_WRITER, str(db),
             str(self.STREAMS), str(self.TICKS)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        # The commits live in the WAL: nothing checkpointed them away.
        assert Path(f"{db}-wal").stat().st_size > 0
        with HistoryStore(db) as store:
            assert store.row_count() == self.STREAMS * self.TICKS
            assert store.audit() == self.STREAMS * self.TICKS
            got = [struct.pack("<ddd", r.t, r.value, r.bound)
                   for r in store.range_query("s17", 0.0, float(self.TICKS))]
        offered = [struct.pack("<ddd", float(k), (17 * 7919 + k * 104729) / 3.0, 0.25)
                   for k in range(self.TICKS)]
        assert got == offered

    def test_checkpoint_cadence_and_writer_cache(self, db):
        conn = connect(db)
        try:
            assert conn.execute("PRAGMA wal_autocheckpoint").fetchone() == (
                WAL_AUTOCHECKPOINT,
            )
            assert conn.execute("PRAGMA synchronous").fetchone() == (1,)  # NORMAL
            assert conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
        finally:
            conn.close()
        bounds = {f"s{i}": 0.5 for i in range(self.STREAMS)}
        with ArchiveWriter(db, bounds) as writer:
            (pages,) = writer._conn.execute("PRAGMA cache_size").fetchone()
        assert pages >= self.STREAMS


class TestClusterLayout:
    """Schema v3: rows cluster by (stream group, t), G streams per group."""

    def test_primary_key_is_group_time_sub(self, db):
        with ArchiveWriter(db, {f"s{i}": 0.5 for i in range(2 * G)}) as w:
            for i in range(2 * G):
                w.ingest(f"s{i}", 0.0, float(i))
        conn = sqlite3.connect(db)
        try:
            pk = sorted((c[5], c[1]) for c in conn.execute("PRAGMA table_info(archive)"))
            keys = dict(conn.execute("SELECT stream_id, stream_key FROM streams"))
            stored = {v: (g, s) for v, g, s in conn.execute("SELECT value, grp, sub FROM archive")}
        finally:
            conn.close()
        assert [name for rank, name in pk if rank] == ["grp", "t", "sub"]
        for i in range(2 * G):
            assert stored[float(i)] == divmod(keys[f"s{i}"], G)

    def test_a_steady_flush_writes_fewer_frames_than_streams(self, db):
        # Past ~100 ticks every group owns its tail leaf; one tick's flush
        # then dirties ~one leaf per group (N/G), where (stream_key, t)
        # clustering dirtied more than one leaf per stream (> N).
        streams, warm = 256, 150
        writer = ArchiveWriter(db, {f"s{i}": 0.25 for i in range(streams)},
                               batch_size=10 * streams)

        def tick(k):
            for i in range(streams):
                writer.ingest(f"s{i}", float(k), (i * 7919 + k * 104729) / 3.0)
            writer.flush()

        for k in range(warm):
            tick(k)
        conn = writer._conn
        conn.execute("PRAGMA wal_checkpoint(TRUNCATE)").fetchall()
        tick(warm)
        (_, frames, _) = conn.execute("PRAGMA wal_checkpoint(PASSIVE)").fetchone()
        writer.close()
        assert 0 < frames < 0.6 * streams


def _committed_manifest(db, batch):
    conn = sqlite3.connect(db)
    try:
        return conn.execute(
            "SELECT rows, sha256 FROM batches WHERE batch = ?", (batch,)
        ).fetchone()
    finally:
        conn.close()


class TestChunkedFlush:
    """Multi-row chunks of CHUNK rows commit what row-by-row inserts did."""

    STREAMS = 8
    #: Committed before the flush under test, then offered again.
    COMMITTED = ("s7", 1e6, 5.0)

    def _offers(self, n, dups, keys):
        """``n`` offers; with ``dups``, a re-offer of COMMITTED and a second
        offer of the row sorted at position 127, so that for n > 128 the
        two offers of one row sit on either side of the first chunk's end."""
        extra = [(*self.COMMITTED[:2], 99.0)] if dups else []
        twice = dups and n >= 3
        rows = [(f"s{j % self.STREAMS}", float(j // self.STREAMS), j * 0.5)
                for j in range(n - len(extra) - twice)] + extra
        if twice:
            def order(row):
                key = keys[row[0]]
                return (key // G, row[1], key % G)
            sid, t, _ = sorted(rows, key=order)[min(127, n - 2)]
            rows.append((sid, t, -7.0))
        assert len(rows) == n
        return rows

    @pytest.mark.parametrize("dups", [False, True], ids=["fresh", "dups"])
    @pytest.mark.parametrize("n", [1, 127, 128, 129, 257])
    def test_flush_matches_the_row_by_row_formula(self, db, n, dups):
        bounds = {f"s{i}": 0.25 * (i + 1) for i in range(self.STREAMS)}
        writer = ArchiveWriter(db, bounds, batch_size=10_000)
        writer.ingest(*self.COMMITTED)
        assert writer.flush() == 1
        keys = dict(writer._conn.execute("SELECT stream_id, stream_key FROM streams"))
        offers = self._offers(n, dups, keys)
        for sid, t, value in offers:
            writer.ingest(sid, t, value)
        # The old formula: first offers of rows not yet committed, in
        # (grp, t, sub) order, hashed ROW by ROW.
        seen = {(keys[self.COMMITTED[0]], self.COMMITTED[1])}
        kept = []
        for sid, t, value in offers:
            if (keys[sid], t) not in seen:
                seen.add((keys[sid], t))
                kept.append((keys[sid], t, value, bounds[sid]))
        kept.sort(key=lambda r: (r[0] // G, r[1], r[0] % G))
        assert writer.flush() == len(kept)
        assert writer.rows_written == 1 + len(kept)
        stored = writer._conn.execute(
            f"SELECT grp * {G} + sub, t, value, bound FROM archive WHERE batch = 2 "
            "ORDER BY grp, t, sub"
        ).fetchall()
        writer.close()
        assert stored == kept
        if kept:
            digest = hashlib.sha256(b"".join(struct.pack("<qddd", *r) for r in kept))
            assert _committed_manifest(db, 2) == (len(kept), digest.hexdigest())
        with HistoryStore(db) as store:
            assert store.audit() == 1 + len(kept)


def _attached(writer, store):
    writer.attach_evictions(store)
    return store


#: The two ways a ring hands its evictions to a writer.
FEEDS = {
    "attach_evictions": lambda writer, bounds: _attached(
        writer, ServingStore(bounds, history=2)
    ),
    "on_evict": lambda writer, bounds: ServingStore(
        bounds, history=2, on_evict=writer.ingest_tuple
    ),
}


def _ring_state(store):
    return [list(store._rings[sid]) for sid in store.stream_ids()], store.version


@pytest.mark.parametrize("feed", sorted(FEEDS))
class TestEvictionHandOff:
    """``ingest_tuple`` as the eviction hook: every refusal is a diagnosed
    HistoryError raised before the ring, its version or the buffer move."""

    @pytest.mark.parametrize("field, bad", [
        ("value", float("nan")), ("value", float("inf")),
        ("t", float("nan")), ("t", -float("inf")),
    ])
    def test_non_finite_row_refused(self, db, feed, field, bad):
        writer = ArchiveWriter(db, {"s": 0.5})
        store = FEEDS[feed](writer, {"s": 0.5})
        store.ingest("s", 0.0, 1.0)
        store.ingest("s", 1.0, 2.0)
        # The ring refuses non-finite input, so corrupt it behind its back.
        ring = store._rings["s"]
        ring[0] = dataclasses.replace(ring[0], **{field: bad})
        before = _ring_state(store)
        with pytest.raises(HistoryError, match="cannot archive non-finite row"):
            store.ingest("s", 2.0, 3.0)
        assert _ring_state(store) == before and writer.pending == 0
        writer.close()

    def test_unknown_stream_refused(self, db, feed):
        writer = ArchiveWriter(db, {"s": 0.5})
        bounds = {"s": 0.5, "u": 0.25}
        if feed == "attach_evictions":
            store = ServingStore(bounds, history=2)
            with pytest.raises(HistoryError, match=r"\['u'\] are not registered"):
                writer.attach_evictions(store)
            assert store.on_evict is None and store.version == 0
        else:
            store = FEEDS[feed](writer, bounds)
            store.ingest("u", 0.0, 1.0)
            store.ingest("u", 1.0, 2.0)
            before = _ring_state(store)
            with pytest.raises(HistoryError, match="unknown stream 'u'"):
                store.ingest("u", 2.0, 3.0)
            assert _ring_state(store) == before and writer.pending == 0
        writer.close()

    def test_closed_writer_refused(self, db, feed):
        writer = ArchiveWriter(db, {"s": 0.5})
        store = FEEDS[feed](writer, {"s": 0.5})
        store.ingest("s", 0.0, 1.0)
        store.ingest("s", 1.0, 2.0)
        writer.close()
        before = _ring_state(store)
        with pytest.raises(HistoryError, match="closed"):
            store.ingest("s", 2.0, 3.0)
        assert _ring_state(store) == before

    def test_negative_zero_archived_as_zero(self, db, feed):
        writer = ArchiveWriter(db, {"s": -0.0})
        store = FEEDS[feed](writer, {"s": -0.0})
        for t, value in ((-0.0, -0.0), (1.0, 2.0), (2.0, 3.0)):
            store.ingest("s", t, value)
        assert writer.flush() == 1
        (row,) = writer._conn.execute("SELECT t, value, bound FROM archive").fetchall()
        writer.close()
        assert struct.pack("<ddd", *row) == struct.pack("<ddd", 0.0, 0.0, 0.0)
        # The first stream a fresh archive registers has stream_key 1.
        digest = hashlib.sha256(struct.pack("<qddd", 1, 0.0, 0.0, 0.0))
        assert _committed_manifest(db, 1) == (1, digest.hexdigest())
        with HistoryStore(db) as store:
            assert store.audit() == 1
