"""HistoryStore: indexed archival queries with bitwise dsms parity.

The acceptance criterion this file pins: an archival answer's value
*and* bound are bitwise what direct dsms evaluation of the same served
tuples produces — with ``==``, no tolerance — and the indexed and
forced-linear-scan paths return identical answers (the index is a speed
lever, never a semantics lever).
"""

import sqlite3

import numpy as np
import pytest

from repro.dsms.operators import WindowAggregate, replay_aggregate
from repro.dsms.precision_propagation import aggregate_bound
from repro.errors import HistoryError
from repro.history import ArchiveWriter, HistoryStore
from repro.history.db import G, SCHEMA_VERSION
from repro.obs import Telemetry, parse_prometheus, tracing

AGGREGATES = ["mean", "sum", "min", "max", "median"]


@pytest.fixture
def db(tmp_path):
    path = tmp_path / "archive.sqlite"
    rng = np.random.default_rng(5)
    with ArchiveWriter(path, {"s0": 0.5, "s1": 1.25}, batch_size=32) as w:
        for k in range(80):
            w.ingest("s0", k, float(rng.normal(10.0, 2.0)))
            w.ingest("s1", k, float(rng.normal(-4.0, 1.0)))
    return path


def _tamper(path, sql):
    conn = sqlite3.connect(path)
    conn.execute(sql)
    conn.commit()
    conn.close()


def _replay(members, aggregate):
    op = WindowAggregate(aggregate, size=len(members), slide=1, emit_partial=True)
    out = []
    for member in members:
        out = op.process(member)
    return out[0]


class TestBasics:
    def test_unknown_stream_rejected(self, db):
        store = HistoryStore(db)
        with pytest.raises(HistoryError, match="unknown stream"):
            store.range_query("nope", 0, 10)

    def test_span_and_counts(self, db):
        store = HistoryStore(db)
        assert store.row_count() == 160
        assert store.span("s0") == (0.0, 79.0, 80)
        assert store.stream_ids() == ["s0", "s1"]

    def test_point_as_of(self, db):
        store = HistoryStore(db)
        assert store.point("s0").t == 79.0
        assert store.point("s0", at_t=12.5).t == 12.0
        with pytest.raises(HistoryError, match="no archived tuple"):
            store.point("s0", at_t=-1.0)

    def test_range_inclusive_and_ordered(self, db):
        store = HistoryStore(db)
        got = store.range_query("s0", 10.0, 14.0)
        assert [tup.t for tup in got] == [10.0, 11.0, 12.0, 13.0, 14.0]
        assert all(tup.stream_id == "s0" for tup in got)
        assert all(tup.bound == 0.5 for tup in got)

    def test_empty_range_is_empty_not_error(self, db):
        store = HistoryStore(db)
        assert store.range_query("s0", 200.0, 300.0) == ()

    def test_inverted_range_rejected(self, db):
        store = HistoryStore(db)
        with pytest.raises(HistoryError, match="empty range"):
            store.range_query("s0", 5.0, 1.0)

    def test_last_n_before_t_end(self, db):
        store = HistoryStore(db)
        got = store.last_n("s0", 3, t_end=20.0)
        assert [tup.t for tup in got] == [18.0, 19.0, 20.0]
        assert [tup.t for tup in store.last_n("s0", 2)] == [78.0, 79.0]

    def test_refresh_bounds_sees_new_streams(self, db):
        store = HistoryStore(db)
        with ArchiveWriter(db, {"s9": 2.0}) as w:
            w.ingest("s9", 0.0, 1.0)
        # transparently refreshed on first touch of the unknown stream
        assert store.point("s9").value == 1.0


class TestSizesAreIntegers:
    @pytest.mark.parametrize("bad", [2.5, True, float("nan")], ids=repr)
    def test_archive_queries_refuse_a_non_integer_size(self, db, bad):
        # Pre-fix 2.5 fetched 2 rows, True one, and NaN raised a raw ValueError.
        store = HistoryStore(db)
        with pytest.raises(HistoryError, match="size must be an integer"):
            store.last_n("s0", bad)
        with pytest.raises(HistoryError, match="size must be an integer"):
            store.window_aggregate("s0", "mean", bad, emit_partial=True)


class TestBitwiseParity:
    """Archival answers == direct dsms evaluation, bitwise."""

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_range_aggregate_bitwise_equals_direct_replay(self, db, aggregate):
        store = HistoryStore(db)
        members = store.range_query("s0", 5.0, 36.0)
        direct = _replay(members, aggregate)
        # An aggregate over a time range is the kernel over the range's
        # members, the composition QueryServer serves.
        served = replay_aggregate(store.range_query("s0", 5.0, 36.0), aggregate)
        assert served.value == direct.value  # bitwise, no tolerance
        assert served.bound == direct.bound
        assert served.t == direct.t

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_bound_matches_pure_propagation_rule(self, db, aggregate):
        store = HistoryStore(db)
        members = store.range_query("s1", 0.0, 15.0)
        served = replay_aggregate(store.range_query("s1", 0.0, 15.0), aggregate)
        assert served.bound == aggregate_bound(
            aggregate, [m.bound for m in members], [m.value for m in members]
        )

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    @pytest.mark.parametrize("size", [1, 7, 32])
    def test_window_aggregate_bitwise(self, db, aggregate, size):
        store = HistoryStore(db)
        members = store.last_n("s0", size, t_end=60.0)
        direct = _replay(members, aggregate)
        served = store.window_aggregate("s0", aggregate, size, t_end=60.0)
        assert (served.value, served.bound, served.t) == (
            direct.value, direct.bound, direct.t
        )

    def test_window_warmup_contract(self, db):
        store = HistoryStore(db)
        with pytest.raises(HistoryError, match="not warmed up"):
            store.window_aggregate("s0", "mean", 200)
        partial = store.window_aggregate("s0", "mean", 200, emit_partial=True)
        assert partial.value == _replay(store.last_n("s0", 200), "mean").value

    def test_linear_scan_answers_identical(self, db):
        store = HistoryStore(db)
        assert store.range_query("s0", 3.0, 55.0, use_index=False) == (
            store.range_query("s0", 3.0, 55.0, use_index=True)
        )
        fast = replay_aggregate(store.range_query("s0", 3.0, 55.0), "mean")
        slow = replay_aggregate(
            store.range_query("s0", 3.0, 55.0, use_index=False), "mean"
        )
        assert (fast.value, fast.bound) == (slow.value, slow.bound)

    def test_covering_index_is_actually_used(self, db):
        # Pin the plans of the SQL the store really runs.  On a WITHOUT
        # ROWID table ``NOT INDEXED`` still searches the primary key, so
        # the linear baseline must plan as a SCAN or T9 measures nothing.
        store = HistoryStore(db)
        ran = []
        store._conn.set_trace_callback(ran.append)
        store.range_query("s0", 0.0, 10.0, use_index=True)
        store.range_query("s0", 0.0, 10.0, use_index=False)
        store._conn.set_trace_callback(None)
        indexed, linear = (
            [row[-1] for row in store._conn.execute("EXPLAIN QUERY PLAN " + sql)]
            for sql in ran
        )
        assert indexed == [
            "SEARCH archive USING PRIMARY KEY (grp=? AND t>? AND t<?)"
        ]
        assert linear[0] == "SCAN archive"
        assert not any("SEARCH" in step for step in linear)


class TestAggregateSeries:
    """A rolling series is ``window_aggregate`` per point: bitwise, no SQL."""

    @staticmethod
    def _series(store, aggregate, size, t_start, t_end):
        return [
            store.window_aggregate(
                "s0", aggregate, size, t_end=float(t), emit_partial=True
            )
            for t in range(int(t_start), int(t_end) + 1)
        ]

    def test_min_max_series_bitwise_vs_replay(self, db):
        store = HistoryStore(db)
        size = 5
        for aggregate in ("min", "max"):
            series = self._series(store, aggregate, size, 10.0, 30.0)
            assert [tup.t for tup in series] == [float(t) for t in range(10, 31)]
            for tup in series:
                direct = _replay(
                    store.last_n("s0", size, t_end=tup.t), aggregate
                )
                assert (tup.value, tup.bound) == (direct.value, direct.bound)

    def test_count_series_exact_with_zero_bound(self, db):
        store = HistoryStore(db)
        series = self._series(store, "count", 4, 2.0, 6.0)
        assert [(tup.value, tup.bound) for tup in series] == [
            (3, 0.0), (4, 0.0), (4, 0.0), (4, 0.0), (4, 0.0)
        ]


class TestIntegrity:
    def test_audit_passes_on_clean_archive(self, db):
        assert HistoryStore(db).audit() == 160
        assert HistoryStore(db).audit("s0") == 80

    def test_audit_catches_tampered_column(self, db):
        _tamper(db, "UPDATE archive SET value = value + 1.0 WHERE t = 7.0 "
                    f"AND grp * {G} + sub = (SELECT stream_key FROM streams "
                    "WHERE stream_id = 's0')")
        with pytest.raises(HistoryError, match="disagrees with its manifest"):
            HistoryStore(db).audit()

    @pytest.mark.parametrize(
        "sql, message",
        [
            ("UPDATE archive SET bound = bound * 2.0 WHERE t = 3.0", "disagrees"),
            ("DELETE FROM archive WHERE t = 50.0 AND grp = 0 AND sub = 1", "disagrees"),
            ("INSERT INTO archive VALUES (0, 500.0, 1, 1.0, 0.5, 1)", "disagrees"),
            ("INSERT INTO archive VALUES (0, 500.0, 1, 1.0, 0.5, 99)", "no manifest"),
            ("UPDATE batches SET sha256 = replace(sha256, substr(sha256, 1, 1), "
             "'x') WHERE batch = 2", "disagrees"),
            ("UPDATE batches SET rows = rows - 1 WHERE batch = 3", "disagrees"),
            ("DELETE FROM batches WHERE batch = 4", "no manifest"),
        ],
        ids=["bound", "deleted-row", "inserted-row", "unmanifested-row",
             "manifest-digest", "manifest-count", "manifest-deleted"],
    )
    def test_audit_catches_every_tamper(self, db, sql, message):
        assert HistoryStore(db).audit() == 160
        _tamper(db, sql)
        with pytest.raises(HistoryError, match=message):
            HistoryStore(db).audit("s1")

    def test_audit_reads_one_snapshot(self, db):
        # A batch committed between the audit's manifest read and its row
        # read would look like rows without a manifest; one read
        # transaction keeps the two consistent.
        store = HistoryStore(db)
        writer = ArchiveWriter(db, {"s0": 0.5})

        def flush_mid_audit(sql):
            if sql.startswith(f"SELECT grp * {G} + sub, t, value, bound, batch"):
                writer.ingest("s0", 500.0, 1.0)
                writer.flush()

        store._conn.set_trace_callback(flush_mid_audit)
        assert store.audit() == 160  # the snapshot predates the flush
        store._conn.set_trace_callback(None)
        writer.close()
        assert store.audit() == 161

    def test_duplicate_inside_one_buffer_manifests_the_rows_kept(self, db):
        store = HistoryStore(db)
        with ArchiveWriter(db, {"s0": 0.5}, batch_size=1024) as w:
            w.ingest("s0", 7.0, 123.0)      # already archived: ignored
            w.ingest("s0", 100.0, 1.0)
            w.ingest("s0", 100.0, 2.0)      # duplicate in the buffer
            w.ingest("s0", 101.0, 3.0)
            assert w.flush() == 2
        assert store.audit("s0") == 82
        # the first offer of a duplicated key is the one kept
        assert [t.value for t in store.range_query("s0", 100.0, 101.0)] == [1.0, 3.0]
        assert store.point("s0", at_t=7.0).value != 123.0

    def test_schema_version_mismatch_refuses(self, db):
        conn = sqlite3.connect(db)
        conn.execute(
            "UPDATE meta SET value = ? WHERE key = 'schema_version'",
            (str(SCHEMA_VERSION + 1),),
        )
        conn.commit()
        conn.close()
        with pytest.raises(HistoryError, match="schema version"):
            HistoryStore(db)


class TestTelemetry:
    def test_query_metrics_events_and_spans_round_trip(self, db):
        tel = Telemetry()
        store = HistoryStore(db, telemetry=tel)
        store.point("s0")
        store.range_query("s0", 0.0, 10.0)
        replay_aggregate(store.range_query("s0", 0.0, 10.0), "mean")
        store.window_aggregate("s0", "max", 4)
        samples = parse_prometheus(tel.render_prometheus())
        assert samples[("repro_history_queries_total", (("kind", "point"),))] == 1
        assert samples[("repro_history_queries_total", (("kind", "range"),))] == 3
        assert samples[("repro_history_queries_total", (("kind", "aggregate"),))] == 1
        assert (
            samples[
                ("repro_history_query_seconds_count", (("kind", "range"),))
            ]
            == 3
        )
        # 5 events for 4 calls: window_aggregate records its member fetch too.
        events = tel.tracer.events(tracing.HISTORY_QUERY)
        assert [e.tick for e in events] == [1, 2, 3, 4, 5]
        assert dict(events[1].fields) == {"query": "range", "rows": 11}
        assert dict(events[2].fields) == {"query": "range", "rows": 11}
        assert [dict(e.fields)["query"] for e in events[3:]] == ["range", "aggregate"]
        assert samples[
            ("repro_span_entries_total", (("span", "history.range"),))
        ] == 2
