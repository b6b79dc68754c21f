"""T9 — historical query store: ingest rate, index speedup, hybrid latency.

History claim: the SQLite archive ingests served tuples at batch rates
far above any live stream's tick rate, its ``(grp, t, sub)`` primary
key (the ``WITHOUT ROWID`` table is its own covering index; a range
query seeks the stream's group and filters ``sub``, decoding the group's
``G`` rows per tick) turns archival range queries from linear scans into
logarithmic seeks, and
hybrid serving answers over archived history at latencies of the same
order as the pure-live T8 path.

Three measurements:

* **Ingest throughput** — batched transactional inserts (one SHA-256
  manifest per batch) timed end-to-end, reported as rows/second, with
  the archive's on-disk bytes per row.

* **Index speedup** — the same range query answered via the primary key
  and via a forced full scan (unary ``+`` on the predicates; ``NOT
  INDEXED`` would still search a ``WITHOUT ROWID`` primary key) at
  archive sizes from 10^5 to 10^6 rows.  The gate is *armed* in full
  mode: the acceptance floor is >= 10x at 10^5 rows.

* **Hybrid latency** — a QueryServer over a hot ring plus the archive;
  p50/p99 per-request latency for live (the T8 baseline shape),
  historical, and stitched hybrid range queries of equal answer size.
"""

import asyncio
import os
from time import perf_counter

import numpy as np

from repro.experiments.figures import ExperimentTable
from repro.experiments.quickmode import QUICK, q
from repro.history import ArchiveWriter, HistoryStore
from repro.serving import HistoryRangeQuery, QueryServer, RangeQuery, ServingStore

N_STREAMS = 16
INGEST_ROWS = q(200_000, 4_000)
SCAN_SIZES = q([100_000, 300_000, 1_000_000], [20_000])
SCAN_REPEATS = q(20, 3)
SCAN_WINDOW = 256
RING_TICKS = q(4_000, 400)
RING_HISTORY = q(512, 128)
LATENCY_QUERIES = q(400, 40)
ANSWER_SIZE = 64
SEED = 909

#: The PR's acceptance floor: covering-index range queries at least this
#: many times faster than a forced linear scan at 10^5 archived rows.
SPEEDUP_FLOOR_AT_1E5 = 10.0


def _bounds():
    return {f"s{i}": round(0.25 * (i + 1), 6) for i in range(N_STREAMS)}


def _fill_archive(path, bounds, n_rows, batch_size=4096):
    """Ingest ``n_rows`` across the catalogue; returns rows/second."""
    sids = sorted(bounds)
    rng = np.random.default_rng(SEED)
    values = rng.standard_normal(n_rows)
    t0 = perf_counter()
    with ArchiveWriter(path, bounds, batch_size=batch_size) as w:
        for k in range(n_rows):
            w.ingest(sids[k % len(sids)], float(k // len(sids)), float(values[k]))
    return n_rows / (perf_counter() - t0)


def ingest_table(tmp):
    path = tmp / "ingest.sqlite"
    rate = _fill_archive(path, _bounds(), INGEST_ROWS)
    # The writer closed last, so SQLite folded the WAL into the file.
    bytes_per_row = path.stat().st_size / INGEST_ROWS
    table = ExperimentTable(
        experiment_id="T9a",
        title=(
            f"Archive ingest throughput, {INGEST_ROWS} tuples across "
            f"{N_STREAMS} streams (batched inserts, SHA-256 manifest per batch)"
        ),
        headers=["rows", "streams", "rows/s", "bytes/row"],
    )
    table.rows.append([INGEST_ROWS, N_STREAMS, round(rate), round(bytes_per_row, 1)])
    return table, rate, bytes_per_row


def _time_range_queries(store, sid, t_mid, use_index):
    # distinct windows so the page cache cannot hide the scan cost
    t0 = perf_counter()
    for r in range(SCAN_REPEATS):
        lo = t_mid + r * SCAN_WINDOW
        got = store.range_query(sid, lo, lo + SCAN_WINDOW - 1, use_index=use_index)
        assert len(got) == SCAN_WINDOW
    return (perf_counter() - t0) / SCAN_REPEATS


def scan_table(tmp):
    table = ExperimentTable(
        experiment_id="T9b",
        title=(
            f"Indexed vs forced-linear range query ({SCAN_WINDOW}-tick "
            f"window, mean of {SCAN_REPEATS} disjoint windows)"
        ),
        headers=["rows", "linear ms", "indexed ms", "speedup"],
    )
    speedups = {}
    bounds = _bounds()
    for size in SCAN_SIZES:
        path = tmp / f"scan_{size}.sqlite"
        _fill_archive(path, bounds, size)
        store = HistoryStore(path)
        sid = "s0"
        per_stream = size // N_STREAMS
        # centre the block of disjoint measurement windows in the stream
        span = SCAN_REPEATS * SCAN_WINDOW
        assert span <= per_stream, "scan windows must fit the stream"
        t_mid = float((per_stream - span) // 2)
        indexed = _time_range_queries(store, sid, t_mid, use_index=True)
        linear = _time_range_queries(store, sid, t_mid, use_index=False)
        # same answers either way — the index is never a semantics lever
        probe_lo = t_mid
        assert store.range_query(sid, probe_lo, probe_lo + 7, use_index=True) == (
            store.range_query(sid, probe_lo, probe_lo + 7, use_index=False)
        )
        speedups[size] = linear / indexed
        table.rows.append(
            [
                size,
                round(linear * 1e3, 3),
                round(indexed * 1e3, 3),
                round(speedups[size], 1),
            ]
        )
    return table, speedups


def _hybrid_server(tmp):
    """Eviction-fed archive + hot ring, wired into one QueryServer."""
    bounds = _bounds()
    writer = ArchiveWriter(tmp / "hybrid.sqlite", bounds, batch_size=4096)
    ring = ServingStore(
        bounds, history=RING_HISTORY, on_evict=writer.ingest_tuple
    )
    rng = np.random.default_rng(SEED + 1)
    for k in range(RING_TICKS):
        for sid in bounds:
            ring.ingest(sid, float(k), float(rng.standard_normal()))
        ring.advance_tick()
    writer.flush()
    history = HistoryStore(tmp / "hybrid.sqlite")
    return QueryServer(ring, history=history), sorted(bounds), ring


def _percentiles(latencies):
    return (
        float(np.percentile(latencies, 50)) * 1e3,
        float(np.percentile(latencies, 99)) * 1e3,
    )


def latency_table(tmp):
    server, sids, ring = _hybrid_server(tmp)
    boundary = ring.oldest_t(sids[0])  # == RING_TICKS - RING_HISTORY
    rng = np.random.default_rng(SEED + 2)

    def requests(provenance):
        out = []
        for _ in range(LATENCY_QUERIES):
            sid = sids[int(rng.integers(len(sids)))]
            if provenance == "live":
                out.append(RangeQuery(sid, ANSWER_SIZE))
            elif provenance == "historical":
                lo = float(rng.integers(0, int(boundary) - ANSWER_SIZE))
                out.append(HistoryRangeQuery(sid, lo, lo + ANSWER_SIZE - 1))
            else:  # straddle: half below the boundary, half resident
                lo = boundary - ANSWER_SIZE / 2
                out.append(HistoryRangeQuery(sid, lo, lo + ANSWER_SIZE - 1))
        return out

    table = ExperimentTable(
        experiment_id="T9c",
        title=(
            f"Hybrid serving latency, {LATENCY_QUERIES} requests per "
            f"provenance, {ANSWER_SIZE}-tuple answers "
            f"(ring {RING_HISTORY} of {RING_TICKS} ticks resident)"
        ),
        headers=["provenance", "requests", "p50 ms", "p99 ms"],
    )
    stats = {}
    for provenance in ("live", "historical", "hybrid"):
        responses = []
        for request in requests(provenance):
            t0 = perf_counter()
            resp = asyncio.run(server.handle(request))
            latency = perf_counter() - t0
            responses.append((resp, latency))
        expected = "live" if provenance == "live" else provenance
        assert all(r.provenance == expected for r, _ in responses)
        assert all(len(r.tuples) == ANSWER_SIZE for r, _ in responses)
        p50, p99 = _percentiles([lat for _, lat in responses])
        stats[provenance] = {"p50_ms": round(p50, 4), "p99_ms": round(p99, 4)}
        table.rows.append([provenance, LATENCY_QUERIES, round(p50, 3), round(p99, 3)])
    return table, stats


def test_table9_history(benchmark, record_result, tmp_path):
    def run():
        t9a, ingest_rate, bytes_per_row = ingest_table(tmp_path)
        t9b, speedups = scan_table(tmp_path)
        t9c, latencies = latency_table(tmp_path)
        return t9a, ingest_rate, bytes_per_row, t9b, speedups, t9c, latencies

    t9a, ingest_rate, bytes_per_row, t9b, speedups, t9c, latencies = (
        benchmark.pedantic(run, rounds=1, iterations=1)
    )
    if not QUICK:
        # Acceptance: the armed index gate at the 10^5-row archive.
        assert speedups[100_000] >= SPEEDUP_FLOOR_AT_1E5, (
            f"covering index must be >= {SPEEDUP_FLOOR_AT_1E5}x a linear "
            f"scan at 1e5 rows, measured {speedups[100_000]:.1f}x"
        )
    text = "\n\n".join(
        [
            t9a.render(),
            t9b.render(),
            t9c.render(),
            f"index gate: >= {SPEEDUP_FLOOR_AT_1E5:g}x at 1e5 rows "
            + ("(armed)" if not QUICK else "(quick mode, not armed)"),
        ]
    )
    record_result(
        "T9_history",
        text,
        params={
            "n_streams": N_STREAMS,
            "ingest_rows": INGEST_ROWS,
            "scan_sizes": list(SCAN_SIZES),
            "scan_repeats": SCAN_REPEATS,
            "scan_window": SCAN_WINDOW,
            "ring_ticks": RING_TICKS,
            "ring_history": RING_HISTORY,
            "latency_queries": LATENCY_QUERIES,
            "answer_size": ANSWER_SIZE,
            "seed": SEED,
            "host_cores": os.cpu_count() or 1,
        },
        headline={
            "ingest_rows_per_s": round(ingest_rate),
            "bytes_per_row": round(bytes_per_row, 1),
            "index_speedup": {str(k): round(v, 1) for k, v in speedups.items()},
            "index_gate_floor": SPEEDUP_FLOOR_AT_1E5,
            "index_gate_active": not QUICK,
            "index_gate_passed": (
                speedups.get(100_000, 0.0) >= SPEEDUP_FLOOR_AT_1E5
                if not QUICK
                else None
            ),
            "latency_ms": latencies,
        },
    )
