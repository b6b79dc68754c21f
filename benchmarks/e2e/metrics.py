"""The benchmark's vocabulary: workloads, metric names, units, directions, bounds.

``BENCHMARK.json`` at the repository root carries the same lists for the
driver; ``test_smoke.py`` asserts the two agree, so this module is the
one place a name is spelled.

Three groups of metrics:

* :data:`END_TO_END` — what a user of the pipeline sees, reported by
  **every** workload (the driver's contract: each workload prints each
  end-to-end metric, and none may be zero).  The write path, the compute
  path and the read path have different users, so throughput and latency
  are named for the workload's *op* (:data:`OPS`) and not for one layer.
  Each has a ``bound``: the share of the parent's median by which it may
  worsen before a change is a regression.
* :data:`SCOPED` — user-visible metrics that cannot be end-to-end metrics
  under that contract: those that only exist where a workload has a second
  kind of user (``mixed_history``'s query clients), a closed-loop phase
  (``serve_live``) or an archive, and the op's p90, which on this shared
  host spread wider between identical runs than any bound the contract
  allows (41 % on ``filter_wide``).  They travel in the per-layer list under
  their layer's name, are measured on the *untraced* pass like every
  end-to-end number, and ``compare.py`` still gates them with the bounds
  below.
* :data:`PER_LAYER` — one layer each, no bound; 0 where a workload leaves
  the layer idle.
"""

from __future__ import annotations

import math
import statistics

__all__ = [
    "WORKLOADS",
    "END_TO_END",
    "OPS",
    "SCOPED",
    "PER_LAYER",
    "QUERY_KINDS",
    "unit_of",
    "percentile",
    "quartile_spread",
]

#: (name, why) — the one-line reason each workload exists.
WORKLOADS = (
    (
        "ingest_evict",
        "write path: 1024 scalar streams, closed loop, every reading evicts "
        "one ring tuple into the SQLite archive; no queries, filter ~3% of wall; op = tick",
    ),
    (
        "filter_wide",
        "compute path: 20000 dim_z=8 streams through FleetEngine.run, trace "
        "only; ring, archive and query layers idle, so only kernel changes show; op = tick",
    ),
    (
        "serve_live",
        "read path: 64 streams, 1024-deep rings, no archive; open-loop 600 rps Zipf "
        "point/range/aggregate mix, cache fits but every tick invalidates it; op = query",
    ),
    (
        "mixed_history",
        "everything at once: 256 streams at 10 ticks/s, checkpoint every 5th "
        "tick, 300 rps incl. archive reads on the WAL file evictions write to; op = tick",
    ),
)

QUERY_KINDS = ("point", "range", "aggregate", "history_range", "history_aggregate")

#: (name, unit, better, bound) — reported by all four workloads.  An *op* is
#: what the workload's user waits for: a query on ``serve_live``, a tick of
#: readings on the other three (see :data:`OPS`).
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.10),
    ("ops_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("messages_per_reading", "ratio", "lower", 0.05),
)

#: workload -> (what ``ops_per_s`` counts, what ``op_p50_ms``/``driver.op_p90_ms`` time).
OPS = {
    "ingest_evict": (
        "readings per second, closed loop (the issue's readings_per_s)",
        "tick start -> last reading queryable and evictions committed (tick_p50/p90_ms)",
    ),
    "filter_wide": (
        "readings per second of FleetEngine.run, median repetition (engine_readings_per_s)",
        "one engine tick of 20000 wide streams",
    ),
    "serve_live": (
        "queries answered per second the server was busy with them",
        "query due -> answer, open loop (query_p50/p90_ms)",
    ),
    "mixed_history": (
        "readings per second the ticks were running",
        "tick due -> queryable, committed and (every 5th) checkpointed (tick_p50/p90_ms)",
    ),
}

#: (name, unit, better, bound, workloads) — user-visible, gated by
#: ``compare.py`` on the workloads named (those with the client or the
#: archive that produces them), but not by the driver's contract.
SCOPED = (
    ("driver.op_p90_ms", "ms", "lower", 0.25, tuple(name for name, _why in WORKLOADS)),
    ("serving.query_p50_ms", "ms", "lower", 0.10, ("mixed_history",)),
    ("serving.query_p90_ms", "ms", "lower", 0.15, ("mixed_history",)),
    ("serving.query_capacity_qps", "1/s", "higher", 0.10, ("serve_live",)),
    ("history.query_p50_ms", "ms", "lower", 0.10, ("mixed_history",)),
    ("history.bytes_per_row", "B", "lower", 0.005, ("ingest_evict", "mixed_history")),
)

#: (name, unit, better) — single layers; the traced pass fills them.
PER_LAYER = tuple(
    (name, unit, better) for name, unit, better, _bound, _where in SCOPED
) + (
    # filter
    ("core.run_busy_s", "s", "lower"),
    ("core.step_busy_s", "s", "lower"),
    ("core.step_us_per_reading", "us", "lower"),
    ("core.steps", "count", "lower"),
    ("core.messages", "count", "lower"),
    ("core.suppressed", "count", "higher"),
    ("kalman.predicted_measurements_busy_s", "s", "lower"),
    ("kalman.predict_busy_s", "s", "lower"),
    ("kalman.update_busy_s", "s", "lower"),
    ("kalman.update_rows", "count", "lower"),
    # shard dispatch (filter_wide only)
    ("parallel.sharded_readings_per_s", "1/s", "higher"),
    ("parallel.speedup_vs_engine", "ratio", "higher"),
    ("parallel.build_s", "s", "lower"),
    ("parallel.bytes_shipped", "B", "lower"),
    ("parallel.respawns", "count", "lower"),
    ("parallel.bitwise_equal", "count", "higher"),
    # live rings
    ("serving.ring_ingest_busy_s", "s", "lower"),
    ("serving.ring_ingest_us_per_reading", "us", "lower"),
    ("serving.ring_ingests", "count", "lower"),
    ("serving.ring_evictions", "count", "lower"),
    # query answers
    ("serving.service_p50_us.point", "us", "lower"),
    ("serving.service_p50_us.range", "us", "lower"),
    ("serving.service_p50_us.aggregate", "us", "lower"),
    ("serving.service_p50_us.history_range", "us", "lower"),
    ("serving.service_p50_us.history_aggregate", "us", "lower"),
    ("serving.aggregate_us_per_member", "us", "lower"),
    ("serving.aggregate_share_of_handle", "ratio", "lower"),
    ("serving.queue_wait_p50_ms", "ms", "lower"),
    ("serving.queue_wait_p90_ms", "ms", "lower"),
    ("serving.handle_busy_s", "s", "lower"),
    ("serving.cache_hit_ratio", "ratio", "higher"),
    ("serving.cache_evictions", "count", "lower"),
    ("serving.degraded", "count", "lower"),
    ("serving.errors", "count", "lower"),
    ("serving.query_p99_ms", "ms", "lower"),
    ("serving.provenance.live", "count", "higher"),
    ("serving.provenance.historical", "count", "higher"),
    ("serving.provenance.hybrid", "count", "higher"),
    ("serving.requests.point", "count", "higher"),
    ("serving.requests.range", "count", "higher"),
    ("serving.requests.aggregate", "count", "higher"),
    ("serving.requests.history_range", "count", "higher"),
    ("serving.requests.history_aggregate", "count", "higher"),
    # archive, write side
    ("history.archive_ingest_busy_s", "s", "lower"),
    ("history.archive_ingest_us_per_row", "us", "lower"),
    ("history.flush_busy_s", "s", "lower"),
    ("history.flush_p50_ms", "ms", "lower"),
    ("history.flush_p90_ms", "ms", "lower"),
    ("history.flushes", "count", "lower"),
    ("history.rows_written", "count", "lower"),
    # archive, read side
    ("history.range_query_p50_us", "us", "lower"),
    ("history.rows_per_query", "count", "lower"),
    ("history.queries", "count", "higher"),
    # checkpoints
    ("durability.snapshot_p50_ms", "ms", "lower"),
    ("durability.checkpoint_p50_ms", "ms", "lower"),
    ("durability.checkpoint_bytes", "B", "lower"),
    ("durability.checkpoints", "count", "lower"),
    # instrumentation cost
    ("obs.telemetry_overhead_frac", "ratio", "lower"),
    ("obs.trace_overhead_frac", "ratio", "lower"),
    # the benchmark's own driver
    ("driver.glue_busy_s", "s", "lower"),
    ("driver.wall_s", "s", "lower"),
    ("driver.tick_p50_ms", "ms", "lower"),
    ("driver.tick_p90_ms", "ms", "lower"),
    ("driver.tick_lateness_p90_ms", "ms", "lower"),
    ("driver.query_lateness_p50_us", "us", "lower"),
    ("driver.tick_p99_ms", "ms", "lower"),
    ("driver.unaccounted_frac", "ratio", "lower"),
)

_UNITS = {name: unit for name, unit, *_rest in END_TO_END + PER_LAYER}


def unit_of(name: str) -> str:
    """The unit a metric is reported in."""
    return _UNITS[name]


def percentile(samples, q: float) -> float:
    """Nearest-rank percentile ``q`` in (0, 100]; 0.0 for no samples.

    Nearest rank returns a value that was actually measured, so a
    reported p90 is a real tick or request, not an interpolation.
    """
    if not len(samples):
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def quartile_spread(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        v = float(values[0])
        return v, v, v
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)
