"""T8 — query serving: sustained QPS, latency SLOs, honest overload.

Serving claim: the async query tier answers mixed point / range /
windowed-aggregate traffic over a fleet-fed store at thousands of
requests per second with millisecond-scale latency, and under admission
overload it degrades *honestly* — every request is answered, degraded
answers are flagged and carry widened bounds, nothing is dropped.

Three measurements, all over one seeded AsyncFlow-style workload
(Poisson active users × per-user request rate, re-sampled per window):

* **Sustained throughput** — the schedule replayed closed-loop (every
  arrival fired immediately); reports sustained QPS against the SLO's
  throughput floor.  Closed-loop latency is queue depth, not service
  time, so it is reported but not gated.

* **Latency at the reference workload** — the same schedule replayed
  *paced* (arrival times honoured, time-compressed ×20); per-kind and
  overall p50/p99 serving latency graded against the SLO ceilings.  The
  gate is *armed* (a blocking assertion) in full mode: a regression that
  pushes p99 past its bound fails the benchmark, not just the dashboard.

* **Overload honesty** — the same requests fired one arrival-second
  wave at a time, each wave closed-loop against a server with a small
  admission limit, while a ticker coroutine keeps ingesting the fleet's
  next ticks; reports the degraded fraction and proves answered ==
  scheduled (no silent drops) with every degraded answer flagged, at
  least one tick stale and widened by exactly ``drift_per_tick · δ``
  per tick.
"""

import asyncio
import itertools
from collections import Counter
from time import perf_counter

import numpy as np

from repro.core.manager import FleetEngine
from repro.experiments.figures import ExperimentTable
from repro.experiments.quickmode import QUICK, q
from repro.kalman.models import random_walk
from repro.serving import (
    AdmissionConfig,
    LatencySLO,
    LoadReport,
    QueryServer,
    RequestMix,
    RVConfig,
    ServingStore,
    WorkloadModel,
    run_workload,
)

N_STREAMS = q(32, 8)
FLEET_TICKS = q(512, 128)
#: Fleet ticks held back from the store for T8c's ticker to ingest.
TICKER_TICKS = q(512, 128)
DURATION_S = q(120.0, 12.0)
ACTIVE_USERS = q(60.0, 15.0)
RPM_PER_USER = 60.0
SAMPLING_WINDOW_S = 20.0
SEED = 8080

#: Wall seconds per simulated second for the paced latency run: ×20
#: time compression, which offers ~20 · 60 rps — well under closed-loop
#: capacity, so measured latency is service time plus realistic queuing.
LATENCY_TIME_SCALE = 0.05

#: Reference SLO; calibrated with ~3x headroom over a warm 1-core run so
#: the armed gate catches regressions, not scheduler jitter.  p50/p99
#: gate the paced run; min_qps gates the closed-loop run.
SLO = LatencySLO(p50_s=0.010, p99_s=0.050, min_qps=500.0)
OVERLOAD_MAX_INFLIGHT = 8


def _serving_store():
    """A fleet-fed store: run the batch engine, ingest its served trace.

    Returns ``(store, sids, tail)``: the store holds the first
    ``FLEET_TICKS`` ticks; ``tail`` is the ``(TICKER_TICKS, N)`` served
    rows after them.
    """
    rng = np.random.default_rng(21)
    sigmas = np.geomspace(0.2, 2.0, N_STREAMS)
    models = [
        random_walk(process_noise=float(s) ** 2, measurement_sigma=0.25 * float(s))
        for s in sigmas
    ]
    deltas = np.round(np.geomspace(0.25, 2.0, N_STREAMS), 6)
    ticks = FLEET_TICKS + TICKER_TICKS
    walks = np.cumsum(
        rng.normal(0, sigmas[None, :, None], size=(ticks, N_STREAMS, 1)),
        axis=0,
    )
    values = walks + rng.normal(0, 0.25 * sigmas[None, :, None], size=walks.shape)
    trace = FleetEngine(models, deltas).run(values)
    sids = [f"s{i}" for i in range(N_STREAMS)]
    store = ServingStore(dict(zip(sids, deltas)), history=FLEET_TICKS)
    store.load_fleet_history(sids, trace.served[:FLEET_TICKS])
    return store, sids, trace.served[FLEET_TICKS:, :, 0]


def _schedule(sids):
    model = WorkloadModel(
        avg_active_users=RVConfig(ACTIVE_USERS),
        avg_request_per_minute_per_user=RVConfig(RPM_PER_USER, "normal", std=10.0),
        user_sampling_window_s=SAMPLING_WINDOW_S,
    )
    mix = RequestMix(
        tuple(sids),
        point_weight=0.6,
        range_weight=0.2,
        aggregate_weight=0.2,
        range_size=32,
        aggregate_size=32,
        aggregates=("mean", "max", "median"),
    )
    return model.build_schedule(DURATION_S, mix, seed=SEED)


def throughput_table(store, schedule):
    """Closed-loop replay -> (T8a table, report, graded throughput floor)."""
    # One throwaway replay warms caches and code paths so the measured
    # run reflects steady state, not first-touch costs.
    warm = run_workload(
        QueryServer(store, AdmissionConfig(max_inflight=100_000)),
        schedule,
        time_scale=0.0,
    )
    assert warm.n_errors == 0
    server = QueryServer(store, AdmissionConfig(max_inflight=100_000))
    report = run_workload(server, schedule, time_scale=0.0)
    assert report.n_errors == 0
    graded = LatencySLO(min_qps=SLO.min_qps).check(report)

    table = ExperimentTable(
        experiment_id="T8a",
        title=(
            f"Sustained throughput, N={N_STREAMS} streams, "
            f"{schedule.n_requests} requests fired closed-loop"
        ),
        headers=["answered", "wall ms", "qps", "floor qps", "slo"],
    )
    table.rows.append(
        [
            report.n_answered,
            round(report.wall_s * 1e3, 1),
            round(report.qps, 1),
            SLO.min_qps,
            "PASS" if graded.passed else "FAIL",
        ]
    )
    return table, report, graded


def latency_table(store, schedule):
    """Paced replay at the reference load -> (T8b table, report, graded)."""
    server = QueryServer(store, AdmissionConfig(max_inflight=100_000))
    report = run_workload(
        server, schedule, time_scale=LATENCY_TIME_SCALE, keep_responses=True
    )
    assert report.n_errors == 0
    graded = LatencySLO(p50_s=SLO.p50_s, p99_s=SLO.p99_s).check(report)

    table = ExperimentTable(
        experiment_id="T8b",
        title=(
            f"Serving latency at the reference workload "
            f"(paced, x{1 / LATENCY_TIME_SCALE:g} time compression, "
            f"offered {report.n_answered / report.wall_s:.0f} rps)"
        ),
        headers=["kind", "requests", "p50 ms", "p99 ms", "slo"],
    )
    kinds = [r.kind for r in report.responses]
    for kind in sorted(report.by_kind):
        lat = [l for l, k in zip(report.latencies_s, kinds) if k == kind]
        table.rows.append(
            [
                kind,
                report.by_kind[kind],
                round(float(np.percentile(lat, 50)) * 1e3, 3),
                round(float(np.percentile(lat, 99)) * 1e3, 3),
                "",
            ]
        )
    table.rows.append(
        [
            "all",
            report.n_answered,
            round(report.p50_s * 1e3, 3),
            round(report.p99_s * 1e3, 3),
            "PASS" if graded.passed else "FAIL",
        ]
    )
    return table, report, graded


async def _overload_burst(server, sids, tail, schedule):
    """The schedule in one-second waves, each fired closed-loop, while a
    ticker coroutine ingests one ``tail`` tick per event-loop turn.

    A request yields once inside ``QueryServer.handle``, so a single
    closed-loop burst evaluates every request in one loop turn, at one
    store version, and re-serves every cache hit fresh.  Between waves
    the ticker moves the store, so a wave's hits on answers cached by an
    earlier wave are stale; each wave alone exceeds the admission limit,
    so those hits are served degraded.
    """
    store, stop = server.store, False

    async def ticker():
        for t, row in enumerate(tail, start=FLEET_TICKS):
            if stop:
                return
            for sid, value in zip(sids, row):
                store.ingest(sid, t, value)
            store.advance_tick()
            await asyncio.sleep(0)

    ticking = asyncio.create_task(ticker())
    t0 = perf_counter()
    responses = []
    for _, wave in itertools.groupby(schedule.requests, key=lambda s: int(s.at_s)):
        responses += await asyncio.gather(*(server.handle(s.request) for s in wave))
    wall_s = perf_counter() - t0
    stop = True
    await ticking
    return LoadReport(
        n_scheduled=schedule.n_requests,
        n_answered=len(responses),
        n_degraded=sum(r.degraded for r in responses),
        wall_s=wall_s,
        latencies_s=[r.latency_s for r in responses],
        by_kind=dict(Counter(r.kind for r in responses)),
        responses=responses,
    )


def overload_table(schedule):
    """Small admission limit over a ticking store -> (T8c table, report)."""
    store, sids, tail = _serving_store()
    server = QueryServer(
        store, AdmissionConfig(max_inflight=OVERLOAD_MAX_INFLIGHT, drift_per_tick=1.0)
    )
    report = asyncio.run(_overload_burst(server, sids, tail, schedule))
    # Honesty: every scheduled request answered, every stale serve flagged.
    assert report.n_answered == report.n_scheduled
    assert report.n_degraded > 0
    # Responses are in completion order, so the newest fresh answer to a
    # request is the cache entry a later degraded hit re-served.
    fresh = {}
    for r in report.responses:
        if not r.degraded:
            fresh[r.request] = r
            continue
        assert r.reason == "overload" and r.staleness_ticks >= 1
        widen = (
            server.admission.drift_per_tick
            * store.bounds[r.request.stream_id]
            * r.staleness_ticks
        )
        base = fresh[r.request].tuples
        assert [t.value for t in r.tuples] == [t.value for t in base]
        assert [t.bound for t in r.tuples] == [t.bound + widen for t in base]
    table = ExperimentTable(
        experiment_id="T8c",
        title=(
            f"Overload honesty, admission limit {OVERLOAD_MAX_INFLIGHT} "
            f"in-flight (same workload, one closed-loop wave per arrival "
            f"second, store ticking)"
        ),
        headers=[
            "answered", "dropped", "degraded", "degraded %", "max stale", "p99 ms"
        ],
    )
    table.rows.append(
        [
            report.n_answered,
            report.n_scheduled - report.n_answered,
            report.n_degraded,
            round(100.0 * report.degraded_fraction, 2),
            max(r.staleness_ticks for r in report.responses),
            round(report.p99_s * 1e3, 3),
        ]
    )
    return table, report


def test_table8_query_serving(benchmark, record_result):
    store, sids, _ = _serving_store()
    schedule = _schedule(sids)

    def run():
        t8a, closed, graded_qps = throughput_table(store, schedule)
        t8b, paced, graded_lat = latency_table(store, schedule)
        t8c, over = overload_table(schedule)
        return t8a, closed, graded_qps, t8b, paced, graded_lat, t8c, over

    t8a, closed, graded_qps, t8b, paced, graded_lat, t8c, over = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    if not QUICK:
        # Acceptance: the armed SLO gate — the throughput floor on the
        # closed-loop run, the latency ceilings at the reference load.
        assert graded_qps.passed, graded_qps.summary()
        assert graded_lat.passed, graded_lat.summary()
    text = "\n\n".join(
        [
            t8a.render(),
            t8b.render(),
            t8c.render(),
            "throughput " + graded_qps.summary(),
            "latency    " + graded_lat.summary(),
        ]
    )
    record_result(
        "T8_query_serving",
        text,
        params={
            "n_streams": N_STREAMS,
            "fleet_ticks": FLEET_TICKS,
            "duration_s": DURATION_S,
            "avg_active_users": ACTIVE_USERS,
            "rpm_per_user": RPM_PER_USER,
            "sampling_window_s": SAMPLING_WINDOW_S,
            "n_requests": closed.n_scheduled,
            "seed": SEED,
            "latency_time_scale": LATENCY_TIME_SCALE,
            "overload_max_inflight": OVERLOAD_MAX_INFLIGHT,
        },
        headline={
            "qps": round(closed.qps, 1),
            "p50_ms": round(paced.p50_s * 1e3, 4),
            "p99_ms": round(paced.p99_s * 1e3, 4),
            "slo_passed": graded_qps.passed and graded_lat.passed,
            "slo_gate_active": not QUICK,
            "slo": {
                "p50_ms": SLO.p50_s * 1e3,
                "p99_ms": SLO.p99_s * 1e3,
                "min_qps": SLO.min_qps,
            },
            "overload_degraded_fraction": round(over.degraded_fraction, 4),
            "overload_dropped": over.n_scheduled - over.n_answered,
        },
    )
