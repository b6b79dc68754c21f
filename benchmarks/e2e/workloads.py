"""Seeded workload generator: stream inputs and the query schedule.

Everything the program is fed comes out of this module, derived from one
``--seed``: the per-stream process noise and bounds, the measurement
matrix, and a fully materialised request schedule (due time, frozen
request dataclass) whose SHA-256 is recorded with every result.  The
program never sees the seed.

Work is *fixed* once ``(seed, seconds)`` are fixed: open-loop phases run
``seconds`` at their stated rates, closed-loop phases run a tick count
sized from ``seconds`` by a nominal rate calibrated on the reference host
(2 shared cores), so every count the pipeline reports — messages, rows,
requests per kind — repeats exactly for a seed.

The request shapes go beyond ``repro.serving.workload.RequestMix``: five
kinds (the two history kinds included), Zipf stream popularity, and
history intervals placed *relative to the ring's residency boundary at
the request's due time* — wholly below it (archive-only) or straddling it
(archive stitched to ring).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass, replace

import numpy as np

from repro.serving import (
    AggregateQuery,
    HistoryAggregateQuery,
    HistoryRangeQuery,
    PointQuery,
    Query,
    RangeQuery,
)

from metrics import WORKLOADS

__all__ = ["Spec", "SPECS", "Inputs", "Scheduled", "sized", "generate"]


@dataclass(frozen=True)
class Spec:
    """One workload's shape.  Sizes are the full-run values; see :func:`sized`."""

    name: str
    n_streams: int
    dim_z: int = 1
    #: geomspace ends of per-stream process sigma and of the bound delta.
    sigma: tuple[float, float] = (0.2, 2.0)
    delta: tuple[float, float] = (0.25, 2.0)
    #: ServingStore ring length; 0 = no serving tier (engine trace only).
    ring: int = 0
    archive: bool = False
    #: Ticks run through the whole pipeline during set-up.
    preroll: int = 0
    #: Open-loop tick rate; 0 = closed loop sized by ``ticks_per_second``.
    tick_hz: float = 0.0
    #: Closed loop: ticks of work per second of ``--seconds``.
    ticks_per_second: float = 0.0
    #: filter_wide: ticks in one FleetEngine.run repetition.
    ticks_per_rep: int = 0
    checkpoint_every: int = 0
    query_rps: float = 0.0
    #: (kind, weight) pairs; weights sum to 1.
    mix: tuple[tuple[str, float], ...] = ()
    window: int = 64
    aggregates: tuple[str, ...] = ("mean", "max", "median")
    history_span: int = 64
    zipf_s: float = 1.1
    #: Share of ``--seconds`` spent in the closed-loop query phase.
    closed_share: float = 0.0
    #: What the workload's user waits for (see ``metrics.OPS``).
    op: str = "tick"


SPECS = {
    "ingest_evict": Spec(
        name="ingest_evict", n_streams=1024, ring=64, archive=True,
        preroll=64, ticks_per_second=18.0,
    ),
    "filter_wide": Spec(
        name="filter_wide", n_streams=20000, dim_z=8, delta=(1.0, 2.5),
        sigma=(0.4, 0.4), ticks_per_rep=60, ticks_per_second=70.0,
    ),
    "serve_live": Spec(
        name="serve_live", n_streams=64, ring=1024, preroll=1024,
        tick_hz=10.0, query_rps=600.0, window=64,
        mix=(("point", 0.4), ("range", 0.3), ("aggregate", 0.3)),
        closed_share=0.2, op="query",
    ),
    "mixed_history": Spec(
        name="mixed_history", n_streams=256, ring=128, archive=True,
        preroll=400, tick_hz=10.0, checkpoint_every=5, query_rps=300.0,
        window=32, history_span=64,
        mix=(
            ("point", 0.30), ("range", 0.15), ("aggregate", 0.20),
            ("history_range", 0.20), ("history_aggregate", 0.15),
        ),
    ),
}
assert tuple(SPECS) == tuple(name for name, _why in WORKLOADS)

#: --quick shrinks fleets and pre-rolls so each workload ends in <= 3 s.
_QUICK = {
    "ingest_evict": dict(n_streams=128, ring=16, preroll=16, ticks_per_second=48.0),
    "filter_wide": dict(n_streams=1500, ticks_per_rep=20, ticks_per_second=60.0),
    "serve_live": dict(preroll=160, ring=160),
    "mixed_history": dict(n_streams=64, ring=48, preroll=120, history_span=24),
}


def sized(name: str, quick: bool) -> Spec:
    """The spec to run: full size, or the ``--quick`` reduction."""
    spec = SPECS[name]
    return replace(spec, **_QUICK[name]) if quick else spec


@dataclass(frozen=True)
class Scheduled:
    """One request pinned to its due offset (seconds from phase start)."""

    due_s: float
    request: Query


@dataclass(frozen=True)
class Inputs:
    """Everything one run feeds the program."""

    stream_ids: tuple[str, ...]
    sigmas: np.ndarray
    deltas: np.ndarray
    #: ``(preroll + ticks, N, dim_z)`` measurements.
    values: np.ndarray
    #: Measured ticks (after the pre-roll); for filter_wide, repetitions.
    ticks: int
    reps: int
    open_s: float
    closed_s: float
    schedule: tuple[Scheduled, ...]
    #: Requests the closed-loop clients cycle through (no due times).
    closed_pool: tuple[Query, ...]
    schedule_hash: str


def _zipf_probabilities(rng: np.random.Generator, n: int, s: float) -> np.ndarray:
    """Zipf(s) popularity over ``n`` streams, ranks assigned by a seeded shuffle."""
    weights = 1.0 / np.arange(1, n + 1) ** s
    rng.shuffle(weights)
    return weights / weights.sum()


def _draw_request(
    spec: Spec, rng: np.random.Generator, sid: str, kind: str, boundary: int
) -> Query:
    """One request of ``kind``; ``boundary`` is the oldest resident tick
    the schedule expects at the request's due time."""
    if kind == "point":
        return PointQuery(sid)
    if kind == "range":
        return RangeQuery(sid, size=spec.window)
    agg = spec.aggregates[int(rng.integers(0, len(spec.aggregates)))]
    if kind == "aggregate":
        return AggregateQuery(sid, aggregate=agg, size=spec.window)
    span = spec.history_span
    if kind == "history_range":
        # Wholly below the residency boundary, with a 4-tick margin so a
        # late ingest tick cannot turn it into a straddling interval.
        hi = boundary - 4 - int(rng.integers(0, max(1, boundary - 4 - span)))
        return HistoryRangeQuery(sid, float(hi - span + 1), float(hi))
    if kind == "history_aggregate":
        # Straddles the boundary: half archived, half still resident.
        lo = boundary - span // 2
        return HistoryAggregateQuery(sid, agg, float(lo), float(lo + span - 1))
    raise ValueError(f"unknown query kind {kind!r}")


def _schedule(
    spec: Spec, rng: np.random.Generator, sids: tuple[str, ...],
    duration_s: float, n: int,
) -> list[Scheduled]:
    """``n`` requests over ``duration_s``: Poisson arrivals conditioned on
    their count (sorted uniforms), Zipf streams, kinds in *exact* mix
    proportions.  The seed decides order and placement, not how much of
    each kind a run gets — otherwise a percentile would move with the
    draw of the mix rather than with the program."""
    popularity = _zipf_probabilities(rng, len(sids), spec.zipf_s)
    dues = np.sort(rng.uniform(0.0, duration_s, size=n))
    streams = rng.choice(len(sids), size=n, p=popularity)
    kinds, weights = zip(*spec.mix)
    shares = np.cumsum(weights) / sum(weights)
    picks = np.searchsorted(shares, (np.arange(n) + 0.5) / n)
    rng.shuffle(picks)
    out = []
    for due, i, j in zip(dues.tolist(), streams.tolist(), picks.tolist()):
        ticks_done = spec.preroll + int(due * spec.tick_hz)
        boundary = max(0, ticks_done - spec.ring)
        out.append(Scheduled(due, _draw_request(spec, rng, sids[i], kinds[j], boundary)))
    return out


def _hash(values: np.ndarray, deltas: np.ndarray, requests) -> str:
    h = hashlib.sha256()
    h.update(memoryview(np.ascontiguousarray(values)).cast("B"))
    h.update(memoryview(np.ascontiguousarray(deltas)).cast("B"))
    for item in requests:
        due, request = (
            (item.due_s, item.request) if isinstance(item, Scheduled) else (-1.0, item)
        )
        h.update(struct.pack("<d", due))
        h.update(repr(request).encode())
    return h.hexdigest()


def generate(spec: Spec, seed: int, seconds: float) -> Inputs:
    """All inputs of one run of ``spec``; same ``(seed, seconds)`` ⇒ same inputs."""
    rng = np.random.default_rng([seed, list(SPECS).index(spec.name)])
    n = spec.n_streams
    sids = tuple(f"s{i:05d}" for i in range(n))
    sigmas = np.geomspace(*spec.sigma, n)
    # Which bound meets which noise level is part of the workload, not of
    # the seed: on 64 streams a seeded pairing moved messages_per_reading 4 %.
    deltas = np.random.default_rng(n).permutation(np.geomspace(*spec.delta, n))

    closed_s = seconds * spec.closed_share
    open_s = seconds - closed_s
    reps = 0
    if spec.ticks_per_rep:
        reps = max(3, round(seconds * spec.ticks_per_second / spec.ticks_per_rep))
        ticks = spec.ticks_per_rep
    elif spec.tick_hz:
        ticks = max(1, round(seconds * spec.tick_hz))
    else:
        ticks = max(8, round(seconds * spec.ticks_per_second))
    total = spec.preroll + ticks
    truth = np.cumsum(rng.normal(0.0, 1.0, size=(total, n)) * sigmas, axis=0)
    if spec.dim_z == 1:
        values = truth[:, :, None]
    else:
        # T10's wide stream: dim_z noisy views of one scalar walk.
        values = truth[:, :, None] + rng.normal(0.0, 0.6, size=(total, n, spec.dim_z))

    schedule: list[Scheduled] = []
    pool: list[Query] = []
    if spec.query_rps:
        schedule = _schedule(spec, rng, sids, open_s, round(spec.query_rps * open_s))
        if closed_s:
            # The closed phase starts once the open phase's ticks are in.
            late = replace(spec, preroll=spec.preroll + int(open_s * spec.tick_hz))
            pool = [s.request for s in _schedule(late, rng, sids, 0.0, 4096)]
    return Inputs(
        stream_ids=sids, sigmas=sigmas, deltas=deltas, values=values,
        ticks=ticks, reps=reps, open_s=open_s, closed_s=closed_s,
        schedule=tuple(schedule), closed_pool=tuple(pool),
        schedule_hash=_hash(values, deltas, schedule + pool),
    )
