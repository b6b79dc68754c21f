"""The driver: builds the real pipeline and pushes a workload through it.

Everything here calls the program through public functions only::

    FleetEngine.step -> ServingStore.ingest -> on_evict -> ArchiveWriter
        -> QueryServer.handle (+ HistoryStore, CheckpointStore)

with telemetry off (an explicit ``NullTelemetry``) unless a pass is
measuring what telemetry costs.

**One thread.**  ``ServingStore`` is not thread-safe, so the deployment
*is* one event loop carrying one ingest coroutine and two query-client
coroutines; a tick is synchronous, so a query never sees half a tick.

**Open loop.**  Where a rate is given, tick *k* is due at ``k / tick_hz``
and each request at its seeded Poisson time; every latency is timed from
the due time, so a stall is charged to everything queued behind it.
:func:`pace` sleeps to within 2 ms of due and then yield-spins
(``await asyncio.sleep(0)``) — a plain ``asyncio.sleep(delay)`` overshoots
by about a millisecond, which would *be* the query median.

**Flush policy** (fixed): ``ArchiveWriter(batch_size=1 << 20)`` and one
explicit ``flush()`` at the end of every tick, so ring ∪ committed archive
covers every served tuple at every query instant; SQLite WAL with
``synchronous=NORMAL`` exactly as ``repro.history.db.connect`` sets it;
``CheckpointStore(fsync=False)``: device latency is not what this benchmark
measures (T7 prices the fsyncs), and on a shared disk five fsyncs per
checkpoint spread mixed_history's p90 tick over 23 % between identical runs.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import resource
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

import numpy as np

from repro.core.manager import FleetEngine
from repro.durability import CheckpointStore
from repro.errors import ReproError
from repro.history import ArchiveWriter, HistoryStore
from repro.kalman import ProcessModel, random_walk
from repro.obs import NullTelemetry, Telemetry
from repro.parallel import ShardedFleetRuntime
from repro.serving import QueryServer, ServingStore

from tracer import NullTracer
from workloads import Inputs, Spec

__all__ = ["Pipeline", "Pass", "Answered", "ShardedPhase", "drive", "run_engine", "peak_rss_mb"]

#: Yield-spin inside this many seconds of a due time.
SPIN_S = 0.002
#: Closed-loop work is sized from ``--seconds`` for the reference host; on
#: a slower one it stops after this multiple of ``--seconds`` instead of
#: running its full tick count (counts then differ from the reference's).
OVERRUN = 1.5
#: Every VERIFY_EVERY-th answer is kept for re-evaluation after the run.
VERIFY_EVERY = 25
#: ShardedFleetRuntime configuration of filter_wide's sharded phase.
SHARDS = dict(n_shards=2, executor="process", transport="shm", chunk_ticks=20)


def peak_rss_mb() -> float:
    """This process's peak resident set so far, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def build_models(spec: Spec, sigmas: np.ndarray) -> list[ProcessModel]:
    """One process model per stream."""
    if spec.dim_z == 1:
        return [
            random_walk(process_noise=float(s) ** 2, measurement_sigma=0.25 * float(s))
            for s in sigmas
        ]
    # T10's wide stream: dim_z noisy views of one scalar random walk.
    s = float(sigmas[0])
    wide = ProcessModel(
        name="wide", F=np.eye(1), H=np.ones((spec.dim_z, 1)), Q=np.eye(1) * s**2,
        R=np.eye(spec.dim_z) * 0.36, P0=np.eye(1),
    )
    return [wide] * spec.n_streams


class Answered(NamedTuple):
    """One answered open-loop request, as the client saw it."""

    index: int
    kind: str
    due: float
    issue: float
    done: float
    #: ``ServingResponse.latency_s``: admission to answer, no queue wait.
    service_s: float
    provenance: str
    #: The client was already waiting when the request fell due, so
    #: ``issue - due`` is the generator's own lateness, not backlog.
    waited_idle: bool


@dataclass
class Pass:
    """What the driver measured on one pass over a workload."""

    wall_s: float = 0.0
    #: Per tick, seconds: due (or start) -> queryable and committed.
    tick_s: list = field(default_factory=list)
    #: Per tick, seconds the tick itself ran (start -> done).
    tick_busy_s: list = field(default_factory=list)
    tick_late_s: list = field(default_factory=list)
    #: One :class:`Answered` per answered open-loop request.
    queries: list = field(default_factory=list)
    #: (request, response, ticks ingested when it was answered).
    sampled: list = field(default_factory=list)
    requests_by_kind: dict = field(default_factory=dict)
    errors: int = 0
    degraded: int = 0
    closed_answers: int = 0
    closed_s: float = 0.0
    #: Repetition wall times and message counts (filter_wide).
    rep_s: list = field(default_factory=list)
    rep_messages: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    peak_rss_mb: float = 0.0
    valid: bool = True


class Pipeline:
    """The program's objects for one workload, plus the driver's tick."""

    def __init__(self, spec: Spec, inputs: Inputs, workdir: Path, telemetry=None):
        tel = NullTelemetry() if telemetry is None else telemetry
        self.spec = spec
        self.sids = inputs.stream_ids
        self.values = inputs.values
        self.tracer = NullTracer()
        self.engine = FleetEngine(
            build_models(spec, inputs.sigmas), inputs.deltas, telemetry=tel
        )
        self.store = self.writer = self.history = self.server = self.ckpt = None
        self.db_path = workdir / "archive.db"
        self.checkpoints = 0
        self.checkpoint_bytes = 0
        #: The driver's own copy of what was served, for the verifier.
        self.served = np.full(inputs.values.shape[:2], np.nan)
        if spec.ring:
            bounds = dict(zip(self.sids, inputs.deltas.tolist()))
            self.store = ServingStore(bounds, history=spec.ring)
            if spec.archive:
                self.writer = ArchiveWriter(
                    self.db_path, bounds, batch_size=1 << 20, telemetry=tel
                )
                self.writer.attach_evictions(self.store)
                self.history = HistoryStore(self.db_path, telemetry=tel)
            self.server = QueryServer(self.store, history=self.history, telemetry=tel)
            if spec.checkpoint_every:
                self.ckpt = CheckpointStore(workdir / "checkpoints", fsync=False)
            for k in range(spec.preroll):
                self.tick(k)
        else:
            # Warm-up for the trace-only engine: a few ticks, then rewind.
            self.state0 = self.engine.packed_state()
            self.engine.run(inputs.values[: min(10, inputs.ticks)])
            self.engine.restore_packed(self.state0)

    def instrument(self, tracer) -> None:
        """Install span wrappers on the instances built above."""
        self.tracer = tracer
        engine = self.engine
        tracer.wrap(engine, "step", "core.step", own_ids=self.store is None)
        tracer.wrap(engine.filters, "predicted_measurements", "kalman.predicted_measurements")
        tracer.wrap(engine.filters, "predict", "kalman.predict")
        tracer.wrap(engine.filters, "update", "kalman.update")
        tracer.wrap(engine, "state_snapshot", "durability.snapshot")
        if self.writer is not None:
            tracer.wrap_batched(self.store, "on_evict", "history.archive_ingest")
            tracer.wrap(self.writer, "flush", "history.flush")
        if self.history is not None:
            tracer.wrap(self.history, "range_query", "history.range_query", sized=True)
        if self.ckpt is not None:
            tracer.wrap(self.ckpt, "save", "durability.checkpoint")

    def tick(self, k: int) -> None:
        """One sensor tick: filter, make queryable, commit evictions, checkpoint."""
        with self.tracer.span("tick", k):
            served, _sent = self.engine.step(self.values[k])
            column = served[:, 0]
            self.served[k] = column
            t = float(k)
            ingest = self.store.ingest
            with self.tracer.span("serving.ring_ingest"):
                for sid, v in zip(self.sids, column.tolist()):
                    if v == v:  # NaN: the stream is still cold
                        ingest(sid, t, v)
                self.store.advance_tick()
            if self.writer is not None:
                self.writer.flush()
            every = self.spec.checkpoint_every
            if every and (k + 1) % every == 0:
                info = self.ckpt.save(self.engine.state_snapshot(), tick=k)
                self.checkpoints += 1
                self.checkpoint_bytes = info.payload_bytes

    def resident(self) -> int:
        """Tuples currently held by the rings."""
        return sum(self.store.history_len(sid) for sid in self.sids)

    def close(self) -> None:
        if self.history is not None:
            self.history.close()
        if self.writer is not None:
            self.writer.close()


async def pace(due: float) -> None:
    """Return as close after ``due`` (a ``perf_counter`` time) as the loop allows."""
    while True:
        delay = due - perf_counter()
        if delay <= 0.0:
            return
        await asyncio.sleep(delay - SPIN_S if delay > SPIN_S else 0)


async def drive(p: Pipeline, inputs: Inputs) -> Pass:
    """Run the measured phase of a ring-backed workload on the current loop."""
    spec, tracer, out = p.spec, p.tracer, Pass()
    first = spec.preroll
    messages0 = int(p.engine.messages.sum())
    updates0 = int(p.engine.filters.n_updates.sum())
    resident0 = p.resident()
    rows0 = p.writer.rows_written if p.writer else 0
    flushes0 = p.writer.flushes if p.writer else 0
    checkpoints0 = p.checkpoints
    history_queries0 = p.history.queries if p.history else 0
    served0, hits0 = p.server.requests_served, p.server.cache_hits
    t_start = perf_counter() + 0.01
    give_up = t_start + OVERRUN * (inputs.open_s + inputs.closed_s)

    async def ingest() -> None:
        for j in range(inputs.ticks):
            if perf_counter() > give_up:
                break  # closed loop on a host far slower than the reference
            if spec.tick_hz:
                due = t_start + j / spec.tick_hz
                await pace(due)
                began = perf_counter()
            else:
                await asyncio.sleep(0)
                due = began = perf_counter()
            p.tick(first + j)
            done = perf_counter()
            out.tick_s.append(done - due)
            out.tick_busy_s.append(done - began)
            out.tick_late_s.append(began - due)

    async def ask(index, request, due):
        """One request: the wait from ``due``, then the call into the server."""
        root = tracer.begin("query", index, start=due)
        issue = perf_counter()
        tracer.end(tracer.begin("queue_wait", start=due, parent=root), at=issue)
        try:
            with tracer.span("serving.handle", parent=root):
                response = await p.server.handle(request)
        except ReproError:
            out.errors += 1
            return None
        finally:
            tracer.end(root)
        done = perf_counter()
        if response.degraded:
            out.degraded += 1
        if index % VERIFY_EVERY == 0:
            out.sampled.append((request, response, p.store.tick))
        return issue, done, response

    async def client(c: int) -> None:
        schedule = inputs.schedule
        for i in range(c, len(schedule), 2):
            due = t_start + schedule[i].due_s
            waited_idle = perf_counter() < due
            await pace(due)
            request = schedule[i].request
            kind = request.kind
            out.requests_by_kind[kind] = out.requests_by_kind.get(kind, 0) + 1
            answered = await ask(i, request, due)
            if answered is not None:
                issue, done, response = answered
                out.queries.append(Answered(
                    i, kind, due, issue, done, response.latency_s,
                    response.provenance, waited_idle,
                ))
        if not inputs.closed_s:
            return
        # Closed loop: next request as soon as the previous one is answered.
        await pace(t_start + inputs.open_s)
        began = perf_counter()
        deadline = t_start + inputs.open_s + inputs.closed_s
        pool = inputs.closed_pool
        i = c
        while perf_counter() < deadline:
            index = len(schedule) + i
            if await ask(index, pool[i % len(pool)], perf_counter()):
                out.closed_answers += 1
            i += 2
        out.closed_s = max(out.closed_s, perf_counter() - began)

    await pace(t_start)
    tasks = [asyncio.ensure_future(ingest())]
    if inputs.schedule:
        tasks += [asyncio.ensure_future(client(c)) for c in (0, 1)]
    try:
        await asyncio.gather(*tasks)
    finally:
        for task in tasks:
            task.cancel()
    out.wall_s = perf_counter() - t_start
    out.peak_rss_mb = peak_rss_mb()
    if spec.tick_hz:
        # A final tick later than one period means the backlog was growing.
        out.valid = out.tick_late_s[-1] <= 1.0 / spec.tick_hz
    ticks = len(out.tick_s)
    messages = int(p.engine.messages.sum()) - messages0
    out.counts = {
        "readings": spec.n_streams * ticks,
        "steps": ticks,
        "messages": messages,
        # Since construction, pre-roll included: the paper's metric is a
        # property of the whole served history, and more readings steady it.
        "messages_total": int(p.engine.messages.sum()),
        "readings_total": spec.n_streams * p.engine.ticks,
        "update_rows": int(p.engine.filters.n_updates.sum()) - updates0,
        "ring_ingests": int(np.count_nonzero(~np.isnan(
            p.served[first:first + ticks]))),
        "rows_written": (p.writer.rows_written - rows0) if p.writer else 0,
        "flushes": (p.writer.flushes - flushes0) if p.writer else 0,
        "checkpoints": p.checkpoints - checkpoints0,
        "checkpoint_bytes": p.checkpoint_bytes,
        "history_queries": (p.history.queries - history_queries0) if p.history else 0,
        "served": p.server.requests_served - served0,
        "cache_hits": p.server.cache_hits - hits0,
        "cache_evictions": p.server.cache_evictions,
    }
    out.counts["ring_evictions"] = out.counts["ring_ingests"] - (p.resident() - resident0)
    return out


def _close_and_reap(runtime: ShardedFleetRuntime) -> None:
    """Close a runtime and wait for its workers: ``close()`` only *asks* the
    pool to stop, and a worker still exiting would share the next pass's cores."""
    runtime.close()
    for child in multiprocessing.active_children():
        child.join(timeout=30)


class ShardedPhase:
    """filter_wide's sharded phase: the same values through 2 worker processes.

    Layer-only: on 2 shared cores its spread is wider than any bound.  Its
    repetitions interleave with the engine's so drift on the shared host
    hits both sides of ``parallel.speedup_vs_engine`` alike.
    """

    def __init__(self, p: Pipeline, inputs: Inputs):
        self.inputs = inputs
        self.models = build_models(p.spec, inputs.sigmas)
        self.cold = p.engine.state_snapshot()
        t0 = perf_counter()
        self.runtime = ShardedFleetRuntime(
            self.models, inputs.deltas, telemetry=NullTelemetry(), **SHARDS
        )
        self.build_s = perf_counter() - t0
        self.rep_s: list[float] = []
        self.trace = None

    def rep(self) -> None:
        self.runtime.restore_state(self.cold)
        t0 = perf_counter()
        self.trace = self.runtime.run(self.inputs.values)
        self.rep_s.append(perf_counter() - t0)

    def close(self) -> None:
        _close_and_reap(self.runtime)

    def summary(self, engine_trace, engine_rep_s: list) -> dict:
        """The ``parallel.*`` metrics, given the engine's side of the comparison."""
        equal = (
            np.array_equal(self.trace.served, engine_trace.served, equal_nan=True)
            and np.array_equal(self.trace.sent, engine_trace.sent)
        )
        # Both sides ran the same readings per repetition, so the speed-up
        # is the ratio of median repetition times.
        engine_s, sharded_s = float(np.median(engine_rep_s)), float(np.median(self.rep_s))
        return {
            "parallel.sharded_readings_per_s":
                self.inputs.values.shape[1] * self.inputs.ticks / sharded_s,
            "parallel.speedup_vs_engine": engine_s / sharded_s,
            "parallel.build_s": self.build_s,
            "parallel.bytes_shipped": self._bytes_shipped(),
            "parallel.respawns": self.runtime.total_respawns,
            "parallel.bitwise_equal": int(equal),
        }

    def _bytes_shipped(self) -> float:
        """One telemetry-on run, off the clock: the program only counts the
        bytes it ships when a live sink is attached."""
        tel = Telemetry()
        counted = ShardedFleetRuntime(
            self.models, self.inputs.deltas, telemetry=tel, **SHARDS
        )
        try:
            counted.run(self.inputs.values)
        finally:
            _close_and_reap(counted)
        return float(sum(
            instance.value
            for family in tel.metrics.families()
            if family.name == "repro_shard_bytes_shipped_total"
            for instance in family.instances.values()
        ))


def run_engine(p: Pipeline, inputs: Inputs, sharded: ShardedPhase | None = None):
    """filter_wide: ``reps`` repetitions of ``FleetEngine.run`` from a cold state.

    Returns the pass and the last repetition's trace (for the sharded
    bitwise check).  Tick times are the gaps between ``on_tick`` calls.
    """
    out = Pass()
    engine, tracer = p.engine, p.tracer
    trace = None
    give_up = perf_counter() + OVERRUN * (inputs.open_s + inputs.closed_s)
    for rep in range(inputs.reps):
        if rep >= 3 and perf_counter() > give_up:
            break
        engine.restore_packed(p.state0)
        trace = None  # one trace alive at a time keeps the peak RSS steady
        stamps: list[float] = []
        stamp = stamps.append
        with tracer.span("core.run", rep):
            began = perf_counter()
            trace = engine.run(inputs.values, on_tick=lambda t, s, m: stamp(perf_counter()))
            ended = perf_counter()
        out.rep_s.append(ended - began)
        out.rep_messages.append(int(trace.sent.sum()))
        gaps = np.diff([began] + stamps).tolist()
        out.tick_s += gaps
        out.tick_busy_s += gaps
        if sharded is not None:
            sharded.rep()
    out.wall_s = sum(out.rep_s)
    out.peak_rss_mb = peak_rss_mb()
    out.counts = {
        "readings": p.spec.n_streams * inputs.ticks * len(out.rep_s),
        "steps": inputs.ticks * len(out.rep_s),
        "messages": sum(out.rep_messages),
        "messages_total": sum(out.rep_messages),
        "readings_total": p.spec.n_streams * inputs.ticks * len(out.rep_s),
        "update_rows": sum(out.rep_messages),
    }
    return out, trace
