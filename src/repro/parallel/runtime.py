"""The sharded fleet runtime: N streams, S shards, W workers, one result.

:class:`ShardedFleetRuntime` partitions a fleet across shards (see
:class:`~repro.parallel.sharding.ShardPlan`) and drives one
:class:`~repro.core.manager.FleetEngine` per shard inside an executor
worker — a process pool for CPU-bound main runs, the serial executor
for tests and determinism.  Because every stream's
filter is independent, a shard's engine computes *bitwise* the same
per-stream estimates, send decisions and message counts as the
single-engine batch path; the runtime's merge step scatters shard
results back to global stream order, so ``backend="sharded"`` changes
wall-clock only (equivalence-tested on every push) — for the worse on
the 2-core host it has been timed on (T6: 0.57-1.15x of one batch
engine; >=4 cores unmeasured, see ``docs/tuning.md``).

Design rules:

* **Coordinator-owned state** — every dispatch writes its shard's
  committed engine state down to the worker and reads the advanced
  state back, so workers are logically stateless.  That is what makes
  worker death recoverable: a dead worker's shard is respawned and
  *resumed from its last committed state* (a partially-written result
  region is simply overwritten by the retry), and the re-run chunk is
  accounted honestly as a degraded gap in the shard's
  :class:`ShardHealth` — the bounds served during the gap were stale by
  exactly ``recomputed_ticks`` ticks.
* **Zero-copy transport** — each shard owns one
  ``multiprocessing.shared_memory`` segment holding its measurement
  chunk, served/sent result regions, dense engine state and bounds.
  Workers operate on views of that segment, so the only thing crossing
  the executor pipe per dispatch is a small header (shard id, tick
  count, layout) and the folded telemetry coming back.
* **Fork-inherited engines** — shard engines are built coordinator-side
  into a module registry *before* the process pool forks, so workers
  inherit them for free; each dispatch only restores the shipped dense
  state into the inherited engine.  On platforms that spawn instead of
  fork, a worker rebuilds its engine once from the pickled-models blob
  stored in the shard's segment and caches it.
* **Coordinator-merged telemetry** — workers record into their own
  :class:`~repro.obs.Telemetry` (a process cannot share the
  coordinator's registry); the runtime folds worker counters and span
  stats into the coordinator sink with a ``shard`` label, so one
  registry/trace still describes the whole run.  The coordinator also
  accounts ``repro_shard_bytes_shipped_total`` per shard — the
  serialized header bytes a dispatch round-trip pushed through the
  executor pipe, independent of fleet size and chunk length.
"""

from __future__ import annotations

import gc
import itertools
import os
import pickle
import weakref
from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

from repro.core.manager import (
    _ACCOUNTING_FIELDS,
    _STATE_FIELDS,
    FleetEngine,
    FleetTrace,
    _accounting_arrays,
    _validated_deltas,
    _validated_state,
    _validated_values,
)
from repro.durability.engine import checkpoint_engine, recover_engine
from repro.errors import ConfigurationError, ShardingError
from repro.obs import tracing
from repro.obs.telemetry import Telemetry, resolve_telemetry
from repro.parallel.executors import EXECUTOR_KINDS, make_executor
from repro.parallel.sharding import ShardPlan

__all__ = ["ShardHealth", "ShardedFleetRuntime", "TRANSPORT_KINDS"]

#: The one transport.  ``transport=`` stays a validated constructor
#: keyword because the frozen ``benchmarks/e2e`` passes it; the next
#: benchmark PR removes both.
TRANSPORT_KINDS = ("shm",)

#: Shard engines keyed by ``(token, shard_id)``.  The coordinator
#: populates this *before* the process pool starts, so fork-based pools
#: inherit ready-built engines (zero per-dispatch model shipping); the
#: serial executor reads the same entries in-process.  Workers on
#: spawn platforms fill their own copy lazily from the models blob.
_ENGINE_REGISTRY: dict[tuple[str, int], FleetEngine] = {}

#: Attached shard segments keyed by ``(token, shard_id)``.  Pre-seeded
#: coordinator-side with the owner's segments (inherited over fork /
#: shared in-process), so workers normally never re-attach — a miss only
#: happens on spawn platforms, where the worker attaches by name and
#: detaches itself from its resource tracker (the coordinator owns the
#: unlink).
_WORKER_SEGMENTS: dict[tuple[str, int], "_ShardSegment"] = {}

_TOKENS = itertools.count()


@dataclass
class ShardHealth:
    """Supervision record for one shard's workers.

    Attributes:
        shard_id: Which shard this record describes.
        respawns: Worker deaths survived (each one re-dispatched the
            in-flight chunk from the last committed engine state).
        recomputed_ticks: Stream-ticks that had to be re-run after a
            death — the honest measure of how long the shard's served
            bounds were degraded (stale) while its worker was down.
        rehydrations: Times this shard's state was reloaded from a
            *durable* checkpoint (coordinator restart), as opposed to the
            in-memory resume a plain respawn uses.  Answers served between
            the checkpoint tick and the rehydration are degraded the same
            way a respawn gap is — the counter keeps that honest.
    """

    shard_id: int
    respawns: int = 0
    recomputed_ticks: int = 0
    rehydrations: int = 0


# ----------------------------------------------------------------------
# Shared-memory segments
# ----------------------------------------------------------------------
def _shard_layout(
    name: str, n_s: int, dz: int, dxm: int, chunk_cap: int, blob_len: int
) -> dict:
    """Field map of one shard's segment: ``{field: (dtype, shape, offset)}``.

    The layout dict is the whole wire format — a worker reconstructs
    every view from it, so nothing but this small dict (inside the task
    header) has to describe the segment.
    """
    fields: dict[str, tuple[str, tuple[int, ...], int]] = {}
    off = 0
    def add(fname: str, dtype: str, shape: tuple[int, ...]) -> None:
        nonlocal off
        off = (off + 63) & ~63  # 64-byte alignment for every region
        fields[fname] = (dtype, shape, off)
        off += int(np.prod(shape, dtype=np.int64)) * np.dtype(dtype).itemsize

    add("values", "f8", (chunk_cap, n_s, dz))
    add("served", "f8", (chunk_cap, n_s, dz))
    add("sent", "b1", (chunk_cap, n_s))
    add("x", "f8", (n_s, dxm))
    add("P", "f8", (n_s, dxm, dxm))
    add("warm", "b1", (n_s,))
    add("messages", "i8", (n_s,))
    add("n_predicts", "i8", (n_s,))
    add("n_updates", "i8", (n_s,))
    add("n_censored", "i8", (n_s,))
    add("ticks", "i8", (1,))
    add("deltas", "f8", (n_s,))
    add("models_blob", "u1", (max(blob_len, 1),))
    return {"name": name, "size": off, "chunk_cap": chunk_cap, "fields": fields}


class _ShardSegment:
    """One shard's shared-memory block plus cached numpy views of it.

    Views are created lazily and dropped before the underlying mmap is
    closed (a live view would raise ``BufferError``); :meth:`close` is
    the only teardown path either side uses.
    """

    __slots__ = ("shm", "layout", "_views")

    def __init__(self, shm: shared_memory.SharedMemory, layout: dict):
        self.shm = shm
        self.layout = layout
        self._views: dict[str, np.ndarray] = {}

    @classmethod
    def create(cls, layout: dict) -> "_ShardSegment":
        shm = shared_memory.SharedMemory(
            name=layout["name"], create=True, size=layout["size"]
        )
        return cls(shm, layout)

    @classmethod
    def attach(cls, layout: dict) -> "_ShardSegment":
        # Attach WITHOUT registering with the resource tracker: the
        # coordinator (creator) owns the segment's lifetime and is the
        # only process that unlinks it.  A second registration here
        # would leave the shared tracker believing the segment leaked
        # (py3.11 has no ``track=False`` knob yet, hence the patch).
        from multiprocessing import resource_tracker

        orig_register = resource_tracker.register
        resource_tracker.register = lambda *a, **k: None
        try:
            shm = shared_memory.SharedMemory(name=layout["name"])
        finally:
            resource_tracker.register = orig_register
        return cls(shm, layout)

    def view(self, fname: str) -> np.ndarray:
        arr = self._views.get(fname)
        if arr is None:
            dtype, shape, off = self.layout["fields"][fname]
            arr = np.ndarray(shape, dtype=dtype, buffer=self.shm.buf, offset=off)
            self._views[fname] = arr
        return arr

    def close(self, unlink: bool = False) -> None:
        self._views = {}
        try:
            self.shm.close()
        except BufferError:  # a stray view is keeping the mmap alive
            gc.collect()
            self.shm.close()
        if unlink:
            try:
                self.shm.unlink()
            except FileNotFoundError:
                pass


def _attached_segment(token: str, shard_id: int, layout: dict) -> _ShardSegment:
    """Worker-side segment lookup: inherited cache hit or fresh attach."""
    key = (token, shard_id)
    seg = _WORKER_SEGMENTS.get(key)
    if seg is not None and seg.layout["name"] != layout["name"]:
        # The coordinator regrew the segment after this worker forked.
        seg.close()
        seg = None
    if seg is None:
        seg = _ShardSegment.attach(layout)
        _WORKER_SEGMENTS[key] = seg
    return seg


# ----------------------------------------------------------------------
# Worker entry points (module-level so process pools can pickle them)
# ----------------------------------------------------------------------
def _maybe_fail(fail_marker: str | None) -> None:
    if fail_marker is not None:
        # Test hook: die exactly once (the marker file survives the
        # process), so respawn/resume paths can be exercised on demand.
        # Exclusive create, so of two workers racing only one dies.
        try:
            with open(fail_marker, "x"):
                pass
        except FileExistsError:
            return
        raise RuntimeError("injected worker fault (fail_marker)")


def _worker_engine(
    token: str, shard_id: int, seg: _ShardSegment, blob_len: int
) -> FleetEngine:
    """The shard's engine: fork-inherited, or rebuilt once from the blob."""
    key = (token, shard_id)
    engine = _ENGINE_REGISTRY.get(key)
    if engine is None:
        # Spawn platforms inherit nothing: rebuild from the pickled
        # ``(models, engine kwargs)`` the coordinator left in the segment.
        models, kwargs = pickle.loads(bytes(seg.view("models_blob")[:blob_len]))
        engine = FleetEngine(models, np.ones(len(models)), **kwargs)
        _ENGINE_REGISTRY[key] = engine
    return engine


def _collect_worker_telemetry(tel: Telemetry | None) -> tuple[list, list]:
    counters: list = []
    spans: list = []
    if tel is not None:
        for family in tel.metrics.families():
            if family.kind != "counter":
                continue
            for key, metric in family.instances.items():
                counters.append((family.name, dict(key), metric.value))
        for name in tel.spans.names():
            stats = tel.spans.get(name)
            spans.append((name, stats.count, stats.total_s, stats.min_s, stats.max_s))
    return counters, spans


def _run_chunk_shm(header: dict) -> tuple[int, list, list]:
    """Advance one shard by one chunk, entirely inside its shm segment.

    The header is the only thing that crossed the pipe; values, state
    and bounds are read from the segment, results and advanced state are
    written back in place.  Returns ``(shard_id, counters, spans)``.
    """
    _maybe_fail(header["fail_marker"])
    token = header["token"]
    shard_id = header["shard_id"]
    seg = _attached_segment(token, shard_id, header["layout"])
    engine = _worker_engine(token, shard_id, seg, header["blob_len"])
    tel = Telemetry() if header["collect_telemetry"] else None
    engine._tel = resolve_telemetry(tel)
    state = {f: seg.view(f) for f in _STATE_FIELDS}
    state["ticks"] = int(seg.view("ticks")[0])
    engine.restore_state(state)  # copies — never aliases the segment
    engine.set_deltas(seg.view("deltas").copy())
    n_ticks = header["n_ticks"]
    trace = engine.run(seg.view("values")[:n_ticks])
    seg.view("served")[:n_ticks] = trace.served
    seg.view("sent")[:n_ticks] = trace.sent
    advanced = engine.state_snapshot()
    for f in _STATE_FIELDS:
        seg.view(f)[:] = advanced[f]
    seg.view("ticks")[0] = advanced["ticks"]
    counters, spans = _collect_worker_telemetry(tel)
    return shard_id, counters, spans


def _warm_worker(token: str, shard_id: int) -> int:
    """Prewarm task: run the inherited shard engine on throwaway data.

    First calls into the batched hot loop are dominated by allocator
    page faults on the large per-tick temporaries; paying them here, at
    construction, keeps the first real dispatch at steady-state speed.
    Dirtying the inherited engine's state is harmless — every real
    dispatch restores the shard's committed state first.
    """
    engine = _ENGINE_REGISTRY.get((token, shard_id))
    if engine is not None:
        values = np.zeros((3, engine.n, engine.filters.dim_z_max))
        for _ in range(2):
            engine.run(values)
    return os.getpid()


def _cleanup_runtime(token: str, n_shards: int, segments: list) -> None:
    """Drop registry entries and unlink live segments (close and GC finalizer)."""
    for k in range(n_shards):
        _ENGINE_REGISTRY.pop((token, k), None)
        _WORKER_SEGMENTS.pop((token, k), None)
        if segments[k] is not None:
            segments[k].close(unlink=True)
            segments[k] = None


class ShardedFleetRuntime:
    """Drop-in fleet engine that spreads shards across executor workers.

    Presents the same driving surface as
    :class:`~repro.core.manager.FleetEngine` — :meth:`run`,
    :meth:`set_deltas`, ``messages``/``ticks`` accounting — so the
    resource manager can treat ``backend="sharded"`` exactly like
    ``backend="batch"`` with a different engine behind it.

    Args:
        models: One process model per stream (global fleet order).
        deltas: Per-stream bounds, global order.
        n_shards: How many shards to partition into (default:
            ``min(4, n_streams)``); ignored when ``plan`` is given.
        plan: Explicit :class:`ShardPlan` overriding the default
            contiguous partition.
        executor: ``"process"`` (main runs) or ``"serial"`` (tests,
            determinism, no pool).
        max_workers: Pool size; defaults to the number of shards.
        chunk_ticks: Dispatch granularity in ticks.  ``None`` runs each
            :meth:`run` window as a single chunk per shard; smaller
            chunks bound how much work a worker death can lose.
        max_respawns: Worker deaths tolerated *per shard per chunk*
            before the run is abandoned with :class:`ShardingError`.
        transport: Vestigial — ``"shm"`` (zero-copy shared-memory
            arrays, headers-only dispatch) is the only legal value.
        sketch: Optional :class:`~repro.kalman.sketch.SketchConfig` for
            sketched measurement updates on every shard engine (see
            :mod:`repro.kalman.sketch`).  The projection is seeded per
            ``(seed, dim_z, dim)``, so shards sketch identically to one
            unsharded engine — sharded results stay bitwise-equal to
            :class:`FleetEngine` under the same config.
        censor_threshold: Censor threshold for every shard engine
            (``0.0`` disables; same bitwise-parity guarantee).
        telemetry: Optional coordinator sink; worker counters and spans
            are folded into it with a ``shard`` label, worker deaths
            are traced as ``worker_respawn`` events, and dispatch
            round-trip bytes are counted as
            ``repro_shard_bytes_shipped_total`` per shard.
    """

    def __init__(
        self,
        models: list,
        deltas: np.ndarray,
        *,
        n_shards: int | None = None,
        plan: ShardPlan | None = None,
        executor: str = "process",
        max_workers: int | None = None,
        chunk_ticks: int | None = None,
        max_respawns: int = 2,
        transport: str = "shm",
        sketch=None,
        censor_threshold: float = 0.0,
        telemetry=None,
    ):
        if executor not in EXECUTOR_KINDS:
            raise ConfigurationError(
                f"unknown executor {executor!r}; expected one of {EXECUTOR_KINDS}"
            )
        if transport not in TRANSPORT_KINDS:
            raise ConfigurationError(
                f"unknown transport {transport!r}; expected one of {TRANSPORT_KINDS}"
            )
        if chunk_ticks is not None and chunk_ticks < 1:
            raise ConfigurationError(
                f"chunk_ticks must be positive, got {chunk_ticks!r}"
            )
        if max_respawns < 0:
            raise ConfigurationError(
                f"max_respawns must be >= 0, got {max_respawns!r}"
            )
        self.n = len(models)
        if plan is None:
            plan = ShardPlan.contiguous(self.n, n_shards or min(4, self.n))
        elif plan.n_streams != self.n:
            raise ConfigurationError(
                f"plan covers {plan.n_streams} streams, fleet has {self.n}"
            )
        elif n_shards is not None and n_shards != plan.n_shards:
            raise ConfigurationError(
                f"n_shards={n_shards} conflicts with plan.n_shards={plan.n_shards}"
            )
        self.plan = plan
        self.executor_kind = executor
        self.sketch = sketch
        self.censor_threshold = float(censor_threshold)
        self.max_workers = max_workers if max_workers is not None else plan.n_shards
        self.chunk_ticks = chunk_ticks
        self.max_respawns = max_respawns
        self.models = list(models)
        self._models_by_shard = plan.split_list(self.models)
        self.set_deltas(deltas)
        self.health = [ShardHealth(shard_id=k) for k in range(plan.n_shards)]
        self.messages = np.zeros(self.n, dtype=int)
        self.ticks = 0
        self._tel = resolve_telemetry(telemetry)
        self._executor = None
        #: Test hook: path of a marker file making the first worker task
        #: that sees it absent die once (exercises respawn/resume).
        self.fail_marker: str | None = None
        #: Test hook: arm :attr:`fail_marker` only on this chunk index
        #: within each :meth:`run` (``None`` = every chunk is eligible).
        self.fail_marker_chunk: int | None = None
        self._token = f"{os.getpid()}-{next(_TOKENS)}"
        self._segments: list[_ShardSegment | None] = [None] * plan.n_shards
        self._segment_gen = 0
        self._engine_kwargs = dict(
            sketch=self.sketch,
            censor_threshold=self.censor_threshold,
        )
        # Each shard's engine recipe, pickled once and stored in its
        # segment as the spawn-platform fallback for the fork-inherited
        # engine registry.
        self._blobs = [
            pickle.dumps((ms, self._engine_kwargs), protocol=pickle.HIGHEST_PROTOCOL)
            for ms in self._models_by_shard
        ]
        # One engine per shard, built before the pool ever forks so that
        # workers inherit it through the registry; the coordinator's own
        # copies never step.
        self._engines = [
            FleetEngine(shard_models, shard_deltas, **self._engine_kwargs)
            for shard_models, shard_deltas in zip(
                self._models_by_shard, plan.split(self.deltas)
            )
        ]
        for k, engine in enumerate(self._engines):
            _ENGINE_REGISTRY[(self._token, k)] = engine
        self._committed = [engine.state_snapshot() for engine in self._engines]
        self._dim_x_max = max(m.dim_x for m in self.models)
        self._finalizer = weakref.finalize(
            self, _cleanup_runtime, self._token, plan.n_shards, self._segments
        )
        if executor == "process":
            # Fork the pool now (inheriting registry + segments-to-come
            # is handled by rebuild-on-regrow) so spin-up is off the
            # first run's clock.
            self._prewarm()

    # ------------------------------------------------------------------
    # Engine surface
    # ------------------------------------------------------------------
    def set_deltas(self, deltas: np.ndarray) -> None:
        """Install new per-stream bounds (global fleet order)."""
        self.deltas = _validated_deltas(deltas, self.n)

    def run(self, values: np.ndarray) -> FleetTrace:
        """Drive a ``(T, N, dim_z_max)`` value matrix through the shards.

        Splits the stream axis by the shard plan, dispatches one task per
        shard per chunk, resumes each shard from its committed state, and
        merges results back to global stream order.  Output is bitwise
        equal to :meth:`FleetEngine.run` on the same inputs.
        """
        values = _validated_values(values, self.n)
        n_ticks = values.shape[0]
        served = np.full(values.shape, np.nan)
        sent = np.zeros((n_ticks, self.n), dtype=bool)
        if n_ticks == 0:
            # An empty trace, like the in-process engines; no segment is sized.
            return FleetTrace(served=served, sent=sent)
        deltas_by_shard = self.plan.split(self.deltas)
        values_by_shard = self.plan.split(values, axis=1)
        widths = [engine.filters.dim_z_max for engine in self._engines]
        chunk = min(self.chunk_ticks or n_ticks, n_ticks)
        self._ensure_segments(chunk)
        for chunk_idx, t0 in enumerate(range(0, n_ticks, chunk)):
            t1 = min(t0 + chunk, n_ticks)
            marker = self.fail_marker
            if marker is not None and self.fail_marker_chunk is not None:
                if chunk_idx != self.fail_marker_chunk:
                    marker = None
            tasks = [
                self._make_task(
                    k,
                    values_by_shard[k][t0:t1, :, : widths[k]],
                    deltas_by_shard[k],
                    marker,
                )
                for k in range(self.plan.n_shards)
            ]
            for res in self._dispatch(tasks, tick_base=self.ticks + t0):
                k, chunk_served, chunk_sent, state, counters, spans = res
                idx = self.plan.assignments[k]
                served[t0:t1, idx, : widths[k]] = chunk_served
                sent[t0:t1, idx] = chunk_sent
                self._committed[k] = state
                if self._tel.enabled:
                    self._merge_worker_telemetry(k, counters, spans)
        self.ticks += n_ticks
        self.messages += sent.sum(axis=0)
        return FleetTrace(served=served, sent=sent)

    # ------------------------------------------------------------------
    # Task headers and results
    # ------------------------------------------------------------------
    def _make_task(
        self,
        k: int,
        chunk_values: np.ndarray,
        shard_deltas: np.ndarray,
        fail_marker: str | None,
    ) -> dict:
        """Stage one shard's chunk in its segment; returns the task header."""
        n_ticks = chunk_values.shape[0]
        seg = self._segments[k]
        seg.view("values")[:n_ticks] = chunk_values
        seg.view("deltas")[:] = shard_deltas
        self._write_state(k)
        return {
            "token": self._token,
            "shard_id": k,
            "layout": seg.layout,
            "n_ticks": n_ticks,
            "blob_len": len(self._blobs[k]),
            "collect_telemetry": self._tel.enabled,
            "fail_marker": fail_marker,
        }

    def _read_result(self, header: dict, raw: tuple) -> tuple:
        """Copy a finished chunk out: ``(k, served, sent, state, c, s)``."""
        k = header["shard_id"]
        n_ticks = header["n_ticks"]
        _, counters, spans = raw
        seg = self._segments[k]
        chunk_served = np.array(seg.view("served")[:n_ticks])
        chunk_sent = np.array(seg.view("sent")[:n_ticks])
        return k, chunk_served, chunk_sent, self._read_state(k), counters, spans

    # ------------------------------------------------------------------
    # Shared-memory segment management
    # ------------------------------------------------------------------
    def _ensure_segments(self, chunk_cap: int) -> None:
        """(Re)create shard segments with at least ``chunk_cap`` capacity.

        Process workers that forked before a segment existed (or before
        it regrew) simply attach by name on their next task — no pool
        rebuild, so the prewarmed pool survives the first run.
        """
        for k in range(self.plan.n_shards):
            seg = self._segments[k]
            if seg is not None and seg.layout["chunk_cap"] >= chunk_cap:
                continue
            if seg is not None:
                _WORKER_SEGMENTS.pop((self._token, k), None)
                seg.close(unlink=True)
            self._segment_gen += 1
            filters = self._engines[k].filters
            layout = _shard_layout(
                f"repro-{self._token}-{k}-g{self._segment_gen}",
                filters.n,
                filters.dim_z_max,
                filters.dim_x_max,
                chunk_cap,
                len(self._blobs[k]),
            )
            seg = _ShardSegment.create(layout)
            blob = self._blobs[k]
            seg.view("models_blob")[: len(blob)] = np.frombuffer(blob, dtype="u1")
            self._segments[k] = seg
            # Same-process (serial) workers reuse the owner's mapping
            # directly — no attach at all.
            _WORKER_SEGMENTS[(self._token, k)] = seg

    def _write_state(self, k: int) -> None:
        """Commit the coordinator's state copy into the shard's segment.

        Runs before *every* dispatch, so a retry after a worker death
        always starts from committed state even if the dying worker tore
        a partial write into the segment's state block.
        """
        seg = self._segments[k]
        state = self._committed[k]
        for f in _STATE_FIELDS:
            seg.view(f)[:] = state[f]
        seg.view("ticks")[0] = state["ticks"]

    def _read_state(self, k: int) -> dict:
        """Copy the advanced state out of the segment (the new commit)."""
        seg = self._segments[k]
        state = {f: np.array(seg.view(f)) for f in _STATE_FIELDS}
        state["ticks"] = int(seg.view("ticks")[0])
        return state

    # ------------------------------------------------------------------
    # Dispatch, supervision, respawn
    # ------------------------------------------------------------------
    def _dispatch(self, tasks: list[dict], tick_base: int) -> list[tuple]:
        """Run one chunk's tasks, respawning dead workers up to the budget."""
        results: dict[int, tuple] = {}
        attempts: dict[int, int] = {t["shard_id"]: 0 for t in tasks}
        pending = list(tasks)
        while pending:
            executor = self._ensure_executor()
            futures = [
                (task, executor.submit(_run_chunk_shm, task)) for task in pending
            ]
            if self._tel.enabled:
                for task in pending:
                    # What crosses the executor pipe: the pickled header
                    # down, a small telemetry tuple back (est. 64 bytes).
                    self._tel.inc(
                        "repro_shard_bytes_shipped_total",
                        len(pickle.dumps(task)) + 64,
                        shard=str(task["shard_id"]),
                    )
            retry: list[dict] = []
            broken = False
            for task, future in futures:
                shard_id = task["shard_id"]
                try:
                    raw = future.result()
                except Exception as exc:  # worker died or task raised
                    attempts[shard_id] += 1
                    broken = True
                    health = self.health[shard_id]
                    health.respawns += 1
                    health.recomputed_ticks += task["n_ticks"]
                    if self._tel.enabled:
                        self._tel.inc(
                            "repro_worker_respawns_total", shard=str(shard_id)
                        )
                        self._tel.event(
                            tracing.WORKER_RESPAWN,
                            tick_base,
                            shard=shard_id,
                            attempt=attempts[shard_id],
                            lost_ticks=task["n_ticks"],
                            error=repr(exc),
                        )
                    if attempts[shard_id] > self.max_respawns:
                        raise ShardingError(
                            f"shard {shard_id} failed "
                            f"{attempts[shard_id]} times (budget "
                            f"{self.max_respawns} respawns); last error: {exc!r}"
                        ) from exc
                    retry.append(task)
                else:
                    results[shard_id] = self._read_result(task, raw)
            if broken:
                # A process pool may be broken wholesale after a worker
                # death; rebuild so the respawned dispatch gets live
                # workers (a fresh fork re-inherits engines + segments).
                # The serial executor survives task errors.
                if self.executor_kind == "process":
                    self._shutdown_executor()
                # The dying worker may have torn a partial state write;
                # recommit before the retry dispatches.
                for task in retry:
                    self._write_state(task["shard_id"])
            pending = retry
        return [results[t["shard_id"]] for t in tasks]

    def _ensure_executor(self):
        if self._executor is None:
            self._executor = make_executor(self.executor_kind, self.max_workers)
        return self._executor

    def _prewarm(self) -> None:
        """Fork the pool now and run every worker to steady state.

        Each prewarm task exercises the (largest) inherited shard engine
        so allocator warm-up happens at construction, not inside the
        first timed dispatch.
        """
        executor = self._ensure_executor()
        biggest = int(
            np.argmax([idx.size for idx in self.plan.assignments])
        )
        try:
            for future in [
                executor.submit(_warm_worker, self._token, biggest)
                for _ in range(self.max_workers)
            ]:
                future.result()
        except Exception:
            # A failed prewarm is not fatal — the first dispatch will
            # rebuild the pool and pay the spin-up there.
            self._shutdown_executor()

    def _shutdown_executor(self) -> None:
        if self._executor is not None:
            self._executor.shutdown(wait=False, cancel_futures=True)
            self._executor = None

    def close(self) -> None:
        """Shut the pool down and release shared memory (idempotent)."""
        self._shutdown_executor()
        _cleanup_runtime(self._token, self.plan.n_shards, self._segments)

    def __enter__(self) -> "ShardedFleetRuntime":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Durable state: global snapshot/restore + checkpoint recovery
    # ------------------------------------------------------------------
    def state_snapshot(self) -> dict:
        """Global-fleet-order snapshot in the batch engine's dense layout.

        A gather: each shard's committed ``x`` / ``P`` lands in its rows
        of ``(N, dim_x_max)`` / ``(N, dim_x_max, dim_x_max)`` arrays
        zero-padded to the *global* ``dim_x_max``, so the result is
        interchangeable with
        :meth:`~repro.core.manager.FleetEngine.state_snapshot` — a
        checkpoint written by one backend restores into the other.
        """
        x = np.zeros((self.n, self._dim_x_max))
        P = np.zeros((self.n, self._dim_x_max, self._dim_x_max))
        for idx, part in zip(self.plan.assignments, self._committed):
            d = part["x"].shape[1]
            x[idx, :d] = part["x"]
            P[idx, :d, :d] = part["P"]
        snapshot = {"x": x, "P": P, "ticks": self.ticks}
        for name in _ACCOUNTING_FIELDS:
            snapshot[name] = self.plan.merge([part[name] for part in self._committed])
        return snapshot

    def restore_state(self, snapshot: dict) -> None:
        """Resume every shard from a global-fleet-order dense snapshot.

        Accepts exactly what :meth:`state_snapshot` (or the batch
        engine's) returns — including one decoded from a durable
        checkpoint — and refuses anything else before a shard moves.  A
        scatter: each shard's rows, cut to its own ``dim_x_max``, become
        the committed state the next dispatch resumes from.
        """
        _validated_state(snapshot, self.n, self._dim_x_max)
        x, P, ticks = snapshot["x"], snapshot["P"], int(snapshot["ticks"])
        accounting = _accounting_arrays(snapshot)
        for k, (engine, idx) in enumerate(zip(self._engines, self.plan.assignments)):
            d = engine.filters.dim_x_max
            part = {name: acc[idx] for name, acc in accounting.items()}
            part.update(x=x[idx, :d], P=P[idx, :d, :d], ticks=ticks)
            self._committed[k] = part
        self.ticks = ticks
        self.messages = accounting["messages"]

    def checkpoint(self, store, *, meta: dict | None = None):
        """Commit the runtime's merged state as one durable generation.

        Returns the new generation's
        :class:`~repro.durability.store.CheckpointInfo`.
        """
        return checkpoint_engine(
            store,
            self,
            kind="sharded_runtime",
            tick=self.ticks,
            fields={"n": self.n},
            meta=meta,
            telemetry=self._tel,
        )

    def recover_from_checkpoint(self, store, telemetry=None):
        """Restore from the newest verifiable generation in ``store``.

        The coordinator-restart path: in-memory shard states are gone, so
        the runtime rebuilds them from disk through
        :func:`~repro.durability.engine.recover_engine` — a torn or
        corrupt newest generation falls back to an older one, and nothing
        touches the live shard states until a generation has fully
        verified and rehydrated into a detached shadow
        :class:`FleetEngine`.  Returns the
        :class:`~repro.durability.recovery.RecoveryReport`; an empty
        store reports success with ``generation=None`` (cold start).
        """
        report, _ = recover_engine(
            store,
            self,
            lambda: FleetEngine(self.models, self.deltas, **self._engine_kwargs),
            kind="sharded_runtime",
            expect={"n": self.n},
            telemetry=telemetry if telemetry is not None else self._tel,
        )
        return report

    # ------------------------------------------------------------------
    # Telemetry merge
    # ------------------------------------------------------------------
    def _merge_worker_telemetry(
        self, shard_id: int, counters: list, spans: list
    ) -> None:
        """Fold one worker's counters and spans in, labelled by shard."""
        tel = self._tel
        shard = str(shard_id)
        for name, labels, value in counters:
            if value > 0:
                tel.inc(name, value, shard=shard, **labels)
        for name, count, total_s, min_s, max_s in spans:
            tel.spans.fold(name, count, total_s, min_s, max_s)

    # ------------------------------------------------------------------
    # Health
    # ------------------------------------------------------------------
    @property
    def total_respawns(self) -> int:
        """Worker deaths survived across all shards."""
        return sum(h.respawns for h in self.health)

    def health_report(self) -> dict:
        """JSON-ready supervision summary (respawns and degraded gaps)."""
        return {
            "n_shards": self.plan.n_shards,
            "executor": self.executor_kind,
            "transport": "shm",
            "sketch_dim": None if self.sketch is None else self.sketch.dim,
            "censor_threshold": self.censor_threshold,
            "total_respawns": self.total_respawns,
            "shards": [
                {
                    "shard": h.shard_id,
                    "streams": int(self.plan.assignments[h.shard_id].size),
                    "respawns": h.respawns,
                    "recomputed_ticks": h.recomputed_ticks,
                    "rehydrations": h.rehydrations,
                }
                for h in self.health
            ],
        }
