"""Fleet-level resource management: probe, fit, allocate, run.

Implements the paper's second optimization mode — *maximize precision under
a resource constraint* — over a fleet of heterogeneous streams:

1. **Probe**: run a short prefix of each stream at a few candidate bounds
   and record message rates.
2. **Fit**: a :class:`~repro.core.allocation.RateCurve` per stream.
3. **Allocate**: per-stream bounds from the chosen allocator for the
   requested total message budget.
4. **Run**: the main phase with the allocated bounds, accounting messages
   and server-side error per stream.

Streams are replayed from recordings so every allocation strategy faces the
exact same data (paired comparison).

Every phase drives exactly one *engine* (see :class:`Engine`); the
``backend`` knob only picks which one :meth:`StreamResourceManager._make_engine`
builds:

* ``backend="scalar"`` — the reference implementation: one Python-loop
  :class:`~repro.core.session.DualKalmanPolicy` per stream, wrapped as a
  :class:`~repro.core.reference.PolicyLoopEngine`.  The oracle the other
  two are pinned against, and the only one that runs ``adaptive=True``.
* ``backend="batch"`` — the :class:`FleetEngine` fast path: the whole
  fleet is stepped per tick on a
  :class:`~repro.kalman.batch.BatchKalmanFilter`, with dead-band
  suppression and per-stream message accounting preserved.  Numerically
  equivalent to the scalar path (property-tested at atol 1e-9) and an
  order of magnitude faster on large fleets (see
  ``benchmarks/bench_table5_fleet_scaling.py``).
* ``backend="sharded"`` — the batch engine partitioned across executor
  workers by a :class:`~repro.parallel.runtime.ShardedFleetRuntime`:
  each shard runs its own batch engine in a process (or serial)
  worker, the budget allocator stays *global* (one multiplier across all
  shards, re-balanced every dynamic epoch), and merged results are
  bitwise-equal to ``backend="batch"`` (pinned by ``tests/parallel``).
  Not a measured speed-up — T6 on 2 cores: 0.57-1.15x of ``"batch"``,
  >=4 cores unmeasured — so ``"batch"`` is the recommended default.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from repro.core.allocation import (
    Allocation,
    RateCurve,
    allocate_equal_rate,
    allocate_scipy,
    allocate_uniform,
    allocate_waterfilling,
    shard_budgets,
)
from repro.core.precision import AbsoluteBound
from repro.core.protocol import HEADER_BYTES
from repro.core.session import SupervisedSession
from repro.core.supervision import RecoveryStats, SupervisionConfig
from repro.durability.engine import (
    checkpoint_engine,
    recover_engine,
    validated_snapshot,
)
from repro.errors import AllocationError, CheckpointError, ConfigurationError
from repro.kalman.batch import BatchKalmanFilter
from repro.kalman.models import ProcessModel
from repro.kalman.sketch import SketchConfig
from repro.obs import tracing
from repro.obs.telemetry import resolve_telemetry
from repro.streams.base import Reading
from repro.streams.replay import RecordedStream

__all__ = [
    "ManagedStream",
    "StreamReport",
    "FleetResult",
    "EpochReport",
    "DynamicFleetResult",
    "SupervisedStreamReport",
    "SupervisedFleetResult",
    "Engine",
    "FleetEngine",
    "FleetTrace",
    "StreamResourceManager",
]

_BACKENDS = ("scalar", "batch", "sharded")

_ALLOCATORS = {
    "uniform": allocate_uniform,
    "equal_rate": allocate_equal_rate,
    "waterfilling": allocate_waterfilling,
    "scipy": allocate_scipy,
}


def _allocator(method: str):
    try:
        return _ALLOCATORS[method]
    except KeyError:
        raise AllocationError(
            f"unknown allocation method {method!r}; "
            f"expected one of {sorted(_ALLOCATORS)}"
        ) from None


@dataclass
class ManagedStream:
    """One fleet member: its recorded data, model, and importance weight."""

    stream_id: str
    recording: RecordedStream
    model: ProcessModel
    weight: float = 1.0

    def __post_init__(self) -> None:
        if self.weight <= 0:
            raise ConfigurationError(
                f"weight must be positive, got {self.weight!r} for {self.stream_id!r}"
            )


@dataclass(frozen=True)
class StreamReport:
    """Per-stream outcome of the main phase."""

    stream_id: str
    delta: float
    messages: int
    ticks: int
    mean_abs_error: float
    max_abs_error: float

    @property
    def message_rate(self) -> float:
        """Messages per tick actually spent."""
        return self.messages / self.ticks if self.ticks else 0.0


@dataclass
class FleetResult:
    """Fleet-wide outcome for one (budget, allocator) cell."""

    method: str
    budget: float
    allocation: Allocation
    reports: list[StreamReport] = field(default_factory=list)

    @property
    def total_messages(self) -> int:
        """Messages the whole fleet actually sent."""
        return sum(r.messages for r in self.reports)

    @property
    def total_rate(self) -> float:
        """Actual fleet message rate (messages per tick)."""
        ticks = self.reports[0].ticks if self.reports else 0
        return self.total_messages / ticks if ticks else 0.0

    def mean_error(self, weights: np.ndarray | None = None) -> float:
        """Weighted mean of per-stream mean absolute errors."""
        errors = np.array([r.mean_abs_error for r in self.reports])
        w = np.ones_like(errors) if weights is None else np.asarray(weights, float)
        return float(np.sum(w * errors) / np.sum(w))

    def stream_bounds(self) -> dict[str, float]:
        """Per-stream allocated δ — the serving tier's precision config.

        This is the hand-off from resource allocation to query serving: a
        :class:`~repro.serving.store.ServingStore` built from these bounds
        tags every served tuple with the δ the allocator actually granted.
        """
        return {r.stream_id: r.delta for r in self.reports}


@dataclass(frozen=True)
class SupervisedStreamReport:
    """Per-stream outcome of a supervised (fault-injected) main phase."""

    stream_id: str
    delta: float
    ticks: int
    degraded_ticks: int
    unflagged_violations: int
    recoveries: int
    mean_recovery_ticks: float
    heartbeats: int
    nacks: int
    resyncs: int
    total_bytes: int

    @property
    def degraded_fraction(self) -> float:
        """Fraction of ticks served in degraded mode."""
        return self.degraded_ticks / self.ticks if self.ticks else 0.0


@dataclass
class SupervisedFleetResult:
    """Fleet-wide outcome of a supervised run under one fault plan."""

    method: str
    budget: float
    scenario: str
    allocation: Allocation
    reports: list[SupervisedStreamReport] = field(default_factory=list)
    recovery: RecoveryStats = field(default_factory=RecoveryStats)

    @property
    def total_bytes(self) -> int:
        """Bytes (forward + reverse) the whole fleet put on the wire."""
        return sum(r.total_bytes for r in self.reports)

    @property
    def total_unflagged(self) -> int:
        """Contract violations served without a degraded flag, fleet-wide."""
        return sum(r.unflagged_violations for r in self.reports)

    @property
    def degraded_fraction(self) -> float:
        """Fleet-wide fraction of ticks served degraded."""
        ticks = sum(r.ticks for r in self.reports)
        return sum(r.degraded_ticks for r in self.reports) / ticks if ticks else 0.0


@dataclass(frozen=True)
class EpochReport:
    """One epoch of a dynamic run: what was allocated and what it cost.

    ``recovered`` marks an epoch that was *re-computed* after a crash
    recovery fell back past it — the epoch's results had been produced
    before, lost with a corrupt checkpoint generation, and re-run from
    the surviving one.  The numbers are identical (continuation is
    bitwise), but consumers auditing availability should know these
    ticks were served late.
    """

    epoch: int
    deltas: np.ndarray
    messages: int
    ticks: int
    mean_abs_errors: np.ndarray  # per stream, NaN where no truth
    recovered: bool = False

    @property
    def rate(self) -> float:
        """Fleet message rate during this epoch."""
        return self.messages / self.ticks if self.ticks else 0.0


@dataclass
class DynamicFleetResult:
    """Outcome of a dynamic (re-allocating) fleet run.

    ``resumed_from_epoch`` / ``recovery`` are set when the run was
    resumed from a durable checkpoint: the first epoch this process
    actually executed, and the staged-recovery report that got it there
    (``None`` on a fresh run; a resume of an *empty* store records the
    report with ``generation=None`` and starts at epoch 0).
    """

    method: str
    budget: float
    epochs: list[EpochReport] = field(default_factory=list)
    resumed_from_epoch: int | None = None
    recovery: "object | None" = None

    @property
    def total_messages(self) -> int:
        """Messages across all epochs."""
        return sum(e.messages for e in self.epochs)

    def error_series(self, scales: np.ndarray | None = None) -> list[float]:
        """Per-epoch mean error, optionally normalized by stream scales."""
        out = []
        for e in self.epochs:
            errors = e.mean_abs_errors
            if scales is not None:
                errors = errors / scales
            out.append(float(np.nanmean(errors)))
        return out

    def rate_series(self) -> list[float]:
        """Per-epoch fleet message rate."""
        return [e.rate for e in self.epochs]


@dataclass
class FleetTrace:
    """Per-tick output of a :class:`FleetEngine` run.

    Attributes:
        served: ``(T, N, dim_z_max)`` served values, NaN-padded past each
            stream's measurement dimension and NaN before warm-up — the
            batched analogue of ``TickOutcome.estimate`` per tick.
        sent: ``(T, N)`` boolean; True where a measurement update went out.
        messages: ``(N,)`` messages per stream when that is more than the
            update count — the reference engine's adaptive policies also
            ship procedure switches.  ``None`` means "exactly ``sent``".
    """

    served: np.ndarray
    sent: np.ndarray
    messages: np.ndarray | None = None

    @property
    def messages_per_stream(self) -> np.ndarray:
        """Messages sent per stream over the traced window."""
        return self.sent.sum(axis=0) if self.messages is None else self.messages


class Engine(Protocol):
    """What the manager (and the durability layer) asks of a fleet engine.

    Three classes implement it: :class:`FleetEngine` (vectorized),
    :class:`~repro.parallel.runtime.ShardedFleetRuntime` (the same,
    partitioned across workers) and
    :class:`~repro.core.reference.PolicyLoopEngine` (one scalar policy
    per stream — the oracle).  Filter state persists across :meth:`run`
    calls; only the bounds change in between.
    """

    def set_deltas(self, deltas: np.ndarray) -> None:
        """Install new per-stream bounds (global fleet order)."""

    def run(self, values: np.ndarray) -> FleetTrace:
        """Advance the fleet through a ``(T, N, dim_z_max)`` value matrix."""

    def state_snapshot(self) -> dict:
        """Everything :meth:`restore_state` needs, as a held-safe copy."""

    def restore_state(self, snapshot: dict) -> None:
        """Resume from a :meth:`state_snapshot` with bitwise continuation."""

    def close(self) -> None:
        """Release workers and shared memory, if any (idempotent)."""


def _validated_values(values: np.ndarray, n: int) -> np.ndarray:
    """``values`` as a float ``(T, n, dim_z_max)`` array, or raise."""
    values = np.asarray(values, dtype=float)
    if values.ndim != 3 or values.shape[1] != n:
        raise ConfigurationError(
            f"values must have shape (T, {n}, dim_z_max), got {values.shape}"
        )
    return values


def _validated_deltas(deltas: np.ndarray, n: int) -> np.ndarray:
    """``deltas`` as an ``(n,)`` float array of positive bounds, or raise."""
    deltas = np.asarray(deltas, dtype=float).reshape(-1)
    if deltas.shape != (n,):
        raise ConfigurationError(f"deltas must have shape ({n},), got {deltas.shape}")
    if np.any(deltas <= 0):
        raise ConfigurationError("all per-stream deltas must be positive")
    return deltas


#: Per-stream fields of the :class:`FleetEngine` state besides ``x`` / ``P``.
_ACCOUNTING_FIELDS = ("warm", "messages", "n_predicts", "n_updates", "n_censored")
_STATE_FIELDS = ("x", "P") + _ACCOUNTING_FIELDS


def _validated_state(state: dict, n: int, dim_x: int) -> dict:
    """The dense :class:`FleetEngine` state, checked before a restore mutates."""
    validated_snapshot(state, n, _STATE_FIELDS, scalars=("ticks",))
    for name, shape in (("x", (n, dim_x)), ("P", (n, dim_x, dim_x))):
        value = state[name]
        if not isinstance(value, np.ndarray) or value.shape != shape:
            got = value.shape if isinstance(value, np.ndarray) else type(value).__name__
            raise ConfigurationError(
                f"snapshot field {name!r} must be one {shape} array zero-padded "
                f"to dim_x_max={dim_x}, got {got} (the per-stream list layout "
                "is not read)"
            )
    return state


def _accounting_arrays(state: dict) -> dict:
    """A validated state's accounting vectors, as fresh arrays of engine dtype."""
    return {
        name: np.array(state[name], dtype=bool if name == "warm" else int)
        for name in _ACCOUNTING_FIELDS
    }


class FleetEngine:
    """Vectorized dual-Kalman suppression over a whole fleet.

    Steps N independent (source replica, server replica) pairs per tick as
    batched linear algebra instead of N Python loops.  On an ideal channel
    the two replicas of a stream are bit-identical by construction, so the
    engine advances *one* :class:`~repro.kalman.batch.BatchKalmanFilter`
    per fleet and reproduces exactly what
    :class:`~repro.core.session.DualKalmanPolicy` would serve:

    * update tick — the measurement itself is served and one message is
      accounted to the stream;
    * coast tick — the one-step-ahead prediction is served, no message;
    * pre-warm-up ticks serve nothing (NaN).

    Only the non-adaptive fixed-bound configuration is supported — exactly
    what the manager's probe and main phases run; adaptive policies stay
    on the reference engine, lossy channels and supervision on sessions.

    Args:
        models: One process model per stream.
        deltas: Per-stream absolute bounds (the dead band half-width).
        telemetry: Optional :class:`~repro.obs.Telemetry` sink.  The
            batch path records the same ``repro_ticks_total`` /
            ``repro_messages_total`` / ``repro_suppressed_ticks_total``
            counters the scalar policy does (one per stream-tick /
            update), plus a ``batch_step[numpy]`` span per fleet tick;
            it emits no per-stream trace events, which would defeat
            vectorization.
        sketch: Optional :class:`~repro.kalman.sketch.SketchConfig` —
            sketched measurement updates (see :mod:`repro.kalman.sketch`).
            When active the per-tick span is named ``batch_step[sketch]``
            and a ``repro_sketch_dim`` gauge records the sketch dimension.
        censor_threshold: Skip measurement updates whose normalized
            innovation is at or below this many sigmas per component
            (``0.0`` disables censoring).  Censored updates are counted
            in ``repro_censored_updates_total{stream_group}``.
    """

    def __init__(
        self,
        models: list[ProcessModel],
        deltas: np.ndarray,
        telemetry=None,
        sketch: SketchConfig | None = None,
        censor_threshold: float = 0.0,
    ):
        self.filters = BatchKalmanFilter(
            models, sketch=sketch, censor_threshold=censor_threshold
        )
        self.sketch = sketch
        self.censor_threshold = self.filters.censor_threshold
        #: True when the filter bank runs sketched/censored updates.
        self.approx = self.filters.approx
        # Span names are an external interface (dashboards, benchmarks/e2e): fixed.
        self._span_name = "batch_step[sketch]" if self.approx else "batch_step[numpy]"
        self.n = self.filters.n
        self.set_deltas(deltas)
        self.warm = np.zeros(self.n, dtype=bool)
        self.messages = np.zeros(self.n, dtype=int)
        self.ticks = 0
        self._tel = resolve_telemetry(telemetry)
        if self._tel.enabled and sketch is not None:
            self._tel.set_gauge("repro_sketch_dim", sketch.dim)
        # Per-stream update payload (matches MeasurementUpdate: header +
        # 8 bytes per measurement float + the outlier flag byte).
        self._payload = np.array(
            [HEADER_BYTES + 8 * m.dim_z + 1 for m in models], dtype=int
        )

    def set_deltas(self, deltas: np.ndarray) -> None:
        """Install new per-stream bounds (used between dynamic epochs)."""
        self.deltas = _validated_deltas(deltas, self.n)

    def close(self) -> None:
        """Nothing to release — the in-process side of :meth:`Engine.close`."""

    def state_snapshot(self) -> dict:
        """Every piece of mutable engine state, as fresh dense arrays.

        ``x`` is ``(N, dim_x_max)`` and ``P`` is ``(N, dim_x_max,
        dim_x_max)``, zero-padded past each stream's ``dim_x``; the rest
        are the per-stream accounting vectors and the scalar tick counter.
        :meth:`restore_state` resumes from it with bit-identical
        continuation.  It is the one state layout: the sharded runtime
        writes it straight into shared memory and the durability layer
        persists it verbatim.  Every array is a copy, so a held snapshot
        stays immutable under later :meth:`step` calls.
        """
        x, P = self.filters.packed_states()
        return {"x": x, "P": P, **self._accounting()}

    def restore_state(self, snapshot: dict) -> None:
        """Resume from a :meth:`state_snapshot` (exact, bitwise).

        Both array shapes and every field are checked before anything
        mutates.  Accepts buffer-backed arrays (e.g. shared-memory
        views); every field is copied on the way in, so the engine never
        aliases the caller's storage.
        """
        _validated_state(snapshot, self.n, self.filters.dim_x_max)
        self.filters.set_packed_states(snapshot["x"], snapshot["P"])
        self._restore_accounting(snapshot)

    # The names benchmarks/e2e/pipeline.py calls; the same code path.
    packed_state = state_snapshot
    restore_packed = restore_state

    def _accounting(self) -> dict:
        """The non-filter half of the state (copies)."""
        return {
            "warm": self.warm.copy(),
            "messages": self.messages.copy(),
            "ticks": self.ticks,
            "n_predicts": self.filters.n_predicts.copy(),
            "n_updates": self.filters.n_updates.copy(),
            "n_censored": self.filters.n_censored.copy(),
        }

    def _restore_accounting(self, state: dict) -> None:
        acc = _accounting_arrays(state)
        self.warm, self.messages = acc["warm"], acc["messages"]
        self.ticks = int(state["ticks"])
        self.filters.n_predicts = acc["n_predicts"]
        self.filters.n_updates = acc["n_updates"]
        self.filters.n_censored = acc["n_censored"]

    def step(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Advance the whole fleet one tick.

        Args:
            values: ``(N, dim_z_max)`` measurements; an all-NaN row is a
                dropped reading (that stream coasts if warm).

        Returns:
            ``(served, sent)`` — the ``(N, dim_z_max)`` served values and
            the ``(N,)`` boolean send mask for this tick.
        """
        tel = self._tel
        if tel.enabled:
            with tel.span(self._span_name):
                served, sent = self._step(values)
            n_sent = int(np.count_nonzero(sent))
            tel.inc("repro_ticks_total", self.n)
            tel.inc("repro_suppressed_ticks_total", self.n - n_sent)
            if n_sent:
                tel.inc("repro_messages_total", n_sent, kind="update")
                tel.inc(
                    "repro_payload_bytes_total",
                    int(self._payload[sent].sum()),
                    kind="update",
                )
            if self.approx:
                for group, count in self.filters.drain_censored().items():
                    tel.inc(
                        "repro_censored_updates_total", count, stream_group=group
                    )
            return served, sent
        return self._step(values)

    def _step(self, values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values = np.asarray(values, dtype=float)
        pred = self.filters.predicted_measurements()
        have = ~np.all(np.isnan(values), axis=1)
        # Max-norm dead-band test, evaluated only where a warm stream has a fresh
        # measurement; err stays +inf elsewhere so cold streams always send.
        err = np.full(self.n, np.inf)
        cand = have & self.warm
        if cand.any():
            err[cand] = np.nanmax(np.abs(pred[cand] - values[cand]), axis=1)
        sent = have & (err > self.deltas)
        # Exactly one predict per warm-or-sending stream per tick (an
        # update tick is predict+update, a coast tick is predict alone).
        self.filters.predict(mask=self.warm | sent)
        if sent.any():
            self.filters.update(values, mask=sent)
        served = np.where(
            sent[:, None], values, np.where(self.warm[:, None], pred, np.nan)
        )
        self.warm |= sent
        self.messages += sent
        self.ticks += 1
        return served, sent

    def run(self, values: np.ndarray, on_tick=None) -> FleetTrace:
        """Drive a ``(T, N, dim_z_max)`` value matrix through the fleet.

        Args:
            values: The ``(T, N, dim_z_max)`` measurement matrix.
            on_tick: Optional ``on_tick(t, served_t, sent_t)`` callback
                invoked after every step with that tick's ``(N, dim)``
                served row and ``(N,)`` sent mask — how a live consumer
                (the query-serving store) observes the fleet without the
                engine knowing about it.  The rows are views into the
                trace; callbacks must not mutate them.
        """
        values = _validated_values(values, self.n)
        n_ticks = values.shape[0]
        served = np.empty_like(values)
        sent = np.zeros((n_ticks, self.n), dtype=bool)
        for t in range(n_ticks):
            served[t], sent[t] = self.step(values[t])
            if on_tick is not None:
                on_tick(t, served[t], sent[t])
        return FleetTrace(served=served, sent=sent)


def _stack_uniform(
    flat: list, n: int, n_ticks: int, dim_z_max: int
) -> np.ndarray | None:
    """Vectorized stacking for the fully-uniform case, or ``None``.

    ``flat`` is stream-major: all of stream 0's ticks, then stream 1's,
    etc.  ``np.asarray`` doubles as the uniformity check — any ``None``
    entry (dropped tick) or ragged measurement dimension raises, and a
    result that is not exactly ``(n * n_ticks, dim_z_max)`` means some
    stream reports fewer dimensions than the fleet maximum and needs
    NaN-padding; both cases defer to the per-reading fallback loop.
    """
    try:
        arr = np.asarray(flat, dtype=np.float64)
    except (ValueError, TypeError):
        return None
    if arr.shape != (n * n_ticks, dim_z_max):
        return None
    return np.ascontiguousarray(arr.reshape(n, n_ticks, dim_z_max).transpose(1, 0, 2))


def _stack_fleet(
    readings_per_stream: list[list[Reading]], dim_z_max: int
) -> tuple[np.ndarray, np.ndarray]:
    """Stack per-stream readings into ``(T, N, dim_z_max)`` value/truth arrays.

    Streams shorter than the longest are padded with dropped (NaN) ticks;
    a padded tick never sends, never serves a judgeable value, and never
    carries truth, so per-stream accounting is unaffected.

    The common case — every stream the same length, every tick carrying a
    full ``dim_z_max``-dimensional value — is stacked with one
    ``np.asarray`` per side instead of a per-reading assignment loop
    (the loop is quadratic-constant death at fleet scale: stacking 4096
    streams x 40 ticks dominated the whole T5 batch cell before this
    fast path).  Values and truths fall back independently, so a fleet
    with full values but patchy truth still stacks its values fast.
    """
    n = len(readings_per_stream)
    n_ticks = max(len(r) for r in readings_per_stream)
    uniform_len = all(len(r) == n_ticks for r in readings_per_stream)

    values = truths = None
    if uniform_len:
        values = _stack_uniform(
            [r.value for rs in readings_per_stream for r in rs],
            n, n_ticks, dim_z_max,
        )
        truths = _stack_uniform(
            [r.truth for rs in readings_per_stream for r in rs],
            n, n_ticks, dim_z_max,
        )
    if values is None:
        values = np.full((n_ticks, n, dim_z_max), np.nan)
        for k, readings in enumerate(readings_per_stream):
            for t, reading in enumerate(readings):
                if reading.value is not None:
                    values[t, k, : reading.value.shape[0]] = reading.value
    if truths is None:
        truths = np.full((n_ticks, n, dim_z_max), np.nan)
        for k, readings in enumerate(readings_per_stream):
            for t, reading in enumerate(readings):
                if reading.truth is not None:
                    truths[t, k, : reading.truth.shape[0]] = reading.truth
    return values, truths


def _fleet_abs_errors(
    served: np.ndarray, truths: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Per-stream (mean, max) of the per-tick max-abs served-vs-truth error.

    Only ticks where both a served value and a truth exist are scored,
    matching the scalar path's ``estimate is not None and truth is not
    None`` rule; streams with no scorable tick report NaN.
    """
    diff = np.abs(served - truths)
    err = np.full(diff.shape[:2], np.nan)
    valid = ~np.all(np.isnan(diff), axis=2)
    if valid.any():
        err[valid] = np.nanmax(diff[valid], axis=1)
    n = served.shape[1]
    mean_err = np.full(n, np.nan)
    max_err = np.full(n, np.nan)
    for k in range(n):
        col = err[:, k]
        col = col[~np.isnan(col)]
        if col.size:
            mean_err[k] = float(np.mean(col))
            max_err[k] = float(np.max(col))
    return mean_err, max_err


class StreamResourceManager:
    """Probe/fit/allocate/run controller for a fleet of streams.

    Args:
        streams: Fleet members (recordings must all be at least
            ``probe_ticks + run_ticks`` long).
        probe_deltas_rel: Probe bounds *relative to each stream's scale*
            (the std-dev of its one-tick changes), so heterogeneous fleets
            probe sensible ranges.  The grid should overlap the bounds the
            allocator will pick: power-law fits extrapolate poorly from the
            saturated small-delta regime into the sparse large-delta one.
        probe_ticks: Prefix length used for probing (at least 1).
        adaptive: Whether main-phase policies carry online adaptation.
        backend: ``"scalar"`` (reference, one policy loop per stream),
            ``"batch"`` (the :class:`FleetEngine` fast path; numerically
            equivalent, requires ``adaptive=False``) or ``"sharded"``
            (the batch engine partitioned across
            :class:`~repro.parallel.runtime.ShardedFleetRuntime` workers;
            bitwise-equal to batch, requires ``adaptive=False``).  Probe,
            main and dynamic phases honour the knob; supervised runs
            always run per-stream sessions (faults and supervision are
            per-stream stateful).
        n_shards: Shard count for ``backend="sharded"`` (clamped to the
            fleet size; default 4).  Ignored by other backends.
        shard_executor: Executor kind for ``backend="sharded"``:
            ``"process"`` (CPU-bound main runs) or ``"serial"`` (tests
            and strict determinism).  Validated for every backend.
        sketch: Optional :class:`~repro.kalman.sketch.SketchConfig` for
            sketched measurement updates on the ``"batch"`` and
            ``"sharded"`` backends (see :mod:`repro.kalman.sketch`).
            This knob *changes results*, so requesting it with
            ``backend="scalar"`` raises
            :class:`~repro.errors.ConfigurationError` rather than being
            silently ignored.
        censor_threshold: Censor measurement updates whose normalized
            innovation is at or below this many sigmas per component
            (``0.0`` disables).  Same backend rules as ``sketch``.
        telemetry: Optional :class:`~repro.obs.Telemetry` sink threaded
            through every phase: the probe, allocation solve and main
            run are span-timed, dynamic re-allocations are traced as
            ``epoch_realloc`` events, and the per-stream engines/policies
            of every backend report the shared protocol counters (the
            sharded backend merges worker registries in with a ``shard``
            label and traces worker deaths as ``worker_respawn``).
    """

    def __init__(
        self,
        streams: list[ManagedStream],
        probe_deltas_rel: tuple[float, ...] = (0.5, 1.0, 2.0, 4.0, 8.0),
        probe_ticks: int = 1000,
        adaptive: bool = False,
        backend: str = "scalar",
        n_shards: int = 4,
        shard_executor: str = "process",
        sketch: SketchConfig | None = None,
        censor_threshold: float = 0.0,
        telemetry=None,
    ):
        # Imported lazily: repro.parallel imports FleetEngine from this
        # module at import time.
        from repro.parallel.executors import EXECUTOR_KINDS

        if not streams:
            raise ConfigurationError("the fleet must contain at least one stream")
        ids = [s.stream_id for s in streams]
        if len(set(ids)) != len(ids):
            raise ConfigurationError(f"duplicate stream ids in fleet: {ids}")
        if len(probe_deltas_rel) < 2:
            raise ConfigurationError("need at least two probe deltas")
        if probe_ticks < 1:
            raise ConfigurationError(f"probe_ticks must be >= 1, got {probe_ticks!r}")
        if backend not in _BACKENDS:
            raise ConfigurationError(
                f"unknown backend {backend!r}; expected one of {_BACKENDS}"
            )
        if backend != "scalar" and adaptive:
            raise ConfigurationError(
                f"backend={backend!r} supports fixed-bound fleets only; "
                "adaptive policies must run on the scalar backend"
            )
        if n_shards < 1:
            raise ConfigurationError(f"n_shards must be >= 1, got {n_shards!r}")
        if shard_executor not in EXECUTOR_KINDS:
            raise ConfigurationError(
                f"unknown shard_executor {shard_executor!r}; "
                f"expected one of {EXECUTOR_KINDS}"
            )
        if backend == "scalar" and (
            sketch is not None or float(censor_threshold) != 0.0
        ):
            # sketch/censor change served results, so silently ignoring
            # them on the exact backend would be dishonest.
            raise ConfigurationError(
                "sketch/censor_threshold require backend='batch' or "
                "'sharded'; the scalar path is always exact"
            )
        self.streams = streams
        self.probe_deltas_rel = probe_deltas_rel
        self.probe_ticks = probe_ticks
        self.adaptive = adaptive
        self.backend = backend
        self.n_shards = n_shards
        self.shard_executor = shard_executor
        self.sketch = sketch
        self.censor_threshold = float(censor_threshold)
        self._tel = resolve_telemetry(telemetry)
        self._curves: list[RateCurve] | None = None
        self._scales: list[float] | None = None

    @property
    def _dim_z_max(self) -> int:
        return max(m.model.dim_z for m in self.streams)

    def _make_engine(
        self, models: list[ProcessModel], deltas: np.ndarray, detached: bool = False
    ) -> Engine:
        """Build the one engine the backend knob selects.

        The only place ``backend`` steers execution.  ``detached=True``
        builds the in-process stand-in a staged recovery rehydrates a
        checkpoint into *before* the live engine is touched: same state
        format, no worker pool, no telemetry.
        """
        tel = None if detached else self._tel
        if self.backend == "scalar":
            # Imported lazily (as is the sharded runtime below): both
            # modules import FleetTrace from this one at import time.
            from repro.core.reference import PolicyLoopEngine

            return PolicyLoopEngine(
                models, deltas, adaptive=self.adaptive, telemetry=tel
            )
        approx = dict(sketch=self.sketch, censor_threshold=self.censor_threshold)
        if self.backend == "sharded" and not detached:
            from repro.parallel.runtime import ShardedFleetRuntime

            return ShardedFleetRuntime(
                models,
                deltas,
                n_shards=min(self.n_shards, len(models)),
                executor=self.shard_executor,
                telemetry=tel,
                **approx,
            )
        return FleetEngine(models, deltas, telemetry=tel, **approx)

    # ------------------------------------------------------------------
    # Phase 1-2: probe and fit
    # ------------------------------------------------------------------
    def probe(self) -> list[RateCurve]:
        """Measure rate curves on each stream's probe prefix (cached).

        All ``n_streams x n_probe_deltas`` probe runs are stacked into one
        virtual fleet and driven through one engine — on the vectorized
        backends probing cost no longer grows with a Python loop per
        (stream, δ) cell.
        """
        if self._curves is not None:
            return self._curves
        probe_readings: list[list[Reading]] = []
        scales: list[float] = []
        for managed in self.streams:
            readings = managed.recording.readings[: self.probe_ticks]
            if len(readings) < self.probe_ticks:
                raise ConfigurationError(
                    f"stream {managed.stream_id!r} too short for probing "
                    f"({len(readings)} < {self.probe_ticks})"
                )
            probe_readings.append(readings)
            scales.append(_stream_scale(readings))
        rels = self.probe_deltas_rel
        n_rel = len(rels)
        with self._tel.span("probe"):
            values, _ = _stack_fleet(probe_readings, self._dim_z_max)
            # Virtual fleet: stream k probed at bound j lives at index
            # k*n_rel+j, so each stream's value column is repeated n_rel
            # times in place.
            engine = self._make_engine(
                [m.model for m in self.streams for _ in rels],
                np.array([rel * scale for scale in scales for rel in rels]),
            )
            try:
                trace = engine.run(np.repeat(values, n_rel, axis=1))
            finally:
                engine.close()
            sent = trace.messages_per_stream.reshape(len(self.streams), n_rel)
            curves: list[RateCurve] = []
            for k, scale in enumerate(scales):
                probe_deltas = np.array([rel * scale for rel in rels])
                # Zero-message probes break the log fit; floor at one
                # message over the probe window.
                rates = np.maximum(sent[k], 1) / self.probe_ticks
                curves.append(RateCurve.fit(probe_deltas, rates))
        self._curves = curves
        self._scales = scales
        return curves

    @property
    def scales(self) -> list[float]:
        """Per-stream measurement scales discovered during probing."""
        if self._scales is None:
            self.probe()
        assert self._scales is not None
        return self._scales

    # ------------------------------------------------------------------
    # Phase 3: allocate
    # ------------------------------------------------------------------
    def allocate(self, budget: float, method: str = "waterfilling") -> Allocation:
        """Per-stream bounds for a fleet-wide message budget (msgs/tick)."""
        _allocator(method)  # an unknown method fails before paying for a probe
        return self._solve(self.probe(), budget, method)

    def _solve(
        self, curves: list[RateCurve], budget: float, method: str
    ) -> Allocation:
        """One allocation solve over ``curves`` (probed or re-anchored)."""
        allocator = _allocator(method)
        with self._tel.span("allocation_solve"):
            if method in ("waterfilling", "scipy"):
                # Weight imprecision by stream importance and normalize by
                # scale so a degree of temperature and a metre of position
                # compare.
                weights = np.array(
                    [
                        s.weight / max(sc, 1e-12)
                        for s, sc in zip(self.streams, self.scales)
                    ]
                )
                return allocator(curves, budget, weights=weights)
            return allocator(curves, budget)

    # ------------------------------------------------------------------
    # Phase 4: run
    # ------------------------------------------------------------------
    def _main_readings(self, run_ticks: int | None) -> list[list[Reading]]:
        """Each stream's main-phase readings (everything after the probe)."""
        if run_ticks is not None and run_ticks <= 0:
            raise ConfigurationError(f"run_ticks must be positive, got {run_ticks!r}")
        readings_per_stream: list[list[Reading]] = []
        for managed in self.streams:
            readings = managed.recording.readings[self.probe_ticks :]
            if run_ticks is not None:
                readings = readings[:run_ticks]
            if not readings:
                raise ConfigurationError(
                    f"stream {managed.stream_id!r} has no readings left for the "
                    "main phase; record more ticks"
                )
            readings_per_stream.append(readings)
        return readings_per_stream

    def run(
        self,
        budget: float,
        method: str = "waterfilling",
        run_ticks: int | None = None,
    ) -> FleetResult:
        """Execute the main phase under the allocated bounds."""
        readings_per_stream = self._main_readings(run_ticks)
        allocation = self.allocate(budget, method)
        result = FleetResult(method=method, budget=budget, allocation=allocation)
        tel = self._tel
        if tel.enabled:
            tel.set_gauge("repro_fleet_size", len(self.streams))
            tel.set_gauge("repro_fleet_budget", budget)
        with tel.span("main_run"):
            values, truths = _stack_fleet(readings_per_stream, self._dim_z_max)
            engine = self._make_engine(
                [m.model for m in self.streams], np.asarray(allocation.deltas, float)
            )
            try:
                trace = engine.run(values)
            finally:
                engine.close()
            mean_err, max_err = _fleet_abs_errors(trace.served, truths)
            messages = trace.messages_per_stream
            for k, (managed, delta) in enumerate(zip(self.streams, allocation.deltas)):
                result.reports.append(
                    StreamReport(
                        stream_id=managed.stream_id,
                        delta=float(delta),
                        messages=int(messages[k]),
                        ticks=len(readings_per_stream[k]),
                        mean_abs_error=float(mean_err[k]),
                        max_abs_error=float(max_err[k]),
                    )
                )
        return result

    # ------------------------------------------------------------------
    # Supervised mode: the main phase under injected faults + recovery
    # ------------------------------------------------------------------
    def run_supervised(
        self,
        budget: float,
        method: str = "waterfilling",
        plan: "FaultPlan | None" = None,
        config: SupervisionConfig | None = None,
        run_ticks: int | None = None,
    ) -> SupervisedFleetResult:
        """Execute the main phase with supervision and an optional fault plan.

        Each stream runs a full :class:`~repro.core.session.SupervisedSession`
        (heartbeats, NACK/backoff resync, degradation flags) under its
        allocated bound.  The fault plan is re-seeded per stream so fleet
        members see independent fault realizations of the same scenario;
        per-stream :class:`~repro.core.supervision.RecoveryStats` are folded
        into the fleet-wide ``result.recovery``.
        """
        readings_per_stream = self._main_readings(run_ticks)
        allocation = self.allocate(budget, method)
        result = SupervisedFleetResult(
            method=method,
            budget=budget,
            scenario=plan.describe() if plan is not None else "fault-free",
            allocation=allocation,
        )
        for idx, (managed, delta, readings) in enumerate(
            zip(self.streams, allocation.deltas, readings_per_stream)
        ):
            stream_plan = (
                plan.with_seed(plan.seed + idx) if plan is not None else None
            )
            session = SupervisedSession(
                RecordedStream(readings, dt=managed.recording.dt),
                managed.model,
                AbsoluteBound(float(delta)),
                plan=stream_plan,
                config=config,
                stream_id=managed.stream_id,
                telemetry=self._tel,
            )
            trace = session.run(len(readings))
            result.reports.append(
                SupervisedStreamReport(
                    stream_id=managed.stream_id,
                    delta=float(delta),
                    ticks=trace.n_ticks,
                    degraded_ticks=int(trace.degraded.sum()),
                    unflagged_violations=int(
                        trace.unflagged_violations(float(delta)).sum()
                    ),
                    recoveries=trace.recovery.recoveries,
                    mean_recovery_ticks=trace.recovery.mean_recovery_ticks,
                    heartbeats=trace.recovery.heartbeats_sent,
                    nacks=trace.recovery.nacks_sent,
                    resyncs=trace.recovery.resyncs_sent,
                    total_bytes=trace.total_bytes,
                )
            )
            result.recovery.merge(trace.recovery)
        return result

    # ------------------------------------------------------------------
    # Dynamic mode: re-anchor curves and re-allocate every epoch
    # ------------------------------------------------------------------
    def run_dynamic(
        self,
        budget: float,
        method: str = "waterfilling",
        epoch_ticks: int = 1000,
        anchor_gamma: float = 0.5,
        checkpoint_store=None,
        checkpoint_every: int = 4,
        resume: bool = False,
    ) -> DynamicFleetResult:
        """Run the main phase in epochs, re-allocating between them.

        After each epoch the observed (δ, rate) point re-anchors the
        stream's rate curve: the elasticity ``b`` (stable across regimes)
        is kept from probing, while the level ``a`` is updated in log
        space with smoothing ``anchor_gamma`` — so a stream that turns
        volatile pulls budget toward itself within an epoch or two.

        Filters persist across epochs (only the bound changes), matching a
        live deployment where re-allocation must not reset stream state.

        Args:
            budget: Fleet-wide message budget (messages per tick).
            method: Allocator name (see :meth:`allocate`).
            epoch_ticks: Epoch length; the main phase runs as many whole
                epochs as the recordings allow.
            anchor_gamma: Log-space smoothing toward each epoch's observed
                rate point (0 = never adapt, 1 = jump to the observation).
            checkpoint_store: Optional
                :class:`~repro.durability.store.CheckpointStore`; when
                given, a durable checkpoint (engine state + the
                re-anchored curves) is committed every
                ``checkpoint_every`` epochs.  All three backends are
                supported; adaptive scalar fleets are refused because
                adaptation state is not snapshotted.
            checkpoint_every: Commit interval in epochs (default 4 — at
                typical epoch lengths the write overhead stays well under
                the T7 benchmark's 5% gate).
            resume: Restore from the newest verifiable generation in
                ``checkpoint_store`` before running, via a staged
                verify-before-swap recovery (see ``docs/durability.md``).
                Continuation is bitwise-equal to the uninterrupted run;
                an empty store cold-starts at epoch 0.
        """
        if epoch_ticks < 10:
            raise ConfigurationError(f"epoch_ticks must be >= 10, got {epoch_ticks!r}")
        if not 0.0 <= anchor_gamma <= 1.0:
            raise ConfigurationError(
                f"anchor_gamma must be in [0,1], got {anchor_gamma!r}"
            )
        if checkpoint_every < 1:
            raise ConfigurationError(
                f"checkpoint_every must be >= 1, got {checkpoint_every!r}"
            )
        if resume and checkpoint_store is None:
            raise ConfigurationError("resume=True requires a checkpoint_store")
        if checkpoint_store is not None and self.adaptive:
            raise ConfigurationError(
                "durable checkpointing requires adaptive=False: adaptation "
                "state is not captured by policy snapshots"
            )
        curves = list(self.probe())
        n_epochs = min(
            (len(m.recording.readings) - self.probe_ticks) // epoch_ticks
            for m in self.streams
        )
        if n_epochs < 1:
            raise ConfigurationError(
                "recordings too short for even one epoch after probing"
            )
        _allocator(method)
        models = [m.model for m in self.streams]
        # What a checkpoint must agree on to be resumable by this run.
        identity = {
            "backend": self.backend,
            "method": method,
            "epoch_ticks": int(epoch_ticks),
            "stream_ids": [m.stream_id for m in self.streams],
        }
        # The engine persists across epochs: only the bounds change between
        # them, never filter state (the sharded runtime keeps every shard's
        # state coordinator side between dispatches, so epochs resume
        # seamlessly).
        engine = self._make_engine(models, np.ones(len(models)))
        result = DynamicFleetResult(method=method, budget=budget)
        start_epoch = recovered_until = 0
        tel = self._tel
        try:
            if resume:
                result.recovery, start_epoch, recovered_until = self._resume_epochs(
                    checkpoint_store, engine, curves, identity
                )
                result.resumed_from_epoch = start_epoch
            if tel.enabled:
                tel.set_gauge("repro_fleet_size", len(self.streams))
                tel.set_gauge("repro_fleet_budget", budget)
            plan = getattr(engine, "plan", None)  # sharded engines only
            for epoch in range(start_epoch, n_epochs):
                allocation = self._solve(curves, budget, method)
                if tel.enabled and plan is not None:
                    # How the (global) budget currently splits across
                    # shards — re-balanced implicitly every epoch because
                    # the allocator re-solves fleet-wide.
                    for shard_id, shard_rate in enumerate(
                        shard_budgets(allocation, plan.assignments)
                    ):
                        tel.set_gauge(
                            "repro_shard_budget",
                            float(shard_rate),
                            shard=str(shard_id),
                        )
                start = self.probe_ticks + epoch * epoch_ticks
                engine.set_deltas(np.asarray(allocation.deltas, float))
                values, truths = _stack_fleet(
                    [
                        m.recording.readings[start : start + epoch_ticks]
                        for m in self.streams
                    ],
                    self._dim_z_max,
                )
                trace = engine.run(values)
                errors, _ = _fleet_abs_errors(trace.served, truths)
                sent_per_stream = trace.messages_per_stream
                for k, delta in enumerate(allocation.deltas):
                    # Re-anchor the curve level to the observed rate point.
                    observed_rate = max(int(sent_per_stream[k]), 1) / epoch_ticks
                    anchored_a = observed_rate * float(delta) ** curves[k].b
                    new_a = float(
                        np.exp(
                            (1.0 - anchor_gamma) * np.log(curves[k].a)
                            + anchor_gamma * np.log(anchored_a)
                        )
                    )
                    curves[k] = RateCurve(a=new_a, b=curves[k].b)
                epoch_messages = int(np.sum(sent_per_stream))
                if tel.enabled:
                    tel.inc("repro_epoch_reallocations_total")
                    tel.event(
                        tracing.EPOCH_REALLOC,
                        start + epoch_ticks,
                        epoch=epoch,
                        messages=epoch_messages,
                        rate=epoch_messages / epoch_ticks,
                        delta_min=float(np.min(allocation.deltas)),
                        delta_mean=float(np.mean(allocation.deltas)),
                        delta_max=float(np.max(allocation.deltas)),
                    )
                result.epochs.append(
                    EpochReport(
                        epoch=epoch,
                        deltas=allocation.deltas.copy(),
                        messages=epoch_messages,
                        ticks=epoch_ticks,
                        mean_abs_errors=errors,
                        recovered=epoch < recovered_until,
                    )
                )
                if (
                    checkpoint_store is not None
                    and (epoch + 1) % checkpoint_every == 0
                ):
                    # Everything a resumed process needs to continue
                    # bitwise: engine state *and* the re-anchored curves
                    # (stale curves would allocate differently).
                    # ``next_epoch`` rides in the manifest meta too, so
                    # recovery can account for epochs lost with a corrupt
                    # newer generation whose payload is unreadable.
                    checkpoint_engine(
                        checkpoint_store,
                        engine,
                        kind="run_dynamic",
                        tick=start + epoch_ticks,
                        fields={
                            **identity,
                            "budget": float(budget),
                            "anchor_gamma": float(anchor_gamma),
                            "next_epoch": epoch + 1,
                            "curves": {
                                "a": [float(c.a) for c in curves],
                                "b": [float(c.b) for c in curves],
                            },
                        },
                        meta={
                            "next_epoch": epoch + 1,
                            "method": method,
                            "backend": self.backend,
                        },
                        telemetry=tel,
                        epoch=epoch,
                    )
        finally:
            engine.close()
        return result

    def _resume_epochs(
        self, store, engine: Engine, curves: list[RateCurve], identity: dict
    ):
        """Staged restore of a ``run_dynamic`` checkpoint into live state.

        Returns ``(report, start_epoch, recovered_until)``: the recovery
        report, the first epoch to execute, and the exclusive upper bound
        of epochs that must be re-run because a *newer* (corrupt)
        generation had already computed them — those re-runs are flagged
        ``recovered`` in their :class:`EpochReport`.
        """
        models = [m.model for m in self.streams]

        def stage(payload: dict, info) -> tuple[list[RateCurve], int]:
            enc = payload["curves"]
            restored = [
                RateCurve(a=float(a), b=float(b)) for a, b in zip(enc["a"], enc["b"])
            ]
            if len(restored) != len(models):
                raise CheckpointError(
                    f"generation {info.generation} carries {len(restored)} "
                    f"rate curves for {len(models)} streams"
                )
            return restored, int(payload["next_epoch"])

        report, staged = recover_engine(
            store,
            engine,
            lambda: self._make_engine(models, np.ones(len(models)), detached=True),
            kind="run_dynamic",
            expect=identity,
            stage=stage,
            telemetry=self._tel,
        )
        start_epoch = 0
        if staged is not None:
            curves[:], start_epoch = staged
        lost = [
            int(a.meta["next_epoch"])
            for a in report.attempts
            if a.error is not None and "next_epoch" in a.meta
        ]
        return report, start_epoch, max([start_epoch] + lost)


def _stream_scale(readings: list[Reading]) -> float:
    """A robust per-stream scale: the std-dev of one-tick value changes."""
    vals = np.array([r.value[0] for r in readings if r.value is not None])
    if vals.size < 2:
        return 1.0
    diffs = np.diff(vals)
    scale = float(np.std(diffs))
    return scale if scale > 1e-12 else 1.0
