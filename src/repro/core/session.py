"""End-to-end dual-Kalman sessions.

Two entry points:

* :class:`DualKalmanPolicy` — the paper's scheme packaged behind the common
  :class:`~repro.baselines.base.SuppressionPolicy` interface, assuming an
  ideal (instant, lossless) channel.  This is what the comparative
  experiments run, paired tick-for-tick against the baselines.
* :class:`DualKalmanSession` — the full networked run over a configurable
  :class:`~repro.network.channel.Channel`, including lossy/delayed
  channels, periodic resync, and per-tick traces.  This is what the
  robustness experiments and the fleet manager use.

Plus the supervised variant:

* :class:`SupervisedSession` — a :class:`DualKalmanSession` with the
  recovery layer of :mod:`repro.core.supervision` wired in (heartbeats,
  NACK/backoff resync over a reverse channel, graceful degradation) and a
  :class:`~repro.faults.plan.FaultPlan` driving the disturbance.  This is
  what the chaos suite and the fault-matrix benchmark run.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from repro.core.policy_base import SuppressionPolicy, TickOutcome
from repro.core.adaptive import AdaptationPolicy
from repro.core.precision import PrecisionBound
from repro.core.server import ServerStreamState
from repro.core.source import SourceAgent
from repro.core.supervision import (
    RecoveryStats,
    ServerSupervisor,
    SourceSupervisor,
    SupervisionConfig,
)
from repro.errors import ConfigurationError, ReplicaDesyncError
from repro.kalman.models import ProcessModel
from repro.network.channel import Channel
from repro.network.stats import CommunicationStats
from repro.obs import tracing
from repro.obs.telemetry import resolve_telemetry
from repro.streams.base import Reading, StreamSource

__all__ = [
    "DualKalmanPolicy",
    "DualKalmanSession",
    "SessionTrace",
    "SupervisedSession",
    "SupervisedTrace",
]


def _trace_messages(tel, tick: int, stream_id: str, messages) -> None:
    """Count and trace one tick's outgoing protocol messages.

    Shared by every session flavour so the metric names and event kinds
    stay identical across the scalar policy, the networked session and
    the supervised session (see docs/observability.md).  Callers guard
    with ``tel.enabled``.
    """
    for message in messages:
        kind = message.kind
        tel.inc("repro_messages_total", kind=kind)
        tel.inc("repro_payload_bytes_total", message.payload_bytes(), kind=kind)
        if kind == "update":
            tel.event(tracing.MSG_SENT, tick, stream_id, msg=kind)
        elif kind == "model_switch":
            tel.event(tracing.MODEL_SWITCH, tick, stream_id)
        elif kind == "resync":
            tel.event(tracing.RESYNC_BEGIN, tick, stream_id)
        elif kind == "heartbeat":
            tel.event(tracing.HEARTBEAT, tick, stream_id)


def _trace_tick(tel, tick: int, stream_id: str, messages) -> None:
    """Per-tick telemetry: message accounting or a suppression mark."""
    tel.inc("repro_ticks_total")
    if messages:
        _trace_messages(tel, tick, stream_id, messages)
    else:
        tel.inc("repro_suppressed_ticks_total")
        tel.event(tracing.MSG_SUPPRESSED, tick, stream_id)


def _rowwise_max_abs(diff: np.ndarray) -> np.ndarray:
    """Max |diff| per row, NaN for rows with no valid entries (no warning)."""
    diff = np.abs(diff)
    if diff.ndim == 1:
        return diff
    out = np.full(diff.shape[0], np.nan)
    valid = ~np.all(np.isnan(diff), axis=1)
    if np.any(valid):
        out[valid] = np.nanmax(diff[valid], axis=1)
    return out


class DualKalmanPolicy(SuppressionPolicy):
    """Dual-Kalman suppression over an ideal channel.

    Args:
        model: Process model installed on both replicas.
        bound: Precision contract.
        adaptation: Optional online adaptation (procedure switches are
            counted in ``stats`` like any other message).
        check_sync: Assert source/server lock-step every tick; cheap and on
            by default, because a desync here is a protocol bug.
        name: Override the policy name shown in result tables.
        telemetry: Optional :class:`~repro.obs.Telemetry` sink; per-tick
            suppression decisions are traced and the ``predict_update``
            hot path is span-timed.  Defaults to the ambient (usually
            no-op) sink, which costs one branch per tick.
    """

    name = "dual_kalman"

    def __init__(
        self,
        model: ProcessModel,
        bound: PrecisionBound,
        adaptation: AdaptationPolicy | None = None,
        check_sync: bool = True,
        name: str | None = None,
        robust_threshold: float | None = None,
        telemetry=None,
    ):
        super().__init__()
        if name is not None:
            self.name = name
        self.source = SourceAgent(
            "s", model, bound, adaptation=adaptation, robust_threshold=robust_threshold
        )
        self.server = ServerStreamState("s", model)
        self.bound = bound
        self.check_sync = check_sync
        self._tel = resolve_telemetry(telemetry)

    def tick(self, reading: Reading) -> TickOutcome:
        tel = self._tel
        if tel.enabled:
            with tel.span("predict_update"):
                decision = self.source.process(reading)
            _trace_tick(tel, self.source.replica.tick, self.source.stream_id,
                        decision.messages)
        else:
            decision = self.source.process(reading)
        for message in decision.messages:
            self.stats.record_send(message.kind, message.payload_bytes())
        snapshot = self.server.advance(list(decision.messages))
        if self.check_sync and not self.source.replica.state_equals(self.server.replica):
            raise ReplicaDesyncError(
                f"replicas diverged at tick {self.source.replica.tick} "
                f"(source fp={self.source.replica.fingerprint()}, "
                f"server fp={self.server.replica.fingerprint()})"
            )
        return TickOutcome(estimate=snapshot.value, sent=decision.sent)

    def filter_state(self) -> tuple[int, np.ndarray, np.ndarray]:
        """The source replica's ``(tick, mean, covariance)`` snapshot.

        On an ideal channel the server replica is bit-identical (asserted
        per tick when ``check_sync`` is on), so this is *the* filter state
        of the stream — the quantity the vectorized fleet backend
        (:class:`~repro.core.manager.FleetEngine`) must reproduce; the
        equivalence suite diffs it against the batch engine per step.
        """
        return self.source.replica.state()

    def policy_snapshot(self) -> dict:
        """Every piece of mutable policy state, for durable checkpoints.

        The scalar counterpart of one row of
        :meth:`~repro.core.manager.FleetEngine.state_snapshot`'s dense
        arrays, unpadded and per replica: restoring via
        :meth:`restore_policy` resumes the policy with bit-identical
        continuation (both replicas, suppression bookkeeping, sequence
        counter, message accounting).  Only fixed-bound policies are
        snapshotable — adaptation state is not captured, so an adaptive
        policy refuses rather than silently resuming wrong.
        """
        if self.source.adaptation is not None:
            raise ConfigurationError(
                "adaptive policies cannot be snapshotted: adaptation state "
                "is not captured; run checkpointing with adaptive=False"
            )
        src, srv = self.source, self.server
        src_tick, src_x, src_p = src.replica.state()
        srv_tick, srv_x, srv_p = srv.replica.state()
        return {
            "source": {
                "tick": src_tick,
                "x": src_x,
                "P": src_p,
                "n_predicts": src.replica.filter.n_predicts,
                "n_updates": src.replica.filter.n_updates,
                "last_was_outlier": src._last_was_outlier,
                "seq": src._seq,
                "warm": src._warm,
                "ticks": src.ticks,
                "updates_sent": src.updates_sent,
            },
            "server": {
                "tick": srv_tick,
                "x": srv_x,
                "P": srv_p,
                "n_predicts": srv.replica.filter.n_predicts,
                "n_updates": srv.replica.filter.n_updates,
                "warm": srv._warm,
                "served": None if srv._served is None else srv._served.copy(),
                "fresh": srv._fresh,
                "last_seq": srv._last_seq,
                "duplicates_dropped": srv.duplicates_dropped,
            },
            "stats": {
                "sent_messages": dict(self.stats.sent_messages),
                "sent_payload_bytes": dict(self.stats.sent_payload_bytes),
                "dropped_messages": dict(self.stats.dropped_messages),
            },
        }

    def restore_policy(self, snapshot: dict) -> None:
        """Resume from a :meth:`policy_snapshot` (exact, bitwise).

        ``set_state``'s re-symmetrization of P is a bitwise no-op here
        because every live covariance is already exactly symmetric (the
        filter symmetrizes after each predict/update).
        """
        src, srv = self.source, self.server
        s = snapshot["source"]
        src.replica.filter.set_state(
            np.asarray(s["x"], dtype=float), np.asarray(s["P"], dtype=float)
        )
        src.replica.filter.n_predicts = int(s["n_predicts"])
        src.replica.filter.n_updates = int(s["n_updates"])
        src.replica.tick = int(s["tick"])
        src._last_was_outlier = bool(s["last_was_outlier"])
        src._seq = int(s["seq"])
        src._warm = bool(s["warm"])
        src.ticks = int(s["ticks"])
        src.updates_sent = int(s["updates_sent"])
        v = snapshot["server"]
        srv.replica.filter.set_state(
            np.asarray(v["x"], dtype=float), np.asarray(v["P"], dtype=float)
        )
        srv.replica.filter.n_predicts = int(v["n_predicts"])
        srv.replica.filter.n_updates = int(v["n_updates"])
        srv.replica.tick = int(v["tick"])
        srv._warm = bool(v["warm"])
        srv._served = (
            None if v["served"] is None else np.asarray(v["served"], dtype=float)
        )
        srv._fresh = bool(v["fresh"])
        srv._last_seq = int(v["last_seq"])
        srv.duplicates_dropped = int(v["duplicates_dropped"])
        stats = snapshot.get("stats")
        if stats is not None:
            self.stats.sent_messages = Counter(
                {k: int(n) for k, n in stats["sent_messages"].items()}
            )
            self.stats.sent_payload_bytes = Counter(
                {k: int(n) for k, n in stats["sent_payload_bytes"].items()}
            )
            self.stats.dropped_messages = Counter(
                {k: int(n) for k, n in stats["dropped_messages"].items()}
            )

    def describe(self) -> str:
        adaptive = "adaptive" if self.source.adaptation is not None else "fixed"
        return (
            f"{self.name} [{self.source.replica.model.name}, {adaptive}; "
            f"{self.bound.describe()}]"
        )


@dataclass
class SessionTrace:
    """Per-tick record of a networked session run.

    All arrays have one entry per processed tick.  ``served`` may contain
    NaN rows for ticks before the server first heard anything.
    """

    t: np.ndarray
    truth: np.ndarray
    measured: np.ndarray
    served: np.ndarray
    sent: np.ndarray
    stats: CommunicationStats = field(default_factory=CommunicationStats)

    @property
    def n_ticks(self) -> int:
        """Number of processed ticks."""
        return int(self.t.shape[0])

    def served_error_vs_measured(self) -> np.ndarray:
        """Per-tick max-abs deviation of the served value from the measurement."""
        return _rowwise_max_abs(self.served - self.measured)

    def served_error_vs_truth(self) -> np.ndarray:
        """Per-tick max-abs deviation of the served value from ground truth."""
        return _rowwise_max_abs(self.served - self.truth)


class DualKalmanSession:
    """A full source → channel → server run for one stream.

    Args:
        stream: The workload to run.
        model: Process model for both endpoints.
        bound: Precision contract.
        channel: Transport; defaults to :meth:`Channel.ideal`.
        adaptation: Optional adaptation policy at the source.
        resync_interval: Periodic state snapshots (recommended for lossy
            channels; pointless on ideal ones).
        telemetry: Optional :class:`~repro.obs.Telemetry` sink.  When
            given explicitly it is also bound to the channel, so wire
            drops and protocol traffic land in the same trace.
    """

    def __init__(
        self,
        stream: StreamSource,
        model: ProcessModel,
        bound: PrecisionBound,
        channel: Channel | None = None,
        adaptation: AdaptationPolicy | None = None,
        resync_interval: int | None = None,
        stream_id: str = "stream-0",
        robust_threshold: float | None = None,
        telemetry=None,
    ):
        self.stream = stream
        self._tel = resolve_telemetry(telemetry)
        self.channel = channel if channel is not None else Channel.ideal()
        if telemetry is not None:
            self.channel.bind_telemetry(telemetry)
        self.source = SourceAgent(
            stream_id,
            model,
            bound,
            adaptation=adaptation,
            resync_interval=resync_interval,
            robust_threshold=robust_threshold,
        )
        self.server = ServerStreamState(stream_id, model)
        self.bound = bound

    def run(self, n_ticks: int) -> SessionTrace:
        """Drive ``n_ticks`` readings through the protocol and trace them."""
        readings = self.stream.take(n_ticks)
        dim = self.stream.dim
        t = np.empty(n_ticks)
        truth = np.full((n_ticks, dim), np.nan)
        measured = np.full((n_ticks, dim), np.nan)
        served = np.full((n_ticks, dim), np.nan)
        sent = np.zeros(n_ticks, dtype=bool)
        tel = self._tel
        for i, reading in enumerate(readings):
            now = reading.t
            if tel.enabled:
                with tel.span("predict_update"):
                    decision = self.source.process(reading)
                _trace_tick(
                    tel, self.source.replica.tick, self.source.stream_id,
                    decision.messages,
                )
            else:
                decision = self.source.process(reading)
            for message in decision.messages:
                self.channel.send(message, now)
            arrivals = [d.message for d in self.channel.poll(now)]
            snapshot = self.server.advance(arrivals)
            if tel.enabled:
                tel.set_gauge("repro_channel_inflight", self.channel.pending())
            t[i] = now
            if reading.truth is not None:
                truth[i] = reading.truth
            if reading.value is not None:
                measured[i] = reading.value
            if snapshot.value is not None:
                served[i] = snapshot.value
            sent[i] = decision.sent
        return SessionTrace(
            t=t,
            truth=truth,
            measured=measured,
            served=served,
            sent=sent,
            stats=self.channel.stats,
        )


@dataclass
class SupervisedTrace(SessionTrace):
    """A :class:`SessionTrace` plus the supervision layer's honesty record.

    Extra per-tick arrays: ``degraded`` (server could not vouch for the
    contract), ``fresh`` (served value came from a measurement this tick),
    ``advertised_bound`` (the δ the server honestly promised — contract δ
    while healthy, widened while degraded, ``inf`` pre-warm-up) and
    ``reasons`` (why degraded, or ``None``).  ``recovery`` holds the run's
    :class:`~repro.core.supervision.RecoveryStats`; ``reverse_stats`` counts
    NACK traffic on the reverse channel.
    """

    degraded: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    fresh: np.ndarray = field(default_factory=lambda: np.zeros(0, dtype=bool))
    advertised_bound: np.ndarray = field(default_factory=lambda: np.zeros(0))
    reasons: tuple = ()
    recovery: RecoveryStats = field(default_factory=RecoveryStats)
    reverse_stats: CommunicationStats = field(default_factory=CommunicationStats)

    @property
    def total_bytes(self) -> int:
        """Forward plus reverse traffic — the honest cost of supervision."""
        return self.stats.total_bytes + self.reverse_stats.total_bytes

    def unflagged_violations(self, delta: float) -> np.ndarray:
        """Boolean mask of ticks where the served value broke the contract
        against the actual measurement *without* being flagged degraded.

        This is the honesty criterion: the count should be zero in strict
        mode under loss/duplication/outage faults.  Ticks with no
        measurement or no served value cannot be judged and never count.
        """
        err = self.served_error_vs_measured()
        with np.errstate(invalid="ignore"):
            violated = err > delta * (1.0 + 1e-9)
        return violated & ~np.isnan(err) & ~self.degraded

    def recovery_tick(self, after_tick: int) -> int | None:
        """First tick index at or after ``after_tick`` served healthy.

        Chaos tests compare this against the fault-clearance tick to bound
        recovery latency; ``None`` means the run never recovered.
        """
        healthy = np.nonzero(~self.degraded[after_tick:])[0]
        if healthy.size == 0:
            return None
        return int(after_tick + healthy[0])

    def degraded_fraction(self) -> float:
        """Fraction of ticks served in degraded mode."""
        if self.degraded.size == 0:
            return 0.0
        return float(np.mean(self.degraded))


class SupervisedSession:
    """A networked run with the fault-injection and recovery layers wired in.

    The forward channel, reverse (NACK) channel and sensor-fault wrappers
    all come from one declarative :class:`~repro.faults.plan.FaultPlan`;
    the endpoints are wrapped in
    :class:`~repro.core.supervision.SourceSupervisor` and
    :class:`~repro.core.supervision.ServerSupervisor`.  Per tick the source
    first drains the reverse channel (NACKs), runs the suppression loop and
    its supervision duties, sends on the forward channel; the server then
    applies whatever arrived, under full watchdog bookkeeping.

    Args:
        stream: The workload (wrapped with the plan's sensor faults).
        model: Process model for both endpoints.
        bound: Precision contract.
        plan: Fault scenario; ``None`` runs fault-free (supervision still
            active, so its overhead is measurable).
        config: Supervision knobs; default is strict mode.
        base_delta: Contract δ used for the advertised bound.  Defaults to
            the bound's fixed tolerance; relative bounds have none, so they
            require an explicit value.
        telemetry: Optional :class:`~repro.obs.Telemetry` sink, shared by
            both channels and both supervisors so protocol traffic,
            degradation episodes and recovery actions land in one trace.
    """

    def __init__(
        self,
        stream: StreamSource,
        model: ProcessModel,
        bound: PrecisionBound,
        plan: "FaultPlan | None" = None,
        config: SupervisionConfig | None = None,
        adaptation: AdaptationPolicy | None = None,
        resync_interval: int | None = None,
        stream_id: str = "stream-0",
        robust_threshold: float | None = None,
        base_delta: float | None = None,
        telemetry=None,
    ):
        if base_delta is None:
            base_delta = getattr(bound, "delta", None)
            if base_delta is None:
                raise ConfigurationError(
                    "bound has no fixed tolerance; pass base_delta explicitly"
                )
        self.plan = plan
        self.config = config if config is not None else SupervisionConfig()
        self._tel = resolve_telemetry(telemetry)
        self.stream = plan.wrap_stream(stream) if plan is not None else stream
        self.channel = plan.build_channel() if plan is not None else Channel.ideal()
        self.reverse = (
            plan.build_reverse_channel() if plan is not None else Channel.ideal()
        )
        if telemetry is not None:
            self.channel.bind_telemetry(telemetry)
            self.reverse.bind_telemetry(telemetry)
        self.bound = bound
        self.recovery = RecoveryStats()
        self.source = SourceSupervisor(
            SourceAgent(
                stream_id,
                model,
                bound,
                adaptation=adaptation,
                resync_interval=resync_interval,
                robust_threshold=robust_threshold,
            ),
            config=self.config,
            stats=self.recovery,
            telemetry=telemetry,
        )
        self._now = 0.0
        self.server = ServerSupervisor(
            ServerStreamState(stream_id, model),
            base_delta=float(base_delta),
            config=self.config,
            send_nack=lambda nack: self.reverse.send(nack, self._now),
            stats=self.recovery,
            telemetry=telemetry,
        )

    def run(self, n_ticks: int) -> SupervisedTrace:
        """Drive ``n_ticks`` readings through the supervised protocol."""
        readings = self.stream.take(n_ticks)
        dim = self.stream.dim
        t = np.empty(n_ticks)
        truth = np.full((n_ticks, dim), np.nan)
        measured = np.full((n_ticks, dim), np.nan)
        served = np.full((n_ticks, dim), np.nan)
        sent = np.zeros(n_ticks, dtype=bool)
        degraded = np.zeros(n_ticks, dtype=bool)
        fresh = np.zeros(n_ticks, dtype=bool)
        advertised = np.full(n_ticks, np.inf)
        reasons: list[str | None] = []
        tel = self._tel
        for i, reading in enumerate(readings):
            now = reading.t
            self._now = now
            # NACKs sent by the server on earlier ticks arrive here — one
            # tick of reverse latency, matching the forward channel.
            nacks = [d.message for d in self.reverse.poll(now)]
            if tel.enabled:
                with tel.span("predict_update"):
                    decision = self.source.process(reading, nacks=nacks)
                _trace_tick(
                    tel, self.source.agent.replica.tick,
                    self.source.agent.stream_id, decision.messages,
                )
            else:
                decision = self.source.process(reading, nacks=nacks)
            for message in decision.messages:
                self.channel.send(message, now)
            arrivals = [d.message for d in self.channel.poll(now)]
            snapshot = self.server.advance(arrivals)
            t[i] = now
            if reading.truth is not None:
                truth[i] = reading.truth
            if reading.value is not None:
                measured[i] = reading.value
            if snapshot.value is not None:
                served[i] = snapshot.value
            sent[i] = decision.sent
            degraded[i] = snapshot.degraded
            fresh[i] = snapshot.fresh
            advertised[i] = snapshot.advertised_bound
            reasons.append(snapshot.reason)
        return SupervisedTrace(
            t=t,
            truth=truth,
            measured=measured,
            served=served,
            sent=sent,
            stats=self.channel.stats,
            degraded=degraded,
            fresh=fresh,
            advertised_bound=advertised,
            reasons=tuple(reasons),
            recovery=self.recovery,
            reverse_stats=self.reverse.stats,
        )
