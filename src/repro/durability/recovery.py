"""Staged, verify-before-swap crash recovery.

Restoring a fleet from disk is the one moment a corrupt byte could reach
a live engine, so recovery is a state machine that *earns* each step::

    INSPECTING -> READING -> VERIFYING -> REHYDRATING -> SWAPPING -> ACTIVE
                     \\            \\            \\
                      +------------+------------+--> fall back to an older
                                                     generation, or FAILED

* INSPECTING lists committed generations and orphaned (torn) writes.
* READING pulls one generation's raw payload bytes.
* VERIFYING re-hashes them against the manifest and decodes — a torn
  file, bit flip, stale manifest or schema mismatch dies *here*, before
  any state object exists.
* REHYDRATING builds a **shadow** engine from the decoded payload via the
  caller's ``rehydrate`` callback.  The live system is untouched; a
  payload that decodes but cannot rebuild an engine still costs nothing.
* SWAPPING installs the shadow via the ``swap`` callback.  This is the
  only stage allowed to mutate live state, so a failure here is terminal
  (FAILED) — falling back after a partial swap could mix generations.

Failures in READING/VERIFYING/REHYDRATING demote to the next-older
generation (a ``recovery_fallback`` trace event per demotion) until one
swaps or the store is exhausted, in which case
:class:`~repro.errors.RecoveryError` carries the full
:class:`RecoveryReport` of what was tried and why each attempt died.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.durability.codec import loads_payload
from repro.durability.store import CheckpointInfo, CheckpointStore
from repro.errors import RecoveryError
from repro.obs import tracing
from repro.obs.telemetry import resolve_telemetry

__all__ = [
    "STAGES",
    "STAGE_INDEX",
    "INSPECTING",
    "READING",
    "VERIFYING",
    "REHYDRATING",
    "SWAPPING",
    "ACTIVE",
    "FAILED",
    "RecoveryAttempt",
    "RecoveryReport",
    "StagedRecoverer",
]

INSPECTING = "inspecting"
READING = "reading"
VERIFYING = "verifying"
REHYDRATING = "rehydrating"
SWAPPING = "swapping"
ACTIVE = "active"
FAILED = "failed"

#: Stage order; the ``repro_recovery_stage`` gauge publishes the index.
STAGES = (INSPECTING, READING, VERIFYING, REHYDRATING, SWAPPING, ACTIVE, FAILED)
STAGE_INDEX = {name: i for i, name in enumerate(STAGES)}


@dataclass(frozen=True)
class RecoveryAttempt:
    """One generation's journey through the stages.

    Attributes:
        generation: Which committed generation was tried.
        tick: The tick its manifest claims the checkpoint was taken at.
        stages: Stages entered for this generation, in order.
        error: Why the attempt died (``None`` for the winning attempt).
        meta: The generation's manifest ``meta`` dict, when readable.
    """

    generation: int
    tick: int
    stages: tuple[str, ...]
    error: str | None = None
    meta: dict = field(default_factory=dict)

    @property
    def failed_stage(self) -> str | None:
        """The stage the attempt died in, or ``None`` if it succeeded."""
        return self.stages[-1] if self.error is not None else None


@dataclass(frozen=True)
class RecoveryReport:
    """Outcome of one :meth:`StagedRecoverer.recover` call.

    Attributes:
        stage: Final stage — :data:`ACTIVE` or :data:`FAILED`.
        generation: Generation that swapped in (``None`` on failure or an
            empty store).
        attempts: Every generation tried, newest first.
        orphans: Torn/uncommitted ``gen-*`` directory names found while
            inspecting — honest evidence of crashed writers, even though
            they are never candidates.
    """

    stage: str
    generation: int | None
    attempts: tuple[RecoveryAttempt, ...]
    orphans: tuple[str, ...] = ()

    @property
    def succeeded(self) -> bool:
        """True when a generation reached :data:`ACTIVE`."""
        return self.stage == ACTIVE

    @property
    def fallbacks(self) -> int:
        """How many generations failed before one swapped (or all did)."""
        return sum(1 for a in self.attempts if a.error is not None)


class StagedRecoverer:
    """Walks checkpoint generations newest-to-oldest until one swaps in.

    Args:
        store: The durable store to recover from.
        rehydrate: ``(payload, info) -> shadow`` — build a detached
            engine/state object from a verified decoded payload.  Must
            not touch live state; raising demotes to an older generation.
        swap: ``(shadow, info) -> None`` — install the shadow as the live
            state.  Raising here is terminal (see module docstring).
        telemetry: Optional sink; stage transitions, fallbacks, spans and
            the ``repro_recovery_stage`` gauge are recorded when enabled.
    """

    def __init__(
        self,
        store: CheckpointStore,
        rehydrate: Callable[[dict, CheckpointInfo], object],
        swap: Callable[[object, CheckpointInfo], None],
        telemetry=None,
    ):
        self.store = store
        self.rehydrate = rehydrate
        self.swap = swap
        self.telemetry = resolve_telemetry(telemetry)
        self.stage = INSPECTING
        self._enter(INSPECTING, generation=None)

    def _enter(self, stage: str, generation: int | None) -> None:
        self.stage = stage
        tel = self.telemetry
        if tel.enabled:
            tel.set_gauge("repro_recovery_stage", STAGE_INDEX[stage])
            fields = {"stage": stage}
            if generation is not None:
                fields["generation"] = generation
            tel.event(tracing.RECOVERY_STAGE, tick=0, **fields)

    def recover(self) -> RecoveryReport:
        """Run the state machine; returns the report, raises on FAILED.

        An *empty* store (no committed generations at all) is not a
        failure — there is nothing to recover, recovery reports ACTIVE
        with ``generation=None`` and the caller cold-starts.  A store
        whose every generation fails verification **is** a failure:
        state existed and could not be trusted.
        """
        tel = self.telemetry
        with tel.span("recovery.inspect"):
            committed, orphan_paths = self.store.inspect()
        orphans = tuple(p.name for p in orphan_paths)
        candidates = list(reversed(committed))
        if not candidates:
            self._enter(ACTIVE, generation=None)
            return RecoveryReport(ACTIVE, None, (), orphans)

        attempts: list[RecoveryAttempt] = []
        for info in candidates:
            attempt = self._try_generation(info, attempts, orphans)
            attempts.append(attempt)
            if attempt.error is None:
                self._enter(ACTIVE, generation=info.generation)
                return RecoveryReport(
                    ACTIVE, info.generation, tuple(attempts), orphans
                )
            if attempt.failed_stage == SWAPPING:
                # Live state may be half-mutated; falling back to an older
                # generation now could interleave two checkpoints.
                self._enter(FAILED, generation=info.generation)
                report = RecoveryReport(FAILED, None, tuple(attempts), orphans)
                raise RecoveryError(
                    f"swap of generation {info.generation} failed after "
                    f"verification: {attempt.error}",
                    report,
                )
            if tel.enabled:
                tel.inc("repro_recovery_fallbacks_total")
                tel.event(
                    tracing.RECOVERY_FALLBACK,
                    tick=0,
                    generation=info.generation,
                    stage=attempt.failed_stage,
                    error=attempt.error,
                )

        self._enter(FAILED, generation=None)
        report = RecoveryReport(FAILED, None, tuple(attempts), orphans)
        raise RecoveryError(
            f"all {len(attempts)} checkpoint generation(s) failed recovery; "
            f"newest error: {attempts[0].error}",
            report,
        )

    def _try_generation(
        self,
        info: CheckpointInfo,
        prior: list[RecoveryAttempt],
        orphans: tuple[str, ...],
    ) -> RecoveryAttempt:
        tel = self.telemetry
        stages: list[str] = []

        def enter(stage: str) -> None:
            stages.append(stage)
            self._enter(stage, generation=info.generation)

        try:
            enter(READING)
            with tel.span("recovery.read"):
                data = self.store.read_bytes(info)

            enter(VERIFYING)
            with tel.span("recovery.verify"):
                self.store.verify(info, data)
                payload = loads_payload(data)

            enter(REHYDRATING)
            with tel.span("recovery.rehydrate"):
                shadow = self.rehydrate(payload, info)

            enter(SWAPPING)
            with tel.span("recovery.swap"):
                self.swap(shadow, info)
        except Exception as exc:
            return RecoveryAttempt(
                generation=info.generation,
                tick=info.tick,
                stages=tuple(stages),
                error=f"{type(exc).__name__}: {exc}",
                meta=dict(info.meta),
            )
        if tel.enabled:
            tel.inc("repro_durable_recoveries_total")
        return RecoveryAttempt(
            generation=info.generation,
            tick=info.tick,
            stages=tuple(stages),
            error=None,
            meta=dict(info.meta),
        )
