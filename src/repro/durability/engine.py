"""Checkpoint-write and staged resume for anything with the engine surface.

``StreamResourceManager.run_dynamic`` and ``ShardedFleetRuntime.checkpoint``
/ ``recover_from_checkpoint`` both persist a fleet engine through this one
routine pair: every engine exposes ``state_snapshot`` / ``restore_state``
(:class:`repro.core.manager.Engine`), so callers differ only in the extra
payload fields they write and check.  The write span and event, the
verify → rehydrate-into-a-shadow → swap order and the ``rehydrations``
accounting live here, once.
"""

from __future__ import annotations

from reprlib import repr as short  # long id lists stay readable
from typing import Callable

from repro.durability.recovery import RecoveryReport, StagedRecoverer
from repro.durability.store import CheckpointInfo, CheckpointStore
from repro.errors import CheckpointError, ConfigurationError
from repro.obs import tracing
from repro.obs.telemetry import resolve_telemetry

__all__ = ["checkpoint_engine", "recover_engine", "validated_snapshot"]


def checkpoint_engine(
    store: CheckpointStore,
    engine,
    *,
    kind: str,
    tick: int,
    fields: dict,
    meta: dict | None = None,
    telemetry=None,
    **event_fields,
) -> CheckpointInfo:
    """Commit ``engine.state_snapshot()`` as one durable generation.

    The payload is ``{"kind": kind, **fields, "engine": snapshot}``;
    ``meta`` goes into the manifest (readable even when the payload is
    not) and ``event_fields`` onto the ``checkpoint_write`` trace event.
    """
    tel = resolve_telemetry(telemetry)
    payload = {"kind": kind, **fields, "engine": engine.state_snapshot()}
    with tel.span("checkpoint_write"):
        info = store.save(payload, tick=tick, meta=meta)
    if tel.enabled:
        tel.inc("repro_checkpoint_writes_total")
        tel.event(
            tracing.CHECKPOINT_WRITE,
            tick,
            generation=info.generation,
            **event_fields,
            bytes=info.payload_bytes,
        )
    return info


def validated_snapshot(
    snapshot: dict,
    n: int,
    per_stream: tuple[str, ...],
    scalars: tuple[str, ...] = (),
) -> dict:
    """``snapshot`` with every required field present and ``n`` long, or raise.

    An engine's ``restore_state`` calls this first, so a truncated
    snapshot is refused — :class:`~repro.errors.ConfigurationError`
    naming the field — while the live engine is still exactly as it was.
    """
    missing = [name for name in per_stream + scalars if name not in snapshot]
    if missing:
        raise ConfigurationError(f"snapshot is missing required field(s) {missing}")
    for name in per_stream:
        if len(snapshot[name]) != n:
            raise ConfigurationError(
                f"snapshot field {name!r} covers {len(snapshot[name])} streams, "
                f"engine has {n}"
            )
    return snapshot


def recover_engine(
    store: CheckpointStore,
    engine,
    make_shadow: Callable[[], object],
    *,
    kind: str,
    expect: dict,
    stage: Callable[[dict, CheckpointInfo], object] | None = None,
    telemetry=None,
) -> tuple[RecoveryReport, object]:
    """Restore ``engine`` from the newest generation that verifies.

    A :class:`~repro.durability.recovery.StagedRecoverer` walk.  A
    generation swaps in only if its ``kind`` and every ``expect`` field
    match, it passes the caller's ``stage(payload, info)`` hook
    (raise :class:`CheckpointError` to refuse) and restores into a
    detached ``make_shadow()`` engine — all *before* the live ``engine``
    is touched, so a failure falls back to an older generation.  A swap
    bumps ``rehydrations`` on every shard-health record the engine has.

    Returns ``(report, staged)``: what ``stage`` returned for the
    generation that swapped in (``None`` without a hook, or on the cold
    start an empty store reports as ``generation=None``).
    """
    swapped: list = []

    def rehydrate(payload: dict, info: CheckpointInfo) -> tuple[dict, object]:
        for key, want in {"kind": kind, **expect}.items():
            if payload.get(key) != want:
                raise CheckpointError(
                    f"generation {info.generation}: {key}={short(payload.get(key))} "
                    f"does not match this run's {short(want)}"
                )
        if "engine" not in payload:
            raise CheckpointError(
                f"generation {info.generation}: payload has no 'engine' state "
                "(pre-engine layouts are not read)"
            )
        staged = stage(payload, info) if stage is not None else None
        snapshot = payload["engine"]
        # Prove the state rebuilds a working engine before anything live
        # is touched.
        make_shadow().restore_state(snapshot)
        return snapshot, staged

    def swap(shadow: tuple[dict, object], info: CheckpointInfo) -> None:
        snapshot, staged = shadow
        engine.restore_state(snapshot)
        swapped.append(staged)

    report = StagedRecoverer(store, rehydrate, swap, telemetry=telemetry).recover()
    if report.generation is not None:
        for health in getattr(engine, "health", ()):
            health.rehydrations += 1
    return report, (swapped[0] if swapped else None)
