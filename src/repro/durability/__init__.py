"""Durable checkpointing and staged, verify-before-swap crash recovery.

The paper's autonomic thesis demands that a restarted system pick itself
up without an operator: this package persists versioned fleet snapshots
with atomic commits and checksums (:mod:`~repro.durability.store`),
encodes them bitwise-exactly (:mod:`~repro.durability.codec`), and
restores them through a staged state machine that verifies into a shadow
engine before ever touching live state
(:mod:`~repro.durability.recovery`).

Every engine shares one ``state_snapshot`` / ``restore_state`` surface,
and the batch and sharded fleets share one dense state layout (``x``,
``P`` zero-padded to ``dim_x_max``, plus accounting vectors), so a
checkpoint written by either restores into the other.  The wiring is
one routine (:mod:`~repro.durability.engine`):
:class:`~repro.core.manager.StreamResourceManager` checkpoints every
``checkpoint_every`` epochs of ``run_dynamic`` and resumes via
``resume=True``, :class:`~repro.parallel.runtime.ShardedFleetRuntime`
exposes ``checkpoint()``/``recover_from_checkpoint()`` for coordinator
restarts, and both call :func:`checkpoint_engine` / :func:`recover_engine`.
See ``docs/durability.md``.
"""

from repro.durability.codec import (
    decode_state,
    dumps_payload,
    encode_state,
    loads_payload,
)
from repro.durability.engine import checkpoint_engine, recover_engine
from repro.durability.recovery import (
    ACTIVE,
    FAILED,
    INSPECTING,
    READING,
    REHYDRATING,
    STAGE_INDEX,
    STAGES,
    SWAPPING,
    VERIFYING,
    RecoveryAttempt,
    RecoveryReport,
    StagedRecoverer,
)
from repro.durability.store import CRASH_POINTS, CheckpointInfo, CheckpointStore

__all__ = [
    "CheckpointStore",
    "CheckpointInfo",
    "CRASH_POINTS",
    "StagedRecoverer",
    "checkpoint_engine",
    "recover_engine",
    "RecoveryReport",
    "RecoveryAttempt",
    "STAGES",
    "STAGE_INDEX",
    "INSPECTING",
    "READING",
    "VERIFYING",
    "REHYDRATING",
    "SWAPPING",
    "ACTIVE",
    "FAILED",
    "encode_state",
    "decode_state",
    "dumps_payload",
    "loads_payload",
]
