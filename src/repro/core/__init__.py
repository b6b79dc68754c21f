"""The paper's primary contribution: dual-Kalman precision-bounded streaming.

Public surface:

* precision contracts — :class:`AbsoluteBound`, :class:`RelativeBound`,
  :class:`VectorBound`;
* the protocol — :class:`MeasurementUpdate`, :class:`ModelSwitch`,
  :class:`Resync`;
* the endpoints — :class:`SourceAgent`, :class:`StreamServer`;
* turnkey runs — :class:`DualKalmanPolicy` (ideal channel, comparable to
  baselines) and :class:`DualKalmanSession` (full networked run);
* adaptation — :class:`AdaptationPolicy`;
* fleet budgeting — :class:`StreamResourceManager` and the allocators in
  :mod:`repro.core.allocation`;
* supervision/recovery — :class:`SourceSupervisor`, :class:`ServerSupervisor`,
  :class:`SupervisionConfig` and :class:`SupervisedSession` (heartbeats,
  NACK/backoff resync, graceful degradation under injected faults).
"""

from repro.core.adaptive import AdaptationPolicy
from repro.core.allocation import (
    Allocation,
    RateCurve,
    allocate_equal_rate,
    allocate_scipy,
    allocate_uniform,
    allocate_waterfilling,
)
from repro.core.manager import (
    DynamicFleetResult,
    Engine,
    EpochReport,
    FleetEngine,
    FleetResult,
    FleetTrace,
    ManagedStream,
    StreamReport,
    StreamResourceManager,
    SupervisedFleetResult,
    SupervisedStreamReport,
)
from repro.core.model_bank import ModelBankSelector
from repro.core.reference import PolicyLoopEngine
from repro.core.policy_base import (
    MirroredPredictorPolicy,
    PeriodicPolicy,
    Predictor,
    SuppressionPolicy,
    TickOutcome,
)
from repro.core.precision import (
    AbsoluteBound,
    PrecisionBound,
    RelativeBound,
    VectorBound,
)
from repro.core.procedure_cache import Forecast, ProcedureCache, StaticValueCache
from repro.core.protocol import (
    HEADER_BYTES,
    Heartbeat,
    MeasurementUpdate,
    ModelSwitch,
    Nack,
    ProtocolMessage,
    Resync,
)
from repro.core.replica import FilterReplica
from repro.core.server import ServerStreamState, StreamServer, StreamSnapshot
from repro.core.session import (
    DualKalmanPolicy,
    DualKalmanSession,
    SessionTrace,
    SupervisedSession,
    SupervisedTrace,
)
from repro.core.source import SourceAgent, SourceDecision
from repro.core.supervision import (
    RecoveryStats,
    ServerSupervisor,
    SourceSupervisor,
    SupervisedSnapshot,
    SupervisionConfig,
)

__all__ = [
    "SuppressionPolicy",
    "TickOutcome",
    "Predictor",
    "MirroredPredictorPolicy",
    "PeriodicPolicy",
    "ModelBankSelector",
    "PrecisionBound",
    "AbsoluteBound",
    "RelativeBound",
    "VectorBound",
    "MeasurementUpdate",
    "ModelSwitch",
    "Resync",
    "Heartbeat",
    "Nack",
    "ProtocolMessage",
    "HEADER_BYTES",
    "FilterReplica",
    "SourceAgent",
    "SourceDecision",
    "ServerStreamState",
    "StreamServer",
    "StreamSnapshot",
    "DualKalmanPolicy",
    "DualKalmanSession",
    "SessionTrace",
    "SupervisedSession",
    "SupervisedTrace",
    "SupervisionConfig",
    "RecoveryStats",
    "SupervisedSnapshot",
    "SourceSupervisor",
    "ServerSupervisor",
    "AdaptationPolicy",
    "Forecast",
    "ProcedureCache",
    "StaticValueCache",
    "RateCurve",
    "Allocation",
    "allocate_uniform",
    "allocate_equal_rate",
    "allocate_waterfilling",
    "allocate_scipy",
    "Engine",
    "FleetEngine",
    "FleetTrace",
    "PolicyLoopEngine",
    "ManagedStream",
    "StreamReport",
    "FleetResult",
    "EpochReport",
    "DynamicFleetResult",
    "SupervisedStreamReport",
    "SupervisedFleetResult",
    "StreamResourceManager",
]
