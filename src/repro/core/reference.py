"""The scalar oracle behind the engine surface.

:class:`PolicyLoopEngine` runs one
:class:`~repro.core.session.DualKalmanPolicy` per stream — the paper's
protocol taken literally, source and server replica in lock-step — behind
the :class:`~repro.core.manager.Engine` surface the vectorized engines
share.  It is what ``StreamResourceManager(backend="scalar")`` drives, the
reference the equivalence suites pin the fast engines against, and the
only engine that can carry online adaptation (``adaptive=True``).
"""

from __future__ import annotations

import numpy as np

from repro.core.adaptive import AdaptationPolicy
from repro.core.manager import FleetTrace, _validated_deltas, _validated_values
from repro.core.precision import AbsoluteBound
from repro.core.session import DualKalmanPolicy
from repro.durability.engine import validated_snapshot
from repro.kalman.models import ProcessModel
from repro.streams.base import Reading

__all__ = ["PolicyLoopEngine"]


class PolicyLoopEngine:
    """One :class:`~repro.core.session.DualKalmanPolicy` per stream.

    Args:
        models: One process model per stream.
        deltas: Per-stream absolute bounds.
        adaptive: Give every policy an
            :class:`~repro.core.adaptive.AdaptationPolicy`; procedure
            switches are then counted in :attr:`FleetTrace.messages`.
        telemetry: Optional sink handed to every policy (per-tick
            suppression events, ``predict_update`` spans, the shared
            protocol counters).
    """

    def __init__(
        self,
        models: list[ProcessModel],
        deltas: np.ndarray,
        adaptive: bool = False,
        telemetry=None,
    ):
        self.n = len(models)
        self._dims = [m.dim_z for m in models]
        self.policies = [
            DualKalmanPolicy(
                m,
                AbsoluteBound(1.0),
                adaptation=AdaptationPolicy(m) if adaptive else None,
                telemetry=telemetry,
            )
            for m in models
        ]
        self.set_deltas(deltas)

    def set_deltas(self, deltas: np.ndarray) -> None:
        """Install new per-stream bounds (filters are left untouched)."""
        self.deltas = _validated_deltas(deltas, self.n)
        for policy, delta in zip(self.policies, self.deltas):
            policy.bound = policy.source.bound = AbsoluteBound(float(delta))

    @property
    def messages(self) -> np.ndarray:
        """Messages of every kind each stream has sent so far."""
        return np.array([p.stats.total_messages for p in self.policies], dtype=int)

    def run(self, values: np.ndarray) -> FleetTrace:
        """Tick every policy through its column of ``(T, N, dim_z_max)`` values.

        Stream-major (all of stream 0's ticks, then stream 1's): streams
        are independent, and this is the order the per-stream loop always
        emitted its trace events in.  An all-NaN row is a dropped reading.
        """
        values = _validated_values(values, self.n)
        n_ticks = values.shape[0]
        served = np.full(values.shape, np.nan)
        sent = np.zeros((n_ticks, self.n), dtype=bool)
        before = self.messages
        dropped = np.all(np.isnan(values), axis=2)
        for k, (policy, dim_z) in enumerate(zip(self.policies, self._dims)):
            for t in range(n_ticks):
                value = None if dropped[t, k] else values[t, k, :dim_z]
                outcome = policy.tick(Reading(t=float(t), value=value))
                if outcome.estimate is not None:
                    served[t, k, :dim_z] = outcome.estimate
                sent[t, k] = outcome.sent
        return FleetTrace(served=served, sent=sent, messages=self.messages - before)

    def state_snapshot(self) -> dict:
        """Every policy's :meth:`~DualKalmanPolicy.policy_snapshot`."""
        return {"policies": [p.policy_snapshot() for p in self.policies]}

    def restore_state(self, snapshot: dict) -> None:
        """Resume from a :meth:`state_snapshot` (exact, bitwise)."""
        validated_snapshot(snapshot, self.n, per_stream=("policies",))
        for policy, state in zip(self.policies, snapshot["policies"]):
            policy.restore_policy(state)

    def close(self) -> None:
        """Nothing to release."""
