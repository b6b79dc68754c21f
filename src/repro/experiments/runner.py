"""Experiment runner: paired policy comparisons over recorded readings.

Every experiment cell is "one policy over one materialized reading list";
materializing once and replaying through every policy makes comparisons
paired (identical data) and fast (generation cost paid once).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from repro.baselines.ar import ArPolicy
from repro.baselines.dead_band import DeadBandPolicy
from repro.baselines.dead_reckoning import DeadReckoningPolicy
from repro.baselines.ewma import EwmaPolicy
from repro.core.adaptive import AdaptationPolicy
from repro.core.policy_base import SuppressionPolicy
from repro.core.precision import AbsoluteBound
from repro.core.session import DualKalmanPolicy
from repro.experiments.workloads import Workload
from repro.metrics.errors import per_tick_abs_error
from repro.network.stats import CommunicationStats
from repro.streams.base import Reading

__all__ = [
    "RunResult",
    "run_policy",
    "standard_policies",
    "dkf_policy",
    "sweep_deltas",
    "run_offline_smoother",
]


@dataclass
class RunResult:
    """Everything measurable about one policy's run over one reading list."""

    policy_name: str
    served: np.ndarray  # (n, dim), NaN before warm-up
    measured: np.ndarray  # (n, dim), NaN on dropped ticks
    truth: np.ndarray  # (n, dim), NaN if unknown
    sent: np.ndarray  # (n,) bool
    stats: CommunicationStats

    @property
    def n_ticks(self) -> int:
        """Ticks processed."""
        return int(self.sent.shape[0])

    @property
    def messages(self) -> int:
        """Total protocol messages (updates + switches + resyncs)."""
        return self.stats.total_messages

    @property
    def message_rate(self) -> float:
        """Messages per tick."""
        return self.messages / self.n_ticks if self.n_ticks else 0.0

    @property
    def suppression_ratio(self) -> float:
        """Fraction of ticks with no transmission."""
        return 1.0 - float(np.mean(self.sent)) if self.n_ticks else 0.0

    def error_vs_measured(self) -> np.ndarray:
        """Per-tick served error against the measurements (NaN-safe)."""
        return per_tick_abs_error(self.served, self.measured)

    def error_vs_truth(self) -> np.ndarray:
        """Per-tick served error against ground truth (NaN-safe)."""
        return per_tick_abs_error(self.served, self.truth)

    def max_error_vs_measured(self) -> float:
        """Worst served-vs-measurement deviation (the enforced contract)."""
        err = self.error_vs_measured()
        valid = err[~np.isnan(err)]
        return float(np.max(valid)) if valid.size else float("nan")

    def rmse_vs_truth(self) -> float:
        """RMSE of the served view against ground truth."""
        err = self.error_vs_truth()
        valid = err[~np.isnan(err)]
        return float(np.sqrt(np.mean(valid**2))) if valid.size else float("nan")


def run_policy(readings: Sequence[Reading], policy: SuppressionPolicy) -> RunResult:
    """Drive one policy over materialized readings and collect the trace."""
    n = len(readings)
    dim = next(
        (r.value.shape[0] for r in readings if r.value is not None),
        1,
    )
    served = np.full((n, dim), np.nan)
    measured = np.full((n, dim), np.nan)
    truth = np.full((n, dim), np.nan)
    sent = np.zeros(n, dtype=bool)
    for i, reading in enumerate(readings):
        outcome = policy.tick(reading)
        if outcome.estimate is not None:
            served[i] = outcome.estimate
        if reading.value is not None:
            measured[i] = reading.value
        if reading.truth is not None:
            truth[i] = reading.truth
        sent[i] = outcome.sent
    return RunResult(
        policy_name=policy.name,
        served=served,
        measured=measured,
        truth=truth,
        sent=sent,
        stats=policy.stats,
    )


def dkf_policy(
    workload: Workload, delta: float, adaptive: bool = False
) -> DualKalmanPolicy:
    """The paper's policy configured for a workload at bound δ."""
    model = workload.make_model()
    adaptation = AdaptationPolicy(model) if adaptive else None
    name = "dual_kalman_adaptive" if adaptive else "dual_kalman"
    return DualKalmanPolicy(
        model,
        AbsoluteBound(delta, norm=workload.norm),
        adaptation=adaptation,
        name=name,
        robust_threshold=workload.robust_threshold,
    )


def standard_policies(
    workload: Workload, delta: float, include_adaptive: bool = True
) -> list[SuppressionPolicy]:
    """The standard comparison set at one precision bound.

    Order: dead_band, dead_reckoning, ewma, ar, dual_kalman
    (+ dual_kalman_adaptive when requested).
    """
    bound = AbsoluteBound(delta, norm=workload.norm)
    policies: list[SuppressionPolicy] = [
        DeadBandPolicy(bound),
        DeadReckoningPolicy(bound),
        EwmaPolicy(bound),
        ArPolicy(bound),
        dkf_policy(workload, delta, adaptive=False),
    ]
    if include_adaptive:
        policies.append(dkf_policy(workload, delta, adaptive=True))
    return policies


def run_offline_smoother(readings, model):
    """Forward-filter a reading list and RTS-smooth it.

    Diagnostic helper: quantifies how far the *causal* filtered view sits
    from the best possible all-data reconstruction of a stream.  Dropped
    readings are coasted over (prior == posterior for that step).

    Returns:
        ``(filtered, smoothed)`` — two ``(n,)`` arrays of the position
        estimate per tick (first observable component).
    """
    from repro.kalman.filter import KalmanFilter, StepRecord
    from repro.kalman.smoother import rts_smooth

    kf = KalmanFilter(model)
    records = []
    for reading in readings:
        kf.predict()
        x_prior, p_prior = kf.x.copy(), kf.P.copy()
        if reading.value is not None:
            kf.update(reading.value)
        records.append(
            StepRecord(
                x_prior=x_prior,
                P_prior=p_prior,
                x_post=kf.x.copy(),
                P_post=kf.P.copy(),
                F=model.F.copy(),
            )
        )
    smoothed = rts_smooth(records)
    h = model.H
    filtered_pos = np.array([float((h @ r.x_post)[0]) for r in records])
    smoothed_pos = np.array([float((h @ s.x)[0]) for s in smoothed])
    return filtered_pos, smoothed_pos


def sweep_deltas(
    readings: Sequence[Reading],
    deltas: Sequence[float],
    policy_factory: Callable[[float], SuppressionPolicy],
) -> list[RunResult]:
    """Run a fresh policy instance per δ over the same readings."""
    return [run_policy(readings, policy_factory(delta)) for delta in deltas]
