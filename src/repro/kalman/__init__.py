"""Kalman filtering substrate: models, filters, adaptation, diagnostics.

Everything the dual-filter suppression protocol needs from estimation
theory, implemented from scratch on numpy.  See :mod:`repro.kalman.filter`
for the filter itself and :mod:`repro.kalman.models` for the model factories
(``random_walk``, ``constant_velocity``, ``constant_acceleration``,
``harmonic``, ``planar``).
"""

from repro.kalman.adaptive_noise import MeasurementNoiseEstimator, ProcessNoiseScaler
from repro.kalman.batch import BatchKalmanFilter
from repro.kalman.consistency import NisMonitor, nees_consistency
from repro.kalman.filter import KalmanFilter, StepRecord
from repro.kalman.models import (
    ProcessModel,
    constant_acceleration,
    constant_velocity,
    harmonic,
    kinematic,
    model_from_spec,
    planar,
    random_walk,
)
from repro.kalman.noise import (
    measurement_noise,
    q_discrete_white_noise,
    q_random_walk,
    q_white_noise_accel,
    q_white_noise_jerk,
)
from repro.kalman.sketch import SketchConfig, censor_keep, sketch_matrix
from repro.kalman.smoother import SmoothedStep, rts_smooth

__all__ = [
    "KalmanFilter",
    "BatchKalmanFilter",
    "StepRecord",
    "ProcessModel",
    "random_walk",
    "constant_velocity",
    "constant_acceleration",
    "harmonic",
    "kinematic",
    "planar",
    "model_from_spec",
    "measurement_noise",
    "q_discrete_white_noise",
    "q_random_walk",
    "q_white_noise_accel",
    "q_white_noise_jerk",
    "MeasurementNoiseEstimator",
    "ProcessNoiseScaler",
    "NisMonitor",
    "nees_consistency",
    "SketchConfig",
    "sketch_matrix",
    "censor_keep",
    "SmoothedStep",
    "rts_smooth",
]
