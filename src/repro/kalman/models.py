"""Linear-Gaussian process models for the Kalman filtering substrate.

A :class:`ProcessModel` bundles everything the filter needs that is *about
the stream*, as opposed to about a particular filter run: the state
transition ``F``, the observation matrix ``H``, the discretized process
noise ``Q``, the measurement noise ``R``, and a sensible initial covariance.

Models are immutable value objects.  The dual-Kalman protocol relies on the
source and the server constructing *identical* filters, so models implement
structural equality and a stable ``spec()`` serialization that can be
shipped in a ``ModelSwitch`` protocol message.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import block_diag

from repro.errors import ConfigurationError, DimensionError
from repro.kalman.noise import (
    measurement_noise,
    q_discrete_white_noise,
)

__all__ = [
    "ProcessModel",
    "random_walk",
    "constant_velocity",
    "constant_acceleration",
    "harmonic",
    "planar",
    "kinematic",
    "model_from_spec",
]


def _as_matrix(name: str, value: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
    arr = np.asarray(value, dtype=float)
    if arr.shape != shape:
        raise DimensionError(f"{name} must have shape {shape}, got {arr.shape}")
    return arr


@dataclass(frozen=True)
class ProcessModel:
    """An immutable linear-Gaussian state-space model.

    Attributes:
        name: Human-readable identifier; also used in ``spec()`` round-trips
            for the factory-built models.
        F: State transition matrix, shape ``(dim_x, dim_x)``.
        H: Observation matrix, shape ``(dim_z, dim_x)``.
        Q: Discretized process-noise covariance, shape ``(dim_x, dim_x)``.
        R: Measurement-noise covariance, shape ``(dim_z, dim_z)``.
        P0: Initial state covariance, shape ``(dim_x, dim_x)``.
        params: The factory parameters that built this model, if any; used
            to reconstruct the model on the far side of the wire.
    """

    name: str
    F: np.ndarray
    H: np.ndarray
    Q: np.ndarray
    R: np.ndarray
    P0: np.ndarray
    params: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        F = np.asarray(self.F, dtype=float)
        if F.ndim != 2 or F.shape[0] != F.shape[1]:
            raise DimensionError(f"F must be square, got shape {F.shape}")
        n = F.shape[0]
        H = np.asarray(self.H, dtype=float)
        if H.ndim != 2 or H.shape[1] != n:
            raise DimensionError(f"H must have {n} columns, got shape {H.shape}")
        m = H.shape[0]
        object.__setattr__(self, "F", F)
        object.__setattr__(self, "H", H)
        object.__setattr__(self, "Q", _as_matrix("Q", self.Q, (n, n)))
        object.__setattr__(self, "R", _as_matrix("R", self.R, (m, m)))
        object.__setattr__(self, "P0", _as_matrix("P0", self.P0, (n, n)))
        for label, mat in (("Q", self.Q), ("R", self.R), ("P0", self.P0)):
            # Exactly symmetric (every factory-built matrix) answers without
            # allclose's temporaries; NaN fails both, as it always has.
            if not (np.array_equal(mat, mat.T) or np.allclose(mat, mat.T)):
                raise ConfigurationError(f"{label} must be symmetric")
            if mat.shape == (1, 1):  # its own eigenvalue: no LAPACK call
                negative = mat[0, 0] < -1e-9
            else:
                negative = np.any(np.linalg.eigvalsh(mat) < -1e-9)
            if negative:
                raise ConfigurationError(f"{label} must be positive semi-definite")

    @property
    def dim_x(self) -> int:
        """Dimension of the hidden state."""
        return self.F.shape[0]

    @property
    def dim_z(self) -> int:
        """Dimension of a measurement."""
        return self.H.shape[0]

    def with_measurement_noise(self, R: np.ndarray) -> "ProcessModel":
        """Return a copy of this model with a different ``R``.

        Used by adaptive noise estimation: the dynamics stay fixed while the
        sensor-noise estimate is refreshed.
        """
        R = _as_matrix("R", np.asarray(R, dtype=float), (self.dim_z, self.dim_z))
        params = dict(self.params)
        params.pop("measurement_sigma", None)
        return ProcessModel(
            name=self.name, F=self.F, H=self.H, Q=self.Q, R=R, P0=self.P0, params=params
        )

    def with_process_noise(self, Q: np.ndarray) -> "ProcessModel":
        """Return a copy of this model with a different ``Q``."""
        Q = _as_matrix("Q", np.asarray(Q, dtype=float), (self.dim_x, self.dim_x))
        params = dict(self.params)
        params.pop("process_noise", None)
        return ProcessModel(
            name=self.name, F=self.F, H=self.H, Q=Q, R=self.R, P0=self.P0, params=params
        )

    def spec(self) -> dict:
        """Serialize the model to a plain dict (wire/debug friendly)."""
        return {
            "name": self.name,
            "F": self.F.tolist(),
            "H": self.H.tolist(),
            "Q": self.Q.tolist(),
            "R": self.R.tolist(),
            "P0": self.P0.tolist(),
            "params": dict(self.params),
        }

    def equivalent(self, other: "ProcessModel", atol: float = 1e-12) -> bool:
        """Structural equality up to floating-point tolerance."""
        return (
            self.dim_x == other.dim_x
            and self.dim_z == other.dim_z
            and np.allclose(self.F, other.F, atol=atol)
            and np.allclose(self.H, other.H, atol=atol)
            and np.allclose(self.Q, other.Q, atol=atol)
            and np.allclose(self.R, other.R, atol=atol)
        )


def model_from_spec(spec: dict) -> ProcessModel:
    """Rebuild a :class:`ProcessModel` from :meth:`ProcessModel.spec` output."""
    return ProcessModel(
        name=spec["name"],
        F=np.asarray(spec["F"], dtype=float),
        H=np.asarray(spec["H"], dtype=float),
        Q=np.asarray(spec["Q"], dtype=float),
        R=np.asarray(spec["R"], dtype=float),
        P0=np.asarray(spec["P0"], dtype=float),
        params=dict(spec.get("params", {})),
    )


def kinematic(
    order: int,
    dt: float = 1.0,
    process_noise: float = 0.1,
    measurement_sigma: float = 1.0,
    initial_uncertainty: float = 100.0,
) -> ProcessModel:
    """Build a 1-D kinematic model of the given order.

    Order 1 is a random walk on position, order 2 adds velocity (constant
    velocity between noise kicks), order 3 adds acceleration.  Position is
    the only observed coordinate.

    Args:
        order: Number of kinematic state variables (1, 2 or 3).
        dt: Sampling period of the stream.
        process_noise: Spectral density of the white noise driving the
            highest derivative.  Larger values track manoeuvres faster at
            the cost of noisier predictions.
        measurement_sigma: Standard deviation of the sensor noise.
        initial_uncertainty: Diagonal of the initial covariance; large
            values let the first few measurements dominate the prior.
    """
    if order not in (1, 2, 3):
        raise ConfigurationError(f"kinematic order must be 1, 2 or 3, got {order!r}")
    if order == 1:
        F = np.array([[1.0]])
    elif order == 2:
        F = np.array([[1.0, dt], [0.0, 1.0]])
    else:
        F = np.array([[1.0, dt, dt**2 / 2.0], [0.0, 1.0, dt], [0.0, 0.0, 1.0]])
    H = np.zeros((1, order))
    H[0, 0] = 1.0
    Q = q_discrete_white_noise(order, dt, process_noise)
    R = measurement_noise(measurement_sigma, 1)
    P0 = np.eye(order) * initial_uncertainty
    names = {1: "random_walk", 2: "constant_velocity", 3: "constant_acceleration"}
    return ProcessModel(
        name=names[order],
        F=F,
        H=H,
        Q=Q,
        R=R,
        P0=P0,
        params={
            "factory": "kinematic",
            "order": order,
            "dt": dt,
            "process_noise": process_noise,
            "measurement_sigma": measurement_sigma,
            "initial_uncertainty": initial_uncertainty,
        },
    )


def random_walk(
    dt: float = 1.0,
    process_noise: float = 0.1,
    measurement_sigma: float = 1.0,
    initial_uncertainty: float = 100.0,
) -> ProcessModel:
    """1-D random-walk model (kinematic order 1)."""
    return kinematic(1, dt, process_noise, measurement_sigma, initial_uncertainty)


def constant_velocity(
    dt: float = 1.0,
    process_noise: float = 0.1,
    measurement_sigma: float = 1.0,
    initial_uncertainty: float = 100.0,
) -> ProcessModel:
    """1-D constant-velocity model (kinematic order 2)."""
    return kinematic(2, dt, process_noise, measurement_sigma, initial_uncertainty)


def constant_acceleration(
    dt: float = 1.0,
    process_noise: float = 0.1,
    measurement_sigma: float = 1.0,
    initial_uncertainty: float = 100.0,
) -> ProcessModel:
    """1-D constant-acceleration model (kinematic order 3)."""
    return kinematic(3, dt, process_noise, measurement_sigma, initial_uncertainty)


def harmonic(
    omega: float,
    dt: float = 1.0,
    process_noise: float = 0.01,
    measurement_sigma: float = 1.0,
    initial_uncertainty: float = 100.0,
) -> ProcessModel:
    """Damped-free harmonic oscillator model for periodic streams.

    The hidden state is ``[x, dx/dt]`` of an oscillator with angular
    frequency ``omega``; the exact discrete transition is a rotation in
    phase space.  Useful for diurnal or seasonal signals whose period is
    roughly known.
    """
    if omega <= 0:
        raise ConfigurationError(f"omega must be positive, got {omega!r}")
    c, s = np.cos(omega * dt), np.sin(omega * dt)
    F = np.array([[c, s / omega], [-omega * s, c]])
    H = np.array([[1.0, 0.0]])
    Q = q_discrete_white_noise(2, dt, process_noise)
    R = measurement_noise(measurement_sigma, 1)
    P0 = np.eye(2) * initial_uncertainty
    return ProcessModel(
        name="harmonic",
        F=F,
        H=H,
        Q=Q,
        R=R,
        P0=P0,
        params={
            "factory": "harmonic",
            "omega": omega,
            "dt": dt,
            "process_noise": process_noise,
            "measurement_sigma": measurement_sigma,
            "initial_uncertainty": initial_uncertainty,
        },
    )


def planar(base: ProcessModel) -> ProcessModel:
    """Lift a 1-D kinematic model to two independent spatial axes.

    The 2-D state is the block-diagonal composition of the base state for x
    and y; the measurement is the ``(x, y)`` position pair.  Used for GPS
    trajectory streams.
    """
    F = block_diag(base.F, base.F)
    H = block_diag(base.H, base.H)
    Q = block_diag(base.Q, base.Q)
    R = block_diag(base.R, base.R)
    P0 = block_diag(base.P0, base.P0)
    return ProcessModel(
        name=f"planar_{base.name}",
        F=F,
        H=H,
        Q=Q,
        R=R,
        P0=P0,
        params={"factory": "planar", "base": base.spec()},
    )
