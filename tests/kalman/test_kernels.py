"""The lane kernels' exactness contracts — and the absence of a knob.

There is one compute kernel (:mod:`repro.kalman.kernels`), so nothing
selects one: ``kernel=`` on any constructor that used to thread it is a
``TypeError``.  The kernel's dimension-specialized fast paths must be
*bitwise* identical to the general stacked path they shortcut: the 1-D
scalarized predict/update and the ``dim_z == 1`` broadcast-divide solve
are pinned against the explicit matmul/solve formulation on the same
inputs.  Divergence surfaces as
:class:`~repro.errors.FilterDivergenceError` from every branch.
"""

import numpy as np
import pytest

from repro.core.manager import FleetEngine, ManagedStream, StreamResourceManager
from repro.errors import FilterDivergenceError
from repro.kalman.batch import BatchKalmanFilter
from repro.kalman.kernels import predict_lane, update_lane
from repro.kalman.models import random_walk
from repro.parallel import ShardedFleetRuntime
from repro.streams import RandomWalkStream, record

_MODELS = [random_walk(process_noise=0.1) for _ in range(2)]


def _managed():
    return [
        ManagedStream("s", record(RandomWalkStream(seed=3), 8), _MODELS[0])
    ]


@pytest.mark.parametrize(
    "build",
    [
        lambda **kw: BatchKalmanFilter(_MODELS, **kw),
        lambda **kw: FleetEngine(_MODELS, np.ones(2), **kw),
        lambda **kw: ShardedFleetRuntime(
            _MODELS, np.ones(2), n_shards=2, executor="serial", **kw
        ),
        lambda **kw: StreamResourceManager(_managed(), probe_ticks=4, **kw),
    ],
    ids=["BatchKalmanFilter", "FleetEngine", "ShardedFleetRuntime", "manager"],
)
def test_kernel_keyword_is_gone(build):
    """No vestigial keyword: even the old default value is refused."""
    with pytest.raises(TypeError, match="kernel"):
        build(kernel="numpy")
    built = build()
    assert not hasattr(built, "kernel")
    if hasattr(built, "close"):
        built.close()


def _lanes_1d(m=257, seed=5):
    rng = np.random.default_rng(seed)
    F = rng.normal(1.0, 0.1, (m, 1, 1))
    Q = rng.uniform(0.01, 1.0, (m, 1, 1))
    x = rng.normal(0, 3, (m, 1))
    P = rng.uniform(0.1, 2.0, (m, 1, 1))
    H = rng.normal(1.0, 0.2, (m, 1, 1))
    R = rng.uniform(0.05, 1.0, (m, 1, 1))
    z = rng.normal(0, 3, (m, 1))
    return F, Q, x, P, H, R, z


class TestScalarizedFastPathsBitwise:
    """The dim-1 shortcuts are the general path, minus dispatch overhead."""

    def test_predict_1d_bitwise_equals_stacked_matmul(self):
        F, Q, x, P, _, _, _ = _lanes_1d()
        x_fast, P_fast = predict_lane(F, Q, x, P)
        x_gen = (F @ x[..., None])[..., 0]
        P_gen = F @ P @ F.transpose(0, 2, 1) + Q
        P_gen = 0.5 * (P_gen + P_gen.transpose(0, 2, 1))
        np.testing.assert_array_equal(x_fast, x_gen)
        np.testing.assert_array_equal(P_fast, P_gen)

    def test_update_1d_bitwise_equals_stacked_joseph(self):
        _, _, x, P, H, R, z = _lanes_1d()
        x_fast, P_fast = update_lane(x, P, H, R, z)
        y = z - (H @ x[..., None])[..., 0]
        PHT = P @ H.transpose(0, 2, 1)
        S = H @ PHT + R
        K = PHT / S
        x_gen = x + (K @ y[..., None])[..., 0]
        IKH = np.eye(1) - K @ H
        P_gen = IKH @ P @ IKH.transpose(0, 2, 1) + K @ R @ K.transpose(0, 2, 1)
        P_gen = 0.5 * (P_gen + P_gen.transpose(0, 2, 1))
        np.testing.assert_array_equal(x_fast, x_gen)
        np.testing.assert_array_equal(P_fast, P_gen)

    def test_broadcast_divide_close_to_lapack_solve(self):
        """dim_x 2, dim_z 1: the divide replaces LAPACK's 1x1 gesv.

        gesv multiplies by the reciprocal, so the two differ in the last
        bit on some lanes — pinned here at machine-precision closeness
        (the bitwise contracts that matter are batch-vs-scalar and
        sharded-vs-batch, both pinned elsewhere).
        """
        rng = np.random.default_rng(11)
        m = 128
        x = rng.normal(0, 1, (m, 2))
        A = rng.normal(0, 0.3, (m, 2, 2))
        P = A @ A.transpose(0, 2, 1) + 0.5 * np.eye(2)
        H = rng.normal(0.8, 0.1, (m, 1, 2))
        R = rng.uniform(0.1, 1.0, (m, 1, 1))
        z = rng.normal(0, 1, (m, 1))
        x_new, P_new = update_lane(x, P, H, R, z)
        PHT = P @ H.transpose(0, 2, 1)
        S = H @ PHT + R
        K = np.linalg.solve(
            S.transpose(0, 2, 1), PHT.transpose(0, 2, 1)
        ).transpose(0, 2, 1)
        y = z - (H @ x[..., None])[..., 0]
        x_ref = x + (K @ y[..., None])[..., 0]
        np.testing.assert_allclose(x_new, x_ref, rtol=1e-12, atol=1e-14)
        np.testing.assert_array_equal(P_new, P_new.transpose(0, 2, 1))


class TestDivergenceSurface:
    def test_scalar_path_zero_pivot(self):
        x = np.zeros((3, 1))
        P = np.ones((3, 1, 1))
        H = np.ones((3, 1, 1))
        R = np.full((3, 1, 1), -1.0)  # S = H P H' + R = 0
        z = np.zeros((3, 1))
        with pytest.raises(FilterDivergenceError):
            update_lane(x, P, H, R, z)

    def test_broadcast_path_zero_pivot(self):
        x = np.zeros((2, 2))
        P = np.zeros((2, 2, 2))
        H = np.zeros((2, 1, 2))
        R = np.zeros((2, 1, 1))
        z = np.zeros((2, 1))
        with pytest.raises(FilterDivergenceError):
            update_lane(x, P, H, R, z)

    def test_general_solve_singular(self):
        x = np.zeros((2, 2))
        P = np.zeros((2, 2, 2))
        H = np.zeros((2, 2, 2))
        R = np.zeros((2, 2, 2))
        z = np.zeros((2, 2))
        with pytest.raises(FilterDivergenceError):
            update_lane(x, P, H, R, z)
