"""Unit tests for the vectorized filter bank (BatchKalmanFilter).

Numerical equivalence with the scalar filter is property-tested in
``tests/properties/test_batch_equivalence.py``; this file covers the
surface the batch API adds on top — validation, counters, lane layout,
state injection.
"""

import numpy as np
import pytest

from repro.errors import ConfigurationError, DimensionError
from repro.kalman import BatchKalmanFilter
from repro.kalman.models import harmonic, kinematic, planar


def _mixed_models():
    return [
        kinematic(1, process_noise=0.2, measurement_sigma=0.3),
        kinematic(2, process_noise=0.05, measurement_sigma=0.5),
        harmonic(0.4, process_noise=0.01, measurement_sigma=0.4),
        planar(kinematic(2, process_noise=0.05, measurement_sigma=0.5)),
    ]


class TestConstruction:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ConfigurationError):
            BatchKalmanFilter([])

    def test_x0s_length_mismatch_rejected(self):
        models = _mixed_models()
        with pytest.raises(ConfigurationError):
            BatchKalmanFilter(models, x0s=[None] * (len(models) - 1))

    def test_x0_shape_mismatch_rejected(self):
        models = _mixed_models()
        x0s = [None] * len(models)
        x0s[1] = np.zeros(3)  # kinematic(2) has dim_x == 2
        with pytest.raises(DimensionError):
            BatchKalmanFilter(models, x0s=x0s)

    def test_none_x0_entries_start_at_zero(self):
        models = _mixed_models()
        x0s = [None, np.array([1.0, -2.0]), None, None]
        batch = BatchKalmanFilter(models, x0s=x0s)
        np.testing.assert_array_equal(batch.x_of(0), np.zeros(1))
        np.testing.assert_array_equal(batch.x_of(1), [1.0, -2.0])

    def test_mixed_fleet_layout(self):
        batch = BatchKalmanFilter(_mixed_models())
        assert batch.n == 4
        # planar lifts the measurement to (x, y).
        assert batch.dim_z_max == 2
        # Covariances start at each model's P0, in fleet order.
        for i, m in enumerate(_mixed_models()):
            np.testing.assert_array_equal(batch.P_of(i), m.P0)


class TestSharedModelLanes:
    """``[model] * n`` takes the one-repeat path; the blocks are the stack's."""

    FIELDS = (("F", "F"), ("H", "H"), ("Q", "Q"), ("R", "R"), ("P", "P0"))

    @pytest.mark.parametrize(
        "model",
        [
            kinematic(1, process_noise=0.2, measurement_sigma=0.3),
            planar(kinematic(2, process_noise=0.05, measurement_sigma=0.5)),
        ],
        ids=["scalar", "planar"],
    )
    def test_blocks_are_bitwise_the_stacked_arrays(self, model):
        n = 7
        (lane,) = BatchKalmanFilter([model] * n)._lanes
        for block_name, field in self.FIELDS:
            block = getattr(lane, block_name)
            want = np.stack([getattr(model, field) for _ in range(n)])
            assert block.dtype == want.dtype and block.shape == want.shape
            assert block.tobytes() == want.tobytes()
            assert block.flags.c_contiguous and block.flags.writeable
            assert block.flags.owndata

    def test_rows_alias_neither_the_model_nor_each_other(self):
        model = kinematic(2, process_noise=0.05, measurement_sigma=0.5)
        p0 = model.P0.copy()
        batch = BatchKalmanFilter([model] * 3)
        (lane,) = batch._lanes
        for block_name, field in self.FIELDS:
            assert not np.shares_memory(getattr(lane, block_name), getattr(model, field))
        lane.P[0] += 1.0
        np.testing.assert_array_equal(model.P0, p0)
        np.testing.assert_array_equal(lane.P[1], p0)
        np.testing.assert_array_equal(lane.P[2], p0)

    def test_shared_and_equal_but_distinct_models_run_identically(self):
        def build():
            return kinematic(2, process_noise=0.05, measurement_sigma=0.5)

        shared = BatchKalmanFilter([build()] * 5)
        distinct = BatchKalmanFilter([build() for _ in range(5)])
        zs = np.random.default_rng(3).normal(size=(6, 5, 1))
        for z in zs:
            for batch in (shared, distinct):
                batch.predict()
                batch.update(z)
        for i in range(5):
            np.testing.assert_array_equal(shared.x_of(i), distinct.x_of(i))
            np.testing.assert_array_equal(shared.P_of(i), distinct.P_of(i))

    def test_one_odd_model_out_takes_the_stacking_path(self):
        model = kinematic(1, process_noise=0.2, measurement_sigma=0.3)
        other = kinematic(1, process_noise=0.7, measurement_sigma=0.3)
        (lane,) = BatchKalmanFilter([model, model, other])._lanes
        np.testing.assert_array_equal(lane.Q, np.stack([model.Q, model.Q, other.Q]))


class TestValidation:
    def test_update_shape_rejected(self):
        batch = BatchKalmanFilter(_mixed_models())
        with pytest.raises(DimensionError):
            batch.update(np.zeros((batch.n, batch.dim_z_max + 1)))

    def test_mask_shape_rejected(self):
        batch = BatchKalmanFilter(_mixed_models())
        with pytest.raises(DimensionError):
            batch.predict(mask=np.ones(batch.n + 1, dtype=bool))

    def test_negative_lookahead_rejected(self):
        batch = BatchKalmanFilter(_mixed_models())
        with pytest.raises(ValueError):
            batch.predicted_measurements(steps=-1)


class TestCounters:
    def test_masked_ops_count_only_selected(self):
        batch = BatchKalmanFilter(_mixed_models())
        mask = np.array([True, False, True, False])
        batch.predict(mask)
        batch.predict()
        np.testing.assert_array_equal(batch.n_predicts, [2, 1, 2, 1])
        zs = np.zeros((batch.n, batch.dim_z_max))
        batch.update(zs, ~mask)
        np.testing.assert_array_equal(batch.n_updates, [0, 1, 0, 1])

    def test_step_counts_predict_everywhere_update_where_masked(self):
        batch = BatchKalmanFilter(_mixed_models())
        mask = np.array([True, True, False, False])
        batch.step(np.zeros((batch.n, batch.dim_z_max)), mask)
        np.testing.assert_array_equal(batch.n_predicts, [1, 1, 1, 1])
        np.testing.assert_array_equal(batch.n_updates, [1, 1, 0, 0])


class TestViews:
    def test_views_are_nan_padded_to_dim_z_max(self):
        batch = BatchKalmanFilter(_mixed_models())
        est = batch.measurement_estimates()
        var = batch.measurement_variances()
        assert est.shape == (4, 2)
        assert var.shape == (4, 2, 2)
        # 1-D measurement members have NaN in the padded column...
        assert np.isnan(est[0, 1]) and np.isnan(var[0, 1, 1])
        # ...the planar member fills both.
        assert not np.isnan(est[3]).any()

    def test_zero_step_lookahead_is_current_estimate(self):
        batch = BatchKalmanFilter(_mixed_models())
        batch.step(np.ones((batch.n, batch.dim_z_max)), None)
        np.testing.assert_allclose(
            batch.predicted_measurements(steps=0),
            batch.measurement_estimates(),
        )

    def test_state_accessors_return_copies(self):
        batch = BatchKalmanFilter(_mixed_models())
        batch.x_of(0)[:] = 99.0
        batch.P_of(0)[:] = 99.0
        np.testing.assert_array_equal(batch.x_of(0), np.zeros(1))
        assert not np.any(batch.P_of(0) == 99.0)
