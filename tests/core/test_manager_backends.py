"""Backend equivalence: FleetEngine / batch manager vs the scalar paths.

The ``backend="batch"`` knob must be a pure performance choice: probe
curves, allocations, per-stream message counts and served-error statistics
all have to come out identical to the scalar reference (the per-stream
``DualKalmanPolicy`` loops).  These tests pin that, plus the knob's own
validation surface.
"""

import numpy as np
import pytest

from repro.core.manager import (
    FleetEngine,
    ManagedStream,
    StreamResourceManager,
    _stack_fleet,
)
from repro.core.precision import AbsoluteBound
from repro.core.reference import PolicyLoopEngine
from repro.core.session import DualKalmanPolicy
from repro.errors import ConfigurationError
from repro.kalman.models import constant_velocity, random_walk
from repro.parallel import ShardedFleetRuntime
from repro.streams.replay import record
from repro.streams.synthetic import RandomWalkStream, SinusoidStream


def _fleet(n=4, ticks=1600):
    sigmas = np.geomspace(0.2, 2.0, n)
    fleet = []
    for i, sigma in enumerate(sigmas):
        stream = RandomWalkStream(
            step_sigma=float(sigma), measurement_sigma=0.1 * float(sigma), seed=300 + i
        )
        fleet.append(
            ManagedStream(
                stream_id=f"s{i}",
                recording=record(stream, ticks),
                model=random_walk(
                    process_noise=float(sigma) ** 2,
                    measurement_sigma=0.1 * float(sigma),
                ),
            )
        )
    return fleet


def _managers(**kwargs):
    return (
        StreamResourceManager(_fleet(), probe_ticks=400, backend="scalar", **kwargs),
        StreamResourceManager(_fleet(), probe_ticks=400, backend="batch", **kwargs),
    )


class TestEngineValidation:
    def test_norm_keyword_is_gone(self):
        # The dead band is the max norm, with no knob to change it.
        with pytest.raises(TypeError):
            FleetEngine([random_walk()], np.ones(1), norm="max")
        with pytest.raises(TypeError):
            ShardedFleetRuntime([random_walk()], np.ones(1), norm="max")

    def test_deltas_shape_and_sign_checked(self):
        engine = FleetEngine([random_walk(), random_walk()], np.ones(2))
        with pytest.raises(ConfigurationError):
            engine.set_deltas(np.ones(3))
        with pytest.raises(ConfigurationError):
            engine.set_deltas(np.array([1.0, 0.0]))

    def test_run_shape_checked(self):
        engine = FleetEngine([random_walk(), random_walk()], np.ones(2))
        with pytest.raises(ConfigurationError):
            engine.run(np.zeros((10, 3, 1)))


class TestEngineVsPolicy:
    def test_engine_reproduces_policy_tick_for_tick(self):
        """Served values, send decisions and filter state all match."""
        models = [
            random_walk(process_noise=0.5, measurement_sigma=0.2),
            constant_velocity(process_noise=0.02, measurement_sigma=0.3),
        ]
        streams = [
            RandomWalkStream(step_sigma=0.7, measurement_sigma=0.2, seed=11),
            SinusoidStream(amplitude=5.0, period=90.0, measurement_sigma=0.3, seed=12),
        ]
        deltas = np.array([0.8, 1.1])
        readings = [s.take(400) for s in streams]
        values, _ = _stack_fleet(readings, 1)

        engine = FleetEngine(models, deltas)
        policies = [
            DualKalmanPolicy(m, AbsoluteBound(float(d)))
            for m, d in zip(models, deltas)
        ]
        # The reference engine is the same policy loop behind the engine
        # surface: bitwise the hand-ticked policies, 1e-12 the batch lanes.
        reference = PolicyLoopEngine(models, deltas).run(values)
        assert reference.served.shape == values.shape
        for t in range(values.shape[0]):
            served, sent = engine.step(values[t])
            np.testing.assert_array_equal(reference.sent[t], sent)
            np.testing.assert_allclose(reference.served[t], served, atol=1e-12)
            for k, policy in enumerate(policies):
                outcome = policy.tick(readings[k][t])
                assert bool(sent[k]) == outcome.sent, (t, k)
                if outcome.estimate is None:
                    assert np.isnan(served[k]).all(), (t, k)
                    assert np.isnan(reference.served[t, k]).all(), (t, k)
                else:
                    np.testing.assert_allclose(
                        served[k, :1], outcome.estimate, atol=1e-12
                    )
                    np.testing.assert_array_equal(
                        reference.served[t, k, :1], outcome.estimate
                    )
                # The stream's one true filter state matches the batch lane.
                _, x, P = policy.filter_state()
                np.testing.assert_allclose(engine.filters.x_of(k), x, atol=1e-12)
                np.testing.assert_allclose(engine.filters.P_of(k), P, atol=1e-12)
        np.testing.assert_array_equal(
            engine.messages, [p.stats.total_messages for p in policies]
        )
        np.testing.assert_array_equal(reference.messages_per_stream, engine.messages)

    def test_dropped_readings_coast(self):
        model = random_walk(process_noise=0.5, measurement_sigma=0.2)
        engine = FleetEngine([model], np.array([0.5]))
        values = RandomWalkStream(step_sigma=0.7, measurement_sigma=0.2, seed=4).take(
            50
        )
        for r in values:
            engine.step(r.value.reshape(1, 1))
        msgs_before = engine.messages.copy()
        served, sent = engine.step(np.array([[np.nan]]))
        # A dropped tick never sends and serves the coasting prediction.
        assert not sent[0]
        assert not np.isnan(served[0]).any()
        np.testing.assert_array_equal(engine.messages, msgs_before)

    def test_cold_stream_serves_nothing_until_first_send(self):
        engine = FleetEngine([random_walk()], np.array([1e9]))
        served, sent = engine.step(np.array([[np.nan]]))
        assert not sent[0] and np.isnan(served[0]).all()
        # First real measurement always sends (cold stream -> err = inf).
        served, sent = engine.step(np.array([[2.5]]))
        assert sent[0] and served[0, 0] == 2.5


class TestManagerBackendKnob:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamResourceManager(_fleet(), backend="gpu")

    def test_batch_plus_adaptive_rejected(self):
        with pytest.raises(ConfigurationError):
            StreamResourceManager(_fleet(), backend="batch", adaptive=True)

    def test_probe_curves_identical(self):
        scalar, batch = _managers()
        for cs, cb in zip(scalar.probe(), batch.probe()):
            assert cs.a == pytest.approx(cb.a, rel=1e-12)
            assert cs.b == pytest.approx(cb.b, rel=1e-12)

    def test_run_identical(self):
        scalar, batch = _managers()
        rs = scalar.run(budget=0.3, run_ticks=900)
        rb = batch.run(budget=0.3, run_ticks=900)
        for s, b in zip(rs.reports, rb.reports):
            assert s.stream_id == b.stream_id
            assert s.delta == pytest.approx(b.delta, rel=1e-12)
            assert s.messages == b.messages
            assert s.ticks == b.ticks
            assert s.mean_abs_error == pytest.approx(b.mean_abs_error, abs=1e-9)
            assert s.max_abs_error == pytest.approx(b.max_abs_error, abs=1e-9)

    def test_run_dynamic_identical(self):
        scalar, batch = _managers()
        ds = scalar.run_dynamic(budget=0.3, epoch_ticks=300)
        db = batch.run_dynamic(budget=0.3, epoch_ticks=300)
        assert len(ds.epochs) == len(db.epochs)
        for es, eb in zip(ds.epochs, db.epochs):
            assert es.messages == eb.messages
            np.testing.assert_allclose(es.deltas, eb.deltas, rtol=1e-12)
            np.testing.assert_allclose(
                es.mean_abs_errors, eb.mean_abs_errors, atol=1e-9
            )


class TestSnapshotIsolation:
    """A held state_snapshot must be immune to subsequent engine steps —
    the checkpoint writer serializes it after the engine moves on."""

    def _stepped_engine(self, n_ticks=12):
        models = [
            random_walk(process_noise=0.25, measurement_sigma=0.1),
            constant_velocity(process_noise=0.25, measurement_sigma=0.1),
        ]
        engine = FleetEngine(models, np.array([0.3, 0.6]))
        values = np.random.default_rng(5).standard_normal((n_ticks, 2, 1))
        for v in values:
            engine.step(v)
        return engine

    def test_held_snapshot_immune_to_step(self):
        engine = self._stepped_engine()
        snap = engine.state_snapshot()
        frozen = {
            "x": [x.copy() for x in snap["x"]],
            "P": [p.copy() for p in snap["P"]],
            "warm": snap["warm"].copy(),
            "messages": snap["messages"].copy(),
            "ticks": snap["ticks"],
            "n_predicts": snap["n_predicts"].copy(),
            "n_updates": snap["n_updates"].copy(),
        }
        more = np.random.default_rng(6).standard_normal((15, 2, 1))
        for v in more:
            engine.step(v)
        for i in range(2):
            np.testing.assert_array_equal(snap["x"][i], frozen["x"][i])
            np.testing.assert_array_equal(snap["P"][i], frozen["P"][i])
        np.testing.assert_array_equal(snap["warm"], frozen["warm"])
        np.testing.assert_array_equal(snap["messages"], frozen["messages"])
        np.testing.assert_array_equal(snap["n_predicts"], frozen["n_predicts"])
        np.testing.assert_array_equal(snap["n_updates"], frozen["n_updates"])
        assert snap["ticks"] == frozen["ticks"]

    def test_mutating_snapshot_does_not_corrupt_engine(self):
        engine = self._stepped_engine()
        before = engine.state_snapshot()
        vandal = engine.state_snapshot()
        for arr in vandal["x"]:
            arr[:] = 1e9
        vandal["warm"][:] = False
        after = engine.state_snapshot()
        for i in range(2):
            np.testing.assert_array_equal(before["x"][i], after["x"][i])
        np.testing.assert_array_equal(before["warm"], after["warm"])


class TestStackFleet:
    """The vectorized stacking fast path must equal the per-reading loop.

    ``_stack_fleet`` takes a one-``np.asarray``-per-side fast path when
    every stream has the same length and every tick carries a full
    ``dim_z_max``-dimensional value; anything irregular (dropped ticks,
    short streams, narrow measurement dims, missing truth) must fall back
    to the padding loop without changing a single output element.
    """

    @staticmethod
    def _reference(readings_per_stream, dim_z_max):
        # The original per-reading loop, kept verbatim as the oracle.
        n = len(readings_per_stream)
        n_ticks = max(len(r) for r in readings_per_stream)
        values = np.full((n_ticks, n, dim_z_max), np.nan)
        truths = np.full((n_ticks, n, dim_z_max), np.nan)
        for k, readings in enumerate(readings_per_stream):
            for t, reading in enumerate(readings):
                if reading.value is not None:
                    values[t, k, : reading.value.shape[0]] = reading.value
                if reading.truth is not None:
                    truths[t, k, : reading.truth.shape[0]] = reading.truth
        return values, truths

    def _assert_matches_reference(self, readings, dim_z_max):
        got_v, got_t = _stack_fleet(readings, dim_z_max)
        want_v, want_t = self._reference(readings, dim_z_max)
        np.testing.assert_array_equal(got_v, want_v)
        np.testing.assert_array_equal(got_t, want_t)
        assert got_v.flags["C_CONTIGUOUS"] and got_t.flags["C_CONTIGUOUS"]

    def test_uniform_fleet_takes_fast_path_bitwise(self):
        readings = [
            RandomWalkStream(step_sigma=0.5, measurement_sigma=0.1, seed=s).take(23)
            for s in range(7)
        ]
        self._assert_matches_reference(readings, 1)

    def test_dropped_ticks_fall_back(self):
        from repro.streams.base import Reading

        readings = [
            RandomWalkStream(step_sigma=0.5, measurement_sigma=0.1, seed=s).take(12)
            for s in range(3)
        ]
        readings[1][4] = Reading(t=readings[1][4].t, value=None, truth=None)
        self._assert_matches_reference(readings, 1)

    def test_unequal_stream_lengths_fall_back(self):
        readings = [
            RandomWalkStream(step_sigma=0.5, measurement_sigma=0.1, seed=s).take(n)
            for s, n in ((0, 10), (1, 7), (2, 10))
        ]
        self._assert_matches_reference(readings, 1)

    def test_narrow_dims_fall_back(self):
        # dim_z_max=2 with 1-D readings: every value needs NaN-padding.
        readings = [
            RandomWalkStream(step_sigma=0.5, measurement_sigma=0.1, seed=s).take(9)
            for s in range(3)
        ]
        self._assert_matches_reference(readings, 2)

    def test_patchy_truth_keeps_values_fast(self):
        # Values are uniform (fast path); truth has a hole (fallback).
        from repro.streams.base import Reading

        readings = [
            RandomWalkStream(step_sigma=0.5, measurement_sigma=0.1, seed=s).take(8)
            for s in range(3)
        ]
        r = readings[2][5]
        readings[2][5] = Reading(t=r.t, value=r.value, truth=None)
        self._assert_matches_reference(readings, 1)

    def test_nan_measurements_survive_fast_path(self):
        # A NaN *value* is a real (if broken) measurement, not a dropped
        # tick: it must stack as NaN on the fast path exactly as the
        # loop would write it.
        from repro.streams.base import Reading

        readings = [
            RandomWalkStream(step_sigma=0.5, measurement_sigma=0.1, seed=s).take(6)
            for s in range(2)
        ]
        r = readings[0][2]
        readings[0][2] = Reading(t=r.t, value=np.array([np.nan]), truth=r.truth)
        self._assert_matches_reference(readings, 1)
