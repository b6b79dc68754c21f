"""Sharded sketch/censor parity: approximation must not depend on sharding.

The sketch projection is derived deterministically from
``(seed, dim_z, dim_sketch)`` and censoring is a pure per-stream test,
so splitting the fleet across shards — any executor, any transport —
must reproduce the single-engine approximate run *bitwise*, including
the per-stream ``n_censored`` accounting that rides through snapshots
and checkpoints.
"""

import numpy as np
import pytest

from repro.core.manager import FleetEngine
from repro.durability import CheckpointStore, dumps_payload
from repro.errors import ConfigurationError
from repro.kalman import SketchConfig
from repro.kalman.models import ProcessModel, constant_velocity, random_walk
from repro.parallel import ShardedFleetRuntime


def _wide(dim_z=4):
    return ProcessModel(
        name="wide",
        F=np.eye(1),
        H=np.ones((dim_z, 1)),
        Q=np.eye(1) * 0.1,
        R=np.eye(dim_z) * 0.25,
        P0=np.eye(1),
    )


def _models(n):
    out = []
    for i in range(n):
        if i % 3 == 0:
            out.append(_wide())
        elif i % 3 == 1:
            out.append(random_walk(process_noise=0.3))
        else:
            out.append(constant_velocity(process_noise=0.05, measurement_sigma=0.5))
    return out


def _values(models, n_ticks, seed=0):
    rng = np.random.default_rng(seed)
    dim_z_max = max(m.dim_z for m in models)
    values = np.full((n_ticks, len(models), dim_z_max), np.nan)
    for k, m in enumerate(models):
        walk = np.cumsum(rng.normal(0, 0.5, size=(n_ticks, m.dim_z)), axis=0)
        values[:, k, : m.dim_z] = walk + rng.normal(0, 0.2, size=walk.shape)
    dropped = rng.random((n_ticks, len(models))) < 0.05
    values[dropped] = np.nan
    return values


SKETCH = SketchConfig(dim=2, seed=7)
CENSOR = 1.0


class TestShardedApproxParity:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_bitwise_equal_to_batch_engine(self, executor):
        models = _models(13)
        deltas = np.full(13, 0.8)
        values = _values(models, 200)
        reference = FleetEngine(
            models, deltas, sketch=SKETCH, censor_threshold=CENSOR
        )
        ref_trace = reference.run(values)
        assert reference.filters.n_censored.sum() > 0
        with ShardedFleetRuntime(
            models,
            deltas,
            n_shards=4,
            executor=executor,
            sketch=SKETCH,
            censor_threshold=CENSOR,
        ) as runtime:
            trace = runtime.run(values)
            snap = runtime.state_snapshot()
        np.testing.assert_array_equal(trace.served, ref_trace.served)
        np.testing.assert_array_equal(trace.sent, ref_trace.sent)
        np.testing.assert_array_equal(
            snap["n_censored"], reference.filters.n_censored
        )

    def test_health_report_exposes_knobs(self):
        models = _models(6)
        with ShardedFleetRuntime(
            models,
            np.full(6, 0.8),
            n_shards=2,
            executor="serial",
            sketch=SKETCH,
            censor_threshold=CENSOR,
        ) as rt:
            report = rt.health_report()
        assert report["sketch_dim"] == 2
        assert report["censor_threshold"] == CENSOR
        with ShardedFleetRuntime(
            models, np.full(6, 0.8), n_shards=2, executor="serial"
        ) as rt:
            report = rt.health_report()
        assert report["sketch_dim"] is None
        assert report["censor_threshold"] == 0.0


class TestApproxStateRoundtrip:
    def test_snapshot_restore_resumes_bitwise(self):
        models = _models(9)
        deltas = np.full(9, 0.8)
        values = _values(models, 160)
        reference = FleetEngine(
            models, deltas, sketch=SKETCH, censor_threshold=CENSOR
        )
        ref_trace = reference.run(values)
        with ShardedFleetRuntime(
            models,
            deltas,
            n_shards=3,
            executor="serial",
            sketch=SKETCH,
            censor_threshold=CENSOR,
        ) as rt:
            rt.run(values[:80])
            snap = rt.state_snapshot()
        with ShardedFleetRuntime(
            models,
            deltas,
            n_shards=2,  # a different plan must not matter
            executor="serial",
            sketch=SKETCH,
            censor_threshold=CENSOR,
        ) as rt2:
            rt2.restore_state(snap)
            trace = rt2.run(values[80:])
            final = rt2.state_snapshot()
        np.testing.assert_array_equal(trace.served, ref_trace.served[80:])
        np.testing.assert_array_equal(
            final["n_censored"], reference.filters.n_censored
        )

    def test_checkpoint_recover_keeps_censor_counts(self, tmp_path):
        models = _models(6)
        deltas = np.full(6, 0.8)
        values = _values(models, 120)
        reference = FleetEngine(
            models, deltas, sketch=SKETCH, censor_threshold=CENSOR
        )
        ref_trace = reference.run(values)
        store = CheckpointStore(tmp_path / "ckpt", fsync=False)
        with ShardedFleetRuntime(
            models,
            deltas,
            n_shards=2,
            executor="serial",
            sketch=SKETCH,
            censor_threshold=CENSOR,
        ) as rt:
            rt.run(values[:60])
            rt.checkpoint(store)
        with ShardedFleetRuntime(
            models,
            deltas,
            n_shards=2,
            executor="serial",
            sketch=SKETCH,
            censor_threshold=CENSOR,
        ) as rt2:
            report = rt2.recover_from_checkpoint(store)
            trace = rt2.run(values[60:])
            snap = rt2.state_snapshot()
        assert report.succeeded
        np.testing.assert_array_equal(trace.served, ref_trace.served[60:])
        np.testing.assert_array_equal(
            snap["n_censored"], reference.filters.n_censored
        )

    def test_pre_censor_snapshot_refused(self):
        models = _models(4)
        deltas = np.full(4, 0.8)
        with ShardedFleetRuntime(
            models, deltas, n_shards=2, executor="serial"
        ) as rt:
            rt.run(_values(models, 40))
            snap = rt.state_snapshot()
        del snap["n_censored"]  # a snapshot taken before censoring existed
        with ShardedFleetRuntime(
            models, deltas, n_shards=2, executor="serial"
        ) as rt2:
            untouched = dumps_payload(rt2.state_snapshot())
            with pytest.raises(ConfigurationError, match="n_censored"):
                rt2.restore_state(snap)
            assert dumps_payload(rt2.state_snapshot()) == untouched
