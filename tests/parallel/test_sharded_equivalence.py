"""The sharded runtime is bitwise-equal to the single-engine batch path.

Sharding must be a pure wall-clock choice: per-stream served estimates,
send masks and message counts have to come out *bitwise* identical to
:class:`~repro.core.manager.FleetEngine` whatever the shard count, plan
strategy, executor kind or dispatch chunking — and the manager's
``backend="sharded"`` knob has to reproduce the batch backend's probe
curves, reports and dynamic epochs exactly.  Most cases run on the
serial executor so the full dispatch/merge/resume machinery is
exercised cheaply on every push; the executor-parametrized ones repeat
it on a real process pool.
"""

import numpy as np
import pytest

from repro.core.manager import FleetEngine, ManagedStream, StreamResourceManager
from repro.errors import ConfigurationError
from repro.kalman.models import constant_velocity, planar, random_walk
from repro.obs.telemetry import Telemetry
from repro.parallel import ShardPlan, ShardedFleetRuntime
from repro.streams.replay import record
from repro.streams.synthetic import RandomWalkStream


def _models(n):
    """A heterogeneous fleet: 1-D walks, 1-D CV tracks and 2-D planar CV."""
    out = []
    for i in range(n):
        if i % 3 == 0:
            out.append(random_walk(process_noise=0.2 + 0.1 * i))
        elif i % 3 == 1:
            out.append(constant_velocity(process_noise=0.05, measurement_sigma=0.5))
        else:
            out.append(planar(constant_velocity(process_noise=0.1)))
    return out


def _values(models, n_ticks, seed=0, drop_rate=0.05):
    """Random measurements, NaN-padded to the fleet dim and with drops."""
    rng = np.random.default_rng(seed)
    dim_z_max = max(m.dim_z for m in models)
    values = np.full((n_ticks, len(models), dim_z_max), np.nan)
    for k, m in enumerate(models):
        walk = np.cumsum(rng.normal(0, 0.5, size=(n_ticks, m.dim_z)), axis=0)
        values[:, k, : m.dim_z] = walk + rng.normal(0, 0.2, size=walk.shape)
    dropped = rng.random((n_ticks, len(models))) < drop_rate
    values[dropped] = np.nan
    return values


def _deltas(models, seed=1):
    rng = np.random.default_rng(seed)
    return rng.uniform(0.3, 2.0, size=len(models))


def _assert_traces_equal(sharded, reference):
    np.testing.assert_array_equal(sharded.served, reference.served)
    np.testing.assert_array_equal(sharded.sent, reference.sent)


class TestRuntimeEquivalence:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    @pytest.mark.parametrize("n_shards", [1, 3, 4])
    def test_bitwise_equal_to_fleet_engine(self, executor, n_shards):
        models = _models(11)
        deltas = _deltas(models)
        values = _values(models, 400)
        reference = FleetEngine(models, deltas).run(values)
        with ShardedFleetRuntime(
            models, deltas, n_shards=n_shards, executor=executor
        ) as runtime:
            trace = runtime.run(values)
        _assert_traces_equal(trace, reference)
        np.testing.assert_array_equal(runtime.messages, reference.sent.sum(axis=0))
        assert runtime.ticks == values.shape[0]

    def test_round_robin_plan_equal_too(self):
        models = _models(10)
        deltas = _deltas(models)
        values = _values(models, 300)
        reference = FleetEngine(models, deltas).run(values)
        plan = ShardPlan.round_robin(len(models), 4)
        with ShardedFleetRuntime(models, deltas, plan=plan, executor="serial") as rt:
            _assert_traces_equal(rt.run(values), reference)

    @pytest.mark.parametrize("chunk_ticks", [1, 37, 1000])
    def test_chunked_dispatch_resumes_exactly(self, chunk_ticks):
        """State round-trips through snapshots without perturbing anything."""
        models = _models(9)
        deltas = _deltas(models)
        values = _values(models, 250)
        reference = FleetEngine(models, deltas).run(values)
        with ShardedFleetRuntime(
            models, deltas, n_shards=3, executor="serial", chunk_ticks=chunk_ticks
        ) as rt:
            _assert_traces_equal(rt.run(values), reference)

    def test_consecutive_runs_continue_state(self):
        """Two back-to-back run() windows equal one long single-engine run."""
        models = _models(8)
        deltas = _deltas(models)
        values = _values(models, 320)
        reference = FleetEngine(models, deltas).run(values)
        with ShardedFleetRuntime(models, deltas, n_shards=4, executor="serial") as rt:
            first = rt.run(values[:150])
            second = rt.run(values[150:])
        np.testing.assert_array_equal(
            np.concatenate([first.served, second.served]), reference.served
        )
        np.testing.assert_array_equal(
            np.concatenate([first.sent, second.sent]), reference.sent
        )

    def test_set_deltas_between_windows(self):
        """Re-bounding mid-run matches an engine re-bounded at the same tick."""
        models = _models(8)
        d1, d2 = _deltas(models, seed=1), _deltas(models, seed=2)
        values = _values(models, 300)
        engine = FleetEngine(models, d1)
        ref_a = engine.run(values[:140])
        engine.set_deltas(d2)
        ref_b = engine.run(values[140:])
        with ShardedFleetRuntime(models, d1, n_shards=3, executor="serial") as rt:
            got_a = rt.run(values[:140])
            rt.set_deltas(d2)
            got_b = rt.run(values[140:])
        _assert_traces_equal(got_a, ref_a)
        _assert_traces_equal(got_b, ref_b)

    def test_validation_surface(self):
        models = _models(4)
        with pytest.raises(ConfigurationError):
            ShardedFleetRuntime(models, np.ones(4), executor="fiber")
        with pytest.raises(ConfigurationError):
            ShardedFleetRuntime(models, np.ones(4), chunk_ticks=0)
        with pytest.raises(ConfigurationError):
            ShardedFleetRuntime(
                models, np.ones(4), plan=ShardPlan.contiguous(5, 2)
            )
        with pytest.raises(ConfigurationError):
            ShardedFleetRuntime(
                models, np.ones(4), n_shards=3, plan=ShardPlan.contiguous(4, 2)
            )
        rt = ShardedFleetRuntime(models, np.ones(4), executor="serial")
        with pytest.raises(ConfigurationError):
            rt.run(np.zeros((10, 3, 2)))
        with pytest.raises(ConfigurationError):
            rt.set_deltas(np.zeros(4))


def _fleet(n=6, ticks=2600):
    sigmas = np.geomspace(0.2, 2.0, n)
    fleet = []
    for i, sigma in enumerate(sigmas):
        stream = RandomWalkStream(
            step_sigma=float(sigma),
            measurement_sigma=0.1 * float(sigma),
            seed=700 + i,
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


def _manager(backend, **kwargs):
    return StreamResourceManager(_fleet(), probe_ticks=400, backend=backend, **kwargs)


class TestManagerShardedBackend:
    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_probe_curves_identical(self, executor):
        batch = _manager("batch").probe()
        sharded = _manager(
            "sharded", n_shards=3, shard_executor=executor
        ).probe()
        for b, s in zip(batch, sharded):
            assert b.a == s.a and b.b == s.b

    @pytest.mark.parametrize("executor", ["serial", "process"])
    def test_main_run_reports_identical(self, executor):
        ref = _manager("batch").run(2.0, run_ticks=1500)
        got = _manager("sharded", n_shards=4, shard_executor=executor).run(
            2.0, run_ticks=1500
        )
        assert got.reports == ref.reports
        assert got.total_messages == ref.total_messages

    def test_dynamic_epochs_identical(self):
        ref = _manager("batch").run_dynamic(2.0, epoch_ticks=500)
        got = _manager(
            "sharded", n_shards=3, shard_executor="serial"
        ).run_dynamic(2.0, epoch_ticks=500)
        assert len(got.epochs) == len(ref.epochs) >= 2
        for a, b in zip(got.epochs, ref.epochs):
            np.testing.assert_array_equal(a.deltas, b.deltas)
            assert a.messages == b.messages
            np.testing.assert_array_equal(a.mean_abs_errors, b.mean_abs_errors)

    def test_sharded_rejects_adaptive(self):
        with pytest.raises(ConfigurationError):
            _manager("sharded", adaptive=True)

    def test_shards_clamped_to_fleet_size(self):
        manager = _manager("sharded", n_shards=64, shard_executor="serial")
        result = manager.run(2.0, run_ticks=600)
        assert len(result.reports) == len(manager.streams)


class TestShardedTelemetryParity:
    def test_worker_counters_fold_to_batch_totals(self):
        """Summed over shard labels, sharded counters equal batch counters."""
        tel_batch, tel_sharded = Telemetry(), Telemetry()
        _manager("batch", telemetry=tel_batch).run(2.0, run_ticks=1200)
        _manager(
            "sharded", n_shards=3, shard_executor="serial", telemetry=tel_sharded
        ).run(2.0, run_ticks=1200)

        def totals(tel):
            out = {}
            for family in tel.metrics.families():
                if family.kind != "counter":
                    continue
                if family.name == "repro_shard_bytes_shipped_total":
                    # Coordinator-side transport bookkeeping: the batch
                    # backend ships nothing, so it has no analogue.
                    continue
                for key, metric in family.instances.items():
                    labels = dict(key)
                    labels.pop("shard", None)
                    bucket = (family.name, tuple(sorted(labels.items())))
                    out[bucket] = out.get(bucket, 0.0) + metric.value
            return out

        assert totals(tel_sharded) == totals(tel_batch)

    def test_shard_labels_present_and_spans_folded(self):
        tel = Telemetry()
        manager = _manager(
            "sharded", n_shards=3, shard_executor="serial", telemetry=tel
        )
        manager.run(2.0, run_ticks=1200)
        families = {f.name: f for f in tel.metrics.families()}
        shards = {
            dict(key).get("shard")
            for key in families["repro_messages_total"].instances
        }
        assert shards == {"0", "1", "2"}
        assert "batch_step[numpy]" in tel.spans.names()

    def test_dynamic_sets_shard_budget_gauges(self):
        tel = Telemetry()
        _manager(
            "sharded", n_shards=3, shard_executor="serial", telemetry=tel
        ).run_dynamic(2.0, epoch_ticks=500)
        families = {f.name: f for f in tel.metrics.families()}
        gauges = families["repro_shard_budget"].instances
        assert {dict(k)["shard"] for k in gauges} == {"0", "1", "2"}
        assert all(m.value > 0 for m in gauges.values())
