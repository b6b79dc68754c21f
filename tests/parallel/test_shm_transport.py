"""Zero-copy shared-memory dispatch: equivalence, accounting, hygiene.

Shard dispatch ships no ndarrays: coordinator-owned
``multiprocessing.shared_memory`` segments hold them and workers write
results into them in place.  Transport must be invisible to the math —
it is pinned bitwise-equal to the single-engine batch path (the
reference) here, on both executor kinds — while the things transport
*is* allowed to change are pinned too: bytes shipped (the
``repro_shard_bytes_shipped_total`` counter is a per-dispatch header,
bounded independently of fleet size), crash recovery from
coordinator-committed state, and segment hygiene (no leaked shm files or
registry entries after ``close()``).  The serialize-everything
``"pickle"`` transport and the ``"thread"`` executor are gone and must
be refused by name.
"""

import numpy as np
import pytest

from repro.core.manager import FleetEngine
from repro.errors import ConfigurationError
from repro.kalman.models import constant_velocity, planar, random_walk
from repro.obs.telemetry import Telemetry
from repro.parallel import TRANSPORT_KINDS, ShardedFleetRuntime
from repro.parallel import runtime as runtime_mod


def _models(n):
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


class TestShmEquivalence:
    @pytest.mark.parametrize("transport", TRANSPORT_KINDS)
    def test_bitwise_equal_on_serial_executor(self, transport):
        models = _models(10)
        deltas = _deltas(models)
        values = _values(models, 300)
        reference = FleetEngine(models, deltas).run(values)
        with ShardedFleetRuntime(
            models,
            deltas,
            n_shards=3,
            executor="serial",
            transport=transport,
        ) as rt:
            trace = rt.run(values)
        np.testing.assert_array_equal(trace.served, reference.served)
        np.testing.assert_array_equal(trace.sent, reference.sent)

    def test_bitwise_equal_on_process_pool(self):
        models = _models(6)
        deltas = _deltas(models)
        values = _values(models, 120)
        reference = FleetEngine(models, deltas).run(values)
        with ShardedFleetRuntime(
            models,
            deltas,
            n_shards=2,
            executor="process",
            max_workers=2,
            transport="shm",
        ) as rt:
            trace = rt.run(values)
        np.testing.assert_array_equal(trace.served, reference.served)
        np.testing.assert_array_equal(trace.sent, reference.sent)

    def test_chunked_shm_runs_resume_exactly(self):
        """Packed state round-trips through the segment between chunks."""
        models = _models(9)
        deltas = _deltas(models)
        values = _values(models, 250)
        reference = FleetEngine(models, deltas).run(values)
        with ShardedFleetRuntime(
            models,
            deltas,
            n_shards=3,
            executor="serial",
            transport="shm",
            chunk_ticks=37,
        ) as rt:
            trace = rt.run(values)
        np.testing.assert_array_equal(trace.served, reference.served)
        np.testing.assert_array_equal(trace.sent, reference.sent)

    def test_second_run_reuses_segments(self):
        """A same-shape second window must not reallocate segments."""
        models = _models(6)
        deltas = _deltas(models)
        values = _values(models, 200)
        reference = FleetEngine(models, deltas).run(values)
        with ShardedFleetRuntime(
            models, deltas, n_shards=2, executor="serial", transport="shm"
        ) as rt:
            rt.run(values[:100])
            names_after_first = [seg.layout["name"] for seg in rt._segments]
            second = rt.run(values[100:])
            names_after_second = [seg.layout["name"] for seg in rt._segments]
        assert names_after_first == names_after_second
        np.testing.assert_array_equal(second.served, reference.served[100:])
        np.testing.assert_array_equal(second.sent, reference.sent[100:])


class TestShmCrashRecovery:
    def test_worker_death_resumes_bitwise_from_committed_state(self, tmp_path):
        """A retried chunk re-reads the committed snapshot, not torn state."""
        models = _models(8)
        deltas = np.full(8, 0.8)
        values = _values(models, 240)
        reference = FleetEngine(models, deltas).run(values)
        with ShardedFleetRuntime(
            models,
            deltas,
            n_shards=4,
            executor="serial",
            transport="shm",
            chunk_ticks=60,
        ) as rt:
            rt.fail_marker = str(tmp_path / "die-once")
            trace = rt.run(values)
        np.testing.assert_array_equal(trace.served, reference.served)
        np.testing.assert_array_equal(trace.sent, reference.sent)
        assert rt.total_respawns == 1

    def test_process_worker_death_with_shm(self, tmp_path):
        models = _models(4)
        deltas = np.full(4, 0.8)
        values = _values(models, 80)
        reference = FleetEngine(models, deltas).run(values)
        with ShardedFleetRuntime(
            models,
            deltas,
            n_shards=2,
            executor="process",
            max_workers=2,
            transport="shm",
        ) as rt:
            rt.fail_marker = str(tmp_path / "die-once")
            trace = rt.run(values)
        np.testing.assert_array_equal(trace.served, reference.served)
        assert rt.total_respawns == 1


class TestBytesShipped:
    #: Generous ceiling for one dispatch's pickled header (token, layout
    #: field map, a few scalars) plus the telemetry tuple coming back.
    HEADER_BYTES_MAX = 2048

    def _shipped(self, n_streams, n_ticks, chunk_ticks=None):
        """``(total bytes, dispatches)`` of one telemetered serial run."""
        models = _models(n_streams)
        deltas = _deltas(models)
        values = _values(models, n_ticks)
        tel = Telemetry()
        with ShardedFleetRuntime(
            models,
            deltas,
            n_shards=2,
            executor="serial",
            chunk_ticks=chunk_ticks,
            telemetry=tel,
        ) as rt:
            rt.run(values)
        families = {f.name: f for f in tel.metrics.families()}
        family = families["repro_shard_bytes_shipped_total"]
        total = 0.0
        for key, metric in family.instances.items():
            assert set(dict(key)) == {"shard"}
            assert dict(key)["shard"] in {"0", "1"}
            total += metric.value
        chunks = -(-n_ticks // (chunk_ticks or n_ticks))
        return total, 2 * chunks

    def test_counter_labeled_and_bounded_by_a_header_per_dispatch(self):
        shipped, dispatches = self._shipped(8, 200)
        assert dispatches == 2
        assert 0 < shipped <= dispatches * self.HEADER_BYTES_MAX

    def test_bytes_shipped_independent_of_fleet_size(self):
        """16x the streams and 4x the ticks ship the same header bytes —
        the arrays (which grew 64x) never touch the pipe."""
        small, _ = self._shipped(8, 50)
        large, _ = self._shipped(128, 200)
        assert large <= small + 64  # a few more digits in layout offsets
        assert large <= 2 * self.HEADER_BYTES_MAX

    def test_bytes_shipped_scale_with_dispatches_only(self):
        shipped, dispatches = self._shipped(8, 200, chunk_ticks=17)
        assert dispatches == 2 * 12
        assert shipped <= dispatches * self.HEADER_BYTES_MAX


class TestHygiene:
    @pytest.mark.parametrize("transport", ["carrier-pigeon", "pickle"])
    def test_transport_validation(self, transport):
        models = _models(4)
        with pytest.raises(ConfigurationError, match=transport):
            ShardedFleetRuntime(models, np.ones(4), transport=transport)

    def test_thread_executor_refused(self):
        models = _models(4)
        with pytest.raises(ConfigurationError, match="thread"):
            ShardedFleetRuntime(models, np.ones(4), executor="thread")

    def test_health_report_names_transport(self):
        models = _models(4)
        with ShardedFleetRuntime(
            models, np.ones(4), n_shards=2, executor="serial", transport="shm"
        ) as rt:
            rt.run(_values(models, 40))
        report = rt.health_report()
        assert report["transport"] == "shm"
        assert "kernel" not in report  # one kernel, nothing to report

    def test_close_unlinks_segments_and_clears_registries(self):
        models = _models(6)
        deltas = _deltas(models)
        rt = ShardedFleetRuntime(
            models, deltas, n_shards=3, executor="serial", transport="shm"
        )
        token = rt._token
        rt.run(_values(models, 60))
        names = [seg.layout["name"] for seg in rt._segments]
        assert len(names) == 3
        rt.close()
        assert all(seg is None for seg in rt._segments)
        for k in range(3):
            assert (token, k) not in runtime_mod._ENGINE_REGISTRY
            assert (token, k) not in runtime_mod._WORKER_SEGMENTS
        from multiprocessing import shared_memory

        for name in names:
            with pytest.raises(FileNotFoundError):
                shared_memory.SharedMemory(name=name)
