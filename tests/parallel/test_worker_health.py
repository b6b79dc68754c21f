"""Worker supervision: death, respawn, exact resume, honest accounting.

Workers are stateless — the coordinator owns every shard's engine state
between dispatches — so a dead worker is survivable by construction: the
in-flight chunk is re-dispatched from the last committed snapshot.  These
tests inject a one-shot fault via the runtime's ``fail_marker`` hook and
pin three promises: the merged output is still bitwise-equal to the
unsharded reference, the degraded gap is reported honestly
(``respawns``/``recomputed_ticks``), and a shard that keeps dying
exhausts its respawn budget with :class:`~repro.errors.ShardingError`
instead of looping forever.
"""

import numpy as np
import pytest

from repro.core.manager import FleetEngine
from repro.errors import ShardingError
from repro.kalman.models import random_walk
from repro.obs import tracing
from repro.obs.telemetry import Telemetry
from repro.parallel import ShardedFleetRuntime


def _models(n):
    return [random_walk(process_noise=0.1 + 0.05 * i) for i in range(n)]


def _values(models, n_ticks, seed=3):
    rng = np.random.default_rng(seed)
    values = np.cumsum(rng.normal(0, 0.4, size=(n_ticks, len(models), 1)), axis=0)
    return values + rng.normal(0, 0.1, size=values.shape)


class TestRespawn:
    def test_one_shot_death_is_survived_bitwise(self, tmp_path):
        models = _models(8)
        deltas = np.full(8, 0.8)
        values = _values(models, 240)
        reference = FleetEngine(models, deltas).run(values)
        with ShardedFleetRuntime(
            models, deltas, n_shards=4, executor="serial", chunk_ticks=60
        ) as rt:
            rt.fail_marker = str(tmp_path / "die-once")
            trace = rt.run(values)
        np.testing.assert_array_equal(trace.served, reference.served)
        np.testing.assert_array_equal(trace.sent, reference.sent)
        assert rt.total_respawns == 1

    def test_degraded_gap_accounted_honestly(self, tmp_path):
        models = _models(6)
        values = _values(models, 200)
        with ShardedFleetRuntime(
            models, np.full(6, 0.8), n_shards=3, executor="serial", chunk_ticks=50
        ) as rt:
            rt.fail_marker = str(tmp_path / "die-once")
            rt.run(values)
        report = rt.health_report()
        assert report["total_respawns"] == 1
        hurt = [s for s in report["shards"] if s["respawns"]]
        assert len(hurt) == 1
        # The whole in-flight chunk had to be re-run from the last
        # committed state: that is the honest bound on how long the
        # shard's served bounds were stale.
        assert hurt[0]["recomputed_ticks"] == 50
        fine = [s for s in report["shards"] if not s["respawns"]]
        assert all(s["recomputed_ticks"] == 0 for s in fine)

    def test_respawn_emits_event_and_counter(self, tmp_path):
        tel = Telemetry()
        models = _models(4)
        values = _values(models, 120)
        with ShardedFleetRuntime(
            models,
            np.full(4, 0.8),
            n_shards=2,
            executor="serial",
            telemetry=tel,
        ) as rt:
            rt.fail_marker = str(tmp_path / "die-once")
            rt.run(values)
        events = tel.tracer.events(tracing.WORKER_RESPAWN)
        assert len(events) == 1
        assert dict(events[0].fields)["lost_ticks"] == 120
        families = {f.name: f for f in tel.metrics.families()}
        assert "repro_worker_respawns_total" in families

    def test_persistent_death_exhausts_budget(self, tmp_path):
        """A shard that dies on every attempt raises, never spins."""
        models = _models(4)
        values = _values(models, 60)

        with ShardedFleetRuntime(
            models, np.full(4, 0.8), n_shards=2, executor="serial", max_respawns=2
        ) as rt:
            # Point inside a directory that does not exist: the worker can
            # never create the marker file, so it dies on every dispatch.
            rt.fail_marker = str(tmp_path / "no-such-dir" / "marker")
            with pytest.raises(ShardingError, match="budget"):
                rt.run(values)
        assert rt.health[0].respawns == 3  # initial try + 2 respawns, all fatal

    def test_healthy_run_reports_clean(self):
        models = _models(5)
        with ShardedFleetRuntime(
            models, np.full(5, 0.8), n_shards=2, executor="serial"
        ) as rt:
            rt.run(_values(models, 100))
        assert rt.total_respawns == 0
        assert all(s["recomputed_ticks"] == 0 for s in rt.health_report()["shards"])


class TestProcessPool:
    """One small end-to-end check on real OS processes.

    Kept tiny: pool start-up dominates, and the serial suites
    already exercise the identical dispatch/merge/resume code paths.
    """

    def test_process_executor_bitwise_equal(self):
        models = _models(6)
        deltas = np.full(6, 0.8)
        values = _values(models, 120)
        reference = FleetEngine(models, deltas).run(values)
        with ShardedFleetRuntime(
            models, deltas, n_shards=2, executor="process", max_workers=2
        ) as rt:
            trace = rt.run(values)
        np.testing.assert_array_equal(trace.served, reference.served)
        np.testing.assert_array_equal(trace.sent, reference.sent)

    def test_process_worker_death_respawns(self, tmp_path):
        models = _models(4)
        deltas = np.full(4, 0.8)
        values = _values(models, 80)
        reference = FleetEngine(models, deltas).run(values)
        with ShardedFleetRuntime(
            models, deltas, n_shards=2, executor="process", max_workers=2
        ) as rt:
            rt.fail_marker = str(tmp_path / "die-once")
            trace = rt.run(values)
        np.testing.assert_array_equal(trace.served, reference.served)
        assert rt.total_respawns == 1
