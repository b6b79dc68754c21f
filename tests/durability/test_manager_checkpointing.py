"""run_dynamic with durable checkpoints: bitwise resume on all backends,
honest ``recovered`` accounting, and the crash-recovery acceptance gate."""

import numpy as np
import pytest

from repro.core.manager import ManagedStream, StreamResourceManager
from repro.durability import CheckpointStore
from repro.errors import ConfigurationError, RecoveryError
from repro.faults import CrashPoint, SimulatedCrash, flip_payload_bit
from repro.kalman.models import random_walk
from repro.obs.telemetry import Telemetry
from repro.obs import tracing
from repro.streams.replay import record
from repro.streams.synthetic import RandomWalkStream

BACKENDS = ["scalar", "batch", "sharded"]


def _fleet(n=3, total=3300):
    fleet = []
    for i in range(n):
        sigma = 0.3 * (i + 1)
        stream = RandomWalkStream(
            step_sigma=sigma, measurement_sigma=0.1 * sigma, seed=70 + i
        )
        fleet.append(
            ManagedStream(
                stream_id=f"s{i}",
                recording=record(stream, total),
                model=random_walk(
                    process_noise=sigma**2, measurement_sigma=0.1 * sigma
                ),
            )
        )
    return fleet


def _manager(backend, telemetry=None, **kw):
    kw.setdefault("probe_ticks", 500)
    if backend == "sharded":
        kw.setdefault("n_shards", 2)
    return StreamResourceManager(
        _fleet(), backend=backend, telemetry=telemetry, **kw
    )


def _epoch_key(e):
    """Everything an epoch reports, as comparable bitwise values."""
    return (
        e.epoch,
        e.messages,
        e.ticks,
        e.deltas.tobytes(),
        e.mean_abs_errors.tobytes(),
    )


def _run(backend, store=None, resume=False, telemetry=None, every=2):
    manager = _manager(backend, telemetry=telemetry)
    return manager.run_dynamic(
        0.3,
        epoch_ticks=400,
        checkpoint_store=store,
        checkpoint_every=every,
        resume=resume,
    )


class TestCheckpointWrites:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_checkpoints_committed_every_k_epochs(self, tmp_path, backend):
        store = CheckpointStore(tmp_path / "ckpt", retain=10, fsync=False)
        result = _run(backend, store=store)
        n_epochs = len(result.epochs)
        gens = store.generations()
        assert len(gens) == n_epochs // 2  # checkpoint_every=2
        assert [g.meta["next_epoch"] for g in gens] == [2, 4, 6][: len(gens)]
        assert all(g.meta["backend"] == backend for g in gens)

    def test_checkpointing_does_not_change_results(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", fsync=False)
        plain = _run("batch")
        checkpointed = _run("batch", store=store)
        assert list(map(_epoch_key, plain.epochs)) == list(
            map(_epoch_key, checkpointed.epochs)
        )

    def test_telemetry_counts_writes(self, tmp_path):
        tel = Telemetry()
        store = CheckpointStore(tmp_path / "ckpt", retain=10, fsync=False)
        _run("batch", store=store, telemetry=tel)
        writes = tel.tracer.events(tracing.CHECKPOINT_WRITE)
        assert len(writes) == len(store.generations())
        assert tel.metrics.value("repro_checkpoint_writes_total") == len(writes)


class TestResume:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_resume_is_bitwise_equal(self, tmp_path, backend):
        store = CheckpointStore(tmp_path / "ckpt", retain=10, fsync=False)
        reference = _run(backend, store=store)
        resumed = _run(backend, store=store, resume=True)
        last = store.generations()[-1].meta["next_epoch"]
        assert resumed.resumed_from_epoch == last
        tail = [e for e in reference.epochs if e.epoch >= last]
        assert list(map(_epoch_key, resumed.epochs)) == list(map(_epoch_key, tail))
        assert all(not e.recovered for e in resumed.epochs)

    def test_legacy_scalar_checkpoint_is_refused(self, tmp_path):
        """Scalar checkpoints written before the reference engine existed
        keep their per-policy snapshots in a top-level ``"policies"`` dict
        (no ``"engine"`` entry). They are refused, not migrated: recovery
        falls back past them, and a store of nothing else fails."""
        store = CheckpointStore(tmp_path / "ckpt", retain=10, fsync=False)
        reference = _run("scalar", store=store)
        generations = store.generations()
        legacy = CheckpointStore(tmp_path / "legacy", retain=10, fsync=False)
        mixed = CheckpointStore(tmp_path / "mixed", retain=10, fsync=False)
        for info in generations:
            payload = store.read(info)
            snapshots = payload.pop("engine")["policies"]
            payload["policies"] = dict(zip(payload["stream_ids"], snapshots))
            legacy.save(payload, tick=info.tick, meta=info.meta)
            kept = payload if info is generations[-1] else store.read(info)
            mixed.save(kept, tick=info.tick, meta=info.meta)

        with pytest.raises(RecoveryError) as err:
            _run("scalar", store=legacy, resume=True)
        attempts = err.value.report.attempts
        assert len(attempts) == len(generations)
        assert all("CheckpointError" in a.error for a in attempts)
        assert all("'engine'" in a.error for a in attempts)

        # The newest generation is legacy; the dense one under it resumes.
        resumed = _run("scalar", store=mixed, resume=True)
        assert resumed.recovery.fallbacks == 1
        assert "'engine'" in resumed.recovery.attempts[0].error
        last = generations[-1].meta["next_epoch"]
        assert resumed.resumed_from_epoch == generations[-2].meta["next_epoch"]
        tail = [e for e in reference.epochs if e.epoch >= resumed.resumed_from_epoch]
        assert list(map(_epoch_key, resumed.epochs)) == list(map(_epoch_key, tail))
        assert [e.recovered for e in resumed.epochs] == [
            e.epoch < last for e in resumed.epochs
        ]

    def test_resume_from_empty_store_is_cold_start(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", fsync=False)
        result = _run("batch", store=store, resume=True)
        assert result.resumed_from_epoch == 0
        assert result.recovery.generation is None
        assert [e.epoch for e in result.epochs] == list(range(len(result.epochs)))

    def test_resume_requires_store(self):
        with pytest.raises(ConfigurationError, match="resume"):
            _manager("batch").run_dynamic(0.3, epoch_ticks=400, resume=True)

    def test_adaptive_fleet_refused(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", fsync=False)
        manager = StreamResourceManager(
            _fleet(), probe_ticks=500, adaptive=True
        )
        with pytest.raises(ConfigurationError, match="adaptive"):
            manager.run_dynamic(0.3, epoch_ticks=400, checkpoint_store=store)

    def test_bad_checkpoint_every_rejected(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", fsync=False)
        with pytest.raises(ConfigurationError, match="checkpoint_every"):
            _run("batch", store=store, every=0)


@pytest.mark.chaos
class TestCrashRecoveryGate:
    """The acceptance scenario: kill the writer mid-checkpoint, corrupt
    the newest surviving generation, and demand a verified fallback with
    a bitwise-equal continuation."""

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_torn_write_plus_corruption_falls_back_bitwise(
        self, tmp_path, backend
    ):
        reference = _run(backend)

        # Run again, killing the process during the third checkpoint write
        # (epochs 0-3 complete, gens 1-2 committed, gen-3 torn).
        store = CheckpointStore(
            tmp_path / "ckpt",
            retain=10,
            fsync=False,
            crash_hook=CrashPoint("payload_partial", after=2),
        )
        with pytest.raises(SimulatedCrash):
            _run(backend, store=store)
        committed, orphans = store.inspect()
        assert [g.generation for g in committed] == [1, 2]
        assert len(orphans) == 1

        # Vandalize the newest committed generation too.
        flip_payload_bit(committed[-1])

        # Recovery must refuse gen-2, fall back to gen-1, and continue
        # bitwise-equal to the uninterrupted reference.
        tel = Telemetry()
        reopened = CheckpointStore(tmp_path / "ckpt", retain=10, fsync=False)
        resumed = _run(backend, store=reopened, resume=True, telemetry=tel)

        assert resumed.recovery.generation == 1
        assert resumed.recovery.fallbacks == 1
        assert resumed.resumed_from_epoch == 2
        tail = [e for e in reference.epochs if e.epoch >= 2]
        assert list(map(_epoch_key, resumed.epochs)) == list(map(_epoch_key, tail))

        # Honest accounting: epochs up to the lost generation's horizon
        # were re-computed after the fallback.
        recovered_flags = [(e.epoch, e.recovered) for e in resumed.epochs]
        assert recovered_flags[:2] == [(2, True), (3, True)]
        assert all(not rec for _, rec in recovered_flags[2:])
        assert len(tel.tracer.events(tracing.RECOVERY_FALLBACK)) == 1

    def test_all_generations_corrupt_raises(self, tmp_path):
        store = CheckpointStore(tmp_path / "ckpt", retain=10, fsync=False)
        _run("batch", store=store)
        for info in store.generations():
            flip_payload_bit(info)
        with pytest.raises(RecoveryError):
            _run("batch", store=store, resume=True)

    def test_mismatched_backend_checkpoint_falls_back(self, tmp_path):
        """A checkpoint written by another backend fails rehydration and
        the recoverer walks back to one this backend can use."""
        store = CheckpointStore(tmp_path / "ckpt", retain=10, fsync=False)
        _run("batch", store=store)
        _manager("scalar").run_dynamic(
            0.3, epoch_ticks=400, checkpoint_store=store, checkpoint_every=6
        )
        newest = store.generations()[-1]
        assert newest.meta["backend"] == "scalar"
        resumed = _run("batch", store=store, resume=True)
        assert resumed.recovery.fallbacks >= 1
        assert resumed.recovery.attempts[0].failed_stage == "rehydrating"
