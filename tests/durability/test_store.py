"""CheckpointStore: atomic commits, verification, retention."""

import json

import numpy as np
import pytest

from repro.durability import CheckpointStore
from repro.errors import CheckpointCorruptError, CheckpointError, ConfigurationError
from repro.faults import (
    bump_schema_version,
    delete_manifest,
    flip_payload_bit,
    stale_manifest,
    truncate_payload,
)


def _store(tmp_path, **kw):
    kw.setdefault("fsync", False)  # durability is the OS's problem in unit tests
    return CheckpointStore(tmp_path / "ckpt", **kw)


def _payload(seed=0):
    rng = np.random.default_rng(seed)
    return {"x": [rng.standard_normal(3)], "P": [rng.standard_normal((3, 3))], "ticks": seed}


class TestSaveAndRead:
    def test_round_trip_bitwise(self, tmp_path):
        store = _store(tmp_path)
        payload = _payload(3)
        info = store.save(payload, tick=30, meta={"next_epoch": 2})
        back = store.read(info)
        np.testing.assert_array_equal(
            back["x"][0].view(np.uint8), payload["x"][0].view(np.uint8)
        )
        np.testing.assert_array_equal(
            back["P"][0].view(np.uint8), payload["P"][0].view(np.uint8)
        )
        assert back["ticks"] == 3
        assert info.tick == 30
        assert info.meta == {"next_epoch": 2}

    def test_generations_ascend(self, tmp_path):
        store = _store(tmp_path)
        for i in range(3):
            store.save(_payload(i), tick=i)
        gens = store.generations()
        assert [g.generation for g in gens] == [1, 2, 3]
        assert store.latest().generation == 3

    def test_latest_on_empty_store(self, tmp_path):
        assert _store(tmp_path).latest() is None

    def test_reopen_continues_numbering(self, tmp_path):
        _store(tmp_path).save(_payload())
        store2 = _store(tmp_path)  # a restarted process reopening the directory
        info = store2.save(_payload(1))
        assert info.generation == 2

    def test_manifest_is_human_readable_json(self, tmp_path):
        info = _store(tmp_path).save(_payload(), tick=7)
        manifest = json.loads((info.path / "manifest.json").read_text())
        assert manifest["tick"] == 7
        assert manifest["schema_version"] == CheckpointStore.SCHEMA_VERSION
        assert len(manifest["payload_sha256"]) == 64

    def test_non_dict_payload_rejected(self, tmp_path):
        with pytest.raises(CheckpointError, match="dict"):
            _store(tmp_path).save([1, 2, 3])

    def test_bad_retain_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError):
            _store(tmp_path, retain=0)

    def test_fractional_retain_rejected_up_front(self, tmp_path):
        # Accepted, it would commit every generation and then fail in
        # pruning, so retention would never run.
        with pytest.raises(ConfigurationError, match="retain"):
            _store(tmp_path, retain=2.5)
        assert not (tmp_path / "ckpt").exists()

    @pytest.mark.parametrize("tick", [float("nan"), float("inf"), 2.5, "3", None])
    def test_bad_tick_rejected_before_anything_is_written(self, tmp_path, tick):
        store = _store(tmp_path)
        store.save(_payload(0), tick=1)
        with pytest.raises(CheckpointError, match="tick"):
            store.save(_payload(1), tick=tick)
        assert [p.name for p in store.root.iterdir()] == ["gen-00000001"]
        assert store.save(_payload(2), tick=2).generation == 2


class TestVerification:
    def test_bit_flip_detected(self, tmp_path):
        store = _store(tmp_path)
        info = store.save(_payload())
        flip_payload_bit(info, byte_offset=10)
        with pytest.raises(CheckpointCorruptError, match="SHA-256"):
            store.read(info)

    def test_truncation_detected(self, tmp_path):
        store = _store(tmp_path)
        info = store.save(_payload())
        truncate_payload(info)
        with pytest.raises(CheckpointCorruptError, match="bytes"):
            store.read(info)

    def test_missing_payload_detected(self, tmp_path):
        store = _store(tmp_path)
        info = store.save(_payload())
        info.payload_path.unlink()
        with pytest.raises(CheckpointCorruptError, match="unreadable"):
            store.read(info)

    def test_schema_version_mismatch_detected(self, tmp_path):
        store = _store(tmp_path)
        info = store.save(_payload())
        bump_schema_version(info)
        (stale,) = store.generations()
        with pytest.raises(CheckpointCorruptError, match="schema version"):
            store.read(stale)

    def test_stale_manifest_detected(self, tmp_path):
        store = _store(tmp_path)
        a = store.save(_payload(0))
        b = store.save(_payload(1))
        stale_manifest(b, donor=a)
        newest = store.generations()[-1]
        with pytest.raises(CheckpointCorruptError):
            store.read(newest)

    def test_deleted_manifest_demotes_to_orphan(self, tmp_path):
        store = _store(tmp_path)
        info = store.save(_payload())
        delete_manifest(info)
        committed, orphans = store.inspect()
        assert committed == []
        assert [p.name for p in orphans] == [info.path.name]


class TestRetention:
    def test_prune_keeps_last_k(self, tmp_path):
        store = _store(tmp_path, retain=2)
        for i in range(5):
            store.save(_payload(i))
        assert [g.generation for g in store.generations()] == [4, 5]

    def test_retained_generations_still_readable(self, tmp_path):
        store = _store(tmp_path, retain=2)
        payloads = [_payload(i) for i in range(4)]
        for i, p in enumerate(payloads):
            store.save(p, tick=i)
        for info in store.generations():
            back = store.read(info)
            np.testing.assert_array_equal(
                back["x"][0], payloads[info.generation - 1]["x"][0]
            )

    def test_stale_orphans_pruned_fresh_kept(self, tmp_path):
        store = _store(tmp_path, retain=3)
        a = store.save(_payload(0))
        delete_manifest(a)  # now an orphan older than any future commit
        store.save(_payload(1))
        committed, orphans = store.inspect()
        assert [g.generation for g in committed] == [2]
        assert orphans == []  # the stale orphan was cleaned up by the save
