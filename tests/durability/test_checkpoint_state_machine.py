"""CheckpointStore + recover_engine against a plain in-memory model.

A hypothesis state machine steps a small mixed-``dim_x`` ``FleetEngine``,
checkpoints its dense snapshot, vandalises committed generations
(payload bit flips, truncations and deletions; manifest checksum flips,
truncations and deletions), tears writes at every crash point, reopens
the store under a new ``retain`` and recovers into fresh engines.  The
model is one record per generation directory: the encoded snapshot that
was saved, whether the manifest still commits it and whether its bytes
still verify.  After every step:

* the store's committed generations and orphans are exactly the model's;
* a save prunes down to the newest ``retain`` commits and clears every
  orphan older than the newest commit, unless the writer died first.

And every recovery swaps in the newest generation that is committed and
intact, bitwise as it was saved — a torn or vandalised generation never
surfaces, a store with commits but nothing intact raises
``RecoveryError`` with the live engine untouched, and an empty store is
a cold start.

Only public API is used.
"""

from __future__ import annotations

import shutil
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.core.manager import FleetEngine
from repro.durability import (
    CRASH_POINTS,
    CheckpointStore,
    checkpoint_engine,
    dumps_payload,
    recover_engine,
)
from repro.errors import RecoveryError
from repro.faults import (
    CrashPoint,
    SimulatedCrash,
    delete_manifest,
    flip_payload_bit,
    truncate_payload,
)
from repro.kalman.models import constant_velocity, planar, random_walk

MODELS = [
    random_walk(process_noise=0.3, measurement_sigma=0.2),
    constant_velocity(process_noise=0.05, measurement_sigma=0.4),
    planar(constant_velocity(process_noise=0.1)),
]
DELTAS = np.array([0.4, 0.7, 1.1])
KIND = "fleet"
EXPECT = {"n": len(MODELS)}


def _engine() -> FleetEngine:
    return FleetEngine(MODELS, DELTAS)


def _encoded(engine: FleetEngine) -> bytes:
    return dumps_payload(engine.state_snapshot())


def _flip_manifest_checksum(info) -> None:
    """Change one hex digit of the manifest's SHA-256: it still parses."""
    path = info.path / "manifest.json"
    text = path.read_text()
    digit = info.payload_sha256[0]
    swapped = "1" if digit == "0" else "0"
    path.write_text(text.replace(info.payload_sha256, swapped + info.payload_sha256[1:]))


def _truncate_manifest(info) -> None:
    """Cut the manifest in half: it no longer parses, so it commits nothing."""
    path = info.path / "manifest.json"
    data = path.read_bytes()
    path.write_bytes(data[: len(data) // 2])


class CheckpointMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="checkpoint-machine-"))
        self.retain = 2
        self.store = CheckpointStore(self.dir, retain=self.retain, fsync=False)
        self.engine = _engine()
        self.rng = np.random.default_rng(0)
        self.cold = _encoded(_engine())
        # generation -> {"state", "info", "committed", "intact"}; one entry
        # per gen-* directory on disk.
        self.gens: dict[int, dict] = {}
        self.next_gen = 1

    def teardown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def _committed(self) -> list[int]:
        return sorted(g for g, rec in self.gens.items() if rec["committed"])

    def _vandalisable(self) -> list[int]:
        return [g for g in self._committed() if self.gens[g]["intact"]]

    def _record(self, info, state: bytes) -> None:
        assert info.generation == self.next_gen
        self.gens[info.generation] = {
            "state": state, "info": info, "committed": True, "intact": True
        }
        self.next_gen += 1

    # -- rules ---------------------------------------------------------
    @rule(ticks=st.integers(1, 4), dropped=st.floats(0.0, 0.5))
    def step(self, ticks, dropped):
        values = np.full((ticks, len(MODELS), 2), np.nan)
        for k, m in enumerate(MODELS):
            values[:, k, : m.dim_z] = self.rng.normal(0, 1.0, size=(ticks, m.dim_z))
        values[self.rng.random((ticks, len(MODELS))) < dropped] = np.nan
        self.engine.run(values)

    @rule()
    def save(self):
        state = _encoded(self.engine)
        info = checkpoint_engine(
            self.store, self.engine, kind=KIND, tick=self.engine.ticks, fields=EXPECT
        )
        self._record(info, state)
        committed = self._committed()
        for g in committed[: -self.retain]:
            del self.gens[g]
        for g in [g for g, rec in self.gens.items() if not rec["committed"]]:
            if g < info.generation:
                del self.gens[g]

    @rule(point=st.sampled_from(CRASH_POINTS))
    def torn_save(self, point):
        state = _encoded(self.engine)
        self.store.crash_hook = CrashPoint(point)
        try:
            with pytest.raises(SimulatedCrash):
                checkpoint_engine(
                    self.store, self.engine, kind=KIND, tick=self.engine.ticks,
                    fields=EXPECT,
                )
        finally:
            self.store.crash_hook = None
        generation = self.next_gen
        self.next_gen += 1
        # Killed at "committed", the manifest is in place but nothing was
        # pruned; at any earlier point the directory is an orphan.
        self.gens[generation] = {
            "state": state,
            "info": None,
            "committed": point == "committed",
            "intact": point == "committed",
        }
        if point == "committed":
            self.gens[generation]["info"] = self.store.latest()

    @precondition(lambda self: self._vandalisable())
    @rule(data=st.data(), how=st.sampled_from(["flip", "truncate", "delete"]))
    def vandalise_payload(self, data, how):
        gen = data.draw(st.sampled_from(self._vandalisable()))
        info = self.gens[gen]["info"]
        if how == "flip":
            offset = data.draw(st.integers(0, info.payload_bytes - 1))
            flip_payload_bit(info, byte_offset=offset, bit=data.draw(st.integers(0, 7)))
        elif how == "truncate":
            truncate_payload(info, keep_fraction=data.draw(st.floats(0.0, 0.99)))
        else:
            info.payload_path.unlink()
        self.gens[gen]["intact"] = False

    @precondition(lambda self: self._vandalisable())
    @rule(data=st.data(), how=st.sampled_from(["checksum", "truncate", "delete"]))
    def vandalise_manifest(self, data, how):
        gen = data.draw(st.sampled_from(self._vandalisable()))
        info = self.gens[gen]["info"]
        if how == "checksum":
            _flip_manifest_checksum(info)
        else:
            (_truncate_manifest if how == "truncate" else delete_manifest)(info)
            self.gens[gen]["committed"] = False
        self.gens[gen]["intact"] = False

    @rule(retain=st.integers(1, 4))
    def reopen(self, retain):
        """A restarted writer; pruning under the new ``retain`` waits for a save."""
        self.retain = retain
        self.store = CheckpointStore(self.dir, retain=retain, fsync=False)

    @rule(resume=st.booleans())
    def recover(self, resume):
        fresh = _engine()
        committed = self._committed()
        intact = [g for g in committed if self.gens[g]["intact"]]
        if committed and not intact:
            with pytest.raises(RecoveryError):
                recover_engine(self.store, fresh, _engine, kind=KIND, expect=EXPECT)
            assert _encoded(fresh) == self.cold
            return
        report, _ = recover_engine(self.store, fresh, _engine, kind=KIND, expect=EXPECT)
        if not committed:
            assert report.generation is None
            assert _encoded(fresh) == self.cold
            return
        newest = intact[-1]
        assert report.generation == newest
        assert [a.generation for a in report.attempts] == [
            g for g in reversed(committed) if g >= newest
        ]
        assert _encoded(fresh) == self.gens[newest]["state"]
        if resume:
            self.engine = fresh

    # -- invariants ----------------------------------------------------
    @invariant()
    def disk_matches_model(self):
        committed, orphans = self.store.inspect()
        assert [info.generation for info in committed] == self._committed()
        assert sorted(int(p.name.split("-")[1]) for p in orphans) == sorted(
            g for g, rec in self.gens.items() if not rec["committed"]
        )


CheckpointMachine.TestCase.settings = settings(
    max_examples=30, stateful_step_count=25, deadline=None
)
TestCheckpointMachine = CheckpointMachine.TestCase
