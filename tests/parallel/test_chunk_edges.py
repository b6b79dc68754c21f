"""Chunked-dispatch edge cases: degenerate chunk sizes and partial tails.

``chunk_ticks`` trades round-trips for staleness bound; its edges are
where resume bugs live.  Pinned here, for every transport kind: a chunk of one
tick (maximum round-trips, state re-shipped every tick), a chunk larger
than the window (single dispatch, the clamp path), a window that leaves
a short partial tail chunk, and a worker that dies *on* that final
partial chunk (retry must re-read the committed state for a chunk whose
shape differs from every earlier one).  All bitwise-equal to the
single-engine batch reference.
"""

import numpy as np
import pytest

from repro.core.manager import FleetEngine
from repro.kalman.models import constant_velocity, random_walk
from repro.parallel import TRANSPORT_KINDS, ShardedFleetRuntime


def _models(n):
    out = []
    for i in range(n):
        if i % 2 == 0:
            out.append(random_walk(process_noise=0.15 + 0.05 * i))
        else:
            out.append(
                constant_velocity(process_noise=0.05, measurement_sigma=0.4)
            )
    return out


def _values(models, n_ticks, seed=7):
    rng = np.random.default_rng(seed)
    dim_z_max = max(m.dim_z for m in models)
    values = np.full((n_ticks, len(models), dim_z_max), np.nan)
    for k, m in enumerate(models):
        walk = np.cumsum(rng.normal(0, 0.5, size=(n_ticks, m.dim_z)), axis=0)
        values[:, k, : m.dim_z] = walk
    values[rng.random((n_ticks, len(models))) < 0.04] = np.nan
    return values


def _reference(models, deltas, values):
    return FleetEngine(models, deltas).run(values)


@pytest.mark.parametrize("transport", TRANSPORT_KINDS)
class TestChunkEdges:
    def test_chunk_of_one_tick(self, transport):
        """One dispatch per tick: state survives maximal re-shipping."""
        models = _models(6)
        deltas = np.full(6, 0.7)
        values = _values(models, 40)
        reference = _reference(models, deltas, values)
        with ShardedFleetRuntime(
            models,
            deltas,
            n_shards=3,
            executor="serial",
            transport=transport,
            chunk_ticks=1,
        ) as rt:
            trace = rt.run(values)
        np.testing.assert_array_equal(trace.served, reference.served)
        np.testing.assert_array_equal(trace.sent, reference.sent)

    def test_chunk_larger_than_window(self, transport):
        """chunk_ticks > n_ticks clamps to one whole-window dispatch."""
        models = _models(6)
        deltas = np.full(6, 0.7)
        values = _values(models, 50)
        reference = _reference(models, deltas, values)
        with ShardedFleetRuntime(
            models,
            deltas,
            n_shards=2,
            executor="serial",
            transport=transport,
            chunk_ticks=10_000,
        ) as rt:
            trace = rt.run(values)
        np.testing.assert_array_equal(trace.served, reference.served)
        np.testing.assert_array_equal(trace.sent, reference.sent)

    def test_partial_tail_chunk(self, transport):
        """A window that does not divide evenly ends on a short chunk."""
        models = _models(5)
        deltas = np.full(5, 0.9)
        values = _values(models, 130)  # chunks of 60, 60, 10
        reference = _reference(models, deltas, values)
        with ShardedFleetRuntime(
            models,
            deltas,
            n_shards=2,
            executor="serial",
            transport=transport,
            chunk_ticks=60,
        ) as rt:
            trace = rt.run(values)
        np.testing.assert_array_equal(trace.served, reference.served)
        np.testing.assert_array_equal(trace.sent, reference.sent)

    def test_worker_death_on_final_partial_chunk(self, transport, tmp_path):
        """Dying on the short tail chunk still resumes bitwise.

        The retry re-reads committed state for a chunk whose tick count
        differs from every earlier dispatch — the shape-edge most likely
        to expose a stale-buffer bug in the in-place result path.
        """
        models = _models(6)
        deltas = np.full(6, 0.8)
        values = _values(models, 130)  # chunks of 60, 60, 10 — die on #2
        reference = _reference(models, deltas, values)
        with ShardedFleetRuntime(
            models,
            deltas,
            n_shards=3,
            executor="serial",
            transport=transport,
            chunk_ticks=60,
        ) as rt:
            rt.fail_marker = str(tmp_path / f"die-once-{transport}")
            rt.fail_marker_chunk = 2
            trace = rt.run(values)
        np.testing.assert_array_equal(trace.served, reference.served)
        np.testing.assert_array_equal(trace.sent, reference.sent)
        assert rt.total_respawns == 1
        hurt = [s for s in rt.health_report()["shards"] if s["respawns"]]
        assert len(hurt) == 1
        assert hurt[0]["recomputed_ticks"] == 10
