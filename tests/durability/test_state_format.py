"""The one fleet state layout, at its boundary.

``FleetEngine`` and ``ShardedFleetRuntime`` snapshot the same dense
arrays: ``x (N, dim_x_max)`` and ``P (N, dim_x_max, dim_x_max)``,
zero-padded past each stream's ``dim_x``, plus five ``(N,)`` accounting
vectors and ``ticks``.  The older per-stream layout (one unpadded ``x``
and ``P`` array per stream) is refused, not migrated: by both engines,
before anything moves, and by recovery with that diagnosis.  A fleet
mixing ``dim_x`` 1, 2 and 4 round-trips bitwise through the codec and
across backends.
"""

import numpy as np
import pytest

from repro.core.manager import FleetEngine
from repro.durability import (
    CheckpointStore,
    checkpoint_engine,
    dumps_payload,
    loads_payload,
    recover_engine,
)
from repro.errors import ConfigurationError, RecoveryError
from repro.kalman.models import constant_velocity, planar, random_walk
from repro.parallel import ShardedFleetRuntime

#: dim_x 1, 2, 4, 2, 1 (dim_z 1, 1, 2, 1, 1).
MODELS = [
    random_walk(process_noise=0.3, measurement_sigma=0.2),
    constant_velocity(process_noise=0.05, measurement_sigma=0.4),
    planar(constant_velocity(process_noise=0.1)),
    constant_velocity(process_noise=0.2, measurement_sigma=0.2),
    random_walk(process_noise=1.2, measurement_sigma=0.1),
]
DELTAS = np.array([0.6, 0.9, 1.4, 0.8, 0.5])

#: A checkpoint's ``"engine"`` in the per-stream layout, written out by
#: hand for the first three streams of ``MODELS`` (dim_x 1, 2, 4).
LIST_LAYOUT = {
    "x": [
        np.array([0.25]),
        np.array([1.5, -0.125]),
        np.array([0.5, 0.0625, -2.0, 0.25]),
    ],
    "P": [
        np.array([[0.04]]),
        np.array([[0.3, 0.01], [0.01, 0.2]]),
        np.diag([0.3, 0.2, 0.3, 0.2]),
    ],
    "warm": np.array([True, True, False]),
    "messages": np.array([4, 3, 0]),
    "ticks": 9,
    "n_predicts": np.array([9, 9, 9]),
    "n_updates": np.array([4, 3, 0]),
    "n_censored": np.array([0, 0, 0]),
}
#: The same layout for a fleet of one model kind, where every ``x`` has
#: one shape and ``np.asarray`` would stack the list without complaint.
UNIFORM_LIST_LAYOUT = {
    **{k: v[:2] for k, v in LIST_LAYOUT.items() if k != "ticks"},
    "x": [np.array([0.25]), np.array([-1.0])],
    "P": [np.array([[0.04]]), np.array([[0.09]])],
    "ticks": 9,
}

ENGINES = {
    "batch": FleetEngine,
    "sharded": lambda models, deltas: ShardedFleetRuntime(
        models, deltas, n_shards=2, executor="serial", chunk_ticks=7
    ),
}


def _values(models, n_ticks=60, seed=23):
    rng = np.random.default_rng(seed)
    width = max(m.dim_z for m in models)
    values = np.full((n_ticks, len(models), width), np.nan)
    for k, m in enumerate(models):
        walk = np.cumsum(rng.normal(0, 0.5, size=(n_ticks, m.dim_z)), axis=0)
        values[:, k, : m.dim_z] = walk + rng.normal(0, 0.2, size=walk.shape)
    values[rng.random((n_ticks, len(models))) < 0.1] = np.nan
    return values


@pytest.fixture(params=sorted(ENGINES))
def make_engine(request):
    built = []

    def build(models=MODELS, deltas=DELTAS):
        built.append(ENGINES[request.param](models, deltas))
        return built[-1]

    yield build
    for engine in built:
        engine.close()


class TestListLayoutRefused:
    @pytest.mark.parametrize(
        "old, models",
        [
            (LIST_LAYOUT, MODELS[:3]),
            (UNIFORM_LIST_LAYOUT, [random_walk(), random_walk(process_noise=0.5)]),
        ],
        ids=["mixed", "uniform"],
    )
    @pytest.mark.parametrize("via_codec", [False, True])
    def test_refused_naming_the_field_before_anything_moves(
        self, make_engine, old, models, via_codec
    ):
        engine = make_engine(models, DELTAS[: len(models)])
        engine.run(_values(models, 12))
        untouched = dumps_payload(engine.state_snapshot())
        if via_codec:
            old = loads_payload(dumps_payload(old))  # as read back from disk
        with pytest.raises(ConfigurationError, match="'x'.*list layout"):
            engine.restore_state(old)
        assert dumps_payload(engine.state_snapshot()) == untouched
        with pytest.raises(ConfigurationError, match="'P'.*list layout"):
            engine.restore_state({**old, "x": engine.state_snapshot()["x"]})
        assert dumps_payload(engine.state_snapshot()) == untouched

    def test_dense_arrays_of_the_wrong_width_refused(self, make_engine):
        engine = make_engine()
        snap = engine.state_snapshot()
        untouched = dumps_payload(snap)
        with pytest.raises(ConfigurationError, match=r"'x'.*\(5, 4\)"):
            engine.restore_state({**snap, "x": snap["x"][:, :2]})
        with pytest.raises(ConfigurationError, match=r"'P'.*\(5, 4, 4\)"):
            engine.restore_state({**snap, "P": snap["P"][:, :2, :2]})
        assert dumps_payload(engine.state_snapshot()) == untouched

    def test_recovery_over_only_list_layout_generations_fails_with_diagnosis(
        self, make_engine, tmp_path
    ):
        models = MODELS[:3]
        store = CheckpointStore(tmp_path / "ckpt", fsync=False)
        for tick in (5, 9):
            store.save({"kind": "fleet", "n": 3, "engine": LIST_LAYOUT}, tick=tick)
        engine = make_engine(models, DELTAS[:3])
        untouched = dumps_payload(engine.state_snapshot())
        with pytest.raises(RecoveryError, match="'x'.*list layout") as err:
            recover_engine(
                store,
                engine,
                lambda: FleetEngine(models, DELTAS[:3]),
                kind="fleet",
                expect={"n": 3},
            )
        attempts = err.value.report.attempts
        assert [a.generation for a in attempts] == [2, 1]
        assert all("ConfigurationError" in a.error for a in attempts)
        assert dumps_payload(engine.state_snapshot()) == untouched


class TestMixedDimRoundTrip:
    def test_layout_is_dense_and_zero_padded(self, make_engine):
        engine = make_engine()
        engine.run(_values(MODELS, 30))
        snap = engine.state_snapshot()
        assert snap["x"].shape == (5, 4) and snap["P"].shape == (5, 4, 4)
        for i, m in enumerate(MODELS):
            assert not snap["x"][i, m.dim_x :].any()
            assert not snap["P"][i, m.dim_x :].any()
            assert not snap["P"][i, :, m.dim_x :].any()

    def test_snapshot_codec_restore_continues_bitwise(self, make_engine):
        values = _values(MODELS)
        reference = make_engine()
        want = reference.run(values)
        engine = make_engine()
        engine.run(values[:25])
        data = dumps_payload(engine.state_snapshot())
        fresh = make_engine()
        fresh.restore_state(loads_payload(data))
        assert dumps_payload(fresh.state_snapshot()) == data
        got = fresh.run(values[25:])
        np.testing.assert_array_equal(got.served, want.served[25:])
        np.testing.assert_array_equal(got.sent, want.sent[25:])
        assert dumps_payload(fresh.state_snapshot()) == dumps_payload(
            reference.state_snapshot()
        )

    def test_batch_to_sharded_to_batch_bitwise(self, tmp_path):
        values = _values(MODELS, 90)
        want = FleetEngine(MODELS, DELTAS).run(values)
        batch = FleetEngine(MODELS, DELTAS)
        batch.run(values[:30])
        store = CheckpointStore(tmp_path / "ckpt", fsync=False)
        checkpoint_engine(store, batch, kind="fleet", tick=30, fields={"n": 5})
        with ShardedFleetRuntime(
            MODELS, DELTAS, n_shards=3, executor="serial", chunk_ticks=11
        ) as sharded:
            recover_engine(
                store,
                sharded,
                lambda: FleetEngine(MODELS, DELTAS),
                kind="fleet",
                expect={"n": 5},
            )
            mid = sharded.run(values[30:60])
            handed_back = sharded.state_snapshot()
        back = FleetEngine(MODELS, DELTAS)
        back.restore_state(loads_payload(dumps_payload(handed_back)))
        tail = back.run(values[60:])
        np.testing.assert_array_equal(mid.served, want.served[30:60])
        np.testing.assert_array_equal(tail.served, want.served[60:])
        np.testing.assert_array_equal(
            np.concatenate([mid.sent, tail.sent]), want.sent[30:]
        )
        reference = FleetEngine(MODELS, DELTAS)
        reference.run(values)
        assert dumps_payload(back.state_snapshot()) == dumps_payload(
            reference.state_snapshot()
        )
