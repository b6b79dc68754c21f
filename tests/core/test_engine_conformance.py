"""One contract, three engines.

``StreamResourceManager`` and ``repro.durability`` drive whatever
``_make_engine`` built through ``set_deltas / run / state_snapshot /
restore_state / close`` and nothing else (``repro.core.manager.Engine``).
Each engine — the per-stream policy loop, the vectorized batch engine and
the sharded runtime — must honour that surface the same way: bounds
change without resetting filters, a snapshot resumes bitwise (in a fresh
engine or in the one that moved on), a *held* snapshot never changes
under later steps, and ``close()`` can be called twice.
"""

import numpy as np
import pytest

from repro.core.manager import FleetEngine
from repro.core.reference import PolicyLoopEngine
from repro.durability import dumps_payload, loads_payload
from repro.errors import ConfigurationError
from repro.kalman.models import constant_velocity, planar, random_walk
from repro.parallel import ShardedFleetRuntime

ENGINES = {
    "reference": PolicyLoopEngine,
    "batch": FleetEngine,
    "sharded": lambda models, deltas: ShardedFleetRuntime(
        models, deltas, n_shards=2, executor="serial", chunk_ticks=23
    ),
}

MODELS = [
    random_walk(process_noise=0.3, measurement_sigma=0.2),
    constant_velocity(process_noise=0.05, measurement_sigma=0.4),
    planar(constant_velocity(process_noise=0.1)),
    random_walk(process_noise=1.2, measurement_sigma=0.1),
    constant_velocity(process_noise=0.2, measurement_sigma=0.2),
]
DELTAS = np.array([0.6, 0.9, 1.4, 0.5, 0.8])
SPLIT = 70


def _values(n_ticks=160, seed=17):
    rng = np.random.default_rng(seed)
    values = np.full((n_ticks, len(MODELS), 2), np.nan)
    for k, m in enumerate(MODELS):
        walk = np.cumsum(rng.normal(0, 0.5, size=(n_ticks, m.dim_z)), axis=0)
        values[:, k, : m.dim_z] = walk + rng.normal(0, 0.2, size=walk.shape)
    values[rng.random((n_ticks, len(MODELS))) < 0.06] = np.nan  # dropped ticks
    return values


@pytest.fixture(params=sorted(ENGINES))
def make_engine(request):
    built = []

    def build(deltas=DELTAS):
        built.append(ENGINES[request.param](MODELS, deltas))
        return built[-1]

    yield build
    for engine in built:
        engine.close()


def _assert_same_trace(got, want):
    np.testing.assert_array_equal(got.served, want.served)
    np.testing.assert_array_equal(got.sent, want.sent)
    np.testing.assert_array_equal(got.messages_per_stream, want.messages_per_stream)


class TestEngineSurface:
    def test_snapshot_resumes_bitwise_in_a_fresh_engine_and_in_place(
        self, make_engine
    ):
        values = _values()
        engine = make_engine(np.ones(len(MODELS)))
        engine.set_deltas(DELTAS)
        engine.run(values[:SPLIT])
        snapshot = engine.state_snapshot()
        tail = engine.run(values[SPLIT:])
        assert tail.sent.any() and not tail.sent.all()

        fresh = make_engine()
        fresh.restore_state(snapshot)
        _assert_same_trace(fresh.run(values[SPLIT:]), tail)

        # The engine that moved on rewinds to the same point.
        engine.restore_state(snapshot)
        _assert_same_trace(engine.run(values[SPLIT:]), tail)

    def test_snapshot_survives_the_durable_codec(self, make_engine):
        values = _values()
        engine = make_engine()
        engine.run(values[:SPLIT])
        decoded = loads_payload(dumps_payload(engine.state_snapshot()))
        tail = engine.run(values[SPLIT:])
        fresh = make_engine()
        fresh.restore_state(decoded)
        _assert_same_trace(fresh.run(values[SPLIT:]), tail)

    def test_held_snapshot_immune_to_later_steps(self, make_engine):
        values = _values()
        engine = make_engine()
        engine.run(values[:SPLIT])
        snapshot = engine.state_snapshot()
        frozen = dumps_payload(snapshot)  # bitwise-exact encoding
        engine.run(values[SPLIT:])
        engine.set_deltas(DELTAS * 3.0)
        assert dumps_payload(snapshot) == frozen
        assert dumps_payload(engine.state_snapshot()) != frozen

    def test_set_deltas_rebounds_without_resetting_filters(self, make_engine):
        values = _values()
        engine = make_engine()
        engine.run(values[:SPLIT])
        engine.set_deltas(np.full(len(MODELS), 1e9))
        quiet = engine.run(values[SPLIT:])
        # Warm filters under an enormous bound coast: nothing is sent, yet
        # every tick still serves a prediction (no filter was reset).
        assert not quiet.sent.any()
        assert not np.isnan(quiet.served[:, :, 0]).any()

    def test_set_deltas_validates(self, make_engine):
        engine = make_engine()
        with pytest.raises(ConfigurationError):
            engine.set_deltas(np.ones(len(MODELS) + 1))
        with pytest.raises(ConfigurationError):
            engine.set_deltas(np.zeros(len(MODELS)))

    def test_run_shape_checked(self, make_engine):
        with pytest.raises(ConfigurationError):
            make_engine().run(np.zeros((10, len(MODELS) + 1, 2)))

    def test_restore_rejects_wrong_fleet_size(self, make_engine):
        snapshot = ENGINES["batch"](MODELS[:2], DELTAS[:2]).state_snapshot()
        reference = PolicyLoopEngine(MODELS[:2], DELTAS[:2]).state_snapshot()
        engine = make_engine()
        with pytest.raises(ConfigurationError):
            engine.restore_state(
                reference if isinstance(engine, PolicyLoopEngine) else snapshot
            )

    def test_truncated_snapshot_rejected_before_anything_is_overwritten(
        self, make_engine
    ):
        values = _values()
        donor = make_engine()
        donor.run(values[:SPLIT])
        snapshot = donor.state_snapshot()
        engine = make_engine()
        engine.run(values[:20])
        untouched = dumps_payload(engine.state_snapshot())
        for field in snapshot:
            if field == "n_censored":  # optional: pre-censoring checkpoints
                continue
            truncated = {k: v for k, v in snapshot.items() if k != field}
            with pytest.raises(ConfigurationError, match=field):
                engine.restore_state(truncated)
            assert dumps_payload(engine.state_snapshot()) == untouched
            if field != "ticks":
                short = {**snapshot, field: snapshot[field][:-1]}
                with pytest.raises(ConfigurationError, match=field):
                    engine.restore_state(short)
                assert dumps_payload(engine.state_snapshot()) == untouched

    def test_zero_tick_run_is_an_empty_trace_and_a_no_op(self, make_engine):
        values = _values()
        engine = make_engine()
        engine.run(values[:SPLIT])
        before = dumps_payload(engine.state_snapshot())
        empty = engine.run(np.zeros((0, len(MODELS), 2)))
        assert empty.served.shape == (0, len(MODELS), 2)
        assert empty.sent.shape == (0, len(MODELS))
        assert dumps_payload(engine.state_snapshot()) == before
        # ... on a never-run engine too (no segment has been sized yet).
        assert make_engine().run(np.zeros((0, len(MODELS), 2))).sent.shape[0] == 0

    def test_close_is_idempotent(self, make_engine):
        engine = make_engine()
        engine.run(_values(20))
        engine.close()
        engine.close()


def test_restore_packed_validates_like_restore_state():
    """The dense state format gets the same up-front check."""
    engine = FleetEngine(MODELS, DELTAS)
    engine.run(_values(30))
    packed = engine.packed_state()
    other = FleetEngine(MODELS, DELTAS)
    untouched = dumps_payload(other.state_snapshot())
    with pytest.raises(ConfigurationError, match="warm"):
        other.restore_packed({k: v for k, v in packed.items() if k != "warm"})
    with pytest.raises(ConfigurationError, match="messages"):
        other.restore_packed({**packed, "messages": packed["messages"][:-1]})
    assert dumps_payload(other.state_snapshot()) == untouched
    other.restore_packed(packed)
    assert dumps_payload(other.state_snapshot()) == dumps_payload(
        engine.state_snapshot()
    )


def test_three_engines_agree():
    """Same inputs, same answers: sharded bitwise, reference to 1e-9."""
    values = _values()
    batch = FleetEngine(MODELS, DELTAS).run(values)
    with ENGINES["sharded"](MODELS, DELTAS) as runtime:
        _assert_same_trace(runtime.run(values), batch)
    reference = PolicyLoopEngine(MODELS, DELTAS).run(values)
    np.testing.assert_array_equal(reference.sent, batch.sent)
    np.testing.assert_allclose(reference.served, batch.served, atol=1e-9, rtol=0)
    np.testing.assert_array_equal(
        reference.messages_per_stream, batch.messages_per_stream
    )
