"""ServingStore: ingest, ring retention, and bitwise dsms parity.

The load-bearing claim is the acceptance criterion of the serving tier:
a serving answer's value *and* bound are bitwise what direct dsms
evaluation of the same served values produces.  The store replays window
members through a real :class:`~repro.dsms.operators.WindowAggregate`,
so parity holds by construction — these tests pin it with ``==`` (no
tolerance) against an independently driven operator and against the pure
bound-propagation functions.
"""

import numpy as np
import pytest

from repro.core.manager import FleetEngine
from repro.dsms.operators import WindowAggregate
from repro.dsms.precision_assignment import QueryRequirement, assign_stream_bounds
from repro.dsms.precision_propagation import aggregate_bound
from repro.dsms.query import ContinuousQuery
from repro.dsms.tuples import StreamTuple
from repro.errors import ServingError
from repro.kalman.models import random_walk
from repro.serving import ServingStore


def _filled_store(history=64, n=40, bounds=None):
    store = ServingStore(bounds or {"s0": 0.5, "s1": 1.25}, history=history)
    rng = np.random.default_rng(3)
    for k in range(n):
        store.ingest("s0", k, float(rng.normal(10.0, 2.0)))
        store.ingest("s1", k, float(rng.normal(-4.0, 1.0)))
        store.advance_tick()
    return store


class TestConstruction:
    def test_rejects_empty_bounds(self):
        with pytest.raises(ServingError):
            ServingStore({})

    def test_rejects_negative_bound(self):
        with pytest.raises(ServingError):
            ServingStore({"s": -0.1})

    def test_rejects_nonpositive_history(self):
        with pytest.raises(ServingError):
            ServingStore({"s": 1.0}, history=0)

    def test_from_requirements_inverts_precision_targets(self):
        reqs = [
            QueryRequirement(ContinuousQuery("a").window("sum", size=10), 5.0),
            QueryRequirement(ContinuousQuery("b").window("mean", size=8), 0.75),
        ]
        store = ServingStore(assign_stream_bounds(reqs))
        # sum over 10 members has sensitivity 10; mean has sensitivity 1.
        assert store.bounds == {"a": 0.5, "b": 0.75}


class TestIngestAndRetention:
    def test_unknown_stream_rejected(self):
        store = ServingStore({"s": 1.0})
        with pytest.raises(ServingError, match="unknown stream"):
            store.ingest("nope", 0.0, 1.0)

    def test_point_is_newest_with_configured_delta(self):
        store = ServingStore({"s": 0.25})
        store.ingest("s", 0.0, 1.0)
        store.ingest("s", 1.0, 2.5)
        store.advance_tick()
        tup = store.point("s")
        assert (tup.t, tup.value, tup.bound) == (1.0, 2.5, 0.25)
        assert tup.stream_id == "s"

    def test_cold_stream_raises(self):
        store = ServingStore({"s": 1.0})
        with pytest.raises(ServingError, match="no served history"):
            store.point("s")
        assert store.history_len("s") == 0

    def test_ring_evicts_oldest(self):
        store = ServingStore({"s": 1.0}, history=4)
        for k in range(10):
            store.ingest("s", k, float(k))
        assert store.history_len("s") == 4
        assert [t.value for t in store.range_query("s", 10)] == [6.0, 7.0, 8.0, 9.0]

    def test_range_oldest_first_and_truncated(self):
        store = _filled_store(n=5)
        got = store.range_query("s0", 3)
        assert [t.t for t in got] == [2.0, 3.0, 4.0]
        assert len(store.range_query("s0", 99)) == 5

    def test_tick_counts_ingest_rounds_not_tuples(self):
        store = _filled_store(n=7)
        assert store.tick == 7


class TestDsmsParity:
    """Serving answers == direct dsms evaluation, bitwise."""

    AGGREGATES = ["mean", "sum", "min", "max", "median"]

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    @pytest.mark.parametrize("size", [1, 7, 32])
    def test_window_aggregate_bitwise_equals_direct_operator(
        self, aggregate, size
    ):
        store = _filled_store(n=40)
        served = store.window_aggregate("s0", aggregate, size)
        # Independent direct evaluation: push the same served tuples
        # through a separately constructed dsms operator.
        op = WindowAggregate(aggregate, size=size, slide=1, emit_partial=True)
        out = []
        for member in store.range_query("s0", size):
            out = op.process(member)
        direct = out[0]
        assert served.value == direct.value  # bitwise, no tolerance
        assert served.bound == direct.bound
        assert served.t == direct.t

    @pytest.mark.parametrize("aggregate", AGGREGATES)
    def test_bound_matches_pure_propagation_rule(self, aggregate):
        store = _filled_store(n=40)
        size = 16
        members = store.range_query("s1", size)
        served = store.window_aggregate("s1", aggregate, size)
        expected = aggregate_bound(
            aggregate, [m.bound for m in members], [m.value for m in members]
        )
        assert served.bound == expected

    def test_full_history_pipeline_agrees(self):
        """Feeding every tuple through one long-lived operator agrees too.

        Sum/mean keep a compensated accumulator across window slides, so
        the long-lived pipeline is compared at 1e-12 (values); min, max
        and median are selection aggregates and must stay bitwise.
        """
        store = _filled_store(n=40)
        size = 8
        ops = {a: WindowAggregate(a, size=size, slide=1) for a in self.AGGREGATES}
        last = {}
        for member in store.range_query("s0", 10_000):
            for a, op in ops.items():
                out = op.process(member)
                if out:
                    last[a] = out[0]
        for a in self.AGGREGATES:
            served = store.window_aggregate("s0", a, size)
            assert served.bound == last[a].bound
            if a in ("min", "max", "median"):
                assert served.value == last[a].value
            else:
                assert served.value == pytest.approx(last[a].value, abs=1e-12)

    def test_warmup_raises_without_emit_partial(self):
        store = _filled_store(n=5)
        with pytest.raises(ServingError, match="not warmed up"):
            store.window_aggregate("s0", "mean", 8)
        partial = store.window_aggregate("s0", "mean", 8, emit_partial=True)
        members = store.range_query("s0", 8)
        assert len(members) == 5
        assert partial.value == pytest.approx(
            np.mean([m.value for m in members]), abs=1e-12
        )


class TestFleetIntegration:
    def _engine(self, n=3):
        models = [random_walk(process_noise=0.2) for _ in range(n)]
        deltas = np.array([0.5, 1.0, 1.5])
        rng = np.random.default_rng(11)
        walk = np.cumsum(rng.normal(0, 0.5, size=(60, n, 1)), axis=0)
        values = walk + rng.normal(0, 0.2, size=walk.shape)
        return FleetEngine(models, deltas), values, deltas

    def test_load_fleet_history_matches_trace(self):
        engine, values, deltas = self._engine()
        trace = engine.run(values)
        sids = ["s0", "s1", "s2"]
        store = ServingStore(dict(zip(sids, deltas)), history=128)
        store.load_fleet_history(sids, trace.served)
        assert store.tick == values.shape[0]
        for i, sid in enumerate(sids):
            assert store.point(sid).value == trace.served[-1, i, 0]
            assert store.point(sid).bound == deltas[i]

    def test_on_tick_callback_ingests_live(self):
        """Live on_tick ingest produces the same store as bulk loading."""
        engine, values, deltas = self._engine()
        sids = ["s0", "s1", "s2"]
        live = ServingStore(dict(zip(sids, deltas)), history=128)

        def feed(t, served_t, sent_t):
            for i, sid in enumerate(sids):
                if not np.isnan(served_t[i, 0]):
                    live.ingest(sid, float(t), float(served_t[i, 0]))
            live.advance_tick()

        trace = engine.run(values, on_tick=feed)
        bulk = ServingStore(dict(zip(sids, deltas)), history=128)
        bulk.load_fleet_history(sids, trace.served)
        assert live.tick == bulk.tick
        for sid in sids:
            assert store_tuples(live, sid) == store_tuples(bulk, sid)

    def test_load_rejects_bad_shape(self):
        store = ServingStore({"s0": 1.0})
        with pytest.raises(ServingError, match="shape"):
            store.load_fleet_history(["s0"], np.zeros((4, 2, 1)))


class TestEvictionHook:
    def test_hook_fires_only_once_ring_is_full(self):
        evicted = []
        store = ServingStore({"s": 0.5}, history=3, on_evict=evicted.append)
        for k in range(3):
            store.ingest("s", k, float(k))
        assert evicted == []  # filling the ring evicts nothing
        store.ingest("s", 3, 3.0)
        store.ingest("s", 4, 4.0)
        assert [tup.t for tup in evicted] == [0.0, 1.0]

    def test_hook_receives_the_exact_evicted_tuple(self):
        evicted = []
        store = ServingStore({"s": 0.75}, history=1, on_evict=evicted.append)
        store.ingest("s", 0.0, 42.0)
        store.ingest("s", 1.0, 43.0)
        (tup,) = evicted
        assert (tup.stream_id, tup.t, tup.value, tup.bound) == (
            "s", 0.0, 42.0, 0.75
        )

    def test_residency_boundary_tracks_oldest_resident(self):
        store = ServingStore({"s": 1.0}, history=4)
        assert store.oldest_t("s") is None  # cold
        for k in range(6):
            store.ingest("s", k, float(k))
        assert store.oldest_t("s") == 2.0

    def test_tuples_between_may_be_empty_unlike_range_query(self):
        store = ServingStore({"s": 1.0}, history=4)
        for k in range(4):
            store.ingest("s", k, float(k))
        assert [t.t for t in store.tuples_between("s", 1.0, 2.0)] == [1.0, 2.0]
        assert store.tuples_between("s", 50.0, 60.0) == ()


def store_tuples(store: ServingStore, sid: str) -> list[StreamTuple]:
    return list(store.range_query(sid, 10_000))
