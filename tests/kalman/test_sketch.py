"""Sketched & censored batch updates: exact recovery, censor semantics.

The contract gated here (and in CI's sketch-equivalence step): with the
sketch dimension at or above every lane's measurement dimension and a
zero censor threshold, the approximate machinery must not engage at all
— results are *bitwise* identical to the plain exact batch path.  Plus the approximation semantics themselves:
censored rows coast predict-only with growing covariance, sketched
lanes project deterministically, the knobs thread through
``FleetEngine``/``StreamResourceManager``, and telemetry counts what
actually happened.
"""

import numpy as np
import pytest

from repro.core.manager import FleetEngine, ManagedStream, StreamResourceManager
from repro.durability.codec import dumps_payload
from repro.errors import ConfigurationError
from repro.kalman import SketchConfig, models, sketch_matrix
from repro.kalman.batch import BatchKalmanFilter
from repro.kalman.kernels import update_lane
from repro.kalman.sketch import censor_keep, sketch_lane
from repro.obs import Telemetry
from repro.streams.replay import record
from repro.streams.synthetic import RandomWalkStream


def _wide_model(dim_z=4, name="wide"):
    return models.ProcessModel(
        name=name,
        F=np.eye(1),
        H=np.ones((dim_z, 1)),
        Q=np.eye(1) * 0.1,
        R=np.eye(dim_z) * 0.25,
        P0=np.eye(1),
    )


def _mixed_fleet(n_wide=7, n_scalar=5):
    return [_wide_model() for _ in range(n_wide)] + [
        models.random_walk(process_noise=1.0, measurement_sigma=0.5)
        for _ in range(n_scalar)
    ]


def _drive(bank, ticks=25, seed=11):
    rng = np.random.default_rng(seed)
    for _ in range(ticks):
        zs = rng.normal(size=(bank.n, bank.dim_z_max))
        mask = rng.random(bank.n) > 0.3
        bank.predict()
        if mask.any():
            bank.update(zs, mask)
    return bank.packed_states()


class TestSketchConfig:
    def test_rejects_nonpositive_dim(self):
        with pytest.raises(ConfigurationError):
            SketchConfig(dim=0)
        with pytest.raises(ConfigurationError):
            SketchConfig(dim=-3)

    def test_rejects_non_integer(self):
        with pytest.raises(ConfigurationError):
            SketchConfig(dim=2.5)
        with pytest.raises(ConfigurationError):
            SketchConfig(dim=2, seed="x")

    def test_bad_censor_threshold_rejected(self):
        ms = _mixed_fleet(1, 1)
        for bad in (-0.5, float("nan"), float("inf")):
            with pytest.raises(ConfigurationError):
                BatchKalmanFilter(ms, censor_threshold=bad)

    def test_sketch_must_be_config(self):
        with pytest.raises(ConfigurationError):
            BatchKalmanFilter(_mixed_fleet(1, 1), sketch=2)


class TestSketchMatrix:
    def test_deterministic_and_shaped(self):
        a = sketch_matrix(2, 6, seed=5)
        b = sketch_matrix(2, 6, seed=5)
        assert a.shape == (2, 6)
        np.testing.assert_array_equal(a, b)

    def test_distinct_shapes_and_seeds_differ(self):
        base = sketch_matrix(2, 6, seed=5)
        assert not np.array_equal(base, sketch_matrix(2, 6, seed=6))
        assert not np.array_equal(base[:, :4], sketch_matrix(2, 4, seed=5))

    def test_lane_with_small_dim_z_stays_exact(self):
        m = _wide_model(dim_z=2)
        H = np.stack([m.H, m.H])
        R = np.stack([m.R, m.R])
        assert sketch_lane(H, R, SketchConfig(dim=2)) is None
        assert sketch_lane(H, R, SketchConfig(dim=8)) is None
        sk = sketch_lane(H, R, SketchConfig(dim=1))
        assert sk is not None
        Phi, Hs, Rs = sk
        assert Phi.shape == (1, 2) and Hs.shape == (2, 1, 1)
        np.testing.assert_allclose(Hs, Phi @ H)


class TestExactRecovery:
    """sketch dim >= dim_z + censor 0 => bitwise the exact path."""

    def test_bitwise_identical_filter_states(self):
        ms = _mixed_fleet()
        exact = BatchKalmanFilter(ms)
        recovered = BatchKalmanFilter(
            ms, sketch=SketchConfig(dim=4), censor_threshold=0.0
        )
        assert not recovered.approx
        xa, Pa = _drive(exact)
        xb, Pb = _drive(recovered)
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(Pa, Pb)
        np.testing.assert_array_equal(exact.n_updates, recovered.n_updates)
        assert recovered.n_censored.sum() == 0

    def test_bitwise_identical_engine_trace(self):
        ms = _mixed_fleet()
        deltas = np.full(len(ms), 0.8)
        rng = np.random.default_rng(4)
        vals = np.full((30, len(ms), 4), np.nan)
        vals[:, :7, :] = rng.normal(size=(30, 7, 4))
        vals[:, 7:, 0] = rng.normal(size=(30, 5))
        exact = FleetEngine(ms, deltas).run(vals)
        recovered = FleetEngine(
            ms,
            deltas,
            sketch=SketchConfig(dim=4),
            censor_threshold=0.0,
        ).run(vals)
        np.testing.assert_array_equal(exact.served, recovered.served)
        np.testing.assert_array_equal(exact.sent, recovered.sent)

    def test_exact_recovery_pinned_to_numpy_kernel(self):
        # The numpy lane kernel is the only one: no knob, same contract.
        ms = _mixed_fleet(3, 3)
        xa, Pa = _drive(BatchKalmanFilter(ms))
        xb, Pb = _drive(
            BatchKalmanFilter(ms, sketch=SketchConfig(dim=4), censor_threshold=0)
        )
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(Pa, Pb)


class TestCensoring:
    def test_huge_threshold_censors_everything(self):
        ms = _mixed_fleet(3, 3)
        bank = BatchKalmanFilter(ms, censor_threshold=1e9)
        assert bank.approx
        rng = np.random.default_rng(0)
        bank.predict()
        x0, P0 = bank.packed_states()
        bank.update(rng.normal(size=(6, 4)))
        x1, P1 = bank.packed_states()
        np.testing.assert_array_equal(x0, x1)
        np.testing.assert_array_equal(P0, P1)
        assert bank.n_updates.sum() == 0
        assert (bank.n_censored == 1).all()
        drained = bank.drain_censored()
        assert drained == {"1x4": 3, "1x1": 3}
        assert bank.drain_censored() == {}

    def test_zero_threshold_never_censors(self):
        ms = _mixed_fleet(2, 2)
        # Force the approx path via a sketched lane; censor stays off.
        bank = BatchKalmanFilter(ms, sketch=SketchConfig(dim=2))
        assert bank.approx
        rng = np.random.default_rng(1)
        for _ in range(10):
            bank.predict()
            bank.update(rng.normal(size=(4, 4)))
        assert bank.n_censored.sum() == 0
        assert (bank.n_updates == 10).all()

    def test_censored_covariance_dominates_exact(self):
        # Riccati monotonicity: skipping updates can only widen P.
        ms = [models.random_walk(process_noise=0.5, measurement_sigma=0.4)
              for _ in range(8)]
        exact = BatchKalmanFilter(ms)
        censored = BatchKalmanFilter(ms, censor_threshold=1.0)
        rng = np.random.default_rng(2)
        for _ in range(40):
            zs = rng.normal(size=(8, 1))
            for bank in (exact, censored):
                bank.predict()
                bank.update(zs)
        assert censored.n_censored.sum() > 0
        _, Pe = exact.packed_states()
        _, Pc = censored.packed_states()
        assert np.all(Pc[:, 0, 0] >= Pe[:, 0, 0] - 1e-12)

    def test_censor_counts_partial_lane(self):
        # One stream with a huge innovation updates; a zero-innovation
        # stream is censored within the same lane.
        ms = [models.random_walk(process_noise=0.5, measurement_sigma=0.4)
              for _ in range(2)]
        bank = BatchKalmanFilter(ms, censor_threshold=2.0)
        bank.predict()
        bank.update(np.array([[0.0], [50.0]]))
        assert bank.n_censored.tolist() == [1, 0]
        assert bank.n_updates.tolist() == [0, 1]

    def test_censor_keep_matches_scalar_nis(self):
        x = np.array([[1.0], [2.0]])
        P = np.full((2, 1, 1), 0.5)
        H = np.ones((2, 1, 1))
        R = np.full((2, 1, 1), 0.5)
        z = np.array([[1.0 + 2.0], [2.0 + 0.5]])
        # S = 1.0; normalized innovation = |y|: 2.0 and 0.5.
        keep = censor_keep(x, P, H, R, z, threshold=1.0)
        assert keep.tolist() == [True, False]


class TestSketchedUpdates:
    def test_sketched_lane_still_learns(self):
        m = _wide_model(dim_z=8)
        bank = BatchKalmanFilter([m] * 4, sketch=SketchConfig(dim=2))
        rng = np.random.default_rng(3)
        bank.predict()
        x0, P0 = bank.packed_states()
        bank.update(5.0 + rng.normal(size=(4, 8)) * 0.1)
        x1, P1 = bank.packed_states()
        assert not np.array_equal(x0, x1)
        # An update contracts the covariance.
        assert np.all(P1[:, 0, 0] < P0[:, 0, 0])

    def test_sketched_run_is_deterministic(self):
        m = _wide_model(dim_z=8)

        def run():
            bank = BatchKalmanFilter(
                [m] * 4, sketch=SketchConfig(dim=2, seed=9), censor_threshold=0.5
            )
            rng = np.random.default_rng(6)
            for _ in range(15):
                bank.predict()
                bank.update(rng.normal(size=(4, 8)))
            return bank.packed_states()

        (xa, Pa), (xb, Pb) = run(), run()
        np.testing.assert_array_equal(xa, xb)
        np.testing.assert_array_equal(Pa, Pb)

    def test_sketched_covariance_dominates_exact(self):
        # Sketching discards measurement information, so P can only grow
        # relative to the exact update.
        m = _wide_model(dim_z=8)
        exact = BatchKalmanFilter([m] * 4)
        sketched = BatchKalmanFilter([m] * 4, sketch=SketchConfig(dim=2))
        rng = np.random.default_rng(7)
        for _ in range(30):
            zs = rng.normal(size=(4, 8))
            for bank in (exact, sketched):
                bank.predict()
                bank.update(zs)
        _, Pe = exact.packed_states()
        _, Ps = sketched.packed_states()
        assert np.all(Ps[:, 0, 0] >= Pe[:, 0, 0] - 1e-12)


class TestOneUpdateLoop:
    """Exact and sketched lanes, partial masks and censoring share one loop."""

    def test_mixed_fleet_equals_per_row_reference(self):
        cfg, tau = SketchConfig(dim=2, seed=5), 0.75
        ms = _mixed_fleet(6, 6)  # 1x4 lane gets sketched, 1x1 lane stays exact
        bank = BatchKalmanFilter(ms, sketch=cfg, censor_threshold=tau)
        rng = np.random.default_rng(17)
        bank.predict()
        bank.update(rng.normal(scale=3.0, size=(bank.n, 4)))  # leave the prior
        bank.predict()
        bank.drain_censored()
        before = [(bank.x_of(i), bank.P_of(i)) for i in range(bank.n)]
        upd0, cens0 = bank.n_updates.copy(), bank.n_censored.copy()

        # Even rows sit exactly on their prediction (zero innovation, so
        # the censor test drops them); odd rows are four sigmas off it.
        zs = np.nan_to_num(bank.measurement_estimates())
        sigma = np.sqrt(bank.measurement_variances()[:, 0, 0])
        zs[1::2] += (4.0 * sigma * rng.choice([-1.0, 1.0], size=bank.n))[1::2, None]
        mask = np.ones(bank.n, dtype=bool)
        mask[[0, 5, 6, 11]] = False
        bank.update(zs, mask)

        outcome = {}
        for i, (m, (x, P)) in enumerate(zip(ms, before)):
            x, P = x[None], P[None]
            if mask[i]:
                H, R, z = m.H[None], m.R[None], zs[i : i + 1, : m.dim_z]
                sketched = sketch_lane(H, R, cfg)
                if sketched is not None:
                    Phi, H, R = sketched
                    z = (Phi @ z[..., None])[..., 0]
                kept = bool(censor_keep(x, P, H, R, z, tau)[0])
                if kept:
                    x, P = update_lane(x, P, H, R, z)
                outcome[i] = (m.dim_z, kept)
            np.testing.assert_array_equal(bank.x_of(i), x[0])
            np.testing.assert_array_equal(bank.P_of(i), P[0])

        kept = np.array([outcome.get(i, (0, False))[1] for i in range(bank.n)])
        np.testing.assert_array_equal(bank.n_updates - upd0, kept.astype(int))
        np.testing.assert_array_equal(
            bank.n_censored - cens0, (mask & ~kept).astype(int)
        )
        # Every branch was taken: both lanes kept some rows and censored others.
        assert {(4, True), (4, False), (1, True), (1, False)} <= set(outcome.values())
        assert bank.drain_censored() == {
            f"1x{dz}": sum(1 for v in outcome.values() if v == (dz, False))
            for dz in (1, 4)
        }


class TestEngineWiring:
    def test_span_renamed_and_counters_emitted(self):
        tel = Telemetry()
        ms = _mixed_fleet(3, 3)
        engine = FleetEngine(
            ms,
            np.full(6, 0.5),
            telemetry=tel,
            sketch=SketchConfig(dim=2),
            censor_threshold=0.75,
        )
        assert engine.approx
        rng = np.random.default_rng(8)
        vals = np.full((20, 6, 4), np.nan)
        vals[:, :3, :] = rng.normal(size=(20, 3, 4))
        vals[:, 3:, 0] = rng.normal(size=(20, 3))
        engine.run(vals)
        assert "batch_step[sketch]" in tel.spans.names()
        families = {f.name: f for f in tel.metrics.families()}
        gauge = families["repro_sketch_dim"]
        assert next(iter(gauge.instances.values())).value == 2
        if engine.filters.n_censored.sum():
            censored = families["repro_censored_updates_total"]
            total = sum(m.value for m in censored.instances.values())
            assert total == engine.filters.n_censored.sum()
            groups = {dict(k)["stream_group"] for k in censored.instances}
            assert groups <= {"1x4", "1x1"}

    def test_exact_engine_span_name_unchanged(self):
        tel = Telemetry()
        ms = _mixed_fleet(1, 2)
        engine = FleetEngine(ms, np.full(3, 0.5), telemetry=tel)
        assert not engine.approx
        assert engine._span_name == "batch_step[numpy]"

    def test_snapshot_roundtrips_censor_counter(self):
        ms = _mixed_fleet(2, 2)
        engine = FleetEngine(ms, np.full(4, 0.5), censor_threshold=1e9)
        rng = np.random.default_rng(10)
        vals = np.full((10, 4, 4), np.nan)
        vals[:, :2, :] = rng.normal(size=(10, 2, 4))
        vals[:, 2:, 0] = rng.normal(size=(10, 2))
        engine.run(vals)
        assert engine.filters.n_censored.sum() > 0
        snap = engine.state_snapshot()
        clone = FleetEngine(ms, np.full(4, 0.5), censor_threshold=1e9)
        clone.restore_state(snap)
        np.testing.assert_array_equal(
            clone.filters.n_censored, engine.filters.n_censored
        )
        packed = engine.packed_state()
        clone2 = FleetEngine(ms, np.full(4, 0.5), censor_threshold=1e9)
        clone2.restore_packed(packed)
        np.testing.assert_array_equal(
            clone2.filters.n_censored, engine.filters.n_censored
        )

    def test_restore_refuses_pre_censor_snapshots(self):
        ms = _mixed_fleet(1, 1)
        engine = FleetEngine(ms, np.full(2, 0.5), censor_threshold=0.5)
        rng = np.random.default_rng(3)
        engine.run(rng.normal(size=(20, 2, engine.filters.dim_z_max)))
        snap = engine.state_snapshot()
        untouched = dumps_payload(snap)
        del snap["n_censored"]  # a checkpoint from before censoring existed
        # A partial restore would rewind the tick clock; none happens.
        with pytest.raises(ConfigurationError, match="n_censored"):
            engine.restore_state({**snap, "ticks": 0})
        assert dumps_payload(engine.state_snapshot()) == untouched


class TestManagerWiring:
    @staticmethod
    def _streams(n=4, ticks=600):
        streams = []
        for k in range(n):
            s = RandomWalkStream(step_sigma=1.0, measurement_sigma=0.25, seed=k)
            streams.append(
                ManagedStream(
                    stream_id=f"s{k}",
                    model=models.random_walk(
                        process_noise=1.0, measurement_sigma=0.25
                    ),
                    recording=record(s, ticks),
                )
            )
        return streams

    def test_scalar_backend_rejects_approximation(self):
        streams = self._streams()
        with pytest.raises(ConfigurationError, match="scalar"):
            StreamResourceManager(
                streams, backend="scalar", sketch=SketchConfig(dim=2)
            )
        with pytest.raises(ConfigurationError, match="scalar"):
            StreamResourceManager(streams, backend="scalar", censor_threshold=0.5)

    def test_batch_backend_threads_knobs(self):
        streams = self._streams()
        mgr = StreamResourceManager(
            streams,
            backend="batch",
            probe_ticks=200,
            censor_threshold=0.5,
            sketch=SketchConfig(dim=2),
        )
        result = mgr.run(2.0, run_ticks=200)
        assert len(result.reports) == 4

    def test_exact_recovery_through_manager(self):
        streams = self._streams()
        plain = StreamResourceManager(streams, backend="batch", probe_ticks=200)
        recovered = StreamResourceManager(
            streams,
            backend="batch",
            probe_ticks=200,
            sketch=SketchConfig(dim=1),
            censor_threshold=0.0,
        )
        ra = plain.run(2.0, run_ticks=200)
        rb = recovered.run(2.0, run_ticks=200)
        assert [r.messages for r in ra.reports] == [
            r.messages for r in rb.reports
        ]
        assert [r.mean_abs_error for r in ra.reports] == [
            r.mean_abs_error for r in rb.reports
        ]
