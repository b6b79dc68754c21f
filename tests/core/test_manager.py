"""Tests for the fleet resource manager."""

import numpy as np
import pytest

from repro.core.manager import ManagedStream, StreamResourceManager
from repro.errors import AllocationError, ConfigurationError
from repro.faults import FaultPlan
from repro.kalman.models import random_walk
from repro.metrics.report import render_recovery_table
from repro.streams.replay import record
from repro.streams.synthetic import RandomWalkStream


def _fleet(n=4, ticks=2500):
    sigmas = np.geomspace(0.2, 2.0, n)
    fleet = []
    for i, sigma in enumerate(sigmas):
        stream = RandomWalkStream(
            step_sigma=float(sigma), measurement_sigma=0.1 * float(sigma), seed=100 + i
        )
        fleet.append(
            ManagedStream(
                stream_id=f"s{i}",
                recording=record(stream, ticks),
                model=random_walk(
                    process_noise=float(sigma) ** 2, measurement_sigma=0.1 * float(sigma)
                ),
            )
        )
    return fleet


class TestProbing:
    def test_probe_fits_one_curve_per_stream(self):
        manager = StreamResourceManager(_fleet(), probe_ticks=500)
        curves = manager.probe()
        assert len(curves) == 4

    def test_volatile_streams_have_higher_rate_curves(self):
        manager = StreamResourceManager(_fleet(), probe_ticks=800)
        curves = manager.probe()
        # At the same delta the most volatile stream costs the most.
        rates = [c.rate(0.5) for c in curves]
        assert rates[-1] > rates[0]

    def test_probe_cached(self):
        manager = StreamResourceManager(_fleet(), probe_ticks=500)
        assert manager.probe() is manager.probe()

    def test_scales_reflect_volatility(self):
        manager = StreamResourceManager(_fleet(), probe_ticks=500)
        scales = manager.scales
        assert scales[-1] > scales[0]

    def test_short_recording_rejected(self):
        fleet = _fleet(ticks=100)
        manager = StreamResourceManager(fleet, probe_ticks=500)
        with pytest.raises(ConfigurationError):
            manager.probe()


class TestAllocationAndRun:
    def test_unknown_method_rejected(self):
        manager = StreamResourceManager(_fleet(), probe_ticks=500)
        with pytest.raises(AllocationError):
            manager.allocate(0.5, method="magic")

    def test_run_respects_budget_approximately(self):
        manager = StreamResourceManager(_fleet(), probe_ticks=500)
        result = manager.run(0.4, method="waterfilling", run_ticks=1500)
        # Rate-curve fits are approximate; actual spend within 2x predicted.
        assert result.total_rate < 0.8

    def test_waterfilling_beats_uniform_error(self):
        manager = StreamResourceManager(_fleet(6), probe_ticks=800)
        scales = np.array(manager.scales)
        uni = manager.run(0.3, method="uniform", run_ticks=1500)
        wf = manager.run(0.3, method="waterfilling", run_ticks=1500)
        uni_err = np.mean([r.mean_abs_error for r in uni.reports] / scales)
        wf_err = np.mean([r.mean_abs_error for r in wf.reports] / scales)
        assert wf_err < uni_err

    def test_reports_per_stream(self):
        manager = StreamResourceManager(_fleet(), probe_ticks=500)
        result = manager.run(0.4, run_ticks=1000)
        assert len(result.reports) == 4
        assert all(r.ticks == 1000 for r in result.reports)
        assert result.total_messages == sum(r.messages for r in result.reports)

    def test_higher_budget_gives_lower_error(self):
        manager = StreamResourceManager(_fleet(), probe_ticks=500)
        lo = manager.run(0.1, method="waterfilling", run_ticks=1500)
        hi = manager.run(0.8, method="waterfilling", run_ticks=1500)
        assert hi.mean_error() < lo.mean_error()
        assert hi.total_messages > lo.total_messages

    def test_duplicate_stream_ids_rejected(self):
        fleet = _fleet(2)
        fleet[1].stream_id = fleet[0].stream_id
        with pytest.raises(ConfigurationError):
            StreamResourceManager(fleet)

    def test_non_positive_weight_rejected(self):
        fleet = _fleet(1)
        with pytest.raises(ConfigurationError):
            ManagedStream(
                stream_id="x",
                recording=fleet[0].recording,
                model=fleet[0].model,
                weight=0.0,
            )


BACKENDS = ["scalar", "batch", "sharded"]


RECOVERY_HEADER = [
    "stream", "delta", "ticks", "degraded%", "unflagged", "recoveries",
    "mean_rec_ticks", "heartbeats", "nacks", "resyncs", "bytes",
]


class TestSupervisedRun:
    def test_burst_loss_is_recovered_and_always_flagged(self):
        manager = StreamResourceManager(_fleet(n=3, ticks=900), probe_ticks=400)
        clean = manager.run_supervised(0.3)
        lossy = manager.run_supervised(
            0.3, plan=FaultPlan(seed=5, burst_loss_rate=0.2, burst_mean=4.0)
        )
        assert clean.scenario == "fault-free"
        assert clean.recovery.recoveries == 0
        assert clean.degraded_fraction == 0.0
        assert lossy.scenario.startswith("gilbert_elliott")
        assert lossy.recovery.recoveries > 0
        assert lossy.degraded_fraction > 0.0
        for result in (clean, lossy):
            assert result.total_unflagged == 0
            assert [r.ticks for r in result.reports] == [500, 500, 500]
            header, _, *rows = render_recovery_table(result.reports).splitlines()
            assert [h.strip() for h in header.split("|")] == RECOVERY_HEADER
            assert [row.split()[0] for row in rows] == ["s0", "s1", "s2"]
        assert lossy.total_bytes > clean.total_bytes


class TestMalformedInputDiagnosedAtConstruction:
    """Bad knobs are refused once, by name, identically on every backend —
    not at the first probe(), and never by a raw arithmetic error."""

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("probe_ticks", [0, -5])
    def test_probe_ticks_below_one_rejected(self, backend, probe_ticks):
        with pytest.raises(ConfigurationError, match=f"probe_ticks.*{probe_ticks}"):
            StreamResourceManager(
                _fleet(ticks=50), probe_ticks=probe_ticks, backend=backend
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unknown_shard_executor_rejected(self, backend):
        with pytest.raises(ConfigurationError, match="carrier-pigeon"):
            StreamResourceManager(
                _fleet(ticks=50), backend=backend, shard_executor="carrier-pigeon"
            )

    def test_thread_executor_no_longer_accepted(self):
        with pytest.raises(ConfigurationError, match="thread"):
            StreamResourceManager(
                _fleet(ticks=50), backend="sharded", shard_executor="thread"
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_unknown_kernel_rejected(self, backend):
        # There is one compute kernel and no knob: every name is unknown.
        with pytest.raises(TypeError, match="kernel"):
            StreamResourceManager(_fleet(ticks=50), backend=backend, kernel="numpy")

    def test_shard_transport_knob_is_gone(self):
        with pytest.raises(TypeError, match="shard_transport"):
            StreamResourceManager(_fleet(ticks=50), shard_transport="shm")

    @pytest.mark.parametrize("backend", ["scalar", "batch"])
    @pytest.mark.parametrize("run_ticks", [0, -3])
    def test_non_positive_run_ticks_rejected(self, backend, run_ticks):
        manager = StreamResourceManager(
            _fleet(ticks=700), probe_ticks=400, backend=backend
        )
        with pytest.raises(ConfigurationError, match=f"run_ticks.*{run_ticks}"):
            manager.run(0.3, run_ticks=run_ticks)
        with pytest.raises(ConfigurationError, match=f"run_ticks.*{run_ticks}"):
            manager.run_supervised(0.3, run_ticks=run_ticks)
