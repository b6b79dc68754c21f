"""Tests for the manager's adaptive-policy mode and report arithmetic."""

import numpy as np

from repro.core.manager import ManagedStream, StreamReport, StreamResourceManager
from repro.kalman.models import random_walk
from repro.streams.replay import record
from repro.streams.synthetic import RandomWalkStream


def _fleet(total=2200):
    fleet = []
    for i, sigma in enumerate((0.5, 2.0)):
        stream = RandomWalkStream(
            step_sigma=sigma, measurement_sigma=0.2 * sigma, seed=80 + i
        )
        fleet.append(
            ManagedStream(
                stream_id=f"s{i}",
                recording=record(stream, total),
                # Deliberately mis-specified R so the adaptive mode has
                # something to fix.
                model=random_walk(process_noise=sigma**2, measurement_sigma=0.01),
            )
        )
    return fleet


class TestAdaptiveMode:
    def test_adaptive_manager_runs_and_respects_structure(self):
        manager = StreamResourceManager(_fleet(), probe_ticks=600, adaptive=True)
        result = manager.run(0.3, run_ticks=1500)
        assert len(result.reports) == 2
        assert all(np.isfinite(r.mean_abs_error) for r in result.reports)

    def test_adaptive_flag_changes_policy_construction(self):
        def first_policy(manager):
            engine = manager._make_engine([manager.streams[0].model], np.ones(1))
            return engine.policies[0]

        manager = StreamResourceManager(_fleet(), probe_ticks=600, adaptive=True)
        assert first_policy(manager).source.adaptation is not None
        plain = StreamResourceManager(_fleet(), probe_ticks=600, adaptive=False)
        assert first_policy(plain).source.adaptation is None


class TestReportArithmetic:
    def test_message_rate(self):
        report = StreamReport(
            stream_id="s",
            delta=1.0,
            messages=50,
            ticks=1000,
            mean_abs_error=0.5,
            max_abs_error=1.0,
        )
        assert report.message_rate == 0.05

    def test_zero_ticks_rate(self):
        report = StreamReport(
            stream_id="s",
            delta=1.0,
            messages=0,
            ticks=0,
            mean_abs_error=float("nan"),
            max_abs_error=float("nan"),
        )
        assert report.message_rate == 0.0
