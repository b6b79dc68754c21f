"""T5 — fleet-scaling throughput: scalar policy loop vs batch engine.

Extension claim (the road to "millions of streams"): stepping every stream
through its own Python-loop ``DualKalmanPolicy`` makes fleet wall-clock
grow linearly with fleet size, while the vectorized
:class:`~repro.core.manager.FleetEngine` steps the whole fleet per tick as
batched linear algebra — same suppression decisions, same messages, same
served values — and sustains an order of magnitude more stream-ticks/sec
at fleet sizes of a few hundred and beyond.  The two paths are asserted
message-identical on every cell before any timing is trusted.
"""

import os
import time

import numpy as np

from repro.core.manager import FleetEngine, _stack_fleet
from repro.core.precision import AbsoluteBound
from repro.core.session import DualKalmanPolicy
from repro.experiments.figures import ExperimentTable
from repro.experiments.quickmode import QUICK, q
from repro.kalman import models
from repro.streams.synthetic import RandomWalkStream

# (fleet size, main-phase ticks): tick counts shrink as fleets grow so the
# scalar reference stays affordable; throughput normalizes by both.
FLEET_GRID = q([(16, 1500), (256, 400), (4096, 40)], [(8, 200), (32, 120)])
DELTA = 1.0


def _build_fleet(n_streams: int, n_ticks: int, seed: int = 17):
    rng = np.random.default_rng(seed)
    sigmas = np.geomspace(0.2, 3.0, n_streams)
    model_list, readings_per_stream = [], []
    for sigma in sigmas:
        stream = RandomWalkStream(
            step_sigma=float(sigma),
            measurement_sigma=float(sigma) * 0.25,
            seed=int(rng.integers(1 << 30)),
        )
        model_list.append(
            models.random_walk(
                process_noise=float(sigma) ** 2,
                measurement_sigma=float(sigma) * 0.25,
            )
        )
        readings_per_stream.append(stream.take(n_ticks))
    return model_list, readings_per_stream


def _run_scalar(model_list, readings_per_stream):
    messages = 0
    for model, readings in zip(model_list, readings_per_stream):
        policy = DualKalmanPolicy(model, AbsoluteBound(DELTA))
        for reading in readings:
            messages += policy.tick(reading).sent
    return messages


def _run_batch(model_list, readings_per_stream):
    # Matrix stacking is part of the batch path's honest cost.
    values, _ = _stack_fleet(readings_per_stream, 1)
    engine = FleetEngine(model_list, np.full(len(model_list), DELTA))
    trace = engine.run(values)
    return int(trace.sent.sum())


def fleet_scaling_table() -> tuple[ExperimentTable, dict[int, float]]:
    table = ExperimentTable(
        experiment_id="T5",
        title="Fleet-scaling throughput (stream-ticks/sec), scalar vs batch",
        headers=[
            "N streams",
            "ticks",
            "scalar kticks/s",
            "batch kticks/s",
            "speedup",
            "messages",
        ],
    )
    speedups: dict[int, float] = {}
    for n_streams, n_ticks in FLEET_GRID:
        model_list, readings_per_stream = _build_fleet(n_streams, n_ticks)
        t0 = time.perf_counter()
        scalar_msgs = _run_scalar(model_list, readings_per_stream)
        t1 = time.perf_counter()
        batch_msgs = _run_batch(model_list, readings_per_stream)
        t2 = time.perf_counter()
        assert scalar_msgs == batch_msgs, (
            f"backends disagree at N={n_streams}: {scalar_msgs} != {batch_msgs}"
        )
        scalar_tps = n_streams * n_ticks / (t1 - t0)
        batch_tps = n_streams * n_ticks / (t2 - t1)
        speedups[n_streams] = batch_tps / scalar_tps
        table.rows.append(
            [
                n_streams,
                n_ticks,
                round(scalar_tps / 1e3, 1),
                round(batch_tps / 1e3, 1),
                round(batch_tps / scalar_tps, 1),
                batch_msgs,
            ]
        )
    return table, speedups


def test_table5_fleet_scaling(benchmark, record_result):
    table, speedups = benchmark.pedantic(fleet_scaling_table, rounds=1, iterations=1)
    if not QUICK:
        # Acceptance: the batch engine is at least 5x the scalar path at
        # 256 streams, and keeps scaling at 4096.
        assert speedups[256] >= 5.0, speedups
        assert speedups[4096] >= 5.0, speedups
    record_result(
        "T5_fleet_scaling",
        table.render(),
        params={
            "fleet_grid": [list(cell) for cell in FLEET_GRID],
            "delta": DELTA,
            "host_cores": os.cpu_count() or 1,
        },
        headline={"speedups": {str(n): round(s, 2) for n, s in speedups.items()}},
    )
