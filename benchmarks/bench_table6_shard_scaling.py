"""T6 — shard-scaling throughput: one batch engine vs the sharded runtime.

Extension claim (the scaling axis after vectorization): the batch
:class:`~repro.core.manager.FleetEngine` made fleet stepping a few BLAS
calls per tick; :class:`~repro.parallel.runtime.ShardedFleetRuntime`
spreads those calls across CPU cores by running one engine per shard in a
process-pool worker.  Because stream filters are independent, every cell
is asserted *bitwise* identical to the single-engine reference — served
values, send masks, message counts — before any timing is trusted, so the
shard count is a pure wall-clock knob.

Dispatch is zero-copy: shared-memory segments hold every array and only
header tuples cross the pipe.

The speedup acceptance gate only fires on machines with enough cores
(and never in quick mode): on a starved box the honest result is a
speedup below 1 — pool start-up and dispatch overhead with nothing to
run in parallel — and the table records exactly that, with the skip
reason spelled out in the sidecar (``gate_skip_reason``) so a reader of
committed results can tell "gate passed" from "gate never armed".
"""

import os
import time

import numpy as np

from repro.core.manager import FleetEngine
from repro.experiments.figures import ExperimentTable
from repro.experiments.quickmode import QUICK, q
from repro.kalman import models
from repro.parallel import ShardedFleetRuntime

N_STREAMS = q(4096, 256)
N_TICKS = q(40, 20)
SHARD_GRID = q([1, 2, 4, 8], [1, 2])
DELTA = 1.0


def _build_fleet(n_streams: int, n_ticks: int, seed: int = 23):
    rng = np.random.default_rng(seed)
    sigmas = np.geomspace(0.2, 3.0, n_streams)
    model_list = [
        models.random_walk(
            process_noise=float(s) ** 2, measurement_sigma=float(s) * 0.25
        )
        for s in sigmas
    ]
    walks = np.cumsum(
        rng.normal(0, sigmas[None, :, None], size=(n_ticks, n_streams, 1)), axis=0
    )
    values = walks + rng.normal(0, 0.25 * sigmas[None, :, None], size=walks.shape)
    return model_list, values


def _gate_skip_reason() -> str | None:
    """Why the speedup gate is not armed, or ``None`` when it is."""
    cores = os.cpu_count() or 1
    if QUICK:
        return "quick mode: grid too small for a meaningful speedup gate"
    if cores < 4:
        return (
            f"host has {cores} CPU core(s); the 4-worker speedup gate "
            f"needs >= 4 to be meaningful"
        )
    return None


def shard_scaling_table() -> tuple[ExperimentTable, dict[int, float]]:
    model_list, values = _build_fleet(N_STREAMS, N_TICKS)
    deltas = np.full(N_STREAMS, DELTA)

    t0 = time.perf_counter()
    reference = FleetEngine(model_list, deltas).run(values)
    single_s = time.perf_counter() - t0
    ref_messages = int(reference.sent.sum())

    table = ExperimentTable(
        experiment_id="T6",
        title=(
            f"Shard-scaling wall clock, N={N_STREAMS} streams x {N_TICKS} ticks "
            f"(single batch engine: {single_s * 1e3:.0f} ms, host cores: "
            f"{os.cpu_count()})"
        ),
        headers=["shards", "workers", "wall ms", "speedup", "messages", "equal"],
    )
    speedups: dict[int, float] = {}
    for n_shards in SHARD_GRID:
        with ShardedFleetRuntime(
            model_list, deltas, n_shards=n_shards, executor="process"
        ) as runtime:
            t0 = time.perf_counter()
            trace = runtime.run(values)
            wall_s = time.perf_counter() - t0
        np.testing.assert_array_equal(trace.served, reference.served)
        np.testing.assert_array_equal(trace.sent, reference.sent)
        assert int(trace.sent.sum()) == ref_messages
        speedups[n_shards] = single_s / wall_s
        table.rows.append(
            [
                n_shards,
                runtime.max_workers,
                round(wall_s * 1e3, 1),
                round(speedups[n_shards], 2),
                ref_messages,
                "bitwise",
            ]
        )
    skip = _gate_skip_reason()
    if skip is not None:
        table.notes.append(f"speedup gate skipped: {skip}")
    return table, speedups


def test_table6_shard_scaling(benchmark, record_result):
    table, speedups = benchmark.pedantic(shard_scaling_table, rounds=1, iterations=1)
    cores = os.cpu_count() or 1
    skip_reason = _gate_skip_reason()
    if skip_reason is None:
        # Acceptance (only meaningful with real parallel hardware): four
        # workers cut the N=4096 run at least in half.
        assert speedups[4] >= 2.0, speedups
    headline = {
        "speedups": {str(n): round(s, 3) for n, s in speedups.items()},
        "speedup_gate_active": skip_reason is None,
    }
    if skip_reason is not None:
        headline["gate_skip_reason"] = skip_reason
    record_result(
        "T6_shard_scaling",
        table.render(),
        params={
            "n_streams": N_STREAMS,
            "n_ticks": N_TICKS,
            "shard_grid": list(SHARD_GRID),
            "delta": DELTA,
            "host_cores": cores,
        },
        headline=headline,
    )
