"""T7 — durability cost: checkpoint overhead and recovery time.

Robustness claim: durable checkpointing is cheap enough to leave on
(well under 5% of run wall-clock at the default interval), and staged
crash recovery restores a fleet to *bitwise* continuation — the resumed
run's epochs equal the uninterrupted reference's, byte for byte.

Two measurements:

* **Checkpoint overhead** — ``run_dynamic`` on a 64-stream batch fleet
  with no store vs committing every {4, 1} epochs (fsync on, the real
  durability configuration).  The per-write cost is taken from the
  ``checkpoint_write`` span so the overhead column is an actual
  accounting of time spent in the store, not the difference of two noisy
  wall-clocks (both are reported).

* **Recovery time** — a coordinator restart against the sharded runtime:
  checkpoint mid-run, build a fresh runtime, time
  ``recover_from_checkpoint`` (the staged inspect → read → verify →
  rehydrate → swap walk), then prove the continuation bitwise-equal to
  the uninterrupted reference.
"""

import os
import time
from pathlib import Path

import numpy as np

from repro.core.manager import FleetEngine, ManagedStream, StreamResourceManager
from repro.durability import CheckpointStore
from repro.experiments.figures import ExperimentTable
from repro.experiments.quickmode import QUICK, q
from repro.kalman.models import random_walk
from repro.obs.telemetry import Telemetry
from repro.parallel import ShardedFleetRuntime
from repro.streams.replay import record
from repro.streams.synthetic import RandomWalkStream

N_STREAMS = q(64, 12)
PROBE_TICKS = q(1000, 200)
EPOCH_TICKS = q(2000, 200)
N_EPOCHS = q(6, 3)
INTERVALS = (None, 4, 1)  # None = checkpointing off (the baseline)
BUDGET = 0.3
OVERHEAD_GATE_PCT = 5.0


def _fleet(n=N_STREAMS, seed0=500):
    total = PROBE_TICKS + N_EPOCHS * EPOCH_TICKS
    sigmas = np.geomspace(0.2, 2.0, n)
    out = []
    for i, sigma in enumerate(sigmas):
        sigma = float(sigma)
        stream = RandomWalkStream(
            step_sigma=sigma, measurement_sigma=0.1 * sigma, seed=seed0 + i
        )
        out.append(
            ManagedStream(
                stream_id=f"s{i}",
                recording=record(stream, total),
                model=random_walk(
                    process_noise=sigma**2, measurement_sigma=0.1 * sigma
                ),
            )
        )
    return out


def _epoch_key(e):
    return (e.epoch, e.messages, e.deltas.tobytes(), e.mean_abs_errors.tobytes())


def _run_once(root: Path, every):
    tel = Telemetry()
    manager = StreamResourceManager(
        _fleet(), probe_ticks=PROBE_TICKS, backend="batch", telemetry=tel
    )
    store = (
        CheckpointStore(root / f"every-{every}", retain=3, fsync=True)
        if every is not None
        else None
    )
    t0 = time.perf_counter()
    result = manager.run_dynamic(
        BUDGET,
        epoch_ticks=EPOCH_TICKS,
        checkpoint_store=store,
        checkpoint_every=every if every is not None else 4,
    )
    wall_s = time.perf_counter() - t0
    span = tel.spans.get("checkpoint_write")
    ckpt_s = span.total_s if span is not None else 0.0
    n_writes = span.count if span is not None else 0
    return result, wall_s, ckpt_s, n_writes


def overhead_table(root: Path):
    table = ExperimentTable(
        experiment_id="T7a",
        title=(
            f"Durable checkpoint overhead, N={N_STREAMS} streams x "
            f"{N_EPOCHS} epochs x {EPOCH_TICKS} ticks (batch backend, fsync on)"
        ),
        headers=[
            "interval", "writes", "wall ms", "ckpt ms", "overhead %", "equal"
        ],
    )
    baseline_epochs = None
    overheads: dict[str, float] = {}
    for every in INTERVALS:
        result, wall_s, ckpt_s, n_writes = _run_once(root, every)
        epochs = list(map(_epoch_key, result.epochs))
        if baseline_epochs is None:
            baseline_epochs = epochs
            equal = "reference"
        else:
            # Checkpointing must be observationally free: identical
            # allocations, messages and errors, byte for byte.
            assert epochs == baseline_epochs
            equal = "bitwise"
        pct = 100.0 * ckpt_s / wall_s if wall_s else 0.0
        overheads["off" if every is None else str(every)] = pct
        table.rows.append(
            [
                "off" if every is None else every,
                n_writes,
                round(wall_s * 1e3, 1),
                round(ckpt_s * 1e3, 2),
                round(pct, 3),
                equal,
            ]
        )
    return table, overheads


def recovery_table(root: Path):
    n = N_STREAMS
    n_ticks = q(400, 120)
    cut = n_ticks // 2
    rng = np.random.default_rng(11)
    sigmas = np.geomspace(0.2, 2.0, n)
    model_list = [
        random_walk(process_noise=float(s) ** 2, measurement_sigma=0.25 * float(s))
        for s in sigmas
    ]
    walks = np.cumsum(
        rng.normal(0, sigmas[None, :, None], size=(n_ticks, n, 1)), axis=0
    )
    values = walks + rng.normal(0, 0.25 * sigmas[None, :, None], size=walks.shape)
    deltas = np.full(n, 1.0)

    reference = FleetEngine(model_list, deltas).run(values)
    store = CheckpointStore(root / "recovery", retain=3, fsync=True)
    with ShardedFleetRuntime(
        model_list, deltas, n_shards=2, executor="serial"
    ) as rt:
        rt.run(values[:cut])
        info = rt.checkpoint(store)

    # Coordinator restart: a fresh runtime recovers from disk, resumes.
    with ShardedFleetRuntime(
        model_list, deltas, n_shards=2, executor="serial"
    ) as rt2:
        t0 = time.perf_counter()
        report = rt2.recover_from_checkpoint(store)
        recovery_s = time.perf_counter() - t0
        trace = rt2.run(values[cut:])
    assert report.succeeded and report.generation == info.generation
    np.testing.assert_array_equal(trace.served, reference.served[cut:])
    np.testing.assert_array_equal(trace.sent, reference.sent[cut:])

    table = ExperimentTable(
        experiment_id="T7b",
        title=(
            f"Staged recovery to bitwise resume, N={n} streams "
            f"(checkpoint at tick {cut}, payload {info.payload_bytes} B)"
        ),
        headers=["generation", "payload B", "recovery ms", "resume"],
    )
    table.rows.append(
        [
            info.generation,
            info.payload_bytes,
            round(recovery_s * 1e3, 2),
            "bitwise",
        ]
    )
    return table, recovery_s


def test_table7_durability(benchmark, record_result, tmp_path):
    def run():
        return overhead_table(tmp_path), recovery_table(tmp_path)

    (t7a, overheads), (t7b, recovery_s) = benchmark.pedantic(
        run, rounds=1, iterations=1
    )
    if not QUICK:
        # Acceptance: at the default interval durable checkpointing costs
        # under 5% of the run's wall-clock.
        assert overheads["4"] < OVERHEAD_GATE_PCT, overheads
    text = t7a.render() + "\n\n" + t7b.render()
    record_result(
        "T7_durability",
        text,
        params={
            "n_streams": N_STREAMS,
            "probe_ticks": PROBE_TICKS,
            "epoch_ticks": EPOCH_TICKS,
            "n_epochs": N_EPOCHS,
            "intervals": ["off" if i is None else i for i in INTERVALS],
            "budget": BUDGET,
            "fsync": True,
            "host_cores": os.cpu_count() or 1,
        },
        headline={
            "overhead_pct": {k: round(v, 4) for k, v in overheads.items()},
            "recovery_ms": round(recovery_s * 1e3, 3),
            "overhead_gate_active": not QUICK,
            "gate_pct": OVERHEAD_GATE_PCT,
        },
    )
