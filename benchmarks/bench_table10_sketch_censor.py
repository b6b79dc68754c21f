"""T10 — sketched & censored updates: throughput headroom vs delivered precision.

Extension claim (Berberidis & Giannakis-style reduced-complexity Kalman
tracking, applied to the fleet engine): for wide measurement vectors the
per-tick batched solve is cubic in ``dim_z``, so projecting measurements
through a seeded random sketch — and skipping updates whose normalized
innovation says they carry almost no information (censoring) — buys
multiples of throughput at a quantified, bounded precision penalty.

The grid sweeps sketch dimension and censor threshold over one wide
fleet (``dim_z=8``) and reports stream-ticks/sec plus delivered
precision (mean |served - truth| in measurement space).  Two contracts
are gated, not just reported:

* **Exact recovery is bitwise**: the ``sketch dim == dim_z, censor 0``
  cell must reproduce the plain exact engine's served trace
  byte-for-byte (asserted in both quick and full mode).
* **Throughput headroom** (full mode): the working approximate cell
  (sketch dim 2 + censoring) must clear 2x the exact path's throughput
  at N=100k.
"""

import time

import numpy as np

from repro.core.manager import FleetEngine
from repro.experiments.figures import ExperimentTable
from repro.experiments.quickmode import QUICK, q
from repro.kalman import SketchConfig
from repro.kalman.models import ProcessModel

N_STREAMS = q(100_000, 2_000)
N_TICKS = q(40, 12)
DIM_Z = 8
DELTA = 0.5
PROCESS_SIGMA = 0.4
MEAS_SIGMA = 0.6

# (label, sketch dim or None, censor threshold).  The dim-8 cell is the
# exact-recovery pin; dim 2 + threshold 1.0 is the headline working point.
GRID = [
    ("exact", None, 0.0),
    ("recover", DIM_Z, 0.0),
    ("sketch4", 4, 0.0),
    ("sketch2", 2, 0.0),
    ("censor", None, 1.0),
    ("sketch2+censor", 2, 1.0),
]


def _wide_model() -> ProcessModel:
    return ProcessModel(
        name="wide",
        F=np.eye(1),
        H=np.ones((DIM_Z, 1)),
        Q=np.eye(1) * PROCESS_SIGMA**2,
        R=np.eye(DIM_Z) * MEAS_SIGMA**2,
        P0=np.eye(1),
    )


def _generate_fleet(seed: int = 23):
    """Truth random walk + noisy wide measurements, all pre-generated so
    the timed region is purely engine stepping."""
    rng = np.random.default_rng(seed)
    truth = np.cumsum(
        rng.normal(0.0, PROCESS_SIGMA, size=(N_TICKS, N_STREAMS)), axis=0
    )
    values = truth[:, :, None] + rng.normal(
        0.0, MEAS_SIGMA, size=(N_TICKS, N_STREAMS, DIM_Z)
    )
    return truth, values


def _run_cell(values, truth, sketch_dim, threshold):
    models = [_wide_model()] * N_STREAMS
    deltas = np.full(N_STREAMS, DELTA)
    sketch = None if sketch_dim is None else SketchConfig(dim=sketch_dim)
    engine = FleetEngine(models, deltas, sketch=sketch, censor_threshold=threshold)
    t0 = time.perf_counter()
    trace = engine.run(values)
    elapsed = time.perf_counter() - t0
    err = np.abs(trace.served - truth[:, :, None])
    mae = float(np.nanmean(err))
    censored_frac = float(engine.filters.n_censored.sum()) / (N_STREAMS * N_TICKS)
    tps = N_STREAMS * N_TICKS / elapsed
    return trace, tps, mae, censored_frac


def sketch_censor_table():
    truth, values = _generate_fleet()
    table = ExperimentTable(
        experiment_id="T10",
        title=(
            f"Sketched/censored updates, N={N_STREAMS} wide streams "
            f"(dim_z={DIM_Z}), {N_TICKS} ticks, delta={DELTA}"
        ),
        headers=[
            "cell",
            "sketch dim",
            "censor tau",
            "kticks/s",
            "speedup",
            "served MAE",
            "precision penalty",
            "censored %",
        ],
    )
    cells = {}
    exact_trace = exact_tps = exact_mae = None
    for label, sketch_dim, threshold in GRID:
        trace, tps, mae, censored_frac = _run_cell(
            values, truth, sketch_dim, threshold
        )
        if label == "exact":
            exact_trace, exact_tps, exact_mae = trace, tps, mae
        if label == "recover":
            # The exact-recovery contract, asserted in every mode: a
            # sketch at full dim + zero threshold IS the exact engine.
            np.testing.assert_array_equal(trace.served, exact_trace.served)
            np.testing.assert_array_equal(trace.sent, exact_trace.sent)
        speedup = tps / exact_tps
        penalty = mae / exact_mae
        cells[label] = {
            "kticks_per_s": round(tps / 1e3, 1),
            "speedup": round(speedup, 2),
            "served_mae": round(mae, 5),
            "precision_penalty": round(penalty, 3),
            "censored_frac": round(censored_frac, 4),
        }
        table.rows.append(
            [
                label,
                "-" if sketch_dim is None else sketch_dim,
                threshold,
                round(tps / 1e3, 1),
                round(speedup, 2),
                round(mae, 5),
                round(penalty, 3),
                round(100 * censored_frac, 1),
            ]
        )
    return table, cells


def test_table10_sketch_censor(benchmark, record_result):
    table, cells = benchmark.pedantic(sketch_censor_table, rounds=1, iterations=1)
    # Sanity in every mode: approximation must not wreck tracking — the
    # working point stays within 2x the exact path's served error.
    assert cells["sketch2+censor"]["precision_penalty"] <= 2.0, cells
    if not QUICK:
        # Acceptance: >= 2x throughput headroom at N=100k from the
        # working approximate configuration.
        assert cells["sketch2+censor"]["speedup"] >= 2.0, cells
        assert cells["sketch2"]["speedup"] >= 1.5, cells
    record_result(
        "T10_sketch_censor",
        table.render(),
        params={
            "n_streams": N_STREAMS,
            "n_ticks": N_TICKS,
            "dim_z": DIM_Z,
            "delta": DELTA,
            "process_sigma": PROCESS_SIGMA,
            "meas_sigma": MEAS_SIGMA,
            "grid": [[label, dim, tau] for label, dim, tau in GRID],
        },
        headline={
            "speedup_working_point": cells["sketch2+censor"]["speedup"],
            "precision_penalty_working_point": cells["sketch2+censor"][
                "precision_penalty"
            ],
            "exact_recovery": "bitwise (recover cell vs exact cell)",
            "cells": cells,
        },
    )
