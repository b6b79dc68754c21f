"""A vectorized bank of independent linear Kalman filters.

:class:`BatchKalmanFilter` stacks N independent low-dimensional filters
into ``(N, d, d)`` arrays and performs predict / Joseph-form update /
re-symmetrize as single batched matmul operations, replacing N Python-loop
iterations with a handful of BLAS calls.  This is the engine behind the
fleet fast path (see :class:`repro.core.manager.FleetEngine`): large-scale
Kalman workloads live or die on batched linear algebra, and stepping a
fleet per tick instead of a stream per tick is what makes probe/allocate/run
wall-clock flat in fleet size.

The math is op-for-op the same as :class:`repro.kalman.filter.KalmanFilter`
— same Joseph stabilized update, same re-symmetrization, same solve — so a
batch of N filters matches N scalar filters step-for-step to within
floating-point round-off (property-tested at atol 1e-9; see
``tests/properties/test_batch_equivalence.py``).

Filters of different state/measurement dimensions can share one batch:
members are grouped internally into homogeneous *lanes* (one stacked array
set per ``(dim_x, dim_z)`` pair), so a mixed fleet pays one batched op per
distinct shape rather than one op per stream.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError, DimensionError
from repro.kalman.kernels import predict_lane, update_lane
from repro.kalman.models import ProcessModel
from repro.kalman.sketch import SketchConfig, censor_keep, sketch_lane

__all__ = ["BatchKalmanFilter"]


class _Lane:
    """One homogeneous ``(dim_x, dim_z)`` group of stacked filters."""

    __slots__ = (
        "indices", "dim_x", "dim_z", "F", "H", "Q", "R", "x", "P",
        "Phi", "Hs", "Rs",
    )

    def __init__(
        self,
        indices: np.ndarray,
        models: list[ProcessModel],
        sketch: SketchConfig | None = None,
    ):
        self.indices = indices
        self.dim_x = models[0].dim_x
        self.dim_z = models[0].dim_z
        # One model object behind every row (a homogeneous fleet built as
        # ``[model] * n``) is one repeat per matrix, not n reads and a stack;
        # either way each block is a fresh C-contiguous array of its own.
        shared = all(m is models[0] for m in models)

        def stack(name: str) -> np.ndarray:
            if shared:
                return np.repeat(getattr(models[0], name)[None], len(models), axis=0)
            return np.stack([getattr(m, name) for m in models])

        self.F = stack("F")
        self.H = stack("H")
        self.Q = stack("Q")
        self.R = stack("R")
        self.x = np.zeros((len(models), self.dim_x))
        self.P = stack("P0")
        # Sketched observation model (None when this lane stays exact).
        # H and R are static per filter, so the projection happens once
        # here and never on the per-tick path.
        self.Phi = self.Hs = self.Rs = None
        if sketch is not None:
            sketched = sketch_lane(self.H, self.R, sketch)
            if sketched is not None:
                self.Phi, self.Hs, self.Rs = sketched


class BatchKalmanFilter:
    """N independent linear Kalman filters advanced by batched linear algebra.

    The public API is fleet-indexed: measurements arrive as one
    ``(N, dim_z_max)`` float array (rows NaN-padded past each filter's own
    ``dim_z``), masks are ``(N,)`` booleans, and per-filter state is read
    back with :meth:`x_of` / :meth:`P_of`.

    Args:
        models: One :class:`~repro.kalman.models.ProcessModel` per filter.
        x0s: Optional initial state means, one per filter (``None`` entries
            start at zero like the scalar filter).
        sketch: Optional :class:`~repro.kalman.sketch.SketchConfig` —
            project each lane's measurements to ``sketch.dim`` components
            before the batched solve (lanes with ``dim_z <= sketch.dim``
            stay exact).  See :mod:`repro.kalman.sketch`.
        censor_threshold: Skip the measurement update for rows whose
            per-component normalized innovation is at or below this many
            sigmas (``0.0``, the default, disables censoring).  Censored
            filters coast predict-only; their covariances keep growing
            honestly and their skips are counted in :attr:`n_censored`.

    There is one update loop: a lane without a sketch skips the
    projection and a zero threshold skips the censor test, so whenever
    :attr:`approx` is ``False`` (which includes a sketch at least as wide
    as every lane) results are bitwise identical to a filter constructed
    without the knobs.
    """

    def __init__(
        self,
        models: Sequence[ProcessModel],
        x0s: Sequence[np.ndarray | None] | None = None,
        sketch: SketchConfig | None = None,
        censor_threshold: float = 0.0,
    ):
        models = list(models)
        if not models:
            raise ConfigurationError("BatchKalmanFilter needs at least one model")
        if x0s is not None and len(x0s) != len(models):
            raise ConfigurationError(
                f"got {len(models)} models but {len(x0s)} initial states"
            )
        if sketch is not None and not isinstance(sketch, SketchConfig):
            raise ConfigurationError(
                f"sketch must be a SketchConfig or None, got {type(sketch).__name__}"
            )
        censor_threshold = float(censor_threshold)
        if not np.isfinite(censor_threshold) or censor_threshold < 0.0:
            raise ConfigurationError(
                "censor_threshold must be a finite non-negative float, "
                f"got {censor_threshold!r}"
            )
        self.models = models
        self.n = len(models)
        self.dim_z_max = max(m.dim_z for m in models)
        self.dim_x_max = max(m.dim_x for m in models)
        self.sketch = sketch
        self.censor_threshold = censor_threshold
        self.n_predicts = np.zeros(self.n, dtype=int)
        self.n_updates = np.zeros(self.n, dtype=int)
        #: Measurement updates skipped by the censor test, per filter.
        self.n_censored = np.zeros(self.n, dtype=int)
        # {stream_group: count} censored since the last drain_censored().
        self._censored_pending: dict[str, int] = {}

        by_shape: dict[tuple[int, int], list[int]] = {}
        for i, m in enumerate(models):
            by_shape.setdefault((m.dim_x, m.dim_z), []).append(i)
        self._lanes: list[_Lane] = []
        # (lane index, position within lane) per filter, for x_of/P_of.
        self._where: list[tuple[int, int]] = [(-1, -1)] * self.n
        for shape, idx in sorted(by_shape.items()):
            indices = np.asarray(idx, dtype=int)
            lane = _Lane(indices, [models[i] for i in idx], sketch)
            for pos, i in enumerate(idx):
                self._where[i] = (len(self._lanes), pos)
            self._lanes.append(lane)
        #: True when any approximation is active (read-only: names the
        #: engine's step span and gates its censored-counter drain).
        self.approx = censor_threshold > 0.0 or any(
            lane.Phi is not None for lane in self._lanes
        )

        if x0s is not None:
            for i, x0 in enumerate(x0s):
                if x0 is None:
                    continue
                x0 = np.asarray(x0, dtype=float).reshape(-1)
                if x0.shape != (models[i].dim_x,):
                    raise DimensionError(
                        f"x0[{i}] must have shape ({models[i].dim_x},), got {x0.shape}"
                    )
                li, pos = self._where[i]
                self._lanes[li].x[pos] = x0

    # ------------------------------------------------------------------
    # Core cycle
    # ------------------------------------------------------------------
    def predict(self, mask: np.ndarray | None = None) -> None:
        """Advance selected filters one step (all of them when no mask).

        Identical per-filter math to :meth:`KalmanFilter.predict`:
        ``x = F x``, ``P = F P F' + Q``, re-symmetrize.  Unselected filters
        are left untouched (the fleet fast path predicts only warm
        members).
        """
        mask = self._as_mask(mask)
        for lane in self._lanes:
            sel = mask[lane.indices]
            if not sel.any():
                continue
            x_new, P_new = predict_lane(lane.F, lane.Q, lane.x, lane.P)
            if sel.all():
                lane.x, lane.P = x_new, P_new
            else:
                lane.x = np.where(sel[:, None], x_new, lane.x)
                lane.P = np.where(sel[:, None, None], P_new, lane.P)
        self.n_predicts[mask] += 1

    def update(self, zs: np.ndarray, mask: np.ndarray | None = None) -> None:
        """Fold measurements into selected filters (Joseph-form, batched).

        Per lane: gather the selected rows, project them through the
        lane's sketch (when it has one), censor rows whose normalized
        innovation falls below the threshold (when one is set), and run
        the lane update on the survivors only.  Censored rows keep their
        predicted mean and covariance — the bound widens honestly.

        Args:
            zs: ``(N, dim_z_max)`` measurement array; only the first
                ``dim_z`` columns of each selected row are read.
            mask: ``(N,)`` boolean selecting which filters receive an
                update this step (``None`` updates every filter).
        """
        zs = np.asarray(zs, dtype=float)
        if zs.shape != (self.n, self.dim_z_max):
            raise DimensionError(
                f"zs must have shape ({self.n}, {self.dim_z_max}), got {zs.shape}"
            )
        mask = self._as_mask(mask)
        censoring = self.censor_threshold > 0.0
        censored = None  # (N,) mask, allocated by the first censored row
        for lane in self._lanes:
            sel = mask[lane.indices]
            if not sel.any():
                continue
            if sel.all() and lane.Phi is None and not censoring:
                # Whole lane, nothing to project or censor: no gather/scatter.
                z = zs[lane.indices, : lane.dim_z]
                lane.x, lane.P = update_lane(lane.x, lane.P, lane.H, lane.R, z)
                continue
            li = np.nonzero(sel)[0]
            gidx = lane.indices[li]
            z = zs[gidx, : lane.dim_z]
            if lane.Phi is not None:
                # Batched (one gemm per row) rather than a single 2-D
                # gemm: per-row results must not depend on how many
                # rows share the call, or sharding would drift by ulps.
                z = (lane.Phi @ z[..., None])[..., 0]
                H, R = lane.Hs[li], lane.Rs[li]
            else:
                H, R = lane.H[li], lane.R[li]
            x, P = lane.x[li], lane.P[li]
            if censoring:
                keep = censor_keep(x, P, H, R, z, self.censor_threshold)
                if not keep.all():
                    n_cens = int(li.size - np.count_nonzero(keep))
                    group = f"{lane.dim_x}x{lane.dim_z}"
                    self._censored_pending[group] = (
                        self._censored_pending.get(group, 0) + n_cens
                    )
                    if censored is None:
                        censored = np.zeros(self.n, dtype=bool)
                    censored[gidx[~keep]] = True
                    li, z = li[keep], z[keep]
                    x, P, H, R = x[keep], P[keep], H[keep], R[keep]
            if li.size:
                lane.x[li], lane.P[li] = update_lane(x, P, H, R, z)
        if censored is None:
            self.n_updates[mask] += 1
        else:
            self.n_updates[mask & ~censored] += 1
            self.n_censored[censored] += 1

    def drain_censored(self) -> dict[str, int]:
        """Censored-update counts per ``"{dim_x}x{dim_z}"`` group since
        the last drain (telemetry feed; resets the pending tally)."""
        pending, self._censored_pending = self._censored_pending, {}
        return pending

    def step(self, zs: np.ndarray, update_mask: np.ndarray | None = None) -> None:
        """One full cycle for every filter: predict all, update the masked.

        Mirrors N calls to :meth:`KalmanFilter.step`: a filter outside
        ``update_mask`` coasts on its model (``step(None)``), one inside
        folds its row of ``zs`` in.
        """
        self.predict()
        self.update(zs, update_mask)

    # ------------------------------------------------------------------
    # Read-only views
    # ------------------------------------------------------------------
    def measurement_estimates(self) -> np.ndarray:
        """``H x`` per filter as ``(N, dim_z_max)``, NaN-padded past dim_z."""
        out = np.full((self.n, self.dim_z_max), np.nan)
        for lane in self._lanes:
            out[lane.indices, : lane.dim_z] = (lane.H @ lane.x[..., None])[..., 0]
        return out

    def predicted_measurements(self, steps: int = 1) -> np.ndarray:
        """Measurements predicted ``steps`` ticks ahead, without mutating.

        ``(N, dim_z_max)`` NaN-padded — the batched analogue of
        :meth:`KalmanFilter.predicted_measurement`.
        """
        if steps < 0:
            raise ValueError(f"steps must be non-negative, got {steps}")
        out = np.full((self.n, self.dim_z_max), np.nan)
        for lane in self._lanes:
            x = lane.x
            if lane.dim_x == 1:
                # (M, 1, 1) matmuls are single multiplies (bitwise-equal
                # to the stacked path) — skip the matmul dispatch.
                for _ in range(steps):
                    x = lane.F[:, :, 0] * x
                if lane.dim_z == 1:
                    out[lane.indices, 0] = lane.H[:, 0, 0] * x[:, 0]
                    continue
            else:
                for _ in range(steps):
                    x = (lane.F @ x[..., None])[..., 0]
            out[lane.indices, : lane.dim_z] = (lane.H @ x[..., None])[..., 0]
        return out

    def measurement_variances(self) -> np.ndarray:
        """``H P H' + R`` per filter, ``(N, dim_z_max, dim_z_max)`` NaN-padded."""
        out = np.full((self.n, self.dim_z_max, self.dim_z_max), np.nan)
        for lane in self._lanes:
            HT = lane.H.transpose(0, 2, 1)
            var = lane.H @ lane.P @ HT + lane.R
            out[lane.indices, : lane.dim_z, : lane.dim_z] = var
        return out

    def x_of(self, i: int) -> np.ndarray:
        """State mean of filter ``i`` (a copy)."""
        li, pos = self._where[i]
        return self._lanes[li].x[pos].copy()

    def P_of(self, i: int) -> np.ndarray:
        """State covariance of filter ``i`` (a copy)."""
        li, pos = self._where[i]
        return self._lanes[li].P[pos].copy()

    # ------------------------------------------------------------------
    # Packed state: fixed-shape, fleet-indexed arrays
    # ------------------------------------------------------------------
    def packed_states(self) -> tuple[np.ndarray, np.ndarray]:
        """All state as two dense arrays, zero-padded past each ``dim_x``.

        Returns ``(x, P)`` with shapes ``(N, dim_x_max)`` and
        ``(N, dim_x_max, dim_x_max)`` in fleet order, freshly allocated:
        one vectorized scatter per lane.  This is the filter half of
        :meth:`~repro.core.manager.FleetEngine.state_snapshot`, the one
        engine state layout.  Round-trips bitwise through
        :meth:`set_packed_states`.
        """
        x = np.zeros((self.n, self.dim_x_max))
        P = np.zeros((self.n, self.dim_x_max, self.dim_x_max))
        for lane in self._lanes:
            x[lane.indices, : lane.dim_x] = lane.x
            P[lane.indices, : lane.dim_x, : lane.dim_x] = lane.P
        return x, P

    def set_packed_states(self, x: np.ndarray, P: np.ndarray) -> None:
        """Restore every filter from :meth:`packed_states` arrays (exact).

        Accepts any buffer-backed arrays (e.g. shared-memory views); the
        per-lane gathers below are copies, so the filter never aliases
        the caller's storage.
        """
        x = np.asarray(x, dtype=float)
        P = np.asarray(P, dtype=float)
        if x.shape != (self.n, self.dim_x_max) or P.shape != (
            self.n,
            self.dim_x_max,
            self.dim_x_max,
        ):
            raise DimensionError(
                f"packed states must have shapes ({self.n}, {self.dim_x_max}) "
                f"and ({self.n}, {self.dim_x_max}, {self.dim_x_max}), got "
                f"{x.shape} and {P.shape}"
            )
        for lane in self._lanes:
            # Fancy indexing materializes fresh contiguous float64 arrays.
            lane.x = x[lane.indices, : lane.dim_x]
            lane.P = P[lane.indices, : lane.dim_x, : lane.dim_x]

    def _as_mask(self, mask: np.ndarray | None) -> np.ndarray:
        if mask is None:
            return np.ones(self.n, dtype=bool)
        mask = np.asarray(mask, dtype=bool).reshape(-1)
        if mask.shape != (self.n,):
            raise DimensionError(
                f"mask must have shape ({self.n},), got {mask.shape}"
            )
        return mask
