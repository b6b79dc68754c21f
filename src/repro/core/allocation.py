"""Precision allocation across streams under a message budget.

The dual of suppression: given a fleet of streams and a total message-rate
budget ``B``, choose per-stream precision bounds δ_k that spend exactly the
budget while minimizing (weighted) imprecision.

The key empirical object is the *rate curve* m_k(δ): how many messages per
tick stream k costs at bound δ.  For diffusive streams theory says
m(δ) ∝ δ^-2 (first-passage of a random walk out of a ±δ band); empirically
a power law m(δ) = a·δ^-b fits every workload in the suite well, so
:class:`RateCurve` fits (a, b) by log–log least squares from a handful of
probe runs.

Allocators (compared in experiment F9):

* :func:`allocate_uniform` — one shared δ for everyone.
* :func:`allocate_equal_rate` — every stream gets the same message rate
  B/K, whatever δ that implies.
* :func:`allocate_waterfilling` — minimize Σ w_k δ_k subject to
  Σ m_k(δ_k) ≤ B; closed-form per-stream response to a shared Lagrange
  multiplier, found by bisection.  Optimal for power-law curves.
* :func:`allocate_scipy` — general objective via SLSQP, used to cross-check
  waterfilling and to handle δ bounds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import optimize

from repro.errors import AllocationError, ConfigurationError

__all__ = [
    "RateCurve",
    "Allocation",
    "allocate_uniform",
    "allocate_equal_rate",
    "allocate_waterfilling",
    "allocate_scipy",
    "shard_budgets",
]


@dataclass(frozen=True)
class RateCurve:
    """Power-law message-rate model ``rate(δ) = a * δ**(-b)``.

    ``rate`` is in messages per tick, so ``a`` is the rate at δ = 1 and
    ``b`` is the elasticity of communication with respect to precision.
    """

    a: float
    b: float

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ConfigurationError(f"a must be positive, got {self.a!r}")
        if self.b <= 0:
            raise ConfigurationError(f"b must be positive, got {self.b!r}")

    @classmethod
    def fit(cls, deltas: np.ndarray, rates: np.ndarray) -> "RateCurve":
        """Log–log least-squares fit from probe samples.

        Args:
            deltas: Probe precision bounds (all positive, >= 2 distinct).
            rates: Observed message rates at those bounds (positive; clip
                zero-message probes to a small positive rate before calling).
        """
        deltas = np.asarray(deltas, dtype=float)
        rates = np.asarray(rates, dtype=float)
        if deltas.shape != rates.shape or deltas.ndim != 1:
            raise ConfigurationError("deltas and rates must be equal-length 1-D arrays")
        if deltas.size < 2 or np.unique(deltas).size < 2:
            raise ConfigurationError("need at least two distinct probe deltas")
        if np.any(deltas <= 0) or np.any(rates <= 0):
            raise ConfigurationError("probe deltas and rates must be positive")
        slope, intercept = np.polyfit(np.log(deltas), np.log(rates), 1)
        b = -float(slope)
        if b <= 0:
            # Rate did not decrease with delta (pathological probe, e.g. a
            # constant stream); fall back to a barely-elastic curve so the
            # allocators remain well-defined.
            b = 1e-3
        return cls(a=float(np.exp(intercept)), b=b)

    def rate(self, delta: float) -> float:
        """Predicted messages per tick at bound ``delta``."""
        if delta <= 0:
            raise ConfigurationError(f"delta must be positive, got {delta!r}")
        return self.a * delta ** (-self.b)

    def delta_for_rate(self, rate: float) -> float:
        """The bound that spends exactly ``rate`` messages per tick."""
        if rate <= 0:
            raise ConfigurationError(f"rate must be positive, got {rate!r}")
        return (self.a / rate) ** (1.0 / self.b)


@dataclass(frozen=True)
class Allocation:
    """Result of an allocation: per-stream bounds and their predicted cost."""

    deltas: np.ndarray
    predicted_rates: np.ndarray
    method: str

    @property
    def predicted_total_rate(self) -> float:
        """Predicted fleet-wide messages per tick."""
        return float(np.sum(self.predicted_rates))

    def weighted_imprecision(self, weights: np.ndarray | None = None) -> float:
        """The objective Σ w_k δ_k the optimizing allocators minimize."""
        w = np.ones_like(self.deltas) if weights is None else np.asarray(weights, float)
        return float(np.sum(w * self.deltas))

    def subset(self, indices: np.ndarray) -> "Allocation":
        """The allocation restricted to ``indices`` (a shard's slice).

        Budget is allocated *globally* — one shared multiplier across all
        shards — and then sliced per shard, so rebalancing between epochs
        moves budget across shard boundaries for free.  A shard's implied
        budget is simply ``subset(idx).predicted_total_rate``.
        """
        idx = np.asarray(indices, dtype=int)
        return Allocation(
            deltas=self.deltas[idx],
            predicted_rates=self.predicted_rates[idx],
            method=self.method,
        )


def shard_budgets(allocation: Allocation, assignments) -> np.ndarray:
    """Per-shard message budgets implied by a *global* allocation.

    The sharded runtime keeps the budget allocator global: rate curves
    from every shard are solved together (one Lagrange multiplier fleet
    wide), and each shard then receives the slice of bounds that landed
    on its streams.  This helper reports how the global budget splits
    across shards — the quantity re-balanced every epoch as curves
    re-anchor — for telemetry and load accounting.

    Args:
        allocation: A fleet-wide allocation in global stream order.
        assignments: Per-shard global index arrays (e.g.
            ``ShardPlan.assignments``).
    """
    return np.array(
        [float(np.sum(allocation.predicted_rates[np.asarray(idx, int)])) for idx in assignments]
    )


def _validate(curves: list[RateCurve], budget: float) -> None:
    if not curves:
        raise AllocationError("no streams to allocate for")
    if budget <= 0:
        raise AllocationError(f"budget must be positive, got {budget!r}")


def _finish(curves: list[RateCurve], deltas: np.ndarray, method: str) -> Allocation:
    rates = np.array([c.rate(d) for c, d in zip(curves, deltas)])
    return Allocation(deltas=deltas, predicted_rates=rates, method=method)


def allocate_uniform(curves: list[RateCurve], budget: float) -> Allocation:
    """One shared δ spending the whole budget (bisection on δ)."""
    _validate(curves, budget)

    def total_rate(delta: float) -> float:
        return sum(c.rate(delta) for c in curves)

    lo, hi = 1e-9, 1e-6
    while total_rate(hi) > budget:
        hi *= 2.0
        if hi > 1e12:
            raise AllocationError("budget unreachable even at absurdly loose bounds")
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if total_rate(mid) > budget:
            lo = mid
        else:
            hi = mid
    deltas = np.full(len(curves), hi)
    return _finish(curves, deltas, "uniform")


def allocate_equal_rate(curves: list[RateCurve], budget: float) -> Allocation:
    """Every stream gets the same message rate B/K."""
    _validate(curves, budget)
    per_stream = budget / len(curves)
    deltas = np.array([c.delta_for_rate(per_stream) for c in curves])
    return _finish(curves, deltas, "equal_rate")


def allocate_waterfilling(
    curves: list[RateCurve],
    budget: float,
    weights: np.ndarray | None = None,
) -> Allocation:
    """Minimize Σ w_k δ_k subject to Σ m_k(δ_k) <= B.

    First-order conditions give each stream's bound as a closed-form
    function of one shared multiplier λ — the marginal message cost of
    precision, equalized across streams: δ_k = (λ a_k b_k / w_k)^(1/(b_k+1)).
    λ is found by bisection on the budget constraint.
    """
    _validate(curves, budget)
    k = len(curves)
    w = np.ones(k) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (k,) or np.any(w <= 0):
        raise AllocationError("weights must be positive, one per stream")

    a = np.array([c.a for c in curves])
    b = np.array([c.b for c in curves])

    def deltas_at(lam: float) -> np.ndarray:
        return (lam * a * b / w) ** (1.0 / (b + 1.0))

    def total_rate(lam: float) -> float:
        d = deltas_at(lam)
        return float(np.sum(a * d ** (-b)))

    lo, hi = 1e-12, 1.0
    while total_rate(hi) > budget:
        hi *= 4.0
        if hi > 1e18:
            raise AllocationError("budget unreachable for waterfilling")
    while total_rate(lo) < budget:
        lo /= 4.0
        if lo < 1e-30:
            # λ could not be bracketed from below: even at the tightest
            # representable multiplier the fleet spends less than the
            # budget, so the "spend exactly B" optimum degenerates
            # (δ → 0 as λ → 0).  Bisecting an unbracketed interval would
            # silently return a meaningless near-zero allocation, so fail
            # loudly instead.
            raise AllocationError(
                f"cannot bracket the waterfilling multiplier: at "
                f"lambda={lo:.3g} the fleet spends {total_rate(lo):.6g} "
                f"msgs/tick, still under budget {budget:.6g}; the budget "
                "exceeds what these rate curves can express — lower it, or "
                "use allocate_scipy with explicit delta bounds"
            )
    for _ in range(200):
        mid = np.sqrt(lo * hi)
        if total_rate(mid) > budget:
            lo = mid
        else:
            hi = mid
    return _finish(curves, deltas_at(hi), "waterfilling")


def allocate_scipy(
    curves: list[RateCurve],
    budget: float,
    weights: np.ndarray | None = None,
    delta_bounds: tuple[float, float] = (1e-6, 1e6),
) -> Allocation:
    """SLSQP allocation: same objective as waterfilling, plus δ box bounds.

    Used to cross-check the closed-form allocator and when per-stream δ
    limits make the closed form inapplicable.
    """
    _validate(curves, budget)
    k = len(curves)
    w = np.ones(k) if weights is None else np.asarray(weights, dtype=float)
    if w.shape != (k,) or np.any(w <= 0):
        raise AllocationError("weights must be positive, one per stream")
    lo, hi = delta_bounds
    if not 0 < lo < hi:
        raise AllocationError(f"invalid delta bounds {delta_bounds!r}")
    min_total = sum(c.rate(hi) for c in curves)
    if min_total > budget:
        raise AllocationError(
            f"budget {budget:g} infeasible: even at delta={hi:g} the fleet "
            f"needs {min_total:g} msgs/tick"
        )

    a = np.array([c.a for c in curves])
    b = np.array([c.b for c in curves])

    # Solve in u = log δ with analytic Jacobians.  Both the objective
    # Σ w·e^u and the spend Σ a·e^(-b·u) are sums of exponentials there, so
    # the problem is convex and every variable is O(1) however many
    # decades δ spans — in raw δ with finite-difference gradients SLSQP's
    # line search stalls ("positive directional derivative") on
    # well-posed fleets with newer scipy builds.
    def objective(u: np.ndarray) -> float:
        return float(np.sum(w * np.exp(u)))

    def objective_jac(u: np.ndarray) -> np.ndarray:
        return w * np.exp(u)

    def constraint(u: np.ndarray) -> float:
        return budget - float(np.sum(a * np.exp(-b * u)))

    def constraint_jac(u: np.ndarray) -> np.ndarray:
        return a * b * np.exp(-b * u)

    x0 = allocate_equal_rate(curves, budget).deltas
    result = optimize.minimize(
        objective,
        np.log(np.clip(x0, lo, hi)),
        jac=objective_jac,
        method="SLSQP",
        bounds=[(np.log(lo), np.log(hi))] * k,
        constraints=[{"type": "ineq", "fun": constraint, "jac": constraint_jac}],
        options={"maxiter": 500, "ftol": 1e-12},
    )
    if not result.success:
        # With ftol=1e-12 the line search can run out of representable
        # descent *at* the optimum and report failure.  Accept the iterate
        # iff it meets the KKT conditions to 1e-6: the budget is spent
        # exactly (the multiplier is positive, so the constraint must be
        # active), every box-interior stream has the same marginal price
        # ∂objective/∂spend, and box-pinned streams sit on the right side
        # of that price.
        tol, u = 1e-6, result.x
        prices = objective_jac(u) / constraint_jac(u)
        at_lo, at_hi = u <= np.log(lo) + tol, u >= np.log(hi) - tol
        inner = ~(at_lo | at_hi)
        price = np.median(prices[inner]) if inner.any() else np.nan
        if not (
            abs(constraint(u)) <= tol * budget
            and np.all(np.abs(prices[inner] / price - 1.0) <= tol)
            and np.all(prices[at_lo] >= price * (1.0 - tol))
            and np.all(prices[at_hi] <= price * (1.0 + tol))
        ):
            raise AllocationError(f"SLSQP failed: {result.message}")
    return _finish(curves, np.clip(np.exp(result.x), lo, hi), "scipy")
