"""Sound propagation of per-source precision bounds through query operators.

The suppression protocol guarantees each served value lies within δ of the
source's measurement.  Interval arithmetic turns those per-tuple guarantees
into per-answer guarantees: every rule here returns a half-width ``B`` such
that the operator's output over served values differs from its output over
the measurements by at most ``B`` whenever each input differs by at most its
own bound.  Rules are conservative (never under-estimate) and tight for the
linear aggregates.

Rules (inputs with half-widths b_1..b_n):

* mean     → (b_1 + ... + b_n) / n   (= δ when all equal)
* sum      → b_1 + ... + b_n         (= n·δ)
* min/max  → max_i b_i               (extremum moves at most the worst bound)
* quantile → max_i b_i               (order statistics are 1-Lipschitz in
  the sup-norm of the sample vector)
* count    → 0                       (counting ignores values)
* variance → see :func:`variance_bound` (first-order Lipschitz bound plus
  the quadratic remainder, using the window's value range)
* a·x + b  → |a| · b_x
* x ± y    → b_x + b_y
* x · y    → |x|·b_y + |y|·b_x + b_x·b_y

Every served aggregate answer makes one of these calls, so the rules an
answer uses (mean, sum, min/max, median/quantile, count) are plain Python
over the member list: a numpy round trip (``asarray`` + ``any`` + a
reduction) cost more than the arithmetic on a 64-member window.  They stay
bit for bit the numpy formulas they replaced: the extremes are the exact
builtin :func:`max`, and the sums are :func:`_pairwise_sum`, a copy of
numpy's pairwise float summation (pinned against ``np.sum`` by
``tests/dsms/test_propagation_bitwise.py``).  A member bound that is
negative, NaN, nested or not a number, and a member collection that is
not a sequence or an ndarray (a set, a generator), is refused with
:class:`~repro.errors.QueryError`.  :func:`variance_bound`, which no
served query shape uses, keeps numpy.
"""

from __future__ import annotations

from collections.abc import Sequence

import numpy as np

from repro.errors import QueryError

__all__ = [
    "mean_bound",
    "sum_bound",
    "extreme_bound",
    "quantile_bound",
    "count_bound",
    "variance_bound",
    "linear_map_bound",
    "add_sub_bound",
    "product_bound",
    "aggregate_bound",
]


def _coerced(bounds: list) -> list[float]:
    """The slow path of :func:`_validated`: convert, then check, each entry."""
    out = []
    for b in bounds:
        if hasattr(b, "__iter__"):  # a nested list, an array row, a string
            raise QueryError(f"bounds must be a flat list of numbers, got {b!r}")
        try:
            b = float(b)
        except (TypeError, ValueError) as exc:
            raise QueryError(f"bound {b!r} is not a number") from exc
        if not b >= 0.0:
            raise QueryError(f"bounds must be non-negative and not NaN, got {b!r}")
        out.append(b)
    return out


def _validated(bounds: list[float]) -> list[float]:
    """``bounds`` as a non-empty list of floats >= 0, checked in one pass.

    Only a sequence or an ndarray is read: a set sums in hash order and a
    generator in whatever order it yields, so their bits would be tied to
    no member order (``np.asarray`` refused both).
    """
    if type(bounds) is not list and not isinstance(bounds, (Sequence, np.ndarray)):
        raise QueryError(
            f"bounds must be an ordered sequence, got {type(bounds).__name__}"
        )
    try:
        arr = list(bounds)
    except TypeError as exc:  # a 0-d array
        raise QueryError("bounds must be a non-empty 1-D list") from exc
    if not arr:
        raise QueryError("bounds must be a non-empty 1-D list")
    # NaN fails ``>=`` too, so this one test refuses it with the negatives.
    for b in arr:
        if type(b) is not float or not b >= 0.0:
            return _coerced(arr)
    return arr


def _pairwise(xs: list[float], lo: int, n: int) -> float:
    """numpy's ``pairwise_sum`` over ``xs[lo:lo + n]``, operation for operation."""
    if n < 8:
        res = 0.0
        for x in xs[lo:lo + n]:
            res += x
        return res
    if n <= 128:
        r0, r1, r2, r3, r4, r5, r6, r7 = xs[lo:lo + 8]
        end = lo + n - n % 8
        it = iter(xs[lo + 8:end])
        for a0, a1, a2, a3, a4, a5, a6, a7 in zip(it, it, it, it, it, it, it, it):
            r0 += a0
            r1 += a1
            r2 += a2
            r3 += a3
            r4 += a4
            r5 += a5
            r6 += a6
            r7 += a7
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for x in xs[end:lo + n]:
            res += x
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise(xs, lo, n2) + _pairwise(xs, lo + n2, n - n2)


def _pairwise_sum(xs: list[float]) -> float:
    """``float(np.sum(xs))``, bit for bit, without the array.

    numpy reduces a contiguous float64 array by eight-way pairwise
    summation onto the identity ``0.0``: fewer than 8 terms add in order,
    up to 128 go to eight strided accumulators combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))`` with the tail added in order,
    and longer runs split at half the length rounded down to a multiple
    of 8.  The ``0.0`` start is why an all −0.0 list sums to +0.0.
    """
    return 0.0 + _pairwise(xs, 0, len(xs))


def mean_bound(bounds: list[float]) -> float:
    """Half-width of a windowed mean."""
    arr = _validated(bounds)
    return _pairwise_sum(arr) / len(arr)


def sum_bound(bounds: list[float]) -> float:
    """Half-width of a windowed sum."""
    return _pairwise_sum(_validated(bounds))


def extreme_bound(bounds: list[float]) -> float:
    """Half-width of a windowed min or max."""
    return max(_validated(bounds))


def quantile_bound(bounds: list[float]) -> float:
    """Half-width of any windowed quantile (incl. median)."""
    return max(_validated(bounds))


def count_bound(bounds: list[float]) -> float:
    """Counts are exact whatever the value errors."""
    _validated(bounds)
    return 0.0


def variance_bound(bounds: list[float], values: list[float]) -> float:
    """Half-width of a windowed population variance.

    For v(x) = mean(x²) − mean(x)², perturbing x_i by e_i with |e_i| ≤ b_i
    changes v by at most Σ_i (2/n)·|x_i − x̄|·b_i + (Σ b_i / n)·(2·max b +
    Σ b / n) — the first-order term plus a conservative quadratic remainder.

    Values near the float range overflow the mean, and ``inf · 0`` makes
    the first-order term NaN; a bound that cannot be computed is
    unbounded, so that case returns ``inf``, never a NaN bound.
    """
    arr = np.asarray(_validated(bounds))
    vals = np.asarray(values, dtype=float)
    if vals.shape != arr.shape:
        raise QueryError("values and bounds must align")
    n = arr.size
    centered = np.abs(vals - vals.mean())
    first_order = float(np.sum(2.0 * centered * arr) / n)
    mean_b = float(np.sum(arr) / n)
    quadratic = mean_b * (2.0 * float(np.max(arr)) + mean_b)
    bound = first_order + quadratic
    return bound if bound == bound else float("inf")


def linear_map_bound(scale: float, bound: float) -> float:
    """Half-width of ``a·x + b`` given x's half-width."""
    if bound < 0:
        raise QueryError("bound must be non-negative")
    return abs(scale) * bound


def add_sub_bound(bound_x: float, bound_y: float) -> float:
    """Half-width of ``x + y`` or ``x - y``."""
    if bound_x < 0 or bound_y < 0:
        raise QueryError("bounds must be non-negative")
    return bound_x + bound_y


def product_bound(x: float, bound_x: float, y: float, bound_y: float) -> float:
    """Half-width of ``x · y`` around the served product."""
    if bound_x < 0 or bound_y < 0:
        raise QueryError("bounds must be non-negative")
    return abs(x) * bound_y + abs(y) * bound_x + bound_x * bound_y


def aggregate_bound(name: str, bounds: list[float], values: list[float]) -> float:
    """Dispatch to the propagation rule for a named aggregate."""
    if name in ("mean", "avg"):
        return mean_bound(bounds)
    if name == "sum":
        return sum_bound(bounds)
    if name in ("min", "max"):
        return extreme_bound(bounds)
    if name == "count":
        return count_bound(bounds)
    if name == "var":
        return variance_bound(bounds, values)
    if name == "median" or name.startswith("q"):
        return quantile_bound(bounds)
    raise QueryError(f"no propagation rule for aggregate {name!r}")
