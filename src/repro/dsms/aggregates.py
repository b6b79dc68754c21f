"""Incremental aggregates over sliding windows.

Each aggregate supports ``add``/``remove``/``value`` so a sliding window can
maintain it in O(1) (amortized) per tick instead of rescanning the window.
``remove`` is always called with the exact value that was added earliest —
windows are FIFO — which the monotonic-deque extrema exploit.

Each aggregate also answers a whole member list at once through ``of``:
the same float operations in the same order as ``add``-ing the values to a
fresh instance and reading ``value()``, so the result is bitwise the
incremental one (pinned by ``tests/properties/test_aggregate_kernel.py``
for every value but NaN, which no read tier can hold).  That is the
kernel :func:`repro.dsms.operators.replay_aggregate` answers from.
"""

from __future__ import annotations

import bisect
import math
from abc import ABC, abstractmethod
from collections import deque
from typing import Sequence

from repro.errors import ConfigurationError, QueryError

__all__ = [
    "Aggregate",
    "CountAggregate",
    "SumAggregate",
    "MeanAggregate",
    "VarianceAggregate",
    "MinAggregate",
    "MaxAggregate",
    "QuantileAggregate",
    "make_aggregate",
]


class Aggregate(ABC):
    """Incremental aggregate over a multiset of floats."""

    #: Name used in operator output stream ids.
    name: str = "agg"

    @abstractmethod
    def add(self, x: float) -> None:
        """Insert one value."""

    @abstractmethod
    def remove(self, x: float) -> None:
        """Remove one previously added value (FIFO order guaranteed)."""

    @abstractmethod
    def value(self) -> float:
        """Current aggregate value.

        Raises:
            QueryError: When the multiset is empty and the aggregate has no
                neutral value (mean, min, max, quantile).
        """

    @abstractmethod
    def fresh(self) -> "Aggregate":
        """A new empty instance with the same configuration."""

    def of(self, values: Sequence[float]) -> float:
        """The aggregate of exactly ``values``, leaving this instance as it is.

        Bitwise what adding ``values`` in order to a :meth:`fresh` instance
        and reading :meth:`value` gives — which is what this default does;
        the built-in aggregates override it with one pass over the list.
        """
        agg = self.fresh()
        for x in values:
            agg.add(x)
        return agg.value()


class CountAggregate(Aggregate):
    """Number of values in the window."""

    name = "count"

    def __init__(self) -> None:
        self._n = 0

    def add(self, x: float) -> None:
        self._n += 1

    def remove(self, x: float) -> None:
        if self._n == 0:
            raise QueryError("remove() on an empty count aggregate")
        self._n -= 1

    def value(self) -> float:
        return float(self._n)

    def fresh(self) -> "CountAggregate":
        return CountAggregate()

    def of(self, values: Sequence[float]) -> float:
        return float(len(values))


class SumAggregate(Aggregate):
    """Windowed sum, with Neumaier compensation against drift.

    A naive running sum accumulates floating-point error over millions of
    add/remove pairs; compensated summation keeps the drift negligible for
    any realistic run length.
    """

    name = "sum"

    def __init__(self) -> None:
        self._sum = 0.0
        self._compensation = 0.0
        self._n = 0

    def _accumulate(self, x: float) -> None:
        t = self._sum + x
        if abs(self._sum) >= abs(x):
            self._compensation += (self._sum - t) + x
        else:
            self._compensation += (x - t) + self._sum
        self._sum = t

    def add(self, x: float) -> None:
        self._accumulate(float(x))
        self._n += 1

    def remove(self, x: float) -> None:
        if self._n == 0:
            raise QueryError("remove() on an empty sum aggregate")
        self._accumulate(-float(x))
        self._n -= 1

    def value(self) -> float:
        return self._sum + self._compensation if self._n else 0.0

    def fresh(self) -> "SumAggregate":
        return SumAggregate()

    def of(self, values: Sequence[float]) -> float:
        # ``_accumulate`` inlined over the list: the same recurrence, so not
        # ``math.fsum`` and not numpy's pairwise ``sum`` (different bits).
        total = compensation = 0.0
        for x in values:
            x = float(x)
            t = total + x
            if abs(total) >= abs(x):
                compensation += (total - t) + x
            else:
                compensation += (x - t) + total
            total = t
        return total + compensation if len(values) else 0.0


class MeanAggregate(Aggregate):
    """Windowed arithmetic mean."""

    name = "mean"

    def __init__(self) -> None:
        self._sum = SumAggregate()
        self._n = 0

    def add(self, x: float) -> None:
        self._sum.add(x)
        self._n += 1

    def remove(self, x: float) -> None:
        if self._n == 0:
            raise QueryError("remove() on an empty mean aggregate")
        self._sum.remove(x)
        self._n -= 1

    def value(self) -> float:
        if self._n == 0:
            raise QueryError("mean of an empty window")
        return self._sum.value() / self._n

    def fresh(self) -> "MeanAggregate":
        return MeanAggregate()

    def of(self, values: Sequence[float]) -> float:
        if len(values) == 0:
            raise QueryError("mean of an empty window")
        return self._sum.of(values) / len(values)


class VarianceAggregate(Aggregate):
    """Windowed population variance via maintained first/second moments."""

    name = "var"

    def __init__(self) -> None:
        self._sum = SumAggregate()
        self._sumsq = SumAggregate()
        self._n = 0

    def add(self, x: float) -> None:
        self._sum.add(x)
        self._sumsq.add(x * x)
        self._n += 1

    def remove(self, x: float) -> None:
        if self._n == 0:
            raise QueryError("remove() on an empty variance aggregate")
        self._sum.remove(x)
        self._sumsq.remove(x * x)
        self._n -= 1

    @staticmethod
    def _from_moments(total: float, total_sq: float, n: int) -> float:
        if n == 0:
            raise QueryError("variance of an empty window")
        mean = total / n
        var = total_sq / n - mean * mean
        return max(0.0, var)  # clamp the catastrophic-cancellation tail

    def value(self) -> float:
        return self._from_moments(self._sum.value(), self._sumsq.value(), self._n)

    def fresh(self) -> "VarianceAggregate":
        return VarianceAggregate()

    def of(self, values: Sequence[float]) -> float:
        return self._from_moments(
            self._sum.of(values), self._sumsq.of([x * x for x in values]), len(values)
        )


class _MonotonicExtreme(Aggregate):
    """Shared machinery for sliding min/max via a monotonic deque.

    The deque stores (value, arrival index); dominated entries are evicted
    on add, and remove only pops the front when the front is the value being
    retired — overall O(1) amortized.
    """

    def __init__(self, sign: float):
        self._sign = sign  # +1 for max, -1 for min
        self._deque: deque[tuple[float, int]] = deque()
        self._added = 0
        self._removed = 0

    def add(self, x: float) -> None:
        keyed = self._sign * float(x)
        while self._deque and self._sign * self._deque[-1][0] <= keyed:
            self._deque.pop()
        self._deque.append((float(x), self._added))
        self._added += 1

    def remove(self, x: float) -> None:
        if self._removed >= self._added:
            raise QueryError("remove() on an empty extreme aggregate")
        if self._deque and self._deque[0][1] == self._removed:
            self._deque.popleft()
        self._removed += 1

    def value(self) -> float:
        if not self._deque:
            raise QueryError("extreme of an empty window")
        return self._deque[0][0]

    def of(self, values: Sequence[float]) -> float:
        if len(values) == 0:
            raise QueryError("extreme of an empty window")
        # ``add`` pops on ``<=``, so of equal values (0.0 and -0.0) the later
        # one survives at the front; the builtins keep the first they meet.
        pick = max if self._sign > 0 else min
        return pick(map(float, reversed(values)))


class MinAggregate(_MonotonicExtreme):
    """Windowed minimum."""

    name = "min"

    def __init__(self) -> None:
        super().__init__(sign=-1.0)

    def fresh(self) -> "MinAggregate":
        return MinAggregate()


class MaxAggregate(_MonotonicExtreme):
    """Windowed maximum."""

    name = "max"

    def __init__(self) -> None:
        super().__init__(sign=+1.0)

    def fresh(self) -> "MaxAggregate":
        return MaxAggregate()


class QuantileAggregate(Aggregate):
    """Exact windowed quantile via a sorted list (O(log n) per op).

    Exact rather than sketched: windows in this engine are bounded, so the
    memory argument for sketches does not apply and exactness keeps the
    precision-propagation story clean.
    """

    def __init__(self, q: float):
        if not 0.0 <= q <= 1.0:
            raise ConfigurationError(f"q must be in [0,1], got {q!r}")
        self.q = float(q)
        self.name = f"q{q:g}"
        self._sorted: list[float] = []

    def add(self, x: float) -> None:
        bisect.insort(self._sorted, float(x))

    def remove(self, x: float) -> None:
        idx = bisect.bisect_left(self._sorted, float(x))
        if idx >= len(self._sorted) or self._sorted[idx] != float(x):
            raise QueryError(f"remove() of value {x!r} not present in quantile window")
        self._sorted.pop(idx)

    def _interpolate(self, ordered: list[float]) -> float:
        if not ordered:
            raise QueryError("quantile of an empty window")
        # Nearest-rank with linear interpolation (numpy 'linear' method).
        pos = self.q * (len(ordered) - 1)
        lo = math.floor(pos)
        hi = math.ceil(pos)
        if lo == hi:
            return ordered[lo]
        frac = pos - lo
        return ordered[lo] * (1.0 - frac) + ordered[hi] * frac

    def value(self) -> float:
        return self._interpolate(self._sorted)

    def fresh(self) -> "QuantileAggregate":
        return QuantileAggregate(self.q)

    def of(self, values: Sequence[float]) -> float:
        # ``sorted`` is stable exactly as ``insort`` (right) is: equal values
        # keep arrival order, so the list is element for element the same.
        return self._interpolate(sorted(map(float, values)))


_FACTORIES = {
    "count": CountAggregate,
    "sum": SumAggregate,
    "mean": MeanAggregate,
    "avg": MeanAggregate,
    "var": VarianceAggregate,
    "min": MinAggregate,
    "max": MaxAggregate,
    "median": lambda: QuantileAggregate(0.5),
}


def make_aggregate(name: str) -> Aggregate:
    """Build an aggregate by name (``count``, ``sum``, ``mean``/``avg``,
    ``var``, ``min``, ``max``, ``median``, or ``qX`` for quantile X in
    [0, 1], e.g. ``q0.95``)."""
    if name in _FACTORIES:
        return _FACTORIES[name]()
    if name.startswith("q"):
        try:
            return QuantileAggregate(float(name[1:]))
        except ValueError:
            pass
    raise ConfigurationError(
        f"unknown aggregate {name!r}; accepted: {', '.join(_FACTORIES)}, "
        f"or qX for a quantile X in [0, 1] (e.g. q0.95)"
    )
