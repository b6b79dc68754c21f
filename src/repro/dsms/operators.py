"""Continuous-query operators.

Operators are push-based: each consumes one tuple and emits zero or more.
A pipeline is an operator list applied in order.  The engine keeps
operators deliberately small — selection, projection (map), windowed
aggregation with sound precision propagation, and a two-stream merge-join —
because that set already expresses the monitoring queries the paper's
setting cares about (fleet averages, threshold alerts, cross-stream
differences).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Callable

from repro.dsms.aggregates import Aggregate, make_aggregate
from repro.dsms.precision_propagation import add_sub_bound, aggregate_bound, linear_map_bound
from repro.dsms.tuples import StreamTuple
from repro.dsms.windows import SlidingWindow, TumblingWindow
from repro.errors import ConfigurationError, QueryError

__all__ = [
    "Operator",
    "Select",
    "MapLinear",
    "MapFn",
    "WindowAggregate",
    "replay_aggregate",
    "MergeJoin",
]


class Operator(ABC):
    """One stage of a continuous query."""

    @abstractmethod
    def process(self, item: StreamTuple) -> list[StreamTuple]:
        """Consume one tuple; return the tuples to push downstream."""

    def describe(self) -> str:
        """Human-readable description for query plans."""
        return type(self).__name__


class Select(Operator):
    """Filter on a predicate over the tuple.

    Note on precision: selection decides on the *served* value; if the
    predicate is a threshold within ``bound`` of the value, the decision
    could differ from one made on the exact measurement.  ``margin_of``
    reports that risk for threshold predicates built with
    :meth:`threshold`.
    """

    def __init__(self, predicate: Callable[[StreamTuple], bool], label: str = "select"):
        self.predicate = predicate
        self.label = label

    @classmethod
    def threshold(cls, limit: float, above: bool = True) -> "Select":
        """Keep tuples above (or below) a numeric limit."""
        if above:
            return cls(lambda tup: tup.value > limit, label=f"value > {limit:g}")
        return cls(lambda tup: tup.value < limit, label=f"value < {limit:g}")

    @classmethod
    def definitely_above(cls, limit: float) -> "Select":
        """Keep tuples whose *entire* guaranteed interval exceeds the limit.

        Bound-aware alerting: with a served value v ± b, ``v - b > limit``
        means the underlying measurement certainly exceeded the limit — no
        false alarms are possible from suppression error.
        """
        return cls(lambda tup: tup.low > limit, label=f"low > {limit:g}")

    @classmethod
    def possibly_above(cls, limit: float) -> "Select":
        """Keep tuples whose guaranteed interval *touches* the limit.

        The dual of :meth:`definitely_above`: ``v + b > limit`` means the
        measurement may have exceeded the limit — no missed alarms are
        possible from suppression error.
        """
        return cls(lambda tup: tup.high > limit, label=f"high > {limit:g}")

    def process(self, item: StreamTuple) -> list[StreamTuple]:
        return [item] if self.predicate(item) else []

    def describe(self) -> str:
        return f"Select[{self.label}]"


class MapLinear(Operator):
    """Affine transform ``a·x + b`` with exact bound propagation."""

    def __init__(self, scale: float, offset: float = 0.0):
        self.scale = float(scale)
        self.offset = float(offset)

    def process(self, item: StreamTuple) -> list[StreamTuple]:
        return [
            item.with_value(
                self.scale * item.value + self.offset,
                bound=linear_map_bound(self.scale, item.bound),
            )
        ]

    def describe(self) -> str:
        return f"MapLinear[{self.scale:g}·x + {self.offset:g}]"


class MapFn(Operator):
    """Arbitrary scalar function with a user-supplied Lipschitz constant.

    The output bound is ``lipschitz * input bound`` — sound whenever the
    supplied constant really does bound the function's derivative over the
    input interval.  For non-Lipschitz transforms pass ``float("inf")`` and
    downstream consumers will see an honest "unbounded" precision.
    """

    def __init__(self, fn: Callable[[float], float], lipschitz: float, label: str = "fn"):
        if lipschitz < 0:
            raise ConfigurationError(f"lipschitz must be >= 0, got {lipschitz!r}")
        self.fn = fn
        self.lipschitz = float(lipschitz)
        self.label = label

    def process(self, item: StreamTuple) -> list[StreamTuple]:
        return [
            item.with_value(
                float(self.fn(item.value)), bound=self.lipschitz * item.bound
            )
        ]

    def describe(self) -> str:
        return f"MapFn[{self.label}, L={self.lipschitz:g}]"


class WindowAggregate(Operator):
    """Windowed aggregate with propagated precision bounds.

    Args:
        aggregate: Aggregate name (see
            :func:`repro.dsms.aggregates.make_aggregate`) or an instance.
        size: Window length in tuples.
        slide: Emission period (1 = every tuple once full).
        tumbling: Non-overlapping windows instead of sliding.
        emit_partial: Emit before the first window fills.
    """

    def __init__(
        self,
        aggregate: str | Aggregate,
        size: int,
        slide: int = 1,
        tumbling: bool = False,
        emit_partial: bool = False,
    ):
        agg = make_aggregate(aggregate) if isinstance(aggregate, str) else aggregate
        self.aggregate_name = agg.name
        if tumbling:
            self.window: SlidingWindow = TumblingWindow(
                size, agg, emit_partial=emit_partial
            )
        else:
            self.window = SlidingWindow(size, agg, slide=slide, emit_partial=emit_partial)

    def process(self, item: StreamTuple) -> list[StreamTuple]:
        # Capture member bounds/values *before* a tumbling window resets.
        out = None
        # Push first; SlidingWindow exposes the post-push membership, which
        # is exactly the window the emission covered for sliding windows.
        bounds_before = None
        if isinstance(self.window, TumblingWindow):
            bounds_before = (self.window.member_bounds(), self.window.member_values())
        out = self.window.push(item)
        if out is None:
            return []
        if isinstance(self.window, TumblingWindow):
            member_bounds, member_values = bounds_before or ([], [])
            member_bounds = member_bounds + [item.bound]
            member_values = member_values + [item.value]
        else:
            member_bounds = self.window.member_bounds()
            member_values = self.window.member_values()
        bound = aggregate_bound(self.aggregate_name, member_bounds, member_values)
        return [StreamTuple(t=out.t, stream_id=out.stream_id, value=out.value, bound=bound)]

    def describe(self) -> str:
        kind = "tumbling" if isinstance(self.window, TumblingWindow) else "sliding"
        return f"WindowAggregate[{self.aggregate_name}, {kind} n={self.window.size}]"


def replay_aggregate(members, aggregate: str | Aggregate) -> StreamTuple:
    """Aggregate exactly ``members``: the answer a window replay would emit.

    The one aggregate-evaluation routine every read tier shares (live
    rings, the SQLite archive, hybrid answers), in one pass: the value is
    :meth:`Aggregate.of <repro.dsms.aggregates.Aggregate.of>` over the
    members' values and the bound is one :func:`aggregate_bound` call over
    their bounds.  The result — ``t``, ``stream_id``, value and bound — is
    bitwise what the last emission of a fresh :class:`WindowAggregate`
    sized to ``members`` (``slide=1, emit_partial=True``) carries, pinned
    against exactly that replay by
    ``tests/properties/test_aggregate_kernel.py``.  Callers add no
    arithmetic of their own, so an answer is identical whichever tier
    resolved the member tuples.  An aggregate instance is only asked, never
    mutated.

    Raises:
        QueryError: When ``members`` is empty.
    """
    if len(members) == 0:
        raise QueryError("aggregate of an empty member list")
    agg = make_aggregate(aggregate) if isinstance(aggregate, str) else aggregate
    values = [member.value for member in members]
    bounds = [member.bound for member in members]
    last = members[-1]
    return StreamTuple(
        t=last.t,
        stream_id=f"{last.stream_id}/{agg.name}",
        value=agg.of(values),
        bound=aggregate_bound(agg.name, bounds, values),
    )


class MergeJoin(Operator):
    """Combine the latest values of two upstream streams.

    A band join on time with band 0 in tick units: tuples are matched by
    arrival round.  The operator buffers the most recent tuple per side and
    emits ``combine(left, right)`` whenever both sides have produced a tuple
    for the current round.  Output bound is the sum of input bounds for
    the built-in combiners (``+``/``-``), per interval arithmetic.
    """

    def __init__(
        self,
        left_id: str,
        right_id: str,
        combine: str = "sub",
        label: str | None = None,
    ):
        if combine not in ("add", "sub"):
            raise ConfigurationError(
                f"combine must be 'add' or 'sub', got {combine!r}"
            )
        self.left_id = left_id
        self.right_id = right_id
        self.combine = combine
        self.label = label or f"{left_id}{'+' if combine == 'add' else '-'}{right_id}"
        self._left: StreamTuple | None = None
        self._right: StreamTuple | None = None

    def process(self, item: StreamTuple) -> list[StreamTuple]:
        if item.stream_id == self.left_id:
            self._left = item
        elif item.stream_id == self.right_id:
            self._right = item
        else:
            raise QueryError(
                f"MergeJoin[{self.label}] received tuple from {item.stream_id!r}"
            )
        if self._left is None or self._right is None:
            return []
        if self._left.t != self._right.t:
            return []  # wait until both sides reach the same round
        sign = 1.0 if self.combine == "add" else -1.0
        value = self._left.value + sign * self._right.value
        bound = add_sub_bound(self._left.bound, self._right.bound)
        return [
            StreamTuple(t=self._left.t, stream_id=self.label, value=value, bound=bound)
        ]

    def describe(self) -> str:
        return f"MergeJoin[{self.label}]"
