"""Stream tuples flowing through the mini query engine.

A tuple is a timestamped scalar (queries over vector streams select a
component first) plus the *precision half-width* it was served with: the
dual-Kalman protocol guarantees the served value is within ``bound`` of the
source's measurement, and the query engine propagates that interval through
every operator so answers come with sound error bars.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from repro.errors import QueryError

__all__ = ["StreamTuple", "served_ticks", "stream_tuples"]


@dataclass(frozen=True)
class StreamTuple:
    """One value flowing through a continuous query.

    Attributes:
        t: Timestamp.
        stream_id: Originating stream (or the name of the operator that
            produced a derived tuple).
        value: Scalar payload.
        bound: Half-width of the guaranteed error interval around ``value``
            (0 for exact values; propagated through operators).
    """

    t: float
    stream_id: str
    value: float
    bound: float = 0.0

    def __post_init__(self) -> None:
        if self.bound < 0:
            raise QueryError(f"bound must be non-negative, got {self.bound!r}")

    @property
    def low(self) -> float:
        """Lower end of the guaranteed interval."""
        return self.value - self.bound

    @property
    def high(self) -> float:
        """Upper end of the guaranteed interval."""
        return self.value + self.bound

    def with_value(self, value: float, bound: float | None = None) -> "StreamTuple":
        """Derived tuple with a new value (same origin and time)."""
        return StreamTuple(
            t=self.t,
            stream_id=self.stream_id,
            value=float(value),
            bound=self.bound if bound is None else float(bound),
        )


def stream_tuples(stream_id: str, rows) -> tuple[StreamTuple, ...]:
    """``StreamTuple(t, stream_id, value, bound)`` per ``(t, value, bound)`` row.

    The bulk constructor of read paths that rebuild hundreds of tuples
    per answer.  It fills each instance's ``__dict__`` directly (the
    :func:`functools.cached_property` idiom), skipping the frozen
    ``__init__``'s four ``object.__setattr__`` calls, which were half of
    an archived range read.  A negative ``bound`` still goes through the
    real constructor, so it raises the same
    :class:`~repro.errors.QueryError`.
    """
    new = object.__new__
    out = []
    for t, value, bound in rows:
        if bound < 0:
            StreamTuple(t, stream_id, value, bound)
        tup = new(StreamTuple)
        fields = tup.__dict__
        fields["t"] = t
        fields["stream_id"] = stream_id
        fields["value"] = value
        fields["bound"] = bound
        out.append(tup)
    return tuple(out)


def served_ticks(
    stream_ids: Sequence[str],
    served: np.ndarray,
    t0: float,
    component: int,
    error: type[Exception],
) -> Iterator[list[tuple[str, float, float]]]:
    """Walk a ``(T, N, dim)`` served trace one tick at a time.

    Yields, per tick ``k``, the ``(stream_id, t0 + k, value)`` of every
    stream whose ``component`` is not NaN (a cold, pre-warm-up stream).
    The one walker behind the serving ring's bulk load and the archive's
    bulk and live feeds, so they cannot drift apart on what they skip or
    reject: a wrong shape or a ``component`` outside ``[0, dim)`` raises
    ``error`` (each feed's own type) before anything is yielded.
    """
    served = np.asarray(served, dtype=float)
    if served.ndim != 3 or served.shape[1] != len(stream_ids):
        raise error(
            f"served must have shape (T, {len(stream_ids)}, dim), got {served.shape}"
        )
    if not 0 <= component < served.shape[2]:
        raise error(f"served has dim {served.shape[2]}, no component {component}")
    return (
        [(sid, t0 + k, v) for sid, v in zip(stream_ids, column.tolist()) if v == v]
        for k, column in enumerate(served[:, :, component])
    )
