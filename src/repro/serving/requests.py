"""Request and response types of the query-serving tier.

A request names one of the served query shapes — the current point
value of a stream, the recent range of served values, a windowed
aggregate over them, or their *historical* twins over an arbitrary past
time interval — and a response carries the answer tuples with their
propagated precision bounds plus the serving tier's honesty metadata
(degraded flag, staleness, reason, provenance).  Requests are frozen
dataclasses so a workload schedule can be generated once, hashed, and
replayed.

The historical shapes (:class:`HistoryRangeQuery`,
:class:`HistoryAggregateQuery`) name a closed time interval
``[t_start, t_end]`` instead of a "last n" window; the server resolves
them against the hot ring, the SQLite archive, or a stitched
combination, and labels the answer's :attr:`ServingResponse.provenance`
``live`` / ``historical`` / ``hybrid`` accordingly.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Union

from repro.dsms.aggregates import make_aggregate
from repro.dsms.tuples import StreamTuple
from repro.errors import ConfigurationError, ServingError

__all__ = [
    "PointQuery",
    "RangeQuery",
    "AggregateQuery",
    "HistoryRangeQuery",
    "HistoryAggregateQuery",
    "Query",
    "ServingResponse",
]


def require_count(name: str, value) -> None:
    """Refuse, as a :class:`ServingError`, a ``name`` that is not an integer >= 1.

    ``bool`` is refused too.  A size or limit that merely compares — ``2.5``,
    NaN — would pass ``value < 1`` and then fail later, or never trip at all.
    """
    if type(value) is int and value >= 1:  # skips the slow ABC check below
        return
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < 1
    ):
        raise ServingError(f"{name} must be an integer >= 1, got {value!r}")


@dataclass(frozen=True)
class PointQuery:
    """The stream's current served value (with its suppression bound δ)."""

    stream_id: str

    kind = "point"


@dataclass(frozen=True)
class RangeQuery:
    """The most recent ``size`` served values of a stream, oldest first."""

    stream_id: str
    size: int

    kind = "range"

    def __post_init__(self) -> None:
        require_count("range size", self.size)


def _check_aggregate(name: str) -> None:
    try:
        make_aggregate(name)
    except ConfigurationError as exc:  # its message names the accepted forms
        raise ServingError(str(exc)) from exc


@dataclass(frozen=True)
class AggregateQuery:
    """A windowed aggregate over the last ``size`` served values.

    ``aggregate`` is any name :func:`repro.dsms.aggregates.make_aggregate`
    accepts (``mean``, ``sum``, ``min``, ``max``, ``median``, ``q0.95``,
    ...) — any other is refused here, as a :class:`ServingError`;
    evaluation goes through :func:`~repro.dsms.operators.replay_aggregate`,
    so the answer and its bound are exactly what the dsms
    :class:`~repro.dsms.operators.WindowAggregate` operator emits over the
    same window.
    """

    stream_id: str
    aggregate: str
    size: int

    kind = "aggregate"

    def __post_init__(self) -> None:
        require_count("window size", self.size)
        _check_aggregate(self.aggregate)


def _check_interval(t_start: float, t_end: float) -> None:
    if not (t_start <= t_end):
        raise ServingError(
            f"empty interval: t_start {t_start!r} > t_end {t_end!r}"
        )


@dataclass(frozen=True)
class HistoryRangeQuery:
    """Every served tuple with ``t`` in ``[t_start, t_end]``, oldest first.

    Unlike :class:`RangeQuery` (the last ``size`` tuples, always
    resident by construction when warm) the interval may reach
    arbitrarily far into the past; the server resolves it against the
    hot ring and/or the archive and labels the answer's provenance.
    """

    stream_id: str
    t_start: float
    t_end: float

    kind = "history_range"

    def __post_init__(self) -> None:
        _check_interval(self.t_start, self.t_end)


@dataclass(frozen=True)
class HistoryAggregateQuery:
    """An aggregate over every served tuple in ``[t_start, t_end]``.

    ``aggregate`` is any name :func:`repro.dsms.aggregates.make_aggregate`
    accepts (any other is refused here, as a :class:`ServingError`).
    Wherever the members come from — ring, archive, or a stitched
    combination — they go through the one
    :func:`~repro.dsms.operators.replay_aggregate`, so the answer and its
    bound are exactly what the dsms
    :class:`~repro.dsms.operators.WindowAggregate` operator emits over the
    same served tuples.
    """

    stream_id: str
    aggregate: str
    t_start: float
    t_end: float

    kind = "history_aggregate"

    def __post_init__(self) -> None:
        _check_interval(self.t_start, self.t_end)
        _check_aggregate(self.aggregate)


Query = Union[
    PointQuery, RangeQuery, AggregateQuery, HistoryRangeQuery, HistoryAggregateQuery
]


@dataclass(frozen=True)
class ServingResponse:
    """One answered request.

    Attributes:
        request: The request this answers.
        tuples: The answer tuples (length 1 for point/aggregate queries,
            up to ``size`` for range queries), each carrying its own
            precision half-width.
        degraded: True when admission control served a stale cached
            answer instead of evaluating fresh; the bounds are widened by
            the configured drift allowance per tick of staleness and the
            unconditional precision contract is suspended (mirrors the
            supervision layer's honest degradation semantics).
        staleness_ticks: Ingest ticks between the cached evaluation and
            the serve (0 for fresh answers).
        reason: Why the answer is degraded (``None`` when fresh).
        latency_s: Wall-clock seconds between admission and answer.
        provenance: Where the answer tuples came from — ``live`` (hot
            ring only), ``historical`` (archive only), or ``hybrid``
            (a range straddling the residency boundary, stitched from
            archive + ring with the boundary deduplicated).
    """

    request: Query
    tuples: tuple[StreamTuple, ...]
    degraded: bool = False
    staleness_ticks: int = 0
    reason: str | None = None
    latency_s: float = 0.0
    provenance: str = "live"

    @property
    def kind(self) -> str:
        """The request's query kind (``point``/``range``/``aggregate``)."""
        return self.request.kind

    @property
    def answer(self) -> StreamTuple:
        """The (final) answer tuple — for range queries, the newest."""
        return self.tuples[-1]

    @property
    def value(self) -> float:
        """Convenience: the answer tuple's value."""
        return self.answer.value

    @property
    def bound(self) -> float:
        """Convenience: the answer tuple's precision half-width."""
        return self.answer.bound
