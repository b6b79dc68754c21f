"""Served-history store: the state the query-serving tier answers from.

The store sits between the server replica fleet and the asyncio
:class:`~repro.serving.server.QueryServer`: every fleet tick it ingests
each stream's *served* value (never raw arrivals — the paper's
architecture, where query load is decoupled from stream volume because
answers come from cached procedures) tagged with the stream's precision
bound δ, and keeps a bounded ring of recent
:class:`~repro.dsms.tuples.StreamTuple` history per stream.

It is fed one way: :meth:`ServingStore.ingest` per served value, then
:meth:`~ServingStore.advance_tick` once per fleet tick — by hand, inside
``FleetEngine.run(values, on_tick=...)``, or through
:meth:`~ServingStore.load_fleet_history` for a finished trace.  Its δ
come from the allocator (``FleetResult.stream_bounds()``) or from query
precision targets (``assign_stream_bounds(requirements)``).

Queries are evaluated with the dsms machinery itself — windowed
aggregates go through :func:`~repro.dsms.operators.replay_aggregate`,
the one-pass kernel pinned bit for bit to
:class:`~repro.dsms.operators.WindowAggregate` — so a serving answer's
value and bound are *bitwise* what direct dsms evaluation of the same
served values produces (pinned by ``tests/serving/test_serving_store.py``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from itertools import islice
from math import isfinite
from operator import attrgetter

import numpy as np

from repro.dsms.operators import replay_aggregate
from repro.dsms.tuples import StreamTuple, served_ticks, trusted_tuple
from repro.errors import ServingError
from repro.serving.requests import require_count

__all__ = ["ServingStore"]

_tuple_t = attrgetter("t")


class ServingStore:
    """Per-stream ring buffers of served tuples, plus query evaluation.

    Args:
        bounds: Per-stream precision half-width δ — what the suppression
            protocol was configured with; attached to every ingested
            tuple so query answers can propagate it.
        history: Ring-buffer length per stream; range and aggregate
            queries can look back at most this far.
        on_evict: Optional hook called with each tuple a full ring is
            about to evict, *before* the ring drops it and takes the
            replacing tuple.  This is how history survives ring
            rollover: an :class:`~repro.history.ArchiveWriter` attached
            here archives aging tuples instead of letting them drop
            silently.  A hook that raises aborts the ingest with the
            ring and :attr:`version` as they were, so a refused
            eviction loses nothing.  The hook must not mutate the store.
    """

    def __init__(
        self,
        bounds: dict[str, float],
        history: int = 1024,
        on_evict=None,
    ):
        if not bounds:
            raise ServingError("a serving store needs at least one stream bound")
        for sid, delta in bounds.items():
            # NaN fails every comparison, so test for the good range.
            if not (delta >= 0 and isfinite(delta)):
                raise ServingError(
                    f"bound for {sid!r} must be finite and >= 0, got {delta!r}"
                )
        require_count("history", history)
        self.bounds = dict(bounds)
        self.history = int(history)
        self._rings: dict[str, deque[StreamTuple]] = {
            sid: deque(maxlen=self.history) for sid in bounds
        }
        #: Monotone ingest-tick counter; the staleness clock admission
        #: control widens degraded answers against.
        self.tick = 0
        #: Content-version counter: bumped by every :meth:`ingest` and
        #: every :meth:`advance_tick`.  Two reads at the same version saw
        #: identical ring contents, which is what lets the serving tier
        #: re-serve a memoized fresh answer bitwise (keep-hot cache)
        #: without flagging it degraded.
        self.version = 0
        self.on_evict = on_evict

    # -- ingest ---------------------------------------------------------
    def stream_ids(self) -> list[str]:
        """Registered stream identifiers, in registration order."""
        return list(self.bounds)

    def ingest(self, stream_id: str, t: float, value: float) -> None:
        """Append one served scalar for ``stream_id`` at time ``t``.

        The tuple is tagged with the stream's configured δ.  Does *not*
        advance the staleness clock — callers batch one fleet tick's
        ingests and then call :meth:`advance_tick` once (or use
        :meth:`load_fleet_history`, which does).

        ``t`` must be strictly after the stream's newest served tuple:
        the ring is a contiguous *sorted* suffix of the served history,
        and :meth:`oldest_t`, :meth:`tuples_between` and hybrid
        live+historical stitching all rely on that invariant.  An
        out-of-order or duplicate timestamp — or a non-finite ``t`` or
        ``value`` — raises :class:`~repro.errors.ServingError` before
        anything is mutated, instead of silently corrupting the ring.
        """
        delta = self.bounds.get(stream_id)
        if delta is None:
            raise ServingError(f"unknown stream {stream_id!r}; known: "
                               f"{sorted(self.bounds)}")
        ring = self._rings[stream_id]
        t = float(t)
        value = float(value)
        # A NaN ``t`` slips past the monotonicity test below (every NaN
        # comparison is False) and unsorts the ring; a non-finite value
        # would only be refused by the archive's eviction hook once it
        # ages out, and would then block every later ingest of the stream.
        if not (isfinite(t) and isfinite(value)):
            raise ServingError(
                f"non-finite ingest for stream {stream_id!r}: t={t!r}, value={value!r}"
            )
        if ring and t <= ring[-1].t:
            raise ServingError(
                f"non-monotone ingest for stream {stream_id!r}: t={t!r} is "
                f"not after the newest served tuple at t={ring[-1].t!r} "
                "(the ring must stay a sorted, contiguous suffix of the "
                "served history)"
            )
        if len(ring) == ring.maxlen and self.on_evict is not None:
            self.on_evict(ring[0])  # before the drop: a raise loses nothing
        ring.append(trusted_tuple(t, stream_id, value, delta))  # δ checked in __init__
        self.version += 1

    def advance_tick(self) -> int:
        """Advance the staleness clock by one ingest tick; returns it."""
        self.tick += 1
        self.version += 1
        return self.tick

    def load_fleet_history(
        self,
        stream_ids: list[str],
        served: np.ndarray,
        t0: float = 0.0,
        component: int = 0,
    ) -> None:
        """Bulk-ingest a ``(T, N, dim)`` served array from a fleet run.

        ``served`` is what :class:`~repro.core.manager.FleetEngine`
        traces (NaN before warm-up — NaN rows are skipped, matching live
        ingest of a cold stream).  Tick ``k`` is ingested at time
        ``t0 + k``; the staleness clock advances once per tick.
        """
        for tick in served_ticks(stream_ids, served, t0, component, ServingError):
            for sid, t, v in tick:
                self.ingest(sid, t, v)
            self.advance_tick()

    # -- queries --------------------------------------------------------
    def _ring(self, stream_id: str) -> deque[StreamTuple]:
        ring = self._rings.get(stream_id)
        if ring is None:
            raise ServingError(f"unknown stream {stream_id!r}; known: "
                               f"{sorted(self.bounds)}")
        if not ring:
            raise ServingError(f"stream {stream_id!r} has no served history yet")
        return ring

    def history_len(self, stream_id: str) -> int:
        """Tuples currently retained for a stream (0 while cold)."""
        ring = self._rings.get(stream_id)
        if ring is None:
            raise ServingError(f"unknown stream {stream_id!r}")
        return len(ring)

    def oldest_t(self, stream_id: str) -> float | None:
        """Timestamp of the oldest *resident* tuple (``None`` while cold).

        The ring holds a contiguous suffix of the served history, so
        every served tuple with ``t >= oldest_t`` is resident and every
        older one has been evicted (and, with an ``on_evict`` archiver
        attached, archived).  This is the residency boundary hybrid
        serving splits requests on.
        """
        ring = self._rings.get(stream_id)
        if ring is None:
            raise ServingError(f"unknown stream {stream_id!r}")
        return ring[0].t if ring else None

    def tuples_between(
        self, stream_id: str, t_start: float, t_end: float
    ) -> tuple[StreamTuple, ...]:
        """Resident tuples with ``t`` in ``[t_start, t_end]``, oldest first.

        Unlike :meth:`range_query` this may return an empty tuple — the
        requested interval simply may not intersect the resident window.
        """
        ring = self._rings.get(stream_id)
        if ring is None:
            raise ServingError(f"unknown stream {stream_id!r}")
        # The ring is sorted by ``t`` (``ingest`` refuses anything else).
        lo = bisect_left(ring, t_start, key=_tuple_t)
        hi = bisect_right(ring, t_end, lo=lo, key=_tuple_t)
        return tuple(islice(ring, lo, hi))

    def point(self, stream_id: str) -> StreamTuple:
        """The newest served tuple — value ± δ at the last ingest."""
        return self._ring(stream_id)[-1]

    def range_query(self, stream_id: str, size: int) -> tuple[StreamTuple, ...]:
        """The last ``size`` served tuples, oldest first.

        Returns fewer than ``size`` when the history is still filling;
        raises when the stream is cold or unknown, or ``size`` is not an
        integer >= 1.
        """
        require_count("size", size)
        return tuple(islice(reversed(self._ring(stream_id)), size))[::-1]

    def window_aggregate(
        self, stream_id: str, aggregate: str, size: int, emit_partial: bool = False
    ) -> StreamTuple:
        """Aggregate over the last ``size`` served tuples, bounds propagated.

        The window members go through
        :func:`~repro.dsms.operators.replay_aggregate` — the serving tier
        adds no arithmetic of its own, so the answer's value and bound
        are bitwise identical to direct dsms evaluation of the same
        served values.  With ``emit_partial=False`` (the default) a
        history shorter than ``size`` raises — the window has not warmed
        up; with ``emit_partial=True`` the available suffix is served.
        """
        members = self.range_query(stream_id, size)
        if len(members) < size and not emit_partial:
            raise ServingError(
                f"stream {stream_id!r} has {len(members)} served tuples, "
                f"window of {size} has not warmed up (pass emit_partial=True "
                f"to aggregate the available suffix)"
            )
        return replay_aggregate(members, aggregate)
