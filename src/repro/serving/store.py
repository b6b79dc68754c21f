"""Served-history store: the state the query-serving tier answers from.

The store sits between the server replica fleet and the asyncio
:class:`~repro.serving.server.QueryServer`: every fleet tick it ingests
each stream's *served* value (never raw arrivals — the paper's
architecture, where query load is decoupled from stream volume because
answers come from cached procedures) tagged with the stream's precision
bound δ, and keeps a bounded ring of recent
:class:`~repro.dsms.tuples.StreamTuple` history per stream.  Queries are
evaluated with the dsms machinery itself — windowed aggregates replay
the window through :class:`~repro.dsms.operators.WindowAggregate` — so a
serving answer's value and bound are *bitwise* what direct dsms
evaluation of the same served values produces (pinned by
``tests/serving/test_store.py``).
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from collections import deque
from itertools import islice
from math import isfinite
from operator import attrgetter

import numpy as np

from repro.core.server import StreamServer
from repro.dsms.operators import replay_aggregate
from repro.dsms.precision_assignment import QueryRequirement, assign_stream_bounds
from repro.dsms.tuples import StreamTuple, served_ticks
from repro.errors import ServingError

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
        server: Optional :class:`~repro.core.server.StreamServer` to pull
            served values from on :meth:`ingest_tick`.
        on_evict: Optional hook called with each tuple a full ring
            evicts, *after* the replacing tuple is in.  This is how
            history survives ring rollover: an
            :class:`~repro.history.ArchiveWriter` attached here archives
            aging tuples instead of letting them drop silently.  The
            hook must not mutate the store.
    """

    def __init__(
        self,
        bounds: dict[str, float],
        history: int = 1024,
        server: StreamServer | None = None,
        on_evict=None,
    ):
        if not bounds:
            raise ServingError("a serving store needs at least one stream bound")
        for sid, delta in bounds.items():
            if delta < 0:
                raise ServingError(f"bound for {sid!r} must be >= 0, got {delta!r}")
        if history < 1:
            raise ServingError(f"history must be >= 1, got {history!r}")
        self.bounds = dict(bounds)
        self.history = history
        self._rings: dict[str, deque[StreamTuple]] = {
            sid: deque(maxlen=history) for sid in bounds
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
        self._server = server
        self.on_evict = on_evict

    @classmethod
    def from_requirements(
        cls,
        requirements: list[QueryRequirement],
        history: int = 1024,
        server: StreamServer | None = None,
    ) -> "ServingStore":
        """Build a store whose δ come from query precision targets.

        The per-stream bounds are the loosest that still meet every
        :class:`~repro.dsms.precision_assignment.QueryRequirement` —
        the deployment-side inverse of bound propagation.
        """
        return cls(assign_stream_bounds(requirements), history=history, server=server)

    # -- ingest ---------------------------------------------------------
    def stream_ids(self) -> list[str]:
        """Registered stream identifiers, in registration order."""
        return list(self.bounds)

    def ingest(self, stream_id: str, t: float, value: float) -> None:
        """Append one served scalar for ``stream_id`` at time ``t``.

        The tuple is tagged with the stream's configured δ.  Does *not*
        advance the staleness clock — callers batch one fleet tick's
        ingests and then call :meth:`advance_tick` once (or use
        :meth:`ingest_tick` / :meth:`load_fleet_history`, which do).

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
        # comparison is False) and unsorts the ring; a non-finite value is
        # only refused by the archive's eviction hook, after the ring drop.
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
        evicted = ring[0] if len(ring) == ring.maxlen else None
        ring.append(
            StreamTuple(t=t, stream_id=stream_id, value=value, bound=delta)
        )
        self.version += 1
        if evicted is not None and self.on_evict is not None:
            self.on_evict(evicted)

    def advance_tick(self) -> int:
        """Advance the staleness clock by one ingest tick; returns it."""
        self.tick += 1
        self.version += 1
        return self.tick

    def ingest_tick(self, t: float, component: int = 0) -> None:
        """Pull every registered stream's served value from the attached server.

        Streams the server has not warmed up yet are skipped (they stay
        cold in the store too).  Advances the staleness clock.
        """
        if self._server is None:
            raise ServingError("no StreamServer attached; pass server= or use ingest()")
        for sid in self.bounds:
            value = self._server.value(sid)
            if value is None:
                continue
            if not 0 <= component < value.shape[0]:
                raise ServingError(
                    f"stream {sid!r} has dim {value.shape[0]}, no component {component}"
                )
            self.ingest(sid, t, float(value[component]))
        self.advance_tick()

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
        raises only when the stream is cold or unknown.
        """
        if size < 1:
            raise ServingError(f"range size must be >= 1, got {size!r}")
        ring = self._ring(stream_id)
        n = min(size, len(ring))
        return tuple(ring[i] for i in range(len(ring) - n, len(ring)))

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
