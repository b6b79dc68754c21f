"""The asyncio query server: admission, evaluation, honest degradation.

One :class:`QueryServer` serves precision-bounded point / range /
windowed-aggregate queries from a :class:`~repro.serving.store.ServingStore`
that the replica fleet keeps fresh — and, when a
:class:`~repro.history.HistoryStore` is attached, *hybrid* queries over
arbitrary past time intervals.  The concurrency model is plain asyncio:
evaluation itself is synchronous (and therefore per-request atomic — an
answer is always consistent with a single store tick), while a
cooperative yield between admission and evaluation lets bursts pile up
so admission control sees true concurrency.

Hybrid resolution is a residency split on the hot ring's oldest
timestamp.  A :class:`HistoryRangeQuery` / :class:`HistoryAggregateQuery`
whose interval is entirely resident answers from the ring
(``provenance="live"``); entirely below the residency boundary, from
the archive (``"historical"``); a straddling interval stitches the
archival prefix to the resident suffix, deduplicated at the boundary
(``"hybrid"``).  Every path aggregates its members through the one
:func:`~repro.dsms.operators.replay_aggregate` kernel (pinned bit for
bit to the dsms window operator), so values and bounds are bitwise
identical whichever store answered.

Range and aggregate answers are memoized by request signature, and
each request reads that cache once:

* a *keep-hot* hit — the store's content version has not moved since
  the answer was evaluated (no ingest, no tick), or the answer is
  ``historical`` (a closed, immutable past interval) — is bitwise what
  re-evaluation would produce, so it is served undegraded with no
  widening, overloaded or not;
* any other hit is served only while in-flight requests exceed
  ``max_inflight``, flagged ``degraded=True`` with each bound honestly
  widened by ``drift_per_tick · δ_stream`` per ingest tick of staleness
  (at least one: a moved version is stale) — the same
  contract-suspension semantics the supervision layer uses;
* otherwise — a miss, a stale hit with capacity to spare, any point
  query (O(1), never cached) — the request is evaluated fresh.

Admission therefore never sheds load: every admitted request is
answered, no answer is silently dropped, and every non-fresh answer
says so.  Keep-hot hits count into
``repro_serving_cache_hits_total{kind=...}``.
"""

from __future__ import annotations

import asyncio
from collections import OrderedDict
from dataclasses import dataclass, replace
from math import isfinite
from time import perf_counter

from repro.dsms.operators import replay_aggregate
from repro.dsms.tuples import StreamTuple
from repro.errors import HistoryError, ServingError
from repro.obs import tracing
from repro.obs.telemetry import resolve_telemetry
from repro.serving.requests import (
    AggregateQuery,
    HistoryAggregateQuery,
    HistoryRangeQuery,
    PointQuery,
    Query,
    RangeQuery,
    ServingResponse,
    require_count,
)
from repro.serving.store import ServingStore

__all__ = ["AdmissionConfig", "QueryServer"]


@dataclass(frozen=True)
class AdmissionConfig:
    """Overload-protection knobs.

    Attributes:
        max_inflight: In-flight requests beyond which a stale cached
            range/aggregate answer is served degraded, not re-evaluated.
        drift_per_tick: Bound widening per ingest tick of staleness, as a
            multiple of the stream's δ.  The suppression contract already
            prices one tick of change at δ, so 1.0 advertises "this
            answer may additionally be off by one contract-width per tick
            it is stale" — honest as long as the fleet's δ budget holds,
            and flagged ``degraded`` either way.
        cache_capacity: Signature-cache entries retained (LRU).  The
            cache used to grow without bound — one entry per distinct
            range/aggregate signature, forever — which is a memory leak
            under high-cardinality workloads.  Least-recently-*used*
            entries (reads refresh recency) are evicted past this cap
            and counted in ``QueryServer.cache_evictions`` /
            ``repro_serving_cache_evictions_total``.
    """

    max_inflight: int = 64
    drift_per_tick: float = 1.0
    cache_capacity: int = 1024

    def __post_init__(self) -> None:
        require_count("max_inflight", self.max_inflight)
        if not (self.drift_per_tick >= 0 and isfinite(self.drift_per_tick)):
            raise ServingError(
                f"drift_per_tick must be finite and >= 0, got {self.drift_per_tick!r}"
            )
        require_count("cache_capacity", self.cache_capacity)


class QueryServer:
    """Serves queries over the live served-history store (and archive).

    Args:
        store: The served-history state to answer from.
        admission: Overload-protection configuration.
        history: Optional :class:`~repro.history.HistoryStore` over the
            archived history.  Without it, history queries whose
            interval is not fully ring-resident raise
            :class:`~repro.errors.ServingError` (structurally
            unanswerable); with it, they fall through to the archive or
            stitch ring + archive transparently.
        telemetry: Optional :class:`~repro.obs.Telemetry` sink.  Per
            request: a ``repro_serving_requests_total{kind=...}`` count,
            a ``repro_serving_latency_seconds{kind=...}`` histogram
            observation and a ``serving.<kind>`` span (skipped on
            keep-hot cache hits, which count
            ``repro_serving_cache_hits_total{kind=...}`` instead);
            degraded serves
            add ``repro_serving_degraded_total{kind=...}``; the
            ``repro_serving_inflight`` gauge tracks concurrency and
            ``overload_enter`` / ``overload_exit`` events mark admission
            crossing its limit.  History-query resolution adds a
            ``repro_serving_provenance_total{provenance=...}`` count per
            answer; the attached history store records its own
            ``repro_history_*`` metrics for the archival legs.
    """

    def __init__(
        self,
        store: ServingStore,
        admission: AdmissionConfig | None = None,
        history=None,
        telemetry=None,
    ):
        self.store = store
        self.admission = admission if admission is not None else AdmissionConfig()
        self.history = history
        self._tel = resolve_telemetry(telemetry)
        self._inflight = 0
        self._overloaded = False
        # Signature -> (tuples, store tick, provenance, store version) of
        # the last fresh range/aggregate evaluation, read by _from_cache
        # only.  Bounded LRU: insertion-plus-read order, capped at
        # admission.cache_capacity.
        self._cache: OrderedDict[
            tuple, tuple[tuple[StreamTuple, ...], int, str, int]
        ] = OrderedDict()
        self.requests_served = 0
        self.requests_degraded = 0
        self.cache_hits = 0
        self.cache_evictions = 0

    @property
    def inflight(self) -> int:
        """Requests currently between admission and answer."""
        return self._inflight

    @property
    def overloaded(self) -> bool:
        """True while in-flight exceeds the admission limit."""
        return self._overloaded

    # -- evaluation -----------------------------------------------------
    @staticmethod
    def _signature(request: Query) -> tuple:
        if isinstance(request, RangeQuery):
            return ("range", request.stream_id, request.size)
        if isinstance(request, AggregateQuery):
            return ("aggregate", request.stream_id, request.aggregate, request.size)
        if isinstance(request, HistoryRangeQuery):
            return (
                "history_range", request.stream_id, request.t_start, request.t_end
            )
        if isinstance(request, HistoryAggregateQuery):
            return (
                "history_aggregate",
                request.stream_id,
                request.aggregate,
                request.t_start,
                request.t_end,
            )
        raise ServingError(f"unknown request type {type(request).__name__}")

    def _resolve_history_members(
        self, request: HistoryRangeQuery | HistoryAggregateQuery
    ) -> tuple[tuple[StreamTuple, ...], str]:
        """``(members, provenance)`` for a historical interval.

        The split point is the ring's residency boundary (the oldest
        resident tuple's timestamp).  A stitched answer takes the
        archive strictly *below* the boundary and the ring at or above
        it, so a tuple both archived (live feed) and still resident is
        never counted twice.
        """
        sid = request.stream_id
        lo, hi = request.t_start, request.t_end
        boundary = self.store.oldest_t(sid) if sid in self.store.bounds else None
        if boundary is not None and boundary <= lo:
            return self.store.tuples_between(sid, lo, hi), "live"
        if self.history is None:
            raise ServingError(
                f"interval [{lo!r}, {hi!r}] of stream {sid!r} is not "
                f"resident in the hot ring and no history store is attached"
            )
        try:
            if boundary is None or boundary > hi:
                return tuple(self.history.range_query(sid, lo, hi)), "historical"
            archived = self.history.range_query(sid, lo, boundary)
            older = tuple(tup for tup in archived if tup.t < boundary)
            resident = self.store.tuples_between(sid, boundary, hi)
            return older + resident, "hybrid"
        except HistoryError as exc:
            raise ServingError(str(exc)) from exc

    def _evaluate(self, request: Query) -> tuple[tuple[StreamTuple, ...], str]:
        """Fresh, atomic evaluation; returns ``(tuples, provenance)``."""
        if isinstance(request, PointQuery):
            return (self.store.point(request.stream_id),), "live"
        if isinstance(request, RangeQuery):
            return self.store.range_query(request.stream_id, request.size), "live"
        if isinstance(request, AggregateQuery):
            return (
                self.store.window_aggregate(
                    request.stream_id, request.aggregate, request.size
                ),
            ), "live"
        if isinstance(request, (HistoryRangeQuery, HistoryAggregateQuery)):
            members, provenance = self._resolve_history_members(request)
            if not members:
                raise ServingError(
                    f"stream {request.stream_id!r} has no served tuples in "
                    f"[{request.t_start!r}, {request.t_end!r}]"
                )
            if isinstance(request, HistoryRangeQuery):
                return members, provenance
            return (replay_aggregate(members, request.aggregate),), provenance
        raise ServingError(f"unknown request type {type(request).__name__}")

    def _cache_put(
        self,
        signature: tuple,
        entry: tuple[tuple[StreamTuple, ...], int, str, int],
    ) -> None:
        """Insert/refresh an entry, evicting the least-recently used
        past ``admission.cache_capacity`` (counted, telemetered)."""
        self._cache[signature] = entry
        self._cache.move_to_end(signature)
        while len(self._cache) > self.admission.cache_capacity:
            self._cache.popitem(last=False)
            self.cache_evictions += 1
            if self._tel.enabled:
                self._tel.inc("repro_serving_cache_evictions_total")

    def _from_cache(
        self, signature: tuple, stream_id: str
    ) -> tuple[tuple[StreamTuple, ...], int, str, bool] | None:
        """The one cache read: ``(tuples, staleness, provenance, degraded)``.

        A hit is re-served *as fresh* — undegraded, bitwise what
        evaluation would return — when nothing it read can have changed:
        the store's content version is what it was at evaluation time,
        or the answer is ``historical`` (a closed past interval no new
        ingest rewrites).  Any other hit is served only under overload,
        flagged degraded, each bound widened by ``drift_per_tick · δ``
        per tick of staleness; a moved version is at least one tick
        stale, since an ingest without a tick advance changed the ring
        too.  ``None`` means evaluate.  A hit refreshes LRU recency.
        """
        cached = self._cache.get(signature)
        if cached is None:
            return None
        self._cache.move_to_end(signature)
        tuples, at_tick, provenance, version = cached
        if provenance == "historical" or version == self.store.version:
            return tuples, 0, provenance, False
        if not self._overloaded:
            return None
        staleness = max(self.store.tick - at_tick, 1)
        widen = (
            self.admission.drift_per_tick * self.store.bounds[stream_id] * staleness
        )
        if widen > 0.0:
            tuples = tuple(replace(tup, bound=tup.bound + widen) for tup in tuples)
        return tuples, staleness, provenance, True

    def _note_overload(self) -> None:
        over = self._inflight > self.admission.max_inflight
        if over and not self._overloaded:
            self._overloaded = True
            if self._tel.enabled:
                self._tel.event(
                    tracing.OVERLOAD_ENTER, self.store.tick, inflight=self._inflight
                )
        elif not over and self._overloaded:
            self._overloaded = False
            if self._tel.enabled:
                self._tel.event(
                    tracing.OVERLOAD_EXIT, self.store.tick, inflight=self._inflight
                )

    # -- the request path ----------------------------------------------
    async def handle(self, request: Query) -> ServingResponse:
        """Answer one request; never sheds, degrades honestly instead."""
        tel = self._tel
        t0 = perf_counter()
        self._inflight += 1
        try:
            if tel.enabled:
                tel.set_gauge("repro_serving_inflight", self._inflight)
            self._note_overload()
            # Cooperative yield: a burst of handle() tasks all pass
            # admission before any evaluates, so in-flight (and the
            # overload decision) reflects true concurrency.
            await asyncio.sleep(0)
            signature = hit = None
            if not isinstance(request, PointQuery):  # O(1): never cached
                signature = self._signature(request)
                hit = self._from_cache(signature, request.stream_id)
            if hit is not None:
                tuples, staleness, provenance, degraded = hit
                cache_hit = not degraded
                reason = "overload" if degraded else None
            else:
                staleness, degraded, cache_hit, reason = 0, False, False, None
                with tel.span(f"serving.{request.kind}"):
                    tuples, provenance = self._evaluate(request)
                if signature is not None:
                    self._cache_put(
                        signature,
                        (tuples, self.store.tick, provenance, self.store.version),
                    )
            latency = perf_counter() - t0
            self.requests_served += 1
            if degraded:
                self.requests_degraded += 1
            if cache_hit:
                self.cache_hits += 1
            if tel.enabled:
                tel.inc("repro_serving_requests_total", kind=request.kind)
                tel.observe(
                    "repro_serving_latency_seconds", latency, kind=request.kind
                )
                if degraded:
                    tel.inc("repro_serving_degraded_total", kind=request.kind)
                if cache_hit:
                    tel.inc("repro_serving_cache_hits_total", kind=request.kind)
                if isinstance(
                    request, (HistoryRangeQuery, HistoryAggregateQuery)
                ):
                    tel.inc(
                        "repro_serving_provenance_total", provenance=provenance
                    )
            return ServingResponse(
                request=request,
                tuples=tuples,
                degraded=degraded,
                staleness_ticks=staleness,
                reason=reason,
                latency_s=latency,
                provenance=provenance,
            )
        finally:
            self._inflight -= 1
            if tel.enabled:
                tel.set_gauge("repro_serving_inflight", self._inflight)
            self._note_overload()
