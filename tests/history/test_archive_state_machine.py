"""Ring + archive + query server against a plain in-memory model.

A hypothesis state machine drives a :class:`ServingStore` whose
evictions feed an :class:`ArchiveWriter`, a :class:`HistoryStore` over
the same file and a :class:`QueryServer` over both, through random
ticks (with cold streams), flushes, re-offered tuples, drains,
close/reopen cycles, a closed writer that refuses evictions, and bursts
answered under overload.  The model is a dict of lists: what was served,
what each ring holds, what the writer has buffered and what the archive
has committed.  After every step:

* ring ∪ archive ∪ buffer is exactly what was served — nothing lost,
  nothing duplicated — and ``row_count()`` is the model's archived count;
* every answer is bitwise the model's slice (aggregates replayed
  through ``replay_aggregate``), with the provenance the residency
  boundary implies;
* ``audit()`` passes and covers exactly the archived rows;
* while the writer is closed, an ingest that would evict raises and
  leaves ring ∪ archive ∪ buffer exactly as the model has it;
* in an overloaded burst, a degraded answer is flagged and is the
  server's last fresh answer with every bound widened by exactly
  drift × δ × staleness (never below the fresh bound), and every
  undegraded answer is bitwise the model's.

Only public API is used.  Two facts of the system are modelled, not
avoided: SQLite ``REAL`` stores ``-0.0`` as ``0.0`` (so the archive's
copy of a negative zero is a positive zero), and history queries see
committed rows only, so they are asked at commit points — the pipeline
flushes its writer every tick before it serves.
"""

from __future__ import annotations

import asyncio
import shutil
import struct
import tempfile
from collections import deque
from dataclasses import replace
from pathlib import Path

from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)

from repro.dsms import replay_aggregate
from repro.dsms.tuples import StreamTuple
from repro.errors import HistoryError, ServingError
from repro.history import ArchiveWriter, HistoryStore
from repro.serving import (
    AdmissionConfig,
    AggregateQuery,
    HistoryAggregateQuery,
    HistoryRangeQuery,
    PointQuery,
    QueryServer,
    RangeQuery,
    ServingStore,
)

BOUNDS = {"a": 0.5, "b": 1.25, "c": 2.0}
SIDS = list(BOUNDS)
RING = 4
BATCH = 5
AGGREGATES = ["mean", "sum", "min", "max", "median"]

values = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
streams = st.sampled_from(SIDS)


def _bits(tuples) -> list[tuple]:
    """Tuples as exact bit patterns (``==`` would equate -0.0 and 0.0)."""
    return [
        (tup.stream_id, struct.pack("<ddd", tup.t, tup.value, tup.bound))
        for tup in tuples
    ]


def _archived(tup: StreamTuple) -> StreamTuple:
    """The archive's copy of a tuple: SQLite turns -0.0 into 0.0."""
    return StreamTuple(tup.t, tup.stream_id, tup.value + 0.0, tup.bound)


class ArchiveMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.dir = Path(tempfile.mkdtemp(prefix="archive-machine-"))
        self.path = self.dir / "archive.sqlite"
        self.store = ServingStore(BOUNDS, history=RING)
        self.writer = self.history = self.server = self.busy = None
        self.reopens = 0
        self._open()
        # The model.
        self.clock = 0
        self.served = {sid: [] for sid in SIDS}
        self.rings = {sid: deque(maxlen=RING) for sid in SIDS}
        self.pending: list[StreamTuple] = []
        self.archive: dict[str, dict[float, StreamTuple]] = {sid: {} for sid in SIDS}

    def _open(self) -> None:
        # A reopen re-registers every stream with a new δ: the catalogue
        # must keep each stream's rows whatever its δ becomes.
        scale = 1.0 + self.reopens
        self.writer = ArchiveWriter(
            self.path, {s: d * scale for s, d in BOUNDS.items()}, batch_size=BATCH
        )
        self.writer.attach_evictions(self.store)
        self.history = HistoryStore(self.path)
        self.server = QueryServer(self.store, history=self.history)
        # Overloaded by any burst of two or more requests.
        self.busy = QueryServer(
            self.store, admission=AdmissionConfig(max_inflight=1), history=self.history
        )
        # The busy server's last fresh answer per request: (tuples, tick).
        self.busy_fresh: dict = {}
        self.closed = False

    def teardown(self):
        self.history.close()
        self.writer.close()
        shutil.rmtree(self.dir, ignore_errors=True)

    # -- model bookkeeping ---------------------------------------------
    def _offer(self, tup: StreamTuple) -> None:
        self.pending.append(tup)
        if len(self.pending) >= BATCH:
            self._commit()

    def _commit(self) -> None:
        for tup in self.pending:
            self.archive[tup.stream_id].setdefault(tup.t, _archived(tup))
        self.pending = []

    def _archived_between(self, sid, lo, hi) -> list[StreamTuple]:
        rows = self.archive[sid]
        return [rows[t] for t in sorted(rows) if lo <= t <= hi]

    def _ask(self, request):
        return asyncio.run(self.server.handle(request))

    # -- rules ----------------------------------------------------------
    @rule(tick=st.lists(st.one_of(st.none(), values), min_size=3, max_size=3))
    def ingest_tick(self, tick):
        t = float(self.clock)
        self.clock += 1
        for sid, value in zip(SIDS, tick):
            if value is None:  # the stream is still cold at this tick
                continue
            ring = self.rings[sid]
            if self.closed and len(ring) == RING:
                # The eviction has nowhere to go: refused, nothing moves.
                version = self.store.version
                try:
                    self.store.ingest(sid, t, value)
                except HistoryError:
                    assert self.store.version == version
                    continue
                raise AssertionError("an eviction into a closed writer was accepted")
            self.store.ingest(sid, t, value)
            tup = StreamTuple(t, sid, value, BOUNDS[sid])
            self.served[sid].append(tup)
            if len(ring) == RING:
                self._offer(ring[0])
            ring.append(tup)

    @rule()
    def advance_tick(self):
        self.store.advance_tick()

    @precondition(lambda self: not self.closed)
    @rule()
    def flush(self):
        self.writer.flush()
        self._commit()

    @precondition(
        lambda self: not self.closed and (any(self.archive.values()) or self.pending)
    )
    @rule(data=st.data())
    def reoffer(self, data):
        offered = [tup for rows in self.archive.values() for tup in rows.values()]
        tup = data.draw(st.sampled_from(offered + self.pending))
        self.writer.ingest_tuple(tup)
        self._offer(tup)

    @precondition(lambda self: not self.closed)
    @rule()
    def drain(self):
        self.writer.drain_store(self.store)
        for sid in SIDS:
            for tup in self.rings[sid]:
                self._offer(tup)
        self._commit()

    @rule()
    def reopen(self):
        self.history.close()
        self.writer.close()
        self._commit()
        self.reopens += 1
        self._open()
        assert self.history.bounds == self.writer.bounds

    @precondition(lambda self: not self.closed)
    @rule()
    def close_writer(self):
        self.writer.close()
        self._commit()
        self.closed = True

    @rule(burst=st.lists(
        st.tuples(streams, st.integers(1, RING), st.sampled_from([None] + AGGREGATES)),
        min_size=2, max_size=5,
    ), ticks=st.integers(0, 2))
    def overloaded_burst(self, burst, ticks):
        requests = [
            RangeQuery(sid, size) if agg is None else AggregateQuery(sid, agg, size)
            for sid, size, agg in burst
        ]
        for request in requests:  # one at a time: under the limit, fresh
            self._answer_at_once([request])
        for _ in range(ticks):
            self.store.advance_tick()
        # All at once: past max_inflight=1, so served stale from the cache.
        self._answer_at_once(requests)

    def _answer_at_once(self, requests):
        async def answer_all():
            return await asyncio.gather(
                *(self.busy.handle(r) for r in requests), return_exceptions=True
            )

        tick = self.store.tick
        for request, response in zip(requests, asyncio.run(answer_all())):
            members = list(self.rings[request.stream_id])[-request.size:]
            if isinstance(request, RangeQuery):
                want = members
            else:
                full = len(members) == request.size
                want = [replay_aggregate(members, request.aggregate)] if full else []
            if isinstance(response, ServingError):
                assert not want, f"{request!r} refused with members to answer from"
                continue
            if isinstance(response, BaseException):
                raise response
            assert response.provenance == "live"
            if not response.degraded:
                assert response.reason is None and response.staleness_ticks == 0
                assert _bits(response.tuples) == _bits(want)
                self.busy_fresh[request] = (response.tuples, tick)
                continue
            assert len(requests) > 1 and response.reason == "overload"
            cached, at_tick = self.busy_fresh[request]
            assert response.staleness_ticks == tick - at_tick
            widen = AdmissionConfig().drift_per_tick * BOUNDS[request.stream_id] * (
                tick - at_tick
            )
            assert _bits(response.tuples) == _bits(
                replace(tup, bound=tup.bound + widen) if widen > 0.0 else tup
                for tup in cached
            )
            if want:  # the fresh answer, had there been capacity for it
                assert min(tup.bound for tup in response.tuples) >= max(
                    tup.bound for tup in want
                )

    @rule(sid=streams)
    def point(self, sid):
        ring = self.rings[sid]
        if not ring:
            try:
                self._ask(PointQuery(sid))
            except ServingError:
                return
            raise AssertionError(f"a cold stream {sid!r} answered a point query")
        response = self._ask(PointQuery(sid))
        assert _bits(response.tuples) == _bits([ring[-1]])
        assert response.provenance == "live"

    @rule(sid=streams, size=st.integers(1, RING + 1),
          aggregate=st.sampled_from([None] + AGGREGATES))
    def recent(self, sid, size, aggregate):
        members = list(self.rings[sid])[-size:]
        if aggregate is None:
            request = RangeQuery(sid, size)
            want = members
        else:
            request = AggregateQuery(sid, aggregate, size)
            want = [replay_aggregate(members, aggregate)] if len(members) == size else []
        if not want:
            try:
                self._ask(request)
            except ServingError:
                return
            raise AssertionError(f"{request!r} answered without enough members")
        response = self._ask(request)
        assert _bits(response.tuples) == _bits(want)
        assert response.provenance == "live"

    @precondition(lambda self: not self.pending)
    @rule(sid=streams, lo=st.integers(-1, 40), width=st.integers(0, 12),
          aggregate=st.sampled_from([None] + AGGREGATES))
    def history_query(self, sid, lo, width, aggregate):
        lo, hi = float(lo), float(lo + width)
        ring = self.rings[sid]
        boundary = ring[0].t if ring else None
        resident = [tup for tup in ring if lo <= tup.t <= hi]
        if boundary is not None and boundary <= lo:
            members, provenance = resident, "live"
        elif boundary is None or boundary > hi:
            members, provenance = self._archived_between(sid, lo, hi), "historical"
        else:
            older = self._archived_between(sid, lo, boundary)
            members = [tup for tup in older if tup.t < boundary] + resident
            provenance = "hybrid"
        if aggregate is None:
            request, want = HistoryRangeQuery(sid, lo, hi), members
        else:
            request = HistoryAggregateQuery(sid, aggregate, lo, hi)
            want = [replay_aggregate(members, aggregate)] if members else []
        if not want:
            try:
                self._ask(request)
            except ServingError:
                return
            raise AssertionError(f"{request!r} answered from no members")
        response = self._ask(request)
        assert response.provenance == provenance
        assert _bits(response.tuples) == _bits(want)

    # -- invariants -----------------------------------------------------
    @invariant()
    def ring_matches_model(self):
        for sid in SIDS:
            ring = self.rings[sid]
            assert self.store.history_len(sid) == len(ring)
            if ring:
                assert _bits(self.store.range_query(sid, RING)) == _bits(ring)

    @invariant()
    def archive_matches_model(self):
        assert self.writer.pending == len(self.pending)
        total = 0
        for sid in SIDS:
            want = self._archived_between(sid, -1.0, float(self.clock))
            got = self.history.range_query(sid, -1.0, float(self.clock))
            assert _bits(got) == _bits(want)
            assert self.history.row_count(sid) == len(want)
            total += len(want)
        assert self.history.row_count() == total

    @invariant()
    def nothing_lost_nothing_duplicated(self):
        for sid in SIDS:
            ring = self.store.range_query(sid, RING) if self.store.history_len(sid) else ()
            archived = [tup.t for tup in self.history.range_query(sid, -1.0, self.clock)]
            assert len(archived) == len(set(archived))
            held = {tup.t for tup in ring} | set(archived)
            held |= {tup.t for tup in self.pending if tup.stream_id == sid}
            assert held == {tup.t for tup in self.served[sid]}

    @invariant()
    def audit_passes(self):
        assert self.history.audit() == sum(len(r) for r in self.archive.values())
        for sid in SIDS:
            assert self.history.audit(sid) == len(self.archive[sid])


ArchiveMachine.TestCase.settings = settings(
    max_examples=50, stateful_step_count=30, deadline=None
)
TestArchiveMachine = ArchiveMachine.TestCase
