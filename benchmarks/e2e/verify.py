"""Output checks: every run proves its answers before its timings count.

The driver keeps its own copy of what the engine served
(``Pipeline.served``, one row per tick).  After the run:

* :func:`check_answers` re-evaluates every sampled answer (every 25th
  request) by direct dsms evaluation on that copy — members rebuilt as
  ``StreamTuple`` rows, aggregates replayed through a fresh
  ``repro.dsms.WindowAggregate`` — and compares value, bound and
  timestamps **bitwise**, plus the provenance the residency boundary at
  answer time dictates (live / historical / hybrid).
* :func:`check_archive` drains the rings into the archive and requires
  archive rows == non-NaN served readings (none lost, none duplicated),
  one stream's archived history bitwise equal to the copy, and
  ``HistoryStore.audit()`` on that stream.
* :func:`check_repetitions` requires filter_wide's message count to be
  identical across repetitions and the sharded trace bitwise equal to the
  engine's.

Each function returns ``(checks, misses, notes)``; every miss counts into
the run's ``failed``.
"""

from __future__ import annotations

import numpy as np

from repro.dsms import StreamTuple, WindowAggregate
from repro.errors import HistoryError

__all__ = ["check_answers", "check_archive", "check_repetitions"]


def _members(served, deltas, sids, stream: int, lo: int, hi: int):
    """The served tuples of one stream with tick in ``[lo, hi]``."""
    sid, bound = sids[stream], float(deltas[stream])
    return tuple(
        StreamTuple(t=float(k), stream_id=sid, value=float(v), bound=bound)
        for k, v in zip(range(lo, hi + 1), served[lo:hi + 1, stream].tolist())
        if v == v
    )


def _replay(members, aggregate: str) -> StreamTuple:
    op = WindowAggregate(aggregate, size=len(members), slide=1, emit_partial=True)
    out = []
    for member in members:
        out = op.process(member)
    return out[0]


def _same(got, want) -> bool:
    """Tuple-for-tuple equality of t, stream, value and bound (floats by ``==``)."""
    return len(got) == len(want) and all(
        (a.t, a.stream_id, a.value, a.bound) == (b.t, b.stream_id, b.value, b.bound)
        for a, b in zip(got, want)
    )


def check_answers(pipeline, deltas, sampled) -> tuple[int, int, list[str]]:
    """Re-evaluate each sampled ``(request, response, ticks_ingested)``."""
    served, sids, ring = pipeline.served, pipeline.sids, pipeline.spec.ring
    index = {sid: i for i, sid in enumerate(sids)}
    misses, notes = 0, []
    for request, response, ticks in sampled:
        if response.degraded:
            continue  # honestly flagged; counted in serving.degraded
        i = index[request.stream_id]
        newest = ticks - 1
        oldest = max(0, ticks - ring)
        provenance = "live"
        kind = request.kind
        if kind == "point":
            want = _members(served, deltas, sids, i, newest, newest)
        elif kind in ("range", "aggregate"):
            want = _members(
                served, deltas, sids, i, max(oldest, ticks - request.size), newest
            )
        else:
            lo, hi = int(request.t_start), min(int(request.t_end), newest)
            want = _members(served, deltas, sids, i, lo, hi)
            if oldest > request.t_end:
                provenance = "historical"
            elif oldest > request.t_start:
                provenance = "hybrid"
        if kind in ("aggregate", "history_aggregate"):
            want = (_replay(want, request.aggregate),)
        if not _same(response.tuples, want) or response.provenance != provenance:
            misses += 1
            if len(notes) < 5:
                notes.append(
                    f"{kind} on {request.stream_id} at tick {ticks}: got "
                    f"{response.provenance} {response.tuples[-1]!r}, want "
                    f"{provenance} {want[-1]!r}"
                )
    return len(sampled), misses, notes


def check_archive(pipeline, deltas) -> tuple[int, int, list[str]]:
    """No tuple lost or duplicated between ring and archive; payloads intact."""
    writer, history = pipeline.writer, pipeline.history
    writer.drain_store(pipeline.store)
    ticks = pipeline.store.tick
    served = pipeline.served[:ticks]
    want_rows = int(np.count_nonzero(~np.isnan(served)))
    got_rows = history.row_count()
    misses, notes = abs(got_rows - want_rows), []
    if misses:
        notes.append(f"archive holds {got_rows} rows, {want_rows} readings were served")
    # One stream end to end (any one; take the middle).
    i = len(pipeline.sids) // 2
    sid = pipeline.sids[i]
    want = _members(served, deltas, pipeline.sids, i, 0, ticks - 1)
    if not _same(history.range_query(sid, 0.0, float(ticks)), want):
        misses += 1
        notes.append(f"archived history of {sid} differs from what was served")
    try:
        audited = history.audit(sid)
    except HistoryError as exc:
        audited = -1
        notes.append(str(exc))
    if audited != len(want):
        misses += 1
        notes.append(f"audit of {sid} covered {audited} rows, {len(want)} were served")
    return want_rows + 2, misses, notes


def check_repetitions(rep_messages, sharded_equal) -> tuple[int, int, list[str]]:
    """Same inputs, same counts: every repetition sent the same messages."""
    misses, notes = 0, []
    if len(set(rep_messages)) > 1:
        misses += 1
        notes.append(f"message counts differ across repetitions: {rep_messages}")
    if sharded_equal is not None and not sharded_equal:
        misses += 1
        notes.append("sharded trace is not bitwise equal to the engine trace")
    return 1 + (sharded_equal is not None), misses, notes
