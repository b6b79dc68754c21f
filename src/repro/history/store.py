"""Indexed queries over the archived served history.

A :class:`HistoryStore` answers point / range / windowed-aggregate
queries over *arbitrary past tick ranges* of the SQLite archive.  Range
selection rides the ``(stream_id, t, value, bound)`` covering index — a
range query is one ordered index scan, no table lookups — and tuples
are rebuilt bitwise from the indexed columns (SQLite ``REAL`` is an
IEEE-754 double stored verbatim).

Aggregation keeps the serving tier's central guarantee: members go
through :func:`~repro.dsms.operators.replay_aggregate`, the one-pass
kernel the property suite pins bit for bit to a real dsms
:class:`~repro.dsms.operators.WindowAggregate`, so an archival answer's
value *and* bound are bitwise what direct dsms evaluation of the same
served tuples produces.  The store adds no arithmetic of its own on the
exact path.  A separate *series* path
(:meth:`HistoryStore.aggregate_series`) pushes rolling aggregates down
into SQLite window functions for dashboard-scale scans — exact for the
selection aggregates (min/max, and their max-of-bounds rule), floating-
point-reassociated for mean/sum, and documented as such.

:meth:`audit` closes the durability loop: every row also carries its
canonical codec payload (see :mod:`repro.history.db`), and the audit
decodes payloads and cross-checks them bitwise against the indexed
columns — verify-before-trust, the checkpoint store's posture.
"""

from __future__ import annotations

import math
import sqlite3
from pathlib import Path
from time import perf_counter

from repro.durability.codec import loads_payload
from repro.dsms.operators import replay_aggregate
from repro.dsms.tuples import StreamTuple
from repro.errors import HistoryError
from repro.history.db import connect, ensure_schema
from repro.obs import tracing
from repro.obs.telemetry import resolve_telemetry

__all__ = ["HistoryStore"]

#: Aggregates the SQL series path supports, mapped to (value expr, bound
#: expr) over window ``w``.  Bound rules mirror
#: repro.dsms.precision_propagation: mean → mean of member bounds,
#: sum → sum, min/max → max of member bounds, count → constant zero.
_SQL_SERIES = {
    "mean": ("AVG(value) OVER w", "AVG(bound) OVER w"),
    "avg": ("AVG(value) OVER w", "AVG(bound) OVER w"),
    "sum": ("SUM(value) OVER w", "SUM(bound) OVER w"),
    "min": ("MIN(value) OVER w", "MAX(bound) OVER w"),
    "max": ("MAX(value) OVER w", "MAX(bound) OVER w"),
    "count": ("COUNT(value) OVER w", "0.0"),
}


class HistoryStore:
    """Query surface over an archive database.

    Args:
        path: The archive file an :class:`ArchiveWriter` populated (or
            is still populating — WAL mode keeps readers unblocked).
        telemetry: Optional :class:`~repro.obs.Telemetry` sink.  Each
            query records ``repro_history_queries_total{kind=...}``, a
            ``repro_history_query_seconds{kind=...}`` observation, a
            ``history_query`` event and a ``history.<kind>`` span.
    """

    def __init__(self, path: str | Path, telemetry=None):
        self._conn = connect(path)
        ensure_schema(self._conn)
        self._tel = resolve_telemetry(telemetry)
        #: Queries answered, the ``history_query`` event clock.
        self.queries = 0
        self.refresh_bounds()

    def refresh_bounds(self) -> dict[str, float]:
        """(Re)load the stream catalogue; returns stream id → δ."""
        rows = self._conn.execute(
            "SELECT stream_id, delta FROM streams ORDER BY stream_id"
        ).fetchall()
        self.bounds = {sid: float(delta) for sid, delta in rows}
        return self.bounds

    def stream_ids(self) -> list[str]:
        """Archived stream identifiers (catalogue order)."""
        return list(self.bounds)

    def close(self) -> None:
        self._conn.close()

    def __enter__(self) -> "HistoryStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # -- bookkeeping ----------------------------------------------------
    def _check_stream(self, stream_id: str) -> None:
        if stream_id not in self.bounds:
            self.refresh_bounds()
            if stream_id not in self.bounds:
                raise HistoryError(
                    f"unknown stream {stream_id!r}; archived: {sorted(self.bounds)}"
                )

    def row_count(self, stream_id: str | None = None) -> int:
        """Archived tuples, for one stream or overall."""
        if stream_id is None:
            (n,) = self._conn.execute("SELECT COUNT(*) FROM archive").fetchone()
        else:
            self._check_stream(stream_id)
            (n,) = self._conn.execute(
                "SELECT COUNT(*) FROM archive WHERE stream_id = ?", (stream_id,)
            ).fetchone()
        return int(n)

    def span(self, stream_id: str) -> tuple[float, float, int]:
        """``(t_min, t_max, rows)`` of one stream's archived history."""
        self._check_stream(stream_id)
        t_min, t_max, n = self._conn.execute(
            "SELECT MIN(t), MAX(t), COUNT(*) FROM archive WHERE stream_id = ?",
            (stream_id,),
        ).fetchone()
        if not n:
            raise HistoryError(f"stream {stream_id!r} has no archived history yet")
        return float(t_min), float(t_max), int(n)

    def _record(self, kind: str, t0: float, rows: int) -> None:
        tel = self._tel
        self.queries += 1
        if tel.enabled:
            tel.inc("repro_history_queries_total", kind=kind)
            tel.observe(
                "repro_history_query_seconds", perf_counter() - t0, kind=kind
            )
            tel.event(tracing.HISTORY_QUERY, self.queries, query=kind, rows=rows)

    # -- row access -----------------------------------------------------
    def _select(
        self,
        stream_id: str,
        t_start: float,
        t_end: float,
        use_index: bool = True,
    ) -> list[tuple[float, float, float]]:
        """``(t, value, bound)`` rows in ``[t_start, t_end]``, time order.

        ``use_index=False`` forces a full-table linear scan (SQLite's
        ``NOT INDEXED``) — the baseline the T9 benchmark measures the
        covering index against; answers are identical either way.
        """
        self._check_stream(stream_id)
        if not (math.isfinite(t_start) and math.isfinite(t_end)):
            raise HistoryError(
                f"range endpoints must be finite, got [{t_start!r}, {t_end!r}]"
            )
        if t_start > t_end:
            raise HistoryError(
                f"empty range: t_start {t_start!r} > t_end {t_end!r}"
            )
        source = "archive" if use_index else "archive NOT INDEXED"
        try:
            return self._conn.execute(
                f"SELECT t, value, bound FROM {source} "
                "WHERE stream_id = ? AND t BETWEEN ? AND ? ORDER BY t",
                (stream_id, float(t_start), float(t_end)),
            ).fetchall()
        except sqlite3.Error as exc:
            raise HistoryError(f"archive query failed: {exc}") from exc

    def _tuples(self, stream_id: str, rows) -> tuple[StreamTuple, ...]:
        return tuple(
            StreamTuple(t=t, stream_id=stream_id, value=value, bound=bound)
            for t, value, bound in rows
        )

    # -- queries --------------------------------------------------------
    def point(self, stream_id: str, at_t: float | None = None) -> StreamTuple:
        """The archived value as of ``at_t``: the newest tuple with t ≤ at_t.

        With ``at_t=None``, the newest archived tuple overall.
        """
        t0 = perf_counter()
        self._check_stream(stream_id)
        if at_t is None:
            row = self._conn.execute(
                "SELECT t, value, bound FROM archive WHERE stream_id = ? "
                "ORDER BY t DESC LIMIT 1",
                (stream_id,),
            ).fetchone()
        else:
            row = self._conn.execute(
                "SELECT t, value, bound FROM archive "
                "WHERE stream_id = ? AND t <= ? ORDER BY t DESC LIMIT 1",
                (stream_id, float(at_t)),
            ).fetchone()
        if row is None:
            raise HistoryError(
                f"stream {stream_id!r} has no archived tuple at or before "
                f"{'the end of history' if at_t is None else at_t}"
            )
        self._record("point", t0, 1)
        return self._tuples(stream_id, [row])[0]

    def range_query(
        self,
        stream_id: str,
        t_start: float,
        t_end: float,
        use_index: bool = True,
    ) -> tuple[StreamTuple, ...]:
        """All archived tuples with t in ``[t_start, t_end]``, oldest first."""
        t0 = perf_counter()
        with self._tel.span("history.range"):
            rows = self._select(stream_id, t_start, t_end, use_index=use_index)
        self._record("range", t0, len(rows))
        return self._tuples(stream_id, rows)

    def last_n(
        self, stream_id: str, size: int, t_end: float | None = None
    ) -> tuple[StreamTuple, ...]:
        """The last ``size`` tuples at or before ``t_end``, oldest first."""
        if size < 1:
            raise HistoryError(f"size must be >= 1, got {size!r}")
        t0 = perf_counter()
        self._check_stream(stream_id)
        if t_end is None:
            rows = self._conn.execute(
                "SELECT t, value, bound FROM archive WHERE stream_id = ? "
                "ORDER BY t DESC LIMIT ?",
                (stream_id, int(size)),
            ).fetchall()
        else:
            rows = self._conn.execute(
                "SELECT t, value, bound FROM archive "
                "WHERE stream_id = ? AND t <= ? ORDER BY t DESC LIMIT ?",
                (stream_id, float(t_end), int(size)),
            ).fetchall()
        self._record("range", t0, len(rows))
        return self._tuples(stream_id, rows[::-1])

    def range_aggregate(
        self,
        stream_id: str,
        aggregate: str,
        t_start: float,
        t_end: float,
        use_index: bool = True,
    ) -> StreamTuple:
        """Aggregate every archived tuple in ``[t_start, t_end]``.

        Value and bound are bitwise what direct dsms evaluation of the
        same tuples produces (the shared one-pass kernel; pinned by tests).
        """
        t0 = perf_counter()
        with self._tel.span("history.aggregate"):
            rows = self._select(stream_id, t_start, t_end, use_index=use_index)
            if not rows:
                raise HistoryError(
                    f"stream {stream_id!r} has no archived tuples in "
                    f"[{t_start!r}, {t_end!r}]"
                )
            answer = replay_aggregate(self._tuples(stream_id, rows), aggregate)
        self._record("aggregate", t0, len(rows))
        return answer

    def window_aggregate(
        self,
        stream_id: str,
        aggregate: str,
        size: int,
        t_end: float | None = None,
        emit_partial: bool = False,
    ) -> StreamTuple:
        """Aggregate the last ``size`` tuples at or before ``t_end``.

        The archival twin of :meth:`ServingStore.window_aggregate`, with
        the same warm-up contract: fewer than ``size`` archived tuples
        raises unless ``emit_partial=True``.
        """
        t0 = perf_counter()
        with self._tel.span("history.aggregate"):
            members = self.last_n(stream_id, size, t_end=t_end)
            if not members or (len(members) < size and not emit_partial):
                raise HistoryError(
                    f"stream {stream_id!r} has {len(members)} archived tuples "
                    f"at or before {t_end!r}, window of {size} has not warmed "
                    f"up (pass emit_partial=True to aggregate the suffix)"
                )
            answer = replay_aggregate(members, aggregate)
        self._record("aggregate", t0, len(members))
        return answer

    def aggregate_series(
        self,
        stream_id: str,
        aggregate: str,
        size: int,
        t_start: float,
        t_end: float,
    ) -> list[StreamTuple]:
        """Rolling ``size``-tuple aggregates over a range, in SQL.

        One SQLite window-function scan computes the whole series —
        each output tuple aggregates the ``size`` archived tuples ending
        at its timestamp (shorter prefixes at the start of history).
        Exact for ``min``/``max``/``count`` (comparisons and counts
        reassociate freely); ``mean``/``sum`` values may differ from the
        dsms kernel's in the last ulps because SQL reassociates the
        float summation.  Bounds follow the dsms propagation rules
        (mean of bounds / sum of bounds / max of bounds / zero).  For a
        per-answer exact result use :meth:`window_aggregate`.
        """
        spec = _SQL_SERIES.get(aggregate)
        if spec is None:
            raise HistoryError(
                f"aggregate_series supports {sorted(set(_SQL_SERIES))}, "
                f"got {aggregate!r} (use window_aggregate for the rest)"
            )
        if size < 1:
            raise HistoryError(f"size must be >= 1, got {size!r}")
        t0 = perf_counter()
        self._check_stream(stream_id)
        value_fn, bound_fn = spec
        frame = f"ROWS BETWEEN {int(size) - 1} PRECEDING AND CURRENT ROW"
        # The window frame must see the `size - 1` tuples *before*
        # t_start too, so the subselect widens to the whole stream and
        # the outer filter trims to the requested range.
        with self._tel.span("history.series"):
            rows = self._conn.execute(
                "SELECT t, v, b FROM ("
                f"  SELECT t, {value_fn} AS v, {bound_fn} AS b"
                "   FROM archive WHERE stream_id = ?"
                f"  WINDOW w AS (ORDER BY t {frame})"
                ") WHERE t BETWEEN ? AND ? ORDER BY t",
                (stream_id, float(t_start), float(t_end)),
            ).fetchall()
        self._record("series", t0, len(rows))
        return [
            StreamTuple(
                t=t, stream_id=f"{aggregate}({stream_id})", value=v, bound=b
            )
            for t, v, b in rows
        ]

    # -- integrity ------------------------------------------------------
    def audit(self, stream_id: str | None = None) -> int:
        """Cross-check codec payloads against the indexed columns.

        Decodes every row's canonical codec payload and verifies it
        matches the numeric columns bitwise; returns the number of rows
        audited.  A mismatch means a torn or tampered row and raises.
        """
        where, params = ("", ())
        if stream_id is not None:
            self._check_stream(stream_id)
            where, params = (" WHERE stream_id = ?", (stream_id,))
        audited = 0
        for sid, t, value, bound, payload in self._conn.execute(
            f"SELECT stream_id, t, value, bound, payload FROM archive{where}",
            params,
        ):
            row = loads_payload(payload)
            ok = (
                row.get("stream_id") == sid
                and row.get("t") == t
                and row.get("value") == value
                and row.get("bound") == bound
            )
            if not ok:
                raise HistoryError(
                    f"archive row ({sid!r}, t={t!r}) disagrees with its codec "
                    f"payload {row!r}; the archive is damaged"
                )
            audited += 1
        return audited
