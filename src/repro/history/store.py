"""Indexed queries over the archived served history.

A :class:`HistoryStore` answers point / range / windowed-aggregate
queries over *arbitrary past tick ranges* of the SQLite archive.  Range
selection rides the archive's ``(grp, t, sub)`` primary key — the
``WITHOUT ROWID`` table is its own covering index, so a range query is
one ordered seek-and-scan of the stream's group — and tuples are rebuilt
bitwise (SQLite ``REAL`` is an IEEE-754 double stored verbatim).

Aggregation keeps the serving tier's central guarantee: members go
through :func:`~repro.dsms.operators.replay_aggregate`, the one-pass
kernel the property suite pins bit for bit to a real dsms
:class:`~repro.dsms.operators.WindowAggregate`, so an archival answer's
value *and* bound are bitwise what direct dsms evaluation of the same
served tuples produces.  There is no second aggregate engine: an
aggregate over a time range is ``replay_aggregate(range_query(...))``
(what :class:`~repro.serving.server.QueryServer` composes), and a
rolling series is :meth:`HistoryStore.window_aggregate` per point.

:meth:`audit` closes the durability loop: it re-hashes every batch
against the manifest its flush wrote (see :mod:`repro.history.db`) —
verify-before-trust, the checkpoint store's posture.
"""

from __future__ import annotations

import hashlib
import math
import sqlite3
from numbers import Integral
from pathlib import Path
from time import perf_counter

from repro.dsms.operators import replay_aggregate
from repro.dsms.tuples import StreamTuple, stream_tuples
from repro.errors import HistoryError
from repro.history.db import ROW, G, connect
from repro.obs import tracing
from repro.obs.telemetry import resolve_telemetry

__all__ = ["HistoryStore"]

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
        self._tel = resolve_telemetry(telemetry)
        #: Queries answered, the ``history_query`` event clock.
        self.queries = 0
        self.refresh_bounds()

    def refresh_bounds(self) -> dict[str, float]:
        """(Re)load the stream catalogue; returns stream id → δ."""
        rows = self._conn.execute(
            "SELECT stream_id, delta, stream_key FROM streams ORDER BY stream_id"
        ).fetchall()
        self.bounds = {sid: float(delta) for sid, delta, _ in rows}
        self._keys = {sid: key for sid, _, key in rows}
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
    def _key(self, stream_id: str) -> tuple[int, int]:
        """The stream's ``(grp, sub)`` archive key (refreshing the catalogue once)."""
        if stream_id not in self._keys:
            self.refresh_bounds()
            if stream_id not in self._keys:
                raise HistoryError(
                    f"unknown stream {stream_id!r}; archived: {sorted(self.bounds)}"
                )
        return divmod(self._keys[stream_id], G)

    def row_count(self, stream_id: str | None = None) -> int:
        """Archived tuples, for one stream or overall."""
        if stream_id is None:
            (n,) = self._conn.execute("SELECT COUNT(*) FROM archive").fetchone()
        else:
            (n,) = self._conn.execute(
                "SELECT COUNT(*) FROM archive WHERE grp = ? AND sub = ?",
                self._key(stream_id),
            ).fetchone()
        return int(n)

    def span(self, stream_id: str) -> tuple[float, float, int]:
        """``(t_min, t_max, rows)`` of one stream's archived history."""
        t_min, t_max, n = self._conn.execute(
            "SELECT MIN(t), MAX(t), COUNT(*) FROM archive WHERE grp = ? AND sub = ?",
            self._key(stream_id),
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

        ``use_index=False`` forces a full-table linear scan — the
        baseline the T9 benchmark measures the primary key against;
        answers are identical either way.  Unary ``+`` hides the columns
        from the planner (``NOT INDEXED`` would not: on a ``WITHOUT
        ROWID`` table it still searches the primary key).
        """
        grp, sub = self._key(stream_id)
        if not (math.isfinite(t_start) and math.isfinite(t_end)):
            raise HistoryError(
                f"range endpoints must be finite, got [{t_start!r}, {t_end!r}]"
            )
        if t_start > t_end:
            raise HistoryError(
                f"empty range: t_start {t_start!r} > t_end {t_end!r}"
            )
        plus = "" if use_index else "+"
        try:
            return self._conn.execute(
                f"SELECT t, value, bound FROM archive WHERE {plus}grp = ? "
                f"AND {plus}sub = ? AND {plus}t BETWEEN ? AND ? ORDER BY t",
                (grp, sub, float(t_start), float(t_end)),
            ).fetchall()
        except sqlite3.Error as exc:
            raise HistoryError(f"archive query failed: {exc}") from exc

    def _newest(self, stream_id: str, size: int, t_end: float | None):
        """The newest ``size`` rows at or before ``t_end``, newest first."""
        t_end = math.inf if t_end is None else float(t_end)
        return self._conn.execute(
            "SELECT t, value, bound FROM archive "
            "WHERE grp = ? AND sub = ? AND t <= ? ORDER BY t DESC LIMIT ?",
            (*self._key(stream_id), t_end, int(size)),
        ).fetchall()

    # -- queries --------------------------------------------------------
    def point(self, stream_id: str, at_t: float | None = None) -> StreamTuple:
        """The archived value as of ``at_t``: the newest tuple with t ≤ at_t.

        With ``at_t=None``, the newest archived tuple overall.
        """
        t0 = perf_counter()
        rows = self._newest(stream_id, 1, at_t)
        if not rows:
            raise HistoryError(
                f"stream {stream_id!r} has no archived tuple at or before "
                f"{'the end of history' if at_t is None else at_t}"
            )
        self._record("point", t0, 1)
        return stream_tuples(stream_id, rows)[0]

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
        return stream_tuples(stream_id, rows)

    def last_n(
        self, stream_id: str, size: int, t_end: float | None = None
    ) -> tuple[StreamTuple, ...]:
        """The last ``size`` tuples at or before ``t_end``, oldest first."""
        t0 = perf_counter()
        members = self._last(stream_id, size, t_end)
        self._record("range", t0, len(members))
        return members

    def _last(self, stream_id: str, size: int, t_end: float | None):
        """:meth:`last_n`'s tuples, not recorded as a query of their own."""
        # 2.5 would fetch 2 rows, True one: sizes are integers, as on the ring.
        if isinstance(size, bool) or not isinstance(size, Integral) or size < 1:
            raise HistoryError(f"size must be an integer >= 1, got {size!r}")
        return stream_tuples(stream_id, self._newest(stream_id, size, t_end)[::-1])

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
            members = self._last(stream_id, size, t_end)
            if not members or (len(members) < size and not emit_partial):
                raise HistoryError(
                    f"stream {stream_id!r} has {len(members)} archived tuples "
                    f"at or before {t_end!r}, window of {size} has not warmed "
                    f"up (pass emit_partial=True to aggregate the suffix)"
                )
            answer = replay_aggregate(members, aggregate)
        self._record("aggregate", t0, len(members))
        return answer

    # -- integrity ------------------------------------------------------
    def audit(self, stream_id: str | None = None) -> int:
        """Re-hash every committed batch against its manifest.

        A row without a manifest, or a batch whose row count or SHA-256
        disagrees with its manifest, is a torn or tampered archive and
        raises.  One read transaction covers manifests and rows, so a
        concurrent flush cannot make a clean archive look damaged.
        Returns the rows audited for ``stream_id`` (all when ``None``).
        """
        key = None if stream_id is None else self._key(stream_id)
        conn, audited = self._conn, 0
        conn.execute("BEGIN")
        try:
            manifests = conn.execute("SELECT * FROM batches").fetchall()
            seen = {batch: [0, hashlib.sha256()] for batch, _, _ in manifests}
            for row in conn.execute(
                f"SELECT grp * {G} + sub, t, value, bound, batch FROM archive "
                "ORDER BY grp, t, sub"
            ):
                if row[4] not in seen:
                    raise HistoryError(
                        f"archive row (stream_key={row[0]}, t={row[1]!r}) is in batch "
                        f"{row[4]!r}, which has no manifest; the archive is damaged"
                    )
                entry = seen[row[4]]
                entry[0] += 1
                entry[1].update(ROW.pack(*row[:4]))
                audited += key is None or divmod(row[0], G) == key
        finally:
            conn.rollback()
        for batch, rows, sha256 in manifests:
            count, digest = seen[batch]
            if count != rows or digest.hexdigest() != sha256:
                raise HistoryError(
                    f"archive batch {batch} ({count} rows) disagrees with its "
                    f"manifest ({rows} rows, sha256 {sha256}); the archive is damaged"
                )
        return audited
