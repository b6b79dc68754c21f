"""The archive ingest path: batched, transactional, idempotent.

An :class:`ArchiveWriter` moves served tuples into the SQLite archive
from two feeds:

* **fleet traces** — :meth:`archive_fleet` walks a ``(T, N, dim)``
  served trace from a :class:`~repro.core.manager.FleetEngine` run (NaN
  warm-up rows skip, exactly as :meth:`ServingStore.load_fleet_history`
  skips them).  The same call archives one tick live:
  ``engine.run(values, on_tick=lambda t, s, _: w.archive_fleet(sids,
  s[None], t0 + t))``.  A fleet's allocated δ seed the writer as
  ``ArchiveWriter(path, result.stream_bounds())``.
* **evictions** — :meth:`attach_evictions` hooks a
  :class:`~repro.serving.store.ServingStore`'s ``on_evict`` so tuples
  aging out of the hot ring land in the archive instead of vanishing;
  :meth:`drain_store` archives what is still resident (shutdown path),
  so ring ∪ archive always covers everything ever ingested.

Rows buffer in memory and commit in one transaction per batch
(``INSERT OR IGNORE`` — re-offering a tuple the archive already holds
is a no-op, which lets a trace feed and the eviction feed overlap
freely), closed by the batch's SHA-256 manifest of the rows it inserted.
"""

from __future__ import annotations

import hashlib
import sqlite3
import struct
from itertools import chain, groupby
from math import isfinite
from pathlib import Path

import numpy as np

from repro.dsms.tuples import StreamTuple, served_ticks, trusted_tuple
from repro.errors import HistoryError
from repro.history.db import ROW, G, connect
from repro.obs import tracing
from repro.obs.telemetry import resolve_telemetry

__all__ = ["ArchiveWriter"]

#: Rows per multi-row insert: four parameters a row plus the batch
#: number is 513, under SQLite's oldest 999-parameter limit.
CHUNK = 128
_INSERT_CHUNK = "INSERT OR IGNORE INTO archive VALUES " + ", ".join(
    f"(?{k + 1}/{G}, ?{k + 2}, ?{k + 1}%{G}, ?{k + 3}, ?{k + 4}, ?{4 * CHUNK + 1})"
    for k in range(0, 4 * CHUNK, 4)
)
_INSERT_ROW = f"INSERT OR IGNORE INTO archive VALUES (?1/{G}, ?2, ?1%{G}, ?3, ?4, ?5)"


class ArchiveWriter:
    """Batched transactional writer of served tuples into an archive.

    Args:
        path: Archive database file (``:memory:`` works for tests).
        bounds: Per-stream precision half-width δ, the default bound
            attached to ingested values (tuples that already carry a
            bound — e.g. ring evictions — keep their own).
        batch_size: Rows buffered before an automatic flush.
        telemetry: Optional :class:`~repro.obs.Telemetry` sink.  Each
            flush records an ``archive_flush`` event, a ``history.flush``
            span and ``repro_history_rows_total`` increments (only rows
            actually new to the archive count — ignored duplicates do
            not inflate the metric).
    """

    def __init__(
        self,
        path: str | Path,
        bounds: dict[str, float],
        batch_size: int = 1024,
        telemetry=None,
    ):
        if not bounds:
            raise HistoryError("an archive writer needs at least one stream bound")
        for sid, delta in bounds.items():
            if not (delta >= 0 and isfinite(delta)):
                raise HistoryError(
                    f"bound for {sid!r} must be finite and >= 0, got {delta!r}"
                )
        if batch_size < 1:
            raise HistoryError(f"batch_size must be >= 1, got {batch_size!r}")
        self.bounds = dict(bounds)
        self.batch_size = batch_size
        self._conn = connect(path)
        # A flush appends to ~one tail leaf per group, but a full tail splits
        # against its neighbours: one page per stream (not per group, ~0.4 ms
        # a flush slower) plus headroom for interior pages and the catalogue.
        self._conn.execute(f"PRAGMA cache_size={len(self.bounds) + 512}")
        with self._conn:
            # An upsert, never REPLACE: a re-registered stream keeps its
            # key, so the rows it already archived stay its own.
            self._conn.executemany(
                "INSERT INTO streams (stream_id, delta) VALUES (?, ?) "
                "ON CONFLICT (stream_id) DO UPDATE SET delta = excluded.delta",
                [(sid, float(delta)) for sid, delta in self.bounds.items()],
            )
        keys = dict(self._conn.execute("SELECT stream_id, stream_key FROM streams"))
        self._keys = {sid: keys[sid] for sid in self.bounds}
        self._buffer: list[tuple[int, float, float, float]] = []
        self._tel = resolve_telemetry(telemetry)
        #: Rows committed new to the archive by this writer (dedup'd).
        self.rows_written = 0
        #: Committed batches, the ``archive_flush`` event clock.
        self.flushes = 0
        self._closed = False

    # -- ingest ---------------------------------------------------------
    def ingest(
        self, stream_id: str, t: float, value: float, bound: float | None = None
    ) -> None:
        """Buffer one served scalar; flushes when the batch fills.

        ``bound`` defaults to the stream's δ; the row is checked as
        :meth:`ingest_tuple` checks a tuple.
        """
        if bound is None:
            bound = self.bounds.get(stream_id, 0.0)  # unknown: refused below
        self.ingest_tuple(trusted_tuple(float(t), stream_id, float(value), float(bound)))

    def ingest_tuple(self, tup: StreamTuple) -> None:
        """Buffer one :class:`StreamTuple`, keeping its own bound.

        The eviction hook :meth:`attach_evictions` installs, so it is
        called once per evicted reading: every check is inline, and each
        raises :class:`HistoryError` before anything is buffered.
        """
        if self._closed:
            raise HistoryError("archive writer is closed")
        key = self._keys.get(tup.stream_id)
        if key is None:
            raise HistoryError(
                f"unknown stream {tup.stream_id!r}; known: {sorted(self.bounds)}"
            )
        # ``+ 0.0`` turns -0.0 into the 0.0 SQLite stores, so the
        # manifest hashes exactly what the table holds.
        t = tup.t + 0.0
        value = tup.value + 0.0
        b = tup.bound + 0.0
        # SQLite REAL cannot represent non-finite values (NaN becomes
        # NULL); a non-finite served value is a feed bug, reject loudly.
        if not (isfinite(value) and isfinite(t) and b >= 0 and isfinite(b)):
            raise HistoryError(
                f"cannot archive non-finite row ({tup.stream_id!r}, t={t!r}, "
                f"value={value!r}, bound={b!r})"
            )
        buffer = self._buffer
        buffer.append((key, t, value, b))
        if len(buffer) >= self.batch_size:
            self.flush()

    def archive_fleet(
        self,
        stream_ids: list[str],
        served: np.ndarray,
        t0: float = 0.0,
        component: int = 0,
    ) -> None:
        """Bulk-ingest a ``(T, N, dim)`` served trace from a fleet run.

        Tick ``k`` is archived at time ``t0 + k``; NaN (pre-warm-up)
        entries skip, matching :meth:`ServingStore.load_fleet_history`.
        """
        for tick in served_ticks(stream_ids, served, t0, component, HistoryError):
            for sid, t, v in tick:
                self.ingest(sid, t, v)

    def attach_evictions(self, store) -> None:
        """Archive every tuple a :class:`ServingStore` ring evicts.

        Installs this writer as the store's ``on_evict`` hook; evicted
        tuples keep the bound they were served with.  A store holding a
        stream this writer does not know is refused up front, its hook
        untouched: that stream's first eviction could not be archived.

        Raises:
            HistoryError: Naming the store's streams this writer lacks.
        """
        missing = sorted(set(store.stream_ids()) - self._keys.keys())
        if missing:
            raise HistoryError(
                f"store streams {missing} are not registered with this "
                f"archive writer; known: {sorted(self.bounds)}"
            )
        store.on_evict = self.ingest_tuple

    def drain_store(self, store) -> None:
        """Archive everything still resident in a store's rings.

        The shutdown complement of :meth:`attach_evictions`: after a
        drain, archive ⊇ (everything the store ever ingested), because
        evictions were archived as they happened and the residue is
        archived now.  Idempotent — re-offered tuples dedup in SQLite.
        """
        for sid in store.stream_ids():
            if store.history_len(sid):
                for tup in store.range_query(sid, store.history):
                    self.ingest_tuple(tup)
        self.flush()

    # -- committing -----------------------------------------------------
    def flush(self) -> int:
        """Commit the buffered rows and their manifest; returns new rows.

        A failed flush commits nothing and keeps every row it took:
        they go back to the buffer, ahead of anything buffered since,
        so :attr:`pending` is unchanged and a retry commits them.

        Raises:
            HistoryError: When SQLite refuses the transaction (a locked
                database, a full disk, a read-only connection).
        """
        if self._closed:
            raise HistoryError("archive writer is closed")
        if not self._buffer:
            return 0
        rows = self._buffer
        self._buffer = []
        # (grp, t, sub) order; stable, so a duplicate's first offer is kept.
        rows.sort(key=lambda r: (r[0] // G, r[1], r[0] % G))
        tel = self._tel
        conn = self._conn
        try:
            with tel.span("history.flush"), conn:
                conn.execute("BEGIN IMMEDIATE")
                (batch,) = conn.execute(
                    "SELECT COALESCE(MAX(batch), 0) + 1 FROM batches"
                ).fetchone()
                before = conn.total_changes
                # Whole chunks go as one statement each, the rest row by
                # row; both are compiled once per connection, the batch
                # number being a parameter.
                flat = list(chain.from_iterable(rows))
                whole = len(rows) - len(rows) % CHUNK
                for i in range(0, 4 * whole, 4 * CHUNK):
                    chunk = flat[i : i + 4 * CHUNK]
                    chunk.append(batch)
                    conn.execute(_INSERT_CHUNK, chunk)
                conn.executemany(_INSERT_ROW, [r + (batch,) for r in rows[whole:]])
                inserted = conn.total_changes - before
                if inserted == len(rows):  # every row is new: ROW per row, in one call
                    packed = struct.pack("<" + ROW.format[1:] * len(rows), *flat)
                elif inserted:  # some offers were ignored:
                    mine = []  # re-read this batch's own rows, per group
                    for grp, group in groupby(rows, lambda r: r[0] // G):
                        group = list(group)
                        mine += conn.execute(
                            f"SELECT grp * {G} + sub, t, value, bound "
                            "FROM archive WHERE grp = ? AND t BETWEEN ? AND ? "
                            "AND batch = ? ORDER BY t, sub",
                            (grp, group[0][1], group[-1][1], batch),
                        ).fetchall()
                    packed = b"".join([ROW.pack(*r) for r in mine])
                if inserted:
                    conn.execute(
                        "INSERT INTO batches VALUES (?, ?, ?)",
                        (batch, inserted, hashlib.sha256(packed).hexdigest()),
                    )
        except sqlite3.Error as exc:
            self._buffer[:0] = rows
            raise HistoryError(f"archive flush failed: {exc}") from exc
        self.rows_written += inserted
        self.flushes += 1
        if tel.enabled:
            tel.event(
                tracing.ARCHIVE_FLUSH,
                self.flushes,
                offered=len(rows),
                inserted=inserted,
            )
            if inserted:
                tel.inc("repro_history_rows_total", inserted)
        return inserted

    @property
    def pending(self) -> int:
        """Rows buffered but not yet committed."""
        return len(self._buffer)

    def close(self) -> None:
        """Flush and release the connection (idempotent)."""
        if self._closed:
            return
        self.flush()
        self._closed = True
        self._conn.close()

    def __enter__(self) -> "ArchiveWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
