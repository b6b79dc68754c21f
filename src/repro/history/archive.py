"""The archive ingest path: batched, transactional, idempotent.

An :class:`ArchiveWriter` moves served tuples into the SQLite archive
from any of three feeds:

* **bulk** — :meth:`archive_fleet` walks a ``(T, N, dim)`` served trace
  from a :class:`~repro.core.manager.FleetEngine` run (NaN warm-up rows
  skip, exactly as :meth:`ServingStore.load_fleet_history` skips them);
  :meth:`for_fleet_result` builds the writer straight from a
  :class:`~repro.core.manager.FleetResult`'s allocated δ.
* **live** — :meth:`on_tick` returns a callback for
  ``FleetEngine.run(values, on_tick=...)`` that ingests every warm
  stream's served value as it is produced.
* **evictions** — :meth:`attach_evictions` hooks a
  :class:`~repro.serving.store.ServingStore`'s ``on_evict`` so tuples
  aging out of the hot ring land in the archive instead of vanishing;
  :meth:`drain_store` archives what is still resident (shutdown path),
  so ring ∪ archive always covers everything ever ingested.

Rows buffer in memory and commit in one transaction per batch
(``INSERT OR IGNORE`` — re-offering a tuple the archive already holds
is a no-op, which lets the live and eviction feeds overlap freely).
Each committed batch records an ``archive_flush`` trace event and
advances ``repro_history_rows_total``.
"""

from __future__ import annotations

import math
import sqlite3
from pathlib import Path

import numpy as np

from repro.durability.codec import dumps_payload
from repro.dsms.tuples import StreamTuple, served_ticks
from repro.errors import HistoryError
from repro.history.db import connect, ensure_schema
from repro.obs import tracing
from repro.obs.telemetry import resolve_telemetry

__all__ = ["ArchiveWriter"]


def _row_payload(stream_id: str, t: float, value: float, bound: float) -> bytes:
    """Canonical codec bytes of one archived tuple (the authoritative row)."""
    return dumps_payload(
        {"stream_id": stream_id, "t": t, "value": value, "bound": bound}
    )


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
            if not (delta >= 0 and math.isfinite(delta)):
                raise HistoryError(
                    f"bound for {sid!r} must be finite and >= 0, got {delta!r}"
                )
        if batch_size < 1:
            raise HistoryError(f"batch_size must be >= 1, got {batch_size!r}")
        self.bounds = dict(bounds)
        self.batch_size = batch_size
        self._conn = connect(path)
        ensure_schema(self._conn)
        self._conn.executemany(
            "INSERT OR REPLACE INTO streams (stream_id, delta) VALUES (?, ?)",
            [(sid, float(delta)) for sid, delta in self.bounds.items()],
        )
        self._conn.commit()
        self._buffer: list[tuple[str, float, float, float, bytes]] = []
        self._tel = resolve_telemetry(telemetry)
        #: Rows committed new to the archive by this writer (dedup'd).
        self.rows_written = 0
        #: Committed batches, the ``archive_flush`` event clock.
        self.flushes = 0
        self._closed = False

    @classmethod
    def for_fleet_result(cls, path: str | Path, result, **kwargs) -> "ArchiveWriter":
        """A writer whose δ are a fleet run's allocated per-stream bounds.

        ``result`` is a :class:`~repro.core.manager.FleetResult`; its
        :meth:`~repro.core.manager.FleetResult.stream_bounds` is the
        allocator → archive hand-off, exactly as it is the allocator →
        serving hand-off.
        """
        return cls(path, result.stream_bounds(), **kwargs)

    # -- ingest ---------------------------------------------------------
    def ingest(
        self, stream_id: str, t: float, value: float, bound: float | None = None
    ) -> None:
        """Buffer one served scalar; flushes when the batch fills."""
        if self._closed:
            raise HistoryError("archive writer is closed")
        delta = self.bounds.get(stream_id)
        if delta is None:
            raise HistoryError(
                f"unknown stream {stream_id!r}; known: {sorted(self.bounds)}"
            )
        t = float(t)
        value = float(value)
        b = delta if bound is None else float(bound)
        # SQLite REAL cannot represent non-finite values (NaN becomes
        # NULL); a non-finite served value is a feed bug, reject loudly.
        if not math.isfinite(value) or not math.isfinite(t) or not (b >= 0 and math.isfinite(b)):
            raise HistoryError(
                f"cannot archive non-finite row ({stream_id!r}, t={t!r}, "
                f"value={value!r}, bound={b!r})"
            )
        self._buffer.append(
            (stream_id, t, value, b, _row_payload(stream_id, t, value, b))
        )
        if len(self._buffer) >= self.batch_size:
            self.flush()

    def ingest_tuple(self, tup: StreamTuple) -> None:
        """Buffer one :class:`StreamTuple`, keeping its own bound."""
        self.ingest(tup.stream_id, tup.t, tup.value, bound=tup.bound)

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

    def on_tick(
        self, stream_ids: list[str], t0: float = 0.0, component: int = 0
    ):
        """A live-feed callback for ``FleetEngine.run(values, on_tick=...)``."""

        def feed(t, served_t, sent_t) -> None:
            # One tick of the bulk walk: same shape/component checks.
            row = np.asarray(served_t)[None]
            self.archive_fleet(stream_ids, row, t0 + t, component)

        return feed

    def attach_evictions(self, store) -> None:
        """Archive every tuple a :class:`ServingStore` ring evicts.

        Installs this writer as the store's ``on_evict`` hook; evicted
        tuples keep the bound they were served with.
        """
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
        """Commit the buffered rows in one transaction; returns new rows."""
        if self._closed:
            raise HistoryError("archive writer is closed")
        if not self._buffer:
            return 0
        rows = self._buffer
        self._buffer = []
        tel = self._tel
        before = self._conn.total_changes
        try:
            with tel.span("history.flush"):
                with self._conn:  # one transaction per batch
                    self._conn.executemany(
                        "INSERT OR IGNORE INTO archive "
                        "(stream_id, t, value, bound, payload) "
                        "VALUES (?, ?, ?, ?, ?)",
                        rows,
                    )
        except sqlite3.Error as exc:
            raise HistoryError(f"archive flush failed: {exc}") from exc
        inserted = self._conn.total_changes - before
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
