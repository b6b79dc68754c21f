"""SQLite schema and connection handling of the history archive.

One archive database holds the served history of one fleet: a
``streams`` catalogue (stream id → integer ``stream_key`` and δ), an
``archive`` table storing each served tuple once, and a ``batches``
table with one manifest per flush.  ``archive`` is ``WITHOUT ROWID``
with ``PRIMARY KEY (grp, t, sub)``, ``grp, sub = divmod(stream_key, G)``:
the table *is* the covering index, and one tick of a group's :data:`G`
streams shares a leaf.  ``REAL`` is an IEEE-754 double stored verbatim
(``-0.0`` becomes ``0.0``).  A manifest is the SHA-256 of the rows its
flush inserted, packed :data:`ROW` as ``(stream_key, t, value, bound)``
in primary-key order and written last in the flush's transaction: the
commit point that :meth:`HistoryStore.audit` re-hashes against, the
checkpoint store's verify-before-trust posture applied to rows.
A process crash loses no committed flush (its frames are in the WAL);
power loss may roll back up to one :data:`WAL_AUTOCHECKPOINT`-page WAL.

Feeds overlap by design (a fleet trace fed through ``archive_fleet``
and a ring ``on_evict`` feed may both offer the same tuple); ``INSERT OR IGNORE``
on the primary key makes re-ingest idempotent, which is what makes the
no-tuple-lost guarantee cheap to uphold.
"""

from __future__ import annotations

import sqlite3
import struct
from pathlib import Path

from repro.errors import HistoryError

__all__ = ["G", "SCHEMA_VERSION", "WAL_AUTOCHECKPOINT", "connect"]

#: Bump on any incompatible layout change; mismatched archives refuse to
#: open rather than mis-parse.
SCHEMA_VERSION = 3

#: Streams per cluster group.  A per-tick flush dirties ~one tail leaf per
#: group, so G = 4 halves a 1024-stream flush (mean ~13.5 → ~6.8 ms) while a
#: per-stream read decodes G rows per tick (range query +14 %); G = 8 bought
#: more write speed for +23 % on archive reads.  Changing it is a new schema.
G = 4

#: One archived row as a batch manifest hashes it.
ROW = struct.Struct("<qddd")

#: WAL pages between automatic checkpoints (64 MiB of 4 KiB pages).  A flush
#: writes about one frame per group: at the default 1000, a 1024-stream fleet
#: paid a checkpoint + fsyncs per flush; now one in many flushes does.
WAL_AUTOCHECKPOINT = 16384

_SCHEMA = f"""
BEGIN;
CREATE TABLE IF NOT EXISTS meta (
    key   TEXT PRIMARY KEY,
    value TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS streams (
    stream_key INTEGER PRIMARY KEY,
    stream_id  TEXT NOT NULL UNIQUE,
    delta      REAL NOT NULL
);
CREATE TABLE IF NOT EXISTS archive (
    grp   INTEGER NOT NULL,
    t     REAL NOT NULL,
    sub   INTEGER NOT NULL,
    value REAL NOT NULL,
    bound REAL NOT NULL,
    batch INTEGER NOT NULL,
    PRIMARY KEY (grp, t, sub)
) WITHOUT ROWID;
CREATE TABLE IF NOT EXISTS batches (
    batch  INTEGER PRIMARY KEY,
    rows   INTEGER NOT NULL,
    sha256 TEXT NOT NULL
);
INSERT OR IGNORE INTO meta VALUES ('schema_version', '{SCHEMA_VERSION}');
COMMIT;
"""


def connect(path: str | Path) -> sqlite3.Connection:
    """Open (creating if absent) an archive database at ``path``.

    Reads before it writes: a database with tables but no ``meta`` table
    (someone else's file), or stamped with another schema version, is
    refused with a :class:`HistoryError` and left untouched (no migration).
    ``:memory:`` is accepted for tests and benchmarks.  WAL journaling
    keeps readers un-blocked while the writer commits batches;
    ``synchronous=NORMAL`` syncs only at WAL checkpoints, which the
    committing connection runs every :data:`WAL_AUTOCHECKPOINT` pages
    (the durable *checkpoint* tier is the crash-recovery source of truth).
    """
    try:
        conn = sqlite3.connect(str(path))
    except sqlite3.Error as exc:
        raise HistoryError(f"cannot open archive at {path!r}: {exc}") from exc
    try:
        sql = "SELECT name FROM sqlite_master WHERE type = 'table'"
        tables = {name for (name,) in conn.execute(sql)}
        if not tables:
            conn.executescript(_SCHEMA)
        elif "meta" not in tables:
            raise HistoryError(
                f"not a history archive: it holds tables {sorted(tables)} but "
                "no meta table; refusing to adopt it"
            )
        sql = "SELECT value FROM meta WHERE key = 'schema_version'"
        row = conn.execute(sql).fetchone()
        found = None if row is None else row[0]
        if found != str(SCHEMA_VERSION):
            raise HistoryError(
                f"archive schema version {found!r} is not the supported "
                f"{SCHEMA_VERSION!r}; refusing to read it"
            )
        conn.execute("PRAGMA journal_mode=WAL")
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute(f"PRAGMA wal_autocheckpoint={WAL_AUTOCHECKPOINT}")
    except HistoryError:
        conn.close()
        raise
    except sqlite3.Error as exc:
        conn.close()
        raise HistoryError(f"cannot open archive at {path!r}: {exc}") from exc
    return conn
