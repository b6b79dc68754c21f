"""Durable, indexed archive of served stream histories.

The live half of the serving stack — replica fleet, `ServingStore` hot
rings, asyncio `QueryServer` — evaporates history as the rings roll
over.  This package is the archival half the paper's unified query
surface needs: an :class:`ArchiveWriter` persists served tuples into an
indexed SQLite database (batched transactional inserts, a SHA-256
manifest per flush), and a :class:`HistoryStore` answers
point / range / windowed-aggregate queries over arbitrary past tick
ranges with the same bitwise value-and-bound guarantee the live tier
pins: members go through the one dsms aggregate kernel, so archival
answers are exactly what direct dsms evaluation of the same served
tuples produces.

The serving tier stitches both halves: a
:class:`~repro.serving.server.QueryServer` given a ``history=`` store
answers :class:`~repro.serving.requests.HistoryRangeQuery` /
:class:`~repro.serving.requests.HistoryAggregateQuery` requests from
the hot ring when the range is resident, from the archive when it is
not, and from both (stitched, deduplicated) when the range straddles —
labeled ``live`` / ``historical`` / ``hybrid`` by provenance.
"""

from repro.history.archive import ArchiveWriter
from repro.history.db import SCHEMA_VERSION, connect
from repro.history.store import HistoryStore

__all__ = [
    "ArchiveWriter",
    "HistoryStore",
    "SCHEMA_VERSION",
    "connect",
]
