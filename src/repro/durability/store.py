"""Durable, versioned checkpoint storage with crash-safe commits.

Layout under the store root — one directory per generation::

    root/
      gen-00000001/
        payload.json    # the encoded state (see repro.durability.codec)
        manifest.json   # schema version, SHA-256 + size of payload, meta
      gen-00000002/
        ...

Write protocol (the order is the crash-safety argument):

1. the payload is written to ``payload.json.tmp``, flushed, fsynced,
   then atomically renamed to ``payload.json``;
2. the manifest — carrying the payload's SHA-256 and byte count — is
   written the same way.  **The manifest rename is the commit point**: a
   generation without a parseable manifest is an orphan, invisible to
   readers, so a crash at any intermediate step can never surface a torn
   checkpoint as real.

Reads verify before trusting: :meth:`CheckpointStore.read` re-hashes the
payload bytes against the manifest and checks the schema version, so a
bit-flipped or truncated payload raises
:class:`~repro.errors.CheckpointCorruptError` instead of decoding into
garbage.  Retention keeps the last ``retain`` committed generations —
the fallback ladder the staged recoverer descends when the newest
generation fails verification.

For fault-injection tests the store accepts a ``crash_hook`` callable
invoked at named points of the write protocol (see
:mod:`repro.faults.durability_faults`); raising from the hook models a
process kill at exactly that point.
"""

from __future__ import annotations

import hashlib
import json
import numbers
import os
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from repro.durability.codec import dumps_payload, loads_payload
from repro.errors import CheckpointCorruptError, CheckpointError, ConfigurationError

__all__ = ["CheckpointInfo", "CheckpointStore", "CRASH_POINTS"]

#: Named points of the write protocol where a ``crash_hook`` fires, in
#: execution order.  Tests kill the writer at each one and assert the
#: store stays consistent.
CRASH_POINTS = (
    "before_payload",  # generation directory exists, nothing written
    "payload_partial",  # tmp file holds roughly half the payload bytes
    "payload_written",  # tmp file complete, not yet renamed
    "payload_committed",  # payload.json in place, no manifest yet
    "manifest_written",  # manifest tmp complete, not yet renamed
    "committed",  # manifest renamed: the generation is durable
)

_GEN_PREFIX = "gen-"
_GEN_DIGITS = 8


@dataclass(frozen=True)
class CheckpointInfo:
    """One committed generation, as described by its manifest."""

    generation: int
    path: Path
    tick: int
    schema_version: int
    payload_sha256: str
    payload_bytes: int
    created_unix: float
    meta: dict = field(default_factory=dict)

    @property
    def payload_path(self) -> Path:
        """Where this generation's payload bytes live."""
        return self.path / "payload.json"


class CheckpointStore:
    """Versioned on-disk checkpoints with atomic commit and retention.

    Args:
        root: Directory holding the generations (created if missing).
        retain: Committed generations to keep (an integer >= 1); older
            ones are pruned after each successful save.  This is the
            recovery fallback depth — how many bad newest generations a
            restore can skip.
        fsync: Fsync files and directories at every step (the durability
            guarantee).  Tests may disable it for speed; production code
            should not.
        crash_hook: Optional callable invoked with each of
            :data:`CRASH_POINTS` during :meth:`save`; an exception raised
            from the hook aborts the save at that point, modeling a kill.
    """

    #: Bump when the manifest or payload layout changes incompatibly.
    SCHEMA_VERSION = 1

    def __init__(
        self,
        root: str | Path,
        retain: int = 3,
        fsync: bool = True,
        crash_hook: Callable[[str], None] | None = None,
    ):
        if not isinstance(retain, numbers.Integral) or retain < 1:
            raise ConfigurationError(f"retain must be an integer >= 1, got {retain!r}")
        self.root = Path(root)
        self.retain = int(retain)
        self.fsync = fsync
        self.crash_hook = crash_hook
        self.root.mkdir(parents=True, exist_ok=True)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def save(self, payload: dict, *, tick: int = 0, meta: dict | None = None) -> CheckpointInfo:
        """Commit one new generation; returns its manifest view.

        ``payload`` may contain numpy arrays anywhere — it is encoded via
        :mod:`repro.durability.codec`, so a later :meth:`read` returns a
        bitwise-equal reconstruction.  A non-dict payload or a ``tick``
        that is not a whole number raises :class:`CheckpointError` before
        anything is written.
        """
        if not isinstance(payload, dict):
            raise CheckpointError(
                f"payload must be a dict, got {type(payload).__name__}"
            )
        try:
            whole = int(tick)
        except (TypeError, ValueError, OverflowError):
            whole = None
        if whole is None or whole != tick:
            raise CheckpointError(f"tick must be an integer, got {tick!r}")
        data = dumps_payload(payload)
        digest = hashlib.sha256(data).hexdigest()
        generation = self._next_generation()
        gen_dir = self.root / f"{_GEN_PREFIX}{generation:0{_GEN_DIGITS}d}"
        gen_dir.mkdir()
        self._crash("before_payload")
        self._write_atomic(gen_dir / "payload.json", data, partial_point="payload_partial")
        self._crash("payload_committed")
        manifest = {
            "schema_version": self.SCHEMA_VERSION,
            "generation": generation,
            "tick": whole,
            "payload_sha256": digest,
            "payload_bytes": len(data),
            "created_unix": time.time(),
            "meta": dict(meta or {}),
        }
        manifest_bytes = json.dumps(manifest, sort_keys=True, indent=2).encode("utf-8")
        self._write_atomic(
            gen_dir / "manifest.json", manifest_bytes, rename_point="manifest_written"
        )
        self._fsync_dir(self.root)
        self._crash("committed")
        self._prune()
        return self._info_from_manifest(gen_dir, manifest)

    def _write_atomic(
        self,
        target: Path,
        data: bytes,
        partial_point: str | None = None,
        rename_point: str | None = None,
    ) -> None:
        tmp = target.with_suffix(target.suffix + ".tmp")
        with open(tmp, "wb") as fh:
            if partial_point is not None:
                fh.write(data[: len(data) // 2])
                fh.flush()
                self._crash(partial_point)
                fh.write(data[len(data) // 2 :])
            else:
                fh.write(data)
            fh.flush()
            if self.fsync:
                os.fsync(fh.fileno())
        if partial_point is not None:
            self._crash("payload_written")
        if rename_point is not None:
            self._crash(rename_point)
        os.replace(tmp, target)
        self._fsync_dir(target.parent)

    def _fsync_dir(self, path: Path) -> None:
        if not self.fsync:
            return
        fd = os.open(path, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def _crash(self, point: str) -> None:
        if self.crash_hook is not None:
            self.crash_hook(point)

    def _next_generation(self) -> int:
        # Count every gen-* directory, committed or orphaned, so a crashed
        # write can never be overwritten by the next save.
        highest = 0
        for path in self.root.glob(f"{_GEN_PREFIX}*"):
            try:
                highest = max(highest, int(path.name[len(_GEN_PREFIX) :]))
            except ValueError:
                continue
        return highest + 1

    # ------------------------------------------------------------------
    # Listing
    # ------------------------------------------------------------------
    def inspect(self) -> tuple[list[CheckpointInfo], list[Path]]:
        """``(committed, orphans)`` — generations ascending, junk dirs.

        A generation is *committed* when its manifest exists, parses, and
        carries the required fields; everything else under a ``gen-*``
        name is an orphan (a crashed write) and is reported so recovery
        can be honest about what it skipped.  A committed generation may
        still fail payload verification — that is :meth:`read`'s job.
        """
        committed: list[CheckpointInfo] = []
        orphans: list[Path] = []
        for path in sorted(self.root.glob(f"{_GEN_PREFIX}*")):
            if not path.is_dir():
                continue
            manifest = self._load_manifest(path)
            if manifest is None:
                orphans.append(path)
                continue
            committed.append(self._info_from_manifest(path, manifest))
        committed.sort(key=lambda info: info.generation)
        return committed, orphans

    def generations(self) -> list[CheckpointInfo]:
        """Committed generations, oldest first."""
        return self.inspect()[0]

    def latest(self) -> CheckpointInfo | None:
        """Newest committed generation, or ``None`` on an empty store."""
        committed = self.generations()
        return committed[-1] if committed else None

    def _load_manifest(self, gen_dir: Path) -> dict | None:
        try:
            manifest = json.loads((gen_dir / "manifest.json").read_text())
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        required = {"schema_version", "generation", "payload_sha256", "payload_bytes"}
        if not isinstance(manifest, dict) or not required.issubset(manifest):
            return None
        return manifest

    def _info_from_manifest(self, gen_dir: Path, manifest: dict) -> CheckpointInfo:
        return CheckpointInfo(
            generation=int(manifest["generation"]),
            path=gen_dir,
            tick=int(manifest.get("tick", 0)),
            schema_version=int(manifest["schema_version"]),
            payload_sha256=str(manifest["payload_sha256"]),
            payload_bytes=int(manifest["payload_bytes"]),
            created_unix=float(manifest.get("created_unix", 0.0)),
            meta=dict(manifest.get("meta", {})),
        )

    # ------------------------------------------------------------------
    # Reading (verify before trusting)
    # ------------------------------------------------------------------
    def read_bytes(self, info: CheckpointInfo) -> bytes:
        """Raw payload bytes of a generation (no verification yet)."""
        try:
            return info.payload_path.read_bytes()
        except OSError as exc:
            raise CheckpointCorruptError(
                f"generation {info.generation}: payload unreadable: {exc}"
            ) from exc

    def verify(self, info: CheckpointInfo, data: bytes | None = None) -> None:
        """Integrity-check one generation; raises on any mismatch.

        Checks, in order: manifest schema version, payload byte count,
        payload SHA-256.  ``data`` may be passed when the caller already
        read the bytes (the staged recoverer does, to keep READING and
        VERIFYING separate stages).
        """
        if info.schema_version != self.SCHEMA_VERSION:
            raise CheckpointCorruptError(
                f"generation {info.generation}: schema version "
                f"{info.schema_version} (this code reads {self.SCHEMA_VERSION})"
            )
        if data is None:
            data = self.read_bytes(info)
        if len(data) != info.payload_bytes:
            raise CheckpointCorruptError(
                f"generation {info.generation}: payload is {len(data)} bytes, "
                f"manifest promises {info.payload_bytes} (torn write?)"
            )
        digest = hashlib.sha256(data).hexdigest()
        if digest != info.payload_sha256:
            raise CheckpointCorruptError(
                f"generation {info.generation}: payload SHA-256 mismatch "
                f"(bit rot or tampering)"
            )

    def read(self, info: CheckpointInfo) -> dict:
        """Verified, decoded payload of one generation."""
        data = self.read_bytes(info)
        self.verify(info, data)
        return loads_payload(data)

    # ------------------------------------------------------------------
    # Retention
    # ------------------------------------------------------------------
    def _prune(self) -> None:
        committed, orphans = self.inspect()
        latest_gen = committed[-1].generation if committed else 0
        for info in committed[: -self.retain] if len(committed) > self.retain else []:
            shutil.rmtree(info.path, ignore_errors=True)
        for path in orphans:
            # Orphans older than the newest commit are crashed writes
            # made obsolete by this save; clear them out.
            try:
                gen = int(path.name[len(_GEN_PREFIX) :])
            except ValueError:
                continue
            if gen < latest_gen:
                shutil.rmtree(path, ignore_errors=True)
