"""Length-prefixed mutation write-ahead log for shard partitions.

Each shard of the partitioned serving tier persists its packed base
columns rarely (initial build and snapshot-after-compaction) and logs
every mutation in between to an append-only WAL.  A cold shard then
restarts warm: memory-map the packed base, replay the WAL tail.

This extends the repository's WAL precedent
(:class:`~repro.model.repository.MappingRepository` runs SQLite in
WAL mode) down to the serving tier's own file format:

* one frame per mutation: a 4-byte big-endian payload length, a
  4-byte CRC32 of the payload, then the UTF-8 JSON payload;
* appends are buffered; :meth:`sync` flushes and ``fsync``\\ s — the
  cluster's ``snapshot()`` is exactly "sync every shard WAL, then
  write the manifest", so a snapshot is cheap and crash-consistent;
* reads tolerate a torn tail: a truncated or checksum-failing frame
  ends the replay (everything before it is intact by construction),
  so a crash mid-append never poisons a restart.

The manifest records how many frames each snapshot covers; restore
replays exactly that many and truncates the rest, which is what makes
a snapshot a *point-in-time* image rather than "whatever survived".
"""

from __future__ import annotations

import json
import os
import struct
import time
import zlib
from typing import Dict, Iterator, List, Optional, Tuple

_HEADER = struct.Struct(">II")  # payload length, CRC32


class WriteAheadLog:
    """Append-only frame log at ``path`` (created on first append)."""

    def __init__(self, path: str) -> None:
        self.path = path
        self._handle = None
        #: frames written through this object (not the on-disk total)
        self.appended = 0
        #: observability counters (repro.obs pulls these at scrape
        #: time; they observe durability work, they never gate it)
        self.sync_count = 0
        self.sync_seconds = 0.0
        self.replay_count = 0
        self.replay_seconds = 0.0
        self.replayed_entries = 0

    # -- writing -------------------------------------------------------

    def _open(self):
        if self._handle is None:
            self._handle = open(self.path, "ab")  # repro: allow-unpicklable -- a WAL belongs to one in-process shard and is never serialized
        return self._handle

    def append(self, entry: dict) -> None:
        """Append one mutation entry (buffered; see :meth:`sync`)."""
        payload = json.dumps(entry, separators=(",", ":")).encode("utf-8")
        handle = self._open()
        handle.write(_HEADER.pack(len(payload), zlib.crc32(payload)))
        handle.write(payload)
        self.appended += 1

    def sync(self) -> None:
        """Flush buffered frames and ``fsync`` the log to disk."""
        if self._handle is not None:
            start = time.perf_counter()
            self._handle.flush()
            os.fsync(self._handle.fileno())
            self.sync_seconds += time.perf_counter() - start
            self.sync_count += 1

    def close(self) -> None:
        if self._handle is not None:
            self._handle.close()
            self._handle = None

    def reset(self, path: str) -> None:
        """Continue as an empty log at ``path`` (after a fresh base
        write); the previous file is left as it is."""
        self.close()
        with open(path, "wb") as handle:
            handle.flush()
            os.fsync(handle.fileno())
        # a new file's directory entry is durable only once its
        # directory is fsynced
        directory = os.open(os.path.dirname(os.path.abspath(path)),
                            os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
        self.path = path
        self.appended = 0

    # -- reading -------------------------------------------------------

    def replay(self, limit: Optional[int] = None) -> List[dict]:
        """Read up to ``limit`` entries (all by default).

        Stops cleanly at a torn tail: an incomplete header, a
        truncated payload or a CRC mismatch ends the scan without
        raising — frames are written append-only, so everything before
        the tear is intact.
        """
        start = time.perf_counter()
        entries: List[dict] = []
        for entry, _ in self._frames(limit):
            entries.append(entry)
        self.replay_seconds += time.perf_counter() - start
        self.replay_count += 1
        self.replayed_entries += len(entries)
        return entries

    def timing_counters(self) -> Dict[str, float]:
        """Cumulative durability timings for the metrics registry."""
        return {
            "appends": self.appended,
            "syncs": self.sync_count,
            "sync_seconds": self.sync_seconds,
            "replays": self.replay_count,
            "replay_seconds": self.replay_seconds,
            "replayed_entries": self.replayed_entries,
        }

    def entry_count(self) -> int:
        """Number of intact frames currently on disk."""
        return sum(1 for _ in self._frames(None))

    def truncate_to(self, count: int) -> None:
        """Drop every frame after the first ``count`` (restore path)."""
        offset = 0
        kept = 0
        for _, end in self._frames(count):
            offset = end
            kept += 1
        self.close()
        if not os.path.exists(self.path):
            if count > 0:  # pragma: no cover - defensive
                raise ValueError(f"WAL {self.path} has no frames to keep")
            return
        with open(self.path, "r+b") as handle:
            handle.truncate(offset)
            handle.flush()
            os.fsync(handle.fileno())
        if kept < count:
            raise ValueError(
                f"WAL {self.path} holds only {kept} intact frames, "
                f"snapshot manifest expects {count}")

    def _frames(self, limit: Optional[int]) -> Iterator[Tuple[dict, int]]:
        """Yield ``(entry, end offset)`` for intact frames."""
        if not os.path.exists(self.path):
            return
        with open(self.path, "rb") as handle:
            offset = 0
            produced = 0
            while limit is None or produced < limit:
                header = handle.read(_HEADER.size)
                if len(header) < _HEADER.size:
                    return
                length, checksum = _HEADER.unpack(header)
                payload = handle.read(length)
                if len(payload) < length or zlib.crc32(payload) != checksum:
                    return
                try:
                    entry = json.loads(payload)
                except ValueError:  # pragma: no cover - crc makes this rare
                    return
                offset += _HEADER.size + length
                produced += 1
                yield entry, offset
