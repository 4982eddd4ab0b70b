"""The disk backend of the stage cache.

The :class:`~repro.runner.cache.StageCache` disk tier is one
:class:`LocalDirBackend` -- the ``<root>/<stage>/<digest>.json``
layout, hardened for many cooperating processes:

* every record embeds a sha256 of its payload (verified on load; a
  mismatch is quarantined with a ``checksum`` reason);
* records of at least :data:`GZIP_THRESHOLD` encoded bytes are gzipped
  (level 6, ``mtime=0``, so identical records encode to identical
  bytes); reads sniff the gzip magic, so plain and gzipped entries
  load alike;
* missing keys are computed under **single-flight stampede control**
  -- an ``O_EXCL`` lock file with staleness takeover, so N workers
  hitting the same missing key produce exactly one compute while the
  rest wait, then load the leader's entry.

Record format (``CACHE_FORMAT_VERSION`` = 2)::

    {"format": 2, "key": {...}, "sha256": "<hex>", "value": ...}

The checksum covers the canonical JSON of the (JSON-normalized)
``value``, so it is stable across a store/load round trip.  Records of
any other format (e.g. the checksum-less format 1) are stale: the cache
treats them as misses, recomputes, and overwrites them.
"""

from __future__ import annotations

import gzip
import hashlib
import json
import os
import platform
import tempfile
import time
import zlib
from pathlib import Path
from typing import Any, Optional, Protocol, Union

__all__ = [
    "CACHE_FORMAT_VERSION",
    "SUPPORTED_CACHE_FORMATS",
    "GZIP_THRESHOLD",
    "CorruptEntry",
    "CacheBackend",
    "FlightLease",
    "LocalDirBackend",
    "payload_checksum",
    "make_record",
    "decode_record",
    "stored_entry_sizes",
    "default_backend",
]

CACHE_FORMAT_VERSION = 2
"""Format written by this codebase.  Bumped from 1 when records gained
the ``sha256`` integrity checksum (and gzip became the write policy for
large payloads)."""

SUPPORTED_CACHE_FORMATS = (2,)
"""Formats the cache loads.  Anything else is stale and recomputed."""

GZIP_THRESHOLD = 4096
"""Records at least this many encoded bytes are gzipped (multi-MB
``lowered`` payloads compress ~10x; tiny metric records are left as
grep-able plain JSON)."""

_GZIP_MAGIC = b"\x1f\x8b"


class CorruptEntry(Exception):
    """A persisted record that failed decoding or integrity checks.

    Attributes:
        reason: Human-readable description (quarantine sidecar text).
        path: Offending file, when the record came from disk.
        kind: ``"undecodable"`` (bad gzip/JSON/shape) or ``"checksum"``
            (parsed fine but the sha256 does not match the payload).
    """

    def __init__(
        self,
        reason: str,
        path: Optional[Path] = None,
        kind: str = "undecodable",
    ):
        super().__init__(reason)
        self.reason = reason
        self.path = path
        self.kind = kind


def payload_checksum(value: Any) -> str:
    """sha256 over the canonical JSON of a (JSON-normalized) payload.

    Callers must pass a value that already round-trips through JSON
    unchanged (:func:`make_record` normalizes with a dumps/loads round
    trip first), so the checksum computed at store time equals the one
    recomputed from the decoded record at load time.
    """
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_record(key_description: dict, payload: Any) -> dict:
    """Build a current-format record with an integrity checksum."""
    # Normalize through JSON first: non-string dict keys and tuples
    # would otherwise hash differently before and after persistence.
    normalized = json.loads(json.dumps(payload))
    return {
        "format": CACHE_FORMAT_VERSION,
        "key": key_description,
        "sha256": payload_checksum(normalized),
        "value": normalized,
    }


def decode_record(
    data: bytes, path: Optional[Path] = None
) -> dict[str, Any]:
    """Decode stored record bytes (gzip-sniffing) and verify integrity.

    Raises:
        CorruptEntry: Undecodable bytes, a non-record JSON shape, or a
            format >= 2 record whose sha256 is absent or does not match
            its payload (``kind="checksum"``).
    """
    if data[:2] == _GZIP_MAGIC:
        try:
            data = gzip.decompress(data)
        except (OSError, EOFError, zlib.error) as error:
            raise CorruptEntry(
                f"undecodable gzip: {error}", path=path
            ) from error
    try:
        record = json.loads(data.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise CorruptEntry(
            f"undecodable JSON: {error}", path=path
        ) from error
    if not isinstance(record, dict):
        raise CorruptEntry(
            f"record is {type(record).__name__}, not an object", path=path
        )
    fmt = record.get("format")
    if isinstance(fmt, int) and fmt >= 2:
        recorded = record.get("sha256")
        if not recorded:
            raise CorruptEntry(
                "checksum missing from a format "
                f"{fmt} record", path=path, kind="checksum",
            )
        actual = payload_checksum(record.get("value"))
        if actual != recorded:
            raise CorruptEntry(
                f"checksum mismatch: recorded {recorded[:12]}… but "
                f"payload hashes to {actual[:12]}…",
                path=path,
                kind="checksum",
            )
    return record


def stored_entry_sizes(path: Path) -> tuple[int, int, bool]:
    """(stored_bytes, raw_bytes, is_compressed) for one disk entry.

    Raw size of a gzipped entry is read from the trailing ISIZE field
    (mod 2**32 -- exact for anything the cache writes), so stats never
    decompress payloads.
    """
    stored = path.stat().st_size
    with open(path, "rb") as handle:
        if handle.read(2) != _GZIP_MAGIC:
            return stored, stored, False
        handle.seek(-4, os.SEEK_END)
        raw = int.from_bytes(handle.read(4), "little")
    return stored, raw, True


class CacheBackend(Protocol):
    """What :class:`~repro.runner.cache.StageCache` needs from a disk
    tier.  Implementations keep the ``<root>/<stage>/<digest>.json``
    layout so cache administration (stats, prune, verify) stays
    backend-agnostic."""

    root: Path

    def entry_path(self, stage: str, digest: str) -> Path: ...

    def read_bytes(self, stage: str, digest: str) -> Optional[bytes]: ...

    def write_bytes(self, stage: str, digest: str, data: bytes) -> None: ...

    def encode(self, record: dict) -> bytes: ...

    def load(self, stage: str, digest: str) -> Optional[dict]: ...

    def store(self, stage: str, digest: str, record: dict) -> bytes: ...

    def wait_or_lead(
        self, stage: str, digest: str
    ) -> Optional["FlightLease"]: ...

    def health(self) -> dict[str, Any]: ...


class FlightLease:
    """Leadership of one single-flight compute (holds the lock file)."""

    def __init__(self, lock_path: Path):
        self.lock_path = lock_path
        self._released = False

    def release(self) -> None:
        if self._released:
            return
        self._released = True
        try:
            os.unlink(self.lock_path)
        except OSError:
            pass


def _plain(record: dict) -> bytes:
    return (json.dumps(record, indent=1) + "\n").encode("utf-8")


def _pack(plain: bytes) -> bytes:
    """Gzip an encoded record at or above the threshold, when smaller.

    ``mtime=0`` makes the bytes a pure function of the record.
    """
    if len(plain) < GZIP_THRESHOLD:
        return plain
    packed = gzip.compress(plain, compresslevel=6, mtime=0)
    return packed if len(packed) < len(plain) else plain


def _lock_snapshot(lock: Path) -> Optional[tuple]:
    """(device, inode, mtime_ns, contents) of a lock file; None if gone."""
    try:
        stat = lock.stat()
        data = lock.read_bytes()
    except OSError:
        return None
    return (stat.st_dev, stat.st_ino, stat.st_mtime_ns, data)


def _pid_alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    except (PermissionError, OSError):
        return True
    return True


class LocalDirBackend:
    """Directory backend with checksums, gzip, and single-flight locks.

    Args:
        root: Cache directory (``<root>/<stage>/<digest>.json``).
        lock_stale_after: A lock file older than this (whose holder
            cannot be proven dead faster) is broken and taken over, so
            a crashed leader stalls followers for a bounded time.
        lock_poll: Sleep between follower polls of the lock/entry.
    """

    name = "local"

    def __init__(
        self,
        root: Union[str, os.PathLike],
        lock_stale_after: float = 600.0,
        lock_poll: float = 0.05,
    ):
        self.root = Path(root)
        self.lock_stale_after = lock_stale_after
        self.lock_poll = lock_poll
        self.flights_led = 0
        self.flights_waited = 0
        self.lock_takeovers = 0
        self.raw_bytes_written = 0
        self.stored_bytes_written = 0
        self.compressed_writes = 0
        self.plain_writes = 0

    # -- raw bytes --------------------------------------------------------

    def entry_path(self, stage: str, digest: str) -> Path:
        return self.root / stage / f"{digest}.json"

    def read_bytes(self, stage: str, digest: str) -> Optional[bytes]:
        try:
            return self.entry_path(stage, digest).read_bytes()
        except OSError:
            return None

    def write_bytes(self, stage: str, digest: str, data: bytes) -> None:
        """Atomically replace one entry (tmp file + ``os.replace``)."""
        path = self.entry_path(stage, digest)
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.stem, suffix=".tmp"
        )
        try:
            with os.fdopen(fd, "wb") as handle:
                handle.write(data)
            os.replace(tmp, path)
        except BaseException:
            try:
                os.unlink(tmp)
            except OSError:
                pass
            raise

    # -- records ----------------------------------------------------------

    def encode(self, record: dict) -> bytes:
        return _pack(_plain(record))

    def load(self, stage: str, digest: str) -> Optional[dict]:
        """Decode one entry; None when absent/unreadable.

        Raises:
            CorruptEntry: Present but undecodable or failing its
                checksum -- the caller owns quarantining.
        """
        data = self.read_bytes(stage, digest)
        if data is None:
            return None
        return decode_record(data, path=self.entry_path(stage, digest))

    def store(self, stage: str, digest: str, record: dict) -> bytes:
        plain = _plain(record)
        data = _pack(plain)
        self.write_bytes(stage, digest, data)
        self.raw_bytes_written += len(plain)
        self.stored_bytes_written += len(data)
        if len(data) < len(plain):
            self.compressed_writes += 1
        else:
            self.plain_writes += 1
        return data

    # -- single-flight ----------------------------------------------------

    def lock_path(self, stage: str, digest: str) -> Path:
        return self.root / stage / f"{digest}.lock"

    def wait_or_lead(
        self, stage: str, digest: str
    ) -> Optional[FlightLease]:
        """Acquire compute leadership for a missing entry, or wait.

        Returns a :class:`FlightLease` when this process should compute
        (release it after storing), or None once another leader's entry
        has appeared (load it instead).  A lock whose holder is dead --
        or older than ``lock_stale_after`` -- is broken and taken over,
        so a leader crashing mid-compute never wedges the flight.
        """
        entry = self.entry_path(stage, digest)
        lock = self.lock_path(stage, digest)
        lock.parent.mkdir(parents=True, exist_ok=True)
        waited = False
        while True:
            if entry.exists():
                if waited:
                    self.flights_waited += 1
                return None
            try:
                fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
            except FileExistsError:
                stale = self._lock_stale(lock)
                if stale is not None:
                    self._break_lock(lock, stale)
                    continue
                waited = True
                time.sleep(self.lock_poll)
                continue
            except OSError:
                # Filesystem without O_EXCL semantics: lead unlocked
                # (correctness holds -- writes are atomic and
                # idempotent -- only dedup is lost).
                self.flights_led += 1
                return FlightLease(lock)
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(
                    {
                        "pid": os.getpid(),
                        "host": platform.node(),
                        "time": time.time(),
                    },
                    handle,
                )
            if entry.exists():
                # The previous leader stored its entry and released the
                # lock between our entry check and our acquire: load
                # its entry instead of computing it a second time.
                FlightLease(lock).release()
                self.flights_waited += 1
                return None
            self.flights_led += 1
            return FlightLease(lock)

    def _lock_stale(self, lock: Path) -> Optional[tuple]:
        """Snapshot of ``lock`` if its holder is dead or it is too old.

        Returns None while the lock is live (or gone).  The snapshot
        identifies the exact lock file judged stale, so
        :meth:`_break_lock` can refuse to touch a successor.
        """
        snapshot = _lock_snapshot(lock)
        if snapshot is None:
            return None  # gone: retry the acquire
        try:
            meta = json.loads(snapshot[-1])
        except ValueError:
            meta = None  # mid-write by the holder; age decides
        if (
            isinstance(meta, dict)
            and meta.get("host") == platform.node()
            and isinstance(meta.get("pid"), int)
            and not _pid_alive(meta["pid"])
        ):
            return snapshot
        age = time.time() - snapshot[2] / 1e9
        return snapshot if age > self.lock_stale_after else None

    def _break_lock(self, lock: Path, stale: tuple) -> None:
        """Remove ``lock`` only if it is still the file judged stale.

        Two followers can judge the same dead lock stale; the first
        breaks it and leads with a fresh lock.  The second must not
        delete that live successor, so the break re-checks identity
        (device, inode, mtime, contents) before and after moving the
        lock aside, and puts back anything that is not the stale file
        (``os.link`` never clobbers a lock created meanwhile).
        """
        if _lock_snapshot(lock) != stale:
            return  # already broken (and maybe re-acquired) by another
        probe = lock.with_name(f"{lock.name}.break{os.getpid()}")
        try:
            os.replace(lock, probe)
        except OSError:
            return  # someone else broke it first
        if _lock_snapshot(probe) == stale:
            self.lock_takeovers += 1
        else:
            try:
                os.link(probe, lock)
            except OSError:
                pass
        try:
            os.unlink(probe)
        except OSError:
            pass

    def health(self) -> dict[str, Any]:
        return {
            "backend": self.name,
            "root": str(self.root),
            "single_flight": {
                "led": self.flights_led,
                "waited": self.flights_waited,
                "lock_takeovers": self.lock_takeovers,
            },
            "gzip": {
                "raw_bytes_written": self.raw_bytes_written,
                "stored_bytes_written": self.stored_bytes_written,
                "compressed_writes": self.compressed_writes,
                "plain_writes": self.plain_writes,
            },
        }


def default_backend(root: Union[str, os.PathLike]) -> LocalDirBackend:
    """The shipped disk tier: a locking, gzipping local directory."""
    return LocalDirBackend(root)
