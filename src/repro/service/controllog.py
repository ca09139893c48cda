"""Crash-safe append-only control log for priors events.

The pool's control plane — ``publish_priors`` — is what makes replicas
diverge after a crash: PR 5 had to patch a split-brain edge where a replica
outlived a head restart carrying a priors generation the new head had never
seen, and the only safe answer in RAM-only operation was to reset the
replica defensively.  This module makes the control plane
durable instead, following the store-and-forward durable-queue pattern from
the MSMQ multi-branch synchronization literature: every control event is
appended to an fsync'd log *before* it is applied or broadcast, each record
carries a monotonically increasing version (the log sequence number), and a
restarted head replays the log on boot to recover the authoritative priors
generation from disk.

On-disk format — one binary framed record per event::

    +-------+---------+-------------+---------------+-----------+
    | magic | version | payload len | CRC32(payload)| payload   |
    | CRGL  |   u8    |     u32     |      u32      | JSON utf8 |
    +-------+---------+-------------+---------------+-----------+

The payload is canonical (sorted-keys) JSON holding at least ``type`` and
``version``.  Decoding is strict and typed: a truncated header or payload,
wrong magic, unsupported format version, oversized length, or checksum
mismatch raises :class:`ControlLogFormatError` — never a crash.  Replay
(:func:`scan_records`) stops at the first malformed record and reports the
valid prefix, so a torn tail from a kill -9 mid-append degrades to "replay
what was durably committed" and the torn bytes are truncated away before
the next append.

Append failures (disk full, read-only volume, an unserializable payload)
are counted and logged but never raised into the serving path: versions
keep advancing in memory so the fleet stays consistent, and the
diagnostics surface the durability gap.  An *encode* failure is the one
exception to "versions keep advancing": the record never existed, so its
sequence number is not burned — the next append reuses it.

The log is also the replication source of truth (:mod:`repro.service
.replication`): appends go through one persistent handle whose file is
made durable — including the directory entry on first create — before any
listener observes the record, so a follower tailing the log can never be
shipped a record that a primary crash would un-happen.  Followers append
the primary's records verbatim via :meth:`ControlLog.append_replicated`
(store-and-forward: commit locally first, apply second).
"""

from __future__ import annotations

import itertools
import json
import logging
import os
import struct
import threading
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.exceptions import CORGIError

__all__ = [
    "CONTROL_LOG_MAGIC",
    "CONTROL_LOG_VERSION",
    "MAX_RECORD_BYTES",
    "TMP_SUFFIX",
    "ControlLog",
    "ControlLogFormatError",
    "ControlLogReplay",
    "decode_record",
    "encode_record",
    "fsync_dir",
    "scan_records",
    "write_atomic",
]

logger = logging.getLogger(__name__)

#: Record magic: identifies bytes as a CORGI control-log record.
CONTROL_LOG_MAGIC = b"CRGL"

#: On-disk format version.  Bumped on any incompatible record change;
#: decoders reject every other version outright (a skewed reader must
#: fall back to a cold boot, never misread a record).
CONTROL_LOG_VERSION = 1

#: Upper bound on a single record payload.  Priors for even a deep tree
#: are well under a megabyte; anything larger is corruption, not data.
MAX_RECORD_BYTES = 16 << 20

_RECORD_HEADER = struct.Struct(">4sBII")


class ControlLogFormatError(CORGIError, ValueError):
    """The bytes are not a well-formed control-log record.

    Subclasses :class:`ValueError` so transports map it to a client fault,
    and :class:`CORGIError` so library-level handlers catch it with
    everything else.  Raised for truncation, bad magic, version skew,
    oversized lengths, and checksum mismatches alike.
    """


def encode_record(event: Mapping[str, object]) -> bytes:
    """Serialize one control event to its framed, checksummed wire form."""
    if not isinstance(event, Mapping):
        raise ControlLogFormatError(
            f"control-log event must be a mapping, got {type(event).__name__}"
        )
    payload = json.dumps(dict(event), sort_keys=True).encode("utf-8")
    if len(payload) > MAX_RECORD_BYTES:
        raise ControlLogFormatError(
            f"control-log payload of {len(payload)} bytes exceeds cap {MAX_RECORD_BYTES}"
        )
    header = _RECORD_HEADER.pack(
        CONTROL_LOG_MAGIC, CONTROL_LOG_VERSION, len(payload), zlib.crc32(payload)
    )
    return header + payload


def decode_record(data: bytes, offset: int = 0) -> Tuple[Dict[str, object], int]:
    """Parse one record at ``offset``; return ``(event, next_offset)``.

    Strict and typed: raises :class:`ControlLogFormatError` for a truncated
    header/payload, wrong magic, unsupported format version, implausible
    length, checksum mismatch, or a payload that is not a JSON object.
    """
    view = memoryview(data)[offset:]
    if len(view) < _RECORD_HEADER.size:
        raise ControlLogFormatError(
            f"truncated control-log record header ({len(view)} of {_RECORD_HEADER.size} bytes)"
        )
    magic, version, length, checksum = _RECORD_HEADER.unpack_from(view)
    if magic != CONTROL_LOG_MAGIC:
        raise ControlLogFormatError(f"bad control-log record magic {bytes(magic)!r}")
    if version != CONTROL_LOG_VERSION:
        raise ControlLogFormatError(
            f"unsupported control-log record version {version} "
            f"(this build speaks {CONTROL_LOG_VERSION})"
        )
    if length > MAX_RECORD_BYTES:
        raise ControlLogFormatError(
            f"control-log record claims {length} payload bytes, cap is {MAX_RECORD_BYTES}"
        )
    body = view[_RECORD_HEADER.size : _RECORD_HEADER.size + length]
    if len(body) < length:
        raise ControlLogFormatError(
            f"truncated control-log record payload ({len(body)} of {length} bytes)"
        )
    payload = bytes(body)
    if zlib.crc32(payload) != checksum:
        raise ControlLogFormatError("control-log record checksum mismatch (corrupt payload)")
    try:
        event = json.loads(payload.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise ControlLogFormatError(f"malformed control-log record payload: {error}") from error
    if not isinstance(event, dict):
        raise ControlLogFormatError("control-log record payload must be a JSON object")
    return event, offset + _RECORD_HEADER.size + length


def scan_records(data: bytes) -> Tuple[List[Dict[str, object]], int, Optional[str]]:
    """Replay every well-formed record from the head of ``data``.

    Returns ``(records, valid_bytes, error)`` where ``records`` is the
    longest decodable prefix, ``valid_bytes`` is the offset the prefix ends
    at, and ``error`` describes the first malformed record (``None`` for a
    clean scan).  Never raises: a torn tail from a crash mid-append is a
    normal recovery input, not an exception.
    """
    records: List[Dict[str, object]] = []
    offset = 0
    total = len(data)
    while offset < total:
        try:
            event, offset = decode_record(data, offset)
        except ControlLogFormatError as error:
            return records, offset, str(error)
        records.append(event)
    return records, offset, None


@dataclass(frozen=True)
class ControlLogReplay:
    """What a boot-time replay recovered from disk."""

    records: Tuple[Dict[str, object], ...] = ()
    last_version: int = 0
    valid_bytes: int = 0
    truncated_bytes: int = 0
    error: Optional[str] = None
    stats: Dict[str, int] = field(default_factory=dict)


# --------------------------------------------------------------------- #
# Durable-file helpers (the control log, the snapshot store and the
# replication cursor all write through these)
# --------------------------------------------------------------------- #

#: Suffix of an in-progress atomic write.  The snapshot store's boot-time
#: orphan sweep deletes files carrying it.
TMP_SUFFIX = ".tmp"

#: Makes temp names unique per call within one process (the pid in the
#: name makes them unique across processes).
_tmp_counter = itertools.count()


def fsync_dir(path: Path) -> None:
    """Best-effort directory fsync (some filesystems refuse the handle).

    Makes a create or a rename in *path* durable, not just the file bytes.
    """
    try:
        fd = os.open(path, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(fd)
    except OSError:
        pass
    finally:
        os.close(fd)


def write_atomic(path: os.PathLike, data: bytes) -> None:
    """Replace *path* with *data* so a crash leaves the old file or the new one.

    The bytes go to a same-directory temp file (``<name>.<pid>.<n>.tmp``)
    that is flushed and fsync'd, ``os.replace``'d over *path*, and then the
    directory is fsync'd.  On an I/O error the temp file is removed and the
    ``OSError`` propagates.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{next(_tmp_counter)}{TMP_SUFFIX}")
    try:
        with open(tmp, "wb") as handle:
            handle.write(data)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp, path)
    except OSError:
        try:
            tmp.unlink()
        except OSError:
            pass
        raise
    fsync_dir(path.parent)


class ControlLog:
    """Append-only, fsync'd control log with boot-time replay.

    Thread-safe.  ``append`` frames the record first (so a bad payload is
    counted, never raised, and never burns a version), then allocates the
    next monotonic version and commits it with write+fsync through one
    persistent append handle before returning — callers apply/broadcast
    only after the append, so a crash between commit and broadcast
    converges on replay (write-ahead ordering).  A torn tail found at open
    time is truncated away so subsequent appends never land after garbage.

    The durable record sequence is retained in memory (control events are
    rare and small) so a replication primary can stream the backlog to a
    late-subscribing follower; ``add_listener`` observers fire only after
    a record — and, on first create, the directory entry of the log file
    itself — is durable on disk.
    """

    def __init__(self, path: os.PathLike) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._appends = 0
        self._append_errors = 0
        self._replicated_appends = 0
        self._disabled = False
        self._closed = False
        self._handle = None
        self._listeners: List[Callable[[Dict[str, object]], None]] = []
        self.replay = self._load()
        self._last_version = self.replay.last_version
        # Durable records in file order: the replay prefix plus every
        # append that actually reached disk (in-memory-only appends are
        # excluded — a follower must never receive a record a primary
        # crash would un-happen).
        self._records: List[Dict[str, object]] = [dict(r) for r in self.replay.records]

    def _load(self) -> ControlLogReplay:
        try:
            data = self.path.read_bytes()
        except FileNotFoundError:
            data = b""
        except OSError as error:
            logger.warning("control log %s unreadable (%s); starting empty", self.path, error)
            self._disabled = True
            return ControlLogReplay(error=str(error))
        records, valid_bytes, error = scan_records(data)
        truncated = len(data) - valid_bytes
        if truncated:
            logger.warning(
                "control log %s has a torn/corrupt tail of %d bytes after %d records (%s); "
                "truncating to the valid prefix",
                self.path,
                truncated,
                len(records),
                error,
            )
            try:
                with open(self.path, "r+b") as handle:
                    handle.truncate(valid_bytes)
                    handle.flush()
                    os.fsync(handle.fileno())
            except OSError as truncate_error:
                # Cannot repair the tail: disable appends rather than risk
                # interleaving new records with garbage.
                logger.warning(
                    "control log %s tail truncation failed (%s); appends disabled",
                    self.path,
                    truncate_error,
                )
                self._disabled = True
        last_version = 0
        for record in records:
            version = record.get("version")
            if isinstance(version, int) and not isinstance(version, bool):
                last_version = max(last_version, version)
        return ControlLogReplay(
            records=tuple(records),
            last_version=last_version,
            valid_bytes=valid_bytes,
            truncated_bytes=truncated,
            error=error,
        )

    @property
    def last_version(self) -> int:
        with self._lock:
            return self._last_version

    @property
    def durable_version(self) -> int:
        """Highest version that actually reached disk (the replication head).

        Can trail :attr:`last_version` when appends are failing: in-memory
        versions keep serving monotonic, but only durable records may be
        shipped to followers — a primary crash must never un-happen a
        record a follower already holds.
        """
        with self._lock:
            version = 0
            for record in self._records:
                value = record.get("version")
                if isinstance(value, int) and not isinstance(value, bool):
                    version = max(version, value)
            return version

    def _ensure_handle(self):
        """Open (or reuse) the persistent append handle; caller holds the lock.

        On first create the *directory entry* is fsync'd too: a follower
        that finds the file must be guaranteed every byte it reads survives
        a primary crash, and a file whose dirent is still only in the page
        cache does not qualify.
        """
        if self._handle is None:
            existed = self.path.exists()
            self._handle = open(self.path, "ab")
            if not existed:
                fsync_dir(self.path.parent)
        return self._handle

    def _drop_handle(self) -> None:
        handle, self._handle = self._handle, None
        if handle is not None:
            try:
                handle.close()
            except OSError:
                pass

    def _write_durable(self, blob: bytes) -> None:
        """write+fsync one framed record; caller holds the lock.

        On any I/O error the handle is dropped so the next append reopens
        fresh — the descriptor may point at a rotated/unlinked file or be
        poisoned by the failed write.
        """
        handle = self._ensure_handle()
        try:
            handle.write(blob)
            handle.flush()
            os.fsync(handle.fileno())
        except OSError:
            self._drop_handle()
            raise

    def append(self, event_type: str, payload: Optional[Mapping[str, object]] = None) -> int:
        """Durably record one control event; return its version.

        The record is encoded *before* the version is committed: an
        unserializable payload is counted as an append error and the
        current (unchanged) version is returned — the failed event never
        existed, so its sequence number is not burned.  After a successful
        encode the version advances even when the disk write fails
        (counted and logged) so the in-memory control plane stays
        monotonic — durability degrades, serving does not.
        """
        durable_record: Optional[Dict[str, object]] = None
        with self._lock:
            record: Dict[str, object] = dict(payload or {})
            record["type"] = str(event_type)
            version = self._last_version + 1
            record["version"] = version
            try:
                blob = encode_record(record)
            except (ControlLogFormatError, TypeError, ValueError) as error:
                self._append_errors += 1
                logger.warning(
                    "control log %s cannot encode event %r (%s); event dropped, "
                    "version not burned",
                    self.path,
                    event_type,
                    error,
                )
                return self._last_version
            self._last_version = version
            if self._disabled or self._closed:
                self._append_errors += 1
                return version
            try:
                self._write_durable(blob)
                self._appends += 1
                self._records.append(record)
                durable_record = record
            except OSError as error:
                self._append_errors += 1
                logger.warning(
                    "control log %s append failed (%s); event %r v%d is in-memory only",
                    self.path,
                    error,
                    event_type,
                    version,
                )
        if durable_record is not None:
            self._notify(durable_record)
        return version

    def append_replicated(self, record: Mapping[str, object]) -> bool:
        """Durably append a record that already carries its version.

        The store-and-forward path for replication followers: the record —
        allocated and framed by the primary — is committed to the local
        log *before* it is applied, so a crash between receive and apply
        converges on replay.  Returns True when the record advanced the
        local sequence, False when it is stale (version at or below the
        local head) or unencodable.  Raises :class:`ControlLogFormatError`
        only for a record with no usable version at all — that is a
        protocol fault, not data.
        """
        event = dict(record)
        version = event.get("version")
        if not isinstance(version, int) or isinstance(version, bool) or version <= 0:
            raise ControlLogFormatError(
                f"replicated record carries invalid version {version!r}"
            )
        durable_record: Optional[Dict[str, object]] = None
        with self._lock:
            if version <= self._last_version:
                return False
            try:
                blob = encode_record(event)
            except (ControlLogFormatError, TypeError, ValueError) as error:
                self._append_errors += 1
                logger.warning(
                    "control log %s cannot encode replicated record v%d (%s)",
                    self.path,
                    version,
                    error,
                )
                return False
            self._last_version = version
            if self._disabled or self._closed:
                self._append_errors += 1
            else:
                try:
                    self._write_durable(blob)
                    self._replicated_appends += 1
                    self._records.append(event)
                    durable_record = event
                except OSError as error:
                    self._append_errors += 1
                    logger.warning(
                        "control log %s replicated append v%d failed (%s); "
                        "record is in-memory only",
                        self.path,
                        version,
                        error,
                    )
        if durable_record is not None:
            self._notify(durable_record)
        return True

    # ------------------------------------------------------------------ #
    # Replication tailing: durable-record access and append listeners
    # ------------------------------------------------------------------ #

    def records_since(self, version: int) -> List[Dict[str, object]]:
        """Durable records newer than ``version``, in file (commit) order."""
        with self._lock:
            return [
                dict(record)
                for record in self._records
                if isinstance(record.get("version"), int)
                and not isinstance(record.get("version"), bool)
                and record["version"] > version
            ]

    def records_after_index(self, index: int) -> List[Dict[str, object]]:
        """Durable records past a commit-order index (a tailer's read head)."""
        with self._lock:
            return [dict(record) for record in self._records[index:]]

    def add_listener(self, listener: Callable[[Dict[str, object]], None]) -> None:
        """Observe every durably committed record (called outside the lock).

        Listeners must be fast and non-raising; exceptions are swallowed
        and logged.  Delivery order across concurrent appenders is not
        guaranteed — tailers should treat the callback as a wake-up and
        read the ordered sequence via :meth:`records_after_index`.
        """
        with self._lock:
            self._listeners.append(listener)

    def _notify(self, record: Dict[str, object]) -> None:
        with self._lock:
            listeners = list(self._listeners)
        for listener in listeners:
            try:
                listener(dict(record))
            except Exception:  # noqa: BLE001 - observers cannot break the log
                logger.exception("control-log listener failed for v%s", record.get("version"))

    def stats(self) -> Dict[str, object]:
        with self._lock:
            return {
                "path": str(self.path),
                "records_replayed": len(self.replay.records),
                "last_version": self._last_version,
                "replayed_version": self.replay.last_version,
                "truncated_tail_bytes": self.replay.truncated_bytes,
                "replay_error": self.replay.error,
                "appends": self._appends,
                "append_errors": self._append_errors,
                "replicated_appends": self._replicated_appends,
                "records_retained": len(self._records),
                "disabled": self._disabled,
                "closed": self._closed,
            }

    def close(self) -> None:
        """Release the persistent append handle (idempotent).

        A closed log refuses further disk writes: late appends still
        advance the in-memory version (the monotonicity contract) but are
        counted as append errors instead of racing a shutdown.
        """
        with self._lock:
            self._closed = True
            self._drop_handle()
