"""Persistent, compressed snapshot store for instant warm fleet restarts.

The hand-off protocol (:mod:`repro.service.handoff`) keeps a draining or
crashing shard's forest cache alive — but only in the RAM of its ring
siblings.  A full-fleet restart (deploy, host reboot, kill -9) still pays
the cold LP rebuild that the benchmarks show is two orders of magnitude
slower than a warm import.  This module is the durable tier underneath:
every built forest is persisted as a zlib-compressed ``encode_snapshot``
blob, one file per semantic ``(privacy_level, δ, ε)`` key, namespaced by a
canonical pipeline fingerprint so a config/tree/targets change can never
resurrect a foreign forest.

On-disk file format::

    +-------+---------+----------------+--------------------+----------------+
    | magic | version | compressed len | zlib(snapshot blob)| CRC32 trailer  |
    | CRGS  |   u8    |      u32       |        ...         | u32(compressed)|
    +-------+---------+----------------+--------------------+----------------+

Durability discipline:

* **Atomic writes** — blobs land in a same-directory temp file that is
  fsync'd and ``os.replace``'d into place, so a kill -9 mid-write leaves
  either the old file or the new file, never a torn one; orphaned temp
  files are swept on boot.
* **Strict typed decode** — truncation, bit flips (every byte is covered
  by magic, version, length, or the CRC trailer), version skew, and
  zip-bomb payloads raise :class:`StoreFormatError` (a
  :class:`~repro.service.handoff.SnapshotFormatError`); corrupt files are
  quarantined with a ``.corrupt`` suffix and the boot continues cold.
* **Graceful degradation** — write failures (disk full, read-only volume)
  are counted and logged, never raised into the serving path.
"""

from __future__ import annotations

import hashlib
import logging
import os
import struct
import threading
import zlib
from dataclasses import fields
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.pipeline.fingerprint import fingerprint_fields
from repro.service.controllog import TMP_SUFFIX, write_atomic
from repro.service.handoff import SnapshotFormatError

__all__ = [
    "MAX_STORE_BYTES",
    "STORE_MAGIC",
    "STORE_VERSION",
    "SnapshotStore",
    "StoreFormatError",
    "decode_store_blob",
    "encode_store_blob",
    "pipeline_store_fingerprint",
]

logger = logging.getLogger(__name__)

#: File magic: identifies a file as a CORGI stored snapshot.
STORE_MAGIC = b"CRGS"

#: On-disk format version.  Bumped on any incompatible change; decoders
#: reject every other version outright (skew → cold rebuild, never a
#: misread forest).
STORE_VERSION = 1

#: Upper bound on the *decompressed* snapshot size — a zip-bomb guard for
#: the decoder and a sanity bound for the length header.
MAX_STORE_BYTES = 256 << 20

_STORE_HEADER = struct.Struct(">4sBI")
_STORE_TRAILER = struct.Struct(">I")

_SNAPSHOT_SUFFIX = ".snap"
_CORRUPT_SUFFIX = ".corrupt"


class StoreFormatError(SnapshotFormatError):
    """The file is not a well-formed stored snapshot of a supported version.

    Subclasses :class:`SnapshotFormatError` so every layer that already
    degrades gracefully on snapshot decode errors (transports, shard
    executors) treats store corruption identically: cold rebuild, typed
    diagnostics, no crash.
    """


def encode_store_blob(blob: bytes) -> bytes:
    """Wrap a snapshot blob in the compressed, checksummed store envelope."""
    if not isinstance(blob, (bytes, bytearray)):
        raise StoreFormatError(f"store payload must be bytes, got {type(blob).__name__}")
    raw = bytes(blob)
    if len(raw) > MAX_STORE_BYTES:
        raise StoreFormatError(
            f"snapshot of {len(raw)} bytes exceeds store cap {MAX_STORE_BYTES}"
        )
    compressed = zlib.compress(raw, 6)
    header = _STORE_HEADER.pack(STORE_MAGIC, STORE_VERSION, len(compressed))
    trailer = _STORE_TRAILER.pack(zlib.crc32(compressed))
    return header + compressed + trailer


def decode_store_blob(data: bytes) -> bytes:
    """Strictly unwrap a store file back to the inner snapshot blob.

    Raises :class:`StoreFormatError` for truncated files, wrong magic,
    unsupported versions, length mismatches (including trailing garbage),
    checksum failures, undecompressable payloads, and payloads that inflate
    past :data:`MAX_STORE_BYTES`.
    """
    if not isinstance(data, (bytes, bytearray)):
        raise StoreFormatError(f"store file must be bytes, got {type(data).__name__}")
    data = bytes(data)
    if len(data) < _STORE_HEADER.size + _STORE_TRAILER.size:
        raise StoreFormatError(
            f"truncated store file ({len(data)} bytes is below the envelope minimum)"
        )
    magic, version, length = _STORE_HEADER.unpack_from(data)
    if magic != STORE_MAGIC:
        raise StoreFormatError(f"bad store file magic {bytes(magic)!r}")
    if version != STORE_VERSION:
        raise StoreFormatError(
            f"unsupported store format version {version} (this build speaks {STORE_VERSION})"
        )
    expected = _STORE_HEADER.size + length + _STORE_TRAILER.size
    if len(data) < expected:
        raise StoreFormatError(
            f"truncated store file ({len(data)} of {expected} bytes)"
        )
    if len(data) > expected:
        raise StoreFormatError(
            f"store file carries {len(data) - expected} trailing bytes after the trailer"
        )
    compressed = data[_STORE_HEADER.size : _STORE_HEADER.size + length]
    (checksum,) = _STORE_TRAILER.unpack_from(data, _STORE_HEADER.size + length)
    if zlib.crc32(compressed) != checksum:
        raise StoreFormatError("store file checksum mismatch (corrupt payload)")
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(compressed, MAX_STORE_BYTES + 1)
    except zlib.error as error:
        raise StoreFormatError(f"store payload does not decompress: {error}") from error
    if len(raw) > MAX_STORE_BYTES:
        raise StoreFormatError(f"store payload inflates past cap {MAX_STORE_BYTES}")
    if not inflater.eof or inflater.unused_data:
        raise StoreFormatError("store payload is not a single complete zlib stream")
    return raw


def pipeline_store_fingerprint(tree, config, targets=None) -> str:
    """Canonical namespace fingerprint for one pool's store.

    Folds every result-affecting :class:`~repro.server.engine.ServerConfig`
    field (reusing the engine's non-result exclusion list), the target
    distribution, and the tree identity — so a pool booted against a
    different config, targets, or tree hashes to a different namespace.
    The namespace enters only the file names
    (:meth:`SnapshotStore.filename_for`); the pool's boot pre-warm skips
    every entry whose file name is not the one its own namespace gives the
    key, so it never imports a foreign forest.  ε is excluded (it is part
    of each entry's semantic key) and leaf priors are excluded
    deliberately: priors drift is governed by the control log's version,
    which the import path checks per entry.
    """
    from repro.server.engine import ForestEngine
    from repro.utils.hashing import array_digest

    import numpy as np

    config_fields = {
        spec.name: getattr(config, spec.name)
        for spec in fields(config)
        if spec.name not in ForestEngine._NON_RESULT_CONFIG_FIELDS
    }
    if targets is None:
        targets_token = "derived-from-config"
    else:
        targets_token = array_digest(
            np.asarray(targets.locations, dtype=float), targets.probabilities
        )
    return fingerprint_fields(
        store_version=STORE_VERSION,
        config=config_fields,
        targets=targets_token,
        tree_root=str(tree.root.node_id),
        tree_leaves=len(tree.leaves()),
    )


class SnapshotStore:
    """Directory of compressed snapshot files, one per semantic key.

    Thread-safe.  All failure paths are non-raising: ``put`` returns False
    on I/O errors, ``get``/``load_all`` quarantine corrupt files and move
    on.  Counters feed the pool's durability diagnostics.

    With ``read_only=True`` the store is a pure read view — the warm-boot
    seed case, where several heads of the same pipeline fingerprint share
    one snapshot directory (typically the primary's) and followers must
    not mutate it: ``put``/``purge`` refuse (counted, logged), corrupt
    files are skipped without being renamed into quarantine, and no
    directory creation or orphan sweeping happens at open time.
    """

    def __init__(
        self, root: os.PathLike, *, fingerprint: str = "", read_only: bool = False
    ) -> None:
        self.root = Path(root)
        self.fingerprint = str(fingerprint)
        self.read_only = bool(read_only)
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {
            "writes": 0,
            "write_errors": 0,
            "hits": 0,
            "misses": 0,
            "loads": 0,
            "deletes": 0,
            "corrupt_quarantined": 0,
            "orphans_cleaned": 0,
            "raw_bytes": 0,
            "stored_bytes": 0,
        }
        if not self.read_only:
            self.root.mkdir(parents=True, exist_ok=True)
            self._clean_orphans()

    # ------------------------------------------------------------------ #
    # Keys and paths
    # ------------------------------------------------------------------ #

    def filename_for(self, privacy_level: int, delta: int, epsilon: float) -> str:
        """Deterministic file name for a semantic key in this namespace.

        The level/δ prefix keeps directory listings operator-readable; the
        digest folds the namespace fingerprint and the exact ε (via
        ``float.hex`` — no formatting loss).
        """
        token = f"{self.fingerprint}|{int(privacy_level)}|{int(delta)}|{float(epsilon).hex()}"
        digest = hashlib.sha256(token.encode("utf-8")).hexdigest()[:16]
        return f"L{int(privacy_level)}_D{int(delta)}_{digest}{_SNAPSHOT_SUFFIX}"

    def path_for(self, privacy_level: int, delta: int, epsilon: float) -> Path:
        return self.root / self.filename_for(privacy_level, delta, epsilon)

    # ------------------------------------------------------------------ #
    # Write path
    # ------------------------------------------------------------------ #

    def count_write_error(self, amount: int = 1) -> None:
        """Record a persistence failure that happened *outside* ``put``.

        The pool's background persister snapshot-encodes entries before
        handing them to the store; an encode failure is a persistence gap
        every bit as real as a failed disk write, and it must show up in
        the same ``write_errors`` counter the durability endpoint reports.
        """
        with self._lock:
            self._counters["write_errors"] += int(amount)

    def put(self, privacy_level: int, delta: int, epsilon: float, blob: bytes) -> bool:
        """Atomically persist one snapshot blob; never raises on I/O errors."""
        path = self.path_for(privacy_level, delta, epsilon)
        if self.read_only:
            self.count_write_error()
            logger.warning("snapshot store %s is read-only; refusing put of %s", self.root, path.name)
            return False
        try:
            data = encode_store_blob(blob)
            self._write_atomic(path, data)
        except (OSError, StoreFormatError) as error:
            with self._lock:
                self._counters["write_errors"] += 1
            logger.warning("snapshot store write to %s failed: %s", path.name, error)
            return False
        with self._lock:
            self._counters["writes"] += 1
            self._counters["raw_bytes"] += len(blob)
            self._counters["stored_bytes"] += len(data)
        return True

    def _write_atomic(self, path: Path, data: bytes) -> None:
        # A method, so fault injection can fail this store's writes alone.
        write_atomic(path, data)

    # ------------------------------------------------------------------ #
    # Read path
    # ------------------------------------------------------------------ #

    def get(self, privacy_level: int, delta: int, epsilon: float) -> Optional[bytes]:
        """Load one snapshot blob; None on miss or (quarantined) corruption."""
        path = self.path_for(privacy_level, delta, epsilon)
        blob = self._read(path)
        with self._lock:
            self._counters["hits" if blob is not None else "misses"] += 1
        return blob

    def _read(self, path: Path) -> Optional[bytes]:
        try:
            data = path.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as error:
            logger.warning("snapshot store read of %s failed: %s", path.name, error)
            return None
        try:
            return decode_store_blob(data)
        except StoreFormatError as error:
            self._quarantine(path, error)
            return None

    def load_all(self) -> List[Tuple[str, bytes]]:
        """Every decodable stored snapshot, sorted by file name.

        Corrupt files are quarantined and skipped — a fault-injected store
        boots cold with diagnostics, never an exception.
        """
        loaded: List[Tuple[str, bytes]] = []
        for path in sorted(self.root.glob(f"*{_SNAPSHOT_SUFFIX}")):
            blob = self._read(path)
            if blob is None:
                continue
            with self._lock:
                self._counters["loads"] += 1
            loaded.append((path.name, blob))
        return loaded

    def _quarantine(self, path: Path, error: StoreFormatError) -> None:
        with self._lock:
            self._counters["corrupt_quarantined"] += 1
        if self.read_only:
            logger.warning(
                "snapshot store file %s is corrupt (%s); store is read-only, skipping",
                path.name,
                error,
            )
            return
        quarantined = path.with_name(path.name + _CORRUPT_SUFFIX)
        try:
            os.replace(path, quarantined)
            note = f"quarantined as {quarantined.name}"
        except OSError as rename_error:
            note = f"quarantine failed: {rename_error}"
        logger.warning(
            "snapshot store file %s is corrupt (%s); booting cold for this key (%s)",
            path.name,
            error,
            note,
        )

    def quarantine_blob(self, name: str, error: SnapshotFormatError) -> None:
        """Quarantine a file whose *inner* snapshot failed validation."""
        self._quarantine(self.root / name, StoreFormatError(str(error)))

    # ------------------------------------------------------------------ #
    # Purge
    # ------------------------------------------------------------------ #

    def purge(self) -> int:
        """Delete every stored snapshot."""
        if self.read_only:
            logger.warning("snapshot store %s is read-only; refusing purge", self.root)
            return 0
        removed = 0
        for path in list(self.root.glob(f"*{_SNAPSHOT_SUFFIX}")):
            try:
                path.unlink()
                removed += 1
            except OSError as error:
                logger.warning("snapshot store purge of %s failed: %s", path.name, error)
        if removed:
            with self._lock:
                self._counters["deletes"] += removed
        return removed

    # ------------------------------------------------------------------ #
    # Maintenance and diagnostics
    # ------------------------------------------------------------------ #

    def _clean_orphans(self) -> None:
        # A kill -9 between temp-file creation and os.replace leaves a
        # *.tmp orphan; it was never visible to readers, so deleting it is
        # always safe.
        for path in list(self.root.glob(f"*{TMP_SUFFIX}")):
            try:
                path.unlink()
            except OSError:
                continue
            with self._lock:
                self._counters["orphans_cleaned"] += 1

    def entry_count(self) -> int:
        return sum(1 for _ in self.root.glob(f"*{_SNAPSHOT_SUFFIX}"))

    def stats(self) -> Dict[str, object]:
        with self._lock:
            counters = dict(self._counters)
        raw = counters["raw_bytes"]
        stored = counters["stored_bytes"]
        counters["compression_ratio"] = round(raw / stored, 3) if stored else None
        counters["entries"] = self.entry_count()
        counters["root"] = str(self.root)
        counters["fingerprint"] = self.fingerprint[:16]
        counters["read_only"] = self.read_only
        return counters
