"""Versioned, host-agnostic cache-snapshot protocol for warm shard hand-off.

When a shard drains (or crashes), its hot forest cache should not die with
it: the pool ships a **cache snapshot** to the shard's ring siblings so the
keys that were hot on the departing shard are served warm instead of
rebuilt through the LP pipeline.  Following the multi-branch state-hand-off
patterns in the related work (MSMQ-style enterprise synchronization;
verified net-transition semantics), the transfer is an explicit, versioned
protocol rather than ad-hoc cache copying:

* a snapshot always carries the **keys** — normalized ``(privacy_level, δ,
  ε)`` triples — and the source shard's priors version;
* it carries the **payload** (the per-sub-tree obfuscation matrices) only
  while a size budget allows, so a huge cache degrades to a key-only
  snapshot that the receiver pre-warms by rebuilding instead of a transfer
  that stalls the drain;
* the wire format is **host-agnostic by construction**: entries name
  semantic request keys (never engine-internal fingerprints, which fold in
  local config and priors), and the envelope is versioned JSON — the same
  blob crosses a socketpair to a local shard or a TCP socket to a remote
  one.

Decoding is strict: a truncated, non-JSON, version-skewed or field-invalid
blob raises :class:`SnapshotFormatError` (a ``ValueError``, so transports
map it to HTTP 400) — never a crash in the receiving worker.  Entry fields
the decoder does not know are ignored, so a version-1 blob whose entries
still carry the remaining-TTL field that builds with a forest TTL wrote
decodes unchanged.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple

from repro.core.exceptions import CORGIError, MatrixValidationError
from repro.core.matrix import ObfuscationMatrix

__all__ = [
    "SNAPSHOT_FORMAT",
    "SNAPSHOT_VERSION",
    "CacheSnapshot",
    "SnapshotEntry",
    "SnapshotFormatError",
    "decode_snapshot",
    "encode_snapshot",
]

#: Envelope magic: identifies a blob as a CORGI cache snapshot.
SNAPSHOT_FORMAT = "corgi-cache-snapshot"

#: Protocol version.  Bumped on any incompatible change to the envelope or
#: entry fields; decoders reject every other version outright (a skewed
#: peer must fall back to cold rebuilds, never misread a blob).
SNAPSHOT_VERSION = 1


class SnapshotFormatError(CORGIError, ValueError):
    """The blob is not a well-formed snapshot of a supported version.

    Subclasses :class:`ValueError` so the HTTP error mapping classifies it
    as a client fault (400), and :class:`CORGIError` so library-level
    handlers can catch it with everything else.
    """


@dataclass(frozen=True)
class SnapshotEntry:
    """One cached forest in a snapshot.

    ``matrices`` is the optional payload (``{subtree_root_id: matrix}``);
    ``None`` means key-only — the receiver pre-warms by rebuilding.
    """

    privacy_level: int
    delta: int
    epsilon: float
    matrices: Optional[Dict[str, ObfuscationMatrix]] = None

    @property
    def key(self) -> Tuple[int, int, float]:
        """The normalized request key this entry caches."""
        return (self.privacy_level, self.delta, self.epsilon)

    def without_payload(self) -> "SnapshotEntry":
        """A key-only copy (used when priors versions skew — see ``import_cache``
        in :class:`~repro.service.shard.ShardOpExecutor`)."""
        return replace(self, matrices=None)


@dataclass(frozen=True)
class CacheSnapshot:
    """A shard's forest-cache state, ready to ship to a ring sibling."""

    shard_slot: int
    priors_version: int
    entries: Tuple[SnapshotEntry, ...] = ()


def encode_snapshot(snapshot: CacheSnapshot) -> bytes:
    """Serialize a snapshot to its versioned wire form (UTF-8 JSON bytes)."""
    entries = []
    for entry in snapshot.entries:
        payload = None
        if entry.matrices is not None:
            payload = {
                str(root_id): matrix.to_dict()
                for root_id, matrix in entry.matrices.items()
            }
        entries.append(
            {
                "privacy_level": int(entry.privacy_level),
                "delta": int(entry.delta),
                "epsilon": float(entry.epsilon),
                "matrices": payload,
            }
        )
    envelope = {
        "format": SNAPSHOT_FORMAT,
        "version": SNAPSHOT_VERSION,
        "shard_slot": int(snapshot.shard_slot),
        "priors_version": int(snapshot.priors_version),
        "entries": entries,
    }
    return json.dumps(envelope, sort_keys=True).encode("utf-8")


def _require_int(value: object, name: str, *, minimum: Optional[int] = None) -> int:
    # bool is an int subclass but never a legal wire integer here.
    if isinstance(value, bool) or not isinstance(value, int):
        raise SnapshotFormatError(f"snapshot field {name!r} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise SnapshotFormatError(f"snapshot field {name!r} must be >= {minimum}, got {value}")
    return value


def _decode_entry(raw: object, index: int) -> SnapshotEntry:
    if not isinstance(raw, dict):
        raise SnapshotFormatError(f"snapshot entry {index} must be an object, got {type(raw).__name__}")
    privacy_level = _require_int(raw.get("privacy_level"), "privacy_level", minimum=0)
    delta = _require_int(raw.get("delta"), "delta", minimum=0)
    epsilon = raw.get("epsilon")
    if isinstance(epsilon, bool) or not isinstance(epsilon, (int, float)):
        raise SnapshotFormatError(f"snapshot field 'epsilon' must be a number, got {epsilon!r}")
    epsilon = float(epsilon)
    if not math.isfinite(epsilon) or epsilon <= 0:
        raise SnapshotFormatError(f"snapshot field 'epsilon' must be finite and positive, got {epsilon}")
    payload = raw.get("matrices")
    matrices: Optional[Dict[str, ObfuscationMatrix]] = None
    if payload is not None:
        if not isinstance(payload, dict):
            raise SnapshotFormatError(f"snapshot entry {index} payload must be an object")
        matrices = {}
        for root_id, matrix_payload in payload.items():
            try:
                matrices[str(root_id)] = ObfuscationMatrix.from_dict(matrix_payload)
            except (KeyError, TypeError, ValueError, MatrixValidationError) as error:
                raise SnapshotFormatError(
                    f"snapshot entry {index} carries an invalid matrix for {root_id!r}: {error}"
                ) from error
    return SnapshotEntry(
        privacy_level=privacy_level,
        delta=delta,
        epsilon=epsilon,
        matrices=matrices,
    )


def decode_snapshot(blob: bytes) -> CacheSnapshot:
    """Parse and validate a snapshot blob; reject anything malformed.

    Raises :class:`SnapshotFormatError` for a non-bytes input, truncated or
    non-JSON blob, wrong magic, unsupported version, or any invalid entry
    field — the receiving worker must degrade to cold rebuilds, never die.
    """
    if not isinstance(blob, (bytes, bytearray)):
        raise SnapshotFormatError(f"snapshot blob must be bytes, got {type(blob).__name__}")
    try:
        envelope = json.loads(bytes(blob).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as error:
        raise SnapshotFormatError(f"truncated or malformed snapshot blob: {error}") from error
    if not isinstance(envelope, dict):
        raise SnapshotFormatError("snapshot envelope must be a JSON object")
    if envelope.get("format") != SNAPSHOT_FORMAT:
        raise SnapshotFormatError(f"not a cache snapshot (format {envelope.get('format')!r})")
    version = _require_int(envelope.get("version"), "version")
    if version != SNAPSHOT_VERSION:
        raise SnapshotFormatError(
            f"unsupported snapshot version {version} (this build speaks {SNAPSHOT_VERSION})"
        )
    shard_slot = _require_int(envelope.get("shard_slot"), "shard_slot", minimum=0)
    priors_version = _require_int(envelope.get("priors_version"), "priors_version", minimum=0)
    raw_entries = envelope.get("entries")
    if not isinstance(raw_entries, list):
        raise SnapshotFormatError("snapshot 'entries' must be a list")
    entries = tuple(_decode_entry(raw, index) for index, raw in enumerate(raw_entries))
    return CacheSnapshot(shard_slot=shard_slot, priors_version=priors_version, entries=entries)
