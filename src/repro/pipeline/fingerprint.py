"""Canonical fingerprints for the matrix-generation pipeline.

A fingerprint is a hex SHA-256 digest of every input that can change a
result: :func:`fingerprint_fields` keys the engine's forest cache and the
snapshot store's namespace, and :func:`structure_fingerprint` groups
sub-tree problems that can share one LP constraint structure.

Canonicalisation rules: floats are encoded with ``float.hex()`` (exact, no
formatting loss), numpy arrays by dtype + shape + raw bytes, containers
recursively with sorted mapping keys.  The encoding is versioned so a
change to the rules invalidates old keys rather than aliasing them.
"""

from __future__ import annotations

import hashlib
from typing import Mapping, Optional

import numpy as np

from repro.utils.hashing import array_digest

#: Bumped whenever the canonical encoding changes.
FINGERPRINT_VERSION = 1

__all__ = [
    "FINGERPRINT_VERSION",
    "array_digest",
    "fingerprint_fields",
    "structure_fingerprint",
]


def _canonical(value: object) -> str:
    """Stable, lossless string encoding of one fingerprint field."""
    if isinstance(value, bool) or value is None:
        return repr(value)
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (int, str, bytes)):
        return repr(value)
    if isinstance(value, np.ndarray):
        return f"ndarray:{array_digest(value)}"
    if isinstance(value, np.generic):
        return _canonical(value.item())
    if isinstance(value, Mapping):
        items = ",".join(f"{key!r}:{_canonical(value[key])}" for key in sorted(value))
        return f"{{{items}}}"
    if isinstance(value, (list, tuple)):
        return "[" + ",".join(_canonical(item) for item in value) + "]"
    raise TypeError(f"cannot canonicalise {type(value).__name__} for fingerprinting")


def fingerprint_fields(**fields: object) -> str:
    """Canonical fingerprint of a keyword-described problem.

    Field names are part of the encoding, so adding a field (or renaming
    one) changes every fingerprint — exactly the safe failure mode for a
    cache key.
    """
    hasher = hashlib.sha256()
    hasher.update(f"v{FINGERPRINT_VERSION}".encode())
    for name in sorted(fields):
        hasher.update(name.encode())
        hasher.update(b"=")
        hasher.update(_canonical(fields[name]).encode())
        hasher.update(b";")
    return hasher.hexdigest()


def structure_fingerprint(size: int, constraint_pairs: Optional[np.ndarray]) -> str:
    """Digest of what a :class:`~repro.core.lp.ConstraintStructure` depends on.

    The structural part of the obfuscation LP — the sparse index pattern of
    ``A_ub``, the equality block and the right-hand sides — is a function of
    the location count and the constraint *pairs* only (not of distances,
    ε, δ or the quality model).  Two problems with equal structure
    fingerprints are *congruent*: they can share one built structure, which
    is how sibling sub-trees with identical hexagon geometry avoid repeated
    structural assembly.  ``None`` pairs (the all-pairs formulation resolved
    against a per-problem distance matrix) fingerprint to an ``unshared``
    bucket: such tasks may be *executed* together but never share a
    structure, because the structure would carry another problem's distances.
    """
    if constraint_pairs is None:
        return f"v{FINGERPRINT_VERSION}:unshared:{int(size)}"
    pairs = np.ascontiguousarray(np.asarray(constraint_pairs, dtype=np.int64))
    return f"v{FINGERPRINT_VERSION}:{int(size)}:{array_digest(pairs)}"
