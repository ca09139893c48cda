"""Canonical fingerprints for the matrix-generation pipeline.

A fingerprint is a hex SHA-256 digest of every input that can change the
result of an LP / robust-generation problem: the node-set geometry (node
ids and distance matrix), the Geo-Ind constraint pairs, the quality-model
objective, and the scalar knobs (ε, δ, weighting, basis row, iteration
count, solver).  Two problems with equal fingerprints produce bit-identical
LP inputs, so a cached solution can be served in place of a re-solve.

Canonicalisation rules: floats are encoded with ``float.hex()`` (exact, no
formatting loss), numpy arrays by dtype + shape + raw bytes, containers
recursively with sorted mapping keys.  The encoding is versioned so a
change to the rules invalidates old keys rather than aliasing them.
"""

from __future__ import annotations

import hashlib
from typing import Mapping, Optional, Sequence

import numpy as np

from repro.core.geoind import GeoIndConstraintSet
from repro.utils.hashing import array_digest

#: Bumped whenever the canonical encoding changes.
FINGERPRINT_VERSION = 1

__all__ = [
    "FINGERPRINT_VERSION",
    "array_digest",
    "constraint_set_digest",
    "fingerprint_fields",
    "geometry_fingerprint",
    "problem_fingerprint",
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


def constraint_set_digest(constraint_set: Optional[GeoIndConstraintSet]) -> str:
    """Digest of the constraint pairs and their distances (``"all-pairs"`` for None)."""
    if constraint_set is None:
        return "all-pairs-default"
    return array_digest(constraint_set.pairs, constraint_set.distances_km)


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


def geometry_fingerprint(node_ids: Sequence[str], distance_matrix_km: np.ndarray) -> str:
    """Digest of the node-set geometry: ordered ids + pairwise distances."""
    hasher = hashlib.sha256()
    for node_id in node_ids:
        hasher.update(str(node_id).encode())
        hasher.update(b"\x00")
    hasher.update(array_digest(np.asarray(distance_matrix_km, dtype=float)).encode())
    return hasher.hexdigest()


def problem_fingerprint(
    node_ids: Sequence[str],
    distance_matrix_km: np.ndarray,
    epsilon: float,
    delta: int,
    *,
    quality_digest: str,
    constraint_digest: str,
    weighting: str,
    basis_row: str,
    rpb_method: str,
    max_iterations: int,
    solver_method: str,
) -> str:
    """Canonical fingerprint of one robust-generation problem.

    This is the key the :class:`~repro.pipeline.cache.MatrixCache` stores
    results under: node-set geometry hash, ε, δ, weighting, basis row,
    quality-model digest, constraint digest and solver knobs.
    """
    return fingerprint_fields(
        geometry=geometry_fingerprint(node_ids, distance_matrix_km),
        epsilon=float(epsilon),
        delta=int(delta),
        quality=quality_digest,
        constraints=constraint_digest,
        weighting=str(weighting),
        basis_row=str(basis_row),
        rpb_method=str(rpb_method),
        max_iterations=int(max_iterations),
        solver_method=str(solver_method),
    )
