"""Canonical content hashing of numpy arrays.

One rule for hashing numpy arrays (dtype + shape + raw bytes, SHA-256)
lives here; :data:`repro.pipeline.fingerprint.FINGERPRINT_VERSION`
versions the composite encodings built on top.
"""

from __future__ import annotations

import hashlib

import numpy as np


def array_digest(*arrays: np.ndarray) -> str:
    """SHA-256 of the dtype, shape and raw bytes of one or more arrays."""
    hasher = hashlib.sha256()
    for array in arrays:
        data = np.ascontiguousarray(array)
        hasher.update(str(data.dtype).encode())
        hasher.update(str(data.shape).encode())
        hasher.update(data.tobytes())
    return hasher.hexdigest()
