"""Output-correctness checks, run after the timed phase.

Every distinct served matrix must be row-stochastic, non-negative and pass
``check_geo_ind`` over the Geo-Ind constraint set the engine enforces (the
12-neighbour graph of its sub-tree, at the served ε) with the solver-noise
tolerances rtol=1e-4, atol=1e-5.  Selected served forests must also equal,
byte for byte in ``ObfuscationMatrix.to_dict`` form, what a single-process
``ForestEngine`` computes at the same priors version.
"""

from __future__ import annotations

import hashlib
import json
import threading
from dataclasses import dataclass, field
from typing import Dict, Mapping, Set, Tuple

import numpy as np

from repro.core.geoind import check_geo_ind
from repro.core.graphapprox import HexNeighborhoodGraph

GEOIND_RTOL = 1e-4
GEOIND_ATOL = 1e-5
STOCHASTIC_ATOL = 1e-6


def matrix_digest(matrix) -> str:
    """Digest of everything ``ObfuscationMatrix.to_dict`` carries.

    Values alone are not enough: forests served for two ε values can hold
    the same matrices and differ only in the ε they carry.
    """
    hasher = hashlib.sha256()
    hasher.update("\x1f".join(matrix.node_ids).encode())
    hasher.update(np.ascontiguousarray(matrix.values, dtype=np.float64).tobytes())
    fields = {key: value for key, value in matrix.to_dict().items() if key not in ("node_ids", "values")}
    hasher.update(json.dumps(fields, sort_keys=True, default=repr).encode())
    return hasher.hexdigest()


def forest_digest(matrices: Mapping[str, object]) -> str:
    hasher = hashlib.sha256()
    for root_id in sorted(matrices):
        hasher.update(root_id.encode())
        hasher.update(matrix_digest(matrices[root_id]).encode())
    return hasher.hexdigest()


def canonical(matrices: Mapping[str, object]) -> str:
    """The byte form two forests are compared in."""
    return json.dumps({root: matrices[root].to_dict() for root in sorted(matrices)}, sort_keys=True)


#: Distinct matrix-object sets remembered by identity (see ServedLog.record).
_IDENTITY_CACHE = 64


@dataclass
class ServedLog:
    """Thread-safe record of what the system served during the timed phase.

    Keeps one copy of each distinct forest (by content digest), the digests
    served per key, and how often each digest was served.
    """

    forests: Dict[str, Tuple[float, Dict[str, object]]] = field(default_factory=dict)
    digests_by_key: Dict[tuple, Set[str]] = field(default_factory=dict)
    served: Dict[str, int] = field(default_factory=dict)
    _by_identity: Dict[tuple, Tuple[str, object]] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def record(self, key: tuple, epsilon: float, matrices: Mapping[str, object]) -> str:
        # An in-process warm hit hands back the very matrix objects the
        # engine cached; hashing their contents on every request would cost
        # more than the request.  The identity key is only trusted while
        # the entry holds the objects alive, so an id cannot be reused.
        identity = tuple(map(id, matrices.values()))
        with self._lock:
            known = self._by_identity.get(identity)
        digest = known[0] if known is not None else forest_digest(matrices)
        with self._lock:
            if known is None:
                if len(self._by_identity) >= _IDENTITY_CACHE:
                    self._by_identity.pop(next(iter(self._by_identity)))
                self._by_identity[identity] = (digest, matrices)
            if digest not in self.forests:
                self.forests[digest] = (float(epsilon), dict(matrices))
            self.digests_by_key.setdefault(tuple(key), set()).add(digest)
            self.served[digest] = self.served.get(digest, 0) + 1
        return digest


class GeoIndAuditor:
    """Audits matrices against the constraint set the engine enforced for them."""

    def __init__(self, tree, graph_weighting: str) -> None:
        self.tree = tree
        self.graph_weighting = graph_weighting
        self._geometry: Dict[Tuple[str, ...], tuple] = {}

    def _constraints(self, node_ids: Tuple[str, ...]):
        if node_ids not in self._geometry:
            graph = HexNeighborhoodGraph(
                self.tree.grid,
                [self.tree.node(node_id).cell for node_id in node_ids],
                weighting=self.graph_weighting,
            )
            self._geometry[node_ids] = (graph.euclidean_distance_matrix(), graph.constraint_set())
        return self._geometry[node_ids]

    def passes(self, matrix, epsilon: float) -> bool:
        values = np.asarray(matrix.values, dtype=float)
        if np.any(values < 0) or np.any(np.abs(values.sum(axis=1) - 1.0) > STOCHASTIC_ATOL):
            return False
        distances, constraints = self._constraints(tuple(matrix.node_ids))
        report = check_geo_ind(
            values, distances, epsilon, constraint_set=constraints, rtol=GEOIND_RTOL, atol=GEOIND_ATOL
        )
        return report.satisfied


@dataclass
class Audit:
    distinct_matrices: int
    bad_matrices: int
    bad_forests: Set[str]


def audit_served(log: ServedLog, auditor: GeoIndAuditor) -> Audit:
    """Check every distinct served matrix once; a forest is bad if any of its matrices is."""
    verdicts: Dict[str, bool] = {}
    bad_forests: Set[str] = set()
    for digest, (epsilon, matrices) in log.forests.items():
        for matrix in matrices.values():
            matrix_id = matrix_digest(matrix) + f"@{epsilon!r}"
            if matrix_id not in verdicts:
                verdicts[matrix_id] = auditor.passes(matrix, epsilon)
            if not verdicts[matrix_id]:
                bad_forests.add(digest)
    bad = sum(1 for ok in verdicts.values() if not ok)
    return Audit(distinct_matrices=len(verdicts), bad_matrices=bad, bad_forests=bad_forests)
