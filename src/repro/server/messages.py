"""Wire-format messages exchanged between the user device and the server.

The trust model of Figure 1 constrains what the messages may carry: the
request exposes only the privacy level and the prune count δ (never the
user's location, sub-tree or preferences); the response carries one matrix
per sub-tree at the requested level, so the server cannot tell which one the
user actually uses.  Both messages are plain dataclasses with dictionary
(de)serialisation so they can cross any transport (HTTP, files, queues).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

from repro.core.matrix import ObfuscationMatrix


@dataclass(frozen=True)
class ObfuscationRequest:
    """Request for a privacy forest.

    Attributes
    ----------
    privacy_level:
        Tree level whose sub-trees form the obfuscation ranges.
    delta:
        Number of locations the user may prune (robustness budget δ).
    epsilon:
        Optional per-request privacy budget override; the server default is
        used when omitted.
    """

    privacy_level: int
    delta: int
    epsilon: Optional[float] = None

    def __post_init__(self) -> None:
        if self.privacy_level < 0:
            raise ValueError(f"privacy_level must be non-negative, got {self.privacy_level}")
        if self.delta < 0:
            raise ValueError(f"delta must be non-negative, got {self.delta}")
        if self.epsilon is not None and not (
            math.isfinite(self.epsilon) and self.epsilon > 0
        ):
            # The finiteness check matters on the wire: Python's json module
            # happily parses ``NaN``, and ``nan <= 0`` is False — without it a
            # NaN ε would sail through into the LP layer.
            raise ValueError(f"epsilon must be positive and finite when given, got {self.epsilon}")

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation."""
        return {"privacy_level": self.privacy_level, "delta": self.delta, "epsilon": self.epsilon}

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "ObfuscationRequest":
        """Inverse of :meth:`to_dict`.

        Every field is coerced to its declared type before construction —
        notably ``epsilon`` to ``float`` (a JSON producer may well send
        ``"epsilon": "1.5"``), so ``__post_init__`` validation always runs
        against a number and a malformed value fails loudly here rather
        than deep inside the LP layer.  A missing required field raises
        :class:`ValueError` (not ``KeyError``): it is a malformed payload,
        and transports map ``ValueError`` to a client error (HTTP 400).
        """
        try:
            privacy_level = payload["privacy_level"]
            delta = payload["delta"]
        except KeyError as error:
            raise ValueError(f"missing required request field {error.args[0]!r}") from None
        epsilon = payload.get("epsilon")
        try:
            return cls(
                privacy_level=int(privacy_level),  # type: ignore[arg-type]
                delta=int(delta),  # type: ignore[arg-type]
                epsilon=None if epsilon is None else float(epsilon),  # type: ignore[arg-type]
            )
        except OverflowError as error:
            # json.loads accepts ``Infinity``; int(inf) raises OverflowError,
            # which is still a malformed payload, not a server fault.
            raise ValueError(f"non-finite value in request payload: {error}") from None


@dataclass
class PrivacyForestResponse:
    """Response carrying one leaf-level obfuscation matrix per sub-tree.

    It is also the client-side privacy forest: it offers the lookup surface
    :class:`~repro.client.client.CORGIClient` needs (``matrix_for_subtree``
    and the generation parameters) without the server-side tree handle a
    :class:`~repro.server.privacy_forest.PrivacyForest` carries.

    Attributes
    ----------
    privacy_level, delta, epsilon:
        Parameters the forest was generated for (echoed for provenance).
    matrices:
        Mapping from sub-tree root node id to the matrix over its leaves.
    """

    privacy_level: int
    delta: int
    epsilon: float
    matrices: Dict[str, ObfuscationMatrix] = field(default_factory=dict)

    def matrix_for_subtree(self, subtree_root_id: str) -> ObfuscationMatrix:
        """Matrix over the leaves of the given sub-tree root."""
        try:
            return self.matrices[subtree_root_id]
        except KeyError:
            raise KeyError(
                f"no matrix for sub-tree {subtree_root_id!r}; available roots: "
                f"{sorted(self.matrices)[:5]}"
            ) from None

    def subtree_roots(self) -> List[str]:
        """Ids of the sub-tree roots covered by the forest."""
        return list(self.matrices.keys())

    def __len__(self) -> int:
        return len(self.matrices)

    def __contains__(self, subtree_root_id: str) -> bool:
        return subtree_root_id in self.matrices

    def __iter__(self) -> Iterator[Tuple[str, ObfuscationMatrix]]:
        return iter(self.matrices.items())

    def to_dict(self) -> Dict[str, object]:
        """JSON-friendly representation (matrices serialised via their own ``to_dict``)."""
        return {
            "privacy_level": self.privacy_level,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "matrices": {root_id: matrix.to_dict() for root_id, matrix in self.matrices.items()},
        }

    @classmethod
    def from_dict(cls, payload: Mapping[str, object]) -> "PrivacyForestResponse":
        """Inverse of :meth:`to_dict`."""
        matrices = {
            str(root_id): ObfuscationMatrix.from_dict(matrix_payload)
            for root_id, matrix_payload in dict(payload["matrices"]).items()  # type: ignore[arg-type]
        }
        return cls(
            privacy_level=int(payload["privacy_level"]),  # type: ignore[arg-type]
            delta=int(payload["delta"]),  # type: ignore[arg-type]
            epsilon=float(payload["epsilon"]),  # type: ignore[arg-type]
            matrices=matrices,
        )
