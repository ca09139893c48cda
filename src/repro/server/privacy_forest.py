"""The privacy forest (Section 3.2).

For a privacy level ``n``, the privacy forest is the set of sub-trees rooted
at the level-``n`` nodes of the location tree, each paired with the robust
obfuscation matrix the server generated over its leaves.  The user selects
the sub-tree containing their real location; because the server ships *all*
sub-trees, it learns nothing about which one that is.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Tuple

from repro.core.matrix import ObfuscationMatrix
from repro.tree.location_tree import LocationTree


class PrivacyForest:
    """Container mapping sub-tree roots (at one privacy level) to their matrices."""

    def __init__(self, tree: LocationTree, privacy_level: int, delta: int, epsilon: float) -> None:
        if not 0 <= privacy_level <= tree.height:
            raise ValueError(
                f"privacy_level must be in [0, {tree.height}], got {privacy_level}"
            )
        self.tree = tree
        self.privacy_level = int(privacy_level)
        self.delta = int(delta)
        self.epsilon = float(epsilon)
        self._matrices: Dict[str, ObfuscationMatrix] = {}

    # ------------------------------------------------------------------ #
    # Population
    # ------------------------------------------------------------------ #

    def add(self, subtree_root_id: str, matrix: ObfuscationMatrix) -> None:
        """Register the matrix generated for one sub-tree root."""
        node = self.tree.node(subtree_root_id)
        if node.level != self.privacy_level:
            raise ValueError(
                f"node {subtree_root_id!r} is at level {node.level}, not the forest's "
                f"privacy level {self.privacy_level}"
            )
        self._matrices[subtree_root_id] = matrix

    # ------------------------------------------------------------------ #
    # Lookup
    # ------------------------------------------------------------------ #

    def subtree_roots(self) -> List[str]:
        """Ids of the sub-tree roots covered by the forest."""
        return list(self._matrices.keys())

    def matrix_for_subtree(self, subtree_root_id: str) -> ObfuscationMatrix:
        """Matrix over the leaves of the given sub-tree root."""
        try:
            return self._matrices[subtree_root_id]
        except KeyError:
            raise KeyError(
                f"no matrix for sub-tree {subtree_root_id!r}; available roots: "
                f"{sorted(self._matrices)[:5]}"
            ) from None

    def matrix_for_location(self, lat: float, lng: float) -> Tuple[str, ObfuscationMatrix]:
        """Sub-tree root and matrix covering the given geographic point.

        This is the user-side selection step (step 5 of Figure 8); it runs on
        the user device, never on the server.
        """
        root = self.tree.node_for_latlng(lat, lng, self.privacy_level)
        return root.node_id, self.matrix_for_subtree(root.node_id)

    def __len__(self) -> int:
        return len(self._matrices)

    def __contains__(self, subtree_root_id: str) -> bool:
        return subtree_root_id in self._matrices

    def __iter__(self) -> Iterator[Tuple[str, ObfuscationMatrix]]:
        return iter(self._matrices.items())

    def is_complete(self) -> bool:
        """Whether every level-``privacy_level`` node has a matrix."""
        expected = {node.node_id for node in self.tree.nodes_at_level(self.privacy_level)}
        return expected == set(self._matrices)

    def __repr__(self) -> str:
        return (
            f"PrivacyForest(privacy_level={self.privacy_level}, delta={self.delta}, "
            f"epsilon={self.epsilon}, subtrees={len(self)})"
        )
