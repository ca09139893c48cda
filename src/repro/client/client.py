"""CORGI client: generate an obfuscated location from a policy (Algorithm 4).

The client-side pipeline is:

1. find the sub-tree ``T_i`` rooted at the policy's privacy level containing
   the user's real location;
2. evaluate the user preferences over that sub-tree's leaves to obtain the
   prune set ``S`` (the user's private attributes and the distance to the
   real location are available only here);
3. send ``(privacy level, |S|)`` to the server and receive the privacy
   forest;
4. select the matrix of the user's sub-tree, prune ``S`` from it, reduce it
   to the policy's precision level;
5. sample the obfuscated location from the row of the real location's
   ancestor at the precision level.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.client.transport import as_forest_provider
from repro.core.matrix import ObfuscationMatrix
from repro.core.precision import ancestor_row_for, precision_reduction
from repro.core.pruning import prune_matrix
from repro.datasets.checkin import CheckInDataset
from repro.geometry.haversine import LatLng
from repro.policy.attributes import LocationAttributeExtractor
from repro.policy.evaluation import DeltaOverflowStrategy, PreferenceEvaluation, evaluate_preferences
from repro.policy.policy import Policy
from repro.tree.location_tree import LocationTree
from repro.utils.logging import get_logger
from repro.utils.rng import RandomState, as_rng

logger = get_logger(__name__)


@dataclass
class ObfuscationOutcome:
    """Everything the client produced while obfuscating one location report.

    Attributes
    ----------
    reported_node_id:
        Id of the node reported to the application (at the policy's
        precision level).
    reported_center:
        Geographic centre of the reported node — what an application
        actually receives.
    real_leaf_id:
        Leaf containing the real location (never leaves the device; kept
        here for analysis and tests).
    subtree_root_id:
        Root of the sub-tree used as the obfuscation range.
    pruned_ids:
        Locations removed during customization.
    evaluation:
        Full preference-evaluation result (which predicates each pruned
        location failed, overflow handling, ...).
    precision_level:
        Level the reported node lives at.
    matrix / customized_matrix:
        The server matrix for the sub-tree and the matrix actually sampled
        from after pruning + precision reduction.
    """

    reported_node_id: str
    reported_center: LatLng
    real_leaf_id: str
    subtree_root_id: str
    pruned_ids: List[str]
    evaluation: PreferenceEvaluation
    precision_level: int
    matrix: ObfuscationMatrix
    customized_matrix: ObfuscationMatrix
    metadata: Dict[str, object] = field(default_factory=dict)


class CORGIClient:
    """User-side orchestration of the CORGI pipeline.

    Parameters
    ----------
    tree:
        The shared location tree (steps 2-3 of Figure 1: the server
        publishes it, the user uses it to express preferences).
    server:
        Where privacy forests come from: a provider (a coalescing
        :class:`~repro.service.service.CORGIService`, or any object with a
        compatible ``generate_privacy_forest``), a client transport
        (:class:`~repro.client.transport.InProcessTransport` /
        :class:`~repro.client.transport.HTTPTransport`), or an engine
        (:class:`~repro.server.engine.ForestEngine` /
        :class:`~repro.service.pool.EnginePool`).
        :func:`~repro.client.transport.as_forest_provider` wraps transports
        and engines into providers, so the client pipeline is identical
        in-process and over the wire.
    user_id / history:
        Optional identity and check-in history of the user; when provided,
        per-user attributes (home / office / outlier) are derived locally so
        preferences may refer to them.
    overflow_strategy:
        What to do when the preferences require pruning more than δ
        locations (Section 5.3).
    """

    def __init__(
        self,
        tree: LocationTree,
        server: object,
        *,
        user_id: Optional[str] = None,
        history: Optional[CheckInDataset] = None,
        overflow_strategy: DeltaOverflowStrategy = DeltaOverflowStrategy.FAVOR_PREFERENCES,
    ) -> None:
        self.tree = tree
        self.server = as_forest_provider(server)
        self.user_id = user_id
        self.history = history
        self.overflow_strategy = overflow_strategy
        self._user_attributes: Optional[Dict[str, Dict[str, object]]] = None

    # ------------------------------------------------------------------ #
    # Private attribute handling
    # ------------------------------------------------------------------ #

    def user_attributes(self) -> Optional[Mapping[str, Mapping[str, object]]]:
        """Per-leaf private attributes of the user (computed lazily, cached)."""
        if self.history is None or self.user_id is None:
            return None
        if self._user_attributes is None:
            extractor = LocationAttributeExtractor(self.tree, self.history)
            self._user_attributes = extractor.user_profile(self.user_id)
        return self._user_attributes

    # ------------------------------------------------------------------ #
    # Algorithm 4
    # ------------------------------------------------------------------ #

    def obfuscate(
        self,
        lat: float,
        lng: float,
        policy: Policy,
        *,
        seed: RandomState = None,
        epsilon: Optional[float] = None,
    ) -> ObfuscationOutcome:
        """Produce an obfuscated location report for the real position ``(lat, lng)``.

        Raises
        ------
        KeyError
            If the real location is outside the tree's area of interest.
        repro.policy.evaluation.DeltaOverflowError
            In strict overflow mode, when the preferences require pruning
            more locations than the policy's δ allows.
        """
        rng = as_rng(seed)
        real_leaf = self.tree.leaf_for_latlng(lat, lng)
        subtree_root = self.tree.ancestor_at_level(real_leaf.node_id, policy.privacy_level)

        # Step 2-3: evaluate preferences locally to find the prune set S.
        evaluation = evaluate_preferences(
            self.tree,
            subtree_root.node_id,
            policy,
            user_attributes=self.user_attributes(),
            real_location=(lat, lng),
            delta=policy.delta,
            overflow_strategy=self.overflow_strategy,
            protect_leaf_id=real_leaf.node_id,
        )
        delta = policy.delta if policy.delta is not None else evaluation.num_pruned

        # Step 4-5: ask the server for the privacy forest and pick our sub-tree.
        forest = self.server.generate_privacy_forest(
            policy.privacy_level, delta, epsilon=epsilon
        )
        matrix = forest.matrix_for_subtree(subtree_root.node_id)

        # Step 6: matrix pruning.
        customized = prune_matrix(matrix, evaluation.prune_ids)

        # Step 7: precision reduction to the requested granularity.
        if policy.precision_level > 0:
            customized = precision_reduction(customized, self.tree, policy.precision_level)

        # Step 8: sample from the row of the real location's ancestor.
        row_id = (
            ancestor_row_for(self.tree, customized, real_leaf.node_id)
            if policy.precision_level > 0
            else real_leaf.node_id
        )
        reported_id = customized.sample(row_id, seed=rng)
        reported_center = self.tree.node(reported_id).center

        logger.debug(
            "obfuscated (%.5f, %.5f) -> %s (pruned %d, precision level %d)",
            lat,
            lng,
            reported_id,
            len(evaluation.prune_ids),
            policy.precision_level,
        )
        return ObfuscationOutcome(
            reported_node_id=reported_id,
            reported_center=reported_center,
            real_leaf_id=real_leaf.node_id,
            subtree_root_id=subtree_root.node_id,
            pruned_ids=list(evaluation.prune_ids),
            evaluation=evaluation,
            precision_level=policy.precision_level,
            matrix=matrix,
            customized_matrix=customized,
            metadata={
                "delta": delta,
                "epsilon": forest.epsilon,
                "privacy_level": policy.privacy_level,
            },
        )

    def report_latlng(
        self,
        lat: float,
        lng: float,
        policy: Policy,
        *,
        seed: RandomState = None,
    ) -> Tuple[float, float]:
        """Convenience wrapper returning only the reported coordinates."""
        outcome = self.obfuscate(lat, lng, policy, seed=seed)
        return outcome.reported_center.as_tuple()
