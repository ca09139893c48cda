"""Fig. 13 — impact of the obfuscation range (privacy level) on quality loss.

The paper compares two user choices on the 4-level San Francisco tree:
privacy level 3 with precision level 1 (343-leaf range) against privacy
level 2 with precision level 0 (49-leaf range), sweeping ε and δ.  The wider
range has a strictly higher quality loss for every parameter setting.

Because the 343-leaf LP is heavy, the small scale shifts both choices one
level down (49-leaf vs 7-leaf ranges) — the comparison ("wider obfuscation
range ⇒ higher quality loss, both decreasing in ε and increasing in δ") is
unchanged; see EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import ResultTable
from repro.core.lp import ConstraintStructure
from repro.core.precision import precision_reduction
from repro.core.robust import RobustMatrixGenerator
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import ExperimentWorkload, build_workload
from repro.utils.logging import get_logger

logger = get_logger(__name__)


@dataclass
class PrivacyLevelResult:
    """Quality-loss comparisons behind Fig. 13."""

    #: (privacy_level, precision_level, epsilon, delta) -> quality loss (km)
    losses: Dict[Tuple[int, int, float, int], float] = field(default_factory=dict)
    rows: List[Dict[str, object]] = field(default_factory=list)
    table: Optional[ResultTable] = None

    def loss_for(self, privacy_level: int, precision_level: int, epsilon: float, delta: int) -> float:
        """Lookup of one measured point."""
        return self.losses[(privacy_level, precision_level, float(epsilon), int(delta))]

    def wider_range_costs_more(self) -> bool:
        """Whether the higher privacy level has >= quality loss at every shared (ε, δ)."""
        levels = sorted({key[0] for key in self.losses}, reverse=True)
        if len(levels) < 2:
            return True
        high, low = levels[0], levels[1]
        for (privacy_level, _precision, epsilon, delta), loss in self.losses.items():
            if privacy_level != high:
                continue
            matches = [
                other_loss
                for (other_level, _p, other_eps, other_delta), other_loss in self.losses.items()
                if other_level == low and other_eps == epsilon and other_delta == delta
            ]
            if matches and loss + 1e-6 < matches[0]:
                return False
        return True


def run_privacy_level_experiment(
    config: ExperimentConfig,
    *,
    workload: Optional[ExperimentWorkload] = None,
    epsilons: Optional[Sequence[float]] = None,
    deltas: Optional[Sequence[int]] = None,
    choices: Optional[Sequence[Tuple[int, int]]] = None,
) -> PrivacyLevelResult:
    """Reproduce Fig. 13 (quality loss per privacy-level choice, vs ε and δ)."""
    workload = workload or build_workload(config)
    epsilons = list(epsilons) if epsilons is not None else list(config.epsilon_sweep)
    deltas = list(deltas) if deltas is not None else list(config.delta_sweep)
    choices = list(choices) if choices is not None else list(config.privacy_level_choices)

    result = PrivacyLevelResult()
    table = ResultTable(
        title="Fig. 13 - quality loss (km) per privacy-level choice",
        columns=["privacy_level", "precision_level", "epsilon_per_km", "delta", "loss_km"],
    )
    for privacy_level, precision_level in choices:
        location_set = workload.subtree_location_set(privacy_level=privacy_level)
        # One structural build per obfuscation range; every (ε, δ) point of
        # the sweep refreshes only the constraint coefficients.
        structure = ConstraintStructure(location_set.size, location_set.constraint_set)
        for epsilon in epsilons:
            for delta in deltas:
                generator = RobustMatrixGenerator(
                    location_set.node_ids,
                    location_set.distance_matrix_km,
                    location_set.quality_model,
                    epsilon,
                    delta,
                    constraint_set=location_set.constraint_set,
                    max_iterations=config.robust_iterations,
                    solver_method=config.solver_method,
                    structure=structure,
                )
                generation = generator.generate()
                matrix = generation.matrix
                # The quality loss is evaluated at the granularity actually
                # reported: reduce the matrix to the precision level first.
                if precision_level > 0:
                    reduced = precision_reduction(matrix, workload.tree, precision_level)
                    loss = _reduced_loss(workload, reduced)
                else:
                    loss = location_set.quality_model.expected_loss(matrix)
                key = (privacy_level, precision_level, float(epsilon), int(delta))
                result.losses[key] = float(loss)
                row = {
                    "privacy_level": privacy_level,
                    "precision_level": precision_level,
                    "epsilon_per_km": float(epsilon),
                    "delta": int(delta),
                    "loss_km": float(loss),
                }
                result.rows.append(row)
                table.add_row(**row)
                logger.info(
                    "privacy level %d/precision %d: epsilon=%.1f delta=%d loss=%.4f",
                    privacy_level,
                    precision_level,
                    epsilon,
                    delta,
                    loss,
                )
    result.table = table
    return result


def _reduced_loss(workload: ExperimentWorkload, reduced_matrix) -> float:
    """Expected quality loss of a precision-reduced matrix.

    The reduced matrix lives on intermediate tree nodes; its quality loss is
    computed against the same targets using the node centres and the nodes'
    aggregated priors (normalised within the reduced range).
    """
    from repro.core.objective import QualityLossModel

    node_ids = reduced_matrix.node_ids
    centers = [workload.tree.node(node_id).center.as_tuple() for node_id in node_ids]
    priors = [max(workload.tree.node(node_id).prior, 0.0) for node_id in node_ids]
    total = sum(priors)
    if total <= 0:
        priors = None
    else:
        priors = [p / total for p in priors]
    model = QualityLossModel(centers, workload.targets, priors)
    return model.expected_loss(reduced_matrix)
