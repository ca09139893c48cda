"""Fig. 12 — impact of pruning locations on Geo-Ind violations.

The paper's central robustness claim: prune ``n`` random locations
(n = 1..10) from the customized matrix and count the percentage of violated
ε-Geo-Ind constraints, comparing CORGI matrices generated with δ = 3 and
δ = 5 against the non-robust baseline, on obfuscation ranges of 49 and 70
locations.  The headline numbers ("pruning 14.28 % of locations causes
3.07 % violations for CORGI vs 18.58 % for non-robust") correspond to
pruning 7 of 49 locations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import ResultTable
from repro.analysis.violations import pruning_violation_stats
from repro.baselines.nonrobust import NonRobustLPMechanism
from repro.core.matrix import ObfuscationMatrix
from repro.core.robust import RobustMatrixGenerator
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import ExperimentWorkload, LocationSet, build_workload
from repro.utils.logging import get_logger

logger = get_logger(__name__)


@dataclass
class PruningImpactResult:
    """Violation percentages behind Fig. 12.

    ``curves`` maps ``(num_locations, mechanism_label)`` to a mapping from
    the number of pruned locations to the mean violation percentage.
    """

    rows: List[Dict[str, object]] = field(default_factory=list)
    curves: Dict[Tuple[int, str], Dict[int, float]] = field(default_factory=dict)
    headline: Dict[str, float] = field(default_factory=dict)
    table: Optional[ResultTable] = None

    def mean_violation(self, num_locations: int, label: str, num_pruned: int) -> float:
        """Mean violation percentage for one curve point."""
        return self.curves[(num_locations, label)][num_pruned]

    def corgi_always_below_nonrobust(self) -> bool:
        """Whether every CORGI point sits at or below the non-robust curve."""
        for (num_locations, label), curve in self.curves.items():
            if label == "non-robust":
                continue
            baseline = self.curves.get((num_locations, "non-robust"), {})
            for num_pruned, value in curve.items():
                if num_pruned in baseline and value > baseline[num_pruned] + 1e-9:
                    return False
        return True


def _generate_matrices(
    config: ExperimentConfig,
    location_set: LocationSet,
    deltas: Sequence[int],
) -> Dict[str, ObfuscationMatrix]:
    """One non-robust matrix plus one CORGI matrix per δ."""
    matrices: Dict[str, ObfuscationMatrix] = {}
    baseline = NonRobustLPMechanism(
        location_set.node_ids,
        location_set.distance_matrix_km,
        location_set.quality_model,
        config.epsilon,
        constraint_set=location_set.constraint_set,
        solver_method=config.solver_method,
    )
    matrices["non-robust"] = baseline.matrix
    for delta in deltas:
        generator = RobustMatrixGenerator(
            location_set.node_ids,
            location_set.distance_matrix_km,
            location_set.quality_model,
            config.epsilon,
            delta,
            constraint_set=location_set.constraint_set,
            max_iterations=config.robust_iterations,
        )
        matrices[f"CORGI(delta={delta})"] = generator.generate().matrix
    return matrices


def run_pruning_impact_experiment(
    config: ExperimentConfig,
    *,
    workload: Optional[ExperimentWorkload] = None,
    deltas: Optional[Sequence[int]] = None,
    location_counts: Optional[Sequence[int]] = None,
    pruned_counts: Optional[Sequence[int]] = None,
    trials: Optional[int] = None,
) -> PruningImpactResult:
    """Reproduce Fig. 12 (and the headline 14.28 % → 3 % vs 18.6 % comparison)."""
    workload = workload or build_workload(config)
    deltas = list(deltas) if deltas is not None else [3, 5]
    location_counts = list(location_counts) if location_counts is not None else [49, 70]
    pruned_counts = list(pruned_counts) if pruned_counts is not None else list(config.pruned_counts)
    trials = trials if trials is not None else config.pruning_trials

    result = PruningImpactResult()
    table = ResultTable(
        title="Fig. 12 - % of violated Geo-Ind constraints vs number of pruned locations",
        columns=["num_locations", "mechanism", "num_pruned", "violation_pct_mean", "violation_pct_max"],
    )
    for num_locations in location_counts:
        location_set = workload.connected_location_set(num_locations)
        matrices = _generate_matrices(config, location_set, deltas)
        for label, matrix in matrices.items():
            curve: Dict[int, float] = {}
            for num_pruned in pruned_counts:
                if num_pruned >= location_set.size:
                    continue
                stats = pruning_violation_stats(
                    matrix,
                    location_set.distance_matrix_km,
                    config.epsilon,
                    num_pruned,
                    trials=trials,
                    seed=config.seed + num_pruned,
                    constraint_set=location_set.constraint_set,
                )
                curve[num_pruned] = stats.mean_violation_pct
                row = {
                    "num_locations": num_locations,
                    "mechanism": label,
                    "num_pruned": num_pruned,
                    "violation_pct_mean": stats.mean_violation_pct,
                    "violation_pct_max": stats.max_violation_pct,
                }
                result.rows.append(row)
                table.add_row(**row)
            result.curves[(num_locations, label)] = curve
            logger.info("pruning impact: K=%d %s -> %s", num_locations, label,
                        {k: round(v, 2) for k, v in curve.items()})

    # Headline comparison: pruning 7 of 49 locations (14.28 %).
    headline_key_corgi = (49, f"CORGI(delta={deltas[0]})")
    headline_key_nonrobust = (49, "non-robust")
    if headline_key_corgi in result.curves and 7 in result.curves[headline_key_corgi]:
        result.headline = {
            "pruned_fraction_pct": 100.0 * 7 / 49,
            "corgi_violation_pct": result.curves[headline_key_corgi][7],
            "nonrobust_violation_pct": result.curves[headline_key_nonrobust].get(7, float("nan")),
            "paper_corgi_violation_pct": 3.07,
            "paper_nonrobust_violation_pct": 18.58,
        }
    result.table = table
    return result
