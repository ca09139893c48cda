"""Fig. 11 — impact of the privacy parameter ε and the customization parameter δ.

For ε from 15 to 18 /km and δ from 1 to 3, the quality loss of CORGI's
robust matrix is compared against the non-robust baseline (δ = 0, the plain
Eq. 8 optimum).  Expected shape: loss decreases as ε grows (weaker
constraints), increases with δ (more budget reserved), and CORGI's loss is
always at least the non-robust loss for the same ε — the price of
robustness.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import ResultTable
from repro.baselines.nonrobust import NonRobustLPMechanism
from repro.core.lp import ConstraintStructure
from repro.core.robust import RobustMatrixGenerator
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import ExperimentWorkload, LocationSet, build_workload
from repro.pipeline.executor import PreparedProblem, RobustGenerationTask, run_robust_tasks
from repro.utils.logging import get_logger

logger = get_logger(__name__)


@dataclass
class PrivacyParamsResult:
    """Quality-loss measurements behind Fig. 11."""

    rows: List[Dict[str, float]] = field(default_factory=list)
    #: (epsilon, delta) -> CORGI quality loss (km)
    corgi_loss: Dict[Tuple[float, int], float] = field(default_factory=dict)
    #: epsilon -> non-robust quality loss (km)
    nonrobust_loss: Dict[float, float] = field(default_factory=dict)
    table: Optional[ResultTable] = None

    def loss_decreases_with_epsilon(self, delta: int) -> bool:
        """Whether CORGI's loss is non-increasing along the ε sweep for a given δ."""
        epsilons = sorted({eps for eps, d in self.corgi_loss if d == delta})
        losses = [self.corgi_loss[(eps, delta)] for eps in epsilons]
        return all(losses[i + 1] <= losses[i] + 1e-6 for i in range(len(losses) - 1))

    def corgi_never_below_nonrobust(self) -> bool:
        """Whether CORGI's loss is always >= the non-robust loss at the same ε."""
        for (eps, _delta), loss in self.corgi_loss.items():
            if loss + 1e-6 < self.nonrobust_loss.get(eps, 0.0):
                return False
        return True


def run_privacy_params_experiment(
    config: ExperimentConfig,
    *,
    workload: Optional[ExperimentWorkload] = None,
    epsilons: Optional[Sequence[float]] = None,
    deltas: Optional[Sequence[int]] = None,
    location_set: Optional[LocationSet] = None,
) -> PrivacyParamsResult:
    """Reproduce Fig. 11 (quality loss vs ε and δ, CORGI vs non-robust)."""
    workload = workload or build_workload(config)
    epsilons = list(epsilons) if epsilons is not None else list(config.epsilon_sweep)
    deltas = list(deltas) if deltas is not None else list(config.delta_sweep)
    location_set = location_set or workload.subtree_location_set()

    result = PrivacyParamsResult()
    table = ResultTable(
        title="Fig. 11 - quality loss (estimation error, km) vs epsilon and delta",
        columns=["epsilon_per_km", "delta", "corgi_loss_km", "nonrobust_loss_km"],
    )
    # The whole sweep runs over one location set, so the sparse constraint
    # pattern is built once and every LP (baseline and robust, every ε and δ)
    # refreshes only the e^{ε_eff d} coefficients.
    structure = ConstraintStructure(location_set.size, location_set.constraint_set)
    for epsilon in epsilons:
        baseline = NonRobustLPMechanism(
            location_set.node_ids,
            location_set.distance_matrix_km,
            location_set.quality_model,
            epsilon,
            constraint_set=location_set.constraint_set,
            solver_method=config.solver_method,
            structure=structure,
        )
        nonrobust_loss = location_set.quality_model.expected_loss(baseline.matrix)
        result.nonrobust_loss[float(epsilon)] = float(nonrobust_loss)

    sweep = [(float(epsilon), int(delta)) for epsilon in epsilons for delta in deltas]
    generations = _generate_sweep(config, location_set, sweep, structure)
    for (epsilon, delta), generation in zip(sweep, generations):
        corgi_loss = location_set.quality_model.expected_loss(generation.matrix)
        result.corgi_loss[(epsilon, delta)] = float(corgi_loss)
        row = {
            "epsilon_per_km": epsilon,
            "delta": delta,
            "corgi_loss_km": float(corgi_loss),
            "nonrobust_loss_km": result.nonrobust_loss[epsilon],
        }
        result.rows.append(row)
        table.add_row(**row)
        logger.info(
            "privacy params: epsilon=%.1f delta=%d corgi=%.4f nonrobust=%.4f",
            epsilon,
            delta,
            corgi_loss,
            result.nonrobust_loss[epsilon],
        )
    result.table = table
    return result


def _generate_sweep(
    config: ExperimentConfig,
    location_set: LocationSet,
    sweep: Sequence[Tuple[float, int]],
    structure: ConstraintStructure,
):
    """Robust generations for every (ε, δ) point, in sweep order.

    With ``config.max_workers > 1`` the independent points fan out across
    worker processes through the pipeline executor; otherwise they run
    serially, sharing the pre-built constraint structure.
    """
    if config.max_workers > 1:
        problem = PreparedProblem(
            location_set.node_ids,
            location_set.distance_matrix_km,
            location_set.quality_model,
            location_set.constraint_set,
        )
        tasks = [
            RobustGenerationTask(
                key=f"eps={epsilon}:delta={delta}",
                problem=problem,
                epsilon=epsilon,
                delta=delta,
                max_iterations=config.robust_iterations,
                solver_method=config.solver_method,
            )
            for epsilon, delta in sweep
        ]
        return run_robust_tasks(tasks, max_workers=config.max_workers)
    return [
        RobustMatrixGenerator(
            location_set.node_ids,
            location_set.distance_matrix_km,
            location_set.quality_model,
            epsilon,
            delta,
            constraint_set=location_set.constraint_set,
            max_iterations=config.robust_iterations,
            solver_method=config.solver_method,
            structure=structure,
        ).generate()
        for epsilon, delta in sweep
    ]
