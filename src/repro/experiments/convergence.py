"""Fig. 9 — convergence of Algorithm 1's objective value.

The paper runs the robust matrix generation with δ = 2 and δ = 4 on a
49-location range (ε = 15 /km, 49 targets, Gowalla priors) and plots the
quality loss after every iteration (Fig. 9(a)(b)) and the difference between
consecutive iterations (Fig. 9(c)(d)), showing convergence within ~4
iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.analysis.tables import ResultTable
from repro.core.robust import RobustMatrixGenerator
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import ExperimentWorkload, build_workload
from repro.utils.logging import get_logger

logger = get_logger(__name__)


@dataclass
class ConvergenceResult:
    """Convergence traces per δ value."""

    epsilon: float
    histories: Dict[int, List[float]] = field(default_factory=dict)
    differences: Dict[int, List[float]] = field(default_factory=dict)
    iterations_to_converge: Dict[int, int] = field(default_factory=dict)
    table: Optional[ResultTable] = None


def run_convergence_experiment(
    config: ExperimentConfig,
    *,
    deltas: Optional[Sequence[int]] = None,
    workload: Optional[ExperimentWorkload] = None,
    convergence_tol: float = 0.05,
    max_iterations: Optional[int] = None,
) -> ConvergenceResult:
    """Reproduce Fig. 9.

    Parameters
    ----------
    config:
        Experiment configuration (scale).
    deltas:
        δ values to trace (paper: 2 and 4).
    workload:
        Optional pre-built workload (reused across experiments by the runner).
    convergence_tol:
        Threshold (km) on the consecutive objective difference used to report
        the "converged by iteration N" summary.
    max_iterations:
        Override of the number of Algorithm-1 iterations to trace.
    """
    deltas = list(deltas) if deltas is not None else [2, 4]
    workload = workload or build_workload(config)
    iterations = max_iterations if max_iterations is not None else max(config.robust_iterations, 4)
    location_set = workload.subtree_location_set()

    result = ConvergenceResult(epsilon=config.epsilon)
    table = ResultTable(
        title="Fig. 9 - convergence of the robust objective (estimation error, km)",
        columns=["delta", "iteration", "objective_km", "difference_km"],
    )
    for delta in deltas:
        generator = RobustMatrixGenerator(
            location_set.node_ids,
            location_set.distance_matrix_km,
            location_set.quality_model,
            config.epsilon,
            delta,
            constraint_set=location_set.constraint_set,
            max_iterations=iterations,
        )
        generation = generator.generate()
        history = generation.objective_history
        differences = generation.objective_differences
        result.histories[delta] = history
        result.differences[delta] = differences
        result.iterations_to_converge[delta] = _iterations_to_converge(differences, convergence_tol)
        for iteration, objective in enumerate(history):
            difference = differences[iteration - 1] if iteration > 0 else 0.0
            table.add_row(
                delta=delta,
                iteration=iteration,
                objective_km=float(objective),
                difference_km=float(difference),
            )
        logger.info(
            "convergence: delta=%d converged after %d iterations (history %s)",
            delta,
            result.iterations_to_converge[delta],
            [round(v, 3) for v in history],
        )
    result.table = table
    return result


def _iterations_to_converge(differences: List[float], tolerance: float) -> int:
    """First iteration index after which every consecutive difference stays below tolerance."""
    if not differences:
        return 0
    for index in range(len(differences)):
        if all(abs(d) <= tolerance for d in differences[index:]):
            return index + 1
    return len(differences)
