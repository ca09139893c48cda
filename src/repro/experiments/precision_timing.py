"""Fig. 14 — precision reduction vs matrix recalculation running time.

When the user asks for a coarser precision level, CORGI reduces the
leaf-level matrix (Algorithm 2) instead of recalculating a fresh matrix with
the LP pipeline.  The paper reports the reduction to be many orders of
magnitude faster (on average 0.000073 % of the recalculation time), sweeping
the number of locations from 28 to 70 and δ from 1 to 7.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.analysis.tables import ResultTable, ratio
from repro.core.precision import precision_reduction
from repro.core.robust import RobustMatrixGenerator
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import ExperimentWorkload, LocationSet, build_workload
from repro.utils.logging import get_logger
from repro.utils.timing import time_call

logger = get_logger(__name__)


@dataclass
class PrecisionTimingResult:
    """Timing comparisons behind Fig. 14."""

    rows: List[Dict[str, object]] = field(default_factory=list)
    #: mean of (precision reduction time / recalculation time)
    mean_time_ratio: float = 0.0
    table: Optional[ResultTable] = None

    def reduction_always_faster(self) -> bool:
        """Whether precision reduction beat recalculation in every measured row."""
        return all(row["precision_reduction_s"] < row["recalculation_s"] for row in self.rows)


def _recalculation_time(
    config: ExperimentConfig,
    location_set: LocationSet,
    delta: int,
    iterations: int,
) -> Tuple[float, object]:
    """Time of regenerating the robust matrix from scratch (the expensive path)."""
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
    return float(sum(generation.solve_times_s)), generation.matrix


def run_precision_timing_experiment(
    config: ExperimentConfig,
    *,
    workload: Optional[ExperimentWorkload] = None,
    location_counts: Optional[Sequence[int]] = None,
    deltas: Optional[Sequence[int]] = None,
    precision_level: int = 1,
    reduction_repeats: int = 5,
) -> PrecisionTimingResult:
    """Reproduce Fig. 14 (both panels: sweep over location count and over δ)."""
    workload = workload or build_workload(config)
    if location_counts is None:
        location_counts = (
            [28, 49, 70] if config.name == "small" else list(config.precision_location_counts)
        )
    if deltas is None:
        deltas = [1, 4, 7] if config.name == "small" else [1, 2, 3, 4, 5, 6, 7]
    iterations = 2 if config.name == "small" else config.robust_iterations

    result = PrecisionTimingResult()
    table = ResultTable(
        title="Fig. 14 - precision reduction vs matrix recalculation (seconds)",
        columns=["sweep", "num_locations", "delta", "recalculation_s", "precision_reduction_s", "speedup_x"],
    )
    ratios: List[float] = []

    def record(sweep: str, location_set: LocationSet, delta: int) -> None:
        recalculation_s, matrix = _recalculation_time(config, location_set, delta, iterations)
        _, reduction_s = time_call(
            precision_reduction, matrix, workload.tree, precision_level, repeats=reduction_repeats
        )
        speedup = ratio(recalculation_s, reduction_s)
        ratios.append(reduction_s / recalculation_s if recalculation_s > 0 else 0.0)
        row = {
            "sweep": sweep,
            "num_locations": location_set.size,
            "delta": delta,
            "recalculation_s": recalculation_s,
            "precision_reduction_s": reduction_s,
            "speedup_x": speedup,
        }
        result.rows.append(row)
        table.add_row(**row)
        logger.info(
            "precision timing (%s): K=%d delta=%d recalculation=%.3fs reduction=%.6fs",
            sweep,
            location_set.size,
            delta,
            recalculation_s,
            reduction_s,
        )

    # Fig. 14(a): sweep the number of locations at the default delta.
    for count in location_counts:
        location_set = workload.connected_location_set(count)
        record("locations", location_set, config.delta)

    # Fig. 14(b): sweep delta at a fixed location count (the paper uses 49).
    fixed_count = 49 if 49 <= len(workload.tree.leaves()) else location_counts[-1]
    fixed_set = workload.connected_location_set(fixed_count)
    for delta in deltas:
        record("delta", fixed_set, delta)

    result.mean_time_ratio = float(sum(ratios) / len(ratios)) if ratios else 0.0
    result.table = table
    return result
