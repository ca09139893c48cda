"""Fig. 10 — efficacy of the graph approximation.

(a) running time of the robust matrix generation with and without the graph
    approximation, as δ grows (paper: 92.34 % average reduction);
(b) number of Geo-Ind constraints with and without the approximation as the
    number of locations grows from 7 to 49 (paper: 54.58 % average
    reduction).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.analysis.tables import ResultTable, percentage_reduction
from repro.core.geoind import all_pairs_constraints, count_constraints
from repro.core.robust import RobustMatrixGenerator
from repro.experiments.config import ExperimentConfig
from repro.experiments.workloads import ExperimentWorkload, build_workload
from repro.utils.logging import get_logger

logger = get_logger(__name__)


@dataclass
class GraphApproxResult:
    """Measurements behind Fig. 10."""

    runtime_rows: List[Dict[str, float]] = field(default_factory=list)
    constraint_rows: List[Dict[str, float]] = field(default_factory=list)
    mean_runtime_reduction_pct: float = 0.0
    mean_constraint_reduction_pct: float = 0.0
    runtime_table: Optional[ResultTable] = None
    constraint_table: Optional[ResultTable] = None


def run_constraint_count_experiment(
    config: ExperimentConfig,
    *,
    workload: Optional[ExperimentWorkload] = None,
    location_counts: Optional[Sequence[int]] = None,
) -> GraphApproxResult:
    """Fig. 10(b): number of Geo-Ind constraints with and without graph approximation."""
    workload = workload or build_workload(config)
    location_counts = list(location_counts) if location_counts is not None else list(config.location_counts)
    result = GraphApproxResult()
    table = ResultTable(
        title="Fig. 10(b) - number of Geo-Ind constraints",
        columns=["num_locations", "without_graph_approx", "with_graph_approx", "reduction_pct"],
    )
    reductions = []
    for count in location_counts:
        location_set = workload.connected_location_set(count)
        full = count_constraints(count, all_pairs_constraints(location_set.distance_matrix_km))
        approx = count_constraints(count, location_set.constraint_set)
        reduction = percentage_reduction(full, approx)
        reductions.append(reduction)
        row = {
            "num_locations": count,
            "without_graph_approx": full,
            "with_graph_approx": approx,
            "reduction_pct": reduction,
        }
        result.constraint_rows.append(row)
        table.add_row(**row)
    result.mean_constraint_reduction_pct = float(np.mean(reductions)) if reductions else 0.0
    result.constraint_table = table
    return result


def run_runtime_experiment(
    config: ExperimentConfig,
    *,
    workload: Optional[ExperimentWorkload] = None,
    deltas: Optional[Sequence[int]] = None,
    num_locations: Optional[int] = None,
    iterations: Optional[int] = None,
) -> GraphApproxResult:
    """Fig. 10(a): running time with vs without the graph approximation.

    The "without" arm keeps the same robust generation but enforces the full
    all-pairs constraint set, which is what makes it slow — exactly the
    comparison of the paper.  At the small scale the location count defaults
    to 28 (instead of 49) so the all-pairs LP stays below a minute per solve.
    """
    workload = workload or build_workload(config)
    if deltas is not None:
        deltas = list(deltas)
    else:
        deltas = [1, 3, 5] if config.name == "small" else [1, 2, 3, 4, 5, 6, 7]
    if num_locations is None:
        num_locations = 28 if config.name == "small" else 49
    if iterations is None:
        iterations = 2 if config.name == "small" else config.robust_iterations
    location_set = workload.connected_location_set(num_locations)
    all_pairs = all_pairs_constraints(location_set.distance_matrix_km)

    result = GraphApproxResult()
    table = ResultTable(
        title=f"Fig. 10(a) - running time of robust matrix generation (K={num_locations})",
        columns=["delta", "without_graph_approx_s", "with_graph_approx_s", "reduction_pct"],
    )
    reductions = []
    for delta in deltas:
        timings: Dict[str, float] = {}
        for label, constraint_set in (("with", location_set.constraint_set), ("without", all_pairs)):
            generator = RobustMatrixGenerator(
                location_set.node_ids,
                location_set.distance_matrix_km,
                location_set.quality_model,
                config.epsilon,
                delta,
                constraint_set=constraint_set,
                max_iterations=iterations,
            )
            generation = generator.generate()
            timings[label] = float(sum(generation.solve_times_s))
        reduction = percentage_reduction(timings["without"], timings["with"])
        reductions.append(reduction)
        row = {
            "delta": delta,
            "without_graph_approx_s": timings["without"],
            "with_graph_approx_s": timings["with"],
            "reduction_pct": reduction,
        }
        result.runtime_rows.append(row)
        table.add_row(**row)
        logger.info(
            "graph approximation runtime: delta=%d %.2fs -> %.2fs (%.1f%% reduction)",
            delta,
            timings["without"],
            timings["with"],
            reduction,
        )
    result.mean_runtime_reduction_pct = float(np.mean(reductions)) if reductions else 0.0
    result.runtime_table = table
    return result


def run_graph_approx_experiment(
    config: ExperimentConfig,
    *,
    workload: Optional[ExperimentWorkload] = None,
    include_runtime: bool = True,
) -> GraphApproxResult:
    """Run both halves of Fig. 10 and merge the results."""
    workload = workload or build_workload(config)
    counts = run_constraint_count_experiment(config, workload=workload)
    if not include_runtime:
        return counts
    runtimes = run_runtime_experiment(config, workload=workload)
    counts.runtime_rows = runtimes.runtime_rows
    counts.mean_runtime_reduction_pct = runtimes.mean_runtime_reduction_pct
    counts.runtime_table = runtimes.runtime_table
    return counts
