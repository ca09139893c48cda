"""Perf trajectory for the matrix-generation pipeline.

Times three forest-generation regimes at small scale and records them in
``BENCH_pipeline.json`` (repo root) so future PRs can track the trend:

* **cold** — a fresh engine, every per-sub-tree problem generated from
  scratch (an LP the build repeats is served from the engine's LP cache;
  ``cold_forest_solves`` and ``lp_cache_stats`` record how many);
* **warm (matrix cache)** — forest-level cache dropped, per-sub-tree
  problems served from the content-addressed :class:`MatrixCache`;
* **warm (forest cache)** — the full forest served from the forest cache.

An LP-level microbenchmark separately compares rebuild-everything
constraint assembly (one fresh :class:`ObfuscationLP` per solve, the
seed's behaviour) against the incremental structure-reuse path.

A second microbenchmark (``lp_warm_start_s``) runs at the paper's
per-sub-tree scale — K=49 locations, graph-approximation constraints —
and times a fresh-LP-per-solve cold loop against a single warm
:class:`~repro.core.solver.SolverSession` absorbing every solve.  The
section records which backend actually ran (``highs-native`` where the
``repro[native]`` extra is installed, ``scipy`` otherwise), which
``ci_gate.py`` uses to decide whether the ≥5× native warm-start
improvement gate applies.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_pipeline.py -s

The test is additionally marked ``perf`` so marker-based selections can
exclude it; tier-1 (`python -m pytest`) never collects ``bench_*.py``
files in the first place.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.lp import ObfuscationLP
from repro.core.objective import QualityLossModel, TargetDistribution
from repro.core.solver import native_available
from repro.geometry.haversine import LatLng
from repro.core.graphapprox import HexNeighborhoodGraph
from repro.server.engine import ForestEngine, ServerConfig
from repro.tree.builder import tree_for_point

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_pipeline.json"

#: Small-scale workload: a 49-leaf tree, privacy level 1 → 7 sub-trees of 7
#: leaves, 3 robust iterations each (4 LP solves per sub-tree).
TREE_HEIGHT = 2
PRIVACY_LEVEL = 1
EPSILON = 2.0
DELTA = 1
ITERATIONS = 3


def _build_engine(**config_overrides) -> ForestEngine:
    tree = tree_for_point(LatLng(37.77, -122.42), height=TREE_HEIGHT, root_resolution=7)
    config = ServerConfig(
        epsilon=EPSILON,
        num_targets=10,
        robust_iterations=ITERATIONS,
        **config_overrides,
    )
    return ForestEngine(tree, config)


def _timed(func, *args, **kwargs):
    start = time.perf_counter()
    result = func(*args, **kwargs)
    return result, time.perf_counter() - start


@pytest.mark.perf
def test_perf_pipeline_speedups():
    engine = _build_engine()

    cold_forest, cold_s = _timed(
        engine.build_forest, PRIVACY_LEVEL, DELTA
    )
    assert cold_forest.is_complete()
    cold_misses = engine.matrix_cache.stats.misses
    # Solver calls of the cold build; LPs it repeats are LP-cache hits.
    cold_solves = engine.cache_diagnostics()["solver"]["solves"]

    # Warm path 1: forest cache dropped, per-sub-tree problems unchanged →
    # served from the matrix cache without a single LP solve.
    engine.forest_cache.clear()
    warm_matrix_forest, warm_matrix_s = _timed(
        engine.build_forest, PRIVACY_LEVEL, DELTA
    )
    assert engine.matrix_cache.stats.misses == cold_misses
    assert engine.matrix_cache.stats.hits >= len(warm_matrix_forest)

    # Warm path 2: full forest cache hit.
    warm_forest, warm_forest_s = _timed(
        engine.build_forest, PRIVACY_LEVEL, DELTA
    )
    assert warm_forest is warm_matrix_forest

    for root_id, matrix in warm_matrix_forest:
        assert np.allclose(matrix.values, cold_forest.matrix_for_subtree(root_id).values)

    # LP-level microbenchmark: rebuild-everything vs incremental refresh
    # across the t solves of Algorithm 1 (same problem, same budgets).
    leaves = engine.tree.descendant_leaves(
        engine.tree.nodes_at_level(PRIVACY_LEVEL)[0].node_id
    )
    node_ids = [leaf.node_id for leaf in leaves]
    centers = [leaf.center.as_tuple() for leaf in leaves]
    graph = HexNeighborhoodGraph(engine.tree.grid, [leaf.cell for leaf in leaves])
    distance_matrix = graph.euclidean_distance_matrix()
    constraint_set = graph.constraint_set()
    targets = TargetDistribution.sample_from_centers(centers, 10, seed=1)
    quality_model = QualityLossModel(centers, targets)
    solves = 8

    def lp_cold():
        for _ in range(solves):
            ObfuscationLP(
                node_ids,
                distance_matrix,
                quality_model,
                EPSILON,
                constraint_set=constraint_set,
            ).solve_nonrobust()

    def lp_incremental():
        lp = ObfuscationLP(
            node_ids,
            distance_matrix,
            quality_model,
            EPSILON,
            constraint_set=constraint_set,
        )
        for _ in range(solves):
            lp.solve_nonrobust()

    _, lp_cold_s = _timed(lp_cold)
    _, lp_incremental_s = _timed(lp_incremental)

    # Warm-start microbenchmark at paper per-sub-tree scale: K=49 locations
    # (NR_TARGET), graph-approximation constraints.  Cold = one fresh LP
    # (fresh structure, fresh session) per solve; warm = one ObfuscationLP
    # whose single SolverSession absorbs the whole solve sequence — on the
    # native backend every solve after the first re-starts dual simplex
    # from the retained optimal basis.
    all_leaves = engine.tree.leaves()
    warm_node_ids = [leaf.node_id for leaf in all_leaves]
    warm_centers = [leaf.center.as_tuple() for leaf in all_leaves]
    warm_graph = HexNeighborhoodGraph(engine.tree.grid, [leaf.cell for leaf in all_leaves])
    warm_distances = warm_graph.euclidean_distance_matrix()
    warm_constraints = warm_graph.constraint_set()
    warm_targets = TargetDistribution.sample_from_centers(warm_centers, 10, seed=2)
    warm_quality = QualityLossModel(warm_centers, warm_targets)
    warm_solves = 6

    def lp_warm_cold():
        for _ in range(warm_solves):
            ObfuscationLP(
                warm_node_ids,
                warm_distances,
                warm_quality,
                EPSILON,
                constraint_set=warm_constraints,
            ).solve_nonrobust()

    warm_lp = ObfuscationLP(
        warm_node_ids,
        warm_distances,
        warm_quality,
        EPSILON,
        constraint_set=warm_constraints,
    )

    def lp_warm():
        for _ in range(warm_solves):
            warm_lp.solve_nonrobust()

    _, lp_warm_cold_s = _timed(lp_warm_cold)
    _, lp_warm_s = _timed(lp_warm)
    warm_backend = warm_lp.session().backend

    payload = {
        "workload": {
            "tree_height": TREE_HEIGHT,
            "privacy_level": PRIVACY_LEVEL,
            "subtrees": len(cold_forest),
            "epsilon": EPSILON,
            "delta": DELTA,
            "robust_iterations": ITERATIONS,
            "lp_solves_in_microbench": solves,
        },
        "forest_generation_s": {
            "cold": cold_s,
            "warm_matrix_cache": warm_matrix_s,
            "warm_forest_cache": warm_forest_s,
        },
        "speedup_vs_cold": {
            "warm_matrix_cache": cold_s / warm_matrix_s if warm_matrix_s else float("inf"),
            "warm_forest_cache": cold_s / warm_forest_s if warm_forest_s else float("inf"),
        },
        "lp_incremental_s": {
            "rebuild_every_solve": lp_cold_s,
            "structure_reuse": lp_incremental_s,
            "speedup": lp_cold_s / lp_incremental_s if lp_incremental_s else float("inf"),
        },
        "lp_warm_start_s": {
            "num_locations": len(warm_node_ids),
            "solves": warm_solves,
            "backend": warm_backend,
            "native_available": native_available(),
            "rebuild_every_solve": lp_warm_cold_s,
            "warm": lp_warm_s,
            "speedup": lp_warm_cold_s / lp_warm_s if lp_warm_s else float("inf"),
        },
        "matrix_cache_stats": engine.matrix_cache.stats.as_dict(),
        "lp_cache_stats": engine.lp_cache.stats.as_dict(),
        "cold_forest_solves": cold_solves,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {RESULT_PATH}")
    print(json.dumps(payload["forest_generation_s"], indent=2))
    print(json.dumps(payload["speedup_vs_cold"], indent=2))
    print(json.dumps(payload["lp_warm_start_s"], indent=2))

    # Acceptance: warm forest generation is at least 2x faster than cold.
    assert payload["speedup_vs_cold"]["warm_matrix_cache"] >= 2.0
    assert payload["speedup_vs_cold"]["warm_forest_cache"] >= 2.0
    # Acceptance (native only): the warm-started native backend beats the
    # rebuild-every-solve loop by >= 5x at K=49.  The scipy fallback has no
    # warm path to measure, so there the section records the numbers and
    # the improvement gate in ci_gate.py skips with a note.
    if warm_backend == "highs-native":
        assert payload["lp_warm_start_s"]["speedup"] >= 5.0
