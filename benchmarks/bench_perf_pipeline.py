"""Perf trajectory for the matrix-generation pipeline.

Times two forest-generation regimes at small scale and records them in
``BENCH_pipeline.json`` (repo root) so future PRs can track the trend:

* **cold** — a fresh engine, every per-sub-tree problem generated from
  scratch (an LP the build repeats is served from the engine's LP cache;
  ``cold_forest_solves`` and ``lp_cache_stats`` record how many);
* **warm (forest cache)** — the full forest served from the forest cache.

An LP-level microbenchmark separately compares rebuild-everything
constraint assembly (one fresh :class:`ObfuscationLP` per solve, the
seed's behaviour) against the incremental structure-reuse path.

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

import pytest

from repro.core.lp import ObfuscationLP
from repro.core.objective import QualityLossModel, TargetDistribution
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
    # Solver calls of the cold build; LPs it repeats are LP-cache hits.
    cold_solves = engine.cache_diagnostics()["solver"]["solves"]

    # Warm path: full forest cache hit.
    warm_forest, warm_forest_s = _timed(
        engine.build_forest, PRIVACY_LEVEL, DELTA
    )
    assert warm_forest is cold_forest

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
            "warm_forest_cache": warm_forest_s,
        },
        "speedup_vs_cold": {
            "warm_forest_cache": cold_s / warm_forest_s if warm_forest_s else float("inf"),
        },
        "lp_incremental_s": {
            "rebuild_every_solve": lp_cold_s,
            "structure_reuse": lp_incremental_s,
            "speedup": lp_cold_s / lp_incremental_s if lp_incremental_s else float("inf"),
        },
        "lp_cache_stats": engine.lp_cache.stats.as_dict(),
        "cold_forest_solves": cold_solves,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {RESULT_PATH}")
    print(json.dumps(payload["forest_generation_s"], indent=2))
    print(json.dumps(payload["speedup_vs_cold"], indent=2))

    # Acceptance: warm forest generation is at least 2x faster than cold.
    assert payload["speedup_vs_cold"]["warm_forest_cache"] >= 2.0
