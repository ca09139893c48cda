"""Tests for the matrix-generation pipeline.

Covers the incremental constraint-structure reuse in the LP layer, the
content-addressed MatrixCache (hit/miss, eviction, fingerprint
sensitivity), the process-parallel executor (parallel == serial), the
server's full-configuration cache keys (no stale forests after a config
change), the engine's serial build path (every LP solved on the request
thread), the engine's LP solution cache (cached forests equal uncached
ones byte for byte, and every solve a cache miss), the engine's prepared
levels (one preparation per level and engine state) and the vectorised exact
reserved-privacy-budget path (bit-identical to the original
subset-enumeration loop).
"""

import concurrent.futures
import copy
import functools
import itertools
import logging
import math
import threading

import numpy as np
import pytest

from repro.core.lp import ConstraintStructure, ObfuscationLP
from repro.core.objective import LinearQualityModel, TargetDistribution
from repro.core.robust import (
    RobustMatrixGenerator,
    _MASS_CEILING,
    reserved_privacy_budget_exact,
)
from repro.core.solver import SolverSession
from repro.pipeline import executor as executor_module
from repro.pipeline.cache import MatrixCache
from repro.pipeline.executor import (
    PreparedProblem,
    RobustGenerationTask,
    run_robust_task_groups,
    run_robust_tasks,
)
from repro.pipeline.fingerprint import array_digest, fingerprint_fields
from repro.server import engine as engine_module
from repro.server.engine import ForestEngine, ServerConfig
from repro.service.pool import EnginePool
from repro.tree.priors import priors_from_checkins

from tests.conftest import TEST_EPSILON


def _fresh_lp(small_location_set, epsilon=TEST_EPSILON, **kwargs):
    return ObfuscationLP(
        small_location_set["node_ids"],
        small_location_set["distance_matrix"],
        small_location_set["quality_model"],
        epsilon,
        constraint_set=small_location_set["graph"].constraint_set(),
        **kwargs,
    )


class TestConstraintStructure:
    def test_refreshed_matrix_matches_cold_assembly(self, small_location_set):
        """The in-place coefficient refresh reproduces a from-scratch A_ub exactly."""
        lp = _fresh_lp(small_location_set)
        budget = np.full((7, 7), 0.3)
        np.fill_diagonal(budget, 0.0)
        refreshed = lp.build_inequalities(budget).toarray()

        # Reference: the seed's one-shot COO assembly.
        size = lp.size
        pairs = lp.constraint_set.pairs
        num_pairs = pairs.shape[0]
        factors = np.exp(lp.effective_epsilons(budget) * lp.constraint_set.distances_km)
        columns = np.tile(np.arange(size), num_pairs)
        rows = np.arange(num_pairs * size)
        i_vars = np.repeat(pairs[:, 0], size) * size + columns
        j_vars = np.repeat(pairs[:, 1], size) * size + columns
        reference = np.zeros((num_pairs * size, size * size))
        reference[rows, i_vars] = 1.0
        reference[rows, j_vars] = -np.repeat(factors, size)
        assert np.array_equal(refreshed, reference)

    def test_incremental_resolve_equals_cold_solve(self, small_location_set):
        """Re-solving through one LP instance equals a cold LP per solve."""
        budgets = [None, np.full((7, 7), 0.2), np.full((7, 7), 0.5)]
        for budget in budgets:
            if budget is not None:
                np.fill_diagonal(budget, 0.0)

        incremental_lp = _fresh_lp(small_location_set)
        for budget in budgets:
            cold = _fresh_lp(small_location_set).solve(reserved_budget=budget)
            warm = incremental_lp.solve(reserved_budget=budget)
            assert warm.status == cold.status == "optimal"
            assert warm.objective_value == pytest.approx(cold.objective_value, abs=1e-12)
            assert np.allclose(warm.matrix.values, cold.matrix.values, atol=1e-12)
        assert incremental_lp.structure.refresh_count == len(budgets)

    def test_structure_shared_across_epsilons(self, small_location_set):
        structure = ConstraintStructure(7, small_location_set["graph"].constraint_set())
        for epsilon in (1.0, 2.0, 4.0):
            shared = _fresh_lp(small_location_set, epsilon=epsilon, structure=structure)
            cold = _fresh_lp(small_location_set, epsilon=epsilon)
            warm_solution = shared.solve_nonrobust()
            cold_solution = cold.solve_nonrobust()
            assert np.allclose(
                warm_solution.matrix.values, cold_solution.matrix.values, atol=1e-12
            )
            assert warm_solution.diagnostics["structure_shared"] is True

    def test_incompatible_structure_rejected(self, small_location_set):
        wrong = ConstraintStructure(
            7,
            small_location_set["graph"].constraint_set(),
        )
        # Same size but different pairs: drop one pair.
        constraints = small_location_set["graph"].constraint_set()
        trimmed = type(constraints)(
            pairs=constraints.pairs[:-2],
            distances_km=constraints.distances_km[:-2],
            description="trimmed",
        )
        with pytest.raises(ValueError):
            ObfuscationLP(
                small_location_set["node_ids"],
                small_location_set["distance_matrix"],
                small_location_set["quality_model"],
                TEST_EPSILON,
                constraint_set=trimmed,
                structure=wrong,
            )

    def test_diagnostics_report_reuse(self, small_location_set):
        lp = _fresh_lp(small_location_set)
        first = lp.solve_nonrobust()
        second = lp.solve_nonrobust()
        assert first.diagnostics["structure_reused"] is False
        assert second.diagnostics["structure_reused"] is True
        assert second.diagnostics["structure_refresh_count"] == 2
        assert first.diagnostics["matrix_build_time_s"] >= 0.0

    def test_generator_reuses_structure_across_iterations(self, small_location_set):
        generator = RobustMatrixGenerator(
            small_location_set["node_ids"],
            small_location_set["distance_matrix"],
            small_location_set["quality_model"],
            TEST_EPSILON,
            delta=1,
            constraint_set=small_location_set["graph"].constraint_set(),
            max_iterations=3,
        )
        result = generator.generate()
        # Non-robust solve + 3 robust iterations over one shared structure.
        assert generator.lp.structure.refresh_count == 4
        assert result.solutions[-1].diagnostics["structure_reused"] is True


class TestFingerprints:
    def test_fingerprint_stable(self):
        a = fingerprint_fields(epsilon=2.0, delta=1, name="x")
        b = fingerprint_fields(delta=1, epsilon=2.0, name="x")
        assert a == b

    def test_fingerprint_rejects_unknown_types(self):
        with pytest.raises(TypeError):
            fingerprint_fields(value=object())

    def test_array_digest_sensitive_to_dtype_and_shape(self):
        data = np.arange(6, dtype=float)
        assert array_digest(data) != array_digest(data.astype(np.float32))
        assert array_digest(data) != array_digest(data.reshape(2, 3))


class TestMatrixCache:
    def test_hit_miss_statistics(self):
        cache = MatrixCache(max_entries=4)
        assert cache.get("missing") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        assert cache.stats.hits == 1
        assert cache.stats.misses == 1
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_get_or_compute(self):
        cache = MatrixCache(max_entries=4)
        calls = []

        def factory():
            calls.append(1)
            return "value"

        assert cache.get_or_compute("k", factory) == "value"
        assert cache.get_or_compute("k", factory) == "value"
        assert len(calls) == 1
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_lru_eviction(self):
        cache = MatrixCache(max_entries=2)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh recency of "a"
        cache.put("c", 3)  # evicts "b"
        assert "b" not in cache
        assert "a" in cache and "c" in cache
        assert cache.stats.evictions == 1

    def test_pop_is_not_an_eviction(self):
        cache = MatrixCache(max_entries=2)
        cache.put("a", 1)
        cache.pop("a")
        cache.pop("missing")  # absent keys are a no-op
        assert "a" not in cache
        assert cache.stats.evictions == 0

    def test_zero_entries_disables_storage(self):
        cache = MatrixCache(max_entries=0)
        cache.put("a", 1)
        assert len(cache) == 0
        assert cache.get("a") is None

    def test_clear_and_reset(self):
        cache = MatrixCache(max_entries=2)
        cache.put("a", 1)
        cache.get("a")
        cache.clear()
        assert len(cache) == 0
        assert cache.stats.hits == 1
        cache.reset_stats()
        assert cache.stats.lookups == 0

    def test_negative_bound_rejected(self):
        with pytest.raises(ValueError):
            MatrixCache(max_entries=-1)


class TestExecutor:
    def _tasks(self, small_location_set):
        problem = PreparedProblem(
            small_location_set["node_ids"],
            small_location_set["distance_matrix"],
            small_location_set["quality_model"],
            small_location_set["graph"].constraint_set(),
        )
        return [
            RobustGenerationTask(
                key=f"delta={delta}",
                problem=problem,
                epsilon=TEST_EPSILON,
                delta=delta,
                max_iterations=2,
            )
            for delta in (0, 1)
        ]

    def test_parallel_equals_serial(self, small_location_set):
        tasks = self._tasks(small_location_set)
        serial = run_robust_tasks(tasks, max_workers=1)
        parallel = run_robust_tasks(tasks, max_workers=2)
        assert len(serial) == len(parallel) == len(tasks)
        for serial_result, parallel_result in zip(serial, parallel):
            assert np.allclose(
                serial_result.matrix.values, parallel_result.matrix.values, atol=1e-12
            )
            assert serial_result.objective_history == parallel_result.objective_history

    def test_task_equals_direct_generator(self, small_location_set):
        task = self._tasks(small_location_set)[1]
        [from_task] = run_robust_tasks([task], max_workers=1)
        direct = RobustMatrixGenerator(
            small_location_set["node_ids"],
            small_location_set["distance_matrix"],
            small_location_set["quality_model"],
            TEST_EPSILON,
            delta=1,
            constraint_set=small_location_set["graph"].constraint_set(),
            max_iterations=2,
        ).generate()
        assert np.allclose(from_task.matrix.values, direct.matrix.values, atol=1e-12)
        assert from_task.objective_history == pytest.approx(direct.objective_history, abs=1e-12)

    def test_invalid_worker_count(self, small_location_set):
        with pytest.raises(ValueError):
            run_robust_tasks(self._tasks(small_location_set), max_workers=0)

    def test_grouped_equals_ungrouped(self, small_location_set):
        """Sharing one structure across a group changes nothing in the results."""
        tasks = self._tasks(small_location_set)
        ungrouped = run_robust_tasks(tasks, max_workers=1)
        [grouped] = run_robust_task_groups([tasks])
        split = run_robust_task_groups([[task] for task in tasks])
        for reference, shared, solo in zip(ungrouped, grouped, [r for g in split for r in g]):
            assert np.array_equal(reference.matrix.values, shared.matrix.values)
            assert np.array_equal(reference.matrix.values, solo.matrix.values)
            assert reference.objective_history == shared.objective_history


@pytest.fixture()
def pipeline_engine(small_tree_with_priors):
    config = ServerConfig(
        epsilon=2.0,
        num_targets=5,
        robust_iterations=2,
    )
    return ForestEngine(small_tree_with_priors, config)


class TestServerPipeline:
    def test_forest_cache_hit(self, pipeline_engine):
        first = pipeline_engine.build_forest(privacy_level=1, delta=1)
        second = pipeline_engine.build_forest(privacy_level=1, delta=1)
        assert first is second

    def test_config_change_invalidates_cache(self, pipeline_engine):
        """Satellite fix: mutating result-affecting config fields must not serve stale forests."""
        first = pipeline_engine.build_forest(privacy_level=1, delta=1)
        pipeline_engine.config.robust_iterations = 1
        second = pipeline_engine.build_forest(privacy_level=1, delta=1)
        assert first is not second
        pipeline_engine.config.rpb_basis_row = "max"
        third = pipeline_engine.build_forest(privacy_level=1, delta=1)
        assert third is not second

    def test_external_config_mutation_is_inert(self, small_tree_with_priors):
        """Satellite fix: the engine snapshots its config (copy-on-configure).

        Mutating the config object the caller constructed the engine with
        must neither change the engine's behaviour nor poison its caches —
        the engine owns a private copy.
        """
        config = ServerConfig(epsilon=2.0, num_targets=5, robust_iterations=2)
        engine = ForestEngine(small_tree_with_priors, config)
        first = engine.build_forest(privacy_level=1, delta=1)
        config.robust_iterations = 1  # the caller's object, not the engine's
        assert engine.config.robust_iterations == 2
        second = engine.build_forest(privacy_level=1, delta=1)
        assert first is second  # same fingerprint, cache hit

    def test_target_config_mutation_refreshes_derived_targets(self, small_tree_with_priors):
        """Mutating num_targets/target_seed on the engine's own config must
        regenerate the derived target distribution (not serve one built for
        the old settings) and invalidate cached forests."""
        engine = ForestEngine(
            small_tree_with_priors,
            ServerConfig(epsilon=2.0, num_targets=5, robust_iterations=1),
        )
        first = engine.build_forest(privacy_level=1, delta=0)
        old_targets = engine.targets
        engine.config.num_targets = 3
        assert engine.targets is not old_targets
        assert engine.targets.size == 3
        second = engine.build_forest(privacy_level=1, delta=0)
        assert first is not second

    def test_prior_change_invalidates_cache(self, pipeline_engine):
        first = pipeline_engine.build_forest(privacy_level=1, delta=0)
        leaf = pipeline_engine.tree.leaves()[0]
        original_prior = leaf.prior
        try:
            leaf.prior = original_prior * 0.5 + 0.01
            second = pipeline_engine.build_forest(privacy_level=1, delta=0)
        finally:
            leaf.prior = original_prior
        assert first is not second

    def test_cache_diagnostics(self, pipeline_engine):
        pipeline_engine.build_forest(privacy_level=1, delta=0)
        diagnostics = pipeline_engine.cache_diagnostics()
        assert diagnostics["forest_entries"] >= 1
        assert diagnostics["lp_entries"] >= 1
        assert 0.0 <= diagnostics["lp_stats"]["hit_rate"] <= 1.0

    def test_config_validation(self, small_tree_with_priors):
        # The engine and the pool validate the config they snapshot, so a
        # misconfigured server fails at construction instead of failing
        # every request with an error transports map to a client's 400; the
        # per-build process fan-out knob is gone rather than ignored.
        for name, value in (
            ("solver_backend", "auto"),
            ("graph_weighting", "foo"),
            ("rpb_basis_row", "bogus"),
        ):
            config = ServerConfig(**{name: value})
            with pytest.raises(ValueError, match=name):
                ForestEngine(small_tree_with_priors, config)
            with pytest.raises(ValueError, match=name):
                EnginePool(small_tree_with_priors, config, num_shards=1)
        with pytest.raises(TypeError, match="max_workers"):
            ServerConfig(max_workers=2)

    def test_forest_build_runs_on_the_calling_thread(self, small_tree_with_priors, monkeypatch):
        def no_process_pool(*args, **kwargs):
            raise AssertionError("a forest build started a process pool")

        monkeypatch.setattr(executor_module, "ProcessPoolExecutor", no_process_pool)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_process_pool)
        solving_threads = []
        solve = SolverSession.solve

        def recording_solve(session, *args, **kwargs):
            solving_threads.append(threading.get_ident())
            return solve(session, *args, **kwargs)

        monkeypatch.setattr(SolverSession, "solve", recording_solve)
        engine = ForestEngine(
            small_tree_with_priors, ServerConfig(epsilon=2.0, num_targets=5, robust_iterations=2)
        )
        assert engine.build_forest(privacy_level=1, delta=1).is_complete()
        assert len(solving_threads) == engine.cache_diagnostics()["solver"]["solves"] >= 2
        assert set(solving_threads) == {threading.get_ident()}

    def test_concurrent_builds_of_distinct_keys_equal_serial_builds(self, small_tree_with_priors, burst):
        # Request threads are the engine's only concurrency: each solves on
        # its own solver slot, beside the shared LP cache and prepared levels.
        keys = [(1, 0), (1, 1), (1, 2), (0, 1)]
        config = ServerConfig(epsilon=2.0, num_targets=5, robust_iterations=2)
        engine = ForestEngine(small_tree_with_priors, config)
        engine.build_forest(1, 0, epsilon=3.0)  # prepares level 1 for the burst to share
        outcome = burst([functools.partial(engine.build_forest, level, delta) for level, delta in keys])
        assert not outcome.errors
        # Three builds shared the prepared level 1; level 0 was prepared once.
        assert (engine.prepared_levels.stats.misses, len(engine.prepared_levels)) == (2, 2)
        serial = ForestEngine(small_tree_with_priors, config)
        for (level, delta), forest in zip(keys, outcome.results):
            assert _forest_dicts(forest) == _forest_dicts(serial.build_forest(level, delta))

    def test_zero_robust_iterations_rejected(self, pipeline_engine, small_location_set):
        """Regression: t = 0 served the non-robust matrix labelled δ-robust."""
        with pytest.raises(ValueError, match="robust_iterations"):
            ServerConfig(robust_iterations=0).validate()
        location = (
            small_location_set["node_ids"],
            small_location_set["distance_matrix"],
            small_location_set["quality_model"],
            TEST_EPSILON,
        )
        with pytest.raises(ValueError, match="max_iterations"):
            RobustMatrixGenerator(*location, delta=1, max_iterations=0)
        # δ = 0 needs no robust iteration, so t = 0 stays legal there.
        assert RobustMatrixGenerator(*location, delta=0, max_iterations=0).generate().iterations_run == 0
        pipeline_engine.config.robust_iterations = 0
        with pytest.raises(ValueError, match="max_iterations"):
            pipeline_engine.build_forest(privacy_level=1, delta=1)


# --------------------------------------------------------------------- #
# The engine's LP solution cache
# --------------------------------------------------------------------- #

EPSILON_PARAMETERS = ("epsilon", [2.0, 15.0])
DELTA_PARAMETERS = ("delta", [0, 1, 2])
METHOD_PARAMETERS = ("solver_method", ["highs", "highs-ipm"])

#: Sub-trees at level 1 of the height-2 tree.
SUBTREES = 7


@pytest.fixture(scope="module")
def lp_tree(medium_tree, synthetic_dataset):
    """The height-2 tree (7 sub-trees of 7 leaves at level 1) with priors."""
    tree = copy.deepcopy(medium_tree)
    priors_from_checkins(tree, synthetic_dataset)
    return tree


def _lp_engine(tree, **overrides):
    config = dict(epsilon=15.0, num_targets=5, robust_iterations=2)
    config.update(overrides)
    return ForestEngine(tree, ServerConfig(**config))


def _uncached_forest(tree, monkeypatch, delta, epsilon, **overrides):
    with monkeypatch.context() as patch:
        patch.setattr(engine_module, "LP_CACHE_ENTRIES", 0)
        engine = _lp_engine(tree, **overrides)
    forest = engine.build_forest(1, delta, epsilon=epsilon)
    assert engine.cache_diagnostics()["lp_stats"]["hits"] == 0
    return forest


def _forest_dicts(forest):
    return [(root_id, matrix.to_dict()) for root_id, matrix in forest]


class TestLPCache:
    @pytest.mark.parametrize(*METHOD_PARAMETERS)
    @pytest.mark.parametrize(*DELTA_PARAMETERS)
    @pytest.mark.parametrize(*EPSILON_PARAMETERS)
    def test_cached_forest_equals_uncached(self, lp_tree, monkeypatch, epsilon, delta, solver_method):
        engine = _lp_engine(lp_tree, solver_method=solver_method)
        for other_epsilon, other_delta in itertools.product(EPSILON_PARAMETERS[1], DELTA_PARAMETERS[1]):
            if (other_epsilon, other_delta) != (epsilon, delta):
                engine.build_forest(1, other_delta, epsilon=other_epsilon)
        hits = engine.lp_cache.stats.hits
        forest = engine.build_forest(1, delta, epsilon=epsilon)
        # The warm-up built other δ at this ε, so the non-robust starts hit.
        assert engine.lp_cache.stats.hits - hits >= SUBTREES
        uncached = _uncached_forest(lp_tree, monkeypatch, delta, epsilon, solver_method=solver_method)
        assert _forest_dicts(forest) == _forest_dicts(uncached)

    def test_robust_build_reuses_the_nonrobust_starts(self, lp_tree):
        engine = _lp_engine(lp_tree, robust_iterations=2)
        engine.build_forest(1, 0, epsilon=15.0)
        before = engine.cache_diagnostics()
        engine.build_forest(1, 1, epsilon=15.0)
        after = engine.cache_diagnostics()
        assert after["lp_stats"]["hits"] - before["lp_stats"]["hits"] == SUBTREES
        assert after["solver"]["solves"] - before["solver"]["solves"] == SUBTREES * 2
        assert after["solver"]["solves"] == after["lp_stats"]["misses"]

    def test_every_solve_is_an_lp_cache_miss(self, lp_tree, monkeypatch):
        # Every LP of a build is looked up first; the solver runs on a miss
        # only, so no execution path bypasses the cache.
        solves = []
        solve = SolverSession.solve

        def counting_solve(session, *args, **kwargs):
            solves.append(session)
            return solve(session, *args, **kwargs)

        monkeypatch.setattr(SolverSession, "solve", counting_solve)
        engine = _lp_engine(lp_tree, robust_iterations=2)
        engine.build_forest(1, 0, epsilon=15.0)
        engine.build_forest(1, 1, epsilon=15.0)
        diagnostics = engine.cache_diagnostics()
        stats = diagnostics["lp_stats"]
        # δ = 0 asks one LP per sub-tree; δ = 1 asks its start and t = 2 more.
        assert stats["hits"] + stats["misses"] == SUBTREES * (1 + 1 + 2)
        assert len(solves) == stats["misses"] == diagnostics["solver"]["solves"]

    def test_fixed_points_are_not_solved_again(self, lp_tree, monkeypatch):
        # At ε = 2, δ = 1 the pair budgets clamp, so Algorithm 1 reaches
        # exact fixed points within t = 4 and then repeats its LP.
        engine = _lp_engine(lp_tree, robust_iterations=4)
        forest = engine.build_forest(1, 1, epsilon=2.0)
        assert engine.cache_diagnostics()["solver"]["solves"] < SUBTREES * 5
        uncached = _uncached_forest(lp_tree, monkeypatch, 1, 2.0, robust_iterations=4)
        assert _forest_dicts(forest) == _forest_dicts(uncached)

    def test_publish_keeps_the_caches_and_serves_the_new_priors(self, lp_tree):
        tree = copy.deepcopy(lp_tree)
        engine = _lp_engine(tree)
        before = engine.build_forest(1, 0)
        priors = {leaf.node_id: index + 1.0 for index, leaf in enumerate(tree.leaves())}
        engine.publish_priors(priors)
        diagnostics = engine.cache_diagnostics()
        assert (diagnostics["forest_entries"], diagnostics["lp_entries"]) == (1, SUBTREES)
        after = engine.build_forest(1, 0)
        fresh = _lp_engine(copy.deepcopy(tree)).build_forest(1, 0)
        assert _forest_dicts(after) == _forest_dicts(fresh) != _forest_dicts(before)
        # The same priors again keep the forest key: a cache hit, not a rebuild.
        engine.publish_priors(priors)
        assert engine.build_forest(1, 0) is after

    def test_pool_sums_lp_stats_over_shards(self, lp_tree):
        config = ServerConfig(epsilon=15.0, num_targets=5, robust_iterations=1)
        with EnginePool(copy.deepcopy(lp_tree), config, num_shards=2) as pool:
            homes = {}
            for epsilon in (15.0, 16.0, 17.0, 18.0, 19.0, 20.0):
                homes.setdefault(pool.route_key((1, 0, epsilon))[0], epsilon)
            assert len(homes) == 2
            for epsilon in homes.values():
                pool.build_forest(1, 0, epsilon=epsilon)
            diagnostics = pool.cache_diagnostics()
        # One non-robust LP per sub-tree on each shard.
        stats = diagnostics["lp_stats"]
        assert stats["hits"] + stats["misses"] == 2 * SUBTREES
        assert diagnostics["lp_entries"] == stats["misses"]
        assert diagnostics["solver"]["solves"] == stats["misses"]

    def test_clamped_budgets_are_logged_once_per_forest(self, lp_tree, caplog):
        engine = _lp_engine(lp_tree)

        def clamp_warnings():
            return [
                record
                for record in caplog.records
                if record.levelno == logging.WARNING and "clamped" in record.getMessage()
            ]

        with caplog.at_level(logging.WARNING, logger="repro"):
            engine.build_forest(1, 1, epsilon=2.0)
        [warning] = clamp_warnings()
        assert "Section 5.3" in warning.getMessage()
        caplog.clear()
        with caplog.at_level(logging.WARNING, logger="repro"):
            engine.build_forest(1, 1, epsilon=15.0)
        assert clamp_warnings() == []


class TestPreparedLevels:
    @staticmethod
    def _count_preparations(monkeypatch):
        levels = []
        prepare = ForestEngine._prepare_level

        def counting_prepare(engine, privacy_level):
            levels.append(privacy_level)
            return prepare(engine, privacy_level)

        monkeypatch.setattr(ForestEngine, "_prepare_level", counting_prepare)
        return levels

    def test_one_preparation_per_level_across_keys(self, lp_tree, monkeypatch):
        prepared = self._count_preparations(monkeypatch)
        engine = _lp_engine(lp_tree)
        for delta, epsilon in itertools.product(DELTA_PARAMETERS[1], EPSILON_PARAMETERS[1]):
            engine.build_forest(1, delta, epsilon=epsilon)
        engine.build_forest(0, 1, epsilon=15.0)
        assert prepared == [1, 0]
        # A forest-cache hit looks up nothing else.
        lookups = engine.prepared_levels.stats.lookups
        engine.build_forest(1, 2, epsilon=15.0)
        assert engine.prepared_levels.stats.lookups == lookups

    def test_engine_state_changes_prepare_afresh(self, lp_tree, monkeypatch):
        prepared = self._count_preparations(monkeypatch)
        tree = copy.deepcopy(lp_tree)
        engine = _lp_engine(tree)
        targets = None

        def assert_fresh(preparations):
            forest = engine.build_forest(1, 1, epsilon=15.0)
            assert len(prepared) == preparations
            fresh = ForestEngine(copy.deepcopy(tree), engine.config, targets=targets)
            assert _forest_dicts(forest) == _forest_dicts(fresh.build_forest(1, 1, epsilon=15.0))
            del prepared[preparations:]  # the fresh engine's own preparation

        assert_fresh(1)
        engine.publish_priors({leaf.node_id: index + 1.0 for index, leaf in enumerate(tree.leaves())})
        assert_fresh(2)
        engine.config.graph_weighting = "euclidean"
        assert_fresh(3)
        engine.config.num_targets = 3
        assert_fresh(4)
        targets = TargetDistribution.uniform([leaf.center.as_tuple() for leaf in tree.leaves()[:4]])
        engine.targets = targets
        assert_fresh(5)

    def test_prepared_problems_are_read_only(self, lp_tree):
        engine = _lp_engine(lp_tree)
        engine.build_forest(1, 0)
        [(_, level)] = list(engine.prepared_levels)
        problem = level.problems[0]
        for array in (
            problem.distance_matrix_km,
            problem.quality_model.cost_matrix,
            problem.quality_model.priors,
            problem.constraint_set.pairs,
            problem.constraint_set.distances_km,
        ):
            with pytest.raises(ValueError, match="read-only"):
                array[0] = array[0]


class TestLinearQualityModel:
    def test_objective_vector_matches(self, small_location_set):
        model = small_location_set["quality_model"]
        clone = LinearQualityModel(model.cost_matrix, model.priors)
        assert np.array_equal(clone.objective_vector(), model.objective_vector())

    def test_invalid_cost_matrix(self):
        with pytest.raises(ValueError):
            LinearQualityModel(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            LinearQualityModel(np.zeros((0, 0)))


def _reference_exact_rpb(values, distance_matrix_km, delta):
    """The seed's scalar subset-enumeration loop, kept verbatim as the oracle."""
    values = np.asarray(values, dtype=float)
    distances = np.asarray(distance_matrix_km, dtype=float)
    size = values.shape[0]
    budget = np.zeros((size, size))
    if delta == 0:
        return budget
    delta = min(delta, size)
    subsets = []
    for cardinality in range(1, delta + 1):
        subsets.extend(itertools.combinations(range(size), cardinality))
    for i in range(size):
        for j in range(size):
            if i == j or distances[i, j] <= 0:
                continue
            best_ratio = 1.0
            for subset in subsets:
                removed_i = min(values[i, list(subset)].sum(), _MASS_CEILING)
                removed_j = min(values[j, list(subset)].sum(), _MASS_CEILING)
                ratio = (1.0 - removed_j) / (1.0 - removed_i)
                if ratio > best_ratio:
                    best_ratio = ratio
            budget[i, j] = math.log(best_ratio) / distances[i, j]
    return budget


class TestExactRPBVectorization:
    @pytest.mark.parametrize("size,delta", [(4, 1), (5, 2), (6, 3), (3, 5)])
    def test_bit_identical_to_reference(self, size, delta):
        rng = np.random.default_rng(size * 10 + delta)
        values = rng.random((size, size))
        values /= values.sum(axis=1, keepdims=True)
        distances = rng.random((size, size))
        distances = (distances + distances.T) / 2.0
        np.fill_diagonal(distances, 0.0)
        expected = _reference_exact_rpb(values, distances, delta)
        actual = reserved_privacy_budget_exact(values, distances, delta)
        assert np.array_equal(actual, expected)

    def test_bit_identical_on_lp_solution(self, nonrobust_solution, small_location_set):
        values = nonrobust_solution.matrix.values
        distances = small_location_set["distance_matrix"]
        expected = _reference_exact_rpb(values, distances, 2)
        actual = reserved_privacy_budget_exact(values, distances, 2)
        assert np.array_equal(actual, expected)
