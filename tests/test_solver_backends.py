"""Tests for the LP solver session (repro.core.solver).

Covers the session (its direct path on scipy's bundled HiGHS against
``linprog`` bit for bit, with presolve off as the session runs and on as
``linprog`` defaults, its failures, and its ``linprog`` fallback), the
all-zero-row NaN guard in :meth:`ObfuscationLP.solve`, session reuse
across Algorithm-1 iterations and across executor task groups (a
session's answer independent of its history, one solver slot per
thread, a second thread refused by a busy session), the
``solver_backend`` config check with the store namespace and forest key
it leaves unchanged, and the solver diagnostics surfaced through the
engine / HTTP admin path.
"""

import copy
import threading

import numpy as np
import pytest
import scipy
from scipy.optimize import linprog

import repro.core.solver as solver_mod
from repro.core.exceptions import InfeasibleMatrixError
from repro.core.geoind import all_pairs_constraints
from repro.core.graphapprox import HexNeighborhoodGraph
from repro.core.lp import ConstraintStructure, ObfuscationLP
from repro.core.objective import QualityLossModel, TargetDistribution
from repro.core.robust import RobustMatrixGenerator, reserved_privacy_budget_approx
from repro.core.solver import HIGHS_METHODS, RawSolution, SolverSession
from repro.geometry.haversine import LatLng
from repro.pipeline.executor import (
    PreparedProblem,
    RobustGenerationTask,
    execute_robust_task,
    execute_robust_task_group,
)
from repro.server.engine import ForestEngine, ServerConfig
from repro.service.store import pipeline_store_fingerprint
from repro.tree.builder import tree_for_point
from repro.tree.priors import priors_from_checkins

from tests.conftest import TEST_EPSILON


def _make_lp(location_set, *, epsilon=TEST_EPSILON, **kwargs):
    return ObfuscationLP(
        location_set["node_ids"],
        location_set["distance_matrix"],
        location_set["quality_model"],
        epsilon,
        constraint_set=location_set["graph"].constraint_set(),
        **kwargs,
    )


def _lp_arguments(lp):
    """``(c, A_ub, b_ub, A_eq, b_eq)`` of ``lp``, in ``linprog``'s positional order."""
    structure = lp.structure
    return (
        lp.quality_model.objective_vector(),
        lp.build_inequalities(),
        structure.b_ub,
        structure.a_eq,
        structure.b_eq,
    )


def _robust_task(location_set, delta):
    """One graph-constrained Algorithm-1 task over the 7-leaf set."""
    problem = PreparedProblem(
        location_set["node_ids"],
        location_set["distance_matrix"],
        location_set["quality_model"],
        location_set["graph"].constraint_set(),
    )
    return RobustGenerationTask(
        key=f"delta={delta}", problem=problem, epsilon=TEST_EPSILON, delta=delta, max_iterations=2
    )


class FakeSession(SolverSession):
    """Deterministic canned-solution session for failure-path tests."""

    def __init__(self, raw: RawSolution) -> None:
        super().__init__()
        self.raw = raw
        self.calls = 0

    def solve(self, objective, a_ub, b_ub, a_eq, b_eq, **kwargs) -> RawSolution:
        self.calls += 1
        return self.raw


class TestScipySession:
    def test_solve_and_stats(self, small_location_set):
        solution = _make_lp(small_location_set).solve_nonrobust()
        breakdown = solution.diagnostics["solve_breakdown_s"]
        assert set(breakdown) == {"solve", "extract", "refresh"}
        assert solution.solve_time_s == breakdown["solve"]

    def test_runs_without_presolve(self, small_location_set):
        session = SolverSession()
        _make_lp(small_location_set, session=session).solve_nonrobust()
        statuses = solver_mod._scipy_highs.HighsPresolveStatus
        assert session._highs.getModelPresolveStatus() == statuses.kNotPresolved

    def test_infeasible_reported_as_typed_error(self, small_location_set):
        # ε so small the Geo-Ind constraints admit no row-stochastic matrix
        # is hard to construct on 7 leaves; a canned failing session checks
        # the mapping instead.
        raw = RawSolution(
            ok=False,
            x=None,
            objective_value=None,
            status="2",
            message="infeasible",
            iterations=None,
            timings_s={"solve": 0.0, "extract": 0.0},
        )
        lp = _make_lp(small_location_set, session=FakeSession(raw))
        with pytest.raises(InfeasibleMatrixError, match="status 2"):
            lp.solve_nonrobust()


class TestZeroRowGuard:
    """The satellite fix: an all-zero row must raise, never normalize to NaN."""

    def _raw_with_x(self, x: np.ndarray) -> RawSolution:
        return RawSolution(
            ok=True,
            x=x,
            objective_value=0.0,
            status="0",
            message="ok",
            iterations=1,
            timings_s={"solve": 0.0, "extract": 0.0},
        )

    def test_all_zero_row_raises_with_row_index(self, small_location_set):
        size = len(small_location_set["node_ids"])
        x = np.full(size * size, 1.0 / size)
        x[2 * size : 3 * size] = 0.0  # zero out row 2
        lp = _make_lp(small_location_set, session=FakeSession(self._raw_with_x(x)))
        with pytest.raises(InfeasibleMatrixError, match=r"all-zero probability row.*row 2"):
            lp.solve_nonrobust()

    def test_negative_noise_row_clipped_to_zero_raises(self, small_location_set):
        # A row of tiny negative values clips to exactly zero — the silent
        # 0/0 → NaN hazard the guard exists for.
        size = len(small_location_set["node_ids"])
        x = np.full(size * size, 1.0 / size)
        x[:size] = -1e-14
        lp = _make_lp(small_location_set, session=FakeSession(self._raw_with_x(x)))
        with pytest.raises(InfeasibleMatrixError, match="row 0"):
            lp.solve_nonrobust()

    def test_healthy_solution_not_rejected(self, small_location_set):
        lp = _make_lp(small_location_set)
        matrix = lp.solve_nonrobust().matrix
        assert np.isfinite(matrix.values).all()
        np.testing.assert_allclose(matrix.values.sum(axis=1), 1.0, atol=1e-9)


class TestSessionReuse:
    def test_algorithm1_reuses_one_session(self, small_location_set, monkeypatch):
        solving_sessions = []
        solve = SolverSession.solve

        def recording_solve(session, *args, **kwargs):
            solving_sessions.append(session)
            return solve(session, *args, **kwargs)

        monkeypatch.setattr(SolverSession, "solve", recording_solve)
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
        # One session absorbed every solve of the run (initial + iterations).
        assert len(solving_sessions) == len(result.solutions) >= 2
        assert all(session is generator.lp.session() for session in solving_sessions)

    def test_injected_session_is_shared(self, small_location_set):
        session = SolverSession()
        lp = _make_lp(small_location_set, session=session)
        solution = lp.solve_nonrobust()
        assert lp.session() is session
        assert solution.diagnostics["session_shared"] is True

    def test_executor_group_shares_session_and_matches_serial(self, small_location_set):
        def task(delta):
            return _robust_task(small_location_set, delta)

        grouped = execute_robust_task_group([task(0), task(1)])
        serial = [execute_robust_task(task(0)), execute_robust_task(task(1))]
        for shared, unshared in zip(grouped, serial):
            np.testing.assert_array_equal(shared.matrix.values, unshared.matrix.values)
        # The group routed both tasks through the per-thread cached session.
        from repro.pipeline.executor import _WORKER_SOLVER_STATE

        assert isinstance(_WORKER_SOLVER_STATE.session, SolverSession)
        assert all(
            solution.diagnostics["session_shared"] for result in grouped for solution in result.solutions
        )

    @pytest.mark.parametrize("method", HIGHS_METHODS)
    def test_solution_is_independent_of_session_history(self, small_location_set, method):
        # The LP cache serves one stored x wherever an LP recurs, which is
        # sound only if a session's answer is a function of the LP alone:
        # not of what it solved before, nor of the pattern it had bound.
        lp = _lp_arguments(_make_lp(small_location_set))
        other = _lp_arguments(_make_lp(small_location_set, epsilon=1.5 * TEST_EPSILON))
        session = SolverSession()
        first = session.solve(*lp, solver_method=method)
        session.solve(*other, solver_method=method)  # rebinds another structure's pattern
        again = session.solve(*lp, solver_method=method)
        fresh = SolverSession().solve(*lp, solver_method=method)
        assert first.ok
        for raw in (again, fresh):
            assert np.array_equal(raw.x, first.x)
            assert raw.objective_value == first.objective_value

    def test_kept_model_repushes_changed_sides(self, small_location_set):
        # The session keeps one HiGHS model per bound pattern and skips
        # re-pushing the row and column bounds only while it is handed the
        # same read-only right-hand sides and the same variable bounds.
        objective, a_ub, b_ub, a_eq, b_eq = _lp_arguments(_make_lp(small_location_set))
        assert not (b_ub.flags.writeable or b_eq.flags.writeable)
        session = SolverSession()
        first = session.solve(objective, a_ub, b_ub, a_eq, b_eq)
        assert first.ok
        assert session.solve(objective, a_ub, b_ub, a_eq, b_eq, bounds=(0.0, 0.0)).status == "2"
        writable = b_eq.copy()
        assert session.solve(objective, a_ub, b_ub, a_eq, writable).ok
        writable[:] = len(writable) + 1.0  # row sums no z <= 1 can reach
        assert session.solve(objective, a_ub, b_ub, a_eq, writable).status == "2"
        again = session.solve(objective, a_ub, b_ub, a_eq, b_eq)
        assert np.array_equal(again.x, first.x)

    def test_solver_slot_is_per_thread(self, small_location_set):
        # Concurrent requests for distinct keys run their groups on their
        # own threads; one slot shared between them would refresh a
        # structure's coefficients in place under a sibling's solve.
        from repro.pipeline.executor import _WORKER_SOLVER_STATE

        task = _robust_task(small_location_set, 1)
        [reference] = execute_robust_task_group([task])
        slot = (_WORKER_SOLVER_STATE.structure, _WORKER_SOLVER_STATE.session)
        seen = {}

        def other_thread():
            [result] = execute_robust_task_group([task])
            seen["slot"] = (_WORKER_SOLVER_STATE.structure, _WORKER_SOLVER_STATE.session)
            seen["matrix"] = result.matrix.values

        thread = threading.Thread(target=other_thread, daemon=True)
        thread.start()
        thread.join(timeout=60.0)
        assert not thread.is_alive()
        assert seen["slot"][0] is not slot[0] and seen["slot"][1] is not slot[1]
        assert _WORKER_SOLVER_STATE.structure is slot[0] and _WORKER_SOLVER_STATE.session is slot[1]
        np.testing.assert_array_equal(seen["matrix"], reference.matrix.values)

    def test_second_thread_on_a_busy_session_raises(self, small_location_set):
        # HiGHS run releases the GIL, and one _Highs driven by two threads
        # crashes the interpreter: a session refuses a second thread.
        arguments = _lp_arguments(_make_lp(small_location_set))
        session = SolverSession()
        inside_run, release = threading.Event(), threading.Event()

        class ParkedHighs:
            def __init__(self, highs):
                self._highs = highs

            def run(self):
                inside_run.set()
                release.wait(timeout=60.0)
                return self._highs.run()

            def __getattr__(self, name):
                return getattr(self._highs, name)

        session._highs = ParkedHighs(session._highs)
        parked = {}
        thread_a = threading.Thread(target=lambda: parked.update(raw=session.solve(*arguments)), daemon=True)
        thread_a.start()
        try:
            assert inside_run.wait(timeout=60.0)
            with pytest.raises(RuntimeError, match="another thread is solving on the same session"):
                session.solve(*arguments)
        finally:
            release.set()
            thread_a.join(timeout=60.0)
        assert not thread_a.is_alive()
        assert np.array_equal(parked["raw"].x, SolverSession().solve(*arguments).x)
        # The refusal left the session usable.
        assert np.array_equal(session.solve(*arguments).x, parked["raw"].x)


class TestServerConfigValidation:
    @pytest.mark.parametrize("backend", ["auto", "highs-native", "cplex"])
    def test_only_scipy_backend_accepted(self, backend):
        ServerConfig(epsilon=2.0).validate()
        assert ServerConfig().solver_backend == "scipy"
        with pytest.raises(ValueError, match="solver_backend"):
            ServerConfig(epsilon=2.0, solver_backend=backend).validate()

    def test_unknown_solver_method_rejected(self):
        # linprog's legacy dense-only methods would fail every request with
        # a client-side 400; reject them when the config is validated.
        with pytest.raises(ValueError, match="solver_method"):
            ServerConfig(epsilon=2.0, solver_method="simplex").validate()

    # The two keys below were computed by the release that still had the
    # backend selection knob and ServerConfig.max_workers, for a config that
    # spelled solver_backend="scipy".  Dropping those fields must leave both
    # keys alone: a changed store namespace orphans every durable store
    # written before, and a changed forest key misses every cached forest.
    # Change these digests only together with a deliberate key change.

    @staticmethod
    def _keyed_tree():
        tree = tree_for_point(LatLng(37.77, -122.42), height=1, root_resolution=8)
        leaves = tree.leaves()
        for leaf in leaves:
            leaf.prior = 1.0 / len(leaves)
        targets = TargetDistribution.uniform([leaf.center.as_tuple() for leaf in leaves[:3]])
        return tree, targets

    def test_scipy_config_keeps_its_store_namespace(self):
        tree, targets = self._keyed_tree()
        assert pipeline_store_fingerprint(tree, ServerConfig()) == (
            "afdb330e2c1bfad18757fd3356dfcabb7e504b2c9ef5f356cc7f65aa92f5fd9a"
        )
        assert pipeline_store_fingerprint(tree, ServerConfig(), targets) == (
            "be2b154b445d2caa1e07387cd2364de1a38fedfafde8e1c71f470bd6858f5b41"
        )

    def test_scipy_config_keeps_its_forest_key(self):
        tree, targets = self._keyed_tree()
        engine = ForestEngine(tree, ServerConfig(), targets=targets)
        assert engine._forest_fingerprint(1, 1, 15.0) == (
            "3dc483b41c5e8ec63a6b7e511c13dc231979b03d80aa440ae65d422b821c4c3e"
        )


class TestBundledHighsMatchesLinprog:
    """The scipy session's direct HiGHS path against ``linprog`` itself."""

    @pytest.mark.parametrize("presolve", [False, True], ids=["presolve-off", "presolve-on"])
    @pytest.mark.parametrize("method", HIGHS_METHODS)
    @pytest.mark.parametrize("robust", [False, True], ids=["no-budget", "eq14-delta1"])
    @pytest.mark.parametrize("size", [1, 7])
    @pytest.mark.parametrize("constraints", ["graph", "all-pairs"])
    def test_x_equals_linprog(self, small_location_set, constraints, size, robust, method, presolve):
        # The session runs without presolve, so its contract is linprog with
        # presolve off; linprog's default (on) gives the same bits on these
        # LPs, the premise of leaving presolve out.
        distances = small_location_set["distance_matrix"][:size, :size]
        if constraints == "graph":
            graph = small_location_set["graph"]
            constraint_set = HexNeighborhoodGraph(
                graph.grid, small_location_set["cells"][:size]
            ).constraint_set()
        else:
            constraint_set = all_pairs_constraints(distances)
        priors = small_location_set["priors"][:size]
        quality = QualityLossModel(
            small_location_set["centers"][:size], small_location_set["targets"], priors / priors.sum()
        )
        structure = ConstraintStructure(size, constraint_set)
        session = SolverSession()
        current = np.random.default_rng(size).dirichlet(np.ones(size), size=size)
        # Two solves on one session; the second refreshes A_ub in place, so
        # a stale binding or leftover solver state would show.
        for epsilon in (TEST_EPSILON, 1.5 * TEST_EPSILON):
            lp = ObfuscationLP(
                small_location_set["node_ids"][:size],
                distances,
                quality,
                epsilon,
                constraint_set=constraint_set,
                structure=structure,
                session=session,
            )
            budget = reserved_privacy_budget_approx(current, distances, epsilon, 1) if robust else None
            arguments = (
                quality.objective_vector(),
                lp.build_inequalities(budget),
                structure.b_ub,
                structure.a_eq,
                structure.b_eq,
            )
            raw = session.solve(*arguments, bounds=(0.0, 1.0), solver_method=method)
            reference = linprog(*arguments, bounds=(0.0, 1.0), method=method, options={"presolve": presolve})
            assert raw.ok and reference.success
            assert np.array_equal(raw.x, reference.x)
            assert raw.objective_value == reference.fun

    def test_forest_lps_equal_linprog_with_presolve_on(self, medium_tree, synthetic_dataset, monkeypatch):
        # Pins the premise of running without presolve on what the engine
        # serves: every LP of levels 0-2 of a height-2 tree (K = 1, 7 and
        # 49), δ 0-2 and ε 2 and 15 gets linprog's presolved x bit for bit.
        solved = []
        solve = SolverSession.solve

        def recording_solve(session, objective, a_ub, b_ub, a_eq, b_eq, **kwargs):
            raw = solve(session, objective, a_ub, b_ub, a_eq, b_eq, **kwargs)
            # The next solve refreshes A_ub in place, so keep this one's copy.
            solved.append(((objective, a_ub.copy(), b_ub, a_eq, b_eq), kwargs, raw))
            return raw

        monkeypatch.setattr(SolverSession, "solve", recording_solve)
        tree = copy.deepcopy(medium_tree)
        priors_from_checkins(tree, synthetic_dataset)
        engine = ForestEngine(tree, ServerConfig(num_targets=5, robust_iterations=1))
        for level in (0, 1, 2):
            for delta in (0, 1, 2):
                for epsilon in (2.0, 15.0):
                    engine.build_forest(level, delta, epsilon=epsilon)
        assert {arguments[0].size for arguments, _, _ in solved} == {1, 7 * 7, 49 * 49}
        for arguments, kwargs, raw in solved:
            reference = linprog(
                *arguments,
                bounds=kwargs["bounds"],
                method=kwargs["solver_method"],
                options={"presolve": True},
            )
            assert raw.ok and reference.success
            assert np.array_equal(raw.x, reference.x)
            assert raw.objective_value == reference.fun

    def test_infeasible_lp_keeps_linprog_status(self, small_location_set):
        class ZeroBoundsSession(SolverSession):
            def solve(self, *args, **kwargs):
                return super().solve(*args, **{**kwargs, "bounds": (0.0, 0.0)})

        # Every variable pinned to 0 cannot meet the row sums of 1.
        arguments = _lp_arguments(_make_lp(small_location_set))
        assert linprog(*arguments, bounds=(0.0, 0.0)).status == 2
        raw = SolverSession().solve(*arguments, bounds=(0.0, 0.0))
        assert (raw.ok, raw.status, raw.x) == (False, "2", None)
        lp = _make_lp(small_location_set, session=ZeroBoundsSession())
        with pytest.raises(InfeasibleMatrixError, match="status 2") as caught:
            lp.solve_nonrobust()
        assert caught.value.solver_status == "2"

    @pytest.mark.parametrize("target", ["objective", "a_ub"])
    def test_non_finite_coefficient_raises_value_error(self, small_location_set, target):
        objective, a_ub, b_ub, a_eq, b_eq = _lp_arguments(_make_lp(small_location_set))
        objective, a_ub = objective.copy(), a_ub.copy()
        if target == "objective":
            objective[3] = np.nan
        else:
            a_ub.data[5] = np.inf
        arguments = (objective, a_ub, b_ub, a_eq, b_eq)
        with pytest.raises(ValueError):
            linprog(*arguments, bounds=(0.0, 1.0))
        with pytest.raises(ValueError):
            SolverSession().solve(*arguments)

    def test_linprog_fallback_returns_the_same_bits(self, small_location_set, monkeypatch):
        arguments = _lp_arguments(_make_lp(small_location_set))
        direct = SolverSession().solve(*arguments)
        calls = []

        def counting_linprog(*args, **kwargs):
            calls.append((kwargs["method"], kwargs["options"]))
            return linprog(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "_scipy_highs", None)
        monkeypatch.setattr(solver_mod, "linprog", counting_linprog)
        fallback = SolverSession().solve(*arguments)
        assert calls == [("highs", {"presolve": False})]
        assert np.array_equal(fallback.x, direct.x)
        assert (fallback.objective_value, fallback.status) == (direct.objective_value, direct.status)


def _scipy_release():
    return tuple(int(part) for part in scipy.__version__.split(".")[:2])


@pytest.mark.skipif(_scipy_release() < (1, 17), reason="the direct HiGHS path is measured on scipy >= 1.17")
def test_scipy_session_does_not_fall_back_to_linprog(small_location_set, monkeypatch):
    # A scipy release that moves its HiGHS bindings would silently halve
    # cold-build throughput; fail here instead.
    def forbidden(*args, **kwargs):
        raise AssertionError("SolverSession fell back to linprog")

    monkeypatch.setattr(solver_mod, "linprog", forbidden)
    solution = _make_lp(small_location_set).solve_nonrobust()
    assert solution.status == "optimal"


class TestEngineSolverDiagnostics:
    def test_cache_diagnostics_solver_block(self, small_tree_with_priors):
        engine = ForestEngine(
            small_tree_with_priors,
            ServerConfig(epsilon=2.0, num_targets=5, robust_iterations=1),
        )
        engine.build_forest(privacy_level=1, delta=1)
        diagnostics = engine.cache_diagnostics()
        block = diagnostics["solver"]
        assert set(block) == {"solves", "time_s"}
        assert set(block["time_s"]) == {"solve", "extract", "refresh"}
        assert block["solves"] >= 2  # initial + robust iteration
        assert block["solves"] == diagnostics["lp_stats"]["misses"]
        assert block["time_s"]["solve"] > 0.0

    def test_cache_hits_add_no_solves(self, small_tree_with_priors):
        engine = ForestEngine(
            small_tree_with_priors,
            ServerConfig(epsilon=2.0, num_targets=5, robust_iterations=1),
        )
        engine.build_forest(privacy_level=1, delta=1)
        solves = engine.cache_diagnostics()["solver"]["solves"]
        engine.build_forest(privacy_level=1, delta=1)
        assert engine.cache_diagnostics()["solver"]["solves"] == solves
