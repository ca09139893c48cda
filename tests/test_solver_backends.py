"""Tests for the pluggable LP solver backends (repro.core.solver).

Covers backend resolution policy, the scipy session (its direct path on
scipy's bundled HiGHS against ``linprog`` bit for bit, its failures, and
its ``linprog`` fallback), the all-zero-row NaN guard in
:meth:`ObfuscationLP.solve`, warm-session reuse across Algorithm-1
iterations and across executor task groups, and the solver diagnostics
surfaced through the engine / HTTP admin path.

The scipy ↔ native equivalence suite runs only where :mod:`highspy` is
installed (the ``repro[native]`` extra; CI exercises both environments) —
everything else runs on the stock scipy-only toolchain.
"""

import numpy as np
import pytest
import scipy
from scipy.optimize import linprog

import repro.core.solver as solver_mod
from repro.core.exceptions import InfeasibleMatrixError
from repro.core.geoind import all_pairs_constraints
from repro.core.graphapprox import HexNeighborhoodGraph
from repro.core.lp import ConstraintStructure, ObfuscationLP
from repro.core.objective import QualityLossModel
from repro.core.robust import RobustMatrixGenerator, reserved_privacy_budget_approx
from repro.core.solver import (
    HIGHS_METHODS,
    NATIVE_BACKEND,
    SCIPY_BACKEND,
    RawSolution,
    ScipySolverSession,
    SolverBackendUnavailableError,
    SolverSession,
    available_backends,
    create_session,
    native_available,
    resolve_backend,
)
from repro.pipeline.executor import (
    RobustGenerationTask,
    execute_robust_task,
    execute_robust_task_group,
)
from repro.server.engine import ForestEngine, ServerConfig

from tests.conftest import TEST_EPSILON

needs_native = pytest.mark.skipif(
    not native_available(), reason="highspy not installed (repro[native] extra)"
)


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


class FakeSession(SolverSession):
    """Deterministic canned-solution session for failure-path tests."""

    backend = "fake"

    def __init__(self, raw: RawSolution) -> None:
        super().__init__()
        self.raw = raw
        self.calls = 0

    def solve(self, objective, a_ub, b_ub, a_eq, b_eq, **kwargs) -> RawSolution:
        self.calls += 1
        return self.raw


class TestBackendResolution:
    def test_auto_without_native_is_scipy(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "highspy", None)
        assert resolve_backend("auto") == SCIPY_BACKEND
        assert resolve_backend(None) == SCIPY_BACKEND
        assert available_backends() == (SCIPY_BACKEND,)

    def test_auto_with_native_promotes_simplex_methods(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "highspy", object())
        assert resolve_backend("auto", solver_method="highs") == NATIVE_BACKEND
        assert resolve_backend("auto", solver_method="highs-ds") == NATIVE_BACKEND
        assert available_backends() == (NATIVE_BACKEND, SCIPY_BACKEND)

    def test_auto_never_promotes_interior_point(self, monkeypatch):
        # highs-ipm call sites rely on interior-point vertex semantics;
        # auto must not silently switch them to simplex.
        monkeypatch.setattr(solver_mod, "highspy", object())
        assert resolve_backend("auto", solver_method="highs-ipm") == SCIPY_BACKEND

    def test_explicit_scipy_is_always_scipy(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "highspy", object())
        assert resolve_backend("scipy", solver_method="highs") == SCIPY_BACKEND

    def test_explicit_native_without_highspy_raises(self, monkeypatch):
        monkeypatch.setattr(solver_mod, "highspy", None)
        with pytest.raises(SolverBackendUnavailableError, match="highspy"):
            resolve_backend("highs-native")

    def test_unknown_backend_raises(self):
        with pytest.raises(ValueError, match="unknown solver_backend"):
            resolve_backend("cplex")

    def test_create_session_scipy(self):
        session = create_session("scipy")
        assert isinstance(session, ScipySolverSession)
        assert session.backend == SCIPY_BACKEND


class TestScipySession:
    def test_solve_and_stats(self, small_location_set):
        lp = _make_lp(small_location_set, solver_backend="scipy")
        solution = lp.solve_nonrobust()
        session = lp.session()
        assert session.stats.solves == 1
        assert session.stats.cold_solves == 1
        assert session.stats.warm_solves == 0
        diagnostics = solution.diagnostics
        assert diagnostics["solver_backend"] == SCIPY_BACKEND
        assert diagnostics["warm_start"] is False
        assert diagnostics["basis_reused"] is False
        assert diagnostics["cold_retry"] is False
        breakdown = diagnostics["solve_breakdown_s"]
        assert set(breakdown) >= {"presolve", "build", "solve", "extract", "refresh"}
        assert solution.solve_time_s == breakdown["solve"]

    def test_reset_counts(self):
        session = ScipySolverSession()
        session.reset()
        session.reset()
        assert session.stats.resets == 2
        snapshot = session.stats_snapshot()
        assert snapshot["backend"] == SCIPY_BACKEND
        assert snapshot["resets"] == 2

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
            warm=False,
            basis_reused=False,
            cold_retry=False,
            timings_s={"presolve": 0.0, "build": 0.0, "solve": 0.0, "extract": 0.0},
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
            warm=False,
            basis_reused=False,
            cold_retry=False,
            timings_s={"presolve": 0.0, "build": 0.0, "solve": 0.0, "extract": 0.0},
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
        lp = _make_lp(small_location_set, solver_backend="scipy")
        matrix = lp.solve_nonrobust().matrix
        assert np.isfinite(matrix.values).all()
        np.testing.assert_allclose(matrix.values.sum(axis=1), 1.0, atol=1e-9)


class TestSessionReuse:
    def test_algorithm1_reuses_one_session(self, small_location_set):
        generator = RobustMatrixGenerator(
            small_location_set["node_ids"],
            small_location_set["distance_matrix"],
            small_location_set["quality_model"],
            TEST_EPSILON,
            delta=1,
            constraint_set=small_location_set["graph"].constraint_set(),
            max_iterations=3,
            solver_backend="scipy",
        )
        result = generator.generate()
        session = generator.lp.session()
        # One session absorbed every solve of the run (initial + iterations).
        assert session.stats.solves == len(result.solutions)
        assert session.stats.solves >= 2

    def test_injected_session_is_shared(self, small_location_set):
        session = create_session("scipy")
        lp = _make_lp(small_location_set, session=session)
        solution = lp.solve_nonrobust()
        assert lp.session() is session
        assert solution.diagnostics["session_shared"] is True

    def test_executor_group_shares_session_and_matches_serial(self, small_location_set):
        constraint_set = small_location_set["graph"].constraint_set()

        def task(delta):
            return RobustGenerationTask(
                key=f"delta={delta}",
                node_ids=small_location_set["node_ids"],
                distance_matrix_km=small_location_set["distance_matrix"],
                cost_matrix=small_location_set["quality_model"].cost_matrix,
                priors=small_location_set["quality_model"].priors,
                epsilon=TEST_EPSILON,
                delta=delta,
                constraint_pairs=constraint_set.pairs,
                constraint_distances_km=constraint_set.distances_km,
                max_iterations=2,
                solver_backend="scipy",
            )

        grouped = execute_robust_task_group([task(0), task(1)])
        serial = [execute_robust_task(task(0)), execute_robust_task(task(1))]
        for shared, unshared in zip(grouped, serial):
            np.testing.assert_array_equal(shared.matrix.values, unshared.matrix.values)
        # The group routed both tasks through the per-worker cached session,
        # resetting warm state at each task boundary.
        from repro.pipeline.executor import _WORKER_SOLVER_STATE

        session = _WORKER_SOLVER_STATE["session"]
        assert session is not None
        assert session.stats.resets >= 2


class TestServerConfigValidation:
    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="solver_backend"):
            ServerConfig(epsilon=2.0, solver_backend="cplex").validate()

    def test_unknown_solver_method_rejected(self):
        # linprog's legacy dense-only methods would fail every request with
        # a client-side 400; reject them when the config is validated.
        with pytest.raises(ValueError, match="solver_method"):
            ServerConfig(epsilon=2.0, solver_method="simplex").validate()

    def test_explicit_native_requires_highspy(self):
        config = ServerConfig(epsilon=2.0, solver_backend="highs-native")
        if native_available():
            config.validate()
        else:
            with pytest.raises(ValueError, match="highspy"):
                config.validate()

    def test_backend_is_part_of_the_forest_fingerprint(self, small_tree_with_priors):
        def fingerprint(backend):
            engine = ForestEngine(
                small_tree_with_priors,
                ServerConfig(epsilon=2.0, num_targets=5, solver_backend=backend),
            )
            return engine._forest_fingerprint(1, 1, 2.0)

        # Switching the backend must invalidate cached forests: warm simplex
        # and interior point may sit at different optimal vertices.
        assert fingerprint("auto") != fingerprint("scipy")


class TestBundledHighsMatchesLinprog:
    """The scipy session's direct HiGHS path against ``linprog`` itself."""

    @pytest.mark.parametrize("method", HIGHS_METHODS)
    @pytest.mark.parametrize("robust", [False, True], ids=["no-budget", "eq14-delta1"])
    @pytest.mark.parametrize("size", [1, 7])
    @pytest.mark.parametrize("constraints", ["graph", "all-pairs"])
    def test_x_equals_linprog(self, small_location_set, constraints, size, robust, method):
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
        session = ScipySolverSession()
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
            reference = linprog(*arguments, bounds=(0.0, 1.0), method=method)
            assert raw.ok and reference.success
            assert np.array_equal(raw.x, reference.x)
            assert raw.objective_value == reference.fun

    def test_infeasible_lp_keeps_linprog_status(self, small_location_set):
        class ZeroBoundsSession(ScipySolverSession):
            def solve(self, *args, **kwargs):
                return super().solve(*args, **{**kwargs, "bounds": (0.0, 0.0)})

        # Every variable pinned to 0 cannot meet the row sums of 1.
        arguments = _lp_arguments(_make_lp(small_location_set, solver_backend="scipy"))
        assert linprog(*arguments, bounds=(0.0, 0.0)).status == 2
        raw = ScipySolverSession().solve(*arguments, bounds=(0.0, 0.0))
        assert (raw.ok, raw.status, raw.x) == (False, "2", None)
        lp = _make_lp(small_location_set, session=ZeroBoundsSession())
        with pytest.raises(InfeasibleMatrixError, match="status 2") as caught:
            lp.solve_nonrobust()
        assert caught.value.solver_status == "2"

    @pytest.mark.parametrize("target", ["objective", "a_ub"])
    def test_non_finite_coefficient_raises_value_error(self, small_location_set, target):
        objective, a_ub, b_ub, a_eq, b_eq = _lp_arguments(_make_lp(small_location_set, solver_backend="scipy"))
        objective, a_ub = objective.copy(), a_ub.copy()
        if target == "objective":
            objective[3] = np.nan
        else:
            a_ub.data[5] = np.inf
        arguments = (objective, a_ub, b_ub, a_eq, b_eq)
        with pytest.raises(ValueError):
            linprog(*arguments, bounds=(0.0, 1.0))
        with pytest.raises(ValueError):
            ScipySolverSession().solve(*arguments)

    def test_linprog_fallback_returns_the_same_bits(self, small_location_set, monkeypatch):
        arguments = _lp_arguments(_make_lp(small_location_set, solver_backend="scipy"))
        direct = ScipySolverSession().solve(*arguments)
        calls = []

        def counting_linprog(*args, **kwargs):
            calls.append(kwargs["method"])
            return linprog(*args, **kwargs)

        monkeypatch.setattr(solver_mod, "_scipy_highs", None)
        monkeypatch.setattr(solver_mod, "linprog", counting_linprog)
        fallback = ScipySolverSession().solve(*arguments)
        assert calls == ["highs"]
        assert np.array_equal(fallback.x, direct.x)
        assert (fallback.objective_value, fallback.status) == (direct.objective_value, direct.status)


def _scipy_release():
    return tuple(int(part) for part in scipy.__version__.split(".")[:2])


@pytest.mark.skipif(_scipy_release() < (1, 17), reason="the direct HiGHS path is measured on scipy >= 1.17")
def test_scipy_session_does_not_fall_back_to_linprog(small_location_set, monkeypatch):
    # A scipy release that moves its HiGHS bindings would silently halve
    # cold-build throughput; fail here instead.
    def forbidden(*args, **kwargs):
        raise AssertionError("ScipySolverSession fell back to linprog")

    monkeypatch.setattr(solver_mod, "linprog", forbidden)
    solution = _make_lp(small_location_set, solver_backend="scipy").solve_nonrobust()
    assert solution.diagnostics["solver_backend"] == SCIPY_BACKEND


class TestEngineSolverDiagnostics:
    def test_cache_diagnostics_solver_block(self, small_tree_with_priors):
        engine = ForestEngine(
            small_tree_with_priors,
            ServerConfig(
                epsilon=2.0, num_targets=5, robust_iterations=1, solver_backend="scipy"
            ),
        )
        engine.generate_privacy_forest(privacy_level=1, delta=1)
        diagnostics = engine.cache_diagnostics()
        block = diagnostics["solver"]
        assert block["backend_requested"] == "scipy"
        assert block["backend_resolved"] == SCIPY_BACKEND
        assert block["native_available"] == native_available()
        assert block["solves"] >= 2  # initial + robust iteration
        assert block["solves"] == block["warm_solves"] + block["cold_solves"]
        assert block["time_s"]["solve"] > 0.0

    def test_cache_hits_add_no_solves(self, small_tree_with_priors):
        engine = ForestEngine(
            small_tree_with_priors,
            ServerConfig(
                epsilon=2.0, num_targets=5, robust_iterations=1, solver_backend="scipy"
            ),
        )
        engine.generate_privacy_forest(privacy_level=1, delta=1)
        solves = engine.cache_diagnostics()["solver"]["solves"]
        engine.generate_privacy_forest(privacy_level=1, delta=1)
        assert engine.cache_diagnostics()["solver"]["solves"] == solves


@needs_native
class TestNativeEquivalence:
    """Warm native solves must agree with cold scipy solves.

    Bounds follow the acceptance bar: objectives within 1e-9, rows
    stochastic to 1e-12.  Matrices themselves may differ at degenerate
    optima (different optimal vertices), so equivalence is checked on the
    objective and on feasibility, not bit-wise.
    """

    @pytest.mark.parametrize("delta", [0, 1, 2])
    @pytest.mark.parametrize("epsilon", [1.5, 2.0, 3.0])
    def test_objective_matches_scipy(self, small_location_set, delta, epsilon):
        def run(backend):
            if delta == 0:
                return _make_lp(
                    small_location_set, epsilon=epsilon, solver_backend=backend
                ).solve_nonrobust()
            generator = RobustMatrixGenerator(
                small_location_set["node_ids"],
                small_location_set["distance_matrix"],
                small_location_set["quality_model"],
                epsilon,
                delta=delta,
                constraint_set=small_location_set["graph"].constraint_set(),
                max_iterations=3,
                solver_backend=backend,
            )
            return generator.generate().solutions[-1]

        scipy_solution = run("scipy")
        native_solution = run("highs-native")
        assert native_solution.diagnostics["solver_backend"] == NATIVE_BACKEND
        assert native_solution.objective_value == pytest.approx(
            scipy_solution.objective_value, abs=1e-9
        )
        np.testing.assert_allclose(
            native_solution.matrix.values.sum(axis=1), 1.0, atol=1e-12
        )

    @pytest.mark.parametrize("rpb_method", ["approx", "exact"])
    def test_robust_history_matches_scipy(self, small_location_set, rpb_method):
        def history(backend):
            generator = RobustMatrixGenerator(
                small_location_set["node_ids"],
                small_location_set["distance_matrix"],
                small_location_set["quality_model"],
                TEST_EPSILON,
                delta=1,
                constraint_set=small_location_set["graph"].constraint_set(),
                max_iterations=3,
                rpb_method=rpb_method,
                solver_backend=backend,
            )
            return generator.generate().objective_history

        np.testing.assert_allclose(
            history("highs-native"), history("scipy"), atol=1e-9
        )

    def test_warm_solves_actually_warm(self, small_location_set):
        generator = RobustMatrixGenerator(
            small_location_set["node_ids"],
            small_location_set["distance_matrix"],
            small_location_set["quality_model"],
            TEST_EPSILON,
            delta=1,
            constraint_set=small_location_set["graph"].constraint_set(),
            max_iterations=3,
            solver_backend="highs-native",
        )
        result = generator.generate()
        warm = [s.diagnostics["basis_reused"] for s in result.solutions]
        assert warm[0] is False  # the first solve has no basis to reuse
        assert all(warm[1:])  # every later solve starts from the kept basis

    def test_reset_forces_cold_solve(self, small_location_set):
        lp = _make_lp(small_location_set, solver_backend="highs-native")
        lp.solve_nonrobust()
        session = lp.session()
        lp.solve_nonrobust()
        assert session.stats.basis_reuse_hits == 1
        session.reset()
        lp.solve_nonrobust()
        assert session.stats.basis_reuse_hits == 1  # post-reset solve ran cold
        assert session.stats.cold_solves == 2
