"""Pluggable LP solver backends: scipy's bundled HiGHS and warm-started native HiGHS.

Every obfuscation LP in the repo is a HiGHS solve.  Reached through
:func:`scipy.optimize.linprog`, HiGHS's own ``run`` was only ~24% of the
solve stage (0.94 of 3.87 s under cProfile, over the 490 K = 7 solves that
pre-build six level-1 forests); the rest was ``linprog``'s per-call Python
layers: input validation, a ``vstack`` plus COO→CSC conversion of a
constraint pattern that never changes, a fresh ``_Highs()`` with per-option
validation, and the post-solve feasibility check.  Algorithm 1 solves the
*same* LP ``t``≈10 times with only the ``e^{ε_eff·d}`` inequality
coefficients changing (Eq. 14→16), and ε/δ sweeps repeat that across a
grid, so the stacked pattern can be bound once per constraint structure;
with :mod:`highspy` the solve can also warm-start simplex from the
previous optimal basis.

This module abstracts the solve behind a :class:`SolverSession` with two
implementations:

* :class:`ScipySolverSession` — the zero-extra-deps path.  It drives the
  HiGHS bindings bundled with scipy (``scipy.optimize._highspy._core``,
  the ones ``linprog(method="highs*")`` calls) with ``linprog``'s options
  and checks, so its ``x`` equals ``linprog``'s bit for bit.  Every solve
  is cold: a warm start would change which optimal vertex a degenerate LP
  returns, and so the served matrices.  Where scipy does not ship that
  module, every solve is a ``linprog`` call.  Because every solve is cold,
  the session is :attr:`~SolverSession.history_free`: its ``x`` depends on
  the LP alone, so an LP cache may serve it.
* :class:`HighsNativeSession` — a persistent ``highspy.Highs`` instance.
  Each solve pushes only refreshed coefficient values into the stacked
  pattern and re-solves the dual simplex warm from the retained optimal
  basis of the previous solve (presolve is disabled on warm solves so the
  basis maps onto the model one-to-one).  A stale or singular basis can
  never fail a solve: the session falls back to one cold re-solve before
  reporting infeasibility.

Both sessions bind the stacked ``[A_ub; A_eq]`` column-wise pattern once
per :class:`~repro.core.lp.ConstraintStructure` through
:class:`StackedPattern` and build the model with :func:`highs_lp`.

Backend selection (``solver_backend`` everywhere in the stack):

* ``"auto"`` (default) — ``highs-native`` when :mod:`highspy` is
  importable *and* the requested ``solver_method`` is a simplex method
  (``highs`` / ``highs-ds``); ``scipy`` otherwise.  An explicit
  ``highs-ipm`` request keeps its scipy semantics — interior-point
  solutions of degenerate LPs differ from vertex solutions, and existing
  call sites rely on them.
* ``"scipy"`` — always the bundled-HiGHS path.
* ``"highs-native"`` — the native path; raises
  :class:`SolverBackendUnavailableError` where :mod:`highspy` is absent
  (install via the ``repro[native]`` extra).

Determinism note: warm-started simplex may terminate at a *different
optimal vertex* than a cold solve of the same LP when the optimum is
degenerate, so warm state makes a solve's bits a function of the solves
before it.  Within one Algorithm-1 run the solve sequence is fixed, so
results are reproducible; across independent tasks the pipeline executor
calls :meth:`SolverSession.reset` at task boundaries so task results stay
independent of grouping, worker count and shard assignment (the
byte-identity contract the pool/netshard suites verify).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.optimize import OptimizeResult, linprog
from scipy.sparse import issparse, vstack

from repro.utils.timing import Timer

try:  # pragma: no cover - absent in scipy-only environments (CI runs both)
    import highspy
except ImportError:  # pragma: no cover
    highspy = None

try:  # the bindings linprog(method="highs*") itself calls
    from scipy.optimize._highspy import _core as _scipy_highs
except ImportError:  # pragma: no cover - scipy releases without the module
    _scipy_highs = None

SCIPY_BACKEND = "scipy"
NATIVE_BACKEND = "highs-native"
AUTO_BACKEND = "auto"
KNOWN_BACKENDS = (AUTO_BACKEND, SCIPY_BACKEND, NATIVE_BACKEND)

#: HiGHS methods, spelled as ``linprog`` spells them, and the HiGHS
#: ``solver`` option each one sets (``None`` leaves HiGHS's choice).
_HIGHS_SOLVER_OPTION = {"highs": None, "highs-ds": "simplex", "highs-ipm": "ipm"}
HIGHS_METHODS = tuple(_HIGHS_SOLVER_OPTION)

#: HiGHS methods that are semantically interchangeable with the native
#: dual-simplex path; only these are promoted to ``highs-native`` by
#: ``auto`` resolution.
SIMPLEX_METHODS = frozenset({"highs", "highs-ds"})

#: ``linprog``'s post-solve feasibility tolerance (``_check_result``:
#: the square root of its default ``tol`` of 1e-9, times 10).
LINPROG_FEASIBILITY_TOL = float(np.sqrt(1e-9) * 10)


class SolverBackendUnavailableError(RuntimeError):
    """An explicitly requested solver backend cannot run in this environment."""


def native_available() -> bool:
    """Whether the native HiGHS bindings (:mod:`highspy`) are importable."""
    return highspy is not None


def available_backends() -> Tuple[str, ...]:
    """The concrete backends usable in this environment, preferred first."""
    if native_available():
        return (NATIVE_BACKEND, SCIPY_BACKEND)
    return (SCIPY_BACKEND,)


def resolve_backend(name: Optional[str], *, solver_method: str = "highs") -> str:
    """Resolve a backend request to a concrete backend name.

    ``None`` and ``"auto"`` pick ``highs-native`` when available and the
    solver method is simplex-class, else ``scipy``.  An explicit
    ``"highs-native"`` raises :class:`SolverBackendUnavailableError` where
    :mod:`highspy` is absent instead of silently degrading — silent
    degradation is exactly what ``auto`` is for.
    """
    if name is None:
        name = AUTO_BACKEND
    name = str(name)
    if name == AUTO_BACKEND:
        if native_available() and str(solver_method) in SIMPLEX_METHODS:
            return NATIVE_BACKEND
        return SCIPY_BACKEND
    if name == SCIPY_BACKEND:
        return SCIPY_BACKEND
    if name == NATIVE_BACKEND:
        if not native_available():
            raise SolverBackendUnavailableError(
                "solver_backend='highs-native' requested but highspy is not "
                "installed; install the repro[native] extra or use "
                "solver_backend='auto'/'scipy'"
            )
        return NATIVE_BACKEND
    raise ValueError(f"unknown solver_backend {name!r}; known: {KNOWN_BACKENDS}")


@dataclass(frozen=True, eq=False)
class StackedPattern:
    """Column-wise pattern of the stacked ``[A_ub; A_eq]`` system.

    Bound to the *identity* of the two source matrices: a
    :class:`~repro.core.lp.ConstraintStructure` rewrites its sparse data in
    place between solves, so object identity is an exact "same pattern"
    check.  ``perm`` takes the concatenated source data ``[A_ub.data,
    A_eq.data]`` into the stacked column-wise value order, so a solve
    pushes O(nnz) values and never re-stacks.
    """

    a_ub: object
    a_eq: object
    indptr: np.ndarray
    indices: np.ndarray
    perm: np.ndarray
    num_ub_rows: int
    num_rows: int
    num_cols: int

    @classmethod
    def bind(cls, a_ub, a_eq) -> "StackedPattern":
        if not (issparse(a_ub) and issparse(a_eq)):
            raise TypeError("solver sessions take scipy.sparse constraint matrices")
        # Number every source entry 1..nnz; after stacking and canonical CSC
        # conversion the data array tells us where each entry landed.
        markers = []
        start = 1
        for matrix in (a_ub, a_eq):
            marker = matrix.copy()
            marker.data = np.arange(start, start + matrix.data.size, dtype=float)
            start += matrix.data.size
            markers.append(marker)
        combined = vstack(markers, format="csc")
        combined.sum_duplicates()
        if combined.nnz != start - 1:
            raise ValueError("constraint matrices must not hold duplicate entries")
        return cls(
            a_ub=a_ub,
            a_eq=a_eq,
            indptr=combined.indptr.astype(np.int32),
            indices=combined.indices.astype(np.int32),
            perm=combined.data.astype(np.int64) - 1,
            num_ub_rows=int(a_ub.shape[0]),
            num_rows=int(combined.shape[0]),
            num_cols=int(combined.shape[1]),
        )

    def matches(self, a_ub, a_eq) -> bool:
        return self.a_ub is a_ub and self.a_eq is a_eq

    def values(self) -> np.ndarray:
        """The current coefficients of the bound matrices, in stacked order."""
        return np.concatenate((self.a_ub.data, self.a_eq.data))[self.perm]


def highs_lp(bindings, pattern: StackedPattern, objective, b_ub, b_eq, bounds):
    """The stacked LP as a ``HighsLp`` of ``bindings``.

    ``bindings`` is :mod:`highspy` or scipy's bundled copy; both expose the
    same classes.  Like :func:`~scipy.optimize.linprog`, raises
    :class:`ValueError` for non-finite or mis-sized data instead of
    handing it to HiGHS.
    """
    cost = np.asarray(objective, dtype=float)
    b_ub = np.asarray(b_ub, dtype=float)
    b_eq = np.asarray(b_eq, dtype=float)
    values = pattern.values()
    if (
        cost.shape != (pattern.num_cols,)
        or b_ub.shape != (pattern.num_ub_rows,)
        or b_eq.shape != (pattern.num_rows - pattern.num_ub_rows,)
    ):
        raise ValueError("objective and right-hand sides do not match the constraint matrices")
    for name, array in (("c", cost), ("A_ub/A_eq", values), ("b_ub", b_ub), ("b_eq", b_eq)):
        if not np.isfinite(array).all():
            raise ValueError(f"{name} must not contain values inf, nan, or None")
    lp = bindings.HighsLp()
    lp.num_col_ = pattern.num_cols
    lp.num_row_ = pattern.num_rows
    lp.sense_ = bindings.ObjSense.kMinimize
    lp.offset_ = 0.0
    lp.col_cost_ = cost
    lp.col_lower_ = np.full(pattern.num_cols, float(bounds[0]))
    lp.col_upper_ = np.full(pattern.num_cols, float(bounds[1]))
    lp.row_lower_ = np.concatenate((np.full(pattern.num_ub_rows, -bindings.kHighsInf), b_eq))
    lp.row_upper_ = np.concatenate((b_ub, b_eq))
    lp.a_matrix_.format_ = bindings.MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = pattern.num_cols
    lp.a_matrix_.num_row_ = pattern.num_rows
    lp.a_matrix_.start_ = pattern.indptr
    lp.a_matrix_.index_ = pattern.indices
    lp.a_matrix_.value_ = values
    return lp


def _linprog_status(bindings, model_status) -> int:
    """``linprog``'s status number for a HiGHS model status."""
    kinds = bindings.HighsModelStatus
    if model_status == kinds.kOptimal:
        return 0
    if model_status in (kinds.kTimeLimit, kinds.kIterationLimit):
        return 1
    if model_status in (kinds.kInfeasible, kinds.kModelError):
        return 2
    if model_status == kinds.kUnbounded:
        return 3
    return 4


@dataclass
class RawSolution:
    """Backend-agnostic outcome of one LP solve.

    ``x`` is the raw variable vector (``None`` on failure); ``timings_s``
    breaks the solve into ``presolve`` / ``build`` / ``solve`` / ``extract``
    stages.  The scipy session reports its whole call, model push and
    presolve included, as ``solve`` (``presolve`` and ``build`` read 0.0),
    on its bundled-HiGHS and its ``linprog`` path alike; the native backend
    reports 0.0 presolve on warm solves because presolve is genuinely
    disabled there.
    """

    ok: bool
    x: Optional[np.ndarray]
    objective_value: Optional[float]
    status: str
    message: str
    iterations: Optional[int]
    warm: bool
    basis_reused: bool
    cold_retry: bool
    timings_s: Dict[str, float]


@dataclass
class SessionStats:
    """Cumulative per-session solver counters (aggregated by the engine)."""

    solves: int = 0
    warm_solves: int = 0
    cold_solves: int = 0
    basis_reuse_hits: int = 0
    cold_retries: int = 0
    resets: int = 0
    time_s: Dict[str, float] = field(
        default_factory=lambda: {"presolve": 0.0, "build": 0.0, "solve": 0.0, "extract": 0.0}
    )

    def record(self, raw: RawSolution) -> None:
        self.solves += 1
        if raw.warm:
            self.warm_solves += 1
        else:
            self.cold_solves += 1
        if raw.basis_reused:
            self.basis_reuse_hits += 1
        if raw.cold_retry:
            self.cold_retries += 1
        for stage, elapsed in raw.timings_s.items():
            self.time_s[stage] = self.time_s.get(stage, 0.0) + float(elapsed)

    def as_dict(self) -> Dict[str, object]:
        return {
            "solves": self.solves,
            "warm_solves": self.warm_solves,
            "cold_solves": self.cold_solves,
            "basis_reuse_hits": self.basis_reuse_hits,
            "cold_retries": self.cold_retries,
            "resets": self.resets,
            "time_s": dict(self.time_s),
        }


class SolverSession:
    """One persistent solver state, reused across solves of congruent LPs.

    Subclasses implement :meth:`solve`; callers that need task-boundary
    determinism call :meth:`reset` to drop warm state while keeping the
    (possibly expensive) bound model pattern.
    """

    backend: str = "abstract"

    #: Whether a solve's ``x`` is a function of the LP alone.  Only such a
    #: session's solutions may be served from an LP cache; a warm-started
    #: session's ``x`` also depends on the solves before it.
    history_free: bool = False

    def __init__(self) -> None:
        self.stats = SessionStats()

    def solve(
        self,
        objective: np.ndarray,
        a_ub,
        b_ub: np.ndarray,
        a_eq,
        b_eq: np.ndarray,
        *,
        bounds: Tuple[float, float] = (0.0, 1.0),
        solver_method: str = "highs",
        warm: bool = True,
    ) -> RawSolution:
        raise NotImplementedError

    def reset(self) -> None:
        """Drop warm state (basis); the next solve runs cold."""
        self.stats.resets += 1

    def stats_snapshot(self) -> Dict[str, object]:
        return {"backend": self.backend, **self.stats.as_dict()}


class ScipySolverSession(SolverSession):
    """The zero-extra-deps path: cold solves, bit-identical to ``linprog``.

    The session drives the HiGHS bindings that ``linprog`` itself calls.  It
    binds the stacked pattern once per constraint structure, holds one
    ``_Highs`` (cleared before every model push, so every solve is cold),
    and passes ``linprog``'s options for the method.  It keeps
    ``linprog``'s contract: non-finite data raises :class:`ValueError`, a
    solution is rechecked against the constraints within
    :data:`LINPROG_FEASIBILITY_TOL`, and statuses are ``linprog``'s numbers.
    Where scipy does not ship those bindings, every solve is a ``linprog``
    call.
    """

    backend = SCIPY_BACKEND
    history_free = True

    def __init__(self) -> None:
        super().__init__()
        self._bindings = _scipy_highs
        self._highs = None if _scipy_highs is None else _scipy_highs._Highs()
        self._pattern: Optional[StackedPattern] = None
        self._options: Dict[str, object] = {}

    def solve(
        self,
        objective: np.ndarray,
        a_ub,
        b_ub: np.ndarray,
        a_eq,
        b_eq: np.ndarray,
        *,
        bounds: Tuple[float, float] = (0.0, 1.0),
        solver_method: str = "highs",
        warm: bool = True,
    ) -> RawSolution:
        if solver_method not in HIGHS_METHODS:
            raise ValueError(f"unknown solver_method {solver_method!r}; known: {HIGHS_METHODS}")
        with Timer() as solve_timer:
            if self._highs is None:
                result = linprog(
                    c=objective,
                    A_ub=a_ub,
                    b_ub=b_ub,
                    A_eq=a_eq,
                    b_eq=b_eq,
                    bounds=bounds,
                    method=solver_method,
                )
            else:
                result = self._solve_bundled(objective, a_ub, b_ub, a_eq, b_eq, bounds, solver_method)
        with Timer() as extract_timer:
            x = None if result.x is None else np.asarray(result.x, dtype=float)
            nit = getattr(result, "nit", None)
            try:
                iterations = None if nit is None else int(nit)
            except (TypeError, ValueError):
                iterations = None
        raw = RawSolution(
            ok=bool(result.success),
            x=x,
            objective_value=None if result.fun is None else float(result.fun),
            status=str(result.status),
            message=str(result.message),
            iterations=iterations,
            warm=False,
            basis_reused=False,
            cold_retry=False,
            timings_s={
                "presolve": 0.0,  # folded into solve, as linprog folds it
                "build": 0.0,
                "solve": solve_timer.elapsed,
                "extract": extract_timer.elapsed,
            },
        )
        self.stats.record(raw)
        return raw

    def _linprog_options(self, solver_method: str):
        """``HighsOptions`` with exactly the settings ``linprog`` passes."""
        options = self._options.get(solver_method)
        if options is None:
            bindings = self._bindings
            options = bindings.HighsOptions()
            options.presolve = "on"
            if _HIGHS_SOLVER_OPTION[solver_method] is not None:
                options.solver = _HIGHS_SOLVER_OPTION[solver_method]
            options.highs_debug_level = bindings.HighsDebugLevel.kHighsDebugLevelNone
            options.log_to_console = False
            options.output_flag = False
            options.simplex_strategy = bindings.simplex_constants.SimplexStrategy.kSimplexStrategyDual
            self._options[solver_method] = options
        return options

    def _solve_bundled(self, objective, a_ub, b_ub, a_eq, b_eq, bounds, solver_method):
        """One cold solve on the bundled bindings, as ``linprog`` reports it."""
        bindings = self._bindings
        if self._pattern is None or not self._pattern.matches(a_ub, a_eq):
            self._pattern = StackedPattern.bind(a_ub, a_eq)
        lp = highs_lp(bindings, self._pattern, objective, b_ub, b_eq, bounds)
        highs = self._highs
        highs.clearSolver()
        highs.passOptions(self._linprog_options(solver_method))
        error = bindings.HighsStatus.kError
        if highs.passModel(lp) == error:
            model_status, ran = bindings.HighsModelStatus.kModelError, False
        else:
            ran = highs.run() != error
            model_status = highs.getModelStatus()
        status = _linprog_status(bindings, model_status)
        if status == 0 and not ran:
            status = 4  # linprog's verdict on "optimal" without a solution
        info = highs.getInfo()
        result = OptimizeResult(
            x=None,
            fun=None,
            status=status,
            message=f"HiGHS model status {int(model_status)}: {highs.modelStatusToString(model_status)}",
            nit=info.simplex_iteration_count or info.ipm_iteration_count,
        )
        if status == 0:
            solution = highs.getSolution()
            result.x = np.array(solution.col_value)
            result.fun = info.objective_function_value
            rows = np.array(solution.row_value)
            num_ub_rows = self._pattern.num_ub_rows
            tol = LINPROG_FEASIBILITY_TOL
            feasible = (
                not np.isnan(result.fun)
                and np.all((result.x >= bounds[0] - tol) & (result.x <= bounds[1] + tol))
                and np.all(np.asarray(b_ub) - rows[:num_ub_rows] >= -tol)
                and np.all(np.abs(np.asarray(b_eq) - rows[num_ub_rows:]) <= tol)
            )
            if not feasible:
                result.status = 4
                result.message = f"the solution does not satisfy the constraints within {tol:.2E}"
        result.success = result.status == 0
        return result


class HighsNativeSession(SolverSession):
    """Persistent native HiGHS model with basis reuse across solves.

    The session binds lazily to the *identity* of the constraint matrices it
    is given (the :class:`~repro.core.lp.ConstraintStructure` rewrites its
    CSC data in place between solves, so object identity is an exact "same
    pattern" check).  Binding computes, once, the column-wise pattern of the
    stacked ``[A_ub; A_eq]`` system plus the permutation taking refreshed
    source coefficients into the stacked value array; each solve is then an
    O(nnz) value push (``passModel``) followed by ``setBasis`` with the
    previous optimal basis and a dual-simplex ``run`` with presolve off.
    A warm start can end at a different optimal vertex than a cold solve of
    the same LP, so the session is not ``history_free`` and bypasses the LP
    cache.
    """

    backend = NATIVE_BACKEND

    def __init__(self) -> None:
        if highspy is None:  # pragma: no cover - guarded by resolve_backend
            raise SolverBackendUnavailableError(
                "highspy is not installed; install the repro[native] extra"
            )
        super().__init__()
        self._highs = highspy.Highs()
        self._highs.setOptionValue("output_flag", False)
        # The pipeline parallelises across processes; keep each solve
        # single-threaded and deterministic.
        self._highs.setOptionValue("threads", 1)
        self._basis = None
        self._pattern: Optional[StackedPattern] = None

    def _bind_pattern(self, a_ub, a_eq) -> None:
        """(Re)compute the stacked column-wise pattern for new matrices."""
        self._pattern = StackedPattern.bind(a_ub, a_eq)
        self._basis = None  # a new pattern invalidates any retained basis

    def solve(
        self,
        objective: np.ndarray,
        a_ub,
        b_ub: np.ndarray,
        a_eq,
        b_eq: np.ndarray,
        *,
        bounds: Tuple[float, float] = (0.0, 1.0),
        solver_method: str = "highs",
        warm: bool = True,
    ) -> RawSolution:
        del solver_method  # native backend always runs (dual) simplex
        with Timer() as build_timer:
            if self._pattern is None or not self._pattern.matches(a_ub, a_eq):
                self._bind_pattern(a_ub, a_eq)
            lp = highs_lp(highspy, self._pattern, objective, b_ub, b_eq, bounds)
            pass_status = self._highs.passModel(lp)
            if pass_status == highspy.HighsStatus.kError:
                raise RuntimeError("HiGHS rejected the LP model (passModel returned kError)")

        warm_attempt = bool(warm) and self._basis is not None
        cold_retry = False
        with Timer() as solve_timer:
            if warm_attempt:
                # Presolve would remap rows/columns out from under the basis.
                self._highs.setOptionValue("presolve", "off")
                set_status = self._highs.setBasis(self._basis)
                if set_status == highspy.HighsStatus.kError:
                    warm_attempt = False
                    self._highs.setOptionValue("presolve", "choose")
            else:
                self._highs.setOptionValue("presolve", "choose")
            self._highs.setOptionValue("solver", "simplex")
            self._highs.run()
            model_status = self._highs.getModelStatus()
            ok = model_status == highspy.HighsModelStatus.kOptimal
            if warm_attempt and not ok:
                # Stale-basis safety net: a retained basis must never turn a
                # feasible LP into a reported failure.  Drop it, presolve on,
                # solve cold once.
                self._highs.clearSolver()
                self._highs.setOptionValue("presolve", "choose")
                self._highs.run()
                model_status = self._highs.getModelStatus()
                ok = model_status == highspy.HighsModelStatus.kOptimal
                warm_attempt = False
                cold_retry = True

        with Timer() as extract_timer:
            x = None
            objective_value = None
            iterations = None
            if ok:
                solution = self._highs.getSolution()
                x = np.asarray(solution.col_value, dtype=float)
                info = self._highs.getInfo()
                objective_value = float(info.objective_function_value)
                iterations = int(info.simplex_iteration_count)
                basis = self._highs.getBasis()
                valid = bool(getattr(basis, "valid", getattr(basis, "valid_", True)))
                self._basis = basis if valid else None
            else:
                self._basis = None
            status = self._highs.modelStatusToString(model_status)

        raw = RawSolution(
            ok=ok,
            x=x,
            objective_value=objective_value,
            status=str(status),
            message=str(status),
            iterations=iterations,
            warm=warm_attempt,
            basis_reused=warm_attempt and ok,
            cold_retry=cold_retry,
            timings_s={
                "presolve": 0.0,  # off on warm solves; folded into run when cold
                "build": build_timer.elapsed,
                "solve": solve_timer.elapsed,
                "extract": extract_timer.elapsed,
            },
        )
        self.stats.record(raw)
        return raw

    def reset(self) -> None:
        super().reset()
        self._basis = None


def create_session(
    backend: Optional[str] = AUTO_BACKEND, *, solver_method: str = "highs"
) -> SolverSession:
    """Build a solver session for the (resolved) backend."""
    resolved = resolve_backend(backend, solver_method=solver_method)
    if resolved == NATIVE_BACKEND:
        return HighsNativeSession()
    return ScipySolverSession()
