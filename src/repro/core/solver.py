"""The LP solver session: scipy's bundled HiGHS with presolve off.

Every obfuscation LP in the repo is a HiGHS solve.  Reached through
:func:`scipy.optimize.linprog`, HiGHS's own ``run`` was only ~24% of the
solve stage (0.94 of 3.87 s under cProfile, over the 490 K = 7 solves that
pre-build six level-1 forests); the rest was ``linprog``'s per-call Python
layers: input validation, a ``vstack`` plus COO→CSC conversion of a
constraint pattern that never changes, a fresh ``_Highs()`` with per-option
validation, and the post-solve feasibility check.  Algorithm 1 solves the
*same* LP ``t``≈10 times with only the ``e^{ε_eff·d}`` inequality
coefficients changing (Eq. 14→16), and ε/δ sweeps repeat that across a
grid, so the stacked pattern can be bound once per constraint structure.

:class:`SolverSession` drives the HiGHS bindings bundled with scipy
(``scipy.optimize._highspy._core``, the ones ``linprog(method="highs*")``
calls) with ``linprog``'s options and checks, presolve excepted, so its
``x`` equals ``linprog(..., options={"presolve": False})``'s bit for bit.
HiGHS's presolve reduced none of the obfuscation LPs it was run on (a
K = 7 to 70 census, every ``x`` bit-identical with it off) and took ~29%
of ``run``, so the session runs without it.  It binds the stacked
``[A_ub; A_eq]`` column-wise pattern once per
:class:`~repro.core.lp.ConstraintStructure` through :class:`StackedPattern`
and keeps one ``HighsLp`` per bound pattern (:class:`HighsModel`), into
which a solve pushes only the costs and coefficients.  Every solve is cold,
so a solve's ``x`` is a function of the LP alone and an LP cache may serve
it.  Where scipy does not ship the bindings, every solve is a ``linprog``
call with the same options.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np
from scipy.optimize import OptimizeResult, linprog
from scipy.sparse import issparse, vstack

from repro.utils.timing import Timer

try:  # the bindings linprog(method="highs*") itself calls
    from scipy.optimize._highspy import _core as _scipy_highs
except ImportError:  # pragma: no cover - scipy releases without the module
    _scipy_highs = None

#: HiGHS methods, spelled as ``linprog`` spells them, and the HiGHS
#: ``solver`` option each one sets (``None`` leaves HiGHS's choice).
_HIGHS_SOLVER_OPTION = {"highs": None, "highs-ds": "simplex", "highs-ipm": "ipm"}
HIGHS_METHODS = tuple(_HIGHS_SOLVER_OPTION)

#: The options every solve runs with, as ``linprog`` spells them: HiGHS's
#: presolve reduced none of the obfuscation LPs it was measured on, so it is
#: off, and a session's ``x`` equals ``linprog(..., options=LINPROG_OPTIONS)``'s.
LINPROG_OPTIONS = {"presolve": False}

#: ``linprog``'s post-solve feasibility tolerance (``_check_result``:
#: the square root of its default ``tol`` of 1e-9, times 10).
LINPROG_FEASIBILITY_TOL = float(np.sqrt(1e-9) * 10)


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


def _check_finite(name: str, array: np.ndarray) -> None:
    if not np.isfinite(array).all():
        raise ValueError(f"{name} must not contain values inf, nan, or None")


def _frozen(array: np.ndarray) -> bool:
    """Whether no one can write *array*'s values: read-only and owning them."""
    return not array.flags.writeable and array.flags.owndata


class HighsModel:
    """One ``HighsLp`` of scipy's bundled bindings over a bound pattern.

    The pattern's column starts and row indices are pushed once.  A solve
    pushes the costs and the current coefficients; the row and column bounds
    are pushed again only when the right-hand sides are not the same
    read-only arrays as before (a :class:`~repro.core.lp.ConstraintStructure`
    hands out the same frozen pair on every solve) or the variable bounds
    differ.  Like :func:`~scipy.optimize.linprog`, :meth:`load` raises
    :class:`ValueError` for non-finite or mis-sized data instead of handing
    it to HiGHS.
    """

    def __init__(self, pattern: StackedPattern) -> None:
        bindings = _scipy_highs
        self.pattern = pattern
        lp = bindings.HighsLp()
        lp.num_col_ = pattern.num_cols
        lp.num_row_ = pattern.num_rows
        lp.sense_ = bindings.ObjSense.kMinimize
        lp.offset_ = 0.0
        lp.a_matrix_.format_ = bindings.MatrixFormat.kColwise
        lp.a_matrix_.num_col_ = pattern.num_cols
        lp.a_matrix_.num_row_ = pattern.num_rows
        lp.a_matrix_.start_ = pattern.indptr
        lp.a_matrix_.index_ = pattern.indices
        self.lp = lp
        self._sides: Optional[Tuple[np.ndarray, np.ndarray, Tuple[float, float]]] = None

    def load(self, objective, b_ub, b_eq, bounds):
        """The model with this solve's data pushed, ready for ``passModel``."""
        pattern = self.pattern
        cost = np.asarray(objective, dtype=float)
        b_ub = np.asarray(b_ub, dtype=float)
        b_eq = np.asarray(b_eq, dtype=float)
        bounds = (float(bounds[0]), float(bounds[1]))
        if (
            cost.shape != (pattern.num_cols,)
            or b_ub.shape != (pattern.num_ub_rows,)
            or b_eq.shape != (pattern.num_rows - pattern.num_ub_rows,)
        ):
            raise ValueError("objective and right-hand sides do not match the constraint matrices")
        values = pattern.values()
        _check_finite("c", cost)
        _check_finite("A_ub/A_eq", values)
        lp = self.lp
        sides = self._sides
        if not (
            sides is not None
            and sides[0] is b_ub
            and sides[1] is b_eq
            and sides[2] == bounds
            and _frozen(b_ub)
            and _frozen(b_eq)
        ):
            _check_finite("b_ub", b_ub)
            _check_finite("b_eq", b_eq)
            lp.col_lower_ = np.full(pattern.num_cols, bounds[0])
            lp.col_upper_ = np.full(pattern.num_cols, bounds[1])
            lp.row_lower_ = np.concatenate((np.full(pattern.num_ub_rows, -_scipy_highs.kHighsInf), b_eq))
            lp.row_upper_ = np.concatenate((b_ub, b_eq))
            self._sides = (b_ub, b_eq, bounds)
        lp.col_cost_ = cost
        lp.a_matrix_.value_ = values
        return lp


def _linprog_status(model_status) -> int:
    """``linprog``'s status number for a HiGHS model status."""
    kinds = _scipy_highs.HighsModelStatus
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
    """Outcome of one LP solve.

    ``x`` is the raw variable vector (``None`` on failure); ``timings_s``
    breaks the solve into ``solve`` and ``extract`` stages.  The session
    reports its whole call, model push included, as ``solve``, on its
    bundled-HiGHS and its ``linprog`` path alike.
    """

    ok: bool
    x: Optional[np.ndarray]
    objective_value: Optional[float]
    status: str
    message: str
    iterations: Optional[int]
    timings_s: Dict[str, float]


class SolverSession:
    """Cold solves, bit-identical to ``linprog`` with presolve off, reused across congruent LPs.

    The session drives the HiGHS bindings that ``linprog`` itself calls.  It
    binds the stacked pattern once per constraint structure and keeps one
    :class:`HighsModel` for it, holds one ``_Highs`` (cleared before every
    model push, so every solve is cold), and passes ``linprog``'s options
    for the method with presolve off (:data:`LINPROG_OPTIONS`).  It keeps
    ``linprog``'s contract: non-finite data raises :class:`ValueError`, a
    solution is rechecked against the constraints within
    :data:`LINPROG_FEASIBILITY_TOL`, and statuses are ``linprog``'s numbers.
    Where scipy does not ship those bindings, every solve is a ``linprog``
    call with :data:`LINPROG_OPTIONS`.
    """

    def __init__(self) -> None:
        self._highs = None if _scipy_highs is None else _scipy_highs._Highs()
        self._model: Optional[HighsModel] = None
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
                    options=LINPROG_OPTIONS,
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
        return RawSolution(
            ok=bool(result.success),
            x=x,
            objective_value=None if result.fun is None else float(result.fun),
            status=str(result.status),
            message=str(result.message),
            iterations=iterations,
            timings_s={"solve": solve_timer.elapsed, "extract": extract_timer.elapsed},
        )

    def _linprog_options(self, solver_method: str):
        """``HighsOptions`` with exactly the settings ``linprog`` passes for :data:`LINPROG_OPTIONS`."""
        options = self._options.get(solver_method)
        if options is None:
            bindings = _scipy_highs
            options = bindings.HighsOptions()
            options.presolve = "off"
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
        bindings = _scipy_highs
        if self._model is None or not self._model.pattern.matches(a_ub, a_eq):
            self._model = HighsModel(StackedPattern.bind(a_ub, a_eq))
        lp = self._model.load(objective, b_ub, b_eq, bounds)
        highs = self._highs
        highs.clearSolver()
        highs.passOptions(self._linprog_options(solver_method))
        error = bindings.HighsStatus.kError
        if highs.passModel(lp) == error:
            model_status, ran = bindings.HighsModelStatus.kModelError, False
        else:
            ran = highs.run() != error
            model_status = highs.getModelStatus()
        status = _linprog_status(model_status)
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
            num_ub_rows = self._model.pattern.num_ub_rows
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
