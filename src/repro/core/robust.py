"""Robust obfuscation-matrix generation (Section 4.4, Algorithm 1).

After the user prunes locations, each remaining row of the matrix is
rescaled by a different factor, so a matrix that satisfied ε-Geo-Ind before
pruning may violate it afterwards.  CORGI therefore *reserves* part of the
privacy budget: for each location pair ``(i, j)`` a reserved budget
ε'_{i,j} is computed from the current matrix (Eq. 12 exactly, Eq. 14 as a
tractable upper bound) and the LP is re-solved with the tightened factor
``exp((ε - ε'_{i,j}) d_{i,j})`` (Eq. 15/16).  Algorithm 1 alternates the two
steps for ``t`` iterations.

Note on Eq. (14): the paper's displayed formula sums the top-δ entries of
row *j* while the proof of Proposition 4.5 derives the bound from the
top-δ entries of row *i* (the row whose renormalisation factor appears in
the denominator of the pruned ratio).  The proof's version is the one that
is actually sufficient, so ``basis_row="real"`` (row *i*) is the default;
``basis_row="reported"`` reproduces the printed formula and
``basis_row="max"`` takes the conservative maximum of the two.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, List, Literal, Optional, Sequence

import numpy as np

from repro.core.geoind import GeoIndConstraintSet
from repro.core.lp import ConstraintStructure, LPSolution, ObfuscationLP
from repro.core.matrix import ObfuscationMatrix
from repro.core.objective import QualityLossModel
from repro.core.solver import SolverSession
from repro.utils.logging import get_logger

if TYPE_CHECKING:  # pragma: no cover - annotations only; pipeline imports core
    from repro.pipeline.cache import MatrixCache

logger = get_logger(__name__)

BasisRow = Literal["real", "reported", "max"]

#: Row masses are clipped below 1 by this margin before taking 1/(1 - T).
_MASS_CEILING = 1.0 - 1e-9


def top_delta_row_sums(values: np.ndarray, delta: int) -> np.ndarray:
    """Largest possible pruned probability mass per row: sum of each row's top-δ entries."""
    values = np.asarray(values, dtype=float)
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    if delta == 0:
        return np.zeros(values.shape[0])
    delta = min(delta, values.shape[1])
    # partition is O(K) per row; full sort is unnecessary.
    top = np.partition(values, values.shape[1] - delta, axis=1)[:, values.shape[1] - delta:]
    return top.sum(axis=1)


def reserved_privacy_budget_approx(
    values: np.ndarray,
    distance_matrix_km: np.ndarray,
    epsilon: float,
    delta: int,
    *,
    basis_row: BasisRow = "real",
) -> np.ndarray:
    """Approximate reserved privacy budget ε'_{i,j} (Eq. 14).

    Parameters
    ----------
    values:
        Current obfuscation-matrix entries ``z_{i,l}`` of shape ``(K, K)``.
    distance_matrix_km:
        Pairwise distances ``d_{i,j}``.
    epsilon:
        Privacy budget ε in km⁻¹.
    delta:
        Maximum number of locations the user may prune.
    basis_row:
        Which row's top-δ mass feeds the bound; see the module docstring.

    Returns
    -------
    numpy.ndarray
        ``(K, K)`` matrix of reserved budgets; the diagonal is zero.
    """
    values = np.asarray(values, dtype=float)
    distances = np.asarray(distance_matrix_km, dtype=float)
    size = values.shape[0]
    if values.shape != (size, size) or distances.shape != (size, size):
        raise ValueError("values and distance matrix must be square and of equal size")
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if delta == 0:
        return np.zeros((size, size))
    mass = np.clip(top_delta_row_sums(values, delta), 0.0, _MASS_CEILING)
    if basis_row == "real":
        t = mass[:, None] * np.ones((1, size))
    elif basis_row == "reported":
        t = np.ones((size, 1)) * mass[None, :]
    elif basis_row == "max":
        t = np.maximum(mass[:, None], mass[None, :])
    else:
        raise ValueError(f"unknown basis_row {basis_row!r}")
    with np.errstate(divide="ignore", invalid="ignore"):
        attenuation = np.exp(-epsilon * distances)
        ratio = (1.0 - t * attenuation) / (1.0 - t)
        budget = np.log(ratio) / np.where(distances > 0, distances, np.inf)
    budget = np.where(distances > 0, budget, 0.0)
    np.fill_diagonal(budget, 0.0)
    return np.clip(budget, 0.0, None)


def reserved_privacy_budget_exact(
    values: np.ndarray,
    distance_matrix_km: np.ndarray,
    delta: int,
) -> np.ndarray:
    """Exact reserved privacy budget ε_{i,j} of Eq. (12) by subset enumeration.

    The maximisation ranges over every subset ``S`` of at most δ columns, so
    the cost is ``O(K^δ)`` per pair — usable only for the small instances in
    the tests and the ablation benchmark, exactly the reason the paper
    introduces the approximation of Eq. (14).
    """
    values = np.asarray(values, dtype=float)
    distances = np.asarray(distance_matrix_km, dtype=float)
    size = values.shape[0]
    if delta < 0:
        raise ValueError(f"delta must be non-negative, got {delta}")
    budget = np.zeros((size, size))
    if delta == 0:
        return budget
    delta = min(delta, size)
    # remaining[r, s] = 1 - min(Σ_{l ∈ S_s} z_{r,l}, ceiling): the row mass
    # left after pruning subset S_s.  Subsets are enumerated in the same
    # order as itertools.combinations by increasing cardinality; summing the
    # gathered (K, S_c, c) block over its last axis adds the same elements in
    # the same order as the scalar loop did, keeping results bit-identical.
    remaining_blocks = []
    for cardinality in range(1, delta + 1):
        subsets_c = np.fromiter(
            itertools.chain.from_iterable(itertools.combinations(range(size), cardinality)),
            dtype=np.intp,
        ).reshape(-1, cardinality)
        remaining_blocks.append(values[:, subsets_c].sum(axis=2))
    remaining = 1.0 - np.minimum(np.concatenate(remaining_blocks, axis=1), _MASS_CEILING)
    valid = distances > 0
    np.fill_diagonal(valid, False)
    for i in range(size):
        # best[j] = max_S (1 - removed_j) / (1 - removed_i): shape (K,).
        best = np.maximum((remaining / remaining[i]).max(axis=1), 1.0)
        row = np.where(valid[i], np.log(best), 0.0)
        budget[i] = np.divide(row, distances[i], out=row, where=valid[i])
    return budget


@dataclass
class RobustGenerationResult:
    """Outcome of Algorithm 1.

    Attributes
    ----------
    matrix:
        The final robust obfuscation matrix Z_t.
    objective_history:
        Quality loss Δ(Z) after every LP solve; index 0 is the non-robust
        matrix of Eq. (8), later entries correspond to Algorithm 1
        iterations (this is the series plotted in Fig. 9(a)(b)).
    objective_differences:
        Consecutive differences of the history (Fig. 9(c)(d)).
    reserved_budget:
        The final reserved-privacy-budget matrix ε'.
    iterations_run:
        Number of robust iterations actually executed.
    converged:
        Whether the last consecutive difference fell below the tolerance.
    solve_times_s:
        Wall-clock LP time per solve, in seconds.
    solutions:
        The per-iteration :class:`LPSolution` diagnostics.
    """

    matrix: ObfuscationMatrix
    objective_history: List[float]
    reserved_budget: np.ndarray
    iterations_run: int
    converged: bool
    solve_times_s: List[float] = field(default_factory=list)
    solutions: List[LPSolution] = field(default_factory=list)

    @property
    def objective_differences(self) -> List[float]:
        """Differences of consecutive objective values (Fig. 9(c)(d) series)."""
        history = self.objective_history
        return [history[index] - history[index - 1] for index in range(1, len(history))]


class RobustMatrixGenerator:
    """Algorithm 1: iterative generation of a δ-prunable obfuscation matrix.

    Parameters
    ----------
    node_ids, distance_matrix_km, quality_model, epsilon:
        As for :class:`repro.core.lp.ObfuscationLP`.
    delta:
        Robustness budget δ (maximum locations the user may prune).
    constraint_set:
        Geo-Ind constraint pairs (pass a graph-approximation constraint set
        for the efficient formulation).
    max_iterations:
        The paper's ``t`` (they terminate after 10 iterations; convergence is
        observed by iteration ~4).  Zero is legal only for ``delta == 0``:
        with no robust iteration no budget is reserved, so a δ > 0 request
        would get the non-robust matrix labelled δ-robust.
    convergence_tol:
        Absolute tolerance on the consecutive objective difference used to
        report convergence (and to stop early when *stop_on_convergence*).
    stop_on_convergence:
        Stop before ``max_iterations`` once converged.  Off by default to
        mirror the paper's fixed-iteration loop.
    rpb_method:
        ``"approx"`` (Eq. 14, default) or ``"exact"`` (Eq. 12, exponential).
    basis_row:
        Passed through to :func:`reserved_privacy_budget_approx`.
    solver_method:
        HiGHS method, spelled as ``linprog`` spells it, used for every
        solve (ignored by the native backend, which always runs dual
        simplex).
    solver_backend:
        Solver backend choice (``"auto"`` / ``"scipy"`` /
        ``"highs-native"``); see :mod:`repro.core.solver`.  One
        :class:`~repro.core.solver.SolverSession` is reused across all
        ``t + 1`` solves of Algorithm 1, so the native backend re-solves
        warm from the previous iteration's optimal basis.
    structure:
        Optional shared :class:`~repro.core.lp.ConstraintStructure`; when
        omitted the LP builds (and reuses) its own across the ``t``
        iterations.
    session:
        Optional shared :class:`~repro.core.solver.SolverSession` (e.g.
        the pipeline executor's per-worker session); when omitted the LP
        creates its own.
    lp_cache:
        Optional LP solution cache, passed to
        :class:`~repro.core.lp.ObfuscationLP`: a repeated LP (the
        non-robust start another run already solved, or the iteration after
        an exact fixed point) is then not solved again.
    """

    def __init__(
        self,
        node_ids: Sequence[str],
        distance_matrix_km: np.ndarray,
        quality_model: QualityLossModel,
        epsilon: float,
        delta: int,
        *,
        constraint_set: Optional[GeoIndConstraintSet] = None,
        max_iterations: int = 10,
        convergence_tol: float = 1e-3,
        stop_on_convergence: bool = False,
        rpb_method: Literal["approx", "exact"] = "approx",
        basis_row: BasisRow = "real",
        solver_method: str = "highs",
        solver_backend: str = "auto",
        structure: Optional["ConstraintStructure"] = None,
        session: Optional["SolverSession"] = None,
        level: int = 0,
        lp_cache: Optional["MatrixCache"] = None,
    ) -> None:
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        if max_iterations < 0:
            raise ValueError(f"max_iterations must be non-negative, got {max_iterations}")
        if delta > 0 and max_iterations == 0:
            raise ValueError(
                f"delta={delta} needs at least one robust iteration to reserve a budget; "
                "max_iterations=0 would serve the non-robust matrix"
            )
        if rpb_method not in ("approx", "exact"):
            raise ValueError(f"unknown rpb_method {rpb_method!r}")
        self.lp = ObfuscationLP(
            node_ids,
            distance_matrix_km,
            quality_model,
            epsilon,
            constraint_set=constraint_set,
            level=level,
            structure=structure,
            solver_backend=solver_backend,
            session=session,
            lp_cache=lp_cache,
        )
        self.solver_method = str(solver_method)
        self.quality_model = quality_model
        self.distance_matrix_km = np.asarray(distance_matrix_km, dtype=float)
        self.epsilon = float(epsilon)
        self.delta = int(delta)
        self.max_iterations = int(max_iterations)
        self.convergence_tol = float(convergence_tol)
        self.stop_on_convergence = bool(stop_on_convergence)
        self.rpb_method = rpb_method
        self.basis_row: BasisRow = basis_row

    def _reserved_budget(self, values: np.ndarray) -> np.ndarray:
        if self.rpb_method == "exact":
            return reserved_privacy_budget_exact(values, self.distance_matrix_km, self.delta)
        return reserved_privacy_budget_approx(
            values,
            self.distance_matrix_km,
            self.epsilon,
            self.delta,
            basis_row=self.basis_row,
        )

    def generate(self) -> RobustGenerationResult:
        """Run Algorithm 1 and return the robust matrix with its convergence trace."""
        solutions: List[LPSolution] = []
        objective_history: List[float] = []
        solve_times: List[float] = []

        initial = self.lp.solve_nonrobust(solver_method=self.solver_method)
        solutions.append(initial)
        objective_history.append(initial.objective_value)
        solve_times.append(initial.solve_time_s)
        current = initial.matrix
        reserved = np.zeros_like(self.distance_matrix_km)
        converged = False
        iterations_run = 0

        if self.delta == 0:
            # A delta of zero degenerates to the non-robust matrix.
            current.delta = self.delta
            return RobustGenerationResult(
                matrix=current,
                objective_history=objective_history,
                reserved_budget=reserved,
                iterations_run=0,
                converged=True,
                solve_times_s=solve_times,
                solutions=solutions,
            )

        for iteration in range(1, self.max_iterations + 1):
            reserved = self._reserved_budget(current.values)
            solution = self.lp.solve(
                reserved_budget=reserved, delta=self.delta, solver_method=self.solver_method
            )
            solutions.append(solution)
            objective_history.append(solution.objective_value)
            solve_times.append(solution.solve_time_s)
            current = solution.matrix
            iterations_run = iteration
            difference = abs(objective_history[-1] - objective_history[-2])
            converged = difference <= self.convergence_tol
            logger.debug(
                "robust iteration %d: objective %.6f km (difference %.6f)",
                iteration,
                objective_history[-1],
                difference,
            )
            if converged and self.stop_on_convergence:
                break

        current.delta = self.delta
        current.metadata["iterations"] = iterations_run
        current.metadata["rpb_method"] = self.rpb_method
        return RobustGenerationResult(
            matrix=current,
            objective_history=objective_history,
            reserved_budget=reserved,
            iterations_run=iterations_run,
            converged=converged,
            solve_times_s=solve_times,
            solutions=solutions,
        )
