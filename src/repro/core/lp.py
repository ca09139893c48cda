"""Linear-programming formulation of obfuscation-matrix generation.

The non-robust matrix of Eq. (8) minimises the expected quality loss Δ(Z)
subject to (a) the probability unit measure per row (Eq. 5) and (b) the
ε-Geo-Ind inequality per constrained location pair and matrix column
(Eq. 4).  The robust matrix of Eq. (16) keeps the same objective and
equality constraints but tightens every inequality with the reserved
privacy budget ε'_{i,j} (Eq. 15).  Both are instances of the same LP; the
only difference is the effective ε used per pair, so one builder serves
both, taking an optional reserved-privacy-budget matrix.

The LP is solved through a :class:`~repro.core.solver.SolverSession` on
scipy's bundled HiGHS, bit-identical to ``linprog`` (see
:mod:`repro.core.solver`).  Constraints are assembled as sparse matrices:
with the graph approximation the problem has ``K²`` variables, ``K``
equality rows and ``~24·K·K`` inequality rows — a few tens of thousands of
rows for the paper's K = 49, well within HiGHS territory.

Constraint assembly is split into a one-time *structural* part and a cheap
per-iteration *coefficient refresh* (:class:`ConstraintStructure`).  The
sparse row/column index pattern, the equality block and the objective
vector depend only on the location set and the constraint pairs; between
the ``t`` solves of Algorithm 1 (and across an ε/δ sweep over the same
location set) only the ``e^{ε_eff·d}`` coefficients change, so the CSC
matrix is built once and its data vector is rewritten in place.

Many LPs repeat byte for byte: a δ = 0 forest's LPs are the non-robust
starts of every δ ≥ 1 forest at the same ε, an exact fixed point of
Algorithm 1 makes every later iteration solve the same LP, and once every
pair budget clamps the robust LP no longer depends on ε or δ.  An optional
LP cache (the serving engine's ``lp_cache``) maps a digest of what defines
the LP — K, the constraint pairs, the objective, the clamped per-pair
factors and the solver method — to the solver's ``x``.  Every solve is
cold, so its ``x`` is a function of the LP alone and a hit returns the bits
the solver would have returned.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Dict, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import coo_matrix

from repro.core.exceptions import InfeasibleMatrixError
from repro.core.geoind import GeoIndConstraintSet, all_pairs_constraints
from repro.core.matrix import ObfuscationMatrix
from repro.core.objective import QualityLossModel
from repro.core.solver import RawSolution, SolverSession
from repro.utils.timing import Timer

if TYPE_CHECKING:  # pragma: no cover - annotations only; pipeline imports core
    from repro.pipeline.cache import MatrixCache

#: Effective ε (km⁻¹) is clamped to at least this value so that a reserved
#: budget larger than ε cannot flip the constraint direction.
MIN_EFFECTIVE_EPSILON = 1e-6


class ConstraintStructure:
    """Reusable structural part of the obfuscation-LP constraint system.

    The sparsity pattern of ``A_ub`` (one ``+1`` entry on ``z_{i,k}`` and one
    ``-e^{ε_eff d}`` entry on ``z_{j,k}`` per pair/column), the equality
    block ``A_eq`` and the right-hand sides depend only on ``(K,
    constraint_set)`` — not on ε, δ or the reserved budget.  Building the
    index arrays and the CSC conversion is the dominant cost of a cold
    ``A_ub`` assembly, so this class does it exactly once;
    :meth:`inequality_matrix` then refreshes only the coefficient data in
    place.

    One structure can be shared by every :class:`ObfuscationLP` over the
    same location set — all ``t`` robust iterations of Algorithm 1 and all
    points of an ε/δ sweep.
    """

    def __init__(self, size: int, constraint_set: GeoIndConstraintSet) -> None:
        self.size = int(size)
        if self.size <= 0:
            raise ValueError(f"size must be positive, got {size}")
        self.constraint_set = constraint_set
        pairs = constraint_set.pairs
        self.num_pairs = int(pairs.shape[0])
        self.num_inequality_rows = self.num_pairs * self.size
        size = self.size
        with Timer() as timer:
            columns = np.tile(np.arange(size), self.num_pairs)
            row_indices = np.arange(self.num_inequality_rows)
            i_vars = np.repeat(pairs[:, 0], size) * size + columns
            j_vars = np.repeat(pairs[:, 1], size) * size + columns
            rows = np.concatenate([row_indices, row_indices])
            cols = np.concatenate([i_vars, j_vars])
            nnz = rows.shape[0]
            # Build the CSC matrix once with 1-based entry numbers as data so
            # the conversion tells us where each COO entry landed; afterwards
            # only `.data` is rewritten.  (i ≠ j for every pair, so no two
            # entries share a (row, col) slot and the conversion never merges.)
            template = coo_matrix(
                (np.arange(1, nnz + 1, dtype=float), (rows, cols)),
                shape=(self.num_inequality_rows, size * size),
            ).tocsc()
            self._csc_positions = template.data.astype(np.int64) - 1
            self._a_ub = template
            self._coo_rows = rows
            self._coo_cols = cols
            self._ones = np.ones(self.num_inequality_rows)
            self._scratch = np.empty(nnz)
            eq_rows = np.repeat(np.arange(size), size)
            eq_cols = np.arange(size * size)
            self.a_eq = coo_matrix(
                (np.ones(size * size), (eq_rows, eq_cols)), shape=(size, size * size)
            ).tocsr()
            # Read-only: a solver session keeps its HiGHS model's row bounds
            # while it is handed these same arrays.
            self.b_ub = np.zeros(self.num_inequality_rows)
            self.b_eq = np.ones(size)
            self.b_ub.flags.writeable = False
            self.b_eq.flags.writeable = False
        self.build_time_s = timer.elapsed
        self.refresh_count = 0

    def compatible_with(self, size: int, constraint_set: GeoIndConstraintSet) -> bool:
        """Whether this structure was built for the given problem geometry."""
        if size != self.size:
            return False
        if constraint_set is self.constraint_set:
            return True
        return bool(
            constraint_set.pairs.shape == self.constraint_set.pairs.shape
            and np.array_equal(constraint_set.pairs, self.constraint_set.pairs)
        )

    def inequality_matrix(self, factors: np.ndarray):
        """``A_ub`` with the per-pair factors ``e^{ε_eff d}`` written in place.

        The returned CSC matrix is owned by the structure and is overwritten
        by the next refresh; callers that need to retain it must copy.
        """
        factors = np.asarray(factors, dtype=float)
        if factors.shape != (self.num_pairs,):
            raise ValueError(
                f"expected {self.num_pairs} per-pair factors, got shape {factors.shape}"
            )
        scratch = self._scratch
        half = self._ones.shape[0]
        scratch[:half] = self._ones
        np.negative(np.repeat(factors, self.size), out=scratch[half:])
        self._a_ub.data[:] = scratch[self._csc_positions]
        self.refresh_count += 1
        return self._a_ub


@dataclass
class LPSolution:
    """Outcome of one LP solve.

    Attributes
    ----------
    matrix:
        The optimal obfuscation matrix.
    objective_value:
        The minimised expected quality loss Δ(Z), in km.
    status:
        Solver status string (``"optimal"`` on success).
    solve_time_s:
        Wall-clock seconds spent inside the solver's solve call (the
        ``solve`` stage of ``diagnostics["solve_breakdown_s"]``).
    num_variables, num_inequality_constraints, num_equality_constraints:
        Problem dimensions, used by the Fig. 10 experiments.
    """

    matrix: ObfuscationMatrix
    objective_value: float
    status: str
    solve_time_s: float
    num_variables: int
    num_inequality_constraints: int
    num_equality_constraints: int
    diagnostics: Dict[str, object] = field(default_factory=dict)


class ObfuscationLP:
    """Builder/solver for the obfuscation-matrix linear program.

    Parameters
    ----------
    node_ids:
        Identifiers of the K locations, in matrix order.
    distance_matrix_km:
        ``(K, K)`` distances ``d_{i,j}`` used in the Geo-Ind constraints when
        the constraint set does not carry its own distances.
    quality_model:
        Pre-computed quality-loss model providing the LP objective.
    epsilon:
        Privacy budget ε in km⁻¹.
    constraint_set:
        Which ordered pairs to constrain.  Defaults to every ordered pair
        (the O(K³) formulation); pass the result of
        :meth:`repro.core.graphapprox.HexNeighborhoodGraph.constraint_set`
        for the O(K²) graph approximation.
    level:
        Tree level recorded on the produced matrices.
    structure:
        Optional pre-built :class:`ConstraintStructure` to reuse (e.g. one
        structure shared across every point of an ε/δ sweep over the same
        location set).  When omitted, a structure is built lazily on the
        first solve and reused by later solves of this instance.
    session:
        Optional pre-built :class:`~repro.core.solver.SolverSession` to
        reuse (e.g. one per worker thread, shared with the structure
        across every point of a sweep).  When omitted, a session is
        created lazily on the first solve and reused by later solves of
        this instance, so the stacked pattern is bound once.
    lp_cache:
        Optional :class:`~repro.pipeline.cache.MatrixCache` of solutions
        keyed by LP content (see the module docstring), shared by every
        LP its owner solves; ``None`` solves every LP.
    """

    def __init__(
        self,
        node_ids: Sequence[str],
        distance_matrix_km: np.ndarray,
        quality_model: QualityLossModel,
        epsilon: float,
        *,
        constraint_set: Optional[GeoIndConstraintSet] = None,
        level: int = 0,
        structure: Optional[ConstraintStructure] = None,
        session: Optional[SolverSession] = None,
        lp_cache: Optional["MatrixCache"] = None,
    ) -> None:
        if epsilon <= 0:
            raise ValueError(f"epsilon must be positive, got {epsilon}")
        self.node_ids = [str(node_id) for node_id in node_ids]
        self.size = len(self.node_ids)
        if self.size == 0:
            raise ValueError("node_ids must not be empty")
        self.distance_matrix_km = np.asarray(distance_matrix_km, dtype=float)
        if self.distance_matrix_km.shape != (self.size, self.size):
            raise ValueError(
                f"distance matrix shape {self.distance_matrix_km.shape} does not match {self.size} nodes"
            )
        if quality_model.size != self.size:
            raise ValueError(
                f"quality model covers {quality_model.size} locations but {self.size} node ids were given"
            )
        self.quality_model = quality_model
        self.epsilon = float(epsilon)
        if constraint_set is None and structure is not None:
            constraint_set = structure.constraint_set
        self.constraint_set = constraint_set or all_pairs_constraints(self.distance_matrix_km)
        self.level = level
        self._structure: Optional[ConstraintStructure] = None
        self._structure_shared = False
        if structure is not None:
            if not structure.compatible_with(self.size, self.constraint_set):
                raise ValueError(
                    "shared ConstraintStructure was built for a different location set "
                    f"(size {structure.size}, {structure.num_pairs} pairs)"
                )
            self._structure = structure
            self._structure_shared = True
        self._session: Optional[SolverSession] = session
        self._session_shared = session is not None
        self._lp_cache = lp_cache
        self._objective = quality_model.objective_vector()
        self._objective.flags.writeable = False
        self._key_prefixes: Dict[str, hashlib.blake2b] = {}

    # ------------------------------------------------------------------ #
    # Problem construction
    # ------------------------------------------------------------------ #

    @property
    def num_variables(self) -> int:
        """Number of LP variables (K²)."""
        return self.size * self.size

    @property
    def num_inequality_constraints(self) -> int:
        """Number of Geo-Ind inequality rows (pairs × columns)."""
        return self.constraint_set.num_pairs * self.size

    @property
    def structure(self) -> ConstraintStructure:
        """The (lazily built) structural part of the constraint system."""
        if self._structure is None:
            self._structure = ConstraintStructure(self.size, self.constraint_set)
        return self._structure

    def session(self) -> SolverSession:
        """The (lazily built) solver session, reused across solves."""
        if self._session is None:
            self._session = SolverSession()
        return self._session

    def effective_epsilons(self, reserved_budget: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-pair effective ε after subtracting the reserved budget ε'_{i,j}.

        Values are clamped to :data:`MIN_EFFECTIVE_EPSILON`.  A clamp signals
        that δ is too aggressive for the requested ε (Section 5.3's
        infeasible-customization discussion), so :meth:`solve` records the
        number of clamped pairs in ``diagnostics["clamped_pairs"]``.
        """
        return self._effective_epsilons(reserved_budget)[0]

    def _effective_epsilons(self, reserved_budget: Optional[np.ndarray]) -> Tuple[np.ndarray, int]:
        """The clamped per-pair effective ε and the number of pairs clamped."""
        pairs = self.constraint_set.pairs
        epsilons = np.full(pairs.shape[0], self.epsilon)
        if reserved_budget is not None:
            budget = np.asarray(reserved_budget, dtype=float)
            if budget.shape != (self.size, self.size):
                raise ValueError(
                    f"reserved budget must have shape {(self.size, self.size)}, got {budget.shape}"
                )
            epsilons = self.epsilon - budget[pairs[:, 0], pairs[:, 1]]
        num_clamped = int((epsilons < MIN_EFFECTIVE_EPSILON).sum())
        return np.maximum(epsilons, MIN_EFFECTIVE_EPSILON), num_clamped

    def build_inequalities(self, reserved_budget: Optional[np.ndarray] = None):
        """Sparse ``A_ub`` for ``z_{i,k} - e^{ε_eff d_{i,j}} z_{j,k} <= 0``.

        Row ``t = p * size + k`` corresponds to pair ``p``, column ``k``.  The
        index pattern comes from the cached :attr:`structure`; only the
        ``e^{ε_eff d}`` coefficients are recomputed.  The returned CSC matrix
        is shared with the structure and overwritten by the next call.
        """
        distances = self.constraint_set.distances_km
        factors = np.exp(self.effective_epsilons(reserved_budget) * distances)
        return self.structure.inequality_matrix(factors)

    def _lp_key(self, factors: np.ndarray, solver_method: str) -> str:
        """Digest of everything that defines the LP a session is handed.

        The constraint pattern and right-hand sides are functions of K and
        the pairs, and the coefficients of the per-pair factors, so these
        inputs and the objective fix the LP byte for byte.  The digest of the
        method, K, the pairs and the objective is taken once per method.
        """
        prefix = self._key_prefixes.get(solver_method)
        if prefix is None:
            prefix = hashlib.blake2b(f"{solver_method}|{self.size}".encode(), digest_size=20)
            for array in (self.constraint_set.pairs, self._objective):
                _digest_array(prefix, array)
            self._key_prefixes[solver_method] = prefix
        digest = prefix.copy()
        _digest_array(digest, factors)
        return digest.hexdigest()

    def build_equalities(self):
        """Sparse ``A_eq`` for the row-stochasticity constraints (Eq. 5)."""
        return self.structure.a_eq

    # ------------------------------------------------------------------ #
    # Solving
    # ------------------------------------------------------------------ #

    def solve(
        self,
        reserved_budget: Optional[np.ndarray] = None,
        *,
        delta: int = 0,
        solver_method: str = "highs",
    ) -> LPSolution:
        """Solve the LP and return the optimal obfuscation matrix.

        With an LP cache, the LP's digest is looked up first; a hit skips
        the coefficient refresh and the solver call and takes the cached
        ``x``, and a successful solve is stored.  Every step after the
        solver (the clip, the all-zero-row refusal and the matrix
        validation) runs on either ``x``.  Failed solves are not cached.
        ``diagnostics["lp_cache_hit"]`` says which path ran.

        Parameters
        ----------
        reserved_budget:
            Optional ``(K, K)`` reserved-privacy-budget matrix ε'_{i,j}
            (Eq. 14).  ``None`` solves the plain non-robust problem of
            Eq. (8).
        delta:
            Recorded on the produced matrix (provenance only).
        solver_method:
            HiGHS method, spelled as ``linprog`` spells it.

        Raises
        ------
        InfeasibleMatrixError
            If the solver reports infeasibility or fails to converge, or if
            it returns a degenerate all-zero probability row (which would
            turn into NaNs under row normalization).
        """
        structure = self.structure
        structure_was_fresh = structure.refresh_count == 0
        cache = self._lp_cache
        with Timer() as refresh_timer:
            epsilons, clamped_pairs = self._effective_epsilons(reserved_budget)
            factors = np.exp(epsilons * self.constraint_set.distances_km)
            key = None if cache is None else self._lp_key(factors, solver_method)
            raw: Optional[RawSolution] = None if cache is None else cache.get(key)
            if raw is None:
                a_ub = structure.inequality_matrix(factors)
        cache_hit = raw is not None
        if not cache_hit:
            raw = self.session().solve(
                self._objective,
                a_ub,
                structure.b_ub,
                structure.a_eq,
                structure.b_eq,
                bounds=(0.0, 1.0),
                solver_method=solver_method,
            )
            if not raw.ok:
                raise InfeasibleMatrixError(
                    f"LP solve failed with status {raw.status}: {raw.message}",
                    solver_status=raw.status,
                )
            if cache is not None:
                cache.put(key, _cacheable(raw))
        with Timer() as extract_timer:
            values = np.asarray(raw.x, dtype=float).reshape(self.size, self.size)
            # Clean up tiny numerical noise so downstream validation is strict.
            values = np.clip(values, 0.0, None)
            row_sums = values.sum(axis=1, keepdims=True)
            zero_rows = np.flatnonzero(row_sums[:, 0] <= 0.0)
            if zero_rows.size:
                raise InfeasibleMatrixError(
                    f"solver returned an all-zero probability row after clipping "
                    f"(row {int(zero_rows[0])} of {self.size}; {zero_rows.size} such "
                    "rows); refusing to normalize into a NaN matrix",
                    solver_status=raw.status,
                )
            values = values / row_sums
        matrix = ObfuscationMatrix(
            values=values,
            node_ids=self.node_ids,
            level=self.level,
            epsilon=self.epsilon,
            delta=delta,
            metadata={
                "objective_value": float(raw.objective_value),
                "constraint_description": self.constraint_set.description,
                "robust": reserved_budget is not None,
            },
        )
        breakdown = dict(raw.timings_s)
        breakdown["refresh"] = refresh_timer.elapsed
        breakdown["extract"] = breakdown.get("extract", 0.0) + extract_timer.elapsed
        return LPSolution(
            matrix=matrix,
            objective_value=float(raw.objective_value),
            status="optimal",
            solve_time_s=breakdown["solve"],
            num_variables=self.num_variables,
            num_inequality_constraints=structure.num_inequality_rows,
            num_equality_constraints=self.size,
            diagnostics={
                "lp_cache_hit": cache_hit,
                "clamped_pairs": clamped_pairs,
                "solver_status": raw.status,
                "scipy_status": _int_or_none(raw.status),
                "iterations": raw.iterations,
                "solve_breakdown_s": breakdown,
                "matrix_build_time_s": refresh_timer.elapsed,
                "structure_build_time_s": structure.build_time_s,
                "structure_refresh_count": structure.refresh_count,
                "structure_reused": not structure_was_fresh,
                "structure_shared": self._structure_shared,
                "session_shared": self._session_shared,
            },
        )

    def solve_nonrobust(self, *, solver_method: str = "highs") -> LPSolution:
        """Solve the plain Eq. (8) problem (the paper's non-robust baseline)."""
        return self.solve(reserved_budget=None, delta=0, solver_method=solver_method)


#: Stage times of a solution served from the LP cache: no stage ran.
_NO_SOLVER_TIME = {"solve": 0.0, "extract": 0.0}


def _digest_array(digest, array: np.ndarray) -> None:
    array = np.ascontiguousarray(array)
    digest.update(f"|{array.dtype.str}{array.shape}|".encode())
    digest.update(array.data)


def _cacheable(raw: RawSolution) -> RawSolution:
    """What the LP cache keeps of a solve: its answer, read-only, without stage times."""
    x = np.array(raw.x, dtype=float)
    x.flags.writeable = False
    return replace(raw, x=x, timings_s=_NO_SOLVER_TIME)


def _int_or_none(status: str) -> Optional[int]:
    """Numeric scipy status when the solver reports one (kept for dashboards)."""
    try:
        return int(status)
    except (TypeError, ValueError):
        return None
