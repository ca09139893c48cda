"""The non-robust LP baseline (the paper's "non-robust" comparison).

This is the standard optimal geo-obfuscation formulation of Bordenabe et
al. / Wang et al. / Qiu et al. ([17–19] in the paper): minimise the expected
quality loss subject to ε-Geo-Ind and row stochasticity — i.e. exactly
Eq. (8) with no reserved privacy budget (δ = 0).  The matrix is optimal when
used as-is but offers no protection against the user subsequently pruning
locations, which is precisely the gap Fig. 12 quantifies.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.baselines.base import ObfuscationMechanism
from repro.core.geoind import GeoIndConstraintSet
from repro.core.lp import ConstraintStructure, LPSolution, ObfuscationLP
from repro.core.matrix import ObfuscationMatrix
from repro.core.objective import QualityLossModel
from repro.utils.rng import RandomState


class NonRobustLPMechanism(ObfuscationMechanism):
    """Optimal (quality-loss minimising) ε-Geo-Ind mechanism without robustness.

    Parameters
    ----------
    node_ids:
        Location identifiers, in matrix order.
    distance_matrix_km:
        Pairwise distances ``d_{i,j}`` used in the Geo-Ind constraints.
    quality_model:
        Quality-loss model providing the LP objective.
    epsilon:
        Privacy budget ε in km⁻¹.
    constraint_set:
        Optional constraint pairs (pass a graph-approximation set for the
        efficient O(K²) formulation).
    solver_method:
        HiGHS method, spelled as ``linprog`` spells it.
    structure:
        Optional shared :class:`~repro.core.lp.ConstraintStructure` (e.g.
        one structure reused across every point of an ε sweep).
    """

    name = "non-robust"

    def __init__(
        self,
        node_ids: Sequence[str],
        distance_matrix_km: np.ndarray,
        quality_model: QualityLossModel,
        epsilon: float,
        *,
        constraint_set: Optional[GeoIndConstraintSet] = None,
        solver_method: str = "highs",
        structure: Optional[ConstraintStructure] = None,
        level: int = 0,
    ) -> None:
        super().__init__(node_ids)
        self._lp = ObfuscationLP(
            node_ids,
            distance_matrix_km,
            quality_model,
            epsilon,
            constraint_set=constraint_set,
            level=level,
            structure=structure,
        )
        self._solver_method = solver_method
        self._solution: Optional[LPSolution] = None

    @property
    def solution(self) -> LPSolution:
        """The LP solution, solving lazily on first access."""
        if self._solution is None:
            self._solution = self._lp.solve_nonrobust(solver_method=self._solver_method)
        return self._solution

    @property
    def matrix(self) -> ObfuscationMatrix:
        """The optimal non-robust obfuscation matrix."""
        return self.solution.matrix

    def to_matrix(self, *, num_samples: int = 0, seed: RandomState = None) -> ObfuscationMatrix:
        """Return the exact LP matrix (sampling arguments are ignored)."""
        return self.matrix

    def obfuscate(self, real_id: str, seed: RandomState = None) -> str:
        """Sample a reported location from the optimal matrix's row for *real_id*."""
        return self.matrix.sample(real_id, seed=seed)

    @property
    def objective_value(self) -> float:
        """Expected quality loss Δ(Z) of the optimal matrix (km)."""
        return self.solution.objective_value
