"""Quality loss / utility model (Eqs. 3, 6 and 7).

The utility of reporting an obfuscated location is measured through the
estimation error of travelling distance: if the user is really at ``v_i``,
reports ``v_l`` and the service needs the distance to a target ``v_n`` (a
pick-up point, a restaurant, ...), the error is

    U(v_i, v_l, v_n) = | d(v_i, v_n) - d(v_l, v_n) |          (Eq. 3)

with ``d`` the haversine distance.  Averaging over the prior of real
locations, the rows of the matrix and a distribution over targets gives the
expected quality loss Δ(Z) of Eqs. (6)–(7), which is the LP objective.

Because Δ(Z) is linear in the matrix entries, the whole model reduces to a
cost matrix ``C`` with ``C[i, l] = Σ_n Pr(Q = v_n) U(v_i, v_l, v_n)`` and
``Δ(Z) = Σ_i p_i Σ_l z_{i,l} C[i, l]``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.matrix import ObfuscationMatrix
from repro.geometry.haversine import haversine_matrix_km
from repro.utils.rng import RandomState, as_rng
from repro.utils.validation import ensure_probability_vector


def estimation_error_km(
    real: Tuple[float, float],
    reported: Tuple[float, float],
    target: Tuple[float, float],
) -> float:
    """Single-triple utility ``U(v_i, v_l, v_n)`` of Eq. (3), in km."""
    from repro.geometry.haversine import haversine_km

    real_to_target = haversine_km(real[0], real[1], target[0], target[1])
    reported_to_target = haversine_km(reported[0], reported[1], target[0], target[1])
    return abs(real_to_target - reported_to_target)


@dataclass
class TargetDistribution:
    """A finite set of service target locations with selection probabilities.

    The paper samples ``NR_TARGET = 49`` targets uniformly from the leaf
    nodes; :meth:`sample_from_centers` reproduces that workload while custom
    distributions (e.g. popularity-weighted pick-up points) can be supplied
    directly.
    """

    locations: List[Tuple[float, float]]
    probabilities: np.ndarray

    def __post_init__(self) -> None:
        self.locations = [(float(lat), float(lng)) for lat, lng in self.locations]
        self.probabilities = ensure_probability_vector(
            np.asarray(self.probabilities, dtype=float), "target probabilities", normalize=True
        )
        if len(self.locations) != self.probabilities.shape[0]:
            raise ValueError("locations and probabilities must have the same length")

    @property
    def size(self) -> int:
        """Number of target locations."""
        return len(self.locations)

    @classmethod
    def uniform(cls, locations: Sequence[Tuple[float, float]]) -> "TargetDistribution":
        """Uniform distribution over the given target locations."""
        count = len(locations)
        if count == 0:
            raise ValueError("at least one target location is required")
        return cls(list(locations), np.full(count, 1.0 / count))

    @classmethod
    def sample_from_centers(
        cls,
        centers: Sequence[Tuple[float, float]],
        num_targets: int,
        seed: RandomState = None,
        *,
        weights: Optional[Sequence[float]] = None,
    ) -> "TargetDistribution":
        """Sample ``num_targets`` targets (with replacement) from candidate centres.

        This reproduces the paper's workload of targets "randomly selected
        from a list of leaf nodes".
        """
        if num_targets <= 0:
            raise ValueError(f"num_targets must be positive, got {num_targets}")
        if not centers:
            raise ValueError("centers must not be empty")
        rng = as_rng(seed)
        if weights is not None:
            probabilities = ensure_probability_vector(
                np.asarray(weights, dtype=float), "weights", normalize=True
            )
        else:
            probabilities = np.full(len(centers), 1.0 / len(centers))
        indices = rng.choice(len(centers), size=num_targets, p=probabilities)
        chosen = [centers[int(index)] for index in indices]
        return cls.uniform(chosen)


class LinearQualityModel:
    """A linear quality-loss model given directly by its cost matrix.

    This is the minimal interface the LP layer needs: a ``(K, K)`` cost
    matrix ``C`` and a prior ``p`` such that ``Δ(Z) = Σ_i p_i Σ_l z_{i,l}
    C[i, l]``.  :class:`QualityLossModel` derives the cost matrix from
    centres/targets; this base class lets the matrix-generation pipeline
    rebuild an identical objective from plain arrays (e.g. in a worker
    process or from a cache entry) without re-computing haversine distances.

    Parameters
    ----------
    cost_matrix:
        ``(K, K)`` array with ``C[i, l]`` the expected error of reporting
        ``v_l`` from ``v_i``, in km.
    priors:
        Prior probability of each real location (defaults to uniform).
    """

    def __init__(
        self,
        cost_matrix: np.ndarray,
        priors: Optional[Sequence[float]] = None,
    ) -> None:
        cost = np.asarray(cost_matrix, dtype=float)
        if cost.ndim != 2 or cost.shape[0] != cost.shape[1] or cost.shape[0] == 0:
            raise ValueError(f"cost matrix must be square and non-empty, got shape {cost.shape}")
        size = cost.shape[0]
        if priors is None:
            self.priors = np.full(size, 1.0 / size)
        else:
            self.priors = ensure_probability_vector(
                np.asarray(priors, dtype=float), "priors", normalize=True
            )
            if self.priors.shape[0] != size:
                raise ValueError(
                    f"priors must have one entry per centre ({size}), got {self.priors.shape[0]}"
                )
        self._cost = cost

    @property
    def cost_matrix(self) -> np.ndarray:
        """``C[i, l] = E_Q |d(v_i, Q) - d(v_l, Q)|`` in km (read-only view)."""
        return self._cost

    @property
    def size(self) -> int:
        """Number of candidate locations K."""
        return self._cost.shape[0]

    def expected_loss(self, matrix: ObfuscationMatrix | np.ndarray) -> float:
        """Expected estimation error Δ(Z) of Eq. (7), in km."""
        values = matrix.values if isinstance(matrix, ObfuscationMatrix) else np.asarray(matrix, dtype=float)
        if values.shape != self._cost.shape:
            raise ValueError(
                f"matrix shape {values.shape} does not match the model's {self._cost.shape}"
            )
        per_row = (values * self._cost).sum(axis=1)
        return float(self.priors @ per_row)

    def per_location_loss(self, matrix: ObfuscationMatrix | np.ndarray) -> np.ndarray:
        """Expected error conditioned on each real location (``Δ_q`` per row of Eq. 6)."""
        values = matrix.values if isinstance(matrix, ObfuscationMatrix) else np.asarray(matrix, dtype=float)
        return (values * self._cost).sum(axis=1)

    def objective_vector(self) -> np.ndarray:
        """Flattened LP objective coefficients ``c[i*K + l] = p_i * C[i, l]``.

        Minimising ``c · vec(Z)`` is exactly minimising Δ(Z).
        """
        return (self.priors[:, None] * self._cost).reshape(-1)

    def empirical_loss(
        self,
        matrix: ObfuscationMatrix,
        real_ids: Sequence[str],
        *,
        samples_per_location: int = 1,
        seed: RandomState = None,
    ) -> float:
        """Monte-Carlo estimate of the loss by actually sampling reports.

        Used by the experiments that evaluate on held-out "real locations"
        from the test split rather than on the prior expectation.
        """
        if samples_per_location <= 0:
            raise ValueError("samples_per_location must be positive")
        rng = as_rng(seed)
        total = 0.0
        count = 0
        for real_id in real_ids:
            row_index = matrix.index_of(real_id)
            row = np.clip(matrix.values[row_index], 0.0, None)
            row = row / row.sum()
            reported_indices = rng.choice(matrix.size, size=samples_per_location, p=row)
            for reported_index in reported_indices:
                total += float(self._cost[row_index, int(reported_index)])
                count += 1
        return total / count if count else 0.0


class QualityLossModel(LinearQualityModel):
    """Pre-computed linear quality-loss model over a fixed location set.

    Parameters
    ----------
    centers:
        ``(lat, lng)`` of the K candidate locations, in matrix order.
    targets:
        Distribution over service target locations.
    priors:
        Prior probability of each real location (defaults to uniform).
    """

    def __init__(
        self,
        centers: Sequence[Tuple[float, float]],
        targets: TargetDistribution,
        priors: Optional[Sequence[float]] = None,
    ) -> None:
        if not centers:
            raise ValueError("centers must not be empty")
        self.centers = [(float(lat), float(lng)) for lat, lng in centers]
        self.targets = targets
        super().__init__(self._build_cost_matrix(), priors)

    def _build_cost_matrix(self) -> np.ndarray:
        # center_to_target[i, n] = d(v_i, v_n)
        center_to_target = haversine_matrix_km(self.centers, self.targets.locations)
        # cost[i, l] = sum_n Pr(Q = n) |d(i, n) - d(l, n)|
        diff = np.abs(center_to_target[:, None, :] - center_to_target[None, :, :])
        return np.tensordot(diff, self.targets.probabilities, axes=([2], [0]))
