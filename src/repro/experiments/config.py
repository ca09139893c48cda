"""Shared experiment configuration.

The paper's experiments run on a 343-leaf tree with 10 Algorithm-1
iterations, 500 pruning trials per point and a MATLAB LP solver on a
4-core / 256 GB machine.  To keep the benchmark suite runnable on a laptop
while preserving the *shape* of every result, two scales are provided:

* ``small`` (default) — same ε range and workload structure, 49-leaf
  obfuscation ranges, 4 robust iterations (the paper itself shows
  convergence by iteration ~4), 60 pruning trials;
* ``paper`` — the full configuration of Section 6 (10 iterations, 500
  trials, the 343-leaf privacy level); expect long running times.

Benchmarks pick the scale from the ``REPRO_SCALE`` environment variable so
``pytest benchmarks/ --benchmark-only`` stays fast by default and
``REPRO_SCALE=paper pytest benchmarks/ --benchmark-only`` reproduces the
full setup.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

from repro.datasets.region import SAN_FRANCISCO
from repro.geometry.projection import BoundingBox


@dataclass(frozen=True)
class ExperimentConfig:
    """All knobs shared by the experiment drivers."""

    name: str = "small"
    #: Study region (the paper's San Francisco Gowalla sample).
    region: BoundingBox = field(default_factory=lambda: SAN_FRANCISCO)
    #: Location-tree construction (paper: root resolution 6, height 3 → 343 leaves).
    root_resolution: int = 6
    tree_height: int = 3
    #: Synthetic dataset size (paper sample: 38,523 check-ins).
    num_checkins: int = 6_000
    #: Number of service targets (paper: NR_TARGET = 49).
    num_targets: int = 49
    #: Default privacy budget ε (km⁻¹) and the sweep used in Fig. 11 / 13.
    epsilon: float = 15.0
    epsilon_sweep: Tuple[float, ...] = (15.0, 16.0, 17.0, 18.0)
    #: Default robustness budget δ and the sweeps used across figures.
    delta: int = 3
    delta_sweep: Tuple[int, ...] = (1, 2, 3)
    #: Algorithm-1 iterations (paper: 10; convergence by ~4).
    robust_iterations: int = 4
    #: Pruning-experiment repetitions per point (paper: 500).
    pruning_trials: int = 60
    #: Numbers of pruned locations swept in Fig. 12.
    pruned_counts: Tuple[int, ...] = (1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
    #: Location-set sizes swept in Fig. 10(b) and Fig. 14(a).
    location_counts: Tuple[int, ...] = (7, 14, 21, 28, 35, 42, 49)
    precision_location_counts: Tuple[int, ...] = (28, 35, 42, 49, 56, 63, 70)
    #: Fig. 13 comparison: (privacy level, precision level) choices.  The
    #: paper compares level 3 (343 leaves) against level 2 (49 leaves); the
    #: small scale shifts both down one level (49 vs 7 leaves) to keep the LP
    #: tractable while preserving the "wider range ⇒ higher loss" comparison.
    privacy_level_choices: Tuple[Tuple[int, int], ...] = ((2, 1), (1, 0))
    #: LP solver and RNG seed.  ``solver_method`` is the HiGHS method,
    #: spelled as ``linprog`` spells it.  ``solver_backend`` picks the solver
    #: engine: ``"auto"`` uses the warm-started native HiGHS backend when
    #: ``highspy`` is installed and the method is simplex-class, else
    #: scipy's bundled HiGHS (see :mod:`repro.core.solver`).
    solver_method: str = "highs-ipm"
    solver_backend: str = "auto"
    seed: int = 20230331
    #: Worker processes for independent LP generations (1 = serial; results
    #: are identical for every value — see repro.pipeline.executor).
    max_workers: int = 1

    def derive(self, **overrides) -> "ExperimentConfig":
        """Return a copy with some fields replaced."""
        return replace(self, **overrides)

    @property
    def leaves_per_subtree(self) -> int:
        """Leaves of one privacy-level-2 sub-tree (7^2 = 49 with the defaults)."""
        return 7**min(2, self.tree_height)


#: Laptop-friendly configuration preserving the shape of every figure.
SMALL_SCALE = ExperimentConfig()

#: The paper's full configuration (Section 6.1): 343-leaf tree, 10
#: iterations, 500 trials.  Running every figure at this scale takes hours.
PAPER_SCALE = ExperimentConfig(
    name="paper",
    root_resolution=6,
    tree_height=3,
    num_checkins=38_523,
    robust_iterations=10,
    pruning_trials=500,
    epsilon_sweep=(15.0, 16.0, 17.0, 18.0, 19.0, 20.0),
    delta_sweep=(1, 2, 3, 4, 5),
    privacy_level_choices=((3, 1), (2, 0)),
    solver_method="highs",
)

_SCALES = {"small": SMALL_SCALE, "paper": PAPER_SCALE, "full": PAPER_SCALE}


def get_scale(name: Optional[str] = None) -> ExperimentConfig:
    """Resolve a configuration by name or from the ``REPRO_SCALE`` environment variable."""
    if name is None:
        name = os.environ.get("REPRO_SCALE", "small")
    key = name.strip().lower()
    if key not in _SCALES:
        raise KeyError(f"unknown scale {name!r}; known scales: {sorted(set(_SCALES))}")
    return _SCALES[key]
