"""The forest engine: pure matrix generation over the pipeline layer.

This module is the *computation* half of the server-side split.  A
:class:`ForestEngine` knows how to turn ``(privacy_level, δ, ε)`` into a
:class:`~repro.server.privacy_forest.PrivacyForest` — iterating over every
node at the privacy level, fingerprinting each per-sub-tree problem,
serving repeats from the content-addressed
:class:`~repro.pipeline.cache.MatrixCache`, sharing one
:class:`~repro.core.lp.ConstraintStructure` across sibling sub-trees with
congruent geometry, and fanning independent generations out across worker
processes.  It carries **no request semantics**: validation, coalescing,
admission control and wire formats live in :mod:`repro.service`, and
transports in :mod:`repro.service.http` / :mod:`repro.client.transport`.

Configuration ownership: the engine snapshots the :class:`ServerConfig` it
is given (copy-on-configure), so mutating the caller's config object after
construction is inert.  Mutating ``engine.config`` *is* supported — every
result-affecting field is folded into the forest fingerprint and derived
state (the default target distribution) is re-derived when the fields it
depends on change — so a config change can never serve a stale forest.
"""

from __future__ import annotations

import contextlib
import math
import threading
import time
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.graphapprox import HexNeighborhoodGraph, Weighting
from repro.core.objective import QualityLossModel, TargetDistribution
from repro.core.robust import BasisRow, RobustGenerationResult
from repro.core.solver import HIGHS_METHODS, KNOWN_BACKENDS, native_available, resolve_backend
from repro.pipeline.cache import CacheStats, MatrixCache
from repro.pipeline.executor import (
    RobustGenerationTask,
    execute_robust_task,
    run_robust_task_groups,
)
from repro.pipeline.fingerprint import (
    array_digest,
    constraint_set_digest,
    fingerprint_fields,
    problem_fingerprint,
    structure_fingerprint,
)
from repro.server.privacy_forest import PrivacyForest
from repro.tree.location_tree import LocationTree
from repro.utils.logging import get_logger
from repro.utils.timing import Stopwatch, Timer

logger = get_logger(__name__)


@dataclass
class ServerConfig:
    """Tunable parameters of the server-side matrix generation.

    Attributes
    ----------
    epsilon:
        Default privacy budget ε in km⁻¹ (the paper sweeps 15–20 /km).
    num_targets:
        Number of service-target locations sampled from the leaf nodes when a
        request does not supply its own target distribution (paper:
        ``NR_TARGET = 49``).
    robust_iterations:
        Algorithm 1 iteration count ``t`` (paper: 10; convergence by ~4).
    use_graph_approximation:
        Enforce Geo-Ind only on the 12-neighbour graph (True, the paper's
        efficient formulation) or on every pair (False, the O(K³) baseline
        formulation used in Fig. 10's comparison).
    graph_weighting:
        Edge weighting of the neighbourhood graph (see
        :class:`~repro.core.graphapprox.HexNeighborhoodGraph`).
    rpb_method / rpb_basis_row:
        Reserved-privacy-budget estimator options (Eq. 12 vs Eq. 14).
    solver_method:
        HiGHS method, spelled as ``linprog`` spells it (one of
        :data:`~repro.core.solver.HIGHS_METHODS`), threaded through every
        LP solve (the native backend ignores it and always runs dual
        simplex).
    solver_backend:
        LP solver backend: ``"auto"`` (default — warm-started native HiGHS
        when :mod:`highspy` is installed and the solver method is
        simplex-class, scipy otherwise), ``"scipy"``, or ``"highs-native"``
        (errors at validation where :mod:`highspy` is absent).  Threaded
        through every LP solve; each worker process keeps one persistent
        solver session per constraint structure.
    target_seed:
        Seed for sampling the default target distribution.
    keep_generation_results:
        Retain per-sub-tree convergence traces in the forest (used by the
        convergence experiment; off by default to save memory).
    max_workers:
        Worker processes for per-sub-tree generation fan-out; 1 = serial.
        Results are identical for every value.
    matrix_cache_entries:
        Bound on the content-addressed per-sub-tree matrix cache (LRU);
        0 disables matrix caching.  Snapshot at engine construction — the
        cache is not resized by later mutation.
    share_structures:
        Share one :class:`~repro.core.lp.ConstraintStructure` across sibling
        sub-trees whose constraint pairs are congruent (the common case for
        hexagon sub-trees at one level).  Execution strategy only — results
        are identical either way.
    forest_ttl_s:
        Time-to-live for cached privacy forests, in seconds; ``0`` (the
        default) means entries never expire.  Expiry is checked lazily on
        access, so an expired entry costs one rebuild on its next request
        and nothing otherwise.  Cache lifecycle only — the generated
        forests themselves are identical for every value.

    Mutation semantics
    ------------------
    The engine stores a private *copy* of the config it is constructed
    with, so mutating the original object afterwards has no effect.
    Mutating ``engine.config`` itself is safe for every result-affecting
    field: the forest cache key folds all of them in, and the derived
    default target distribution is refreshed when ``num_targets`` /
    ``target_seed`` change.  ``max_workers`` and ``share_structures`` take
    effect on the next build; ``matrix_cache_entries`` is applied only at
    construction.
    """

    epsilon: float = 15.0
    num_targets: int = 49
    robust_iterations: int = 10
    use_graph_approximation: bool = True
    graph_weighting: Weighting = "paper"
    rpb_method: str = "approx"
    rpb_basis_row: BasisRow = "real"
    solver_method: str = "highs"
    solver_backend: str = "auto"
    target_seed: int = 13
    keep_generation_results: bool = False
    max_workers: int = 1
    matrix_cache_entries: int = 256
    share_structures: bool = True
    forest_ttl_s: float = 0.0

    def validate(self) -> None:
        """Raise :class:`ValueError` for inconsistent settings."""
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.num_targets <= 0:
            raise ValueError("num_targets must be positive")
        if self.robust_iterations < 0:
            raise ValueError("robust_iterations must be non-negative")
        if self.rpb_method not in ("approx", "exact"):
            raise ValueError(f"unknown rpb_method {self.rpb_method!r}")
        if self.solver_method not in HIGHS_METHODS:
            raise ValueError(f"unknown solver_method {self.solver_method!r}; known: {HIGHS_METHODS}")
        if self.solver_backend not in KNOWN_BACKENDS:
            raise ValueError(
                f"unknown solver_backend {self.solver_backend!r}; known: {KNOWN_BACKENDS}"
            )
        if self.solver_backend == "highs-native" and not native_available():
            raise ValueError(
                "solver_backend='highs-native' requires the highspy package "
                "(repro[native] extra); use 'auto' for detect-with-fallback"
            )
        if self.max_workers < 1:
            raise ValueError("max_workers must be >= 1")
        if self.matrix_cache_entries < 0:
            raise ValueError("matrix_cache_entries must be non-negative")
        if self.forest_ttl_s < 0:
            raise ValueError("forest_ttl_s must be non-negative")


def validate_prior_masses(priors: Mapping[str, float]) -> Dict[str, float]:
    """Coerce and vet a published prior-mass mapping (wire-facing).

    Masses must be finite and non-negative: Python's ``json`` module parses
    ``NaN``/``Infinity``, and a NaN mass would sail through normalization
    (``nan < 0`` is False) and poison every prior in the tree.  Raises
    :class:`ValueError` (the type transports map to HTTP 400).
    """
    if not priors:
        raise ValueError("priors mapping must not be empty")
    vetted: Dict[str, float] = {}
    for node_id, mass in priors.items():
        mass = float(mass)  # may raise ValueError/TypeError — also wire-mapped
        if not math.isfinite(mass) or mass < 0:
            raise ValueError(
                f"prior mass for {str(node_id)!r} must be finite and non-negative, got {mass}"
            )
        vetted[str(node_id)] = mass
    return vetted


class ForestEngine:
    """Pure privacy-forest generation over the pipeline layer.

    Parameters
    ----------
    tree:
        The location tree for the area of interest (step 1 of Figure 1); its
        leaf priors should already be set from public check-in statistics.
    config:
        Generation parameters (defaults follow the paper's experimental
        setup).  Snapshot at construction — see the mutation-semantics note
        on :class:`ServerConfig`.
    targets:
        Optional explicit service-target distribution; when omitted, targets
        are sampled uniformly from the tree's leaf centres (and re-derived
        if ``config.num_targets`` / ``config.target_seed`` are changed).
    clock:
        Monotonic time source for forest-cache TTL bookkeeping (defaults to
        :func:`time.monotonic`).  Injectable so TTL semantics are testable
        without real sleeps.
    """

    def __init__(
        self,
        tree: LocationTree,
        config: Optional[ServerConfig] = None,
        *,
        targets: Optional[TargetDistribution] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.tree = tree
        # Copy-on-configure: the engine owns its config; the caller keeps theirs.
        self.config = replace(config) if config is not None else ServerConfig()
        self.config.validate()
        self._clock = clock if clock is not None else time.monotonic
        self._explicit_targets = targets
        self._derived_targets: Optional[TargetDistribution] = None
        self._derived_targets_key: Optional[Tuple[int, int]] = None
        #: key -> (forest, insertion time per ``self._clock``).
        self._forest_cache: Dict[str, Tuple[PrivacyForest, float]] = {}
        self.forest_cache_stats = CacheStats()
        self._forest_expirations = 0
        self._invalidations = 0
        self._handoff_imports = 0
        self._handoff_prewarms = 0
        self.matrix_cache = MatrixCache(self.config.matrix_cache_entries)
        self._structure_stats: Dict[str, int] = {"groups": 0, "builds": 0, "reuses": 0}
        self._solver_stats: Dict[str, object] = {
            "solves": 0,
            "warm_solves": 0,
            "cold_solves": 0,
            "basis_reuse_hits": 0,
            "cold_retries": 0,
            "time_s": {"presolve": 0.0, "build": 0.0, "solve": 0.0, "extract": 0.0, "refresh": 0.0},
        }
        self.stopwatch = Stopwatch()
        # Guards the caches, counters and stopwatch: the engine performs no
        # request coalescing (that is the service's job) but it must tolerate
        # concurrent builds for *distinct* keys, which the service runs up to
        # ``max_in_flight`` of in parallel.  LP work happens outside the lock.
        self._state_lock = threading.Lock()
        # Reader/writer gate between builds and live prior updates: builds
        # are readers (concurrent with each other), publish_priors is a
        # writer that waits for in-flight builds and blocks new ones, so no
        # request is ever served a forest computed from torn priors.
        self._build_cond = threading.Condition(self._state_lock)
        self._active_builds = 0
        self._prior_writers = 0
        self._priors_write_lock = threading.Lock()

    # ------------------------------------------------------------------ #
    # Target workload
    # ------------------------------------------------------------------ #

    @property
    def targets(self) -> TargetDistribution:
        """The service-target distribution (explicit, or derived and cached).

        Derived targets are keyed on ``(num_targets, target_seed)`` so a
        config mutation after construction regenerates them instead of
        serving a distribution built for the old settings.
        """
        if self._explicit_targets is not None:
            return self._explicit_targets
        key = (int(self.config.num_targets), int(self.config.target_seed))
        if self._derived_targets is None or self._derived_targets_key != key:
            self._derived_targets = self._default_targets()
            self._derived_targets_key = key
        return self._derived_targets

    @targets.setter
    def targets(self, value: Optional[TargetDistribution]) -> None:
        self._explicit_targets = value
        self._derived_targets = None
        self._derived_targets_key = None

    def _default_targets(self) -> TargetDistribution:
        centers = [leaf.center.as_tuple() for leaf in self.tree.leaves()]
        return TargetDistribution.sample_from_centers(
            centers,
            min(self.config.num_targets, len(centers)),
            seed=self.config.target_seed,
        )

    # ------------------------------------------------------------------ #
    # Cache fingerprints
    # ------------------------------------------------------------------ #

    def _targets_digest(self) -> str:
        targets = self.targets
        return array_digest(
            np.asarray(targets.locations, dtype=float), targets.probabilities
        )

    #: Config fields that do not affect the generated forest (execution
    #: strategy / cache sizing only).  Everything else is fingerprinted, so a
    #: future result-affecting field is keyed automatically — forgetting to
    #: update this list can only over-invalidate, never serve a stale forest.
    _NON_RESULT_CONFIG_FIELDS = frozenset(
        {"epsilon", "max_workers", "matrix_cache_entries", "share_structures", "forest_ttl_s"}
    )

    def _forest_fingerprint(self, privacy_level: int, delta: int, epsilon: float) -> str:
        """Cache key folding the full effective configuration.

        Every :class:`ServerConfig` field except the explicit non-result list
        is part of the key (``epsilon`` enters as the per-request effective
        value), together with the target distribution and the tree's identity
        and leaf priors — so mutating any result-affecting input between
        requests can never return a stale forest.
        """
        config_fields = {
            spec.name: getattr(self.config, spec.name)
            for spec in fields(self.config)
            if spec.name not in self._NON_RESULT_CONFIG_FIELDS
        }
        leaves = self.tree.leaves()
        return fingerprint_fields(
            privacy_level=int(privacy_level),
            delta=int(delta),
            epsilon=float(epsilon),
            config=config_fields,
            targets=self._targets_digest(),
            tree_root=str(self.tree.root.node_id),
            tree_leaves=len(leaves),
            leaf_priors=array_digest(np.array([leaf.prior for leaf in leaves], dtype=float)),
        )

    # ------------------------------------------------------------------ #
    # Matrix generation (Algorithm 3)
    # ------------------------------------------------------------------ #

    def build_forest(
        self,
        privacy_level: int,
        delta: int,
        *,
        epsilon: Optional[float] = None,
        use_cache: bool = True,
    ) -> PrivacyForest:
        """Generate (or fetch from cache) the privacy forest for the given parameters."""
        forest, _ = self.build_forest_traced(
            privacy_level, delta, epsilon=epsilon, use_cache=use_cache
        )
        return forest

    #: Aliases so the engine satisfies the same forest-provider duck type as
    #: :class:`~repro.server.server.CORGIServer` and
    #: :class:`~repro.service.service.CORGIService`.
    generate_privacy_forest = build_forest
    generate_forest = build_forest

    def build_forest_traced(
        self,
        privacy_level: int,
        delta: int,
        *,
        epsilon: Optional[float] = None,
        use_cache: bool = True,
    ) -> Tuple[PrivacyForest, bool]:
        """:meth:`build_forest`, additionally reporting whether the forest cache served it.

        The boolean lets the service layer count engine cache hits without
        racing on shared counters.
        """
        epsilon = float(epsilon if epsilon is not None else self.config.epsilon)
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        with self._priors_reader():
            return self._build_forest_gated(privacy_level, delta, epsilon, use_cache)

    @contextlib.contextmanager
    def _priors_reader(self) -> Iterator[None]:
        """Reader side of the priors gate: excluded from live prior updates.

        Held around everything that reads tree priors — forest builds and
        :meth:`publish_leaf_priors` — so :meth:`publish_priors` can never
        expose a half-applied update to either.
        """
        with self._state_lock:
            while self._prior_writers:
                self._build_cond.wait()
            self._active_builds += 1
        try:
            yield
        finally:
            with self._state_lock:
                self._active_builds -= 1
                self._build_cond.notify_all()

    def _build_forest_gated(
        self,
        privacy_level: int,
        delta: int,
        epsilon: float,
        use_cache: bool,
    ) -> Tuple[PrivacyForest, bool]:
        """The build body, run while holding a reader slot of the priors gate."""
        forest_key = self._forest_fingerprint(privacy_level, delta, epsilon)
        with self._state_lock:
            if use_cache:
                cached_forest = self._cache_lookup_locked(forest_key)
                if cached_forest is not None:
                    self.forest_cache_stats.hits += 1
                    return cached_forest, True
            self.forest_cache_stats.misses += 1

        forest = PrivacyForest(self.tree, privacy_level, delta, epsilon)
        with Timer() as timer:
            roots = self.tree.nodes_at_level(privacy_level)
            prepared = [self._subtree_task(root.node_id, delta, epsilon) for root in roots]

            results: Dict[str, RobustGenerationResult] = {}
            pending: List[Tuple[RobustGenerationTask, str]] = []
            for task, problem_key in prepared:
                if use_cache:
                    with self._state_lock:
                        hit = self.matrix_cache.get(problem_key)
                else:
                    hit = None
                if hit is not None:
                    results[task.key] = hit
                else:
                    pending.append((task, problem_key))
            generated = self._run_pending([task for task, _ in pending])
            self._accumulate_solver_stats(generated)
            for (task, problem_key), result in zip(pending, generated):
                if use_cache:
                    with self._state_lock:
                        self.matrix_cache.put(problem_key, result)
                results[task.key] = result

            for root in roots:
                result = results[root.node_id]
                forest.add(
                    root.node_id,
                    result.matrix,
                    result if self.config.keep_generation_results else None,
                )
        with self._state_lock:
            elapsed = self.stopwatch.record("forest_generation", timer.elapsed)
        logger.info(
            "generated privacy forest: level=%d delta=%d epsilon=%.2f subtrees=%d "
            "(%d cached, %d solved, %d workers, %.2f s)",
            privacy_level,
            delta,
            epsilon,
            len(forest),
            len(forest) - len(pending),
            len(pending),
            self.config.max_workers,
            elapsed,
        )
        if use_cache:
            with self._state_lock:
                self._forest_cache[forest_key] = (forest, self._clock())
        return forest, False

    # ------------------------------------------------------------------ #
    # Cache lifecycle (TTL / invalidation / live prior updates)
    # ------------------------------------------------------------------ #

    def _cache_lookup_locked(self, forest_key: str) -> Optional[PrivacyForest]:
        """Return the live cached forest for *forest_key*, evicting it if expired."""
        entry = self._forest_cache.get(forest_key)
        if entry is None:
            return None
        forest, inserted_at = entry
        ttl = float(self.config.forest_ttl_s)
        if ttl > 0 and self._clock() - inserted_at > ttl:
            del self._forest_cache[forest_key]
            self._forest_expirations += 1
            return None
        return forest

    def _purge_expired_locked(self) -> int:
        """Drop every expired forest entry; return how many were dropped."""
        ttl = float(self.config.forest_ttl_s)
        if ttl <= 0:
            return 0
        now = self._clock()
        expired = [
            key
            for key, (_, inserted_at) in self._forest_cache.items()
            if now - inserted_at > ttl
        ]
        for key in expired:
            del self._forest_cache[key]
        self._forest_expirations += len(expired)
        return len(expired)

    def invalidate(self, privacy_level: Optional[int] = None) -> int:
        """Drop cached forests — all of them, or only one privacy level's.

        ``privacy_level=None`` clears the whole forest cache *and* the
        per-sub-tree matrix cache (a full flush, e.g. after a prior update);
        an explicit level drops only forests generated for that level and
        leaves the matrix cache alone.  Returns the number of forests
        dropped.  Correctness never depends on calling this — every
        result-affecting input is part of the cache key — but a live system
        uses it to release memory held by forests no client should see
        again.
        """
        with self._state_lock:
            if privacy_level is None:
                dropped = len(self._forest_cache)
                self._forest_cache.clear()
                self.matrix_cache.clear()
            else:
                level = int(privacy_level)
                stale = [
                    key
                    for key, (forest, _) in self._forest_cache.items()
                    if forest.privacy_level == level
                ]
                for key in stale:
                    del self._forest_cache[key]
                dropped = len(stale)
            self._invalidations += 1
        logger.info(
            "invalidated %d cached forest(s) (privacy_level=%s)",
            dropped,
            "all" if privacy_level is None else privacy_level,
        )
        return dropped

    def publish_priors(
        self, priors: Mapping[str, float], *, normalize: bool = True
    ) -> int:
        """Install new leaf priors and flush every cache (live prior update).

        *priors* maps leaf node ids to (possibly unnormalised) prior mass —
        masses are vetted finite and non-negative up front (a NaN would
        poison every prior in the tree); the tree validates ids and
        aggregates the masses up to the root.  The update takes the writer
        side of the priors gate: it waits for in-flight builds to finish
        and holds new ones back while the tree mutates, so no request can
        be served a forest computed from a half-applied update.  The forest
        fingerprint folds the leaf priors in, so even without the flush no
        *later* request could see a stale forest — the flush releases the
        memory the now-unreachable entries hold.  Returns the number of
        forests dropped.
        """
        vetted = validate_prior_masses(priors)
        with self._priors_write_lock:  # one live update at a time
            with self._state_lock:
                self._prior_writers += 1
                while self._active_builds:
                    self._build_cond.wait()
            try:
                self.tree.set_leaf_priors(vetted, normalize=normalize)
            finally:
                with self._state_lock:
                    self._prior_writers -= 1
                    self._build_cond.notify_all()
        return self.invalidate(None)

    # ------------------------------------------------------------------ #
    # Warm hand-off hooks (cache export / import)
    # ------------------------------------------------------------------ #

    def export_cache_entries(
        self, *, payload_budget_bytes: int = 0
    ) -> List[Dict[str, object]]:
        """Snapshot the live forest cache for warm hand-off to a replica.

        Returns one plain dict per cached forest: the semantic request key
        (``privacy_level`` / ``delta`` / ``epsilon``), the entry's remaining
        TTL in seconds (``None`` when entries never expire) and — while the
        cumulative ``payload_budget_bytes`` allows — the per-sub-tree
        matrices as the payload (``None`` once the budget is spent; the
        receiver pre-warms key-only entries by rebuilding).

        Expired entries are **excluded at export time**: expiry is lazy, so
        an entry past its TTL is typically still sitting in the cache dict —
        shipping it would resurrect dead state on the sibling.  The cache is
        purged under the lock before the snapshot is taken.
        """
        with self._state_lock:
            self._purge_expired_locked()
            ttl = float(self.config.forest_ttl_s)
            now = self._clock()
            cached = list(self._forest_cache.values())
        entries: List[Dict[str, object]] = []
        budget = int(payload_budget_bytes)
        for forest, inserted_at in cached:
            remaining = None
            if ttl > 0:
                remaining = ttl - (now - inserted_at)
                if remaining <= 0:
                    continue  # expired between the purge and this read
            matrices = {root_id: matrix for root_id, matrix in forest}
            size = sum(int(matrix.values.nbytes) for matrix in matrices.values())
            payload = None
            if size <= budget:
                payload = matrices
                budget -= size
            entries.append(
                {
                    "privacy_level": int(forest.privacy_level),
                    "delta": int(forest.delta),
                    "epsilon": float(forest.epsilon),
                    "ttl_remaining_s": remaining,
                    "matrices": payload,
                }
            )
        return entries

    def import_cache_entry(
        self,
        privacy_level: int,
        delta: int,
        epsilon: float,
        *,
        matrices: Optional[Dict[str, object]] = None,
        ttl_remaining_s: Optional[float] = None,
    ) -> str:
        """Install one handed-off cache entry; returns what happened.

        * ``"imported"`` — the payload was attached to this engine's tree
          and cached under the locally-computed fingerprint, with its
          insertion time back-dated so the remaining TTL carries over;
        * ``"prewarmed"`` — no payload (or a payload whose sub-tree roots
          don't match this tree — a replica-mismatch guard), so the forest
          was rebuilt through the normal cached build path;
        * ``"skipped"`` — the entry expired in transit or names a privacy
          level this tree doesn't have.
        """
        privacy_level = int(privacy_level)
        delta = int(delta)
        epsilon = float(epsilon)
        if ttl_remaining_s is not None and float(ttl_remaining_s) <= 0:
            return "skipped"
        if not 0 <= privacy_level <= self.tree.height or delta < 0:
            return "skipped"
        if matrices is not None:
            expected = {node.node_id for node in self.tree.nodes_at_level(privacy_level)}
            if set(matrices) != expected:
                matrices = None  # foreign topology: rebuild rather than mis-serve
        if matrices is None:
            self.build_forest_traced(privacy_level, delta, epsilon=epsilon)
            with self._state_lock:
                self._handoff_prewarms += 1
            return "prewarmed"
        with self._priors_reader():
            forest_key = self._forest_fingerprint(privacy_level, delta, epsilon)
            forest = PrivacyForest(self.tree, privacy_level, delta, epsilon)
            for root_id, matrix in matrices.items():
                forest.add(root_id, matrix)
            ttl = float(self.config.forest_ttl_s)
            inserted_at = self._clock()
            if ttl > 0 and ttl_remaining_s is not None:
                # Back-date the insertion so the sibling honours the time the
                # entry had already lived on the source shard.
                inserted_at -= max(0.0, ttl - float(ttl_remaining_s))
            with self._state_lock:
                self._forest_cache[forest_key] = (forest, inserted_at)
                self._handoff_imports += 1
        return "imported"

    def _accumulate_solver_stats(self, results: List[RobustGenerationResult]) -> None:
        """Fold per-solve LP diagnostics into the engine-wide solver aggregates.

        Solutions ride back from worker processes inside each
        :class:`RobustGenerationResult`, so warm/cold counts and the stage
        breakdown survive the process boundary; matrix-cache hits run no
        solver and contribute nothing.
        """
        counters = {"solves": 0, "warm_solves": 0, "cold_solves": 0, "basis_reuse_hits": 0, "cold_retries": 0}
        stage_times: Dict[str, float] = {}
        for result in results:
            for solution in result.solutions:
                diagnostics = solution.diagnostics
                counters["solves"] += 1
                if diagnostics.get("warm_start"):
                    counters["warm_solves"] += 1
                else:
                    counters["cold_solves"] += 1
                if diagnostics.get("basis_reused"):
                    counters["basis_reuse_hits"] += 1
                if diagnostics.get("cold_retry"):
                    counters["cold_retries"] += 1
                for stage, elapsed in (diagnostics.get("solve_breakdown_s") or {}).items():
                    stage_times[stage] = stage_times.get(stage, 0.0) + float(elapsed)
        if not counters["solves"]:
            return
        with self._state_lock:
            for name, value in counters.items():
                self._solver_stats[name] = int(self._solver_stats[name]) + value
            time_s = self._solver_stats["time_s"]
            for stage, elapsed in stage_times.items():
                time_s[stage] = time_s.get(stage, 0.0) + elapsed

    def _run_pending(self, tasks: List[RobustGenerationTask]) -> List[RobustGenerationResult]:
        """Execute uncached sub-tree tasks, sharing structures across congruent siblings.

        Tasks are grouped by :func:`structure_fingerprint`; each group shares
        one :class:`~repro.core.lp.ConstraintStructure` (the ROADMAP lever —
        sibling hexagon sub-trees at one level are usually all congruent).
        When fanning out, groups are split into chunks so structure sharing
        never *reduces* parallelism below what ungrouped execution had: each
        worker then builds one structure for its chunk.  Results are in task
        order and identical to unshared serial execution.
        """
        if not tasks:
            return []
        if not self.config.share_structures:
            groups: Dict[str, List[int]] = {f"task-{index}": [index] for index in range(len(tasks))}
        else:
            groups = {}
            for index, task in enumerate(tasks):
                key = structure_fingerprint(len(task.node_ids), task.constraint_pairs)
                groups.setdefault(key, []).append(index)

        index_chunks: List[List[int]] = []
        max_workers = self.config.max_workers
        chunk_size = len(tasks) if max_workers <= 1 else max(1, math.ceil(len(tasks) / max_workers))
        for indices in groups.values():
            for offset in range(0, len(indices), chunk_size):
                index_chunks.append(indices[offset : offset + chunk_size])

        chunk_results = run_robust_task_groups(
            [[tasks[index] for index in chunk] for chunk in index_chunks],
            max_workers=max_workers,
        )
        results: List[Optional[RobustGenerationResult]] = [None] * len(tasks)
        for chunk, chunk_result in zip(index_chunks, chunk_results):
            for index, result in zip(chunk, chunk_result):
                results[index] = result

        with self._state_lock:
            self._structure_stats["groups"] += len(index_chunks)
            for chunk in index_chunks:
                constrained = sum(
                    1 for index in chunk if tasks[index].constraint_pairs is not None
                )
                if constrained:
                    self._structure_stats["builds"] += 1
                    self._structure_stats["reuses"] += constrained - 1
        return results  # type: ignore[return-value]

    def _subtree_task(
        self,
        subtree_root_id: str,
        delta: int,
        epsilon: float,
    ) -> Tuple[RobustGenerationTask, str]:
        """Build the picklable generation task and cache key for one sub-tree."""
        leaves = self.tree.descendant_leaves(subtree_root_id)
        node_ids = [leaf.node_id for leaf in leaves]
        cells = [leaf.cell for leaf in leaves]
        centers = [leaf.center.as_tuple() for leaf in leaves]
        priors = self.tree.conditional_leaf_priors(node_ids)

        graph = HexNeighborhoodGraph(
            self.tree.grid,
            cells,
            weighting=self.config.graph_weighting,
        )
        distance_matrix = graph.euclidean_distance_matrix()
        constraint_set = graph.constraint_set() if self.config.use_graph_approximation else None

        quality_model = QualityLossModel(centers, self.targets, priors)
        task = RobustGenerationTask(
            key=subtree_root_id,
            node_ids=node_ids,
            distance_matrix_km=distance_matrix,
            cost_matrix=quality_model.cost_matrix,
            priors=quality_model.priors,
            epsilon=epsilon,
            delta=int(delta),
            constraint_pairs=None if constraint_set is None else constraint_set.pairs,
            constraint_distances_km=None if constraint_set is None else constraint_set.distances_km,
            constraint_description="custom" if constraint_set is None else constraint_set.description,
            max_iterations=self.config.robust_iterations,
            rpb_method=self.config.rpb_method,
            basis_row=self.config.rpb_basis_row,
            solver_method=self.config.solver_method,
            solver_backend=self.config.solver_backend,
            level=0,
            metadata={"subtree_root": subtree_root_id},
        )
        problem_key = problem_fingerprint(
            node_ids,
            distance_matrix,
            epsilon,
            delta,
            quality_digest=quality_model.digest(),
            constraint_digest=constraint_set_digest(constraint_set),
            weighting=str(self.config.graph_weighting),
            basis_row=str(self.config.rpb_basis_row),
            rpb_method=str(self.config.rpb_method),
            max_iterations=int(self.config.robust_iterations),
            solver_method=str(self.config.solver_method),
            extra={"solver_backend": str(self.config.solver_backend)},
        )
        return task, problem_key

    def generate_subtree_matrix(
        self,
        subtree_root_id: str,
        delta: int,
        epsilon: float,
    ) -> Tuple:
        """Generate the robust leaf-level matrix for one sub-tree (Algorithm 1).

        Kept as the uncached single-sub-tree entry point; forest generation
        goes through the pipeline in :meth:`build_forest`.
        """
        task, _ = self._subtree_task(subtree_root_id, delta, epsilon)
        result = execute_robust_task(task)
        self._accumulate_solver_stats([result])
        return result.matrix, result

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def publish_leaf_priors(self, subtree_root_id: str) -> Dict[str, float]:
        """Leaf priors of one sub-tree (the small vector footnote 5 lets users query).

        Read under the priors gate so a concurrent :meth:`publish_priors`
        can never be observed half-applied (masses not summing to 1).
        """
        with self._priors_reader():
            leaves = self.tree.descendant_leaves(subtree_root_id)
            return {leaf.node_id: leaf.prior for leaf in leaves}

    def clear_cache(self) -> None:
        """Drop every cached privacy forest and per-sub-tree matrix."""
        with self._state_lock:
            self._forest_cache.clear()
            self.matrix_cache.clear()

    def cache_size(self) -> int:
        """Number of live (non-expired) cached forests."""
        with self._state_lock:
            self._purge_expired_locked()
            return len(self._forest_cache)

    def cache_diagnostics(self) -> Dict[str, object]:
        """Forest-, matrix- and structure-cache state for monitoring and the perf harness."""
        with self._state_lock:
            self._purge_expired_locked()
            return {
                "forest_entries": len(self._forest_cache),
                "forest_stats": self.forest_cache_stats.as_dict(),
                "forest_expirations": self._forest_expirations,
                "forest_ttl_s": float(self.config.forest_ttl_s),
                "invalidations": self._invalidations,
                "handoff_imports": self._handoff_imports,
                "handoff_prewarms": self._handoff_prewarms,
                "matrix_entries": len(self.matrix_cache),
                "matrix_stats": self.matrix_cache.stats.as_dict(),
                "structure_sharing": dict(self._structure_stats),
                "solver": {
                    "backend_requested": str(self.config.solver_backend),
                    "backend_resolved": resolve_backend(
                        self.config.solver_backend,
                        solver_method=self.config.solver_method,
                    ),
                    "native_available": native_available(),
                    **{
                        name: (dict(value) if isinstance(value, dict) else value)
                        for name, value in self._solver_stats.items()
                    },
                },
                "max_workers": self.config.max_workers,
            }
