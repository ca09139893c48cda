"""The forest engine: pure matrix generation over the pipeline layer.

This module is the *computation* half of the server-side split.  A
:class:`ForestEngine` knows how to turn ``(privacy_level, δ, ε)`` into a
:class:`~repro.server.privacy_forest.PrivacyForest` — iterating over every
node at the privacy level and sharing one
:class:`~repro.core.lp.ConstraintStructure` across sibling sub-trees with
congruent geometry.  Sub-trees are generated serially on the
request thread; concurrent requests for distinct keys build in parallel
threads, and an :class:`~repro.service.pool.EnginePool` adds process
parallelism across shards.  Three LRU-bounded, content-addressed
:class:`~repro.pipeline.cache.MatrixCache` instances serve repeats:

* ``forest_cache`` — whole forests by forest fingerprint
  (:data:`FOREST_CACHE_ENTRIES`);
* ``prepared_levels`` — each sub-tree's
  :class:`~repro.pipeline.executor.PreparedProblem` at one privacy level,
  with the level's congruent groups (:class:`PreparedLevel`), keyed on the
  forest fingerprint's inputs other than δ and ε
  (:data:`PREPARED_LEVEL_ENTRIES`), so a forest miss prepares a level once
  per engine state instead of once per request;
* ``lp_cache`` — each LP's solution by a digest of the LP itself
  (:data:`LP_CACHE_ENTRIES`), consulted before every LP solve of
  Algorithm 1.

Every input that can change a result is part of those keys, so no cache is
ever flushed: a live prior update only installs the priors, and entries
keyed on the old priors age out of the LRUs.

The engine carries **no request semantics**: validation, coalescing,
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
from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Tuple, get_args

import numpy as np

from repro.core.graphapprox import HexNeighborhoodGraph, Weighting
from repro.core.objective import LinearQualityModel, QualityLossModel, TargetDistribution
from repro.core.robust import BasisRow, RobustGenerationResult
from repro.core.solver import HIGHS_METHODS
from repro.pipeline.cache import MatrixCache
from repro.pipeline.executor import PreparedProblem, RobustGenerationTask, run_robust_task_groups
from repro.pipeline.fingerprint import array_digest, fingerprint_fields
from repro.server.privacy_forest import PrivacyForest
from repro.tree.location_tree import LocationTree
from repro.utils.logging import get_logger
from repro.utils.timing import Stopwatch, Timer

logger = get_logger(__name__)

#: Bound on each engine's LP solution cache (LRU), keyed by a digest of the
#: LP.  An entry holds one K² solution vector.
LP_CACHE_ENTRIES = 1024

#: Bound on each engine's forest cache (LRU).  A forest is a pure function
#: of its fingerprint, so it never goes stale with time; the bound only caps
#: memory.  It matches the pool's per-slot hot-key ledger
#: (``HOT_KEY_LEDGER_SIZE``), so a sibling can hold every key a ledger replays.
FOREST_CACHE_ENTRIES = 128

#: Bound on each engine's prepared levels (LRU).  A level is prepared again
#: only when its engine state changes (priors, targets, tree or config), so
#: the bound covers every level of a height-3 tree under two states.
PREPARED_LEVEL_ENTRIES = 8


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
        Algorithm 1 iteration count ``t`` (paper: 10; convergence by ~4);
        at least 1, since a δ ≥ 1 forest needs one robust iteration to
        reserve its budget.
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
        LP solve.
    solver_backend:
        The LP solver; ``"scipy"`` (scipy's bundled HiGHS) is the only
        value.  It is folded into the forest fingerprint and the store
        namespace like every other field.
    target_seed:
        Seed for sampling the default target distribution.

    Mutation semantics
    ------------------
    The engine stores a private *copy* of the config it is constructed
    with, so mutating the original object afterwards has no effect.
    Mutating ``engine.config`` itself is safe for every result-affecting
    field: the forest cache key folds all of them in, and the derived
    default target distribution is refreshed when ``num_targets`` /
    ``target_seed`` change.
    """

    epsilon: float = 15.0
    num_targets: int = 49
    robust_iterations: int = 10
    use_graph_approximation: bool = True
    graph_weighting: Weighting = "paper"
    rpb_method: str = "approx"
    rpb_basis_row: BasisRow = "real"
    solver_method: str = "highs"
    solver_backend: str = "scipy"
    target_seed: int = 13

    def validate(self) -> None:
        """Raise :class:`ValueError` for inconsistent settings."""
        if self.epsilon <= 0:
            raise ValueError("epsilon must be positive")
        if self.num_targets <= 0:
            raise ValueError("num_targets must be positive")
        if self.robust_iterations < 1:
            raise ValueError("robust_iterations must be at least 1")
        if self.rpb_method not in ("approx", "exact"):
            raise ValueError(f"unknown rpb_method {self.rpb_method!r}")
        if self.rpb_basis_row not in get_args(BasisRow):
            raise ValueError(f"unknown rpb_basis_row {self.rpb_basis_row!r}; known: {get_args(BasisRow)}")
        if self.graph_weighting not in get_args(Weighting):
            raise ValueError(f"unknown graph_weighting {self.graph_weighting!r}; known: {get_args(Weighting)}")
        if self.solver_method not in HIGHS_METHODS:
            raise ValueError(f"unknown solver_method {self.solver_method!r}; known: {HIGHS_METHODS}")
        if self.solver_backend != "scipy":
            raise ValueError(f"unknown solver_backend {self.solver_backend!r}; the only solver is 'scipy'")


@dataclass(frozen=True)
class PreparedLevel:
    """Every sub-tree problem at one privacy level, in level order.

    ``groups`` partitions the problem indices by structure key, first
    appearance first: each group is congruent and shares one constraint
    structure when it runs.  Nothing in a prepared level is modified after
    it is built, so concurrent builds of distinct keys share it.
    """

    roots: Tuple[str, ...]
    problems: Tuple[PreparedProblem, ...]
    groups: Tuple[Tuple[int, ...], ...]


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


def notify_update_listeners(listeners: List[Callable[[], None]]) -> None:
    """Call each priors-update listener; one that raises is logged, not raised."""
    for listener in list(listeners):
        try:
            listener()
        except Exception:  # noqa: BLE001 - a listener must not fail the update
            logger.exception("priors-update listener failed")


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
    """

    def __init__(
        self,
        tree: LocationTree,
        config: Optional[ServerConfig] = None,
        *,
        targets: Optional[TargetDistribution] = None,
    ) -> None:
        self.tree = tree
        # Copy-on-configure: the engine owns its config; the caller keeps theirs.
        self.config = replace(config) if config is not None else ServerConfig()
        self.config.validate()
        self._explicit_targets = targets
        self._derived_targets: Optional[TargetDistribution] = None
        self._derived_targets_key: Optional[Tuple[int, int]] = None
        self.forest_cache = MatrixCache(FOREST_CACHE_ENTRIES)
        self.prepared_levels = MatrixCache(PREPARED_LEVEL_ENTRIES)
        self._handoff_imports = 0
        self._handoff_prewarms = 0
        self.lp_cache = MatrixCache(LP_CACHE_ENTRIES)
        self._structure_stats: Dict[str, int] = {"groups": 0, "builds": 0, "reuses": 0}
        self._solver_stats: Dict[str, object] = {
            "solves": 0,
            "time_s": {"solve": 0.0, "extract": 0.0, "refresh": 0.0},
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
        # Bumped (under the state lock) once a publish_priors has installed
        # its priors; the service's single-flight gate lets a request join
        # only a build led under the generation it read.
        self.priors_generation = 0
        # Called with no arguments after each bump (the push gateway's hook).
        self.update_listeners: List[Callable[[], None]] = []

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

    #: Config fields that do not enter the forest key as config (``epsilon``
    #: enters as the per-request effective value).  Everything else is
    #: fingerprinted, so a future result-affecting field is keyed
    #: automatically — forgetting to update this list can only cost
    #: cache misses, never serve a stale forest.
    _NON_RESULT_CONFIG_FIELDS = frozenset({"epsilon"})

    def _level_fields(self, privacy_level: int) -> Dict[str, object]:
        """The forest key's inputs other than δ and ε: the level and the engine state."""
        config_fields = {
            spec.name: getattr(self.config, spec.name)
            for spec in fields(self.config)
            if spec.name not in self._NON_RESULT_CONFIG_FIELDS
        }
        leaves = self.tree.leaves()
        return {
            "privacy_level": int(privacy_level),
            "config": config_fields,
            "targets": self._targets_digest(),
            "tree_root": str(self.tree.root.node_id),
            "tree_leaves": len(leaves),
            "leaf_priors": array_digest(np.array([leaf.prior for leaf in leaves], dtype=float)),
        }

    def _forest_fingerprint(self, privacy_level: int, delta: int, epsilon: float) -> str:
        """Cache key folding the full effective configuration.

        Every :class:`ServerConfig` field except the explicit non-result list
        is part of the key (``epsilon`` enters as the per-request effective
        value), together with the target distribution and the tree's identity
        and leaf priors — so mutating any result-affecting input between
        requests can never return a stale forest.
        """
        return fingerprint_fields(delta=int(delta), epsilon=float(epsilon), **self._level_fields(privacy_level))

    # ------------------------------------------------------------------ #
    # Matrix generation (Algorithm 3)
    # ------------------------------------------------------------------ #

    def build_forest(
        self,
        privacy_level: int,
        delta: int,
        *,
        epsilon: Optional[float] = None,
    ) -> PrivacyForest:
        """Generate (or fetch from cache) the privacy forest for the given parameters."""
        forest, _ = self.build_forest_traced(privacy_level, delta, epsilon=epsilon)
        return forest

    def build_forest_traced(
        self,
        privacy_level: int,
        delta: int,
        *,
        epsilon: Optional[float] = None,
    ) -> Tuple[PrivacyForest, bool]:
        """:meth:`build_forest`, additionally reporting whether the forest cache served it.

        The boolean lets the service layer count engine cache hits without
        racing on shared counters.
        """
        epsilon = float(epsilon if epsilon is not None else self.config.epsilon)
        if delta < 0:
            raise ValueError(f"delta must be non-negative, got {delta}")
        with self._priors_reader():
            return self._build_forest_gated(privacy_level, delta, epsilon)

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
    ) -> Tuple[PrivacyForest, bool]:
        """The build body, run while holding a reader slot of the priors gate."""
        forest_key = self._forest_fingerprint(privacy_level, delta, epsilon)
        with self._state_lock:
            cached_forest = self.forest_cache.get(forest_key)
        if cached_forest is not None:
            return cached_forest, True

        forest = PrivacyForest(self.tree, privacy_level, delta, epsilon)
        with Timer() as timer:
            # Two concurrent misses on one level may both prepare it; the
            # preparations are equal, and the later put keeps one.
            level = self.prepared_levels.get_or_compute(
                fingerprint_fields(**self._level_fields(privacy_level)),
                lambda: self._prepare_level(privacy_level),
            )
            generated = self._run_level(level, delta, epsilon)
            self._accumulate_solver_stats(generated)
            for root_id, result in zip(level.roots, generated):
                forest.add(root_id, result.matrix)
        with self._state_lock:
            elapsed = self.stopwatch.record("forest_generation", timer.elapsed)
        clamped = sum(
            1
            for result in generated
            if any(solution.diagnostics.get("clamped_pairs") for solution in result.solutions)
        )
        if clamped:
            logger.warning(
                "privacy level %d, delta %d, epsilon %g: %d of %d solved sub-trees had pair "
                "budgets that exceeded epsilon and were clamped (an infeasible customization, "
                "Section 5.3); consider a smaller delta or a larger epsilon",
                privacy_level,
                delta,
                epsilon,
                clamped,
                len(generated),
            )
        logger.info(
            "generated privacy forest: level=%d delta=%d epsilon=%.2f subtrees=%d (%.2f s)",
            privacy_level,
            delta,
            epsilon,
            len(forest),
            elapsed,
        )
        with self._state_lock:
            self.forest_cache.put(forest_key, forest)
        return forest, False

    # ------------------------------------------------------------------ #
    # Live prior updates
    # ------------------------------------------------------------------ #

    def publish_priors(self, priors: Mapping[str, float], *, normalize: bool = True) -> None:
        """Install new leaf priors (live prior update).

        *priors* maps leaf node ids to (possibly unnormalised) prior mass —
        masses are vetted finite and non-negative up front (a NaN would
        poison every prior in the tree); the tree validates ids and
        aggregates the masses up to the root.  The update takes the writer
        side of the priors gate: it waits for in-flight builds to finish
        and holds new ones back while the tree mutates, so no request can
        be served a forest computed from a half-applied update.  No cache is
        flushed: the forest fingerprint folds the leaf priors in, so no
        later request can see a forest built on the old priors, and those
        entries age out of the LRU.  The update listeners run last.
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
        with self._state_lock:
            self.priors_generation += 1
        notify_update_listeners(self.update_listeners)

    # ------------------------------------------------------------------ #
    # Warm hand-off hooks (cache export / import)
    # ------------------------------------------------------------------ #

    def export_cache_entries(
        self, *, payload_budget_bytes: int = 0
    ) -> List[Dict[str, object]]:
        """Snapshot the forest cache for warm hand-off to a replica.

        Returns one plain dict per cached forest built on the current
        priors, least recently used first: the semantic request key
        (``privacy_level`` / ``delta`` / ``epsilon``) and — while the
        cumulative ``payload_budget_bytes`` allows — the per-sub-tree
        matrices as the payload (``None`` once the budget is spent; the
        receiver pre-warms key-only entries by rebuilding).  A forest whose
        cache key is not the fingerprint its semantic key has now (built on
        priors a later publish replaced) is left out: the receiver installs
        payloads under its own fingerprint of the semantic key, so shipping
        it would serve old-priors matrices under the new priors.
        """
        with self._priors_reader():
            with self._state_lock:
                cached = list(self.forest_cache)
            cached = [
                forest
                for key, forest in cached
                if key == self._forest_fingerprint(forest.privacy_level, forest.delta, forest.epsilon)
            ]
        entries: List[Dict[str, object]] = []
        budget = int(payload_budget_bytes)
        for forest in cached:
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
    ) -> str:
        """Install one handed-off cache entry; returns what happened.

        * ``"imported"`` — the payload was attached to this engine's tree
          and cached under the locally-computed fingerprint;
        * ``"prewarmed"`` — no payload (or a payload whose sub-tree roots
          don't match this tree — a replica-mismatch guard), so the forest
          was rebuilt through the normal cached build path;
        * ``"skipped"`` — the entry names a privacy level this tree doesn't
          have (or a negative δ).
        """
        privacy_level = int(privacy_level)
        delta = int(delta)
        epsilon = float(epsilon)
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
            with self._state_lock:
                self.forest_cache.put(forest_key, forest)
                self._handoff_imports += 1
        return "imported"

    def _accumulate_solver_stats(self, results: List[RobustGenerationResult]) -> None:
        """Fold per-solve LP diagnostics into the engine-wide solver aggregates.

        LP-cache hits run no solver and contribute nothing.
        """
        solves = 0
        stage_times: Dict[str, float] = {}
        for result in results:
            for solution in result.solutions:
                diagnostics = solution.diagnostics
                if diagnostics.get("lp_cache_hit"):
                    continue
                solves += 1
                for stage, elapsed in (diagnostics.get("solve_breakdown_s") or {}).items():
                    stage_times[stage] = stage_times.get(stage, 0.0) + float(elapsed)
        if not solves:
            return
        with self._state_lock:
            self._solver_stats["solves"] = int(self._solver_stats["solves"]) + solves
            time_s = self._solver_stats["time_s"]
            for stage, elapsed in stage_times.items():
                time_s[stage] = time_s.get(stage, 0.0) + elapsed

    def _run_level(self, level: PreparedLevel, delta: int, epsilon: float) -> List[RobustGenerationResult]:
        """Run Algorithm 1 on every sub-tree of a prepared level, in level order.

        Each congruent group shares one :class:`~repro.core.lp.ConstraintStructure`
        (sibling hexagon sub-trees at one level are usually all congruent),
        and every LP goes through the engine's LP cache.  Results are
        identical to unshared serial execution.
        """
        config = self.config
        tasks = [
            RobustGenerationTask(
                key=root_id,
                problem=problem,
                epsilon=epsilon,
                delta=int(delta),
                max_iterations=config.robust_iterations,
                rpb_method=config.rpb_method,
                basis_row=config.rpb_basis_row,
                solver_method=config.solver_method,
                metadata={"subtree_root": root_id},
            )
            for root_id, problem in zip(level.roots, level.problems)
        ]
        group_results = run_robust_task_groups(
            [[tasks[index] for index in indices] for indices in level.groups],
            lp_cache=self.lp_cache,
        )
        results: List[Optional[RobustGenerationResult]] = [None] * len(tasks)
        for indices, group_result in zip(level.groups, group_results):
            for index, result in zip(indices, group_result):
                results[index] = result

        with self._state_lock:
            self._structure_stats["groups"] += len(level.groups)
            for indices in level.groups:
                if level.problems[indices[0]].constraint_set is not None:
                    self._structure_stats["builds"] += 1
                    self._structure_stats["reuses"] += len(indices) - 1
        return results  # type: ignore[return-value]

    def _prepare_level(self, privacy_level: int) -> PreparedLevel:
        """Prepare every sub-tree at *privacy_level* for the current engine state."""
        roots = tuple(root.node_id for root in self.tree.nodes_at_level(privacy_level))
        problems = tuple(self._prepare_subtree(root_id) for root_id in roots)
        groups: Dict[str, List[int]] = {}
        for index, problem in enumerate(problems):
            groups.setdefault(problem.structure_key, []).append(index)
        return PreparedLevel(roots, problems, tuple(tuple(indices) for indices in groups.values()))

    def _prepare_subtree(self, subtree_root_id: str) -> PreparedProblem:
        """One sub-tree's location set, distances, constraint set and quality model.

        Its arrays are made read-only, because every request on the level
        shares them.
        """
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
        centered = QualityLossModel(centers, self.targets, priors)
        # Served matrices are solved with the priors normalised once more by
        # LinearQualityModel; skipping that can move their last bits.
        quality_model = LinearQualityModel(centered.cost_matrix, centered.priors)
        arrays = [distance_matrix, quality_model.cost_matrix, quality_model.priors]
        if constraint_set is not None:
            arrays += [constraint_set.pairs, constraint_set.distances_km]
        for array in arrays:
            array.flags.writeable = False
        return PreparedProblem(node_ids, distance_matrix, quality_model, constraint_set)

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

    def cache_size(self) -> int:
        """Number of cached forests."""
        with self._state_lock:
            return len(self.forest_cache)

    def cache_diagnostics(self) -> Dict[str, object]:
        """Forest-, LP- and structure-cache state for monitoring and the perf harness."""
        with self._state_lock:
            return {
                "forest_entries": len(self.forest_cache),
                "forest_stats": self.forest_cache.stats.as_dict(),
                "handoff_imports": self._handoff_imports,
                "handoff_prewarms": self._handoff_prewarms,
                "lp_entries": len(self.lp_cache),
                "lp_stats": self.lp_cache.stats.as_dict(),
                "structure_sharing": dict(self._structure_stats),
                "solver": {
                    "solves": self._solver_stats["solves"],
                    "time_s": dict(self._solver_stats["time_s"]),
                },
            }
