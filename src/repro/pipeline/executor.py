"""Process-parallel execution of independent robust-generation problems.

Algorithm 3 generates one robust matrix per sub-tree at the privacy level;
the problems share no state, so they fan out across worker processes.  A
task carries only plain arrays (node ids, distances, cost matrix, priors,
constraint pairs) plus scalar knobs, which keeps pickling cheap and avoids
shipping the whole location tree to every worker; the worker rebuilds the
LP objective with :class:`~repro.core.objective.LinearQualityModel`.

Determinism: results are returned in task order regardless of worker count
or completion order (``ProcessPoolExecutor.map`` semantics), and every
worker runs the exact same serial code path as ``max_workers=1``, so the
output is bit-identical to the serial loop.

LP cache: the serial path takes the caller's optional ``lp_cache`` (the
serving engine's) down to every :class:`~repro.core.lp.ObfuscationLP`, so
an LP another task or an earlier request already solved is not solved
again.  The cache is a parameter, never worker state: the per-thread solver
slot below outlives any one engine, and a cache kept there would let two
engines in one process share entries.  Worker processes get no cache; a
hit returns the bits a solve would, so results are the same either way.
"""

from __future__ import annotations

import threading
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro.core.geoind import GeoIndConstraintSet
from repro.core.lp import ConstraintStructure
from repro.core.objective import LinearQualityModel
from repro.core.robust import RobustGenerationResult, RobustMatrixGenerator
from repro.core.solver import SolverSession, create_session
from repro.pipeline.cache import MatrixCache
from repro.pipeline.fingerprint import structure_fingerprint
from repro.utils.logging import get_logger

logger = get_logger(__name__)

class _ThreadLocalSolverState(threading.local):
    """Per-thread cache of the most recent (structure, solver session) pair.

    Keyed by structure fingerprint + solver knobs.  A worker process that
    executes many congruent groups in sequence — every point of an ε/δ sweep
    over the same location set routes here — keeps ONE persistent solver
    session and batches all its solves through it instead of building a fresh
    LP model per point.  Bounded to a single entry: sweeps are homogeneous,
    and one structure + one native model is the memory budget per worker.

    The cache MUST be thread-local, not merely process-local: the serving
    engine runs ``execute_robust_task_group`` inline on the request thread
    when ``max_workers == 1``, and concurrent requests for distinct keys
    solve on different threads of the same process.  A shared structure's
    refresh-in-place coefficients (and a shared warm session) would then be
    mutated mid-solve by a sibling thread, producing *valid-looking but
    different* LP solutions run to run.  ``threading.local`` gives every
    request thread — and every pool worker process, whose work runs on its
    main thread — its own slot.
    """

    def __init__(self) -> None:
        self.key = None
        self.structure = None
        self.session = None

    def __getitem__(self, name: str):
        return getattr(self, name)

    def __setitem__(self, name: str, value) -> None:
        setattr(self, name, value)


_WORKER_SOLVER_STATE = _ThreadLocalSolverState()


@dataclass
class RobustGenerationTask:
    """One self-contained robust-generation problem (picklable).

    Attributes mirror the :class:`~repro.core.robust.RobustMatrixGenerator`
    arguments; ``key`` is an opaque caller-side identifier (the sub-tree
    root id on the server) carried through to correlate results.
    """

    key: str
    node_ids: List[str]
    distance_matrix_km: np.ndarray
    cost_matrix: np.ndarray
    priors: Optional[np.ndarray]
    epsilon: float
    delta: int
    constraint_pairs: Optional[np.ndarray] = None
    constraint_distances_km: Optional[np.ndarray] = None
    constraint_description: str = "custom"
    max_iterations: int = 10
    rpb_method: str = "approx"
    basis_row: str = "real"
    solver_method: str = "highs"
    solver_backend: str = "auto"
    level: int = 0
    metadata: dict = field(default_factory=dict)

    def constraint_set(self) -> Optional[GeoIndConstraintSet]:
        """Rebuild the constraint set, or None for the all-pairs default."""
        if self.constraint_pairs is None:
            return None
        return GeoIndConstraintSet(
            pairs=self.constraint_pairs,
            distances_km=self.constraint_distances_km,
            description=self.constraint_description,
        )


def execute_robust_task(
    task: RobustGenerationTask,
    *,
    structure: Optional[ConstraintStructure] = None,
    session: Optional[SolverSession] = None,
    lp_cache: Optional[MatrixCache] = None,
) -> RobustGenerationResult:
    """Run Algorithm 1 for one task (the worker entry point).

    ``structure`` optionally injects a pre-built
    :class:`~repro.core.lp.ConstraintStructure` congruent with the task's
    constraint pairs, so sibling problems with identical geometry skip the
    structural assembly; the refreshed coefficients are identical to a cold
    build, so results do not depend on whether a structure was shared.

    ``session`` optionally injects a shared
    :class:`~repro.core.solver.SolverSession` (the per-worker warm solver).
    Its warm state is **reset at the task boundary**: basis reuse spans the
    ``t`` solves *within* one Algorithm-1 run — where the solve sequence is
    fixed — but never leaks across tasks, so a task's result stays
    independent of which tasks its worker happened to execute before it
    (the grouping/worker-count/shard byte-identity contract).  What carries
    across tasks is the expensive part: the persistent native model and its
    stacked sparsity pattern.

    ``lp_cache`` optionally serves repeated LPs (see the module docstring).
    """
    quality_model = LinearQualityModel(task.cost_matrix, task.priors)
    if session is not None:
        session.reset()
    generator = RobustMatrixGenerator(
        task.node_ids,
        task.distance_matrix_km,
        quality_model,
        task.epsilon,
        task.delta,
        constraint_set=task.constraint_set(),
        max_iterations=task.max_iterations,
        rpb_method=task.rpb_method,  # type: ignore[arg-type]
        basis_row=task.basis_row,  # type: ignore[arg-type]
        solver_method=task.solver_method,
        solver_backend=task.solver_backend,
        structure=structure,
        session=session,
        level=task.level,
        lp_cache=lp_cache,
    )
    result = generator.generate()
    result.matrix.metadata.update(task.metadata)
    return result


def execute_robust_task_group(
    tasks: Sequence[RobustGenerationTask],
    *,
    lp_cache: Optional[MatrixCache] = None,
) -> List[RobustGenerationResult]:
    """Execute a batch of congruent tasks sharing one structure and solver session.

    The first graph-constrained task builds the structure and the solver
    session; every later task whose pairs match reuses both (coefficient
    refresh-in-place, persistent native model).  Both also persist in a
    per-process slot keyed by structure fingerprint + solver knobs, so a
    worker that executes many congruent groups across calls — an ε/δ sweep
    fanned out point by point — batches every solve through one session
    instead of rebuilding the model per point.  Tasks without explicit
    constraint pairs — the all-pairs formulation, whose constraint set is
    derived from each task's own distance matrix — run unshared, as do tasks
    whose geometry turns out not to match (defensive; the caller groups by
    :func:`~repro.pipeline.fingerprint.structure_fingerprint`, which already
    prevents that).  Warm solver state is reset between tasks (see
    :func:`execute_robust_task`), so results are identical to unshared
    serial execution.  ``lp_cache`` is passed to every task.
    """
    results: List[RobustGenerationResult] = []
    state = _WORKER_SOLVER_STATE
    for task in tasks:
        constraint_set = task.constraint_set()
        if constraint_set is None:
            results.append(execute_robust_task(task, lp_cache=lp_cache))
            continue
        size = len(task.node_ids)
        key = (
            structure_fingerprint(size, task.constraint_pairs),
            str(task.solver_backend),
            str(task.solver_method),
        )
        if (
            state["key"] != key
            or state["structure"] is None
            or not state["structure"].compatible_with(size, constraint_set)
        ):
            state["structure"] = ConstraintStructure(size, constraint_set)
            state["session"] = create_session(
                task.solver_backend, solver_method=task.solver_method
            )
            state["key"] = key
        results.append(
            execute_robust_task(
                task, structure=state["structure"], session=state["session"], lp_cache=lp_cache
            )
        )
    return results


def run_robust_tasks(
    tasks: Sequence[RobustGenerationTask],
    *,
    max_workers: int = 1,
) -> List[RobustGenerationResult]:
    """Execute every task, serially or across processes, in task order.

    ``max_workers <= 1`` (or a single task) runs the plain serial loop.
    When worker processes cannot be spawned (restricted environments), the
    executor logs a warning and falls back to the serial path rather than
    failing the request.
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    tasks = list(tasks)
    if max_workers == 1 or len(tasks) <= 1:
        return [execute_robust_task(task) for task in tasks]
    try:
        with ProcessPoolExecutor(max_workers=min(max_workers, len(tasks))) as pool:
            return list(pool.map(execute_robust_task, tasks))
    except (OSError, BrokenProcessPool) as error:
        # OSError: workers could not be spawned at all; BrokenProcessPool: a
        # worker died mid-run (OOM kill, spawn re-import failure).  Task-level
        # exceptions (e.g. infeasible LPs) propagate with their original type.
        logger.warning(
            "parallel generation unavailable (%s); falling back to serial", error
        )
        return [execute_robust_task(task) for task in tasks]


def run_robust_task_groups(
    groups: Sequence[Sequence[RobustGenerationTask]],
    *,
    max_workers: int = 1,
    lp_cache: Optional[MatrixCache] = None,
) -> List[List[RobustGenerationResult]]:
    """Execute groups of congruent tasks, serially or across processes.

    Each group shares one constraint structure (built inside the executing
    worker, so nothing scipy-sparse crosses a process boundary); groups are
    independent and fan out exactly like individual tasks in
    :func:`run_robust_tasks`.  Results are returned per group, in group and
    task order, identical for every worker count.  ``lp_cache`` serves the
    serial path only; worker processes solve every LP.
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    groups = [list(group) for group in groups]
    if max_workers == 1 or len(groups) <= 1:
        return [execute_robust_task_group(group, lp_cache=lp_cache) for group in groups]
    try:
        with ProcessPoolExecutor(max_workers=min(max_workers, len(groups))) as pool:
            return list(pool.map(execute_robust_task_group, groups))
    except (OSError, BrokenProcessPool) as error:
        logger.warning(
            "parallel generation unavailable (%s); falling back to serial", error
        )
        return [execute_robust_task_group(group, lp_cache=lp_cache) for group in groups]
