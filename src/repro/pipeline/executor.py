"""Execution of independent robust-generation problems.

Algorithm 3 generates one robust matrix per sub-tree at the privacy level;
the problems share no state.  A task is a :class:`PreparedProblem` (node
ids, distances, quality model, constraint set and the structure key that
groups congruent problems) plus scalar knobs.  A prepared problem is never
modified once built, so the serving engine prepares each sub-tree once per
(level, engine state) and hands the same problems to every (δ, ε) request.

The serving engine runs its sub-tree tasks through
:func:`run_robust_task_groups`, serially on the request thread, grouped by
congruent geometry.  The experiments fan independent points out across
worker processes through :func:`run_robust_tasks`; results are returned in
task order regardless of worker count or completion order
(``ProcessPoolExecutor.map`` semantics), and every worker runs the same
serial code path as ``max_workers=1``, so the output is bit-identical to
the serial loop.

LP cache: :func:`run_robust_task_groups` takes the caller's optional
``lp_cache`` (the serving engine's) down to every
:class:`~repro.core.lp.ObfuscationLP`, so an LP another task or an earlier
request already solved is not solved again.  The cache is a parameter,
never thread state: the per-thread solver slot below outlives any one
engine, and a cache kept there would let two engines in one process share
entries.
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
from repro.core.solver import SolverSession
from repro.pipeline.cache import MatrixCache
from repro.pipeline.fingerprint import structure_fingerprint
from repro.utils.logging import get_logger

logger = get_logger(__name__)


class _ThreadLocalSolverState(threading.local):
    """Per-thread cache of the most recent (structure, solver session) pair.

    Keyed by structure key + solver method.  A thread that executes
    many congruent groups in sequence (every sub-tree of a level, every
    point of an ε/δ sweep over the same location set) keeps one structure
    and one solver session, so the stacked constraint pattern is bound once
    instead of per problem.  Bounded to a single entry: sweeps are
    homogeneous.

    The cache MUST be thread-local, not merely process-local: the serving
    engine runs ``execute_robust_task_group`` inline on the request thread,
    and concurrent requests for distinct keys solve on different threads of
    the same process.  A shared structure's refresh-in-place coefficients
    would then be mutated mid-solve by a sibling thread, producing
    *valid-looking but different* LP solutions run to run.
    ``threading.local`` gives every request thread its own slot.
    """

    def __init__(self) -> None:
        self.key = None
        self.structure = None
        self.session = None


_WORKER_SOLVER_STATE = _ThreadLocalSolverState()


@dataclass(frozen=True, eq=False)
class PreparedProblem:
    """What Algorithm 1 takes of one location set, built once (picklable).

    ``constraint_set`` is ``None`` for the all-pairs formulation, which each
    LP resolves against its own distance matrix.  ``structure_key`` is the
    problem's :func:`~repro.pipeline.fingerprint.structure_fingerprint`:
    problems with equal keys are congruent and can share one constraint
    structure.
    """

    node_ids: List[str]
    distance_matrix_km: np.ndarray
    quality_model: LinearQualityModel
    constraint_set: Optional[GeoIndConstraintSet] = None
    structure_key: str = field(init=False)

    def __post_init__(self) -> None:
        pairs = None if self.constraint_set is None else self.constraint_set.pairs
        object.__setattr__(self, "structure_key", structure_fingerprint(len(self.node_ids), pairs))


@dataclass
class RobustGenerationTask:
    """One self-contained robust-generation problem (picklable).

    ``problem`` and the knobs mirror the
    :class:`~repro.core.robust.RobustMatrixGenerator` arguments; ``key`` is
    an opaque caller-side identifier (the sub-tree root id on the server)
    carried through to correlate results, and ``metadata`` is copied into
    the produced matrix.
    """

    key: str
    problem: PreparedProblem
    epsilon: float
    delta: int
    max_iterations: int = 10
    rpb_method: str = "approx"
    basis_row: str = "real"
    solver_method: str = "highs"
    level: int = 0
    metadata: dict = field(default_factory=dict)


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
    :class:`~repro.core.solver.SolverSession` (the per-thread solver).
    Every solve is cold, so a task's result does not depend on which tasks
    the session solved before it; what carries across tasks is the bound
    stacked sparsity pattern.

    ``lp_cache`` optionally serves repeated LPs (see the module docstring).
    """
    problem = task.problem
    generator = RobustMatrixGenerator(
        problem.node_ids,
        problem.distance_matrix_km,
        problem.quality_model,
        task.epsilon,
        task.delta,
        constraint_set=problem.constraint_set,
        max_iterations=task.max_iterations,
        rpb_method=task.rpb_method,  # type: ignore[arg-type]
        basis_row=task.basis_row,  # type: ignore[arg-type]
        solver_method=task.solver_method,
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
    refresh-in-place, one bound pattern).  Both also persist in the
    per-thread slot keyed by structure key + solver method, so a thread
    that executes many congruent groups across calls reuses them too.
    Tasks without a constraint set — the all-pairs formulation, whose
    constraint set is derived from each task's own distance matrix — run
    unshared, as do tasks whose geometry turns out not to match
    (defensive; the caller groups by structure key, which already prevents
    that).  Results are identical to unshared serial execution.
    ``lp_cache`` is passed to every task.
    """
    results: List[RobustGenerationResult] = []
    state = _WORKER_SOLVER_STATE
    for task in tasks:
        problem = task.problem
        constraint_set = problem.constraint_set
        if constraint_set is None:
            results.append(execute_robust_task(task, lp_cache=lp_cache))
            continue
        size = len(problem.node_ids)
        key = (problem.structure_key, str(task.solver_method))
        if (
            state.key != key
            or state.structure is None
            or not state.structure.compatible_with(size, constraint_set)
        ):
            state.structure = ConstraintStructure(size, constraint_set)
            state.session = SolverSession()
            state.key = key
        results.append(
            execute_robust_task(task, structure=state.structure, session=state.session, lp_cache=lp_cache)
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
    lp_cache: Optional[MatrixCache] = None,
) -> List[List[RobustGenerationResult]]:
    """Execute groups of congruent tasks serially on the calling thread.

    Each group shares one constraint structure and solver session (see
    :func:`execute_robust_task_group`).  Results are returned per group, in
    group and task order; ``lp_cache`` is passed to every task.
    """
    return [execute_robust_task_group(group, lp_cache=lp_cache) for group in groups]
