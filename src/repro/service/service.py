"""The CORGI service front: request semantics over the forest engine.

Figure 1's trust model is an explicit client/server protocol, and a server
facing millions of users needs more than a callable engine.  The
:class:`CORGIService` wraps a :class:`~repro.server.engine.ForestEngine`
with exactly the concerns a serving tier owns:

* **validation / normalization** — wire payloads are coerced into
  well-typed :class:`~repro.server.messages.ObfuscationRequest` objects and
  the effective ε is resolved *before* keying, so ``epsilon: null`` and an
  explicit default coalesce to the same build;
* **single-flight coalescing** — concurrent identical ``(privacy_level, δ,
  ε)`` requests share one forest build: the first caller becomes the
  *leader* and runs the engine, everyone else waits on the leader's result
  (millions of users request the handful of sanctioned parameter
  combinations, so this is the difference between one LP campaign and N).
  The result is a ``concurrent.futures.Future``, so request threads and
  the push gateway's event loop (:mod:`repro.service.gateway`) wait on
  the same entry;
* **bounded batching** — :meth:`handle_batch` deduplicates identical
  requests inside one batch and bounds the number of distinct builds a
  single batch may demand;
* **admission control** — at most ``max_in_flight`` engine builds run
  concurrently and at most ``max_queue_depth`` further *distinct* builds
  may wait; beyond that the service fails fast with
  :class:`ServiceOverloadedError` (HTTP 503 on the wire) instead of
  accumulating unbounded work;
* **metrics** — per-request latency percentiles and coalesce/cache-hit
  counters (:class:`~repro.service.metrics.ServiceMetrics`).

The service is transport-agnostic: :mod:`repro.service.http` exposes it
over stdlib HTTP, and :class:`~repro.client.transport.InProcessTransport`
calls it directly.  It sits between the two protocols of the serving
stack: it drives an *engine* (:class:`~repro.server.engine.ForestEngine`
or :class:`~repro.service.pool.EnginePool`, which answer
``build_forest_traced`` / ``build_forest``) and is itself a *provider*
(it answers ``generate_privacy_forest``), so a
:class:`~repro.client.client.CORGIClient` can sit right on top of it and
benefit from coalescing without any wire format in between.
"""

from __future__ import annotations

import threading
import time
from concurrent import futures
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.core.exceptions import CORGIError
from repro.server.engine import ForestEngine
from repro.server.messages import ObfuscationRequest, PrivacyForestResponse
from repro.server.privacy_forest import PrivacyForest
from repro.service.metrics import ServiceMetrics
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = [
    "CORGIService",
    "CoalescedBuildError",
    "ServiceBuildTimeoutError",
    "ServiceConfig",
    "ServiceOverloadedError",
    "rewrap_for_follower",
]


class ServiceOverloadedError(CORGIError):
    """The service is at capacity (admission control rejected the request).

    Transports map this to HTTP 503; in-process callers should back off and
    retry.  Carrying a dedicated type (rather than a generic ``RuntimeError``)
    lets callers distinguish overload from request errors.
    """


class ServiceBuildTimeoutError(CORGIError):
    """A coalesced follower's wait for the build leader exceeded its deadline.

    Followers used to block on the leader's rendezvous event with no
    timeout; a leader thread dying without reaching its ``finally`` block
    (interpreter teardown, ``SystemExit`` in a transport thread) would hang
    them forever.  This error is transient from the caller's perspective —
    retrying starts a fresh build — so transports map it to HTTP 503, never
    500.
    """


class CoalescedBuildError(CORGIError):
    """Fallback wrapper for a leader error that cannot be copied per follower.

    Used by :func:`rewrap_for_follower` when the original exception type
    cannot be reconstructed from its ``args`` (custom constructor
    signature); the original is always attached as ``__cause__``.
    """


def rewrap_for_follower(error: BaseException) -> BaseException:
    """A per-follower copy of the leader's exception, original as ``__cause__``.

    Re-raising the leader's *same* exception instance in every coalesced
    follower makes N threads concurrently mutate one shared
    ``__traceback__``, interleaving frames from unrelated requests in the
    logs.  Each follower instead raises its own instance: same type and
    ``args`` when the type is reconstructible (so transport error mapping
    is unchanged), else a :class:`CoalescedBuildError` carrying the
    message.  Either way the untouched original hangs off ``__cause__``.
    """
    try:
        copy = type(error)(*error.args)
    except BaseException:  # noqa: BLE001 - constructor shape is arbitrary
        copy = CoalescedBuildError(f"{type(error).__name__}: {error}")
    copy.__cause__ = error
    return copy


@dataclass
class ServiceConfig:
    """Serving-tier knobs (the engine has its own :class:`ServerConfig`).

    Attributes
    ----------
    max_in_flight:
        Maximum number of engine builds running concurrently.  Coalesced
        followers do not consume a slot — only build leaders do.
    max_queue_depth:
        Maximum number of *additional* distinct builds allowed to wait for
        a slot; a new distinct request beyond ``max_in_flight +
        max_queue_depth`` is rejected with :class:`ServiceOverloadedError`.
    max_batch_size:
        Upper bound on the number of *distinct* builds one
        :meth:`CORGIService.handle_batch` call may trigger (duplicates
        inside the batch are deduplicated first and don't count).
    latency_window:
        Number of latency observations retained for percentile reporting.
    build_wait_timeout_s:
        Deadline (seconds) a coalesced follower waits for its build leader
        before failing with :class:`ServiceBuildTimeoutError` (HTTP 503).
        It bounds followers on the push gateway's event loop too; a
        gateway follower's wait includes the time its leader queues for a
        gateway build thread.  Size it to the slowest legitimate cold
        build, not to network latency — it only exists so a leader that
        died without settling its entry (interpreter teardown,
        ``SystemExit``) cannot strand followers forever.
    """

    max_in_flight: int = 4
    max_queue_depth: int = 32
    max_batch_size: int = 16
    latency_window: int = 4096
    build_wait_timeout_s: float = 300.0

    def validate(self) -> None:
        """Raise :class:`ValueError` for inconsistent settings."""
        if self.max_in_flight < 1:
            raise ValueError("max_in_flight must be >= 1")
        if self.max_queue_depth < 0:
            raise ValueError("max_queue_depth must be non-negative")
        if self.max_batch_size < 1:
            raise ValueError("max_batch_size must be >= 1")
        if self.latency_window < 1:
            raise ValueError("latency_window must be >= 1")
        if self.build_wait_timeout_s <= 0:
            raise ValueError("build_wait_timeout_s must be positive")


class _InFlightBuild:
    """One in-progress forest build (single-flight entry).

    Every caller of the key, on a thread or an event loop, waits on
    ``future`` for the forest or the leader's error.  It is running from
    the start because cancelling an ``asyncio.wrap_future`` awaiter cancels
    a *pending* future, and the other callers must still get the outcome.
    ``generation`` is the engine's ``priors_generation`` when the build
    was led; only requests that read the same generation may join it.
    """

    __slots__ = ("future", "followers", "generation")

    def __init__(self, generation: int) -> None:
        self.future: "Future[PrivacyForest]" = Future()
        self.future.set_running_or_notify_cancel()
        self.followers = 0
        self.generation = generation


#: Normalized request identity: ``(privacy_level, delta, effective_epsilon)``.
RequestKey = Tuple[int, int, float]


class CORGIService:
    """Batched, single-flight request front for one forest engine.

    Parameters
    ----------
    engine:
        The engine to serve: a :class:`~repro.server.engine.ForestEngine`,
        a sharded :class:`~repro.service.pool.EnginePool`, or anything else
        exposing the same ``build_forest_traced`` / ``tree`` / ``config``
        surface.
    config:
        Serving-tier limits; defaults are sized for a small deployment.
    """

    def __init__(
        self,
        engine: ForestEngine,
        config: Optional[ServiceConfig] = None,
    ) -> None:
        self.engine = engine
        if not (
            callable(getattr(engine, "build_forest_traced", None))
            and hasattr(engine, "tree")
            and hasattr(engine, "config")
        ):
            raise TypeError(
                "engine must be a ForestEngine or EnginePool "
                f"(or duck-compatible), got {type(engine).__name__}"
            )
        self.config = config or ServiceConfig()
        self.config.validate()
        self.metrics = ServiceMetrics(self.config.latency_window)
        self._lock = threading.Lock()
        self._inflight: Dict[RequestKey, _InFlightBuild] = {}
        self._pending_leaders = 0
        self._build_slots = threading.BoundedSemaphore(self.config.max_in_flight)
        # Attached gateway diagnostics providers (callables returning a
        # JSON-friendly dict), merged into diagnostics()/snapshot().
        self._gateway_diagnostics: List = []

    # ------------------------------------------------------------------ #
    # Priors-update listeners (push-gateway hook)
    # ------------------------------------------------------------------ #

    def add_update_listener(self, listener) -> None:
        """Register ``listener()`` to run after each priors install.

        The listener joins the engine's ``update_listeners``, which the
        engine calls wherever it installs priors: a local
        :meth:`publish_priors` and, on a replication follower, every
        replicated publish and reset.  The gateway uses this to push
        refreshed matrices to held connections.  Listeners run on the
        installing thread and must not block; one that raises is logged and
        never fails the update.
        """
        if not callable(listener):
            raise TypeError("update listener must be callable")
        self.engine.update_listeners.append(listener)

    def remove_update_listener(self, listener) -> None:
        """Unregister a listener previously added (missing ones are ignored)."""
        try:
            self.engine.update_listeners.remove(listener)
        except ValueError:
            pass

    def attach_gateway_diagnostics(self, provider) -> None:
        """Register a gateway stats provider merged into :meth:`diagnostics`."""
        if not callable(provider):
            raise TypeError("gateway diagnostics provider must be callable")
        self._gateway_diagnostics.append(provider)

    def detach_gateway_diagnostics(self, provider) -> None:
        """Unregister a gateway stats provider (missing ones are ignored)."""
        try:
            self._gateway_diagnostics.remove(provider)
        except ValueError:
            pass

    # ------------------------------------------------------------------ #
    # Validation / normalization
    # ------------------------------------------------------------------ #

    def normalize(self, request: ObfuscationRequest) -> RequestKey:
        """Validate a request against the served tree and resolve its identity.

        The effective ε (request override or engine default) is folded into
        the key so that requests that *mean* the same build coalesce even
        when one spells the default out and the other omits it.

        Raises
        ------
        ValueError
            For a privacy level outside the tree, or out-of-range δ/ε (the
            message dataclass has already vetted its own fields).
        """
        privacy_level = int(request.privacy_level)
        if not 0 <= privacy_level <= self.engine.tree.height:
            raise ValueError(
                f"privacy_level must be in [0, {self.engine.tree.height}], got {privacy_level}"
            )
        epsilon = request.epsilon if request.epsilon is not None else self.engine.config.epsilon
        return (privacy_level, int(request.delta), float(epsilon))

    # ------------------------------------------------------------------ #
    # Single-flight forest acquisition
    # ------------------------------------------------------------------ #

    def generate_privacy_forest(
        self,
        privacy_level: int,
        delta: int,
        *,
        epsilon: Optional[float] = None,
    ) -> PrivacyForest:
        """The provider protocol: coalesced access for in-process clients."""
        request = ObfuscationRequest(
            privacy_level=int(privacy_level),
            delta=int(delta),
            epsilon=None if epsilon is None else float(epsilon),
        )
        return self._forest_for(self.normalize(request))

    def _forest_for(self, key: RequestKey) -> PrivacyForest:
        """Serve one normalized request through the single-flight gate.

        The caller joins *key*'s in-flight build or registers one; a leader
        builds at once on this thread, a follower waits for the outcome.
        """
        start = time.perf_counter()
        entry, leader = self._join(key)
        try:
            if leader:
                self._lead(key, entry)
            elif not futures.wait((entry.future,), timeout=self.config.build_wait_timeout_s).done:
                # The leader never settled (thread killed mid-build,
                # interpreter teardown) or is pathologically slow; either
                # way the follower must not hang forever.
                raise self._follower_timeout(key)
            return self._outcome(entry.future, leader)
        finally:
            self.metrics.observe_latency(time.perf_counter() - start)

    def _join(self, key: RequestKey) -> Tuple[_InFlightBuild, bool]:
        """Join *key*'s in-flight build or register one; ``(entry, leads)``.

        A leader hands the entry to :meth:`_lead`, on its own thread or a
        build thread; every caller then waits on ``entry.future``.
        """
        self.metrics.increment("requests")
        with self._lock:
            # The engine bumps its priors generation once a publish (local or
            # replicated) has installed the new priors: a build led before
            # that may have run on the old priors, so a later request must
            # lead its own build rather than join it.
            generation = getattr(self.engine, "priors_generation", 0)
            entry = self._inflight.get(key)
            leader = entry is None or entry.generation != generation
            if leader:
                entry = _InFlightBuild(generation)
                self._inflight[key] = entry
            else:
                entry.followers += 1
        if not leader:
            self.metrics.increment("coalesced")
        return entry, leader

    def _lead(self, key: RequestKey, entry: _InFlightBuild) -> None:
        """Run *entry*'s build and settle it; never raises.

        A leader counts against ``max_in_flight + max_queue_depth`` from
        when it starts here, not from registration: a gateway leader queued
        for a build thread cannot be refused.  One refused here settles its
        entry with :class:`ServiceOverloadedError`.
        """
        privacy_level, delta, epsilon = key
        capacity = self.config.max_in_flight + self.config.max_queue_depth
        with self._lock:
            admitted = self._pending_leaders < capacity
            if admitted:
                self._pending_leaders += 1
        if not admitted:
            self.metrics.increment("rejected")
            overloaded = ServiceOverloadedError(
                f"service at capacity: {self.config.max_in_flight} builds in flight "
                f"and {self.config.max_queue_depth} queued"
            )
            self._settle(key, entry, overloaded, admitted=False)
            return
        try:
            with self._build_slots:
                forest, cached = self.engine.build_forest_traced(privacy_level, delta, epsilon=epsilon)
        except BaseException as error:  # noqa: BLE001 - the callers re-raise it
            self.metrics.increment("failed")
            self._settle(key, entry, error)
            return
        self.metrics.increment("engine_cache_hits" if cached else "engine_builds")
        self._settle(key, entry, forest)
        if entry.followers:
            logger.debug(
                "single-flight: level=%d delta=%d epsilon=%.3f served %d coalesced followers",
                privacy_level,
                delta,
                epsilon,
                entry.followers,
            )

    def _settle(self, key: RequestKey, entry: _InFlightBuild, outcome, *, admitted: bool = True) -> None:
        """Retire *entry* from the table, then publish its outcome, so no
        caller that has seen the outcome still finds the entry in the
        :meth:`snapshot` gauges."""
        with self._lock:
            if admitted:
                self._pending_leaders -= 1
            if self._inflight.get(key) is entry:  # else a newer leader's
                del self._inflight[key]
        if isinstance(outcome, BaseException):
            entry.future.set_exception(outcome)
        else:
            entry.future.set_result(outcome)  # type: ignore[arg-type]

    def _follower_timeout(self, key: RequestKey) -> ServiceBuildTimeoutError:
        """Count a follower that gave up on its leader; the error it raises."""
        privacy_level, delta, epsilon = key
        self.metrics.increment("build_timeouts")
        return ServiceBuildTimeoutError(
            f"coalesced follower waited {self.config.build_wait_timeout_s:.1f}s "
            f"for the build leader of level={privacy_level} delta={delta} "
            f"epsilon={epsilon:g}; retry to start a fresh build"
        )

    @staticmethod
    def _outcome(settled, leader: bool) -> PrivacyForest:
        """The forest of a settled ``entry.future`` (or its ``asyncio.wrap_future``).

        The leader raises the error itself; each follower raises its own
        copy, since N callers re-raising one instance mutate one ``__traceback__``.
        """
        error = settled.exception()
        if error is None:
            return settled.result()
        if leader:
            raise error
        raise rewrap_for_follower(error) from error

    # ------------------------------------------------------------------ #
    # Request handling
    # ------------------------------------------------------------------ #

    def handle(self, request: ObfuscationRequest) -> PrivacyForestResponse:
        """Serve one request end to end and package the forest as a response."""
        key = self.normalize(request)
        forest = self._forest_for(key)
        return self._package(forest)

    def handle_dict(self, payload: Mapping[str, object]) -> Dict[str, object]:
        """Wire-level entry point: dict in, dict out (used by the HTTP transport)."""
        request = ObfuscationRequest.from_dict(payload)
        return self.handle(request).to_dict()

    def handle_batch(
        self, requests: Sequence[ObfuscationRequest]
    ) -> List[PrivacyForestResponse]:
        """Serve a batch of requests, deduplicating identical ones.

        Identical requests inside the batch share one build (intra-batch
        coalescing, counted as ``batch_coalesced``); distinct builds still
        pass through the single-flight gate, so two concurrent batches
        asking for the same forest also share work.  A batch demanding more
        than ``max_batch_size`` *distinct* builds is rejected outright.

        Distinct builds fan out across at most ``max_in_flight`` threads —
        running them sequentially would leave the build slots the service
        was configured with idle — and since this batch can occupy at most
        that many leader slots at once, it can never trip its own
        admission control.
        """
        self.metrics.increment("batches")
        self.metrics.increment("batch_requests", len(requests))
        keys = [self.normalize(request) for request in requests]
        distinct = list(dict.fromkeys(keys))
        if len(distinct) > self.config.max_batch_size:
            self.metrics.increment("rejected")
            raise ServiceOverloadedError(
                f"batch demands {len(distinct)} distinct builds; "
                f"max_batch_size is {self.config.max_batch_size}"
            )
        self.metrics.increment("batch_coalesced", len(keys) - len(distinct))
        if len(distinct) <= 1:
            forests = {key: self._forest_for(key) for key in distinct}
        else:
            workers = min(len(distinct), self.config.max_in_flight)
            with ThreadPoolExecutor(max_workers=workers) as pool:
                forests = dict(zip(distinct, pool.map(self._forest_for, distinct)))
        return [self._package(forests[key]) for key in keys]

    def handle_batch_dicts(
        self, payloads: Sequence[Mapping[str, object]]
    ) -> List[Dict[str, object]]:
        """Wire-level batch entry point: list of dicts in, list of dicts out."""
        requests = [ObfuscationRequest.from_dict(payload) for payload in payloads]
        return [response.to_dict() for response in self.handle_batch(requests)]

    @staticmethod
    def _package(forest: PrivacyForest) -> PrivacyForestResponse:
        return PrivacyForestResponse(
            privacy_level=forest.privacy_level,
            delta=forest.delta,
            epsilon=forest.epsilon,
            matrices={root_id: matrix for root_id, matrix in forest},
        )

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def publish_leaf_priors(self, subtree_root_id: str) -> Dict[str, float]:
        """Leaf priors of one sub-tree (exposed on the wire as ``/priors/<id>``)."""
        return self.engine.publish_leaf_priors(subtree_root_id)

    # ------------------------------------------------------------------ #
    # Admin surface
    # ------------------------------------------------------------------ #

    def publish_priors(self, priors: Mapping[str, float], *, normalize: bool = True) -> None:
        """Install new leaf priors (live update).

        Exposed on the wire as ``POST /admin/priors``; on a pool the update
        reaches every shard — and, when the pool is a replication primary,
        every follower head tailing its control log.  A follower pool
        refuses the local write with
        :class:`~repro.service.replication.ReplicationRoleError` (HTTP 400).
        """
        self.engine.publish_priors(priors, normalize=normalize)

    def drain(self, slot: int) -> Dict[str, object]:
        """Gracefully drain one shard slot with warm hand-off to its siblings.

        Only meaningful when the engine is a sharded
        :class:`~repro.service.pool.EnginePool`; a plain engine has no slots
        and raises :class:`ValueError` (HTTP 400 on the wire, like every
        other bad drain request — see ``POST /admin/drain``).  The pool
        counts drains and hand-offs itself; the next :meth:`snapshot`
        reports them under ``["engine"]["pool"]``.
        """
        drain = getattr(self.engine, "drain", None)
        if not callable(drain):
            raise ValueError(
                "engine has no shard slots to drain (serving a single-process "
                "engine, not an EnginePool)"
            )
        return drain(slot)

    def diagnostics(self) -> Dict[str, object]:
        """Engine cache/pool diagnostics (hand-off counters included on a pool).

        When a push gateway is attached its connection/subscription gauges
        are merged under ``"gateway"`` so ``GET /admin/diagnostics`` is the
        one stop for the whole serving stack.
        """
        diagnostics = dict(self.engine.cache_diagnostics())
        if self._gateway_diagnostics:
            gateways = []
            for provider in self._gateway_diagnostics:
                try:
                    gateways.append(provider())
                except Exception:  # noqa: BLE001 - diagnostics must stay a probe
                    logger.exception("gateway diagnostics provider failed")
            diagnostics["gateway"] = gateways[0] if len(gateways) == 1 else gateways
        return diagnostics

    def durability(self) -> Dict[str, object]:
        """Durable-tier diagnostics: control-log replay, store hits, ratios.

        Exposed on the wire as ``GET /admin/durability``.  A plain engine
        (or a pool without ``state_dir``) reports ``durable: False`` rather
        than erroring — the endpoint is a probe, not a capability check.
        On a replicated pool the payload carries a ``replication`` block:
        role, per-follower acked cursors and lag on a primary; source,
        durable cursor, applied/skipped counters and lag on a follower.
        """
        probe = getattr(self.engine, "durability_diagnostics", None)
        if callable(probe):
            return probe()
        return {"durable": False, "state_dir": None, "errors": []}

    def snapshot(self) -> Dict[str, object]:
        """Service metrics plus engine cache diagnostics, JSON-friendly.

        The in-flight gauges are read under the service lock so the snapshot
        is one consistent view of the single-flight table.
        ``inflight_keys`` counts every registered build; ``pending_leaders``
        counts only the leaders that have started, so a gateway leader
        still queued for a gateway build thread is not in it.
        """
        with self._lock:
            gauges = {
                "pending_leaders": self._pending_leaders,
                "inflight_keys": len(self._inflight),
            }
        return {
            "service": self.metrics.snapshot(),
            "gauges": gauges,
            "engine": self.engine.cache_diagnostics(),
            "limits": {
                "max_in_flight": self.config.max_in_flight,
                "max_queue_depth": self.config.max_queue_depth,
                "max_batch_size": self.config.max_batch_size,
            },
        }
