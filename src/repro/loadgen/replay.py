"""Trace replay against any forest transport, with an online adversary.

:class:`TraceReplayer` takes a materialised
:class:`~repro.loadgen.trace.TraceSchedule` and replays it as a simulated
user fleet against anything that speaks the two-message protocol —
:class:`~repro.client.transport.InProcessTransport`,
:class:`~repro.client.transport.HTTPTransport`, or the push gateway via the
:class:`GatewayForestTransport` adapter below.  Every served matrix is fed
to an :class:`~repro.loadgen.adversary.OnlineAdversary`, and every replayed
report contributes an empirical utility-loss observation (the real leaf is
known to the harness, never to the server).

Fault-injection ops (shard drains, worker SIGKILLs, priors publishes) are
**synchronous barriers**: the replay drains all in-flight requests, applies
the op, then resumes.  That keeps every scenario's counters deterministic —
each request is unambiguously pre- or post-op — while the service still
absorbs the op under immediately-following load.

Determinism: per-event randomness (report sampling) is seeded from
``(schedule seed, event index)``, per-event results land in an
index-addressed array, and all floating-point reductions run in event-index
order after the replay — so counter floats are bit-identical across runs
regardless of thread scheduling.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.client.transport import ForestTransport
from repro.loadgen.adversary import OnlineAdversary
from repro.loadgen.report import latency_percentiles
from repro.loadgen.trace import ReplayEvent, TraceSchedule
from repro.server.messages import ObfuscationRequest, PrivacyForestResponse
from repro.tree.location_tree import LocationTree
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = ["GatewayForestTransport", "ReplayOutcome", "TraceReplayer"]

#: A fault-injection op: called at its barrier, returns a JSON-friendly
#: description of what it did (merged into the outcome's op log).
ReplayOp = Callable[[], Mapping[str, object]]


class GatewayForestTransport:
    """Adapts a held push-gateway connection to the ``fetch_forest`` protocol.

    The gateway inverts the flow — matrices are pushed, not fetched — so
    this adapter subscribes on first use of a key and then answers each
    ``fetch_forest`` from the freshest held push (waiting for the initial
    snapshot when none is held yet).  Replays through it measure the
    held-connection consumption path end to end.
    """

    def __init__(self, client: object, *, wait_s: float = 30.0) -> None:
        self.client = client  # a repro.client.gateway.GatewayClient
        self.wait_s = float(wait_s)
        self._lock = threading.Lock()
        self._subscribed: Dict[Tuple[int, int, Optional[float]], Tuple[int, int, float]] = {}

    def fetch_forest(self, request: ObfuscationRequest) -> PrivacyForestResponse:
        wanted = (request.privacy_level, request.delta, request.epsilon)
        with self._lock:
            key = self._subscribed.get(wanted)
            if key is None:
                key = self.client.subscribe(
                    request.privacy_level, request.delta, request.epsilon, wait_s=self.wait_s
                )
                self._subscribed[wanted] = key
        push = self.client.wait_forest(key, timeout_s=self.wait_s)
        return PrivacyForestResponse.from_dict(push.response)


@dataclass
class _EventRecord:
    """What one replayed event observed (index-addressed for determinism)."""

    ok: bool
    key_label: str
    digest: Optional[str] = None
    utility_km: Optional[float] = None
    latency_s: float = 0.0
    error: Optional[str] = None


@dataclass
class ReplayOutcome:
    """Raw replay results, reduced deterministically by :meth:`counters`."""

    schedule: TraceSchedule
    records: List[Optional[_EventRecord]]
    ops_applied: List[Dict[str, object]] = field(default_factory=list)
    wall_s: float = 0.0
    adversary: Optional[OnlineAdversary] = None

    def counters(self) -> Dict[str, object]:
        """Deterministic traffic/privacy counters (event-index-ordered reduce)."""
        served = 0
        errors = 0
        utility_sum = 0.0
        utility_count = 0
        per_key: Dict[str, int] = {}
        for record in self.records:
            if record is None:
                continue
            per_key[record.key_label] = per_key.get(record.key_label, 0) + 1
            if record.ok:
                served += 1
                if record.utility_km is not None:
                    utility_sum += record.utility_km
                    utility_count += 1
            else:
                errors += 1
        total = len(self.schedule)
        counters: Dict[str, object] = {
            "events_total": total,
            "served": served,
            "errors": errors,
            "error_rate": (errors / total) if total else 0.0,
            "per_key": {label: per_key[label] for label in sorted(per_key)},
            "utility_loss_km": (utility_sum / utility_count) if utility_count else 0.0,
            "utility_samples": utility_count,
            "ops_applied": len(self.ops_applied),
        }
        if self.adversary is not None:
            summary = self.adversary.summary()
            counters["adversary"] = summary.to_dict() if summary is not None else {}
        return counters

    def timing(self) -> Dict[str, object]:
        """Wall-clock observations (non-deterministic; latency SLOs only)."""
        latencies = [record.latency_s for record in self.records if record is not None and record.ok]
        total = len(self.schedule)
        return {
            "latency_s": latency_percentiles(latencies),
            "wall_s": self.wall_s,
            "throughput_rps": (total / self.wall_s) if self.wall_s > 0 else 0.0,
        }


def _key_label(event: ReplayEvent) -> str:
    epsilon = "default" if event.epsilon is None else f"{event.epsilon:g}"
    return f"level={event.privacy_level} delta={event.delta} eps={epsilon}"


class TraceReplayer:
    """Replays a schedule as a concurrent simulated fleet.

    Parameters
    ----------
    transport:
        Anything with ``fetch_forest(ObfuscationRequest)``.
    tree:
        The *client-side* view of the served tree: maps each event's real
        leaf to its sub-tree root at the requested level, and prices the
        utility of each sampled report.  Must be topologically identical to
        the tree the service serves (the harness builds both from one
        workload).
    schedule:
        The materialised trace.
    adversary:
        Optional :class:`OnlineAdversary` fed every served matrix.
    concurrency:
        Replay worker threads (simultaneously outstanding requests).
    ops:
        Fault-injection barriers: ``{event_index: op}`` — before dispatching
        ``event_index``, all earlier events are drained and ``op()`` runs.
    replay_speed:
        ``None`` (default) replays as fast as the service allows; a float
        ``x`` paces arrivals at ``x``× the schedule's virtual time (the
        live-dashboard mode).
    """

    def __init__(
        self,
        transport: ForestTransport,
        tree: LocationTree,
        schedule: TraceSchedule,
        *,
        adversary: Optional[OnlineAdversary] = None,
        concurrency: int = 8,
        ops: Optional[Mapping[int, ReplayOp]] = None,
        replay_speed: Optional[float] = None,
    ) -> None:
        if concurrency <= 0:
            raise ValueError(f"concurrency must be positive, got {concurrency}")
        if replay_speed is not None and replay_speed <= 0:
            raise ValueError(f"replay_speed must be positive, got {replay_speed}")
        self.transport = transport
        self.tree = tree
        self.schedule = schedule
        self.adversary = adversary
        self.concurrency = int(concurrency)
        self.ops = dict(ops or {})
        self.replay_speed = replay_speed
        self._records: List[Optional[_EventRecord]] = [None] * len(schedule)
        self._progress_lock = threading.Lock()
        self._dispatched = 0
        self._served = 0
        self._errors = 0
        self._started_at: Optional[float] = None
        self._finished = threading.Event()

    # ------------------------------------------------------------------ #
    # Live introspection (the dashboard's feed)
    # ------------------------------------------------------------------ #

    def snapshot(self) -> Dict[str, object]:
        """Thread-safe live progress view for the terminal dashboard."""
        with self._progress_lock:
            dispatched, served, errors = self._dispatched, self._served, self._errors
        latencies = [
            record.latency_s
            for record in self._records
            if record is not None and record.ok
        ]
        summary = self.adversary.summary() if self.adversary is not None else None
        elapsed = 0.0 if self._started_at is None else time.perf_counter() - self._started_at
        return {
            "events_total": len(self.schedule),
            "dispatched": dispatched,
            "served": served,
            "errors": errors,
            "elapsed_s": elapsed,
            "done": self._finished.is_set(),
            "latency_s": latency_percentiles(latencies),
            "adversary": summary.to_dict() if summary is not None else {},
            "ops_applied": len(self.ops),
        }

    @property
    def finished(self) -> threading.Event:
        return self._finished

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #

    def run(self) -> ReplayOutcome:
        """Replay the whole schedule; returns the raw outcome."""
        events = self.schedule.events
        # Ops keyed past the schedule end never fire (a scaled-down run may
        # shrink the schedule under a fixed barrier index).
        barriers = sorted(index for index in self.ops if 0 <= index < len(events))
        ops_applied: List[Dict[str, object]] = []
        self._started_at = time.perf_counter()
        start = self._started_at
        cursor = 0
        try:
            with ThreadPoolExecutor(max_workers=self.concurrency) as executor:
                for barrier in barriers:
                    chunk = events[cursor:barrier]
                    if chunk:
                        # list() drains the chunk: the map is the barrier.
                        list(executor.map(self._replay_one, chunk))
                    cursor = barrier
                    description = dict(self.ops[barrier]())
                    description.setdefault("at_event", barrier)
                    ops_applied.append(description)
                    logger.info("replay op at event %d: %s", barrier, description)
                tail = events[cursor:]
                if tail:
                    list(executor.map(self._replay_one, tail))
        finally:
            self._finished.set()
        wall = time.perf_counter() - start
        return ReplayOutcome(
            schedule=self.schedule,
            records=self._records,
            ops_applied=ops_applied,
            wall_s=wall,
            adversary=self.adversary,
        )

    def _replay_one(self, event: ReplayEvent) -> None:
        if self.replay_speed is not None and self._started_at is not None:
            due = self._started_at + event.at_s / self.replay_speed
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)
        with self._progress_lock:
            self._dispatched += 1
        record = _EventRecord(ok=False, key_label=_key_label(event))
        began = time.perf_counter()
        try:
            request = ObfuscationRequest(
                privacy_level=event.privacy_level, delta=event.delta, epsilon=event.epsilon
            )
            response = self.transport.fetch_forest(request)
            record.latency_s = time.perf_counter() - began
            root = self.tree.ancestor_at_level(event.leaf_id, event.privacy_level)
            matrix = response.matrix_for_subtree(root.node_id)
            if self.adversary is not None:
                record.digest = self.adversary.consume(matrix, epsilon=response.epsilon)
            # Empirical utility: sample the report the device would send and
            # price the haversine error against the real leaf.  Seeded per
            # event so the draw is independent of thread interleaving.
            rng = np.random.default_rng((abs(self.schedule.seed) + 1) * 1_000_003 + event.index)
            reported_id = matrix.sample(event.leaf_id, seed=rng)
            record.utility_km = self.tree.distance_km(event.leaf_id, reported_id)
            record.ok = True
        except Exception as error:  # noqa: BLE001 - counted, surfaced via the report
            record.latency_s = time.perf_counter() - began
            record.error = f"{type(error).__name__}: {error}"
            logger.warning("replay event %d failed: %s", event.index, record.error)
        self._records[event.index] = record
        with self._progress_lock:
            if record.ok:
                self._served += 1
            else:
                self._errors += 1
