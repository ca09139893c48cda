"""Thread-safe request metrics for the CORGI service layer.

The service records one latency observation per served request plus a set
of monotonic counters (requests, coalesced waits, engine builds, engine
cache hits, admission rejections, batch statistics, push-gateway events).
Latencies are kept in a bounded ring so a long-running service cannot grow
without bound; percentiles are computed over that window with the
nearest-rank method.  A sharded pool keeps its own counters (drains,
hand-offs, respawns, …) in ``EnginePool.pool_stats()``, which
:meth:`CORGIService.snapshot` reports under ``["engine"]["pool"]``.
"""

from __future__ import annotations

import math
import threading
from collections import deque
from typing import Deque, Dict, Iterable, Tuple

#: Counter names the service increments; unknown names raise so a typo in
#: an instrumentation site cannot silently create a parallel counter.
COUNTER_NAMES: Tuple[str, ...] = (
    "requests",
    "coalesced",
    "engine_builds",
    "engine_cache_hits",
    "rejected",
    "failed",
    "build_timeouts",
    "batches",
    "batch_requests",
    "batch_coalesced",
    # Push-gateway lifecycle (incremented by repro.service.gateway so held
    # connections, pushes and evictions land in the same snapshot as the
    # request counters they amortize).
    "gateway_connections",
    "gateway_disconnects",
    "gateway_subscriptions",
    "gateway_pushes",
    "gateway_heartbeats",
    "gateway_evicted_slow",
    "gateway_rejected_frames",
)

#: Default latency-window size (observations, not seconds).
DEFAULT_WINDOW = 4096

#: Percentiles reported by :meth:`ServiceMetrics.snapshot`.
REPORTED_PERCENTILES: Tuple[float, ...] = (0.5, 0.9, 0.99)


class ServiceMetrics:
    """Counters and a bounded latency window, safe for concurrent writers."""

    def __init__(self, latency_window: int = DEFAULT_WINDOW) -> None:
        if latency_window <= 0:
            raise ValueError(f"latency_window must be positive, got {latency_window}")
        self._lock = threading.Lock()
        self._counters: Dict[str, int] = {name: 0 for name in COUNTER_NAMES}
        self._latencies_s: Deque[float] = deque(maxlen=int(latency_window))
        self._observations = 0

    def increment(self, name: str, amount: int = 1) -> None:
        """Add *amount* to the named counter."""
        if name not in self._counters:
            raise KeyError(f"unknown metric counter {name!r}; known: {sorted(self._counters)}")
        with self._lock:
            self._counters[name] += int(amount)

    def observe_latency(self, seconds: float) -> None:
        """Record one request latency (seconds)."""
        with self._lock:
            self._latencies_s.append(float(seconds))
            self._observations += 1

    def count(self, name: str) -> int:
        """Current value of the named counter."""
        with self._lock:
            return self._counters[name]

    @staticmethod
    def _percentiles_of(
        samples: list, quantiles: Iterable[float]
    ) -> Dict[str, float]:
        """Nearest-rank percentiles of pre-sorted *samples* (pure, no locking)."""
        if not samples:
            return {}
        result: Dict[str, float] = {}
        for quantile in quantiles:
            if not 0.0 < quantile <= 1.0:
                raise ValueError(f"quantile must be in (0, 1], got {quantile}")
            # Nearest-rank: the ceil(q·n)-th smallest sample (1-based).
            rank = min(len(samples), max(1, math.ceil(quantile * len(samples))))
            label = f"p{quantile * 100:g}"
            result[label] = samples[rank - 1]
        return result

    def latency_percentiles(
        self, quantiles: Iterable[float] = REPORTED_PERCENTILES
    ) -> Dict[str, float]:
        """Nearest-rank percentiles (seconds) over the retained latency window.

        Keys are ``"p50"``-style labels; an empty window yields an empty
        mapping rather than NaNs so JSON consumers need no special casing.
        """
        with self._lock:
            samples = sorted(self._latencies_s)
        return self._percentiles_of(samples, quantiles)

    def snapshot(self) -> Dict[str, object]:
        """JSON-friendly view: counters plus latency percentiles and window size.

        Counters, window and percentiles are captured under **one** lock
        acquisition: an earlier version re-acquired the lock for the
        percentiles, so a concurrent writer could slip between the two reads
        and the reported window size would disagree with the samples the
        percentiles were computed from (regression-tested).
        """
        with self._lock:
            counters = dict(self._counters)
            samples = sorted(self._latencies_s)
            observations = self._observations
        return {
            **counters,
            "latency_s": self._percentiles_of(samples, REPORTED_PERCENTILES),
            "latency_window": len(samples),
            "latency_observations": observations,
        }

    def reset(self) -> None:
        """Zero every counter and drop the latency window."""
        with self._lock:
            for name in self._counters:
                self._counters[name] = 0
            self._latencies_s.clear()
            self._observations = 0
