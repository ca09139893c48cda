"""Content-addressed cache for generated obfuscation matrices and forests.

The cache is keyed by the canonical fingerprints of
:mod:`repro.pipeline.fingerprint`, so two requests hit the same entry iff
every result-affecting input (geometry, ε, δ, weighting, basis row,
quality model, iteration count, solver) is identical — the fix for the
stale-forest bug the old ``(privacy_level, delta, epsilon)`` key had.  The
engine keeps three instances: LP solutions, prepared privacy levels and
whole forests.

Eviction is LRU with a configurable entry bound; statistics (hits, misses,
evictions) are kept so the server and the perf harness can report cache
effectiveness.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, Optional, Tuple, TypeVar

T = TypeVar("T")

_MISSING = object()


@dataclass
class CacheStats:
    """Hit/miss/eviction counters of one cache."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        """Total number of ``get`` calls."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache, in [0, 1]."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        """JSON-friendly snapshot."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": self.hit_rate,
        }


class MatrixCache:
    """LRU cache mapping fingerprints to generated values.

    Lookups, stores, removals and iteration hold the cache's own lock, so
    threads may share one cache without an outer lock (the engine's LP
    cache is read and written by concurrent builds); :meth:`get_or_compute`
    runs its factory outside the lock.

    Parameters
    ----------
    max_entries:
        Maximum number of entries kept; the least recently used entry is
        evicted when the bound is exceeded.  ``0`` disables storage (every
        lookup misses).
    """

    def __init__(self, max_entries: int = 128) -> None:
        if max_entries < 0:
            raise ValueError(f"max_entries must be non-negative, got {max_entries}")
        self.max_entries = int(max_entries)
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def get(self, key: str, default: Optional[T] = None) -> Optional[T]:
        """Look up *key*, counting a hit or miss and refreshing recency."""
        with self._lock:
            value = self._entries.get(key, _MISSING)
            if value is _MISSING:
                self.stats.misses += 1
                return default
            self._entries.move_to_end(key)
            self.stats.hits += 1
            return value  # type: ignore[return-value]

    def put(self, key: str, value: object) -> None:
        """Store *value* under *key*, evicting the LRU entry if over bound."""
        if self.max_entries == 0:
            return
        with self._lock:
            if key in self._entries:
                self._entries.move_to_end(key)
            self._entries[key] = value
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1

    def get_or_compute(self, key: str, factory: Callable[[], T]) -> T:
        """Return the cached value for *key*, computing and storing it on miss."""
        value = self.get(key, _MISSING)
        if value is not _MISSING:
            return value  # type: ignore[return-value]
        computed = factory()
        self.put(key, computed)
        return computed

    def pop(self, key: str) -> None:
        """Drop *key* if present; a pop is not counted as an eviction."""
        with self._lock:
            self._entries.pop(key, None)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[Tuple[str, object]]:
        """Entries least recently used first, as of the call."""
        with self._lock:
            return iter(list(self._entries.items()))

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._entries.clear()

    def reset_stats(self) -> None:
        """Zero the hit/miss/eviction counters."""
        self.stats = CacheStats()
