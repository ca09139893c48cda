"""Seeded request streams and the closed- and open-loop load generators.

The program under test only ever receives the requests generated here, so a
change to the program cannot change a workload.  Open-loop latency is timed
from each request's *due* time, not from when a sender got to it, so a
stall delays every request queued behind it (no coordinated omission); how
late the senders ran is reported separately as lateness.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import threading
import time
from dataclasses import dataclass
from typing import Callable, List, Sequence, Tuple

import numpy as np

#: A request key ``(privacy_level, delta, epsilon)``.
Key = Tuple[int, int, float]


@dataclass(frozen=True)
class Schedule:
    """Open-loop arrivals: offsets (s) from the start of the timed phase."""

    due_s: np.ndarray
    keys: Tuple[Key, ...]

    def digest(self) -> str:
        hasher = hashlib.sha256()
        hasher.update(np.ascontiguousarray(self.due_s, dtype=np.float64).tobytes())
        hasher.update(repr(self.keys).encode())
        return hasher.hexdigest()


def zipf_keys(rng: np.random.Generator, keys: Sequence[Key], count: int, exponent: float) -> List[Key]:
    """*count* draws over *keys*, rank ``r`` (1-based) weighted ``r**-exponent``."""
    weights = np.arange(1, len(keys) + 1, dtype=float) ** -exponent
    picks = rng.choice(len(keys), size=count, p=weights / weights.sum())
    return [keys[int(index)] for index in picks]


def poisson_schedule(
    rng: np.random.Generator, rate_per_s: float, seconds: float, keys: Sequence[Key], exponent: float
) -> Schedule:
    """A Poisson process conditioned on its count: ``round(rate·seconds)`` uniform arrivals.

    Fixing the count keeps the offered load identical across seeds, so the
    achieved throughput measures the system, not the draw.
    """
    count = max(1, int(round(rate_per_s * seconds)))
    due = np.sort(rng.uniform(0.0, seconds, size=count))
    return Schedule(due_s=due, keys=tuple(zipf_keys(rng, keys, count, exponent)))


#: Cold keys are drawn in blocks holding every δ equally often and one ε
#: from each of this many equal slices of U(1, 3).
COLD_BLOCK = 12


def cold_keys(rng: np.random.Generator, count: int, level: int, exclude: Sequence[Key] = ()) -> List[Key]:
    """Keys never seen before: δ ∈ {0, 1, 2}, ε ~ U(1, 3) rounded to 4 decimals.

    Both are stratified per block of :data:`COLD_BLOCK` keys, so the mix of
    LP work a run sees is the same for every seed; duplicates (and
    *exclude*) are skipped.
    """
    seen = set(exclude)
    result: List[Key] = []
    while len(result) < count:
        deltas = np.concatenate([rng.permutation(3) for _ in range(COLD_BLOCK // 3)])
        epsilons = 1.0 + 2.0 * (rng.permutation(COLD_BLOCK) + rng.uniform(size=COLD_BLOCK)) / COLD_BLOCK
        for delta, epsilon in zip(deltas, epsilons):
            key = (int(level), int(delta), round(float(epsilon), 4))
            if key not in seen:
                seen.add(key)
                result.append(key)
    return result[:count]


# --------------------------------------------------------------------- #
# Load generators
# --------------------------------------------------------------------- #


class Samples:
    """Per-request due, send and end times, and whether the request succeeded.

    Kept in arrays allocated and written before the timed phase, so the
    harness holds the same memory on every run whatever the throughput: the
    serving process of the in-process workloads is this process, and its
    peak memory is a metric.  Each request writes only its own index, so
    concurrent senders need no lock.  Due time is the start time in a
    closed loop.
    """

    def __init__(self, capacity: int) -> None:
        self.due = np.ones(capacity)
        self.start = np.ones(capacity)
        self.end = np.ones(capacity)
        self.ok = np.ones(capacity, dtype=bool)
        self.count = 0
        #: perf_counter() at the start of the timed phase.
        self.origin = 0.0

    def record(self, send: "Send", consume: "Consume", index: int, key: Key, due: float) -> None:
        begun = time.perf_counter()
        try:
            response = send(index, key)
        except Exception:  # noqa: BLE001 - a failed request is counted, not fatal
            response, ok = None, False
        else:
            ok = True
        self.due[index], self.start[index], self.end[index] = due, begun, time.perf_counter()
        if ok:
            try:
                consume(index, key, response)
            except Exception:  # noqa: BLE001 - an unreadable response fails its request
                ok = False
        self.ok[index] = ok

    def succeeded(self) -> np.ndarray:
        return self.ok[: self.count]

    def latencies_ms(self) -> np.ndarray:
        """Latency of each successful request, from its due time."""
        done = self.succeeded()
        return (self.end[: self.count][done] - self.due[: self.count][done]) * 1e3

    def lateness_ms(self) -> np.ndarray:
        return (self.start[: self.count] - self.due[: self.count]) * 1e3


#: ``send(index, key)`` performs one request and returns its response;
#: ``consume(index, key, response)`` runs after the request's end time is
#: taken, so bookkeeping on the response is not counted as latency.
Send = Callable[[int, Key], object]
Consume = Callable[[int, Key, object], None]


def run_threads(target: Callable[[], None], threads: int) -> None:
    workers = [threading.Thread(target=target, name=f"bench-sender-{n}", daemon=True) for n in range(threads)]
    for worker in workers:
        worker.start()
    for worker in workers:
        worker.join()


def closed_loop(send: Send, consume: Consume, keys: Sequence[Key], threads: int, seconds: float) -> Samples:
    """Each thread sends its next request when the previous one returns.

    Requests in flight at the deadline are allowed to finish.
    """
    samples = Samples(len(keys))
    counter = itertools.count()
    samples.origin = time.perf_counter()
    deadline = samples.origin + seconds

    def sender() -> None:
        while time.perf_counter() < deadline:
            index = next(counter)
            if index >= len(keys):
                return
            samples.record(send, consume, index, keys[index], time.perf_counter())

    run_threads(sender, threads)
    samples.count = next(counter)
    if samples.count >= len(keys):
        raise RuntimeError(f"closed loop ran out of its {len(keys)} generated keys")
    return samples


def open_loop(send: Send, consume: Consume, schedule: Schedule, threads: int) -> Samples:
    """Send each request at its due time from a pool of *threads* senders."""
    samples = Samples(len(schedule.keys))
    counter = itertools.count()
    start = samples.origin = time.perf_counter()

    def sender() -> None:
        while True:
            index = next(counter)
            if index >= len(schedule.keys):
                return
            due = start + float(schedule.due_s[index])
            wait = due - time.perf_counter()
            if wait > 0:
                time.sleep(wait)
            samples.record(send, consume, index, schedule.keys[index], due)

    run_threads(sender, threads)
    samples.count = len(schedule.keys)
    return samples


# --------------------------------------------------------------------- #
# Statistics
# --------------------------------------------------------------------- #


def percentile(values: Sequence[float], quantile: float) -> float:
    """Nearest-rank percentile (0 for no samples)."""
    if len(values) == 0:
        return 0.0
    ordered = np.sort(np.asarray(values, dtype=float))
    rank = min(len(ordered), max(1, math.ceil(quantile * len(ordered))))
    return float(ordered[rank - 1])


def throughput(samples: Samples) -> float:
    """Successful completions per second, from the start of the timed phase to the last completion."""
    done = samples.succeeded()
    if not done.any():
        return 0.0
    return float(done.sum()) / (float(samples.end[: samples.count][done].max()) - samples.origin)
