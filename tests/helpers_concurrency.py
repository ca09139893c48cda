"""Shared concurrency-test helpers (importable by any test module).

Lives outside ``conftest.py`` because ``conftest`` is not a unique module
name under pytest's rootdir import scheme (``benchmarks/`` has one too).
No test needs an ad-hoc ``time.sleep`` to synchronize with background
work: bursts are barrier-released and deadline-joined (:func:`run_burst`),
and ordering is expressed as a polled predicate with a hard timeout
(:func:`wait_until`) instead of a guessed delay.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

__all__ = ["BurstOutcome", "run_burst", "wait_until", "free_port"]


@dataclass
class BurstOutcome:
    """What a :func:`run_burst` call observed.

    ``results[i]`` is worker *i*'s return value (None if it raised);
    ``errors`` collects every raised exception.  :meth:`raise_errors` is
    the common assertion that the whole burst succeeded.
    """

    results: List[object] = field(default_factory=list)
    errors: List[BaseException] = field(default_factory=list)
    elapsed_s: float = 0.0

    def raise_errors(self) -> "BurstOutcome":
        if self.errors:
            raise AssertionError(f"burst workers failed: {self.errors!r}")
        return self


def run_burst(
    targets: Union[Callable[[], object], Sequence[Callable[[], object]]],
    *,
    count: Optional[int] = None,
    timeout_s: float = 60.0,
) -> BurstOutcome:
    """Run callables concurrently: barrier-released, deadline-joined.

    Pass one callable plus ``count`` to clone it, or a sequence of distinct
    callables.  Every worker blocks on a shared barrier so the calls really
    race; the join deadline turns a hung worker into a test failure instead
    of a hung suite.  Exceptions are collected, never swallowed.
    """
    if callable(targets):
        workers = [targets] * (count if count is not None else 1)
    else:
        workers = list(targets)
        assert count is None or count == len(workers)
    barrier = threading.Barrier(len(workers))
    outcome = BurstOutcome(results=[None] * len(workers))

    def runner(index: int, target: Callable[[], object]) -> None:
        try:
            barrier.wait(timeout=timeout_s)
            outcome.results[index] = target()
        except BaseException as error:  # noqa: BLE001 - reported to the test
            outcome.errors.append(error)

    threads = [
        threading.Thread(target=runner, args=(index, target), daemon=True)
        for index, target in enumerate(workers)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    deadline = start + timeout_s
    for thread in threads:
        thread.join(timeout=max(0.0, deadline - time.perf_counter()))
    outcome.elapsed_s = time.perf_counter() - start
    hung = [thread.name for thread in threads if thread.is_alive()]
    if hung:
        raise AssertionError(f"burst exceeded {timeout_s:.1f} s deadline: {hung}")
    return outcome


def wait_until(
    predicate: Callable[[], bool],
    *,
    timeout_s: float = 10.0,
    interval_s: float = 0.005,
    message: str = "condition",
) -> None:
    """Poll *predicate* until true; fail loudly at the deadline.

    The replacement for ad-hoc ``time.sleep`` synchronization: the test
    states *what* it is waiting for, waits exactly as long as needed, and
    gets a named failure instead of a flake when the condition never holds.
    """
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(interval_s)
    raise AssertionError(f"timed out after {timeout_s:.1f} s waiting for {message}")


#: Ports already handed out by :func:`free_port` in this process.  The OS
#: happily re-assigns an ephemeral port the moment the probing socket
#: closes, so two quick successive calls could hand the *same* port to two
#: servers that have not bound yet — the TOCTOU race the netshard suite
#: (which grabs ports far more often than the HTTP tests did) kept hitting.
_handed_out_ports: set = set()
_handed_out_lock = threading.Lock()


def free_port(max_attempts: int = 64) -> int:
    """A free TCP port not previously handed out by this process.

    The bind-probe-close pattern is inherently racy against *other*
    processes (only binding port 0 yourself is race-free — servers that can
    do so, like ``serve_netshard(spec, host, 0)``, should); this helper closes the
    realistic hole: the same port being handed to two callers of this
    process before either binds.  Each probe binds a fresh socket, and the
    port is retried (up to *max_attempts*) until the OS hands back one this
    process has never given out.
    """
    with _handed_out_lock:
        for _ in range(max_attempts):
            with socket.socket(socket.AF_INET, socket.SOCK_STREAM) as sock:
                sock.bind(("127.0.0.1", 0))
                port = sock.getsockname()[1]
            if port not in _handed_out_ports:
                _handed_out_ports.add(port)
                return port
    raise RuntimeError(
        f"no unused free port found in {max_attempts} attempts "
        f"({len(_handed_out_ports)} already handed out)"
    )
