"""Live terminal dashboard for a running trace replay.

Renders a compact, fixed-layout panel from
:meth:`~repro.loadgen.replay.TraceReplayer.snapshot` — traffic progress,
error counts, live latency percentiles and the online adversary's current
privacy posture — and repaints it in place (ANSI cursor-up) a few times a
second until the replay finishes.  Pure stdlib, degrades to plain
append-only output when the stream is not a TTY (CI logs), and every frame
is a plain string so tests can render without a terminal.
"""

from __future__ import annotations

import sys
import threading
from typing import IO, Dict, List, Optional

from repro.loadgen.replay import TraceReplayer

__all__ = ["DashboardLoop", "render_snapshot"]

_BAR_WIDTH = 32


def _progress_bar(done: int, total: int) -> str:
    if total <= 0:
        return "-" * _BAR_WIDTH
    filled = int(_BAR_WIDTH * min(done, total) / total)
    return "#" * filled + "-" * (_BAR_WIDTH - filled)


def render_snapshot(snapshot: Dict[str, object], *, ansi: bool = False) -> str:
    """One dashboard frame as a string (``ansi`` adds colour, not layout)."""
    total = int(snapshot.get("events_total", 0))
    served = int(snapshot.get("served", 0))
    errors = int(snapshot.get("errors", 0))
    dispatched = int(snapshot.get("dispatched", 0))
    elapsed = float(snapshot.get("elapsed_s", 0.0))
    latency = snapshot.get("latency_s") or {}
    adversary = snapshot.get("adversary") or {}
    done = served + errors
    rate = done / elapsed if elapsed > 0 else 0.0

    def paint(text: str, colour: str) -> str:
        if not ansi:
            return text
        codes = {"green": "32", "red": "31", "cyan": "36", "bold": "1"}
        return f"\x1b[{codes[colour]}m{text}\x1b[0m"

    error_text = str(errors) if errors == 0 else paint(str(errors), "red")
    status = paint("DONE", "green") if snapshot.get("done") else paint("REPLAYING", "cyan")
    lines: List[str] = [
        paint("CORGI trace replay", "bold") + f"  [{status}]",
        f"  [{_progress_bar(done, total)}] {done}/{total} events"
        f"  ({dispatched} dispatched, {rate:7.1f} ev/s, {elapsed:6.1f}s)",
        f"  served {served}   errors {error_text}",
        "  latency  p50 {p50:7.4f}s  p90 {p90:7.4f}s  p99 {p99:7.4f}s  max {max:7.4f}s".format(
            p50=float(latency.get("p50", 0.0)),
            p90=float(latency.get("p90", 0.0)),
            p99=float(latency.get("p99", 0.0)),
            max=float(latency.get("max", 0.0)),
        ),
    ]
    if adversary:
        lines += [
            "  adversary  {n} distinct matrices over {c} served".format(
                n=adversary.get("distinct_matrices", 0), c=adversary.get("consumed", 0)
            ),
            "    recovery {rec:.4f} (prior {prior:.4f}, ratio {ratio:.3f})   "
            "violations {viol:.3f}%".format(
                rec=float(adversary.get("recovery_rate", 0.0)),
                prior=float(adversary.get("prior_top1", 0.0)),
                ratio=float(adversary.get("recovery_ratio", 0.0)),
                viol=float(adversary.get("violation_pct", 0.0)),
            ),
            "    inference error {err:.4f} km (prior {perr:.4f} km)".format(
                err=float(adversary.get("expected_error_km", 0.0)),
                perr=float(adversary.get("prior_error_km", 0.0)),
            ),
        ]
    else:
        lines.append("  adversary  (no matrix consumed yet)")
    return "\n".join(lines)


class DashboardLoop:
    """Repaints the dashboard on a background thread while a replay runs.

    Attach via :func:`~repro.loadgen.scenarios.run_scenario`'s
    ``on_replayer`` hook::

        loop = DashboardLoop()
        report = run_scenario("flash_crowd", on_replayer=loop.attach)
        loop.stop()

    On a TTY the panel repaints in place; otherwise (piped CI logs) frames
    append at a much lower cadence.  :attr:`last_frame` always holds the
    final rendered panel, which the CLI can persist as the dashboard
    snapshot artifact.
    """

    def __init__(self, stream: Optional[IO[str]] = None, *, interval_s: float = 0.25) -> None:
        self.stream = stream if stream is not None else sys.stderr
        self.interval_s = float(interval_s)
        self.last_frame = ""
        self._replayer: Optional[TraceReplayer] = None
        self._thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._painted_lines = 0

    @property
    def _is_tty(self) -> bool:
        return bool(getattr(self.stream, "isatty", lambda: False)())

    def attach(self, replayer: TraceReplayer) -> None:
        """``on_replayer`` hook: start painting this replayer's snapshots."""
        self._replayer = replayer
        self._stop.clear()
        self._thread = threading.Thread(target=self._loop, name="loadgen-dashboard", daemon=True)
        self._thread.start()

    def stop(self) -> None:
        """Paint one final frame and stop the background thread."""
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        if self._replayer is not None:
            self._paint(final=True)

    # ------------------------------------------------------------------ #

    def _loop(self) -> None:
        interval = self.interval_s if self._is_tty else max(self.interval_s, 2.0)
        while not self._stop.is_set():
            self._paint()
            if self._replayer is not None and self._replayer.finished.wait(timeout=interval):
                break
        # One closing frame so the 100% state is what remains on screen.
        self._paint()

    def _paint(self, *, final: bool = False) -> None:
        if self._replayer is None:
            return
        frame = render_snapshot(self._replayer.snapshot(), ansi=self._is_tty and not final)
        self.last_frame = render_snapshot(self._replayer.snapshot(), ansi=False)
        try:
            if self._is_tty:
                if self._painted_lines:
                    # Cursor up over the previous panel and overwrite it.
                    self.stream.write(f"\x1b[{self._painted_lines}F\x1b[J")
                self.stream.write(frame + "\n")
                self._painted_lines = frame.count("\n") + 1
            else:
                self.stream.write(frame + "\n\n")
            self.stream.flush()
        except (ValueError, OSError):  # stream closed mid-run (test teardown)
            pass
