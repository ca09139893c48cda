"""CI bench-regression gate: fresh BENCH_*.json vs. committed baselines.

The perf benchmarks (``bench_perf_service.py``, ``bench_perf_pipeline.py``)
write their sections to ``BENCH_service.json`` / ``BENCH_pipeline.json`` at
the repo root.  CI re-runs them on every push and this script diffs the
fresh numbers against the baselines committed under
``benchmarks/baselines/``: any gated p50-class latency that regresses by
more than ``--threshold``× (default 2×) **and** by more than
``--min-delta-s`` absolute (default 50 ms — sub-millisecond cache-hit
latencies double on a busy runner without meaning anything) fails the job.

Lower is always better for every gated metric.  A metric missing from the
fresh results fails the gate (a section silently disappearing is itself a
regression); a metric missing from the baseline is reported and skipped,
so a PR that adds a new section lands green and gates from the next PR on.

Usage::

    python benchmarks/ci_gate.py                 # gate both files
    python benchmarks/ci_gate.py --threshold 3.0 --min-delta-s 0.1
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
BASELINE_DIR = Path(__file__).resolve().parent / "baselines"

#: Gated metrics per benchmark file: dotted paths to latency scalars
#: (seconds, lower is better).  Every section's headline p50 is listed.
GATES: Dict[str, Tuple[str, ...]] = {
    "BENCH_service.json": (
        "coalescing.service_metrics.latency_s.p50",
        "coalescing.burst_wall_s.coalesced",
        "sharding.burst_wall_s.sharded",
        "sharding.service_metrics.sharded.latency_s.p50",
        "handoff.failover_latency_s.cold_p50",
        "handoff.failover_latency_s.warm_p50",
        "netshard.burst_wall_s",
        "netshard.failover_latency_s.p50",
        "restart.first_response_s.cold_p50",
        "restart.first_response_s.warm_p50",
        "gateway_publish.push_latency_s.p50",
        "gateway_publish.poll_latency_s.p50",
        "replication.propagation_s.p50",
    ),
    "BENCH_pipeline.json": (
        "forest_generation_s.cold",
        "forest_generation_s.warm_forest_cache",
        "lp_incremental_s.structure_reuse",
    ),
}


@dataclass
class GateRow:
    """One gated metric's comparison, for the step-summary table."""

    file: str
    metric: str
    baseline_s: Optional[float]
    fresh_s: Optional[float]
    verdict: str  # "ok" | "REGRESSION" | "MISSING" | "no baseline"


def render_step_summary(rows: List[GateRow], failures: List[str]) -> str:
    """GitHub-flavoured markdown for ``$GITHUB_STEP_SUMMARY``."""

    def seconds(value: Optional[float]) -> str:
        return "—" if value is None else f"{value:.6f}"

    lines = [
        "## Bench regression gate — " + ("❌ FAILED" if failures else "✅ passed"),
        "",
        "| file | metric | baseline (s) | fresh (s) | ratio | verdict |",
        "|---|---|---|---|---|---|",
    ]
    for row in rows:
        if row.baseline_s and row.fresh_s is not None:
            ratio = f"{row.fresh_s / row.baseline_s:.2f}x"
        else:
            ratio = "—"
        icon = {"ok": "✅", "no baseline": "➖"}.get(row.verdict, "❌")
        lines.append(
            f"| {row.file} | `{row.metric}` | {seconds(row.baseline_s)} | "
            f"{seconds(row.fresh_s)} | {ratio} | {icon} {row.verdict} |"
        )
    if failures:
        lines += ["", "### Failures", ""]
        lines += [f"- {failure}" for failure in failures]
    return "\n".join(lines) + "\n"


def write_step_summary(rows: List[GateRow], failures: List[str]) -> None:
    """Append the per-metric table to ``$GITHUB_STEP_SUMMARY`` when set."""
    summary_path = os.environ.get("GITHUB_STEP_SUMMARY")
    if not summary_path:
        return
    with open(summary_path, "a", encoding="utf-8") as handle:
        handle.write(render_step_summary(rows, failures))


def lookup(document: object, dotted_path: str) -> Optional[float]:
    """Resolve one dotted path to a float, or None if absent/non-numeric."""
    node = document
    for part in dotted_path.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def gate_file(
    name: str,
    fresh_path: Path,
    baseline_path: Path,
    *,
    threshold: float,
    min_delta_s: float,
    rows: Optional[List[GateRow]] = None,
) -> List[str]:
    """Gate one benchmark file; return the list of failure messages.

    When ``rows`` is given, one :class:`GateRow` per gated metric is
    appended for the step-summary table.
    """
    failures: List[str] = []
    if rows is None:
        rows = []
    if not fresh_path.exists():
        rows.extend(
            GateRow(name, dotted_path, None, None, "MISSING") for dotted_path in GATES[name]
        )
        return [f"{name}: fresh results missing at {fresh_path} (did the bench run?)"]
    if not baseline_path.exists():
        print(f"[ci-gate] {name}: no baseline at {baseline_path}; skipping file")
        return []
    fresh = json.loads(fresh_path.read_text(encoding="utf-8"))
    baseline = json.loads(baseline_path.read_text(encoding="utf-8"))
    for dotted_path in GATES[name]:
        fresh_value = lookup(fresh, dotted_path)
        baseline_value = lookup(baseline, dotted_path)
        if fresh_value is None:
            rows.append(GateRow(name, dotted_path, baseline_value, None, "MISSING"))
            failures.append(
                f"{name}: {dotted_path} missing from fresh results — "
                "a benchmark section disappeared"
            )
            continue
        if baseline_value is None:
            rows.append(GateRow(name, dotted_path, None, fresh_value, "no baseline"))
            print(
                f"[ci-gate] {name}: {dotted_path} has no baseline yet "
                f"(fresh {fresh_value:.6f}s); will gate once a baseline lands"
            )
            continue
        regressed = (
            fresh_value > baseline_value * threshold
            and fresh_value - baseline_value > min_delta_s
        )
        verdict = "REGRESSION" if regressed else "ok"
        rows.append(GateRow(name, dotted_path, baseline_value, fresh_value, verdict))
        print(
            f"[ci-gate] {name}: {dotted_path}: "
            f"baseline {baseline_value:.6f}s -> fresh {fresh_value:.6f}s "
            f"({fresh_value / baseline_value:.2f}x) {verdict}"
        )
        if regressed:
            failures.append(
                f"{name}: {dotted_path} regressed {fresh_value / baseline_value:.2f}x "
                f"(baseline {baseline_value:.6f}s, fresh {fresh_value:.6f}s, "
                f"threshold {threshold:.1f}x + {min_delta_s:.3f}s slack)"
            )
    return failures


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Gate benchmark regressions in CI")
    parser.add_argument(
        "--fresh-dir",
        type=Path,
        default=REPO_ROOT,
        help="directory holding the freshly-written BENCH_*.json files",
    )
    parser.add_argument(
        "--baseline-dir",
        type=Path,
        default=BASELINE_DIR,
        help="directory holding the committed baseline BENCH_*.json files",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=2.0,
        help="relative regression factor that fails the gate (default 2.0x)",
    )
    parser.add_argument(
        "--min-delta-s",
        type=float,
        default=0.05,
        help="absolute slack in seconds — regressions smaller than this never "
        "fail (sub-millisecond latencies double on noisy runners)",
    )
    args = parser.parse_args(argv)
    if args.threshold <= 1.0:
        parser.error("--threshold must be > 1.0")

    failures: List[str] = []
    rows: List[GateRow] = []
    for name in GATES:
        failures.extend(
            gate_file(
                name,
                args.fresh_dir / name,
                args.baseline_dir / name,
                threshold=args.threshold,
                min_delta_s=args.min_delta_s,
                rows=rows,
            )
        )
    write_step_summary(rows, failures)
    if failures:
        print("\n[ci-gate] FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\n[ci-gate] all gated metrics within threshold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
