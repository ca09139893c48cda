"""Summaries of repeated runs and the verdict rule that compares two sets.

A metric's verdict compares a parent set of runs with a change set:

* ``unresolved`` — the parent's run-to-run spread (interquartile range over
  the median) is wider than the metric's bound, so the bound cannot be
  judged; unless every change run reads better than every parent run,
  which is ``improved``;
* ``worse`` — the change's median is worse than the parent's by more than
  the bound;
* ``improved`` — the medians differ, in the better direction, by more than
  the parent's interquartile range, and the change wins at least nine
  tenths of the runs paired by index;
* ``unchanged`` — otherwise.

Failures come first: a workload whose change runs failed more operations
than the parent's, or produced any incorrect output, is ``worse`` whatever
its time metrics say.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Mapping, Sequence, Tuple


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """(first quartile, median, third quartile), as ``statistics.quantiles`` gives them."""
    values = [float(value) for value in values]
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile range as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / abs(median) if median else 0.0


def range_spread(values: Sequence[float]) -> float:
    """Largest over smallest value, minus one."""
    low, high = min(values), max(values)
    return high / low - 1.0 if low > 0 else 0.0


def verdict(parent: Sequence[float], change: Sequence[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    p_q1, p_median, p_q3 = quartiles(parent)
    c_median = quartiles(change)[1]
    if not p_median:
        return "unresolved"
    all_better = max(sign * value for value in change) < min(sign * value for value in parent)
    if spread(parent) > bound:
        return "improved" if all_better else "unresolved"
    worse_by = sign * (c_median - p_median) / abs(p_median)
    if worse_by > bound:
        return "worse"
    pairs = list(zip(parent, change))
    wins = sum(1 for p, c in pairs if sign * c < sign * p)
    if sign * (p_median - c_median) > (p_q3 - p_q1) and wins >= 0.9 * len(pairs):
        return "improved"
    return "unchanged"


def summarize(runs: Sequence[Mapping[str, float]]) -> Dict[str, Dict[str, float]]:
    """Per metric: median, quartiles and both spreads over the runs."""
    summary = {}
    for name in runs[0] if runs else ():
        values = [run[name] for run in runs]
        q1, median, q3 = quartiles(values)
        stats = {"median": median, "q1": q1, "q3": q3}
        summary[name] = {**stats, "spread": spread(values), "range": range_spread(values)}
    return summary


def failures(entry: Mapping) -> Tuple[int, int, int]:
    """(operations failed, operations attempted, incorrect runs) over a workload's runs."""
    outcomes = entry["outcomes"]
    incorrect = sum(1 for outcome in outcomes if not outcome["correct"] or outcome["exit"] != 0)
    return sum(o["failed"] for o in outcomes), sum(o["attempted"] for o in outcomes), incorrect


def failure_row(workload: str, parent: Mapping, change: Mapping) -> List[str]:
    p_failed, p_attempted, _ = failures(parent)
    c_failed, c_attempted, c_incorrect = failures(change)
    worse = c_incorrect > 0 or c_failed > p_failed
    return [
        workload,
        "failed",
        f"{p_failed}/{p_attempted}",
        f"{c_failed}/{c_attempted}" + (f" ({c_incorrect} incorrect runs)" if c_incorrect else ""),
        "ops",
        "+0",
        "worse" if worse else "unchanged",
    ]


def compare_rows(parent: Mapping, change: Mapping, metrics: Sequence[Mapping]) -> List[List[str]]:
    """Per workload in both result files: its failures, then one row per end-to-end metric."""
    rows = []
    for workload in sorted(set(parent["workloads"]) & set(change["workloads"])):
        rows.append(failure_row(workload, parent["workloads"][workload], change["workloads"][workload]))
        parent_runs = parent["workloads"][workload]["runs"]
        change_runs = change["workloads"][workload]["runs"]
        for metric in metrics:
            name = metric["name"]
            a = [run[name] for run in parent_runs if name in run]
            b = [run[name] for run in change_runs if name in run]
            if not a or not b:
                continue
            a_q1, a_med, a_q3 = quartiles(a)
            b_q1, b_med, b_q3 = quartiles(b)
            rows.append(
                [
                    workload,
                    name,
                    f"{a_med:.4g} [{a_q1:.4g}, {a_q3:.4g}]",
                    f"{b_med:.4g} [{b_q1:.4g}, {b_q3:.4g}]",
                    f"{metric['unit']}",
                    f"±{metric['bound']:g}",
                    verdict(a, b, metric["better"], metric["bound"]),
                ]
            )
    return rows


def table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [max(len(str(cell)) for cell in column) for column in zip(header, *rows)]
    lines = ["  ".join(str(cell).ljust(width) for cell, width in zip(row, widths)) for row in (header, *rows)]
    return "\n".join(line.rstrip() for line in lines)
