"""CORGI end-to-end benchmark.

One run of one workload (the form the metric bounds in ``BENCHMARK.json``
are judged on)::

    python3 benchmarks/e2e/run.py --workload warm_http --seed 1 --trace 0

prints every metric as ``workload metric value unit``, the run's latency
and throughput (unbounded timings) the same way, and, as its last line,
``{"correct", "attempted", "failed", "metrics"}`` as JSON.  It exits
non-zero when an output-correctness check fails.  ``--trace 1`` reports the
per-layer metrics instead of the end-to-end ones.  Every run measures for
``run_seconds`` of ``BENCHMARK.json``.

Repeated runs, one per seed, of every workload (or ``--workload W``)::

    python3 benchmarks/e2e/run.py --runs 5 --seed 1 --out parent.json [--trace 1]

record every run's metrics and timings with their medians and quartiles;
``--trace 1`` adds one traced run per workload and prints its tracing
overhead.  Two such files are compared with::

    python3 benchmarks/e2e/run.py compare parent.json change.json

which exits non-zero when any verdict is ``worse``.

``--smoke`` makes every run one second long with a single set-up.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SOURCE = ROOT / "src"
SCRATCH = ROOT / ".bench_run"
CONFIG = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("warm_inproc", "warm_http", "cold_build", "priors_churn")


def load_config() -> dict:
    with open(CONFIG, encoding="utf-8") as handle:
        return json.load(handle)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    # The run length is BENCHMARK.json's run_seconds, so that every result
    # file measures the same thing; --seconds may only restate it.
    parser.add_argument("--seconds", type=float, default=None, help="must equal BENCHMARK.json's run_seconds")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1, help="runs per workload, seeds seed..seed+runs-1")
    parser.add_argument("--out", type=Path, default=None, help="write every run's values here as JSON")
    parser.add_argument("--smoke", action="store_true", help="one-second runs with a single set-up")
    args = parser.parse_args(argv)
    if args.runs < 1:
        parser.error("--runs must be >= 1")
    run_seconds = float(load_config()["run_seconds"])
    if args.seconds is not None and (args.smoke or args.seconds != run_seconds):
        parser.error(f"the run length is fixed: --seconds may only be {run_seconds:g}, and not with --smoke")
    args.seconds = 1.0 if args.smoke else run_seconds
    return args


def single_run(args) -> int:
    """One workload, one seed, in this process."""
    scratch = SCRATCH / str(os.getpid())
    (scratch / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(scratch / "tmp")  # keep every temporary file inside the checkout
    import workloads

    try:
        result = workloads.run(
            args.workload,
            args.seed,
            args.seconds,
            bool(args.trace),
            scratch,
            setup_repeats=1 if args.smoke else workloads.SETUP_REPEATS,
        )
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run is using it
    for note in result.notes:
        print(f"# {args.workload} {note}")
    metrics = result.metrics.items()
    for name, (value, unit) in {**result.metrics, **result.timings}.items():
        print(f"{args.workload} {name} {value!r} {unit}")
    print(
        json.dumps(
            {
                "correct": result.correct,
                "attempted": result.attempted,
                "failed": result.failed,
                "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics},
            }
        ),
        flush=True,
    )
    return 0 if result.correct else 1


def child_run(args, workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable, str(Path(__file__).resolve()),
        "--workload", workload, "--seed", str(seed), "--trace", str(trace),
    ]  # fmt: skip
    if args.smoke:
        command.append("--smoke")
    completed = subprocess.run(command, capture_output=True, text=True, timeout=600, cwd=ROOT)
    lines = completed.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line, flush=True)
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(completed.stderr)
        raise RuntimeError(f"{workload} seed {seed} printed no result (exit {completed.returncode})")
    result = json.loads(lines[-1])
    result["exit"] = completed.returncode
    # The timings are the printed `workload name value unit` lines that are
    # not among the JSON metrics.
    printed = (line.split() for line in lines[:-1])
    result["timings"] = {
        fields[1]: float(fields[2])
        for fields in printed
        if len(fields) == 4 and fields[0] == workload and fields[1] not in result["metrics"]
    }
    return result


def repeated_runs(args) -> int:
    import report

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    recorded = {"seed": args.seed, "seconds": args.seconds, "runs": args.runs, "workloads": {}}
    entries = {workload: {"runs": [], "timings": [], "outcomes": []} for workload in names}
    # Seed by seed, every workload in turn: a slow stretch of a shared host
    # then lands on all workloads alike instead of on one.
    for offset in range(args.runs):
        for workload, entry in entries.items():
            result = child_run(args, workload, args.seed + offset, 0)
            entry["outcomes"].append({key: result[key] for key in ("correct", "attempted", "failed", "exit")})
            entry["runs"].append({name: item["value"] for name, item in result["metrics"].items()})
            entry["timings"].append(result["timings"])
    ok = True
    for workload, entry in entries.items():
        entry["summary"] = report.summarize(entry["runs"])
        entry["timing_summary"] = report.summarize(entry["timings"])
        if args.trace:
            traced = child_run(args, workload, args.seed, 1)
            entry["outcomes"].append({key: traced[key] for key in ("correct", "attempted", "failed", "exit")})
            entry["traced"] = {name: item["value"] for name, item in traced["metrics"].items()}
            entry["tracing_overhead_ms"] = (
                traced["timings"]["latency_p50_ms"] - entry["timing_summary"]["latency_p50_ms"]["median"]
            )
        ok = ok and all(outcome["correct"] and outcome["exit"] == 0 for outcome in entry["outcomes"])
        recorded["workloads"][workload] = entry

    rows = []
    for workload, entry in recorded["workloads"].items():
        for kind, summary in (("metric", entry["summary"]), ("timing", entry["timing_summary"])):
            for name, stats in summary.items():
                rows.append(
                    [
                        workload,
                        name,
                        kind,
                        f"{stats['median']:.6g}",
                        f"[{stats['q1']:.6g}, {stats['q3']:.6g}]",
                        f"{stats['spread']:.2%}",
                        f"{stats['range']:.2%}",
                    ]
                )
        if "tracing_overhead_ms" in entry:
            overhead = f"{entry['tracing_overhead_ms']:.6g}"
            rows.append([workload, "tracing_overhead_ms", "timing", overhead, "", "", ""])
    print(report.table(["workload", "name", "kind", "median", "quartiles", "IQR/median", "max/min-1"], rows))
    if args.out is not None:
        args.out.write_text(json.dumps(recorded, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


def compare(paths) -> int:
    import report

    if len(paths) != 2:
        sys.stderr.write("usage: run.py compare PARENT.json CHANGE.json\n")
        return 2
    parent, change = (json.loads(Path(path).read_text(encoding="utf-8")) for path in paths)
    if parent.get("seconds") != change.get("seconds"):
        sys.stderr.write(
            f"the files measured runs of different lengths ({parent.get('seconds')} s and"
            f" {change.get('seconds')} s) and cannot be compared\n"
        )
        return 2
    rows = report.compare_rows(parent, change, load_config()["end_to_end"])
    header = ["workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "unit", "bound"]
    header.append("verdict")
    print(report.table(header, rows))
    return 1 if any(row[-1] == "worse" for row in rows) else 0


def main(argv) -> int:
    if argv[:1] == ["compare"]:
        return compare(argv[1:])
    args = parse_args(argv)
    if not (SOURCE / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"no program to benchmark: {SOURCE / 'repro'} is missing\n")
        return 2
    sys.path.insert(0, str(SOURCE))
    if args.runs == 1 and args.workload != "all":
        return single_run(args)
    return repeated_runs(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
