"""Fast tests of the benchmark harness itself (collected by the tier-1 suite)."""

from __future__ import annotations

import json
import subprocess
import sys
import threading
import time
import types
from pathlib import Path

import numpy as np
import pytest

import report
import spans
import traffic

HERE = Path(__file__).resolve().parent


# --------------------------------------------------------------------- #
# Spans
# --------------------------------------------------------------------- #


def test_self_time_subtracts_the_union_of_child_spans():
    recorded = [
        spans.Span(1, None, "e", "outer", 0.0, 10.0),
        spans.Span(2, 1, "e", "inner", 1.0, 3.0),
        spans.Span(3, 1, "e", "inner", 5.0, 9.0),
        spans.Span(4, 3, "e", "leaf", 6.0, 7.0),
        # Overlaps its sibling: counted once, and only inside the parent.
        spans.Span(5, 1, "e", "inner", 8.0, 12.0),
    ]
    own = spans.self_times(recorded)
    assert own[1] == pytest.approx(10.0 - 2.0 - 5.0)  # children cover [1,3] and [5,10]
    assert own[3] == pytest.approx(4.0 - 1.0)
    assert own[4] == pytest.approx(1.0)


def test_spans_nest_per_thread_and_requests_group_them():
    module = types.SimpleNamespace()
    tracer = spans.Tracer()

    def inner():
        time.sleep(0.001)

    def outer():
        module.inner()
        worker = threading.Thread(target=module.inner)
        worker.start()
        worker.join()

    module.inner, module.outer = inner, outer
    tracer.wrap_binding(module, "inner", "inner")
    tracer.wrap_binding(module, "outer", "outer")
    tracer.wrap_binding(module, "missing", "never")  # absent targets are skipped
    tracer.set_event(7)
    module.outer()
    tracer.uninstall()
    assert module.inner is inner and module.outer is outer

    by_name = {}
    for span in tracer.spans:
        by_name.setdefault(span.name, []).append(span)
    (root,) = by_name["outer"]
    same_thread, other_thread = sorted(by_name["inner"], key=lambda span: span.parent_id is None)
    assert root.parent_id is None and root.event_id == 7
    assert same_thread.parent_id == root.span_id and same_thread.event_id == 7
    # A span opened on another thread has no parent there and is its own request.
    assert other_thread.parent_id is None and other_thread.event_id == ("span", other_thread.span_id)
    assert len(spans.per_request(tracer.spans, "inner")) == 2


# --------------------------------------------------------------------- #
# Load generation
# --------------------------------------------------------------------- #


def test_open_loop_latency_counts_a_stall_from_due_time():
    stalled = []

    def send(index, key):
        if not stalled:
            stalled.append(index)
            time.sleep(0.25)
        return None

    schedule = traffic.Schedule(due_s=np.arange(10) * 0.01, keys=((1, 0, 2.0),) * 10)
    samples = traffic.open_loop(send, lambda *args: None, schedule, threads=1)
    latencies, lateness = samples.latencies_ms(), samples.lateness_ms()
    assert latencies[0] >= 250
    # Requests due during the stall waited for it: their latency includes the
    # wait even though each was fast once sent.
    for index in range(1, 5):
        assert latencies[index] >= 250 - index * 10 - 5
        assert lateness[index] > 100
    assert samples.succeeded().all()


def test_failed_requests_are_counted_not_raised():
    def send(index, key):
        if index == 3:
            raise RuntimeError("boom")

    samples = traffic.closed_loop(send, lambda *args: None, [(1, 0, 2.0)] * 100_000, threads=2, seconds=0.05)
    assert samples.count - samples.succeeded().sum() == 1


def test_schedules_are_a_function_of_the_seed():
    keys = ((1, 0, 2.0), (1, 1, 2.0), (1, 0, 1.5))

    def digest(seed):
        return traffic.poisson_schedule(np.random.default_rng(seed), 150.0, 12.0, keys, 1.1).digest()

    assert digest(5) == digest(5)
    assert digest(5) != digest(6)
    schedule = traffic.poisson_schedule(np.random.default_rng(5), 150.0, 12.0, keys, 1.1)
    assert len(schedule.keys) == 1800 and np.all(np.diff(schedule.due_s) >= 0)

    cold = traffic.cold_keys(np.random.default_rng(5), 30, 1, exclude=[(1, 1, 3.5)])
    assert cold == traffic.cold_keys(np.random.default_rng(5), 30, 1)
    assert len(set(cold)) == 30
    assert [sorted(key[1] for key in cold[i : i + 3]) for i in range(0, 30, 3)] == [[0, 1, 2]] * 10


def test_workload_plans_are_a_function_of_the_seed():
    import deploy
    import workloads

    tree = deploy.build_tree(2, deploy.make_dataset())
    churn = workloads.WORKLOADS["priors_churn"]
    assert churn.plan(3, 4.0, tree).digest() == churn.plan(3, 4.0, tree).digest()
    assert churn.plan(3, 4.0, tree).digest() != churn.plan(4, 4.0, tree).digest()
    assert len(churn.plan(3, 4.0, tree).publishes) == 2


def test_served_log_keeps_forests_apart_that_differ_only_in_epsilon():
    import verify
    from repro.core.matrix import ObfuscationMatrix

    def forest(epsilon):
        return {"r": ObfuscationMatrix(values=np.eye(2), node_ids=["a", "b"], epsilon=epsilon)}

    log = verify.ServedLog()
    low, high = forest(1.0), forest(2.0)
    assert log.record((1, 2, 1.0), 1.0, low) != log.record((1, 2, 2.0), 2.0, high)
    (digest,) = log.digests_by_key[(1, 2, 2.0)]
    assert verify.canonical(log.forests[digest][1]) == verify.canonical(high)


# --------------------------------------------------------------------- #
# Verdicts
# --------------------------------------------------------------------- #

PARENT = [100.0, 101.0, 99.0, 100.5, 99.5, 100.2, 99.8, 100.1, 99.9, 100.0]


def test_verdict_rule():
    assert report.verdict(PARENT, [v * 1.05 for v in PARENT], "lower", 0.10) == "unchanged"
    assert report.verdict(PARENT, [v * 1.20 for v in PARENT], "lower", 0.10) == "worse"
    assert report.verdict(PARENT, [v * 0.80 for v in PARENT], "lower", 0.10) == "improved"
    # Direction: a higher-is-better metric that rose improved.
    assert report.verdict(PARENT, [v * 1.20 for v in PARENT], "higher", 0.10) == "improved"
    assert report.verdict(PARENT, [v * 0.80 for v in PARENT], "higher", 0.10) == "worse"
    # A parent spread wider than the bound cannot be judged...
    noisy = [60.0, 140.0, 80.0, 120.0, 100.0, 70.0, 130.0, 90.0, 110.0, 100.0]
    assert report.verdict(noisy, [v * 1.05 for v in noisy], "lower", 0.10) == "unresolved"
    # ...unless every change run beats every parent run.
    assert report.verdict(noisy, [50.0] * 10, "lower", 0.10) == "improved"
    # A gain smaller than the parent's own quartile spread is not claimed.
    assert report.verdict(PARENT, [v - 0.2 for v in PARENT], "lower", 0.10) == "unchanged"


# --------------------------------------------------------------------- #
# End to end
# --------------------------------------------------------------------- #


def _run(*args: str, **kwargs) -> subprocess.Popen:
    command = [sys.executable, str(HERE / "run.py"), *args]
    return subprocess.Popen(command, stdout=subprocess.PIPE, text=True, **kwargs)


def test_smoke_pass_of_every_workload():
    config = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
    names = [workload["name"] for workload in config["workloads"]]
    # Two at a time keeps the pass short without crowding a small host.
    for pair in (names[:2], names[2:]):
        children = {name: _run("--workload", name, "--seed", "7", "--smoke") for name in pair}
        for name, child in children.items():
            stdout, _ = child.communicate(timeout=300)
            assert child.returncode == 0, stdout[-3000:]
            result = json.loads(stdout.strip().splitlines()[-1])
            assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, name
            assert set(result["metrics"]) == {metric["name"] for metric in config["end_to_end"]}
            assert all(entry["value"] > 0 for entry in result["metrics"].values()), name


def test_compare_prints_a_verdict_per_workload_and_metric(tmp_path):
    def recorded(scale, failed=0, seconds=20.0):
        runs = [{"setup_s": value * scale, "peak_rss_mb": value * scale} for value in PARENT]
        outcome = {"correct": not failed, "attempted": 100, "failed": failed, "exit": int(bool(failed))}
        outcomes = [outcome] * len(runs)
        return {"seconds": seconds, "workloads": {"warm_http": {"runs": runs, "outcomes": outcomes}}}

    def compare(parent, change):
        (tmp_path / "a.json").write_text(json.dumps(parent))
        (tmp_path / "b.json").write_text(json.dumps(change))
        child = _run("compare", str(tmp_path / "a.json"), str(tmp_path / "b.json"))
        stdout, _ = child.communicate(timeout=60)
        rows = [line.split() for line in stdout.splitlines() if line.startswith("warm_http")]
        return child.returncode, {row[1]: row[-1] for row in rows}

    assert compare(recorded(1.0), recorded(1.02)) == (
        0,
        {"failed": "unchanged", "setup_s": "unchanged", "peak_rss_mb": "unchanged"},
    )
    assert compare(recorded(1.0), recorded(1.5)) == (
        1,
        {"failed": "unchanged", "setup_s": "worse", "peak_rss_mb": "worse"},
    )
    # Better but failing is worse, and exits non-zero.
    assert compare(recorded(1.0), recorded(0.5, failed=1)) == (
        1,
        {"failed": "worse", "setup_s": "improved", "peak_rss_mb": "improved"},
    )
    # Runs of different lengths are not compared at all.
    assert compare(recorded(1.0), recorded(1.0, seconds=5.0)) == (2, {})
