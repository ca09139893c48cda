"""CI bench-regression gate: exit codes, step-summary table, tamper detection.

Runs ``benchmarks/ci_gate.py`` the way the workflow does — as a subprocess
with ``$GITHUB_STEP_SUMMARY`` pointing at a file — and asserts the three
contracts the scenario-matrix acceptance criteria pin down:

* a clean fresh/baseline pair gates green and writes the full per-metric
  markdown table to the step summary;
* deleting the ``replication`` section from fresh ``BENCH_service.json``
  (a benchmark section silently disappearing) exits non-zero;
* an injected p50 regression beyond threshold + slack exits non-zero and
  shows up as a ❌ REGRESSION row.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
GATE_SCRIPT = REPO_ROOT / "benchmarks" / "ci_gate.py"
BASELINE_DIR = REPO_ROOT / "benchmarks" / "baselines"


def run_gate(tmp_path, fresh_dir):
    """Run ci_gate.py against ``fresh_dir`` with a step-summary sink."""
    summary_path = tmp_path / "step_summary.md"
    summary_path.write_text("", encoding="utf-8")
    completed = subprocess.run(
        [sys.executable, str(GATE_SCRIPT), "--fresh-dir", str(fresh_dir)],
        capture_output=True,
        text=True,
        timeout=60,
        env={"GITHUB_STEP_SUMMARY": str(summary_path), "PATH": "/usr/bin:/bin"},
    )
    return completed, summary_path.read_text(encoding="utf-8")


def make_fresh_dir(tmp_path) -> Path:
    """A fresh-results dir that is byte-identical to the committed baselines."""
    fresh_dir = tmp_path / "fresh"
    fresh_dir.mkdir()
    for name in ("BENCH_service.json", "BENCH_pipeline.json"):
        shutil.copy(BASELINE_DIR / name, fresh_dir / name)
    return fresh_dir


def test_clean_run_gates_green_and_writes_summary_table(tmp_path):
    completed, summary = run_gate(tmp_path, make_fresh_dir(tmp_path))
    assert completed.returncode == 0, completed.stderr
    assert "all gated metrics within threshold" in completed.stdout
    # The step summary carries the per-metric markdown table.
    assert "## Bench regression gate — ✅ passed" in summary
    assert "| file | metric | baseline (s) | fresh (s) | ratio | verdict |" in summary
    assert "`replication.propagation_s.p50`" in summary
    assert "`gateway_publish.push_latency_s.p50`" in summary
    assert "1.00x | ✅ ok" in summary
    assert "❌" not in summary


def test_deleting_replication_section_fails_the_gate(tmp_path):
    """Acceptance criterion: a vanished benchmark section exits non-zero."""
    fresh_dir = make_fresh_dir(tmp_path)
    service_path = fresh_dir / "BENCH_service.json"
    document = json.loads(service_path.read_text(encoding="utf-8"))
    del document["replication"]
    service_path.write_text(json.dumps(document), encoding="utf-8")

    completed, summary = run_gate(tmp_path, fresh_dir)
    assert completed.returncode == 1
    assert "replication.propagation_s.p50 missing from fresh results" in completed.stderr
    assert "## Bench regression gate — ❌ FAILED" in summary
    assert "❌ MISSING" in summary
    assert "### Failures" in summary


def test_injected_regression_fails_with_table_row(tmp_path):
    fresh_dir = make_fresh_dir(tmp_path)
    service_path = fresh_dir / "BENCH_service.json"
    document = json.loads(service_path.read_text(encoding="utf-8"))
    # 10x the replication p50 and push it past the 50 ms absolute slack.
    document["replication"]["propagation_s"]["p50"] = (
        document["replication"]["propagation_s"]["p50"] * 10.0 + 0.1
    )
    service_path.write_text(json.dumps(document), encoding="utf-8")

    completed, summary = run_gate(tmp_path, fresh_dir)
    assert completed.returncode == 1
    assert "replication.propagation_s.p50 regressed" in completed.stderr
    assert "❌ REGRESSION" in summary


def test_missing_fresh_file_fails_and_marks_every_metric(tmp_path):
    fresh_dir = make_fresh_dir(tmp_path)
    (fresh_dir / "BENCH_pipeline.json").unlink()
    completed, summary = run_gate(tmp_path, fresh_dir)
    assert completed.returncode == 1
    assert "fresh results missing" in completed.stderr
    assert "`forest_generation_s.cold`" in summary
    assert summary.count("❌ MISSING") == 3  # every BENCH_pipeline gate


def test_no_summary_env_still_gates(tmp_path):
    """Without $GITHUB_STEP_SUMMARY (local runs) the gate works unchanged."""
    completed = subprocess.run(
        [sys.executable, str(GATE_SCRIPT), "--fresh-dir", str(make_fresh_dir(tmp_path))],
        capture_output=True,
        text=True,
        timeout=60,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert completed.returncode == 0, completed.stderr
