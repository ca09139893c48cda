"""End-to-end scenario matrix replays: SLO verdicts, fault ops, determinism.

Every registry scenario replays (at reduced event count — the CI job and
the nightly soak run them at full scale) and must report all four metric
families: traffic (served/errors), privacy (adversary violation % and
recovery), utility (mean km loss) and latency percentiles.  The
determinism test pins the acceptance guarantee — same seed + scenario ⇒
identical schedule digest and identical deterministic counters — and the
violating-SLO regression proves the harness actually fails when a
scenario's promise is broken (both at the report level and as the CLI's
exit code).
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.loadgen.report import SLOSpec
from repro.loadgen.scenarios import SCENARIOS, Scenario, ScenarioOp, run_scenario, soak_factor

#: Reduced per-test event counts: the LP work per distinct matrix dominates,
#: so this keeps each scenario a few seconds while still crossing every
#: fault-injection barrier (ops reposition proportionally).
SMALL_EVENTS = 60


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_replays_with_all_metric_families(name):
    scenario = SCENARIOS[name]
    report = run_scenario(name, seed=0, num_events=SMALL_EVENTS)
    assert report.passed, f"{name} violated SLOs: {report.failed_checks()}"
    assert report.scenario == name
    assert len(report.schedule_digest) == 64

    # Traffic family.
    counters = report.counters
    assert counters["events_total"] == SMALL_EVENTS
    assert counters["served"] + counters["errors"] == SMALL_EVENTS
    assert counters["per_key"]

    # Privacy family (the online adversary consumed every served matrix).
    adversary = counters["adversary"]
    assert adversary["consumed"] == counters["served"]
    assert adversary["distinct_matrices"] >= 1
    for metric in ("violation_pct", "recovery_ratio", "expected_error_km", "prior_error_km"):
        assert metric in adversary

    # Utility family.
    assert counters["utility_samples"] == counters["served"]
    assert counters["utility_loss_km"] >= 0.0

    # Latency family.
    latency = report.timing["latency_s"]
    assert latency["count"] == counters["served"]
    assert 0.0 <= latency["p50"] <= latency["p99"] <= latency["max"]

    # Fault ops all fired, synchronously, at their proportional barriers.
    assert counters["ops_applied"] == len(scenario.ops)
    applied = counters["ops"]
    assert [op["action"] for op in applied] == [op.action for op in scenario.ops]
    for op_record, op_spec in zip(applied, scenario.ops):
        assert op_record["at_event"] == max(1, int(op_spec.at_fraction * SMALL_EVENTS))


def test_same_seed_same_scenario_is_deterministic():
    """Same seed + scenario ⇒ identical schedule digest and counters."""
    first = run_scenario("flash_crowd", seed=123, num_events=SMALL_EVENTS)
    second = run_scenario("flash_crowd", seed=123, num_events=SMALL_EVENTS)
    assert first.schedule_digest == second.schedule_digest
    assert json.dumps(first.deterministic_view(), sort_keys=True) == json.dumps(
        second.deterministic_view(), sort_keys=True
    )
    third = run_scenario("flash_crowd", seed=124, num_events=SMALL_EVENTS)
    assert third.schedule_digest != first.schedule_digest


def test_failover_determinism_excludes_wall_clock():
    """Even the SIGKILL scenario's deterministic view is run-invariant."""
    first = run_scenario("region_failover", seed=7, num_events=SMALL_EVENTS)
    second = run_scenario("region_failover", seed=7, num_events=SMALL_EVENTS)
    assert first.counters == second.counters
    assert first.counters["ops"][0]["action"] == "kill"


def test_violating_slo_config_fails_report_and_cli(monkeypatch, tmp_path):
    """Regression: a scenario whose SLOs cannot hold must FAIL, not pass."""
    impossible = replace(
        SCENARIOS["flash_crowd"],
        name="impossible_slo",
        num_events=40,
        # The optimal Bayesian attacker never does worse than the prior-only
        # guess, so recovery_ratio >= 1 always: a 0.5 bound must fail.
        slos=SLOSpec(max_recovery_ratio=0.5),
    )
    report = run_scenario(impossible, seed=0)
    assert not report.passed
    failed = {check.name for check in report.failed_checks()}
    assert failed == {"recovery_ratio"}

    # The CLI surfaces the violation as a non-zero exit code.
    monkeypatch.setitem(SCENARIOS, "impossible_slo", impossible)
    from repro.loadgen.__main__ import main

    report_path = tmp_path / "impossible.json"
    assert main(["--scenario", "impossible_slo", "--report", str(report_path)]) == 1
    persisted = json.loads(report_path.read_text(encoding="utf-8"))
    assert persisted["passed"] is False


def test_cli_matrix_run_writes_reports_and_snapshot(tmp_path, monkeypatch):
    """One short CLI matrix pass: per-scenario JSON + dashboard snapshot."""
    fast = replace(SCENARIOS["flash_crowd"], num_events=40)
    monkeypatch.setitem(SCENARIOS, "flash_crowd", fast)
    from repro.loadgen.__main__ import main

    report_dir = tmp_path / "reports"
    snapshot_path = tmp_path / "dashboard.txt"
    code = main(
        [
            "--scenario",
            "flash_crowd",
            "--report-dir",
            str(report_dir),
            "--dashboard-snapshot",
            str(snapshot_path),
        ]
    )
    assert code == 0
    payload = json.loads((report_dir / "flash_crowd.json").read_text(encoding="utf-8"))
    assert payload["scenario"] == "flash_crowd" and payload["passed"] is True
    snapshot = snapshot_path.read_text(encoding="utf-8")
    assert "CORGI trace replay" in snapshot and "40/40 events" in snapshot


def test_http_and_gateway_transports_replay(monkeypatch):
    for transport in ("http", "gateway"):
        report = run_scenario("flash_crowd", seed=0, num_events=30, transport=transport)
        assert report.passed, f"{transport} replay violated SLOs: {report.failed_checks()}"
        assert report.counters["served"] == 30


def test_soak_scaling(monkeypatch):
    scenario = SCENARIOS["flash_crowd"]
    scaled = scenario.scaled(3)
    assert scaled.num_events == scenario.num_events * 3
    assert scaled.fleet.num_users == scenario.fleet.num_users * 3
    assert scenario.scaled(1) is scenario
    monkeypatch.setenv("SCENARIO_SOAK_FACTOR", "5")
    assert soak_factor() == 5
    monkeypatch.setenv("SCENARIO_SOAK_FACTOR", "not-a-number")
    assert soak_factor() == 20


def test_scenario_validation_guards():
    with pytest.raises(ValueError, match="needs a pool"):
        replace(
            SCENARIOS["shard_drain"], shards=1
        ).validate()
    with pytest.raises(ValueError, match="at_fraction"):
        ScenarioOp(at_fraction=1.5, action="drain").validate()
    for retired_or_unknown in ("reboot", "invalidate"):
        with pytest.raises(ValueError, match="unknown scenario op"):
            ScenarioOp(at_fraction=0.5, action=retired_or_unknown).validate()
    with pytest.raises(ValueError, match="unknown scenario"):
        run_scenario("no_such_scenario")
    with pytest.raises(ValueError, match="unknown transport"):
        run_scenario("flash_crowd", num_events=10, transport="carrier-pigeon")


def test_registry_covers_the_roadmap_matrix():
    """The four production-shaped situations stay first-class."""
    assert set(SCENARIOS) == {
        "flash_crowd",
        "shard_drain",
        "priors_under_load",
        "region_failover",
    }
    for scenario in SCENARIOS.values():
        assert isinstance(scenario, Scenario)
        scenario.validate()
        # Every scenario declares the full SLO family, not a subset.
        declared = {check for check in scenario.slos.to_dict().values()}
        assert all(limit != float("inf") for limit in declared)
