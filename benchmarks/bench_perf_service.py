"""Perf trajectory for the service layer: coalescing, sharding, hand-off, netshard.

Four serving workloads, each the one its mechanism exists for:

* **coalescing** — a burst of concurrent *identical* requests.  Uncoalesced,
  every request pays a full forest build; through :class:`CORGIService` one
  leader builds and everyone else waits on the shared result.
* **sharding** — an *uncoalescable* burst of distinct ``(privacy_level, δ,
  ε)`` keys, where single-flight cannot help and single-process serving is
  bounded by one interpreter.  The same burst through a
  :class:`~repro.service.pool.EnginePool` spreads the keys across worker
  processes via consistent-hash routing and scales with cores.
* **handoff** — cold vs. warm failover.  Cold: a shard is SIGKILLed with
  warm recovery disabled, and its hot keys are rebuilt through the LP
  pipeline on the ring sibling — the latency cliff.  Warm: the shard is
  gracefully drained, its cache snapshot ships to the sibling, and the same
  keys are forest-cache hits.  The warm p50 must sit far below the cold p50.
* **netshard** — the same uncoalescable mixed-key burst through *socket*
  shards (``repro.service.netshard`` servers in separate processes), plus
  the failover path: one server is SIGKILLed and its keys are re-served
  through the surviving socket shard — heartbeat detection, redial backoff
  and ring failover are all on the measured path.
* **restart** — cold vs. durable warm fleet restart.  Cold: a fresh pool
  over an empty state directory serves each key through a full LP build.
  Warm: the previous fleet persisted its forests write-through to the
  snapshot store, was SIGKILLed wholesale, and the reborn pool pre-warms
  from disk — first responses are cache hits.  The warm p50 must sit at
  least 20× below the cold p50 (the ISSUE acceptance bound).
* **gateway** — push vs. poll freshness after an invalidation.  Push: a
  client holds one gateway connection and measures invalidate → refreshed
  matrix *pushed* onto its socket.  Poll: the same client re-requests on a
  fixed interval until the rebuilt forest shows up — the pre-gateway
  pattern, which always pays expected-interval/2 of staleness on top of
  the rebuild.  The push p50 must beat the poll p50.
* **replication** — control-plane propagation through the replicated log:
  ``publish_priors`` on the primary head → record durably committed and
  applied on a log-shipping follower.  The measured path is WAL append +
  fsync, the framed socket hop, the follower's store-and-forward commit
  and its tree/shard apply.

Results are recorded section-by-section in ``BENCH_service.json`` so future
PRs can track all three trends.  The sharded-beats-single assertion only
applies on multi-core hosts (on one core the pool can only add IPC
overhead); the hand-off assertion holds everywhere (a cache hit beats an LP
campaign on any core count).

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_perf_service.py -s

The tests are marked ``perf``; tier-1 (`python -m pytest`) never collects
``bench_*.py`` files.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import statistics
import time
from pathlib import Path
from typing import Callable, Dict, List, Sequence

import pytest

from helpers_concurrency import run_burst, wait_until  # tests/; see benchmarks/conftest.py
from repro.client.gateway import GatewayClient
from repro.geometry.haversine import LatLng
from repro.server.engine import ForestEngine, ServerConfig
from repro.service.gateway import GatewayConfig, GatewayServer
from repro.service.netshard import serve_netshard
from repro.service.pool import EnginePool
from repro.service.service import CORGIService, ServiceConfig
from repro.service.shard import ShardSpec
from repro.tree.builder import tree_for_point

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_service.json"

#: Shared workload shape: forests over a height-2 tree (7 sub-trees of 7
#: leaves at privacy level 1).
TREE_HEIGHT = 2
PRIVACY_LEVEL = 1
EPSILON = 2.0
DELTA = 1
ITERATIONS = 2
BURST_SIZE = 8

#: Sharding burst: distinct ε per request — no two requests share a key, so
#: single-flight coalescing is inert by construction.  Values chosen to
#: spread across the consistent-hash ring for 2- and 4-shard pools (3/3 on
#: two shards; all four slots on four).
MIXED_EPSILONS = (1.5, 1.55, 1.7, 1.75, 1.8, 2.05)

#: Restart keys: twelve distinct ε, so each phase's first-response p50 is a
#: median of twelve, in the paper's 15–20 /km regime, where no two keys
#: share an LP.  At ε ≈ 2 the δ = 1 pair budgets clamp, so later keys'
#: robust LPs are LP-cache hits (108 of 252 LPs over twelve such keys) and
#: the cold phase would not be the full LP builds it stands for.
RESTART_EPSILONS = (15.0, 15.5, 16.0, 16.5, 17.0, 17.5, 18.0, 18.5, 19.0, 19.5, 20.0, 20.5)


def _usable_cores() -> int:
    """Cores this process may actually run on (affinity/cgroup aware) —
    os.cpu_count() reports the host and would arm the speedup assert inside
    a 1-CPU container."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # non-Linux
        return os.cpu_count() or 1


NUM_SHARDS = max(2, min(4, _usable_cores()))
MULTI_CORE = _usable_cores() >= 2


def _build_tree():
    return tree_for_point(LatLng(37.77, -122.42), height=TREE_HEIGHT, root_resolution=7)


def _server_config() -> ServerConfig:
    return ServerConfig(epsilon=EPSILON, num_targets=10, robust_iterations=ITERATIONS)


def _build_engine() -> ForestEngine:
    return ForestEngine(_build_tree(), _server_config())


def _run_burst(targets: Sequence[Callable[[], object]]) -> float:
    """Run every target concurrently (shared deadline-joined burst driver)."""
    return run_burst(targets, timeout_s=120).raise_errors().elapsed_s


def _update_results(section: str, payload: Dict[str, object]) -> None:
    """Merge one section into BENCH_service.json (tests may run in any order)."""
    document: Dict[str, object] = {}
    if RESULT_PATH.exists():
        try:
            existing = json.loads(RESULT_PATH.read_text(encoding="utf-8"))
            known_sections = (
                "coalescing",
                "sharding",
                "handoff",
                "netshard",
                "restart",
                "gateway",
                "replication",
            )
            if isinstance(existing, dict) and any(
                section in existing for section in known_sections
            ):
                document = existing
        except json.JSONDecodeError:
            pass
    document[section] = payload
    RESULT_PATH.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    print(f"\nwrote {RESULT_PATH} [{section}]")


@pytest.mark.perf
def test_perf_service_coalescing():
    # Uncoalesced: every request pays a full forest build on its own cold
    # engine (N requests that a cache-less, coalescing-less server computes).
    # The engines are built before the burst so only the forest builds are timed.
    cold_engines = [_build_engine() for _ in range(BURST_SIZE)]
    uncoalesced_s = _run_burst(
        [lambda engine=engine: engine.build_forest(PRIVACY_LEVEL, DELTA) for engine in cold_engines]
    )

    # Coalesced: the same burst through the service's single-flight gate.
    service = CORGIService(
        _build_engine(), ServiceConfig(max_in_flight=4, max_queue_depth=32)
    )
    coalesced_s = _run_burst(
        [lambda: service.generate_privacy_forest(PRIVACY_LEVEL, DELTA)] * BURST_SIZE
    )
    snapshot = service.metrics.snapshot()

    payload = {
        "workload": {
            "tree_height": TREE_HEIGHT,
            "privacy_level": PRIVACY_LEVEL,
            "epsilon": EPSILON,
            "delta": DELTA,
            "robust_iterations": ITERATIONS,
            "burst_size": BURST_SIZE,
        },
        "burst_wall_s": {
            "uncoalesced": uncoalesced_s,
            "coalesced": coalesced_s,
        },
        "throughput_rps": {
            "uncoalesced": BURST_SIZE / uncoalesced_s if uncoalesced_s else float("inf"),
            "coalesced": BURST_SIZE / coalesced_s if coalesced_s else float("inf"),
        },
        "speedup": uncoalesced_s / coalesced_s if coalesced_s else float("inf"),
        "service_metrics": snapshot,
        "structure_sharing": service.engine.cache_diagnostics()["structure_sharing"],
    }
    _update_results("coalescing", payload)
    print(json.dumps(payload["burst_wall_s"], indent=2))
    print("speedup:", payload["speedup"])

    # Acceptance: the burst triggered exactly one engine build, and
    # coalescing beats naive per-request computation clearly.
    assert snapshot["engine_builds"] == 1
    assert snapshot["coalesced"] == BURST_SIZE - 1 or snapshot["engine_cache_hits"] > 0
    assert payload["speedup"] >= 2.0


@pytest.mark.perf
def test_perf_service_sharding():
    """Uncoalescable mixed-key burst: EnginePool vs single-process service."""
    service_config = ServiceConfig(max_in_flight=len(MIXED_EPSILONS), max_queue_depth=32)

    def burst_through(service: CORGIService) -> float:
        return _run_burst(
            [
                lambda epsilon=epsilon: service.generate_privacy_forest(
                    PRIVACY_LEVEL, DELTA, epsilon=epsilon
                )
                for epsilon in MIXED_EPSILONS
            ]
        )

    # Best-of-2 with fresh state per run (a repeat on a warm service would
    # only measure the forest cache): the min damps scheduler noise, which
    # matters because the acceptance assert below gates CI.
    REPEATS = 2

    # Single process: distinct keys fan out across threads but share one
    # interpreter (and one GIL outside the LP solver's native sections).
    single_runs = []
    for _ in range(REPEATS):
        single_service = CORGIService(_build_engine(), service_config)
        single_runs.append(burst_through(single_service))
        single_snapshot = single_service.metrics.snapshot()
    single_s = min(single_runs)

    # Sharded: the same keys spread across NUM_SHARDS worker processes.
    sharded_runs = []
    for _ in range(REPEATS):
        pool = EnginePool(_build_tree(), _server_config(), num_shards=NUM_SHARDS)
        try:
            pool.wait_ready()
            sharded_service = CORGIService(pool, service_config)
            sharded_runs.append(burst_through(sharded_service))
            sharded_snapshot = sharded_service.metrics.snapshot()
            routing = {
                f"{epsilon:g}": pool.shard_for(PRIVACY_LEVEL, DELTA, epsilon=epsilon)
                for epsilon in MIXED_EPSILONS
            }
            pool_stats = pool.pool_stats()
        finally:
            pool.close()
    sharded_s = min(sharded_runs)

    payload = {
        "workload": {
            "tree_height": TREE_HEIGHT,
            "privacy_level": PRIVACY_LEVEL,
            "delta": DELTA,
            "robust_iterations": ITERATIONS,
            "distinct_epsilons": list(MIXED_EPSILONS),
            "num_shards": NUM_SHARDS,
            "cpu_count": os.cpu_count(),
        },
        "burst_wall_s": {
            "single_process": single_s,
            "sharded": sharded_s,
            "single_process_runs": single_runs,
            "sharded_runs": sharded_runs,
        },
        "throughput_rps": {
            "single_process": len(MIXED_EPSILONS) / single_s if single_s else float("inf"),
            "sharded": len(MIXED_EPSILONS) / sharded_s if sharded_s else float("inf"),
        },
        "speedup": single_s / sharded_s if sharded_s else float("inf"),
        "shard_routing": routing,
        "pool_stats": pool_stats,
        "service_metrics": {
            "single_process": single_snapshot,
            "sharded": sharded_snapshot,
        },
    }
    _update_results("sharding", payload)
    print(json.dumps(payload["burst_wall_s"], indent=2))
    print("speedup:", payload["speedup"])

    # Every request was a distinct build — coalescing had nothing to merge.
    assert single_snapshot["engine_builds"] == len(MIXED_EPSILONS)
    assert sharded_snapshot["engine_builds"] == len(MIXED_EPSILONS)
    assert single_snapshot["coalesced"] == 0 and sharded_snapshot["coalesced"] == 0
    # The ring spread the keys over more than one shard.
    assert len(set(routing.values())) > 1
    # Acceptance (≥2 cores): process sharding beats the single interpreter.
    if MULTI_CORE:
        assert payload["speedup"] > 1.0, payload["burst_wall_s"]


@pytest.mark.perf
def test_perf_service_handoff():
    """Cold vs. warm failover: SIGKILL without recovery vs. graceful drain.

    Both phases warm the victim shard's hot keys, remove the victim, then
    time each of its keys served through the pool (routing falls to the
    ring sibling in both cases).  Cold = the sibling rebuilds through the
    LP pipeline; warm = the drain shipped the cache snapshot ahead of the
    requests, so every key is a forest-cache hit.
    """

    def victim_keys_of(pool):
        victim = pool.shard_for(PRIVACY_LEVEL, DELTA, epsilon=MIXED_EPSILONS[0])
        keys = [
            epsilon
            for epsilon in MIXED_EPSILONS
            if pool.shard_for(PRIVACY_LEVEL, DELTA, epsilon=epsilon) == victim
        ]
        return victim, keys

    def timed_failover_latencies(pool, epsilons) -> List[float]:
        latencies = []
        for epsilon in epsilons:
            start = time.perf_counter()
            pool.build_forest(PRIVACY_LEVEL, DELTA, epsilon=epsilon)
            latencies.append(time.perf_counter() - start)
        return latencies

    # --- Cold failover: SIGKILL, no hot-key ledger replay ---------------- #
    cold_pool = EnginePool(
        _build_tree(),
        _server_config(),
        num_shards=2,
        respawn_limit=0,  # the victim stays dead, so routing stays on the sibling
        warm_recovery=False,  # measure the pre-hand-off latency cliff
    )
    try:
        cold_pool.wait_ready()
        victim, victim_keys = victim_keys_of(cold_pool)
        assert len(victim_keys) >= 2, "need at least two victim-homed keys to time"
        for epsilon in victim_keys:
            cold_pool.build_forest(PRIVACY_LEVEL, DELTA, epsilon=epsilon)
        cold_pool._shards[victim].process.kill()
        wait_until(
            lambda: cold_pool.shard_states()[victim]["state"] == "dead",
            timeout_s=30,
            message="the SIGKILLed slot to be declared dead",
        )
        cold_latencies = timed_failover_latencies(cold_pool, victim_keys)
    finally:
        cold_pool.close()

    # --- Warm failover: graceful drain with snapshot hand-off ------------ #
    warm_pool = EnginePool(_build_tree(), _server_config(), num_shards=2)
    try:
        warm_pool.wait_ready()
        warm_victim, warm_keys = victim_keys_of(warm_pool)
        assert warm_keys == victim_keys  # routing is pool-independent
        for epsilon in warm_keys:
            warm_pool.build_forest(PRIVACY_LEVEL, DELTA, epsilon=epsilon)
        drain_report = warm_pool.drain(warm_victim)
        warm_latencies = timed_failover_latencies(warm_pool, warm_keys)
        pool_stats = warm_pool.pool_stats()
    finally:
        warm_pool.close()

    cold_p50 = statistics.median(cold_latencies)
    warm_p50 = statistics.median(warm_latencies)
    payload = {
        "workload": {
            "tree_height": TREE_HEIGHT,
            "privacy_level": PRIVACY_LEVEL,
            "delta": DELTA,
            "robust_iterations": ITERATIONS,
            "victim_keys": victim_keys,
            "num_shards": 2,
        },
        "failover_latency_s": {
            "cold_p50": cold_p50,
            "warm_p50": warm_p50,
            "cold_per_key": cold_latencies,
            "warm_per_key": warm_latencies,
        },
        "speedup_p50": cold_p50 / warm_p50 if warm_p50 else float("inf"),
        "drain_report": drain_report,
        "pool_stats": pool_stats,
    }
    _update_results("handoff", payload)
    print(json.dumps(payload["failover_latency_s"], indent=2))
    print("warm-failover speedup (p50):", payload["speedup_p50"])

    # Acceptance: the drain delivered every victim key, and warm failover
    # sits materially below the cold-rebuild cliff (cache hit vs LP solve).
    assert drain_report["handoff_keys"] == len(victim_keys)
    assert drain_report["imported"] == len(victim_keys)
    assert warm_p50 < cold_p50 / 2, payload["failover_latency_s"]


@pytest.mark.perf
def test_perf_service_restart(tmp_path):
    """Durable warm restart: first-response latency, cold boot vs store pre-warm.

    Phase 1 boots a pool over an *empty* state directory and times the
    first response for every key — the cold-restart experience (full LP
    builds).  The write-through persister lands those forests in the
    snapshot store; the fleet is then SIGKILLed without any drain.  Phase 2
    boots a fresh pool over the same directory, waits for the boot-time
    pre-warm, and times the same keys again — the durable warm-restart
    experience.  Acceptance: warm p50 at least 20× below cold p50.
    """
    state_dir = tmp_path / "state"
    restart_keys = RESTART_EPSILONS

    def timed_first_responses(pool) -> List[float]:
        latencies = []
        for epsilon in restart_keys:
            start = time.perf_counter()
            pool.build_forest(PRIVACY_LEVEL, DELTA, epsilon=epsilon)
            latencies.append(time.perf_counter() - start)
        return latencies

    # --- Phase 1: cold boot over an empty store, then kill -9 the fleet -- #
    cold_pool = EnginePool(
        _build_tree(), _server_config(), num_shards=2, state_dir=state_dir
    )
    try:
        cold_pool.wait_ready()
        cold_pool.wait_prewarmed(timeout_s=60)  # empty store: returns fast
        cold_latencies = timed_first_responses(cold_pool)
        # Write-through persistence is asynchronous — wait until every
        # built key is durably on disk before pulling the plug.
        wait_until(
            lambda: (cold_pool.durability_diagnostics()["store"]["writes"])
            >= len(restart_keys),
            timeout_s=60,
            message="write-through persistence of every restart key",
        )
        store_stats = cold_pool.durability_diagnostics()["store"]
        for shard in cold_pool._shards:
            shard.process.kill()  # the whole fleet at once: no drain, no hand-off
    finally:
        cold_pool.close()

    # --- Phase 2: reborn fleet over the same directory, pre-warmed ------- #
    warm_pool = EnginePool(
        _build_tree(), _server_config(), num_shards=2, state_dir=state_dir
    )
    try:
        warm_pool.wait_ready()
        assert warm_pool.wait_prewarmed(timeout_s=120), "store pre-warm timed out"
        warm_latencies = timed_first_responses(warm_pool)
        durability = warm_pool.durability_diagnostics()
    finally:
        warm_pool.close()

    cold_p50 = statistics.median(cold_latencies)
    warm_p50 = statistics.median(warm_latencies)
    payload = {
        "workload": {
            "tree_height": TREE_HEIGHT,
            "privacy_level": PRIVACY_LEVEL,
            "delta": DELTA,
            "robust_iterations": ITERATIONS,
            "distinct_epsilons": list(restart_keys),
            "num_shards": 2,
        },
        "first_response_s": {
            "cold_p50": cold_p50,
            "warm_p50": warm_p50,
            "cold_per_key": cold_latencies,
            "warm_per_key": warm_latencies,
        },
        "speedup_p50": cold_p50 / warm_p50 if warm_p50 else float("inf"),
        "store": {
            "entries_persisted": store_stats["writes"],
            "compression_ratio": store_stats["compression_ratio"],
            "raw_bytes": store_stats["raw_bytes"],
            "stored_bytes": store_stats["stored_bytes"],
        },
        "prewarm": durability["prewarm"],
    }
    _update_results("restart", payload)
    print(json.dumps(payload["first_response_s"], indent=2))
    print("warm-restart speedup (p50):", payload["speedup_p50"])

    # Acceptance: every key was pre-warmed from disk (none stale, none
    # dropped) and the reborn fleet answers at least 20× faster than the
    # cold boot — a cache hit instead of an LP campaign.
    prewarm = durability["prewarm"]
    assert (
        prewarm["store_prewarm_imported"] + prewarm["store_prewarm_prewarmed"]
        >= len(restart_keys)
    )
    assert prewarm["store_prewarm_stale"] == 0
    assert warm_p50 * 20 <= cold_p50, payload["first_response_s"]


@pytest.mark.perf
def test_perf_service_netshard():
    """Socket shards: mixed-key burst throughput and SIGKILL-failover p50.

    Two ``repro.service.netshard`` servers host engine replicas behind TCP;
    an otherwise identical remote-only EnginePool routes the uncoalescable
    mixed-key burst over the sockets.  Then one server is SIGKILLed and the
    victim's keys are timed through the surviving shard — liveness
    detection, bounded redial and ring failover all sit on that path.
    """
    context = multiprocessing.get_context()
    processes, ports = [], []
    for shard_id in range(2):
        port_queue = context.Queue()
        spec = ShardSpec(shard_id=shard_id, tree=_build_tree(), config=_server_config())
        process = context.Process(
            target=serve_netshard,
            args=(spec, "127.0.0.1", 0, port_queue),
            daemon=True,
        )
        process.start()
        processes.append(process)
        ports.append(port_queue.get(timeout=120))

    pool = EnginePool(
        _build_tree(),
        _server_config(),
        num_shards=0,
        remote_shards=[("127.0.0.1", port) for port in ports],
        respawn_limit=1,
        connect_timeout_s=2.0,
    )
    try:
        pool.wait_ready()
        burst_s = _run_burst(
            [
                lambda epsilon=epsilon: pool.build_forest(
                    PRIVACY_LEVEL, DELTA, epsilon=epsilon
                )
                for epsilon in MIXED_EPSILONS
            ]
        )
        routing = {
            f"{epsilon:g}": pool.shard_for(PRIVACY_LEVEL, DELTA, epsilon=epsilon)
            for epsilon in MIXED_EPSILONS
        }
        victim = pool.shard_for(PRIVACY_LEVEL, DELTA, epsilon=MIXED_EPSILONS[0])
        victim_keys = [
            epsilon for epsilon, slot in zip(MIXED_EPSILONS, routing.values())
            if slot == victim
        ]
        assert len(victim_keys) >= 2, "need at least two victim-homed keys to time"
        processes[victim].kill()
        wait_until(
            lambda: pool.shard_states()[victim]["state"] == "dead",
            timeout_s=60,
            message="the SIGKILLed socket shard to be declared dead",
        )
        # The crash handler replays the victim's hot-key ledger to the
        # surviving socket shard in the background; wait for the pre-warm
        # to land so the timed path below is the *warm* failover latency
        # (deterministic), not a race against the replay thread.
        wait_until(
            lambda: pool.cache_diagnostics().get("handoff_prewarms", 0)
            >= len(victim_keys),
            timeout_s=60,
            message="the hot-key ledger replay to pre-warm the sibling",
        )
        failover_latencies = []
        for epsilon in victim_keys:
            start = time.perf_counter()
            pool.build_forest(PRIVACY_LEVEL, DELTA, epsilon=epsilon)
            failover_latencies.append(time.perf_counter() - start)
        pool_stats = pool.pool_stats()
        shard_states = pool.shard_states()
    finally:
        pool.close()
        for process in processes:
            if process.is_alive():
                process.kill()
            process.join(timeout=10)

    failover_p50 = statistics.median(failover_latencies)
    payload = {
        "workload": {
            "tree_height": TREE_HEIGHT,
            "privacy_level": PRIVACY_LEVEL,
            "delta": DELTA,
            "robust_iterations": ITERATIONS,
            "distinct_epsilons": list(MIXED_EPSILONS),
            "num_socket_shards": 2,
            "victim_keys": victim_keys,
        },
        "burst_wall_s": burst_s,
        "throughput_rps": len(MIXED_EPSILONS) / burst_s if burst_s else float("inf"),
        "failover_latency_s": {
            "p50": failover_p50,
            "per_key": failover_latencies,
            "mode": "warm (hot-key ledger replayed to the sibling)",
        },
        "shard_routing": routing,
        "pool_stats": pool_stats,
        "reconnects": [info.get("reconnects", 0) for info in shard_states],
    }
    _update_results("netshard", payload)
    print(json.dumps({"burst_wall_s": burst_s, "failover_p50": failover_p50}, indent=2))

    # Acceptance: the ring spread the burst over both socket shards, nothing
    # was lost to the kill, and the post-crash pre-warm made failover a
    # cache hit, not an LP campaign (nor a liveness-timeout stall).
    assert len(set(routing.values())) == 2
    assert pool_stats["warm_failovers"] >= 1
    assert failover_p50 < 30.0, payload["failover_latency_s"]


@pytest.mark.perf
def test_perf_service_gateway():
    """Push vs. poll freshness after an invalidation, through real sockets.

    Both sides pay the same rebuild; the difference under measurement is the
    *delivery* model.  The poller sleeps a fixed interval between
    re-requests (the pre-gateway client pattern), so its freshness latency
    is quantized to the polling cadence.  The gateway subscriber holds one
    connection and the refreshed matrix is pushed the moment the
    invalidation-triggered rebuild settles.
    """
    rounds = 7
    poll_interval_s = 0.05

    # Poll baseline: its own service, no gateway attached — the client
    # re-requests until the rebuilt forest replaces the invalidated one.
    poll_service = CORGIService(
        _build_engine(), ServiceConfig(max_in_flight=2, max_queue_depth=32)
    )
    poll_latencies: List[float] = []
    for _ in range(rounds):
        before = poll_service.generate_privacy_forest(PRIVACY_LEVEL, DELTA)
        begin = time.perf_counter()
        poll_service.invalidate(privacy_level=PRIVACY_LEVEL)
        while True:
            time.sleep(poll_interval_s)
            if poll_service.generate_privacy_forest(PRIVACY_LEVEL, DELTA) is not before:
                break
        poll_latencies.append(time.perf_counter() - begin)

    # Push path: one held connection; measure invalidate -> pushed matrix.
    push_service = CORGIService(
        _build_engine(), ServiceConfig(max_in_flight=2, max_queue_depth=32)
    )
    push_latencies: List[float] = []
    with GatewayServer(push_service, GatewayConfig(heartbeat_interval_s=30.0)) as gateway:
        client = GatewayClient(gateway.host, gateway.port)
        try:
            key = client.subscribe(PRIVACY_LEVEL, DELTA, wait_s=30.0)
            client.wait_forest(key, min_generation=1, timeout_s=120)
            for _ in range(rounds):
                base = client.held(key).generation
                begin = time.perf_counter()
                push_service.invalidate(privacy_level=PRIVACY_LEVEL)
                client.wait_forest(key, min_generation=base + 1, timeout_s=120)
                push_latencies.append(time.perf_counter() - begin)
            counters = {
                name: push_service.metrics.count(name)
                for name in ("gateway_pushes", "gateway_evicted_slow")
            }
        finally:
            client.close()

    push_p50 = statistics.median(push_latencies)
    poll_p50 = statistics.median(poll_latencies)
    payload = {
        "workload": {
            "tree_height": TREE_HEIGHT,
            "privacy_level": PRIVACY_LEVEL,
            "epsilon": EPSILON,
            "delta": DELTA,
            "robust_iterations": ITERATIONS,
            "rounds": rounds,
            "poll_interval_s": poll_interval_s,
        },
        "push_latency_s": {
            "p50": push_p50,
            "max": max(push_latencies),
        },
        "poll_latency_s": {
            "p50": poll_p50,
            "max": max(poll_latencies),
        },
        "push_vs_poll_speedup": poll_p50 / push_p50 if push_p50 else float("inf"),
        "gateway_counters": counters,
    }
    _update_results("gateway", payload)
    print(json.dumps({k: payload[k] for k in ("push_latency_s", "poll_latency_s")}, indent=2))
    print("push vs poll speedup:", payload["push_vs_poll_speedup"])

    # Acceptance: every round was delivered by push (no eviction), and
    # pushed freshness beats polled freshness.
    assert counters["gateway_evicted_slow"] == 0
    assert push_p50 < poll_p50, payload


@pytest.mark.perf
def test_perf_service_replication(tmp_path):
    """Control-plane propagation: publish on the primary -> applied on a
    follower, through the real log-shipping socket.

    Measures the end-to-end replication latency of one ``publish_priors``:
    WAL append + fsync on the primary, frame over the wire, local durable
    commit (store-and-forward) and tree/shard apply on the follower.  The
    p50 is gated — a regression here means every follower in a fleet
    serves stale priors for longer after each publish.
    """
    rounds = 10
    primary = EnginePool(
        _build_tree(),
        _server_config(),
        state_dir=tmp_path / "primary",
        num_shards=2,
        replication_port=0,
    )
    primary.wait_ready()
    follower = EnginePool(
        _build_tree(),
        _server_config(),
        state_dir=tmp_path / "follower",
        num_shards=2,
        replicate_from=f"127.0.0.1:{primary._replication_server.port}",
    )
    follower.wait_ready()

    def follower_cursor() -> int:
        info = follower.durability_diagnostics().get("replication") or {}
        return int(info.get("cursor", 0))

    try:
        wait_until(
            lambda: (follower.durability_diagnostics()["replication"] or {}).get(
                "connected", False
            ),
            timeout_s=60,
            message="follower subscribed to the primary",
        )
        leaves = sorted(str(leaf.node_id) for leaf in primary.tree.leaves())
        propagation_latencies: List[float] = []
        for round_index in range(rounds):
            priors = {
                leaf: (2.0 + round_index if position == 0 else 1.0)
                for position, leaf in enumerate(leaves)
            }
            begin = time.perf_counter()
            primary.publish_priors(priors, normalize=True)
            version = primary.priors_version
            wait_until(
                lambda: follower_cursor() >= version,
                timeout_s=60,
                message=f"follower to apply replicated version {version}",
            )
            propagation_latencies.append(time.perf_counter() - begin)
        follower_info = follower.durability_diagnostics()["replication"]
        primary_info = primary.durability_diagnostics()["replication"]
    finally:
        follower.close()
        primary.close()

    propagation_p50 = statistics.median(propagation_latencies)
    payload = {
        "workload": {
            "tree_height": TREE_HEIGHT,
            "rounds": rounds,
            "num_shards": 2,
            "followers": 1,
        },
        "propagation_s": {
            "p50": propagation_p50,
            "max": max(propagation_latencies),
        },
        "follower_counters": {
            name: follower_info[name]
            for name in ("records_applied", "records_skipped", "apply_errors", "resets")
        },
        "primary_counters": {
            name: primary_info[name]
            for name in ("records_streamed", "evictions", "rejects")
        },
    }
    _update_results("replication", payload)
    print(json.dumps({"propagation_s": payload["propagation_s"]}, indent=2))

    # Acceptance: every publish propagated (no errors, no resets) and the
    # follower applied exactly one record per round.
    assert follower_info["apply_errors"] == 0
    assert follower_info["resets"] == 0
    assert follower_info["records_applied"] == rounds
