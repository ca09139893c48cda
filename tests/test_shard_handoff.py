"""Failover scenario tests: warm shard hand-off and graceful drain.

Covers the ISSUE acceptance surface for the hand-off protocol:

* **graceful drain** — under a live mixed-key burst, draining a shard
  loses no requests, and afterwards the shard's ring sibling serves the
  drained shard's hot keys from its forest cache (snapshot import), not
  via cold rebuilds;
* **SIGKILL warm failover** — killing a worker mid-burst loses no
  requests, and the pool replays the dead slot's hot-key ledger to the
  sibling so its keys are pre-warmed there;
* **determinism** — a drained-then-respawned pool keeps returning
  responses byte-identical to a single-process engine;
* **hygiene** — expired-TTL entries are excluded from snapshots at export
  time, imports preserve remaining TTL, and foreign-topology payloads are
  rebuilt instead of mis-served;
* **admin surface** — ``POST /admin/drain`` answers structured 4xx (never
  500) for bad slot ids, and ``HTTPTransport.drain`` propagates typed
  errors like the existing ``invalidate`` helper.

All synchronization goes through the conftest helpers (``run_burst``,
``wait_until``) — no ad-hoc sleeps.
"""

import copy
import json
import threading
import urllib.error
import urllib.request

import pytest

from helpers_concurrency import run_burst, wait_until
from repro.client.transport import HTTPTransport, TransportError
from repro.server.engine import ForestEngine, ServerConfig
from repro.server.messages import ObfuscationRequest
from repro.service.handoff import CacheSnapshot, SnapshotEntry, encode_snapshot
from repro.service.http import CORGIHTTPServer
from repro.service.metrics import ServiceMetrics
from repro.service.pool import EnginePool, EnginePoolError, PoolTimeoutError
from repro.service.service import CORGIService

#: Fast engine settings shared by every pool in this module.
POOL_CONFIG = dict(epsilon=2.0, num_targets=5, robust_iterations=1)

#: The mixed-key workload: six distinct (level, delta) keys so both shards
#: of a 2-shard pool own some of them.
MIXED_KEYS = [(level, delta) for level in (0, 1) for delta in (0, 1, 2)]


@pytest.fixture()
def pool_tree(small_tree_with_priors):
    """A private copy of the priors-annotated tree (pools may mutate priors)."""
    return copy.deepcopy(small_tree_with_priors)


def victim_and_keys(pool):
    """A shard slot that homes at least one mixed key, plus its keys."""
    victim = pool.shard_for(*MIXED_KEYS[0])
    keys = [key for key in MIXED_KEYS if pool.shard_for(*key) == victim]
    assert keys, "ring routing must home at least one mixed key on the victim"
    return victim, keys


# --------------------------------------------------------------------- #
# Graceful drain
# --------------------------------------------------------------------- #


class TestGracefulDrain:
    def test_drain_hands_off_cache_to_sibling(self, pool_tree):
        """Acceptance: after a drain, the sibling serves the drained shard's
        hot keys from its forest cache — imports, not cold rebuilds."""
        with EnginePool(pool_tree, ServerConfig(**POOL_CONFIG), num_shards=2) as pool:
            victim, victim_keys = victim_and_keys(pool)
            for level, delta in MIXED_KEYS:
                pool.build_forest(level, delta)

            report = pool.drain(victim)

            assert report["slot"] == victim
            assert report["exported"] == len(victim_keys)
            assert report["handoff_keys"] == len(victim_keys)
            assert report["payloads"] == len(victim_keys)  # all fit the budget
            assert report["imported"] == len(victim_keys)
            assert report["prewarmed"] == 0
            assert pool.shard_states()[victim]["state"] == "drained"

            # Every drained hot key is now a forest-cache hit on the sibling.
            for level, delta in victim_keys:
                _, cached = pool.build_forest_traced(level, delta)
                assert cached, f"key {(level, delta)} cold-built after drain"

            stats = pool.pool_stats()
            assert stats["drains"] == 1
            assert stats["handoffs"] == len(victim_keys)
            assert stats["crash_failures"] == 0
            diagnostics = pool.cache_diagnostics()
            assert diagnostics["handoff_imports"] == len(victim_keys)

    def test_drain_mid_burst_loses_no_requests(self, pool_tree):
        """Acceptance: draining a shard under a live mixed-key burst — every
        request completes exactly once; nothing is lost to the drain."""
        pool = EnginePool(
            pool_tree,
            ServerConfig(**POOL_CONFIG),
            num_shards=2,
            chaos_build_delay_s=0.2,
        )
        try:
            pool.wait_ready()
            victim, victim_keys = victim_and_keys(pool)
            drain_report = {}

            def drainer():
                wait_until(
                    lambda: pool.shard_states()[victim]["in_flight"] > 0,
                    timeout_s=30,
                    message=f"shard {victim} to have work in flight",
                )
                drain_report.update(pool.drain(victim))

            drain_thread = threading.Thread(target=drainer, daemon=True)
            drain_thread.start()
            outcome = run_burst(
                [
                    lambda level=level, delta=delta: pool.build_forest(level, delta)
                    for level, delta in MIXED_KEYS
                ],
                timeout_s=120,
            )
            drain_thread.join(timeout=60)
            assert not drain_thread.is_alive(), "drain did not complete"
            outcome.raise_errors()
            assert len(outcome.results) == len(MIXED_KEYS)
            assert all(forest is not None for forest in outcome.results)

            assert pool.shard_states()[victim]["state"] == "drained"
            assert pool.pool_stats()["crash_failures"] == 0
            # The victim's keys keep being served — warm where the hand-off
            # delivered them, and from cache either way on the next request.
            for level, delta in victim_keys:
                _, cached = pool.build_forest_traced(level, delta)
                assert cached
        finally:
            pool.close()

    def test_drained_then_respawned_pool_byte_identical(
        self, pool_tree, small_tree_with_priors
    ):
        """Acceptance: drain + respawn is invisible in the response bytes."""
        with EnginePool(pool_tree, ServerConfig(**POOL_CONFIG), num_shards=2) as pool:
            victim, _ = victim_and_keys(pool)
            for level, delta in MIXED_KEYS:
                pool.build_forest(level, delta)
            pool.drain(victim)
            pool.respawn(victim)
            pool.wait_ready()
            assert pool.shard_states()[victim]["state"] == "ready"

            engine = ForestEngine(small_tree_with_priors, ServerConfig(**POOL_CONFIG))
            for level, delta in MIXED_KEYS:
                request = ObfuscationRequest(privacy_level=level, delta=delta)
                pooled = CORGIService(pool).handle(request)
                single = CORGIService(engine).handle(request)
                assert json.dumps(pooled.to_dict(), sort_keys=True) == json.dumps(
                    single.to_dict(), sort_keys=True
                )

    def test_drain_without_live_sibling_retires_cold(self, pool_tree):
        """A single-shard drain has nowhere to hand off: entries are dropped,
        the slot retires cleanly, and respawn revives the pool."""
        pool = EnginePool(pool_tree, ServerConfig(**POOL_CONFIG), num_shards=1)
        try:
            pool.wait_ready()
            pool.build_forest(1, 1)
            report = pool.drain(0)
            assert report["exported"] == 1
            assert report["handoff_keys"] == 0
            assert report["dropped"] == 1
            with pytest.raises(EnginePoolError):
                pool.build_forest(1, 0)
            pool.respawn(0)
            pool.wait_ready()
            assert pool.build_forest(1, 0) is not None
        finally:
            pool.close()

    def test_drain_rejects_bad_slots(self, pool_tree):
        with EnginePool(pool_tree, ServerConfig(**POOL_CONFIG), num_shards=2) as pool:
            for bad in ("wat", -1, 99, None, True, 1.5, [1], {}):
                with pytest.raises((ValueError, TypeError)):
                    pool.drain(bad)

    def test_double_drain_rejected(self, pool_tree):
        with EnginePool(pool_tree, ServerConfig(**POOL_CONFIG), num_shards=2) as pool:
            victim, _ = victim_and_keys(pool)
            pool.drain(victim)
            with pytest.raises(ValueError, match="only a ready shard"):
                pool.drain(victim)

    def test_failed_drain_rolls_back_to_ready(self, pool_tree):
        """Regression: a drain that times out while work is in flight must
        return the slot to READY (not strand it in DRAINING forever) — and
        a later drain must still succeed."""
        pool = EnginePool(
            pool_tree,
            ServerConfig(**POOL_CONFIG),
            num_shards=2,
            chaos_build_delay_s=0.5,
        )
        try:
            pool.wait_ready()
            victim, victim_keys = victim_and_keys(pool)
            level, delta = victim_keys[0]
            builder = threading.Thread(
                target=lambda: pool.build_forest(level, delta), daemon=True
            )
            builder.start()
            wait_until(
                lambda: pool.shard_states()[victim]["in_flight"] > 0,
                timeout_s=30,
                message=f"shard {victim} to have work in flight",
            )
            with pytest.raises(PoolTimeoutError):
                pool.drain(victim, timeout_s=0.05)
            assert pool.shard_states()[victim]["state"] == "ready"
            builder.join(timeout=60)
            # The slot kept serving, and a patient drain now completes.
            assert pool.build_forest(level, delta) is not None
            report = pool.drain(victim)
            assert report["slot"] == victim
            assert pool.shard_states()[victim]["state"] == "drained"
        finally:
            pool.close()

    def test_respawn_requires_drained_slot(self, pool_tree):
        with EnginePool(pool_tree, ServerConfig(**POOL_CONFIG), num_shards=2) as pool:
            with pytest.raises(ValueError, match="only a drained slot"):
                pool.respawn(0)

    def test_rebalance_respawns_and_rehomes(self, pool_tree):
        """After drain + rebalance, the revived home shard holds its keys
        again (imported, so the next request is a cache hit served at home)."""
        with EnginePool(pool_tree, ServerConfig(**POOL_CONFIG), num_shards=2) as pool:
            victim, victim_keys = victim_and_keys(pool)
            for level, delta in MIXED_KEYS:
                pool.build_forest(level, delta)
            pool.drain(victim)

            summary = pool.rebalance()

            assert summary["respawned"] == 1
            assert summary["moved_keys"] >= len(victim_keys)
            assert pool.shard_states()[victim]["state"] == "ready"
            dispatched_before = pool.shard_states()[victim]["dispatched"]
            for level, delta in victim_keys:
                _, cached = pool.build_forest_traced(level, delta)
                assert cached
            # ...and those hits were served by the revived home shard.
            assert (
                pool.shard_states()[victim]["dispatched"]
                >= dispatched_before + len(victim_keys)
            )


# --------------------------------------------------------------------- #
# SIGKILL warm failover
# --------------------------------------------------------------------- #


class TestSigkillWarmFailover:
    def test_sigkill_prewarms_sibling(self, pool_tree):
        """Acceptance: after a SIGKILL, the collector replays the dead
        slot's hot-key ledger — its keys become forest-cache hits on the
        sibling without any client request paying for the rebuild."""
        pool = EnginePool(
            pool_tree, ServerConfig(**POOL_CONFIG), num_shards=2, respawn_limit=0
        )
        try:
            pool.wait_ready()
            victim, victim_keys = victim_and_keys(pool)
            for level, delta in MIXED_KEYS:
                pool.build_forest(level, delta)
            assert len(pool.hot_keys(victim)) == len(victim_keys)

            pool._shards[victim].process.kill()
            wait_until(
                lambda: pool.pool_stats()["warm_failovers"] >= 1,
                timeout_s=60,
                message="the hot-key ledger to be replayed to the sibling",
            )
            assert pool.shard_states()[victim]["state"] == "dead"

            for level, delta in victim_keys:
                _, cached = pool.build_forest_traced(level, delta)
                assert cached, f"key {(level, delta)} cold-built after SIGKILL"
            stats = pool.pool_stats()
            assert stats["handoffs"] >= len(victim_keys)
            assert stats["handoff_prewarms"] >= len(victim_keys)
        finally:
            pool.close()

    def test_sigkill_mid_burst_loses_no_requests_then_serves_warm(self, pool_tree):
        """Acceptance: SIGKILL under a live mixed-key burst — zero lost
        requests (retry on the ring sibling), and once recovery settles the
        dead shard's hot keys are cache hits on the sibling."""
        pool = EnginePool(
            pool_tree,
            ServerConfig(**POOL_CONFIG),
            num_shards=2,
            respawn_limit=0,
            chaos_build_delay_s=0.25,
        )
        try:
            pool.wait_ready()
            victim, victim_keys = victim_and_keys(pool)

            def assassin():
                wait_until(
                    lambda: pool.shard_states()[victim]["in_flight"] > 0,
                    timeout_s=30,
                    message=f"shard {victim} to have work in flight",
                )
                pool._shards[victim].process.kill()

            killer = threading.Thread(target=assassin, daemon=True)
            killer.start()
            outcome = run_burst(
                [
                    lambda level=level, delta=delta: pool.build_forest(level, delta)
                    for level, delta in MIXED_KEYS
                ],
                timeout_s=120,
            )
            killer.join(timeout=30)
            outcome.raise_errors()
            assert len(outcome.results) == len(MIXED_KEYS)
            assert all(forest is not None for forest in outcome.results)
            assert pool.pool_stats()["crash_failures"] >= 1

            wait_until(
                lambda: pool.shard_states()[victim]["state"] == "dead",
                timeout_s=30,
                message="the victim slot to be declared dead",
            )
            # Whether a key arrived via ledger replay or via the burst's own
            # failover retry, the sibling now serves it from cache.
            for level, delta in victim_keys:
                _, cached = pool.build_forest_traced(level, delta)
                assert cached
        finally:
            pool.close()


# --------------------------------------------------------------------- #
# Snapshot hygiene: TTL at export/import, topology guard
# --------------------------------------------------------------------- #


class TestSnapshotHygiene:
    def make_engine(self, tree, ttl):
        clock = {"now": 0.0}
        engine = ForestEngine(
            tree,
            ServerConfig(forest_ttl_s=ttl, **POOL_CONFIG),
            clock=lambda: clock["now"],
        )
        return engine, clock

    def test_expired_entries_excluded_from_export(self, small_tree_with_priors):
        """Regression (ISSUE fix): expiry is lazy, so an expired entry still
        sits in the cache dict — it must never be exported."""
        engine, clock = self.make_engine(small_tree_with_priors, ttl=10.0)
        engine.build_forest_traced(1, 0)
        clock["now"] = 6.0
        engine.build_forest_traced(1, 1)
        # Both entries are in the raw dict; the first is past its TTL now.
        clock["now"] = 11.0
        assert len(engine._forest_cache) == 2  # lazy expiry: still present
        entries = engine.export_cache_entries(payload_budget_bytes=1 << 20)
        assert [(entry["privacy_level"], entry["delta"]) for entry in entries] == [(1, 1)]
        remaining = entries[0]["ttl_remaining_s"]
        assert remaining == pytest.approx(5.0)

    def test_export_without_ttl_ships_no_deadline(self, small_tree_with_priors):
        engine, _ = self.make_engine(small_tree_with_priors, ttl=0.0)
        engine.build_forest_traced(1, 1)
        (entry,) = engine.export_cache_entries(payload_budget_bytes=1 << 20)
        assert entry["ttl_remaining_s"] is None
        assert entry["matrices"] is not None

    def test_payload_budget_degrades_to_key_only(self, small_tree_with_priors):
        engine, _ = self.make_engine(small_tree_with_priors, ttl=0.0)
        engine.build_forest_traced(1, 0)
        engine.build_forest_traced(1, 1)
        entries = engine.export_cache_entries(payload_budget_bytes=0)
        assert len(entries) == 2
        assert all(entry["matrices"] is None for entry in entries)

    def test_import_preserves_remaining_ttl(self, small_tree_with_priors):
        source, _ = self.make_engine(small_tree_with_priors, ttl=10.0)
        forest, _ = source.build_forest_traced(1, 1)
        sink, clock = self.make_engine(copy.deepcopy(small_tree_with_priors), ttl=10.0)
        outcome = sink.import_cache_entry(
            1, 1, POOL_CONFIG["epsilon"],
            matrices={root_id: matrix for root_id, matrix in forest},
            ttl_remaining_s=3.0,
        )
        assert outcome == "imported"
        clock["now"] = 2.0
        _, cached = sink.build_forest_traced(1, 1)
        assert cached  # 1 s of imported life left
        clock["now"] = 4.0
        _, cached = sink.build_forest_traced(1, 1)
        assert not cached  # the imported 3 s are gone, not a fresh 10 s

    def test_import_skips_entries_expired_in_transit(self, small_tree_with_priors):
        engine, _ = self.make_engine(small_tree_with_priors, ttl=10.0)
        assert engine.import_cache_entry(1, 1, 2.0, ttl_remaining_s=0.0) == "skipped"
        assert engine.import_cache_entry(99, 1, 2.0) == "skipped"

    def test_worker_rejects_stale_priors_payload(self, small_tree_with_priors):
        """Regression: the *worker* compares the snapshot's priors version
        against its own at import time — a payload stamped with another
        generation is pre-warmed (rebuilt), never installed, even if the
        pool-side check raced a publish."""
        from repro.service.shard import ShardOpExecutor, ShardSpec

        spec = ShardSpec(
            shard_id=0,
            tree=copy.deepcopy(small_tree_with_priors),
            config=ServerConfig(**POOL_CONFIG),
            priors_version=5,
        )
        executor = ShardOpExecutor(spec)
        reference = ForestEngine(
            copy.deepcopy(small_tree_with_priors), ServerConfig(**POOL_CONFIG)
        )
        forest, _ = reference.build_forest_traced(1, 1)
        entry = SnapshotEntry(
            privacy_level=1,
            delta=1,
            epsilon=POOL_CONFIG["epsilon"],
            matrices=dict(forest),
        )

        def import_with_version(version):
            blob = encode_snapshot(
                CacheSnapshot(shard_slot=1, priors_version=version, entries=(entry,))
            )
            return executor.execute("import_cache", blob)

        skewed = import_with_version(version=4)  # != the worker's 5
        assert skewed == {"imported": 0, "prewarmed": 1, "skipped": 0}
        matching = import_with_version(version=5)
        assert matching["imported"] == 1

    def test_import_foreign_topology_rebuilds(self, small_tree_with_priors):
        """A payload whose sub-tree roots don't match this tree must be
        rebuilt, never installed (replica-mismatch guard)."""
        engine, _ = self.make_engine(small_tree_with_priors, ttl=0.0)
        forest, _ = engine.build_forest_traced(1, 1)
        matrices = {f"alien-{index}": matrix for index, (_, matrix) in enumerate(forest)}
        engine.invalidate()
        outcome = engine.import_cache_entry(1, 1, POOL_CONFIG["epsilon"], matrices=matrices)
        assert outcome == "prewarmed"
        _, cached = engine.build_forest_traced(1, 1)
        assert cached  # the rebuild warmed the cache under the local key


# --------------------------------------------------------------------- #
# Service surface and metrics
# --------------------------------------------------------------------- #


class TestServiceSurface:
    def test_metrics_grow_handoff_counters(self):
        snapshot = ServiceMetrics().snapshot()
        for name in ("drains", "handoffs", "warm_failovers"):
            assert snapshot[name] == 0
        metrics = ServiceMetrics()
        metrics.increment("warm_failovers")
        assert metrics.snapshot()["warm_failovers"] == 1

    def test_service_drain_mirrors_pool_counters(self, pool_tree):
        with EnginePool(pool_tree, ServerConfig(**POOL_CONFIG), num_shards=2) as pool:
            service = CORGIService(pool)
            victim, victim_keys = victim_and_keys(pool)
            for level, delta in MIXED_KEYS:
                pool.build_forest(level, delta)
            report = service.drain(victim)
            assert report["slot"] == victim
            snapshot = service.snapshot()
            assert snapshot["service"]["drains"] == 1
            assert snapshot["service"]["handoffs"] == len(victim_keys)
            assert snapshot["service"]["warm_failovers"] == 0
            assert snapshot["engine"]["pool"]["drains"] == 1
            assert service.diagnostics()["handoff_imports"] == len(victim_keys)

    def test_service_drain_requires_pool(self, small_tree_with_priors):
        service = CORGIService(
            ForestEngine(small_tree_with_priors, ServerConfig(**POOL_CONFIG))
        )
        with pytest.raises(ValueError, match="no shard slots"):
            service.drain(0)


# --------------------------------------------------------------------- #
# HTTP admin surface
# --------------------------------------------------------------------- #


def _post_status(url: str, body: object) -> int:
    """POST arbitrary JSON; return the HTTP status (errors included)."""
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status
    except urllib.error.HTTPError as error:
        return error.code


class TestAdminDrainHTTP:
    def test_drain_over_the_wire(self, pool_tree):
        with EnginePool(pool_tree, ServerConfig(**POOL_CONFIG), num_shards=2) as pool:
            victim, victim_keys = victim_and_keys(pool)
            service = CORGIService(pool)
            with CORGIHTTPServer(service, port=0) as server:
                transport = HTTPTransport(server.url)
                for level, delta in MIXED_KEYS:
                    transport.fetch_forest(
                        ObfuscationRequest(privacy_level=level, delta=delta)
                    )
                report = transport.drain(victim)
                assert report["slot"] == victim
                assert report["handoff_keys"] == len(victim_keys)
                metrics = transport.metrics()
                assert metrics["service"]["drains"] == 1
                assert metrics["service"]["handoffs"] == len(victim_keys)

    def test_bad_slots_are_structured_4xx_never_500(self, pool_tree):
        """Acceptance: every malformed drain request is a client-class
        answer with a structured body — the error mapping has no 500 hole."""
        with EnginePool(pool_tree, ServerConfig(**POOL_CONFIG), num_shards=2) as pool:
            service = CORGIService(pool)
            with CORGIHTTPServer(service, port=0) as server:
                url = server.url + "/admin/drain"
                bad_bodies = [
                    {},
                    {"slot": "wat"},
                    {"slot": -1},
                    {"slot": 99},
                    {"slot": None},
                    {"slot": True},
                    {"slot": 1.5},
                    {"slot": [1]},
                    {"slot": {"nested": 1}},
                    [],
                    "just a string",
                    42,
                ]
                for body in bad_bodies:
                    status = _post_status(url, body)
                    assert 400 <= status < 500, f"status {status} for body {body!r}"

    def test_drain_twice_over_the_wire_is_400(self, pool_tree):
        with EnginePool(pool_tree, ServerConfig(**POOL_CONFIG), num_shards=2) as pool:
            victim, _ = victim_and_keys(pool)
            with CORGIHTTPServer(CORGIService(pool), port=0) as server:
                transport = HTTPTransport(server.url)
                transport.drain(victim)
                with pytest.raises(TransportError) as excinfo:
                    transport.drain(victim)
                assert excinfo.value.status == 400
                assert "only a ready shard" in (excinfo.value.detail or "")

    def test_transport_drain_propagates_typed_errors(self, small_tree_with_priors):
        """An engine-backed (non-pool) server answers 400, and the transport
        raises the same typed error shape as ``invalidate``."""
        engine = ForestEngine(small_tree_with_priors, ServerConfig(**POOL_CONFIG))
        with CORGIHTTPServer(CORGIService(engine), port=0) as server:
            transport = HTTPTransport(server.url)
            with pytest.raises(TransportError) as excinfo:
                transport.drain(0)
            assert excinfo.value.status == 400
            assert "no shard slots" in (excinfo.value.detail or "")
            with pytest.raises(TransportError) as excinfo:
                transport.drain("wat")
            assert excinfo.value.status == 400
