"""Tests for the sharded multi-process engine pool.

Covers the ISSUE acceptance surface: deterministic consistent-hash
routing, single-flight coalescing staying effective across shards,
kill-a-worker-mid-burst recovery (no request lost — they complete via
respawn/retry on a sibling), the forest cache's LRU bound and live prior
updates, concurrent builds sharing one engine's LP cache, and
byte-identical forests between pooled and single-process engines.  The
shard lifecycle state machine is unit-tested directly.

All synchronization goes through the conftest helpers (`run_burst`,
`wait_until`) — no ad-hoc sleeps.
"""

import copy
import json
import logging
import multiprocessing
import sys
import threading
import time

import numpy as np
import pytest

from helpers_concurrency import run_burst, wait_until
from repro.server import engine as engine_module
from repro.server.engine import ForestEngine, ServerConfig
from repro.server.messages import ObfuscationRequest
from repro.service.http import CORGIHTTPServer
from repro.service.pool import EnginePool, EnginePoolError
from repro.service.service import CORGIService
from repro.service.shard import ShardHandle, ShardState, legal_transition
from repro.tree.priors import priors_from_checkins

#: Fast engine settings shared by every pool in this module.
POOL_CONFIG = dict(epsilon=2.0, num_targets=5, robust_iterations=1)


@pytest.fixture()
def pool_tree(small_tree_with_priors):
    """A private copy of the priors-annotated tree (pools may mutate priors)."""
    return copy.deepcopy(small_tree_with_priors)


@pytest.fixture()
def pool(pool_tree):
    with EnginePool(pool_tree, ServerConfig(**POOL_CONFIG), num_shards=2) as pool:
        yield pool


# --------------------------------------------------------------------- #
# Shard lifecycle state machine
# --------------------------------------------------------------------- #


class TestShardLifecycle:
    def test_transition_graph(self):
        assert legal_transition(ShardState.STARTING, ShardState.READY)
        assert legal_transition(ShardState.READY, ShardState.CRASHED)
        assert legal_transition(ShardState.CRASHED, ShardState.STARTING)
        assert legal_transition(ShardState.CRASHED, ShardState.DEAD)
        assert not legal_transition(ShardState.READY, ShardState.STARTING)
        assert not legal_transition(ShardState.DEAD, ShardState.STARTING)
        assert not legal_transition(ShardState.STOPPED, ShardState.READY)

    def test_illegal_transition_raises(self):
        handle = ShardHandle(slot=0)
        handle.transition(ShardState.READY)
        with pytest.raises(RuntimeError, match="illegal shard transition"):
            handle.transition(ShardState.READY)

    def test_ready_event_follows_state(self):
        handle = ShardHandle(slot=0)
        assert not handle.ready_event.is_set()
        handle.transition(ShardState.READY)
        assert handle.ready_event.is_set()
        handle.transition(ShardState.CRASHED)
        assert not handle.ready_event.is_set()


# --------------------------------------------------------------------- #
# Routing determinism
# --------------------------------------------------------------------- #


class TestRouting:
    def test_route_is_deterministic_and_complete(self, pool):
        key = (1, 1, 2.0)
        order = pool.route_key(key)
        assert order == pool.route_key(key)
        assert sorted(order) == list(range(pool.num_shards))

    def test_route_matches_fresh_ring(self, pool, pool_tree):
        """Routing depends only on (key, num_shards) — not on pool identity."""
        with EnginePool(
            copy.deepcopy(pool_tree), ServerConfig(**POOL_CONFIG), num_shards=2
        ) as other:
            for key in [(0, 0, 2.0), (1, 0, 2.0), (1, 1, 2.0), (1, 2, 17.5)]:
                assert pool.route_key(key) == other.route_key(key)

    def test_default_epsilon_resolution(self, pool):
        assert pool.shard_for(1, 1) == pool.shard_for(1, 1, epsilon=2.0)

    def test_identical_requests_land_on_home_shard(self, pool):
        home = pool.shard_for(1, 1)
        for _ in range(3):
            pool.build_forest(1, 1)
        info = pool.shard_states()[home]
        assert info["dispatched"] >= 3
        sibling = pool.shard_states()[1 - home]
        assert sibling["dispatched"] == 0

    def test_distinct_keys_spread(self, pool):
        keys = [(level, delta, 2.0) for level in (0, 1) for delta in (0, 1, 2)]
        slots = {pool.route_key(key)[0] for key in keys}
        assert len(slots) > 1


# --------------------------------------------------------------------- #
# Coalescing across shards / service integration
# --------------------------------------------------------------------- #


class TestServiceOverPool:
    def test_burst_of_identical_requests_builds_once(self, pool):
        service = CORGIService(pool)
        outcome = run_burst(
            lambda: service.generate_privacy_forest(1, 1), count=6
        ).raise_errors()
        assert all(forest is outcome.results[0] for forest in outcome.results)
        assert service.metrics.count("engine_builds") == 1
        assert service.metrics.count("coalesced") == 5
        # Exactly one shard saw the one build.
        dispatched = [info["dispatched"] for info in pool.shard_states()]
        assert sorted(dispatched) == [0, 1]

    def test_snapshot_reports_pool_diagnostics(self, pool, pool_tree):
        service = CORGIService(pool)
        service.generate_privacy_forest(1, 0)
        snapshot = service.snapshot()
        assert snapshot["engine"]["pool"]["num_shards"] == 2
        assert snapshot["engine"]["forest_entries"] == 1
        assert snapshot["gauges"] == {"pending_leaders": 0, "inflight_keys": 0}

        # The pool's merge keeps the engine's shape: after the same builds,
        # every key path of one engine's diagnostics exists in the pool's,
        # and each hit rate is still hits / (hits + misses).
        engine = ForestEngine(copy.deepcopy(pool_tree), ServerConfig(**POOL_CONFIG))
        for level, delta in [(1, 0), (1, 0), (1, 1)]:
            engine.build_forest(level, delta)
        for level, delta in [(1, 0), (1, 1)]:  # the service built (1, 0) once above
            pool.build_forest(level, delta)

        def key_paths(report, prefix=()):
            for name, value in report.items():
                yield prefix + (name,)
                if isinstance(value, dict):
                    yield from key_paths(value, prefix + (name,))

        merged = pool.cache_diagnostics()
        assert set(key_paths(engine.cache_diagnostics())) - set(key_paths(merged)) == set()
        rates = [value for name, value in merged.items() if name.endswith("_stats")]
        assert len(rates) == 2  # forest_stats and lp_stats
        for stats in rates:
            assert stats["hits"] + stats["misses"] > 0
            assert stats["hit_rate"] == stats["hits"] / (stats["hits"] + stats["misses"])

    def test_diagnostics_with_no_answering_shard_omit_engine_counters(self, pool_tree):
        """No report is not a cold pool: with every slot drained, the merged
        engine counters are absent rather than zero."""
        with EnginePool(pool_tree, ServerConfig(**POOL_CONFIG), num_shards=1) as pool:
            pool.build_forest(1, 0)
            pool.drain(0)
            diagnostics = pool.cache_diagnostics()
        assert diagnostics["pool"]["shards_reporting"] == []
        assert diagnostics["pool"]["drains"] == 1
        for name in ("forest_entries", "forest_stats", "lp_stats", "structure_sharing", "solver"):
            assert name not in diagnostics

    def test_pooled_and_single_process_forests_byte_identical(
        self, pool, small_tree_with_priors
    ):
        """Acceptance: the pool is invisible in the response bytes."""
        engine = ForestEngine(small_tree_with_priors, ServerConfig(**POOL_CONFIG))
        request = ObfuscationRequest(privacy_level=1, delta=1)
        pooled = CORGIService(pool).handle(request)
        single = CORGIService(engine).handle(request)
        assert json.dumps(pooled.to_dict(), sort_keys=True) == json.dumps(
            single.to_dict(), sort_keys=True
        )

    def test_request_errors_propagate(self, pool):
        with pytest.raises(ValueError):
            pool.build_forest(1, -1)
        with pytest.raises(ValueError):
            pool.build_forest(9, 0)


# --------------------------------------------------------------------- #
# Crash recovery: kill a worker mid-burst
# --------------------------------------------------------------------- #


class TestCrashRecovery:
    def test_kill_worker_mid_burst_loses_no_requests(self, pool_tree):
        """Acceptance: a SIGKILLed shard's requests complete via respawn/retry."""
        pool = EnginePool(
            pool_tree,
            ServerConfig(**POOL_CONFIG),
            num_shards=2,
            respawn_limit=3,
            chaos_build_delay_s=0.25,
        )
        try:
            pool.wait_ready()
            requests = [(level, delta) for level in (0, 1) for delta in (0, 1, 2)]
            victim = pool.shard_for(*requests[0])

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
                    for level, delta in requests
                ],
                timeout_s=120,
            )
            killer.join(timeout=30)
            outcome.raise_errors()
            assert all(forest is not None for forest in outcome.results)
            assert len(outcome.results) == len(requests)

            stats = pool.pool_stats()
            assert stats["crash_failures"] >= 1
            assert stats["respawns"] >= 1
            assert stats["retries"] >= 1
            wait_until(
                lambda: all(
                    info["state"] == "ready" for info in pool.shard_states()
                ),
                timeout_s=30,
                message="every shard back to ready",
            )
            # The respawned pool keeps serving.
            assert pool.build_forest(1, 0) is not None
        finally:
            pool.close()

    def test_single_shard_respawn_serves_waiting_request(self, pool_tree):
        """With one shard there is no sibling: the request waits out the respawn."""
        pool = EnginePool(
            pool_tree,
            ServerConfig(**POOL_CONFIG),
            num_shards=1,
            respawn_limit=2,
            chaos_build_delay_s=0.3,
        )
        try:
            pool.wait_ready()

            def assassin():
                wait_until(
                    lambda: pool.shard_states()[0]["in_flight"] > 0,
                    timeout_s=30,
                    message="the only shard to have work in flight",
                )
                pool._shards[0].process.kill()

            killer = threading.Thread(target=assassin, daemon=True)
            killer.start()
            forest = pool.build_forest(1, 1)
            killer.join(timeout=30)
            assert forest is not None
            assert pool.pool_stats()["respawns"] == 1
        finally:
            pool.close()

    def test_respawn_limit_exhaustion_kills_the_pool(self, pool_tree):
        pool = EnginePool(
            pool_tree,
            ServerConfig(**POOL_CONFIG),
            num_shards=1,
            respawn_limit=0,
        )
        try:
            pool.wait_ready()
            pool._shards[0].process.kill()
            wait_until(
                lambda: pool.shard_states()[0]["state"] == "dead",
                timeout_s=30,
                message="slot to be declared dead",
            )
            with pytest.raises(EnginePoolError):
                pool.build_forest(1, 0)
            # Regression: wait_ready notices the known-DEAD slot immediately
            # (no stall for the whole timeout) and reports an unservable
            # pool instead of returning success.
            start = time.monotonic()
            with pytest.raises(EnginePoolError):
                pool.wait_ready(timeout_s=60.0)
            assert time.monotonic() - start < 5.0
        finally:
            pool.close()

    def test_priors_published_during_respawn_reach_the_new_worker(self, pool_tree):
        """Regression: a shard respawned around a live prior update must not
        keep serving pre-update priors — whether the broadcast caught it or
        the READY handler re-sent the update, the post-publish forest must
        match a single-process engine built on the new priors."""
        pool = EnginePool(
            pool_tree, ServerConfig(**POOL_CONFIG), num_shards=1, respawn_limit=3
        )
        try:
            pool.wait_ready()
            pool.build_forest(1, 1)
            pool._shards[0].process.kill()
            # Publish immediately: depending on timing the slot is crashed,
            # respawning or already back — every path must converge.
            new_priors = {
                leaf.node_id: index + 1.0
                for index, leaf in enumerate(pool_tree.leaves())
            }
            pool.publish_priors(new_priors)
            wait_until(
                lambda: pool.shard_states()[0]["state"] == "ready",
                timeout_s=30,
                message="the slot to finish respawning",
            )
            pooled = pool.build_forest(1, 1)
            reference = ForestEngine(
                copy.deepcopy(pool_tree), ServerConfig(**POOL_CONFIG)
            ).build_forest(1, 1)
            for (root_a, matrix_a), (root_b, matrix_b) in zip(pooled, reference):
                assert root_a == root_b
                assert np.array_equal(matrix_a.values, matrix_b.values)
        finally:
            pool.close()

    def test_shards_exit_when_their_head_is_killed(self, pool_tree):
        """A SIGKILLed head sends no ``bye``, and a sibling forked later holds
        a copy of each earlier shard's socket end — every shard must still
        notice it is orphaned and exit."""
        context = multiprocessing.get_context("fork")
        reader, writer = context.Pipe(duplex=False)
        head = context.Process(target=_head_with_two_shards, args=(pool_tree, writer))
        head.start()
        writer.close()
        try:
            assert reader.poll(60), "the head never reported its shard pids"
            pids = reader.recv()
            assert len(pids) == 2 and all(pids)
            head.kill()
            head.join(timeout=10)
            wait_until(
                lambda: not any(_running(pid) for pid in pids),
                timeout_s=5,
                message=f"every orphaned shard of {pids} to exit",
            )
        finally:
            head.kill()
            head.join(timeout=10)
            reader.close()

    def test_closed_pool_rejects_requests(self, pool_tree):
        pool = EnginePool(pool_tree, ServerConfig(**POOL_CONFIG), num_shards=1)
        pool.wait_ready()
        pool.close()
        pool.close()  # idempotent
        with pytest.raises(EnginePoolError):
            pool.build_forest(1, 0)


def _head_with_two_shards(tree, writer) -> None:
    """Head process: build a 2-shard pool, report its shard pids, idle."""
    pool = EnginePool(tree, ServerConfig(**POOL_CONFIG), num_shards=2)
    pool.wait_ready()
    writer.send([info["pid"] for info in pool.shard_states()])
    time.sleep(300)  # until the test SIGKILLs this head


def _running(pid: int) -> bool:
    """Whether *pid* is a live process (an unreaped zombie has exited)."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            return stat.read().rsplit(")", 1)[1].split()[0] not in ("Z", "X")
    except FileNotFoundError:
        return False


# --------------------------------------------------------------------- #
# Cache lifecycle: LRU bound and live prior updates
# --------------------------------------------------------------------- #


class TestEngineForestCache:
    def test_least_recently_used_forest_is_evicted(self, small_tree_with_priors, monkeypatch):
        monkeypatch.setattr(engine_module, "FOREST_CACHE_ENTRIES", 2)
        engine = ForestEngine(small_tree_with_priors, ServerConfig(**POOL_CONFIG))
        engine.build_forest_traced(1, 0)
        engine.build_forest_traced(1, 1)
        _, cached = engine.build_forest_traced(1, 0)
        assert cached  # (1, 1) is now the least recently used
        engine.build_forest_traced(1, 2)
        assert engine.cache_size() == 2
        assert engine.cache_diagnostics()["forest_stats"]["evictions"] == 1
        _, cached = engine.build_forest_traced(1, 0)
        assert cached
        _, cached = engine.build_forest_traced(1, 1)
        assert not cached


class TestEngineLPCache:
    def test_concurrent_builds_share_the_lp_cache(self, medium_tree, synthetic_dataset, monkeypatch):
        """Four threads building distinct keys on one engine share its LP
        cache and still serve exactly the serial, uncached forests."""
        tree = copy.deepcopy(medium_tree)
        priors_from_checkins(tree, synthetic_dataset)
        config = ServerConfig(epsilon=15.0, num_targets=5, robust_iterations=2)
        engine = ForestEngine(tree, config)
        deltas = range(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # switch threads often, so races show
        try:
            outcome = run_burst(
                [lambda delta=delta: engine.build_forest(1, delta, epsilon=15.0) for delta in deltas]
            ).raise_errors()
        finally:
            sys.setswitchinterval(interval)
        diagnostics = engine.cache_diagnostics()
        stats = diagnostics["lp_stats"]
        # 7 sub-trees: one LP each at δ = 0, t + 1 = 3 each at δ = 1, 2, 3.
        # A lost update on the cache's counters would break this sum.
        assert stats["hits"] + stats["misses"] == 7 + 3 * 7 * 3
        assert diagnostics["solver"]["solves"] == stats["misses"]
        monkeypatch.setattr(engine_module, "LP_CACHE_ENTRIES", 0)
        reference = ForestEngine(tree, config)
        for delta, forest in zip(deltas, outcome.results):
            expected = reference.build_forest(1, delta, epsilon=15.0)
            assert [(root, matrix.to_dict()) for root, matrix in forest] == [
                (root, matrix.to_dict()) for root, matrix in expected
            ]
        assert reference.cache_diagnostics()["lp_stats"]["hits"] == 0


class TestEnginePublishPriors:
    def test_publish_priors_rekeys_the_cache(self, small_tree_with_priors):
        tree = copy.deepcopy(small_tree_with_priors)
        engine = ForestEngine(tree, ServerConfig(**POOL_CONFIG))
        engine.build_forest_traced(1, 1)
        new_priors = {leaf.node_id: index + 1.0 for index, leaf in enumerate(tree.leaves())}
        engine.publish_priors(new_priors)
        assert engine.cache_size() == 1  # nothing flushed; the old forest ages out
        _, cached = engine.build_forest_traced(1, 1)
        assert not cached

    def test_update_listeners_run_once_after_the_priors_are_installed(self, small_tree_with_priors):
        tree = copy.deepcopy(small_tree_with_priors)
        engine = ForestEngine(tree, ServerConfig(**POOL_CONFIG))
        seen = []
        engine.update_listeners.append(
            lambda: seen.append((engine.priors_generation, tree.leaves()[0].prior))
        )
        engine.publish_priors({leaf.node_id: index + 1.0 for index, leaf in enumerate(tree.leaves())})
        assert seen == [(1, pytest.approx(1.0 / 28.0))]

    def test_a_raising_listener_fails_neither_the_publish_nor_its_peers(
        self, small_tree_with_priors, caplog
    ):
        tree = copy.deepcopy(small_tree_with_priors)
        engine = ForestEngine(tree, ServerConfig(**POOL_CONFIG))
        calls = []

        def broken():
            raise RuntimeError("listener bug")

        engine.update_listeners.extend([broken, lambda: calls.append("peer")])
        with caplog.at_level(logging.ERROR, logger="repro"):
            engine.publish_priors({leaf.node_id: index + 1.0 for index, leaf in enumerate(tree.leaves())})
        assert calls == ["peer"]
        assert engine.priors_generation == 1
        assert "priors-update listener failed" in caplog.text

    def test_a_rejected_publish_runs_no_listener(self, small_tree_with_priors):
        engine = ForestEngine(copy.deepcopy(small_tree_with_priors), ServerConfig(**POOL_CONFIG))
        calls = []
        engine.update_listeners.append(lambda: calls.append(1))
        with pytest.raises(ValueError):
            engine.publish_priors({engine.tree.leaves()[0].node_id: float("nan")})
        with pytest.raises(KeyError):
            engine.publish_priors({"no-such-leaf": 1.0})
        assert calls == []
        assert engine.priors_generation == 0

    def test_publish_priors_rejects_poisonous_masses(self, small_tree_with_priors):
        """Regression: json.loads parses NaN/Infinity, and a NaN mass would
        pass every sign check and poison the whole tree."""
        engine = ForestEngine(small_tree_with_priors, ServerConfig(**POOL_CONFIG))
        leaf_id = small_tree_with_priors.leaves()[0].node_id
        for bad in (float("nan"), float("inf"), -1.0, "wat"):
            with pytest.raises((ValueError, TypeError)):
                engine.publish_priors({leaf_id: bad})
        with pytest.raises(ValueError):
            engine.publish_priors({})
        # The tree is untouched after every rejected update.
        assert sum(leaf.prior for leaf in small_tree_with_priors.leaves()) == pytest.approx(1.0)

    def test_publish_priors_waits_for_inflight_builds(self, small_tree_with_priors):
        """Regression: a live prior update must not mutate the tree while a
        build is reading priors — the writer waits, then new builds see the
        fully-applied update."""
        tree = copy.deepcopy(small_tree_with_priors)
        engine = ForestEngine(tree, ServerConfig(**POOL_CONFIG))
        release_build = threading.Event()
        original_run_level = engine._run_level

        def stalled_run_level(*args):
            assert release_build.wait(timeout=30)
            return original_run_level(*args)

        engine._run_level = stalled_run_level
        build_done = threading.Event()
        publish_done = threading.Event()

        def builder():
            engine.build_forest_traced(1, 1)
            build_done.set()

        def publisher():
            wait_until(
                lambda: engine._active_builds == 1,
                timeout_s=10,
                message="the build to hold a reader slot",
            )
            engine.publish_priors(
                {leaf.node_id: index + 1.0 for index, leaf in enumerate(tree.leaves())}
            )
            publish_done.set()

        build_thread = threading.Thread(target=builder, daemon=True)
        publish_thread = threading.Thread(target=publisher, daemon=True)
        build_thread.start()
        publish_thread.start()
        # The publisher reaches the gate and parks behind the in-flight build.
        wait_until(
            lambda: engine._prior_writers == 1,
            timeout_s=10,
            message="the publisher to park at the priors gate",
        )
        assert not publish_done.is_set()
        assert not build_done.is_set()
        release_build.set()
        build_thread.join(timeout=30)
        publish_thread.join(timeout=30)
        assert build_done.is_set() and publish_done.is_set()
        # New builds run against the fully-applied update (fresh cache miss).
        _, cached = engine.build_forest_traced(1, 1)
        assert not cached


class TestPoolCacheLifecycle:
    def test_publish_priors_reaches_every_shard(self, pool, pool_tree):
        # Warm both shards with distinct keys, then broadcast new priors.
        keys = [(0, 0), (1, 0), (1, 1), (1, 2)]
        for level, delta in keys:
            pool.build_forest_traced(level, delta)
        warmed = pool.cache_diagnostics()["forest_entries"]
        assert warmed == len(keys)
        assert len({pool.shard_for(level, delta) for level, delta in keys}) == 2
        new_priors = {
            leaf.node_id: index + 1.0 for index, leaf in enumerate(pool_tree.leaves())
        }
        pool.publish_priors(new_priors)
        assert pool.cache_diagnostics()["forest_entries"] == warmed  # nothing flushed
        # Every shard rebuilds on the new priors, exactly as a fresh engine does.
        reference = ForestEngine(copy.deepcopy(pool_tree), ServerConfig(**POOL_CONFIG))
        for level, delta in keys:
            forest, cached = pool.build_forest_traced(level, delta)
            assert not cached
            assert {root: m.to_dict() for root, m in forest} == {
                root: m.to_dict() for root, m in reference.build_forest(level, delta)
            }
        # The parent-side published priors reflect the update.
        published = pool.publish_leaf_priors(pool_tree.root.node_id)
        assert sum(published.values()) == pytest.approx(1.0)
        assert max(published.values()) == pytest.approx(7.0 / 28.0)

    def test_pool_listeners_run_once_per_priors_install(self, pool, pool_tree):
        """A local publish, a replicated publish and a split-brain reset each
        run the update listeners once; a retired ``invalidate`` record runs
        none and changes nothing."""
        calls = []
        pool.update_listeners.append(lambda: calls.append(pool.priors_generation))
        masses = {leaf.node_id: index + 1.0 for index, leaf in enumerate(pool_tree.leaves())}
        pool.publish_priors(masses)
        assert calls == [1]
        pool.apply_replicated_control(
            {"type": "publish_priors", "version": 2, "priors": masses, "normalize": True}
        )
        assert calls == [1, 2]
        pool.apply_replicated_control({"type": "invalidate", "version": 3, "privacy_level": None})
        assert calls == [1, 2]
        assert pool.priors_version == 2
        pool.reset_for_replication(5, None)
        assert calls == [1, 2, 3]

    def test_reset_without_priors_reinstalls_the_tree_priors_at_the_primary_version(
        self, pool, pool_tree
    ):
        masses = {leaf.node_id: index + 1.0 for index, leaf in enumerate(pool_tree.leaves())}
        pool.publish_priors(masses)
        pool.publish_priors(masses)
        kept = {leaf.node_id: leaf.prior for leaf in pool.tree.leaves()}
        before = pool.build_forest(1, 1)
        pool.reset_for_replication(1, None)  # versions move exactly, downward included
        assert pool.priors_version == 1
        assert [shard.priors_version for shard in pool._shards] == [1, 1]
        assert {leaf.node_id: leaf.prior for leaf in pool.tree.leaves()} == kept
        forest, cached = pool.build_forest_traced(1, 1)
        assert cached  # same priors, same forest key
        assert {root: m.to_dict() for root, m in forest} == {root: m.to_dict() for root, m in before}

    def test_health_check(self, pool):
        assert pool.health_check(timeout_s=10.0) == {0: True, 1: True}

    def test_health_check_partial_when_one_shard_busy(self, pool_tree):
        """Regression: one shard deep in a build must not mark its idle
        siblings unhealthy (the broadcast is partial, not all-or-nothing)."""
        pool = EnginePool(
            pool_tree,
            ServerConfig(**POOL_CONFIG),
            num_shards=2,
            chaos_build_delay_s=0.6,
        )
        try:
            pool.wait_ready()
            busy = pool.shard_for(1, 1)
            builder = threading.Thread(
                target=lambda: pool.build_forest(1, 1), daemon=True
            )
            builder.start()
            wait_until(
                lambda: pool.shard_states()[busy]["in_flight"] > 0,
                timeout_s=10,
                message="the build to occupy its home shard",
            )
            health = pool.health_check(timeout_s=0.15)
            assert health[1 - busy] is True  # the idle sibling still answers
            assert health[busy] is False  # the busy worker's ping is queued
            builder.join(timeout=30)
            wait_until(
                lambda: pool.health_check(timeout_s=2.0) == {0: True, 1: True},
                timeout_s=10,
                message="both shards healthy once idle",
            )
        finally:
            pool.close()


# --------------------------------------------------------------------- #
# HTTP admin surface over a pooled service
# --------------------------------------------------------------------- #


class TestPoolOverHTTP:
    def test_admin_priors_over_the_wire(self, pool, pool_tree):
        from repro.client.transport import HTTPTransport

        service = CORGIService(pool)
        with CORGIHTTPServer(service, port=0) as server:
            transport = HTTPTransport(server.url)
            request = ObfuscationRequest(privacy_level=1, delta=1)
            transport.fetch_forest(request)
            transport.publish_priors(
                {leaf.node_id: index + 1.0 for index, leaf in enumerate(pool_tree.leaves())}
            )
            transport.fetch_forest(request)
            metrics = transport.metrics()
            # The publish re-keyed the forest: a second build, and the
            # first forest stays cached until the LRU evicts it.
            assert metrics["service"]["engine_builds"] == 2
            assert metrics["engine"]["forest_entries"] == 2
