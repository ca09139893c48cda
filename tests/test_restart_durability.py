"""Durable-tier scenario tests: crash-safe WAL replay and warm restarts.

Covers the ISSUE acceptance surface for the durable state tier:

* **WAL replay** — a pool booted over an existing ``state_dir`` recovers
  the authoritative priors generation (version *and* masses) from the
  control log, surviving a close without any hand-off;
* **kill -9 warm restart** — SIGKILL the whole fleet, boot a fresh pool
  over the same directory: the snapshot store pre-warms the new shards and
  they serve byte-identical forests as cache hits, at the replayed priors
  version;
* **fault injection** — a torn WAL tail replays the valid prefix (with a
  diagnostic, never a crash); a bit-flipped snapshot file is quarantined
  and its key cold-rebuilds; orphaned temp files are swept on boot; a full
  disk degrades to cold operation with counted write errors;
* **consistency** — ``invalidate`` purges the store so a later boot cannot
  resurrect dropped forests; snapshots from a superseded priors
  generation, or written under another pipeline fingerprint, are skipped
  at pre-warm (zero stale serving); and a write-through is stamped with
  the priors version its build was dispatched under;
* **supervision hygiene** — a user stats listener that raises can no
  longer kill the crash collector: the shard still respawns and counters
  still advance.

All synchronization goes through the conftest helpers (``wait_until``) —
no ad-hoc sleeps.
"""

import copy
import json
import threading
import urllib.request

import numpy as np
import pytest

from helpers_concurrency import wait_until
from repro.server.engine import ForestEngine, ServerConfig
from repro.service.controllog import ControlLog
from repro.service import pool as pool_module
from repro.service.http import CORGIHTTPServer
from repro.service.pool import EnginePool
from repro.service.service import CORGIService
from repro.service.store import SnapshotStore

#: Fast engine settings shared by every pool in this module.
POOL_CONFIG = dict(epsilon=2.0, num_targets=5, robust_iterations=1)

#: Two distinct keys (different ε) so the store holds more than one file.
WARM_KEYS = [(0, 0, 2.0), (0, 0, 1.5)]


@pytest.fixture()
def pool_tree(small_tree_with_priors):
    """A private copy of the priors-annotated tree (pools may mutate priors)."""
    return copy.deepcopy(small_tree_with_priors)


def make_pool(tree, state_dir, **kwargs):
    kwargs.setdefault("num_shards", 2)
    pool = EnginePool(tree, ServerConfig(**POOL_CONFIG), state_dir=state_dir, **kwargs)
    pool.wait_ready()
    return pool


def store_stats(pool):
    return pool.durability_diagnostics().get("store") or {}


def log_stats(pool):
    return pool.durability_diagnostics().get("control_log") or {}


def forest_matrices(forest):
    """Subtree-root → matrix values, the byte-identity comparison surface."""
    return {
        root_id: np.asarray(forest.matrix_for_subtree(root_id).values)
        for root_id in forest.subtree_roots()
    }


def kill_fleet(pool):
    """SIGKILL every local worker — no drain, no hand-off, no goodbye."""
    for shard in pool._shards:
        process = getattr(shard, "process", None)
        if process is not None and process.is_alive():
            process.kill()


def sample_priors(tree, mass=2.0):
    """A deliberately non-uniform priors payload over the tree's leaves."""
    leaves = sorted(tree.leaves(), key=lambda leaf: str(leaf.node_id))
    return {
        str(leaf.node_id): mass if index == 0 else 1.0
        for index, leaf in enumerate(leaves)
    }


# --------------------------------------------------------------------- #
# WAL replay: the priors generation survives a restart
# --------------------------------------------------------------------- #


class TestControlLogReplay:
    def test_published_priors_survive_restart(self, small_tree_with_priors, tmp_path):
        """Acceptance: a restarted head recovers the authoritative priors
        generation — version and masses — from the fsync'd control log."""
        priors = sample_priors(small_tree_with_priors)
        pool = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path)
        try:
            assert pool.priors_version == 0
            pool.publish_priors(priors, normalize=True)
            assert pool.priors_version == 1
        finally:
            pool.close()

        # The reborn pool gets a tree WITHOUT the published priors: the
        # masses it serves can only have come from the log replay.
        reborn = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path)
        try:
            assert reborn.priors_version == 1
            stats = log_stats(reborn)
            assert stats["records_replayed"] == 1
            assert stats["replayed_version"] == 1
            assert stats["replay_error"] is None
            recovered = {
                str(leaf.node_id): leaf.prior for leaf in reborn.tree.leaves()
            }
            expected_total = sum(priors.values())
            for node_id, mass in priors.items():
                assert recovered[node_id] == pytest.approx(mass / expected_total)
        finally:
            reborn.close()

    def test_versions_keep_advancing_across_restarts(
        self, small_tree_with_priors, tmp_path
    ):
        """The log sequence is monotonic across generations of the pool —
        a reborn head can never reissue an already-committed version."""
        pool = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path)
        try:
            pool.publish_priors(sample_priors(small_tree_with_priors))
            pool.invalidate()
            assert log_stats(pool)["last_version"] == 2
        finally:
            pool.close()

        reborn = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path)
        try:
            assert reborn.priors_version == 1  # last *publish*, not invalidate
            reborn.publish_priors(sample_priors(small_tree_with_priors, mass=3.0))
            assert reborn.priors_version == 3  # allocated after both records
        finally:
            reborn.close()

    def test_torn_wal_tail_replays_valid_prefix(
        self, small_tree_with_priors, tmp_path
    ):
        """A kill -9 mid-append leaves a torn record; the next boot replays
        everything durably committed before it and reports the tail."""
        pool = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path)
        try:
            pool.publish_priors(sample_priors(small_tree_with_priors))
        finally:
            pool.close()

        log_path = tmp_path / "control.log"
        intact = log_path.read_bytes()
        log_path.write_bytes(intact + intact[: len(intact) // 2])  # torn re-append

        reborn = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path)
        try:
            assert reborn.priors_version == 1
            stats = log_stats(reborn)
            assert stats["records_replayed"] == 1
            assert stats["truncated_tail_bytes"] == len(intact) // 2
            diagnostics = reborn.durability_diagnostics()
            assert any("control-log tail" in error for error in diagnostics["errors"])
            # The torn bytes were truncated away: a fresh append goes after
            # the valid prefix and the *next* boot replays both cleanly.
            reborn.publish_priors(sample_priors(small_tree_with_priors, mass=4.0))
        finally:
            reborn.close()

        third = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path)
        try:
            assert third.priors_version == 2
            assert log_stats(third)["records_replayed"] == 2
            assert log_stats(third)["truncated_tail_bytes"] == 0
        finally:
            third.close()


# --------------------------------------------------------------------- #
# kill -9 warm restart: the flagship scenario
# --------------------------------------------------------------------- #


class TestWarmRestartAfterKill:
    def test_fleet_kill9_then_fresh_boot_serves_warm_and_identical(
        self, small_tree_with_priors, tmp_path
    ):
        """Acceptance: SIGKILL the whole fleet with zero drain; a fresh pool
        over the same state_dir pre-warms from the store and serves every
        key byte-identically, as a cache hit, at the replayed version."""
        priors = sample_priors(small_tree_with_priors)
        pool = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path, respawn_limit=0)
        before = {}
        try:
            pool.publish_priors(priors)
            for level, delta, epsilon in WARM_KEYS:
                forest = pool.build_forest(level, delta, epsilon=epsilon)
                before[(level, delta, epsilon)] = forest_matrices(forest)
            # Write-through persistence is asynchronous: wait for both
            # snapshots to be durably on disk, then murder the fleet.
            wait_until(
                lambda: store_stats(pool).get("writes", 0) >= len(WARM_KEYS),
                timeout_s=60,
                message="write-through persistence of both built keys",
            )
            kill_fleet(pool)
        finally:
            pool.close()

        reborn = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path)
        try:
            assert reborn.priors_version == 1
            assert reborn.wait_prewarmed(timeout_s=60)
            prewarm = reborn.durability_diagnostics()["prewarm"]
            assert (
                prewarm["store_prewarm_imported"] + prewarm["store_prewarm_prewarmed"]
                >= len(WARM_KEYS)
            )
            assert prewarm["store_prewarm_stale"] == 0
            for (level, delta, epsilon), matrices in before.items():
                forest, cached = reborn.build_forest_traced(
                    level, delta, epsilon=epsilon
                )
                assert cached, f"key {(level, delta, epsilon)} cold-built after restart"
                restored = forest_matrices(forest)
                assert set(restored) == set(matrices)
                for root_id, values in matrices.items():
                    assert np.array_equal(restored[root_id], values), root_id
        finally:
            reborn.close()

    def test_drain_persists_exported_entries(self, pool_tree, tmp_path):
        """A graceful drain persists the exported cache synchronously — the
        drain report says so and the files are on disk before it returns."""
        pool = make_pool(pool_tree, tmp_path)
        try:
            pool.build_forest(0, 0)
            victim = pool.shard_for(0, 0)
            report = pool.drain(victim)
            assert report["persisted"] >= 1
            assert store_stats(pool)["entries"] >= 1
        finally:
            pool.close()


# --------------------------------------------------------------------- #
# Fault injection: corruption, orphans, disk full
# --------------------------------------------------------------------- #


class TestStoreFaultInjection:
    def _seed_store(self, seed_tree, state_dir):
        """Build one key over a durable pool and leave its snapshot on disk."""
        pool = make_pool(copy.deepcopy(seed_tree), state_dir)
        try:
            pool.build_forest(0, 0)
            wait_until(
                lambda: store_stats(pool).get("writes", 0) >= 1,
                timeout_s=60,
                message="write-through persistence of the seeded key",
            )
        finally:
            pool.close()

    def test_bit_flipped_snapshot_is_quarantined_and_rebuilt(
        self, small_tree_with_priors, tmp_path
    ):
        """Acceptance: a fault-injected store boots cold with typed
        diagnostics — the corrupt file is quarantined, the key rebuilds,
        nothing crashes."""
        self._seed_store(small_tree_with_priors, tmp_path)
        snapshots = sorted((tmp_path / "snapshots").glob("*.snap"))
        assert snapshots, "the seed pool must have persisted at least one snapshot"
        victim = snapshots[0]
        corrupted = bytearray(victim.read_bytes())
        corrupted[len(corrupted) // 2] ^= 0x40
        victim.write_bytes(bytes(corrupted))

        reborn = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path)
        try:
            assert reborn.wait_prewarmed(timeout_s=60)
            assert store_stats(reborn)["corrupt_quarantined"] >= 1
            assert not victim.exists()
            assert list((tmp_path / "snapshots").glob("*.corrupt"))
            # The key is gone from the store: first build is cold, succeeds.
            forest, cached = reborn.build_forest_traced(0, 0)
            assert not cached
            assert forest.is_complete()
        finally:
            reborn.close()

    def test_foreign_bytes_in_snapshot_dir_never_crash_boot(
        self, small_tree_with_priors, tmp_path
    ):
        """A file that is not even a store envelope (wrong magic) is
        quarantined like any other corruption."""
        snapshot_dir = tmp_path / "snapshots"
        snapshot_dir.mkdir(parents=True)
        (snapshot_dir / "L0_D0_feedfacefeedface.snap").write_bytes(b"not a snapshot")
        pool = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path)
        try:
            assert pool.wait_prewarmed(timeout_s=60)
            assert store_stats(pool)["corrupt_quarantined"] >= 1
            assert pool.build_forest(0, 0).is_complete()
        finally:
            pool.close()

    def test_orphaned_tmp_files_are_swept_on_boot(
        self, small_tree_with_priors, tmp_path
    ):
        """A kill -9 between temp write and rename leaves a *.tmp orphan;
        the next boot deletes it (it was never visible to readers)."""
        snapshot_dir = tmp_path / "snapshots"
        snapshot_dir.mkdir(parents=True)
        orphan = snapshot_dir / "L0_D0_deadbeefdeadbeef.snap.12345.0.tmp"
        orphan.write_bytes(b"torn half-write")
        pool = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path)
        try:
            assert not orphan.exists()
            assert store_stats(pool)["orphans_cleaned"] >= 1
        finally:
            pool.close()

    def test_disk_full_degrades_to_cold_operation(
        self, small_tree_with_priors, tmp_path, monkeypatch
    ):
        """Acceptance: ENOSPC on every store write — serving is unaffected,
        the errors are counted, nothing raises into the request path."""

        def no_space(self, path, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(SnapshotStore, "_write_atomic", no_space)
        pool = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path)
        try:
            forest = pool.build_forest(0, 0)
            assert forest.is_complete()
            wait_until(
                lambda: store_stats(pool).get("write_errors", 0) >= 1,
                timeout_s=60,
                message="the failed write-through to be counted",
            )
            assert store_stats(pool)["writes"] == 0
            # Serving stays healthy: the same key is an in-RAM cache hit.
            _, cached = pool.build_forest_traced(0, 0)
            assert cached
        finally:
            pool.close()

    def test_unwritable_state_dir_boots_cold_with_diagnostics(
        self, small_tree_with_priors, tmp_path, monkeypatch
    ):
        """A state_dir that cannot even be created must not block the boot:
        the pool comes up cold and says why."""

        import pathlib

        original = pathlib.Path.mkdir

        def guarded(self, *args, **kwargs):
            if str(self).startswith(str(tmp_path / "denied")):
                raise PermissionError(13, "Permission denied")
            return original(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "mkdir", guarded)
        pool = EnginePool(
            copy.deepcopy(small_tree_with_priors),
            ServerConfig(**POOL_CONFIG),
            num_shards=2,
            state_dir=tmp_path / "denied",
        )
        try:
            pool.wait_ready()
            diagnostics = pool.durability_diagnostics()
            assert any(
                "durable state unavailable" in error
                for error in diagnostics["errors"]
            )
            assert pool.build_forest(0, 0).is_complete()
        finally:
            pool.close()


# --------------------------------------------------------------------- #
# Consistency: invalidation and priors drift can never serve stale state
# --------------------------------------------------------------------- #


class TestDurableConsistency:
    def test_invalidate_purges_store_so_reboot_cannot_resurrect(
        self, small_tree_with_priors, tmp_path
    ):
        pool = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path)
        try:
            pool.build_forest(0, 0)
            wait_until(
                lambda: store_stats(pool).get("writes", 0) >= 1,
                timeout_s=60,
                message="write-through persistence before the invalidation",
            )
            pool.invalidate(0)
            assert store_stats(pool)["entries"] == 0
            assert store_stats(pool)["deletes"] >= 1
        finally:
            pool.close()

        reborn = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path)
        try:
            assert reborn.wait_prewarmed(timeout_s=60)
            _, cached = reborn.build_forest_traced(0, 0)
            assert not cached, "an invalidated forest was resurrected from disk"
        finally:
            reborn.close()

    def test_invalidate_drops_a_write_through_still_queued(self, pool_tree, tmp_path, monkeypatch):
        """Regression: a forest built before an invalidate whose write-through
        reaches the store after the purge must be dropped, or the next boot
        pre-warms the invalidated forest."""
        release = threading.Event()
        encode = pool_module.encode_snapshot

        def held_encode(snapshot):
            release.wait(timeout=60)
            return encode(snapshot)

        monkeypatch.setattr(pool_module, "encode_snapshot", held_encode)
        pool = make_pool(pool_tree, tmp_path)
        try:
            pool.build_forest(0, 0)  # its write-through now waits in the persister
            pool.invalidate(0)
        finally:
            release.set()
            pool.close()  # the persister drains its queue, then exits
        assert not pool._persister.is_alive()
        assert not list((tmp_path / "snapshots").glob("*.snap"))

    def test_snapshots_from_old_priors_generation_are_skipped(
        self, small_tree_with_priors, tmp_path
    ):
        """Acceptance (zero stale serving): snapshots persisted under priors
        v0 are skipped — counted, not imported — once the log replays v1."""
        self_seed = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path)
        try:
            self_seed.build_forest(0, 0)
            wait_until(
                lambda: store_stats(self_seed).get("writes", 0) >= 1,
                timeout_s=60,
                message="write-through persistence at priors v0",
            )
        finally:
            self_seed.close()

        # Commit a publish AFTER the snapshot landed: replaying it makes
        # the stored v0 file a relic of a superseded generation.
        log = ControlLog(tmp_path / "control.log")
        log.append(
            "publish_priors",
            {
                "priors": sample_priors(small_tree_with_priors),
                "normalize": True,
            },
        )

        reborn = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path)
        try:
            assert reborn.priors_version == 1
            assert reborn.wait_prewarmed(timeout_s=60)
            prewarm = reborn.durability_diagnostics()["prewarm"]
            assert prewarm["store_prewarm_stale"] >= 1
            assert prewarm["store_prewarm_imported"] == 0
            _, cached = reborn.build_forest_traced(0, 0)
            assert not cached, "a stale-priors snapshot was served"
        finally:
            reborn.close()

    @pytest.mark.parametrize("source", ["state_dir", "seed_store_dir"])
    def test_snapshots_from_another_pipeline_fingerprint_are_skipped(
        self, small_tree_with_priors, tmp_path, source
    ):
        """Regression: the namespace fingerprint enters only the file name,
        so a pool booted under another config over the same state_dir (or
        seeded from its snapshots) used to import the old config's forests
        and serve them as cache hits."""
        first = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path)
        try:
            first.build_forest(1, 0)
            wait_until(
                lambda: store_stats(first).get("writes", 0) >= 1,
                timeout_s=60,
                message="write-through persistence under the first config",
            )
        finally:
            first.close()

        other_config = ServerConfig(**{**POOL_CONFIG, "num_targets": 3})
        if source == "state_dir":
            durable = dict(state_dir=tmp_path)
        else:
            durable = dict(state_dir=tmp_path / "other", seed_store_dir=tmp_path / "snapshots")
        reborn = EnginePool(copy.deepcopy(small_tree_with_priors), other_config, num_shards=2, **durable)
        try:
            reborn.wait_ready()
            assert reborn.wait_prewarmed(timeout_s=60)
            prewarm = reborn.durability_diagnostics()["prewarm"]
            assert prewarm["store_prewarm_imported"] == 0
            assert prewarm["store_prewarm_foreign"] == 1
            forest, cached = reborn.build_forest_traced(1, 0)
            assert not cached, "a forest built under another config was served"
            reference = ForestEngine(copy.deepcopy(small_tree_with_priors), other_config)
            expected = forest_matrices(reference.build_forest(1, 0))
            served = forest_matrices(forest)
            assert served.keys() == expected.keys()
            for root_id, values in expected.items():
                assert np.array_equal(served[root_id], values)
        finally:
            reborn.close()

    def test_write_through_is_stamped_with_the_priors_version_at_dispatch(
        self, small_tree_with_priors, tmp_path
    ):
        """Regression: a publish queued behind an in-flight build used to be
        acknowledged before the build's write-through read the shard's priors
        version, so the old-priors forest was persisted under the new version
        and served after a reboot."""
        pool = make_pool(
            copy.deepcopy(small_tree_with_priors), tmp_path, num_shards=1, chaos_build_delay_s=0.5
        )
        new_priors = sample_priors(small_tree_with_priors)
        publish_done = threading.Event()
        record_hot_key = pool._record_hot_key

        def record_after_publish(slot, key):
            # Hold the build's answer until the publish has returned, so the
            # write-through runs after the shard's version was bumped.
            assert publish_done.wait(timeout=60)
            record_hot_key(slot, key)

        pool._record_hot_key = record_after_publish
        try:
            builder = threading.Thread(target=pool.build_forest, args=(1, 0))
            builder.start()
            wait_until(
                lambda: pool.shard_states()[0]["in_flight"] >= 1,
                timeout_s=30,
                message="the build to be in flight",
            )
            pool.publish_priors(new_priors)  # queued behind the build on the serial shard
            publish_done.set()
            builder.join(timeout=60)
            assert not builder.is_alive()
        finally:
            publish_done.set()
            pool.close()  # the persister drains its queue, then exits

        reborn = make_pool(copy.deepcopy(small_tree_with_priors), tmp_path)
        try:
            assert reborn.priors_version == 1
            assert reborn.wait_prewarmed(timeout_s=60)
            forest, _ = reborn.build_forest_traced(1, 0)
        finally:
            reborn.close()
        reference = ForestEngine(copy.deepcopy(small_tree_with_priors), ServerConfig(**POOL_CONFIG))
        reference.publish_priors(new_priors)
        expected = forest_matrices(reference.build_forest(1, 0))
        served = forest_matrices(forest)
        assert served.keys() == expected.keys()
        for root_id, values in expected.items():
            assert np.array_equal(served[root_id], values), "an old-priors forest was served"


# --------------------------------------------------------------------- #
# Supervision hygiene: a hostile stats listener cannot kill the collector
# --------------------------------------------------------------------- #


class TestStatsListenerIsolation:
    def test_raising_listener_does_not_break_crash_recovery(self, pool_tree):
        """Regression: the listener used to run under the pool lock inside
        the crash collector — one raise killed supervision.  Now it is
        invoked lock-free and exceptions are swallowed: the shard still
        respawns and the counters still advance."""
        pool = EnginePool(
            pool_tree, ServerConfig(**POOL_CONFIG), num_shards=2, respawn_limit=2
        )
        seen = []

        def hostile(name, amount):
            seen.append((name, amount))
            raise ValueError("listener goes boom")

        try:
            pool.wait_ready()
            pool.set_stats_listener(hostile)
            pool._shards[0].process.kill()
            wait_until(
                lambda: pool.pool_stats()["respawns"] >= 1,
                timeout_s=60,
                message="the crashed shard to be respawned despite the listener",
            )
            assert any(name == "respawns" for name, _ in seen)
            wait_until(
                lambda: pool.shard_states()[0]["state"] == "ready",
                timeout_s=60,
                message="the respawned shard to come back READY",
            )
            assert pool.build_forest(0, 0).is_complete()
        finally:
            pool.close()


# --------------------------------------------------------------------- #
# Diagnostics surface: /admin/durability end to end
# --------------------------------------------------------------------- #


class TestDurabilityDiagnosticsSurface:
    def test_http_endpoint_reports_durable_pool(self, pool_tree, tmp_path):
        pool = make_pool(pool_tree, tmp_path)
        try:
            pool.publish_priors(sample_priors(pool_tree))
            with CORGIHTTPServer(CORGIService(pool), port=0) as server:
                with urllib.request.urlopen(
                    server.url + "/admin/durability", timeout=30
                ) as response:
                    payload = json.loads(response.read().decode("utf-8"))
            assert payload["durable"] is True
            assert payload["state_dir"] == str(tmp_path)
            assert payload["control_log"]["last_version"] == 1
            assert "prewarm" in payload
        finally:
            pool.close()

    def test_http_endpoint_on_plain_engine_reports_not_durable(
        self, small_tree_with_priors
    ):
        engine = ForestEngine(small_tree_with_priors, ServerConfig(**POOL_CONFIG))
        with CORGIHTTPServer(CORGIService(engine), port=0) as server:
            with urllib.request.urlopen(
                server.url + "/admin/durability", timeout=30
            ) as response:
                payload = json.loads(response.read().decode("utf-8"))
        assert payload["durable"] is False
        assert payload["state_dir"] is None
