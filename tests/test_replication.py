"""Replicated control-plane scenarios: one primary, N log-shipping followers.

Covers the ISSUE acceptance surface for `repro.service.replication`:

* **three-head fleet** — a primary plus two followers converge on the
  primary's priors generation after ``publish_priors`` and serve
  byte-identical forests; a retired ``invalidate`` record an older primary
  still ships is committed and skipped;
* **follower push** — a push gateway over a follower head pushes the
  matrix rebuilt on a replicated publish;
* **role guards** — a follower refuses local control writes with a typed
  400-class error (:class:`ReplicationRoleError`, a ``ValueError``) and the
  HTTP admin surface maps it to 400;
* **durable cursor** — a restarted follower resumes from its fsync'd
  cursor without re-applying records it already holds;
* **split-brain reset** — a follower whose local log replayed versions the
  primary never committed rotates the divergent log aside
  (``control.log.split-brain``) and adopts the primary's state at its
  durable version;
* **fingerprint fencing** — a follower built over a different pipeline
  config is rejected at subscribe and never applies a foreign record;
* **seed store** — a follower pre-warms its shards read-only from a
  same-fingerprint head's snapshot directory and serves those keys as
  cache hits without ever writing to the shared store;
* **kill -9 mid-burst** — SIGKILL the primary in the middle of a publish
  burst: every record a follower holds is within the primary's durable
  on-disk prefix (store-and-forward means nothing a crash can un-happen),
  and a primary rebooted over the same log resumes the version sequence
  with both followers converging.

All synchronization goes through the conftest helpers (``wait_until``,
``free_port``) — no ad-hoc sleeps in assertions.
"""

import copy
import json
import multiprocessing
import shutil
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

from helpers_concurrency import free_port, wait_until
from repro.geometry.haversine import LatLng
from repro.server.engine import ServerConfig
from repro.client.gateway import GatewayClient
from repro.service.controllog import ControlLog
from repro.service.gateway import GatewayConfig, GatewayServer
from repro.service.http import CORGIHTTPServer
from repro.service.pool import EnginePool
from repro.service.replication import (
    CURSOR_FILENAME,
    ReplicationRoleError,
    read_cursor,
    write_cursor,
)
from repro.service.service import CORGIService
from repro.service.wire import parse_address
from repro.tree.builder import tree_for_point

#: Fast engine settings shared by every head in this module.  Every head in
#: a fleet must use the same config: the store fingerprint folds the
#: result-affecting fields and the primary fences mismatched subscribers.
POOL_CONFIG = dict(epsilon=2.0, num_targets=5, robust_iterations=1)

#: Generous ceiling for cross-process/cross-thread convergence waits.
CONVERGE_S = 60


def make_head(tree, state_dir, **kwargs):
    kwargs.setdefault("num_shards", 1)
    pool = EnginePool(tree, ServerConfig(**POOL_CONFIG), state_dir=state_dir, **kwargs)
    pool.wait_ready()
    return pool


def replication_info(pool):
    return pool.durability_diagnostics().get("replication") or {}


def sample_priors(tree, mass=2.0):
    """A deliberately non-uniform priors payload over the tree's leaves."""
    leaves = sorted(tree.leaves(), key=lambda leaf: str(leaf.node_id))
    return {
        str(leaf.node_id): mass if index == 0 else 1.0
        for index, leaf in enumerate(leaves)
    }


def forest_matrices(forest):
    """Subtree-root → matrix values, the byte-identity comparison surface."""
    return {
        root_id: np.asarray(forest.matrix_for_subtree(root_id).values)
        for root_id in forest.subtree_roots()
    }


def assert_identical_forests(pools, privacy_level=0, delta=0):
    built = [forest_matrices(p.build_forest(privacy_level, delta)) for p in pools]
    reference = built[0]
    for index, matrices in enumerate(built[1:], start=1):
        assert set(matrices) == set(reference), f"head {index} root set differs"
        for root_id, values in reference.items():
            assert np.array_equal(matrices[root_id], values), (
                f"head {index} diverges at subtree {root_id}"
            )


@pytest.fixture()
def fleet_tree(small_tree_with_priors):
    """A private copy of the priors-annotated tree (pools mutate priors)."""
    return copy.deepcopy(small_tree_with_priors)


@pytest.fixture()
def primary(fleet_tree, tmp_path):
    state = tmp_path / "primary"
    pool = make_head(copy.deepcopy(fleet_tree), state, replication_port=0)
    try:
        yield pool
    finally:
        pool.close()


def follower_of(primary_pool, tree, state_dir, **kwargs):
    port = primary_pool._replication_server.port
    return make_head(tree, state_dir, replicate_from=f"127.0.0.1:{port}", **kwargs)


def wait_follower_at(pool, version, timeout_s=CONVERGE_S):
    wait_until(
        lambda: replication_info(pool).get("cursor", -1) >= version
        and pool.priors_version >= version,
        timeout_s=timeout_s,
        message=f"follower to reach replicated version {version}",
    )


# --------------------------------------------------------------------- #
# Cursor file: the follower's durable resume point
# --------------------------------------------------------------------- #


class TestCursorFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / CURSOR_FILENAME
        assert write_cursor(path, "10.0.0.1:7000", 17)
        assert read_cursor(path, "10.0.0.1:7000") == 17
        assert write_cursor(path, "10.0.0.1:7000", 23)
        assert read_cursor(path, "10.0.0.1:7000") == 23

    def test_missing_file_reads_zero(self, tmp_path):
        assert read_cursor(tmp_path / CURSOR_FILENAME, "10.0.0.1:7000") == 0

    def test_source_mismatch_reads_zero(self, tmp_path):
        """A cursor minted against one primary must not seed resumption
        against a different one — their version sequences are unrelated."""
        path = tmp_path / CURSOR_FILENAME
        write_cursor(path, "10.0.0.1:7000", 9)
        assert read_cursor(path, "10.0.0.2:7000") == 0
        assert read_cursor(path, "10.0.0.1:7001") == 0

    def test_corrupt_file_reads_zero(self, tmp_path):
        path = tmp_path / CURSOR_FILENAME
        path.write_bytes(b"\x00\xffnot json")
        assert read_cursor(path, "10.0.0.1:7000") == 0
        # And a corrupt cursor never blocks writing a fresh one.
        assert write_cursor(path, "10.0.0.1:7000", 3)
        assert read_cursor(path, "10.0.0.1:7000") == 3

    def test_parse_replication_source(self):
        assert parse_address("10.1.2.3:7000") == ("10.1.2.3", 7000)
        for bad in ("", "justhost", "host:", ":7000", "host:0", "host:notaport"):
            with pytest.raises(ValueError):
                parse_address(bad)


# --------------------------------------------------------------------- #
# Three-head fleet: publish once, serve identically everywhere
# --------------------------------------------------------------------- #


class TestThreeHeadFleet:
    def test_publish_converges_and_serves_byte_identical(
        self, primary, fleet_tree, tmp_path
    ):
        """Acceptance: publish to the primary; both followers apply the
        record at the primary's version and all three heads serve
        byte-identical forests."""
        followers = [
            follower_of(primary, copy.deepcopy(fleet_tree), tmp_path / f"follower{i}")
            for i in range(2)
        ]
        try:
            priors = sample_priors(fleet_tree, mass=3.0)
            primary.publish_priors(priors, normalize=True)
            assert primary.priors_version == 1
            for follower in followers:
                wait_follower_at(follower, 1)
                info = replication_info(follower)
                assert info["role"] == "follower"
                assert info["records_applied"] >= 1
                assert info["apply_errors"] == 0
                assert info["local_commit_errors"] == 0
                # Store-and-forward: the record is in the follower's own
                # durable log, not just its memory.
                log = follower.durability_diagnostics()["control_log"]
                assert log["replicated_appends"] >= 1
                assert log["last_version"] == 1
            assert_identical_forests([primary] + followers)
            # The primary sees both heads caught up.
            info = replication_info(primary)
            assert info["role"] == "primary"
            assert info["last_version"] == 1
            wait_until(
                lambda: all(
                    f["acked_version"] >= 1
                    for f in replication_info(primary)["followers"]
                )
                and len(replication_info(primary)["followers"]) == 2,
                timeout_s=CONVERGE_S,
                message="primary to observe both follower acks",
            )
            assert all(
                f["lag"] == 0 for f in replication_info(primary)["followers"]
            )
        finally:
            for follower in followers:
                follower.close()

    def test_retired_invalidate_record_is_committed_and_skipped(
        self, primary, fleet_tree, tmp_path
    ):
        """A primary that still logs ``invalidate`` records (one written
        before that control event was retired) keeps replicating: the
        follower commits the record, applies it as a no-op without an apply
        error, advances its cursor, and keeps tailing."""
        follower = follower_of(primary, copy.deepcopy(fleet_tree), tmp_path / "f")
        try:
            primary.publish_priors(sample_priors(fleet_tree))
            wait_follower_at(follower, 1)
            follower.build_forest(0, 0)
            # Version 2 in the shared sequence, as an older primary logged it.
            assert primary._control_log.append("invalidate", {"privacy_level": None}) == 2
            wait_until(
                lambda: replication_info(follower).get("cursor", 0) >= 2,
                timeout_s=CONVERGE_S,
                message="invalidate record to reach the follower",
            )
            info = replication_info(follower)
            assert info["apply_errors"] == 0
            assert info["records_applied"] == 2
            assert follower.durability_diagnostics()["control_log"]["last_version"] == 2
            assert follower.priors_version == 1
            _, cached = follower.build_forest_traced(0, 0)
            assert cached  # content-addressed: nothing to drop
            primary.publish_priors(sample_priors(fleet_tree, mass=4.0))  # v3
            wait_follower_at(follower, 3)
            assert_identical_forests([primary, follower])
        finally:
            follower.close()

    def test_follower_refuses_local_control_writes(
        self, primary, fleet_tree, tmp_path
    ):
        follower = follower_of(primary, copy.deepcopy(fleet_tree), tmp_path / "f")
        try:
            priors = sample_priors(fleet_tree)
            with pytest.raises(ReplicationRoleError) as error:
                follower.publish_priors(priors)
            assert isinstance(error.value, ValueError)  # HTTP maps it to 400
            assert follower.priors_version == 0  # nothing forked locally
        finally:
            follower.close()

    def test_follower_restart_resumes_from_cursor(
        self, primary, fleet_tree, tmp_path
    ):
        """Acceptance: a follower rebooted over its state_dir resumes from
        the durable cursor — the primary streams no backlog and the
        follower re-applies nothing."""
        state = tmp_path / "f"
        follower = follower_of(primary, copy.deepcopy(fleet_tree), state)
        source = follower._replication_client.source
        try:
            primary.publish_priors(sample_priors(fleet_tree, mass=4.0))
            wait_follower_at(follower, 1)
        finally:
            follower.close()
        assert read_cursor(state / CURSOR_FILENAME, source) == 1

        reborn = follower_of(primary, copy.deepcopy(fleet_tree), state)
        try:
            # Local WAL replay already restored the generation...
            assert reborn.priors_version == 1
            wait_until(
                lambda: replication_info(reborn).get("connected", False),
                timeout_s=CONVERGE_S,
                message="rebooted follower to resubscribe",
            )
            info = replication_info(reborn)
            # ...so the resumed session starts at the cursor and applies
            # nothing it already holds.
            assert info["cursor"] == 1
            assert info["records_applied"] == 0
            # New records still flow after the resume point.
            primary.publish_priors(sample_priors(fleet_tree, mass=5.0))
            wait_follower_at(reborn, 2)
            assert replication_info(reborn)["records_applied"] == 1
        finally:
            reborn.close()

    def test_divergent_follower_resets_to_primary(
        self, primary, fleet_tree, tmp_path
    ):
        """Acceptance: a follower that replayed versions the primary never
        committed rotates its log aside and adopts the primary's state at
        the primary's durable version (the split-brain rule, log-driven)."""
        primary.publish_priors(sample_priors(fleet_tree, mass=6.0))  # v1

        state = tmp_path / "f"
        state.mkdir()
        divergent = ControlLog(state / "control.log")
        for round_index in range(5):
            divergent.append(
                "publish_priors",
                {
                    "priors": sample_priors(fleet_tree, mass=2.0 + round_index),
                    "normalize": True,
                },
            )
        assert divergent.durable_version == 5
        divergent.close()

        follower = follower_of(primary, copy.deepcopy(fleet_tree), state)
        try:
            assert follower.priors_version == 5  # local replay of the fork
            wait_until(
                lambda: replication_info(follower).get("resets", 0) >= 1
                and follower.priors_version == 1,
                timeout_s=CONVERGE_S,
                message="split-brain reset to the primary's generation",
            )
            rotated = list(state.glob("control.log.split-brain*"))
            assert rotated, "divergent log was not rotated aside"
            info = replication_info(follower)
            assert info["cursor"] == 1
            # The reset itself is durable: a reboot replays the synthetic
            # record instead of the divergent fork.
            log = follower.durability_diagnostics()["control_log"]
            assert log["last_version"] == 1
            # The follower now serves the primary's priors byte-identically.
            assert_identical_forests([primary, follower])
        finally:
            follower.close()

    def test_fingerprint_mismatch_is_fenced(self, primary, fleet_tree, tmp_path):
        """A head built over a different pipeline config must never import
        the primary's records — the subscribe is rejected outright."""
        config = dict(POOL_CONFIG, num_targets=POOL_CONFIG["num_targets"] + 2)
        port = primary._replication_server.port
        stranger = EnginePool(
            copy.deepcopy(fleet_tree),
            ServerConfig(**config),
            state_dir=tmp_path / "stranger",
            num_shards=1,
            replicate_from=f"127.0.0.1:{port}",
        )
        stranger.wait_ready()
        try:
            primary.publish_priors(sample_priors(fleet_tree))
            wait_until(
                lambda: replication_info(stranger).get("rejected", 0) >= 1,
                timeout_s=CONVERGE_S,
                message="mismatched follower to be rejected",
            )
            info = replication_info(stranger)
            assert info["records_applied"] == 0
            assert stranger.priors_version == 0
            assert replication_info(primary)["rejects"] >= 1
        finally:
            stranger.close()


# --------------------------------------------------------------------- #
# HTTP admin surface: replication diagnostics and the follower 400
# --------------------------------------------------------------------- #


def _get_json(url):
    with urllib.request.urlopen(url, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


def _post_json(url, payload):
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request, timeout=30) as response:
        return json.loads(response.read().decode("utf-8"))


class TestDurabilityEndpoint:
    def test_roles_reported_and_follower_writes_rejected(
        self, primary, fleet_tree, tmp_path
    ):
        follower = follower_of(primary, copy.deepcopy(fleet_tree), tmp_path / "f")
        try:
            primary.publish_priors(sample_priors(fleet_tree))
            wait_follower_at(follower, 1)
            with CORGIHTTPServer(CORGIService(primary), port=0) as head_a, \
                    CORGIHTTPServer(CORGIService(follower), port=0) as head_b:
                primary_info = _get_json(head_a.url + "/admin/durability")
                assert primary_info["replication"]["role"] == "primary"
                assert primary_info["replication"]["last_version"] == 1
                follower_info = _get_json(head_b.url + "/admin/durability")
                assert follower_info["replication"]["role"] == "follower"
                assert follower_info["replication"]["cursor"] == 1
                assert follower_info["replication"]["lag"] == 0
                # A control write sent to the follower head is a 400, with
                # the primary named in the error body.
                priors = sample_priors(fleet_tree)
                with pytest.raises(urllib.error.HTTPError) as error:
                    _post_json(head_b.url + "/admin/priors", {"priors": priors})
                assert error.value.code == 400
                body = json.loads(error.value.read().decode("utf-8"))
                assert "primary" in body["detail"]
                # The same write against the primary head succeeds.
                _post_json(head_a.url + "/admin/priors", {"priors": priors})
                wait_follower_at(follower, 2)
        finally:
            follower.close()


# --------------------------------------------------------------------- #
# Push gateway over a follower head
# --------------------------------------------------------------------- #


class TestFollowerGateway:
    def test_gateway_on_a_follower_pushes_a_replicated_publish(
        self, primary, fleet_tree, tmp_path
    ):
        """A follower installs the primary's publish through
        ``apply_replicated_control``, never through
        ``CORGIService.publish_priors``; a push gateway over it must still
        push the matrix rebuilt on the new priors."""
        follower = follower_of(primary, copy.deepcopy(fleet_tree), tmp_path / "f")
        try:
            config = GatewayConfig(heartbeat_interval_s=30.0)
            with GatewayServer(CORGIService(follower), config) as gateway, GatewayClient(
                gateway.host, gateway.port
            ) as client:
                key = client.subscribe(0, 0)
                assert client.wait_forest(key, timeout_s=CONVERGE_S).generation == 1
                primary.publish_priors(sample_priors(fleet_tree, mass=3.0))
                pushed = client.wait_forest(key, min_generation=2, timeout_s=CONVERGE_S)
            assert (pushed.generation, pushed.reason) == (2, "priors")
            assert follower.priors_version == 1
            expected = forest_matrices(primary.build_forest(0, 0))
            matrices = pushed.forest().matrices
            assert set(matrices) == set(expected)
            for root_id, values in expected.items():
                assert np.array_equal(np.asarray(matrices[root_id].values), values)
        finally:
            follower.close()


# --------------------------------------------------------------------- #
# Shared snapshot store: warm-boot a new head from a durable sibling
# --------------------------------------------------------------------- #


class TestSeedStore:
    def test_follower_prewarms_read_only_from_primary_store(
        self, primary, fleet_tree, tmp_path
    ):
        """Acceptance: a same-fingerprint head pointed at a sibling's
        snapshot directory imports those forests at boot and serves them
        as cache hits — without ever writing to the shared directory."""
        primary.publish_priors(sample_priors(fleet_tree, mass=7.0))
        before = forest_matrices(primary.build_forest(0, 0))
        wait_until(
            lambda: (primary.durability_diagnostics()["store"] or {}).get("writes", 0)
            >= 1,
            timeout_s=CONVERGE_S,
            message="write-through persistence of the built key",
        )

        state = tmp_path / "f"
        state.mkdir()
        # Ship the durable log so the new head replays to the primary's
        # generation before its pre-warm captures the pool version.
        shutil.copy2(primary._state_dir / "control.log", state / "control.log")
        follower = follower_of(
            primary,
            copy.deepcopy(fleet_tree),
            state,
            seed_store_dir=primary._state_dir / "snapshots",
        )
        try:
            assert follower.priors_version == 1
            assert follower.wait_prewarmed(timeout_s=CONVERGE_S)
            prewarm = follower.durability_diagnostics()["prewarm"]
            assert (
                prewarm["store_prewarm_imported"] + prewarm["store_prewarm_prewarmed"]
                >= 1
            )
            forest, cached = follower.build_forest_traced(0, 0)
            assert cached, "seeded key cold-built on the follower"
            restored = forest_matrices(forest)
            assert set(restored) == set(before)
            for root_id, values in before.items():
                assert np.array_equal(restored[root_id], values), root_id
            seed = follower.durability_diagnostics()["seed_store"]
            assert seed["read_only"] is True
            assert seed["write_errors"] == 0
            # The follower's own write-through lands in its own store, not
            # the shared seed directory.
            assert seed["writes"] == 0
        finally:
            follower.close()


# --------------------------------------------------------------------- #
# kill -9 the primary mid-burst: the flagship convergence scenario
# --------------------------------------------------------------------- #


def _primary_driver(state_dir, port, total_publishes):
    """Child-process primary: publish a burst, then idle until SIGKILL'd.

    Rebuilds the deterministic 7-leaf test tree (the conftest fixture
    cannot cross the fork) — the fingerprint excludes priors, so followers
    built from the same bare tree and config subscribe cleanly.
    """
    tree = tree_for_point(LatLng(37.77, -122.42), height=1, root_resolution=8)
    pool = EnginePool(
        tree,
        ServerConfig(**POOL_CONFIG),
        state_dir=state_dir,
        num_shards=1,
        replication_port=port,
    )
    pool.wait_ready()
    leaves = sorted(str(leaf.node_id) for leaf in tree.leaves())
    for round_index in range(total_publishes):
        priors = {
            leaf: (2.0 + round_index if position == 0 else 1.0)
            for position, leaf in enumerate(leaves)
        }
        pool.publish_priors(priors, normalize=True)
        time.sleep(0.01)
    time.sleep(CONVERGE_S)  # idle; the parent's SIGKILL is the exit path


class TestPrimaryKillMidBurst:
    def test_followers_converge_on_durable_prefix_and_primary_resumes(
        self, tmp_path
    ):
        """Acceptance: SIGKILL the primary mid-burst.  No follower holds a
        record outside the primary's durable on-disk prefix, and a primary
        rebooted over the same log resumes the sequence with both
        followers converging to it."""
        primary_state = tmp_path / "primary"
        port = free_port()
        context = multiprocessing.get_context("fork")
        driver = context.Process(
            target=_primary_driver,
            args=(primary_state, port, 40),
            daemon=False,
        )
        driver.start()

        tree = tree_for_point(LatLng(37.77, -122.42), height=1, root_resolution=8)
        followers = [
            make_head(
                copy.deepcopy(tree),
                tmp_path / f"follower{i}",
                replicate_from=f"127.0.0.1:{port}",
            )
            for i in range(2)
        ]
        reborn = None
        try:
            wait_until(
                lambda: all(
                    replication_info(f).get("records_applied", 0) >= 5
                    for f in followers
                ),
                timeout_s=CONVERGE_S,
                message="both followers applying mid-burst records",
            )
            driver.kill()  # SIGKILL: no drain, no goodbye, maybe a torn tail
            driver.join(timeout=30)
            assert not driver.is_alive()

            # Store-and-forward invariant: everything a follower holds is
            # within the primary's durable prefix.  (Replaying the log also
            # truncates any torn tail, exactly as the reborn primary will.)
            wal = ControlLog(primary_state / "control.log")
            durable = wal.durable_version
            wal.close()
            assert durable >= 5
            for follower in followers:
                assert follower.priors_version <= durable
                assert replication_info(follower)["cursor"] <= durable

            # Reboot the primary over the same log and port: it replays the
            # durable prefix and the followers reconnect and converge.
            reborn = make_head(
                copy.deepcopy(tree), primary_state, replication_port=port
            )
            assert reborn.priors_version == durable
            for follower in followers:
                wait_follower_at(follower, durable)
                assert replication_info(follower)["resets"] == 0
            # The resumed sequence keeps flowing: one more publish lands on
            # every head.
            reborn.publish_priors(sample_priors(tree, mass=9.0))
            for follower in followers:
                wait_follower_at(follower, durable + 1)
            assert_identical_forests([reborn] + followers)
        finally:
            if reborn is not None:
                reborn.close()
            for follower in followers:
                follower.close()
            if driver.is_alive():
                driver.kill()
                driver.join(timeout=10)
