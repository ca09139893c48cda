"""Tests for the shard transport (repro.service.wire / shard / netshard).

Covers the acceptance surface: a pool with ≥2 socket shards serves a
mixed-key burst byte-identical to a single-process engine; SIGKILLing a
remote shard mid-burst loses zero requests (fail-in-flight + retry on the
ring sibling); draining a remote shard hands its hot keys warm to a
sibling (cache hits observed) — in both directions, remote → local and
local → remote.  The framed wire codec's strict-rejection behaviour and
the server's never-crash contract against garbage byte streams are tested
directly; the hypothesis fuzz properties live in
``test_wire_properties.py``.

All synchronization goes through the conftest helpers (``run_burst``,
``wait_until``) — no ad-hoc sleeps.
"""

import copy
import json
import multiprocessing
import os
import signal
import socket
import struct
import time

import numpy as np
import pytest

from helpers_concurrency import free_port, run_burst, wait_until
from repro.core.exceptions import InfeasibleMatrixError
from repro.server.engine import ForestEngine, ServerConfig
from repro.server.messages import ObfuscationRequest
from repro.service.handoff import (
    CacheSnapshot,
    SnapshotEntry,
    SnapshotFormatError,
    encode_snapshot,
)
from repro.service.netshard import parse_shard_hosts, serve_netshard
from repro.service.pool import EnginePool
from repro.service.service import CORGIService
from repro.service.shard import (
    _ERROR_REGISTRY,
    RemoteShardError,
    ShardSpec,
    decode_error,
    decode_request,
    decode_result,
    encode_error,
    encode_request,
    encode_result,
)
from repro.service.wire import (
    FRAME_MAGIC,
    FrameAssembler,
    FrameFormatError,
    decode_frame,
    encode_frame,
)

#: Fast engine settings shared by every server/pool in this module.
POOL_CONFIG = dict(epsilon=2.0, num_targets=5, robust_iterations=1)

#: Mixed-key burst: distinct ε per request, spread across the ring.
MIXED_EPSILONS = (1.5, 1.55, 1.6, 1.7, 1.75, 1.8, 1.9, 2.05)


@pytest.fixture()
def pool_tree(small_tree_with_priors):
    """A private copy of the priors-annotated tree (pools may mutate priors)."""
    return copy.deepcopy(small_tree_with_priors)


@pytest.fixture()
def shard_server(pool_tree):
    """Factory launching netshard server processes; kills leftovers on exit."""
    processes = []

    def launch(*, tree=None, shard_id=0, chaos=0.0, port=0):
        context = multiprocessing.get_context()
        port_queue = context.Queue()
        spec = ShardSpec(
            shard_id=shard_id,
            tree=tree if tree is not None else pool_tree,
            config=ServerConfig(**POOL_CONFIG),
            chaos_build_delay_s=chaos,
        )
        process = context.Process(
            target=serve_netshard,
            args=(spec, "127.0.0.1", port, port_queue),
            daemon=True,
        )
        process.start()
        bound_port = port_queue.get(timeout=60)
        processes.append(process)
        return process, bound_port

    yield launch
    for process in processes:
        if process.is_alive():
            process.kill()
        process.join(timeout=10)


def remote_pool(pool_tree, ports, *, num_local=0, **kwargs):
    kwargs.setdefault("connect_timeout_s", 2.0)
    return EnginePool(
        pool_tree,
        ServerConfig(**POOL_CONFIG),
        num_shards=num_local,
        remote_shards=[("127.0.0.1", port) for port in ports],
        **kwargs,
    )


def keys_homed_on(pool, slot, count=2):
    """Distinct ε values whose home shard is *slot* (deterministic scan)."""
    epsilons, epsilon = [], 1.31
    while len(epsilons) < count:
        if pool.shard_for(1, 1, epsilon=round(epsilon, 2)) == slot:
            epsilons.append(round(epsilon, 2))
        epsilon += 0.01
    return epsilons


# --------------------------------------------------------------------- #
# Frame + message codec (deterministic; fuzz lives in test_wire_properties)
# --------------------------------------------------------------------- #


class TestFrameCodec:
    def test_roundtrip(self):
        message = {"kind": "request", "op": "ping", "ticket": 3, "payload": None}
        assert decode_frame(encode_frame(message)) == message

    def test_garbage_prefix_rejected(self):
        blob = encode_frame({"kind": "bye"})
        with pytest.raises(FrameFormatError, match="magic"):
            decode_frame(b"HTTP" + blob[4:])

    def test_truncated_frame_rejected(self):
        blob = encode_frame({"kind": "heartbeat", "seq": 1})
        for cut in (1, 7, len(blob) - 1):
            with pytest.raises(FrameFormatError):
                decode_frame(blob[:cut])

    def test_trailing_bytes_rejected(self):
        blob = encode_frame({"kind": "bye"})
        with pytest.raises(FrameFormatError, match="trailing"):
            decode_frame(blob + b"x")

    def test_oversized_length_rejected(self):
        header = struct.pack(">4sI", FRAME_MAGIC, (1 << 31) - 1)
        assembler = FrameAssembler()
        assembler.feed(header)
        with pytest.raises(FrameFormatError, match="MAX_FRAME_BYTES"):
            assembler.next_message()

    def test_non_object_payload_rejected(self):
        payload = json.dumps([1, 2, 3]).encode("utf-8")
        blob = struct.pack(">4sI", FRAME_MAGIC, len(payload)) + payload
        with pytest.raises(FrameFormatError, match="object"):
            decode_frame(blob)

    def test_assembler_handles_byte_dribble_and_coalesced_frames(self):
        first = encode_frame({"kind": "heartbeat", "seq": 1})
        second = encode_frame({"kind": "bye"})
        assembler = FrameAssembler()
        for index in range(len(first)):  # one byte at a time
            assembler.feed(first[index : index + 1])
        assembler.feed(second)  # then a whole frame at once
        assert assembler.next_message() == {"kind": "heartbeat", "seq": 1}
        assert assembler.next_message() == {"kind": "bye"}
        assert assembler.next_message() is None
        assembler.expect_end()


class TestMessageCodec:
    @pytest.mark.parametrize(
        "op,payload",
        [
            ("build", (1, 2, 2.5)),
            ("set_priors", ({"a": 0.25, "b": 0.75}, True, 7)),
            ("export_cache", 1024),
            ("import_cache", b'{"format": "corgi-cache-snapshot"}'),
            ("diagnostics", None),
            ("ping", None),
        ],
    )
    def test_request_roundtrip(self, op, payload):
        message = decode_frame(encode_frame(encode_request(op, 11, payload)))
        assert decode_request(message) == (op, 11, payload)

    def test_build_result_preserves_float_bits(self):
        from repro.core.matrix import ObfuscationMatrix

        rng = np.random.default_rng(5)
        values = rng.random((3, 3))
        values = values / values.sum(axis=1, keepdims=True)
        matrix = ObfuscationMatrix(
            values=values, node_ids=["a", "b", "c"], level=1, epsilon=1.7, delta=1
        )
        result = {
            "privacy_level": 1,
            "delta": 1,
            "epsilon": 1.7,
            "matrices": {"root": matrix},
            "cached": False,
        }
        wire = json.loads(json.dumps(encode_result("build", result)))
        decoded = decode_result("build", wire)
        assert np.array_equal(decoded["matrices"]["root"].values, values)

    def test_malformed_request_payload_is_client_error(self):
        message = {"kind": "request", "op": "build", "ticket": 4, "payload": {"nope": 1}}
        with pytest.raises(FrameFormatError):
            decode_request(message)

    def test_error_registry_preserves_family(self):
        class ExoticSnapshotError(SnapshotFormatError):
            pass

        class ExoticValueError(ValueError):
            pass

        class Mystery(Exception):
            pass

        assert isinstance(decode_error(encode_error(ExoticSnapshotError("x"))), SnapshotFormatError)
        assert isinstance(decode_error(encode_error(ExoticValueError("x"))), ValueError)
        assert isinstance(decode_error(encode_error(Mystery("x"))), RemoteShardError)
        assert isinstance(decode_error("garbage"), RemoteShardError)

    @pytest.mark.parametrize(
        "cls", [cls for _, cls in _ERROR_REGISTRY], ids=[name for name, _ in _ERROR_REGISTRY]
    )
    def test_error_registry_roundtrips_type_message_and_solver_status(self, cls):
        """Every registered type crosses the wire as itself: a local shard
        used to re-raise these exactly through pickle, and now shares this
        codec with remote shards."""
        if cls is KeyError:
            error = KeyError("leaf-9")
        elif cls is InfeasibleMatrixError:
            error = InfeasibleMatrixError("robust LP infeasible", solver_status="infeasible")
        else:
            error = cls(f"{cls.__name__} in shard")
        wire = json.loads(json.dumps(encode_error(error)))
        decoded = decode_error(wire)
        assert type(decoded) is cls
        assert str(decoded) == str(error)
        assert getattr(decoded, "solver_status", None) == getattr(error, "solver_status", None)

    def test_error_type_unknown_to_this_build_decodes_as_remote_error(self):
        # A peer on another release may name a type this registry does not
        # hold (SolverBackendUnavailableError left it with the native
        # backend); it arrives as a RemoteShardError that names it.
        decoded = decode_error(
            {"type": "SolverBackendUnavailableError", "message": "highspy is not installed"}
        )
        assert type(decoded) is RemoteShardError
        assert str(decoded) == "SolverBackendUnavailableError: highspy is not installed"

    def test_parse_shard_hosts(self):
        assert parse_shard_hosts("a:1, b:2,") == [("a", 1), ("b", 2)]
        for bad in ("", "hostonly", "host:", "host:notaport", "host:0", "host:70000"):
            with pytest.raises(ValueError):
                parse_shard_hosts(bad)

    @pytest.mark.parametrize("address", [("127.0.0.1", 70000), ("h", 0), ("", 5)])
    def test_bad_address_pairs_rejected_before_any_shard_spawns(self, pool_tree, address, monkeypatch):
        """A (host, port) pair is checked as strictly as its host:port string."""

        def spawn(*_args):
            raise AssertionError("a shard spawned before its address was checked")

        monkeypatch.setattr(EnginePool, "_spawn", spawn)
        with pytest.raises(ValueError):
            EnginePool(pool_tree, ServerConfig(**POOL_CONFIG), num_shards=1, remote_shards=[address])


# --------------------------------------------------------------------- #
# Remote pools: byte identity and mixed slots
# --------------------------------------------------------------------- #


class TestRemotePool:
    def test_two_socket_shards_serve_mixed_burst_byte_identical(
        self, pool_tree, shard_server, small_tree_with_priors
    ):
        """Acceptance: the socket transport is invisible in the response bytes."""
        ports = [shard_server(shard_id=index)[1] for index in range(2)]
        engine = ForestEngine(small_tree_with_priors, ServerConfig(**POOL_CONFIG))
        with remote_pool(pool_tree, ports) as pool:
            outcome = run_burst(
                [
                    lambda epsilon=epsilon: pool.build_forest(1, 1, epsilon=epsilon)
                    for epsilon in MIXED_EPSILONS
                ],
                timeout_s=120,
            ).raise_errors()
            # Both socket shards took part of the burst.
            dispatched = [info["dispatched"] for info in pool.shard_states()]
            assert all(count > 0 for count in dispatched), dispatched
            for forest, epsilon in zip(outcome.results, MIXED_EPSILONS):
                single = engine.build_forest(1, 1, epsilon=epsilon)
                assert {root for root, _ in forest} == {root for root, _ in single}
                for root_id, matrix in single:
                    remote_matrix = dict(forest)[root_id]
                    assert np.array_equal(matrix.values, remote_matrix.values)

    def test_service_over_socket_pool_byte_identical_response(
        self, pool_tree, shard_server, small_tree_with_priors
    ):
        ports = [shard_server(shard_id=index)[1] for index in range(2)]
        request = ObfuscationRequest(privacy_level=1, delta=1)
        single = CORGIService(
            ForestEngine(small_tree_with_priors, ServerConfig(**POOL_CONFIG))
        ).handle(request)
        with remote_pool(pool_tree, ports) as pool:
            pooled = CORGIService(pool).handle(request)
        assert json.dumps(pooled.to_dict(), sort_keys=True) == json.dumps(
            single.to_dict(), sort_keys=True
        )

    def test_mixed_local_and_remote_slots(self, pool_tree, shard_server):
        _, port = shard_server(port=free_port())
        with remote_pool(pool_tree, [port], num_local=1) as pool:
            states = pool.shard_states()
            assert [info.get("remote", False) for info in states] == [False, True]
            for epsilon in MIXED_EPSILONS:
                pool.build_forest(1, 1, epsilon=epsilon)
            dispatched = [info["dispatched"] for info in pool.shard_states()]
            assert all(count > 0 for count in dispatched), dispatched
            diagnostics = pool.cache_diagnostics()
            assert diagnostics["pool"]["local_shards"] == 1
            assert diagnostics["pool"]["remote_shards"] == [f"127.0.0.1:{port}"]
            assert diagnostics["forest_entries"] == len(MIXED_EPSILONS)

    def test_remote_request_errors_arrive_typed(self, pool_tree, shard_server):
        _, port = shard_server()
        with remote_pool(pool_tree, [port]) as pool:
            with pytest.raises(ValueError):
                pool.build_forest(1, -1)
            with pytest.raises(ValueError):
                pool.build_forest(9, 0)
            # The slot survived both error answers.
            assert pool.shard_states()[0]["state"] == "ready"

    def test_multi_megabyte_frame_survives_the_socket(self, pool_tree, shard_server):
        """Hand-off snapshots run to megabytes; sends must be all-or-nothing
        (a partial write would desync the length-prefixed stream forever)."""
        _, port = shard_server()
        entries = tuple(
            SnapshotEntry(
                privacy_level=99,  # no such level on this tree: imported as a cheap skip
                delta=1,
                epsilon=1.0 + index * 1e-6,
            )
            for index in range(25_000)
        )
        blob = encode_snapshot(CacheSnapshot(shard_slot=0, priors_version=0, entries=entries))
        assert len(blob) > 1_500_000  # far beyond any kernel socket buffer
        with remote_pool(pool_tree, [port]) as pool:
            handle = pool._shards[0]
            ticket = pool._next_ticket()
            pending = handle.submit("import_cache", blob, ticket)
            assert pending.event.wait(timeout=60), "large frame never answered"
            assert pending.error is None
            assert pending.result == {"imported": 0, "prewarmed": 0, "skipped": 25_000}
            # The stream is still in sync afterwards.
            pool.build_forest(1, 1)

    def test_head_restart_resets_unpublished_priors_generation(
        self, pool_tree, shard_server, small_tree_with_priors
    ):
        """A replica that outlives its head node keeps live-published priors
        the new pool never saw; the new pool must reset it to its own tree
        priors instead of serving split-brain."""
        _, port = shard_server()
        first_head = remote_pool(copy.deepcopy(pool_tree), [port])
        try:
            first_head.wait_ready(30)
            first_head.build_forest(1, 1)
            leaves = [leaf.node_id for leaf in pool_tree.leaves()]
            first_head.publish_priors({leaf: 1.0 + index for index, leaf in enumerate(leaves)})
            first_head.build_forest(1, 1)  # re-cached under the replica's v1 priors
        finally:
            first_head.close()  # bye: the replica survives, still at v1
        with remote_pool(copy.deepcopy(small_tree_with_priors), [port]) as second_head:
            handle = second_head._shards[0]
            with handle.lock:
                assert handle.priors_version == 0  # reset, not trusted
            forest = second_head.build_forest(1, 1)
        # Without the reset this would be the replica's forest built under
        # priors this pool never published.
        reference = ForestEngine(copy.deepcopy(small_tree_with_priors), ServerConfig(**POOL_CONFIG))
        assert {root: m.to_dict() for root, m in forest} == {
            root: m.to_dict() for root, m in reference.build_forest(1, 1)
        }

    def test_retired_invalidate_op_is_answered_as_unknown(self, pool_tree, shard_server):
        """A head built before ``invalidate`` was retired may still send it:
        the shard answers a typed ValueError and keeps serving."""
        _, port = shard_server()
        with remote_pool(pool_tree, [port]) as pool:
            handle = pool._shards[0]
            pending = handle.submit("invalidate", None, pool._next_ticket())
            assert pending.event.wait(timeout=60), "retired op never answered"
            assert isinstance(pending.error, ValueError)
            assert "unknown shard op" in str(pending.error)
            pool.build_forest(1, 1)

    def test_priors_published_over_the_socket(self, pool_tree, shard_server):
        _, port = shard_server()
        with remote_pool(pool_tree, [port]) as pool:
            _, cached = pool.build_forest_traced(1, 1)
            assert cached is False
            _, cached = pool.build_forest_traced(1, 1)
            assert cached is True  # warm before the update
            leaves = [leaf.node_id for leaf in pool_tree.leaves()]
            masses = {leaf: 1.0 + index for index, leaf in enumerate(leaves)}
            pool.publish_priors(masses)
            # Only a shard that answered the broadcast has its version moved.
            assert pool._shards[0].priors_version == 1
            _, cached = pool.build_forest_traced(1, 1)
            assert cached is False  # the update re-keyed the remote cache
            # And the parent-side published priors reflect the new masses.
            root_id = pool_tree.root.node_id
            published = pool.publish_leaf_priors(root_id)
            assert published and abs(sum(published.values()) - 1.0) < 1e-9


# --------------------------------------------------------------------- #
# Failover: SIGKILL, frozen server, bounded reconnect
# --------------------------------------------------------------------- #


class TestRemoteFailover:
    def test_kill_remote_shard_mid_burst_loses_zero_requests(
        self, pool_tree, shard_server
    ):
        """Acceptance: SIGKILLing a socket shard mid-burst loses nothing."""
        servers = [shard_server(shard_id=index, chaos=0.3) for index in range(2)]
        ports = [port for _, port in servers]
        with remote_pool(
            pool_tree, ports, respawn_limit=1, liveness_timeout_s=1.0
        ) as pool:
            victim = pool.shard_for(1, 1, epsilon=MIXED_EPSILONS[0])
            victim_process = servers[victim][0]

            def assassin():
                time.sleep(0.15)  # land inside the chaos-widened build window
                victim_process.kill()

            outcome = run_burst(
                [
                    lambda epsilon=epsilon: pool.build_forest(1, 1, epsilon=epsilon)
                    for epsilon in MIXED_EPSILONS
                ]
                + [assassin],
                timeout_s=120,
            )
            outcome.raise_errors()
            forests = [result for result in outcome.results[: len(MIXED_EPSILONS)]]
            assert all(forest is not None for forest in forests)
            # The redial is bounded: with the server gone the slot goes dead.
            wait_until(
                lambda: pool.shard_states()[victim]["state"] == "dead",
                timeout_s=30,
                message="the killed remote slot to exhaust its reconnect budget",
            )
            stats = pool.pool_stats()
            assert stats["crash_failures"] >= 1
            assert stats["retries"] >= 1
            # The surviving shard keeps serving.
            pool.build_forest(1, 1, epsilon=2.2)

    @pytest.mark.parametrize("placement", ["remote", "local"])
    def test_frozen_server_detected_by_heartbeat_and_failed_over(
        self, pool_tree, shard_server, placement
    ):
        """SIGSTOP leaves the socket alive — only heartbeats notice.  A local
        child and a remote server are frozen alike and fail over alike."""
        if placement == "remote":
            servers = [shard_server(shard_id=index) for index in range(2)]
            ports = [port for _, port in servers]
            num_local = 0
        else:
            ports, num_local = [], 2
        with remote_pool(
            pool_tree,
            ports,
            num_local=num_local,
            respawn_limit=0,
            liveness_timeout_s=0.8,
            request_timeout_s=30,
        ) as pool:
            epsilon = 1.5
            victim = pool.shard_for(1, 1, epsilon=epsilon)
            if placement == "remote":
                victim_process = servers[victim][0]
            else:
                victim_process = pool._shards[victim].process
            pool.build_forest(1, 1, epsilon=epsilon)
            os.kill(victim_process.pid, signal.SIGSTOP)
            try:
                start = time.monotonic()
                forest = pool.build_forest(1, 1, epsilon=epsilon)  # fails over
                elapsed = time.monotonic() - start
                assert forest is not None
                assert elapsed < 30
                wait_until(
                    lambda: pool.shard_states()[victim]["state"] == "dead",
                    timeout_s=30,
                    message="the frozen slot to be declared dead",
                )
                if placement == "local":
                    # The pool owns a local child: the frozen one is killed
                    # by the crash path rather than left behind.
                    wait_until(
                        lambda: not victim_process.is_alive(),
                        timeout_s=10,
                        message="the frozen local child to be killed",
                    )
            finally:
                if victim_process.is_alive():
                    os.kill(victim_process.pid, signal.SIGCONT)

    def test_reconnect_after_connection_loss_finds_cache_warm(
        self, pool_tree, shard_server
    ):
        """The server keeps its engine across redials: a blip costs no rebuild."""
        _, port = shard_server()
        with remote_pool(pool_tree, [port], respawn_limit=3) as pool:
            _, cached = pool.build_forest_traced(1, 1)
            assert cached is False
            handle = pool._shards[0]
            generation = handle.info()["generation"]
            handle.connection.close()  # sever the connection, not the server
            wait_until(
                lambda: handle.info()["generation"] > generation
                and handle.info()["state"] == "ready",
                timeout_s=15,
                message="the remote slot to redial",
            )
            assert handle.info()["reconnects"] >= 1
            _, cached = pool.build_forest_traced(1, 1)
            assert cached is True  # the remote forest cache survived the blip

    def test_unreachable_host_exhausts_respawn_budget(self, pool_tree, shard_server):
        _, port = shard_server()
        dead_port = free_port()  # nothing listens here
        pool = remote_pool(
            pool_tree,
            [port, dead_port],
            respawn_limit=1,
            connect_timeout_s=0.5,
        )
        try:
            pool.wait_ready(timeout_s=60)  # returns once the dead slot is terminal
            wait_until(
                lambda: pool.shard_states()[1]["state"] == "dead",
                timeout_s=30,
                message="the unreachable slot to be declared dead",
            )
            pool.build_forest(1, 1)  # the reachable shard serves everything
        finally:
            pool.close()


# --------------------------------------------------------------------- #
# Drain across the socket: warm hand-off in both directions
# --------------------------------------------------------------------- #


class TestRemoteDrain:
    def test_drain_remote_shard_hands_hot_keys_warm_to_local_sibling(
        self, pool_tree, shard_server
    ):
        """Acceptance: remote retires warm into a local sibling (cache hits)."""
        _, port = shard_server()
        with remote_pool(pool_tree, [port], num_local=1) as pool:
            remote_slot = 1
            epsilons = keys_homed_on(pool, remote_slot, count=2)
            for epsilon in epsilons:
                pool.build_forest(1, 1, epsilon=epsilon)
            report = pool.drain(remote_slot)
            assert report["handoff_keys"] == len(epsilons)
            assert report["imported"] == len(epsilons)
            assert pool.shard_states()[remote_slot]["state"] == "drained"
            for epsilon in epsilons:
                _, cached = pool.build_forest_traced(1, 1, epsilon=epsilon)
                assert cached is True  # served warm by the local sibling
            diagnostics = pool.cache_diagnostics()
            assert diagnostics["handoff_imports"] >= len(epsilons)

    def test_drain_local_shard_hands_hot_keys_warm_to_remote_sibling(
        self, pool_tree, shard_server
    ):
        """And vice versa: a local slot retires warm into the socket shard."""
        _, port = shard_server()
        with remote_pool(pool_tree, [port], num_local=1) as pool:
            local_slot = 0
            epsilons = keys_homed_on(pool, local_slot, count=2)
            for epsilon in epsilons:
                pool.build_forest(1, 1, epsilon=epsilon)
            report = pool.drain(local_slot)
            assert report["handoff_keys"] == len(epsilons)
            assert report["imported"] == len(epsilons)
            for epsilon in epsilons:
                _, cached = pool.build_forest_traced(1, 1, epsilon=epsilon)
                assert cached is True  # served warm by the remote sibling
            # Only the remote shard answers diagnostics now, so the import
            # counters we see are the socket shard's own.
            diagnostics = pool.cache_diagnostics()
            assert diagnostics["handoff_imports"] >= len(epsilons)

    def test_drained_remote_slot_respawns_against_surviving_server(
        self, pool_tree, shard_server
    ):
        """Retiring a remote slot says *bye*, never *shutdown*: the replica
        process belongs to its host's supervisor, so the drained slot stays
        genuinely revivable — and comes back with its cache intact."""
        process, port = shard_server()
        with remote_pool(pool_tree, [port], num_local=1) as pool:
            remote_slot = 1
            epsilon = keys_homed_on(pool, remote_slot, count=1)[0]
            pool.build_forest(1, 1, epsilon=epsilon)
            pool.drain(remote_slot)
            assert process.is_alive()  # the server outlives its retired slot
            pool.respawn(remote_slot)
            wait_until(
                lambda: pool.shard_states()[remote_slot]["state"] == "ready",
                timeout_s=15,
                message="the respawned remote slot to redial the server",
            )
            _, cached = pool.build_forest_traced(1, 1, epsilon=epsilon)
            assert cached is True  # the replica kept its cache across retirement

    def test_drain_mid_burst_loses_no_requests(self, pool_tree, shard_server):
        ports = [shard_server(shard_id=index, chaos=0.05)[1] for index in range(2)]
        with remote_pool(pool_tree, ports) as pool:
            victim = pool.shard_for(1, 1, epsilon=MIXED_EPSILONS[0])
            drain_report = {}

            def drainer():
                time.sleep(0.1)
                drain_report.update(pool.drain(victim, timeout_s=60))

            outcome = run_burst(
                [
                    lambda epsilon=epsilon: pool.build_forest(1, 1, epsilon=epsilon)
                    for epsilon in MIXED_EPSILONS
                ]
                + [drainer],
                timeout_s=120,
            )
            outcome.raise_errors()
            assert drain_report["slot"] == victim
            assert pool.shard_states()[victim]["state"] == "drained"


# --------------------------------------------------------------------- #
# Server robustness: garbage in, typed answers (or dropped peers) out
# --------------------------------------------------------------------- #


def _read_frames(sock, *, count=1, timeout_s=10.0, skip_kinds=("heartbeat",)):
    """Collect *count* non-heartbeat frames from a raw client socket."""
    assembler = FrameAssembler()
    sock.settimeout(0.2)
    frames = []
    deadline = time.monotonic() + timeout_s
    while len(frames) < count and time.monotonic() < deadline:
        try:
            chunk = sock.recv(1 << 16)
        except socket.timeout:
            continue
        if not chunk:
            break
        assembler.feed(chunk)
        while True:
            message = assembler.next_message()
            if message is None:
                break
            if message.get("kind") in skip_kinds:
                continue
            frames.append(message)
    return frames


class TestServerRobustness:
    def test_garbage_stream_gets_protocol_error_and_server_survives(
        self, pool_tree, shard_server
    ):
        process, port = shard_server()
        with socket.create_connection(("127.0.0.1", port), timeout=5) as raw:
            frames = _read_frames(raw, count=1)
            assert frames and frames[0]["kind"] == "ready"
            raw.sendall(b"GET / HTTP/1.1\r\nHost: nope\r\n\r\n")
            frames = _read_frames(raw, count=1)
            assert frames and frames[0]["kind"] == "protocol_error"
        assert process.is_alive()
        # A well-behaved pool can still use the shard afterwards.
        with remote_pool(pool_tree, [port]) as pool:
            pool.build_forest(1, 1)

    def test_malformed_op_payload_is_typed_answer_not_death(
        self, pool_tree, shard_server
    ):
        process, port = shard_server()
        with socket.create_connection(("127.0.0.1", port), timeout=5) as raw:
            assert _read_frames(raw, count=1)[0]["kind"] == "ready"
            raw.sendall(
                encode_frame(
                    {"kind": "request", "op": "build", "ticket": 9, "payload": {"bad": 1}}
                )
            )
            frames = _read_frames(raw, count=1)
            assert frames, "expected a typed error response"
            response = frames[0]
            assert response["kind"] == "response"
            assert response["ticket"] == 9
            assert response["status"] == "error"
            # FrameFormatError is a ValueError: the 400 class on every wire.
            assert response["error"]["type"] in ("FrameFormatError", "ValueError")
        assert process.is_alive()

    def test_malformed_snapshot_blob_is_answer_not_death(self, pool_tree, shard_server):
        process, port = shard_server()
        with socket.create_connection(("127.0.0.1", port), timeout=5) as raw:
            assert _read_frames(raw, count=1)[0]["kind"] == "ready"
            raw.sendall(
                encode_frame(
                    {
                        "kind": "request",
                        "op": "import_cache",
                        "ticket": 5,
                        "payload": {"snapshot": '{"format": "wrong"}'},
                    }
                )
            )
            frames = _read_frames(raw, count=1)
            assert frames and frames[0]["status"] == "error"
            assert frames[0]["error"]["type"] == "SnapshotFormatError"
        assert process.is_alive()

    def test_server_idle_timeout_frees_the_connection_slot(self):
        # Covered implicitly by reconnect tests; here we only pin the knob
        # so a silent client cannot pin the server forever.
        from repro.service import wire

        assert wire.CLIENT_IDLE_TIMEOUT_S > wire.LIVENESS_TIMEOUT_S


def test_free_port_never_hands_out_duplicates():
    """The TOCTOU fix: rapid successive calls must not repeat a port."""
    ports = [free_port() for _ in range(32)]
    assert len(set(ports)) == len(ports)
