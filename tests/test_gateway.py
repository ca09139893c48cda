"""Tests for the asyncio push gateway (`repro.service.gateway`).

Covers the held-connection protocol end to end — subscribe → pushed
snapshot, push-on-invalidate/priors byte-identical to a direct build,
generation-tag monotonicity, slow-consumer eviction, heartbeats, protocol
error answers — the async single-flight rendezvous of
:class:`AsyncCORGIService` (coalescing, follower deadline, wrapped
re-raise, generation-aware staleness guard), and the acceptance storm:
many concurrently held connections surviving an invalidate storm with the
refreshed matrix delivered exactly once per subscriber.

All waiting is event-driven (`wait_forest`, `pump_until`) or uses the
shared `wait_until` helper — no ad-hoc sleeps.  The storm size defaults
to 200 connections locally; CI's `gateway-stress` job pins
``GATEWAY_STORM_CONNECTIONS=1000``.
"""

import asyncio
import json
import os
import socket
import threading

import pytest

from helpers_concurrency import wait_until
from repro.client.gateway import AsyncGatewayClient, GatewayClient, _PushStore
from repro.server.engine import ForestEngine, ServerConfig
from repro.service.gateway import (
    AsyncCORGIService,
    GatewayConfig,
    GatewayProtocolError,
    GatewayServer,
    decode_gateway_frame,
    encode_gateway_frame,
)
from repro.service.service import CORGIService, ServiceBuildTimeoutError, ServiceConfig

KEY = (1, 1, 2.0)  # the normalized form of privacy_level=1, delta=1


@pytest.fixture()
def engine(small_tree_with_priors):
    return ForestEngine(
        small_tree_with_priors,
        ServerConfig(epsilon=2.0, num_targets=5, robust_iterations=1),
    )


@pytest.fixture()
def service(engine):
    return CORGIService(engine)


@pytest.fixture()
def gateway(service):
    server = GatewayServer(
        service, GatewayConfig(heartbeat_interval_s=0.1, queue_limit=8)
    ).start()
    yield server
    server.close()


def direct_response_bytes(service, privacy_level=1, delta=1) -> str:
    """The canonical wire bytes of a direct (non-gateway) build."""
    forest = service.generate_privacy_forest(privacy_level, delta)
    return json.dumps(CORGIService._package(forest).to_dict(), sort_keys=True)


# --------------------------------------------------------------------- #
# End-to-end push flow
# --------------------------------------------------------------------- #


class TestPushEndToEnd:
    def test_subscribe_pushes_snapshot_byte_identical_to_direct_build(
        self, service, gateway
    ):
        with GatewayClient(gateway.host, gateway.port) as client:
            key = client.subscribe(1, 1)
            assert key == KEY  # server resolved the default epsilon
            push = client.wait_forest(key)
            assert push.generation == 1
            assert json.dumps(push.response, sort_keys=True) == direct_response_bytes(
                service
            )

    def test_invalidate_pushes_refresh_byte_identical_to_direct_build(
        self, service, gateway
    ):
        with GatewayClient(gateway.host, gateway.port) as client:
            key = client.subscribe(1, 1)
            first = client.wait_forest(key)
            service.invalidate()
            refreshed = client.wait_forest(key, min_generation=first.generation + 1)
            assert refreshed.reason == "invalidate"
            # The engine cache was flushed, so this is a *rebuild* — and the
            # pipeline is deterministic, so the bytes must match a direct
            # post-invalidate build exactly.
            assert json.dumps(
                refreshed.response, sort_keys=True
            ) == direct_response_bytes(service)

    def test_priors_publish_pushes_rebuilt_matrix(self, small_tree_with_priors, service, gateway):
        with GatewayClient(gateway.host, gateway.port) as client:
            key = client.subscribe(1, 1)
            first = client.wait_forest(key)
            new_priors = {
                leaf.node_id: leaf.prior + 0.002
                for leaf in small_tree_with_priors.leaves()
            }
            service.publish_priors(new_priors)
            refreshed = client.wait_forest(key, min_generation=first.generation + 1)
            assert refreshed.reason == "priors"
            assert json.dumps(
                refreshed.response, sort_keys=True
            ) == direct_response_bytes(service)
            # The priors actually changed, so the refresh is a different
            # matrix — the push carried new information, not a re-send.
            assert json.dumps(refreshed.response, sort_keys=True) != json.dumps(
                first.response, sort_keys=True
            )

    def test_level_scoped_invalidate_only_refreshes_matching_subscriptions(
        self, small_tree_with_priors, service, gateway
    ):
        if small_tree_with_priors.height < 1:
            pytest.skip("needs a tree with at least two levels")
        with GatewayClient(gateway.host, gateway.port) as client:
            key_level0 = client.subscribe(0, 1)
            key_level1 = client.subscribe(1, 1)
            client.wait_forest(key_level0)
            client.wait_forest(key_level1)
            service.invalidate(privacy_level=1)
            refreshed = client.wait_forest(key_level1, min_generation=2)
            assert refreshed.generation == 2
            # The level-0 subscription saw no refresh push: its held
            # generation is still 1 after the level-1 refresh landed.
            held = client.held(key_level0)
            assert held is not None and held.generation == 1

    def test_heartbeats_reach_idle_connections(self, gateway):
        with GatewayClient(gateway.host, gateway.port) as client:
            wait_until(
                lambda: client.stats()["heartbeats"] >= 2,
                timeout_s=10.0,
                message="two heartbeat frames on an idle connection",
            )

    def test_gateway_counters_and_diagnostics_flow_through_service(
        self, service, gateway
    ):
        with GatewayClient(gateway.host, gateway.port) as client:
            key = client.subscribe(1, 1)
            client.wait_forest(key)
            assert service.metrics.count("gateway_connections") == 1
            assert service.metrics.count("gateway_subscriptions") == 1
            assert service.metrics.count("gateway_pushes") >= 1
            diagnostics = service.diagnostics()["gateway"]
            assert diagnostics["running"] is True
            assert diagnostics["connections"] == 1
            assert diagnostics["keys"][0]["subscribers"] == 1
        wait_until(
            lambda: service.metrics.count("gateway_disconnects") == 1,
            timeout_s=10.0,
            message="disconnect counter after client close",
        )

    def test_close_is_idempotent_and_diagnostics_report_not_running(
        self, service, gateway
    ):
        gateway.close()
        gateway.close()
        assert gateway.diagnostics()["running"] is False
        # The provider was detached on close: the service diagnostics no
        # longer carry a gateway block.
        assert "gateway" not in service.diagnostics()


# --------------------------------------------------------------------- #
# Protocol robustness on a held connection
# --------------------------------------------------------------------- #


class TestProtocolErrors:
    def _connect(self, gateway):
        sock = socket.create_connection((gateway.host, gateway.port), timeout=30)
        stream = sock.makefile("rb")
        hello = decode_gateway_frame(stream.readline())
        assert hello["type"] == "hello"
        return sock, stream

    def test_garbage_line_is_answered_then_connection_still_works(
        self, service, gateway
    ):
        sock, stream = self._connect(gateway)
        try:
            sock.sendall(b"\x00\xffnot json at all\n")
            error = decode_gateway_frame(stream.readline())
            assert error["type"] == "error" and error["error"] == "bad_frame"
            sock.sendall(encode_gateway_frame({"op": "subscribe", "privacy_level": 1, "delta": 1}))
            acknowledged = decode_gateway_frame(stream.readline())
            assert acknowledged["type"] == "subscribed"
            assert service.metrics.count("gateway_rejected_frames") == 1
        finally:
            sock.close()

    def test_unknown_op_and_bad_request_are_typed_answers(self, gateway):
        sock, stream = self._connect(gateway)
        try:
            sock.sendall(encode_gateway_frame({"op": "warp"}))
            answer = decode_gateway_frame(stream.readline())
            assert (answer["type"], answer["error"]) == ("error", "unknown_op")
            sock.sendall(
                encode_gateway_frame({"op": "subscribe", "privacy_level": 99, "delta": 1})
            )
            answer = decode_gateway_frame(stream.readline())
            assert (answer["type"], answer["error"]) == ("error", "bad_request")
        finally:
            sock.close()

    def test_subscribe_succeeds_after_earlier_error_frame(self, gateway):
        """Errors accumulate for the connection's lifetime; a rejection of
        an *earlier* subscribe must not poison a later, valid one."""
        with GatewayClient(gateway.host, gateway.port) as client:
            with pytest.raises(GatewayProtocolError):
                client.subscribe(99, 1)  # bad privacy level -> bad_request
            assert client.subscribe(1, 1) == KEY

    def test_resubscribe_to_known_key_acks_promptly(self, gateway):
        """Every subscribe is acked with its own frame, so re-subscribing
        to an already-held key returns instead of waiting out wait_s."""
        with GatewayClient(gateway.host, gateway.port) as client:
            assert client.subscribe(1, 1) == KEY
            assert client.subscribe(1, 1, wait_s=5.0) == KEY

    def test_unsubscribe_stops_pushes(self, service, gateway):
        with GatewayClient(gateway.host, gateway.port) as client:
            key = client.subscribe(1, 1)
            client.wait_forest(key)
            client._send({"op": "unsubscribe", "privacy_level": 1, "delta": 1})
            wait_until(
                lambda: service.diagnostics()["gateway"]["subscriptions"] == 0,
                timeout_s=10.0,
                message="subscription registry emptied after unsubscribe",
            )
            service.invalidate()
            # No refresh push may arrive: heartbeats keep flowing, the held
            # generation stays 1.
            baseline = client.stats()["heartbeats"]
            wait_until(
                lambda: client.stats()["heartbeats"] >= baseline + 3,
                timeout_s=10.0,
                message="heartbeats after unsubscribe",
            )
            assert client.held(key).generation == 1

    def test_slow_consumer_is_evicted_not_buffered(self, service):
        # A clamped write path makes backpressure deterministic: the peer
        # never reads, so after ~a few KiB of kernel+transport buffer its
        # answer frames back up, the 8-slot queue fills, and the server
        # must evict (counted) instead of growing memory.
        gateway = GatewayServer(
            service,
            GatewayConfig(
                heartbeat_interval_s=30.0, queue_limit=8, write_buffer_high=1024
            ),
        ).start()
        sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1024)
            sock.settimeout(30.0)
            sock.connect((gateway.host, gateway.port))
            # Never read a byte; provoke one answer frame per ping.
            ping = encode_gateway_frame({"op": "ping", "nonce": "flood"})
            try:
                for _ in range(5_000):
                    sock.sendall(ping)
            except OSError:
                pass  # server already reset the flooded connection — fine
            wait_until(
                lambda: service.metrics.count("gateway_evicted_slow") == 1,
                timeout_s=30.0,
                message="slow-consumer eviction",
            )
            wait_until(
                lambda: service.diagnostics()["gateway"]["connections"] == 0,
                timeout_s=10.0,
                message="evicted connection dropped from the registry",
            )
            # The server tore the TCP connection down under us.
            with pytest.raises(OSError):
                while sock.recv(65536):
                    pass
                raise ConnectionResetError("EOF")  # clean EOF counts too
        finally:
            sock.close()
            gateway.close()


# --------------------------------------------------------------------- #
# AsyncCORGIService: async single-flight rendezvous
# --------------------------------------------------------------------- #


class TestAsyncSingleFlight:
    def test_concurrent_identical_keys_share_one_build(self, engine):
        service = CORGIService(engine)
        adapter = AsyncCORGIService(service)
        calls = []
        original = adapter._build_sync

        def counted(key):
            calls.append(key)
            return original(key)

        adapter._build_sync = counted

        async def fan_in():
            return await asyncio.gather(
                *(adapter.forest_response(KEY) for _ in range(16))
            )

        responses = asyncio.run(fan_in())
        adapter.close()
        assert len(calls) == 1  # one executor ticket for 16 awaiters
        first = json.dumps(responses[0], sort_keys=True)
        assert all(json.dumps(r, sort_keys=True) == first for r in responses)

    def test_follower_deadline_raises_typed_timeout(self, engine):
        service = CORGIService(engine, ServiceConfig(build_wait_timeout_s=0.1))
        adapter = AsyncCORGIService(service)

        async def scenario():
            from repro.service.gateway import _AsyncBuild

            # A leader that never completes (its event never fires).
            adapter._inflight[KEY] = _AsyncBuild()
            with pytest.raises(ServiceBuildTimeoutError):
                await adapter.forest_response(KEY)

        asyncio.run(scenario())
        adapter.close()
        assert service.metrics.count("build_timeouts") == 1

    def test_build_threads_and_follower_deadline_follow_the_service(self, engine):
        # The gateway can never demand more concurrent engine builds than
        # the sync core admits, and its followers wait the core's deadline.
        service = CORGIService(engine, ServiceConfig(max_in_flight=2, build_wait_timeout_s=7.5))
        adapter = AsyncCORGIService(service)
        assert adapter.build_wait_timeout_s == 7.5
        assert adapter._executor._max_workers == 2
        lock = threading.Lock()
        running = [0]
        peak = [0]
        pair = threading.Barrier(2, timeout=30.0)

        def held(key):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            pair.wait()  # passes only with two builds running at once
            with lock:
                running[0] -= 1
            return {"key": list(key)}

        adapter._build_sync = held

        async def distinct_keys():
            return await asyncio.gather(
                *(adapter.forest_response((1, delta, 2.0)) for delta in range(4))
            )

        responses = asyncio.run(distinct_keys())
        adapter.close()
        assert responses == [{"key": [1, delta, 2.0]} for delta in range(4)]
        assert peak[0] == 2

    def test_follower_gets_wrapped_copy_of_leader_error(self, engine):
        service = CORGIService(engine)
        adapter = AsyncCORGIService(service)
        boom = RuntimeError("solver exploded")

        def failing(key):
            raise boom

        adapter._build_sync = failing

        async def scenario():
            results = await asyncio.gather(
                *(adapter.forest_response(KEY) for _ in range(4)),
                return_exceptions=True,
            )
            return results

        results = asyncio.run(scenario())
        adapter.close()
        assert all(isinstance(error, RuntimeError) for error in results)
        leader_errors = [error for error in results if error is boom]
        follower_errors = [error for error in results if error is not boom]
        assert len(leader_errors) == 1
        assert follower_errors, "followers must exist in a 4-way race"
        for error in follower_errors:
            assert error.__cause__ is boom  # provenance preserved
            assert error.args == boom.args
        # Each follower raised its *own* object — no shared instance.
        assert len({id(error) for error in follower_errors}) == len(follower_errors)

    def test_generation_guard_reruns_build_started_before_update(self, engine):
        """A build in flight when the update fired may carry pre-update
        data; a caller with a newer generation requirement must wait it out
        and lead a fresh build rather than join it."""
        service = CORGIService(engine)
        adapter = AsyncCORGIService(service)
        builds = []
        original = adapter._build_sync
        release_first = threading.Event()

        def gated(key):
            builds.append(key)
            if len(builds) == 1:
                release_first.wait(timeout=30.0)
            return original(key)

        adapter._build_sync = gated

        async def scenario():
            first = asyncio.ensure_future(
                adapter.forest_response(KEY, generation=1)
            )
            await asyncio.sleep(0)  # let the leader enter the executor
            # An update (generation 2) arrives while generation-1 builds.
            second = asyncio.ensure_future(
                adapter.forest_response(KEY, generation=2)
            )
            await asyncio.sleep(0)
            release_first.set()
            await asyncio.gather(first, second)

        asyncio.run(scenario())
        adapter.close()
        assert len(builds) == 2  # the gen-2 caller did NOT join the stale build


# --------------------------------------------------------------------- #
# Client-side generation guard
# --------------------------------------------------------------------- #


class TestGenerationGuard:
    def test_stale_push_never_rolls_the_client_back(self):
        store = _PushStore()
        key_wire = {"privacy_level": 1, "delta": 1, "epsilon": 2.0}
        store.apply(
            {"type": "forest", "key": key_wire, "generation": 3, "reason": "invalidate",
             "response": {"fresh": True}}
        )
        # A late snapshot frame from before the refresh arrives afterwards.
        store.apply(
            {"type": "forest", "key": key_wire, "generation": 1, "reason": "subscribe",
             "response": {"fresh": False}}
        )
        assert store.forests[KEY].response == {"fresh": True}
        assert store.stale_dropped == 1
        assert store.generations_seen[KEY] == [3, 1]

    def test_equal_generation_is_a_duplicate_and_dropped(self):
        store = _PushStore()
        key_wire = {"privacy_level": 1, "delta": 1, "epsilon": 2.0}
        frame = {"type": "forest", "key": key_wire, "generation": 2,
                 "reason": "invalidate", "response": {"n": 1}}
        store.apply(frame)
        store.apply(dict(frame))
        assert store.pushes == 1
        assert store.stale_dropped == 1

    def test_subscribe_ack_with_lower_generation_starts_new_epoch(self):
        """A re-subscribe after the server pruned the key restarts its
        generation count; the ack must reset the client's epoch so the new
        pushes are installed rather than dropped as stale."""
        store = _PushStore()
        key_wire = {"privacy_level": 1, "delta": 1, "epsilon": 2.0}
        store.apply(
            {"type": "forest", "key": key_wire, "generation": 5,
             "reason": "invalidate", "response": {"epoch": "old"}}
        )
        store.apply({"type": "subscribed", "key": key_wire, "generation": 1})
        assert KEY not in store.forests  # held entry belongs to a dead epoch
        store.apply(
            {"type": "forest", "key": key_wire, "generation": 1,
             "reason": "subscribe", "response": {"epoch": "new"}}
        )
        assert store.forests[KEY].response == {"epoch": "new"}
        assert store.stale_dropped == 0


# --------------------------------------------------------------------- #
# Refresh/snapshot races (regressions found in review)
# --------------------------------------------------------------------- #


class TestRefreshRaces:
    def test_snapshot_racing_invalidate_cannot_wedge_client(self, service):
        """An invalidate landing while the subscribe snapshot builds must
        not let the stale snapshot usurp the new generation's tag — the
        client would then drop the genuine refresh push and wedge on
        pre-update data tagged as fresh."""
        gateway = GatewayServer(
            service, GatewayConfig(heartbeat_interval_s=30.0, queue_limit=8)
        ).start()
        try:
            builds = []
            release = threading.Event()
            original = gateway._async._build_sync

            def gated(key):
                builds.append(key)
                if len(builds) == 1:
                    release.wait(timeout=30.0)
                return original(key)

            gateway._async._build_sync = gated
            with GatewayClient(gateway.host, gateway.port) as client:
                key = client.subscribe(1, 1)  # ack is sync; snapshot now blocked
                wait_until(
                    lambda: len(builds) == 1,
                    timeout_s=10.0,
                    message="snapshot build entered the executor",
                )
                service.invalidate()  # generation -> 2 mid-snapshot-build
                release.set()
                refreshed = client.wait_forest(key, min_generation=2, timeout_s=30.0)
                assert refreshed.generation == 2
                # The snapshot kept its subscribe-time tag (1) and the
                # refresh carried 2 — nothing was dropped as stale.
                assert client.generations_seen(key) == [1, 2]
                assert client.stats()["stale_dropped"] == 0
        finally:
            gateway.close()

    def test_update_during_failed_refresh_build_is_not_lost(self, service):
        """If a refresh build fails while a newer update lands, the refresh
        task must go again for the newer generation — _mark_updated skipped
        scheduling while the task held the key, so returning would strand
        every subscriber on stale data."""
        gateway = GatewayServer(
            service, GatewayConfig(heartbeat_interval_s=30.0, queue_limit=8)
        ).start()
        try:
            with GatewayClient(gateway.host, gateway.port) as client:
                key = client.subscribe(1, 1)
                client.wait_forest(key)
                started = threading.Event()
                release = threading.Event()
                failed = []
                original = gateway._async._build_sync

                def failing_once(k):
                    if not failed:
                        failed.append(k)
                        started.set()
                        release.wait(timeout=30.0)
                        raise RuntimeError("transient solver failure")
                    return original(k)

                gateway._async._build_sync = failing_once
                service.invalidate()  # generation -> 2; refresh build will fail
                assert started.wait(timeout=10.0)
                service.invalidate()  # generation -> 3 lands mid-failing-build
                release.set()
                refreshed = client.wait_forest(key, min_generation=3, timeout_s=30.0)
                assert refreshed.generation == 3
                # The failure itself was still answered to subscribers.
                assert client.stats()["errors"] >= 1
        finally:
            gateway.close()

    def test_key_state_pruned_when_last_subscriber_leaves(self, service, gateway):
        """Unsubscribing the last holder forgets the key server-side (no
        unbounded _generations growth); a re-subscribe restarts at
        generation 1 and the client follows the new epoch."""
        with GatewayClient(gateway.host, gateway.port) as client:
            key = client.subscribe(1, 1)
            client.wait_forest(key)
            service.invalidate()
            assert client.wait_forest(key, min_generation=2).generation == 2
            client._send({"op": "unsubscribe", "privacy_level": 1, "delta": 1})
            wait_until(
                lambda: service.diagnostics()["gateway"]["subscribed_keys"] == 0,
                timeout_s=10.0,
                message="key released after last unsubscribe",
            )
            assert client.subscribe(1, 1) == key
            wait_until(
                lambda: (held := client.held(key)) is not None
                and held.generation == 1,
                timeout_s=10.0,
                message="re-subscribe snapshot installed at restarted generation",
            )


# --------------------------------------------------------------------- #
# Acceptance: the invalidate storm over many held connections
# --------------------------------------------------------------------- #


STORM_CONNECTIONS = int(os.environ.get("GATEWAY_STORM_CONNECTIONS", "200"))
STORM_INVALIDATES = 5


class TestInvalidateStorm:
    def test_storm_delivers_exactly_once_per_subscriber(self, service):
        """N held connections, an invalidate storm: every subscriber ends
        up holding the refreshed matrix, generations observed per client
        are strictly increasing (no duplicate push, no stale generation
        installed), all clients converge on the same settled generation,
        and nobody was evicted."""
        gateway = GatewayServer(
            service, GatewayConfig(heartbeat_interval_s=30.0, queue_limit=16)
        ).start()
        try:
            outcome = asyncio.run(self._storm(service, gateway))
        finally:
            gateway.close()

        final_generations = {push.generation for push in outcome["final"]}
        assert len(final_generations) == 1, "all clients must converge on one generation"
        settled = final_generations.pop()
        direct = direct_response_bytes(service)
        for push in outcome["final"]:
            assert json.dumps(push.response, sort_keys=True) == direct
        for seen in outcome["generations_seen"]:
            assert seen == sorted(set(seen)), f"duplicate or regressing push: {seen}"
            assert seen.count(settled) == 1, "settled generation delivered exactly once"
        assert service.metrics.count("gateway_evicted_slow") == 0
        assert service.metrics.count("gateway_connections") == STORM_CONNECTIONS

    async def _storm(self, service, gateway):
        clients = []
        for _ in range(STORM_CONNECTIONS):
            clients.append(await AsyncGatewayClient.open(gateway.host, gateway.port))
        try:
            for client in clients:
                await client.subscribe(1, 1)
            await asyncio.gather(
                *(client.wait_forest(KEY, timeout_s=120.0) for client in clients)
            )
            base = max(client.store.forests[KEY].generation for client in clients)

            # The storm: fired from a worker thread like real admin traffic
            # (the update listener crosses into the gateway loop thread-safely).
            def fire():
                for _ in range(STORM_INVALIDATES):
                    service.invalidate()

            await asyncio.get_running_loop().run_in_executor(None, fire)

            final = await asyncio.gather(
                *(
                    client.wait_forest(KEY, min_generation=base + 1, timeout_s=120.0)
                    for client in clients
                )
            )
            # Quiescence: no refresh task left, then collect what each
            # client saw (drain any frame still in flight first).
            async def settle(client):
                try:
                    await client.pump_until(lambda store: False, timeout_s=0.2)
                except TimeoutError:
                    pass

            await asyncio.gather(*(settle(client) for client in clients))
            return {
                "final": [client.store.forests[KEY] for client in clients],
                "generations_seen": [
                    client.store.generations_seen[KEY] for client in clients
                ],
            }
        finally:
            await asyncio.gather(*(client.close() for client in clients))
