"""Tests for the asyncio push gateway (`repro.service.gateway`).

Covers the held-connection protocol end to end — subscribe → pushed
snapshot, push-on-publish byte-identical to a direct build,
generation-tag monotonicity, slow-consumer eviction, heartbeats, protocol
error answers — the service's single-flight gate as the gateway awaits it
(coalescing with gateway and request-thread callers, follower deadline,
wrapped re-raise, admission, cancellation, close, no join across a
publish), and the acceptance storm:
many concurrently held connections surviving a publish storm with the
refreshed matrix delivered exactly once per subscriber.

All waiting is event-driven (`wait_forest`, `pump_until`) or uses the
shared `wait_until` helper — no ad-hoc sleeps.  The storm size defaults
to 200 connections locally; CI's `gateway-stress` job pins
``GATEWAY_STORM_CONNECTIONS=1000``.
"""

import asyncio
import copy
import json
import os
import socket
import threading

import pytest

from helpers_concurrency import wait_until
from repro.client.gateway import AsyncGatewayClient, GatewayClient, _PushStore
from repro.server.engine import ForestEngine, ServerConfig
from repro.service.gateway import (
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
    # A private tree copy: publishes mutate leaf priors.
    return ForestEngine(
        copy.deepcopy(small_tree_with_priors),
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


def publish_new_priors(service) -> None:
    """Publish priors no earlier call published, so every key rebuilds."""
    leaves = service.engine.tree.leaves()
    service.publish_priors(
        {leaf.node_id: leaf.prior + (0.01 if index == 0 else 0.0) for index, leaf in enumerate(leaves)}
    )


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
            publish_new_priors(service)
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
# The service's single-flight gate, awaited on the gateway loop
# --------------------------------------------------------------------- #


def on_loop(gateway, coroutine):
    """Schedule *coroutine* on the gateway's event loop; its concurrent future."""
    return asyncio.run_coroutine_threadsafe(coroutine, gateway._loop)


def gather_on_loop(gateway, keys):
    """Await ``gateway._forest`` for every key at once; outcomes in order."""

    async def fan_in():
        return await asyncio.gather(*(gateway._forest(key) for key in keys), return_exceptions=True)

    return on_loop(gateway, fan_in()).result(timeout=60)


def gated_engine(engine, gate):
    """Wrap ``engine.build_forest_traced``: each call runs ``gate(call_number)``
    first and is recorded in the returned list."""
    original = engine.build_forest_traced
    calls = []

    def build(*args, **kwargs):
        calls.append(args)
        gate(len(calls))
        return original(*args, **kwargs)

    engine.build_forest_traced = build
    return calls


def coalesced_at_least(service, count):
    """An engine gate that holds the build until *count* callers joined it."""

    def gate(_call):
        wait_until(
            lambda: service.metrics.count("coalesced") >= count,
            timeout_s=30.0,
            message=f"{count} callers to join the parked build",
        )

    return gate


class TestAsyncSingleFlight:
    def test_concurrent_identical_keys_share_one_build(self, engine, service, gateway):
        calls = gated_engine(engine, coalesced_at_least(service, 15))
        forests = gather_on_loop(gateway, [KEY] * 16)
        assert len(calls) == 1  # one engine call for 16 awaiters
        assert all(forest is forests[0] for forest in forests)

    def test_gateway_subscribers_count_as_service_requests(self, engine, service, gateway):
        """Every gateway snapshot is a request in ``ServiceMetrics`` (and so
        in ``GET /metrics``), not only the one that reached the engine."""
        gated_engine(engine, coalesced_at_least(service, 15))
        clients = [GatewayClient(gateway.host, gateway.port) for _ in range(16)]
        try:
            for client in clients:
                client.subscribe(1, 1)
            for client in clients:
                client.wait_forest(KEY)
        finally:
            for client in clients:
                client.close()
        snapshot = service.metrics.snapshot()
        assert (snapshot["requests"], snapshot["coalesced"]) == (16, 15)
        assert snapshot["latency_observations"] == 16

    def test_follower_deadline_raises_typed_timeout(self, engine):
        service = CORGIService(engine, ServiceConfig(build_wait_timeout_s=0.1))
        parked = threading.Event()
        release = threading.Event()

        def park_first(call):
            if call == 1:
                parked.set()
                release.wait(timeout=30.0)

        gated_engine(engine, park_first)
        with GatewayServer(service) as gateway:
            leader = on_loop(gateway, gateway._forest(KEY))
            assert parked.wait(timeout=10.0)
            with pytest.raises(ServiceBuildTimeoutError):
                on_loop(gateway, gateway._forest(KEY)).result(timeout=30.0)
            assert service.metrics.count("build_timeouts") == 1
            release.set()
            # The follower's deadline did not cancel the leader's build.
            assert leader.result(timeout=30.0) is not None

    def test_build_threads_follow_the_service(self, engine):
        # The gateway can never run more engine builds at once than the
        # service admits.
        service = CORGIService(engine, ServiceConfig(max_in_flight=2))
        lock = threading.Lock()
        running = [0]
        peak = [0]
        pair = threading.Barrier(2, timeout=30.0)

        def held(privacy_level, delta, *, epsilon):
            with lock:
                running[0] += 1
                peak[0] = max(peak[0], running[0])
            pair.wait()  # passes only with two builds running at once
            with lock:
                running[0] -= 1
            return (privacy_level, delta, epsilon), False

        engine.build_forest_traced = held
        keys = [(1, delta, 2.0) for delta in range(4)]
        with GatewayServer(service) as gateway:
            assert gather_on_loop(gateway, keys) == keys
        assert peak[0] == 2

    def test_follower_gets_wrapped_copy_of_leader_error(self, engine, service, gateway):
        boom = RuntimeError("solver exploded")

        def fail_once_joined(call):
            coalesced_at_least(service, 3)(call)
            raise boom

        gated_engine(engine, fail_once_joined)
        results = gather_on_loop(gateway, [KEY] * 4)
        assert all(isinstance(error, RuntimeError) for error in results)
        leader_errors = [error for error in results if error is boom]
        follower_errors = [error for error in results if error is not boom]
        assert len(leader_errors) == 1
        assert len(follower_errors) == 3
        for error in follower_errors:
            assert error.__cause__ is boom  # provenance preserved
            assert error.args == boom.args
        # Each follower raised its *own* object — no shared instance.
        assert len({id(error) for error in follower_errors}) == len(follower_errors)

    def test_request_after_publish_leads_its_own_build(self, engine, service, gateway):
        """A build led before a priors install may carry pre-update data;
        a gateway request made after the install must lead a fresh build
        rather than join it."""
        release = threading.Event()

        def park_first(call):
            if call == 1:
                release.wait(timeout=30.0)

        calls = gated_engine(engine, park_first)
        first = on_loop(gateway, gateway._forest(KEY))
        wait_until(lambda: len(calls) == 1, timeout_s=10.0, message="first build parked")
        publish_new_priors(service)
        second = on_loop(gateway, gateway._forest(KEY))
        wait_until(lambda: len(calls) == 2, timeout_s=10.0, message="second build led")
        release.set()
        first.result(timeout=30.0)
        second.result(timeout=30.0)
        assert service.metrics.count("coalesced") == 0

    def test_request_thread_leader_serves_gateway_followers(self, engine, service, gateway):
        calls = gated_engine(engine, coalesced_at_least(service, 4))
        served = {}
        leader = threading.Thread(
            target=lambda: served.setdefault("http", service.generate_privacy_forest(1, 1)),
            daemon=True,
        )
        leader.start()
        wait_until(lambda: len(calls) == 1, timeout_s=10.0, message="request thread leads")
        forests = gather_on_loop(gateway, [KEY] * 4)
        leader.join(timeout=30.0)
        assert not leader.is_alive()
        assert len(calls) == 1
        assert all(forest is served["http"] for forest in forests)

    def test_cancelled_gateway_awaiter_leaves_request_thread_its_forest(
        self, engine, service, gateway
    ):
        """Cancelling an ``asyncio.wrap_future`` awaiter cancels a *pending*
        wrapped future; the entry is running, so the request thread that
        joined the same build still gets the forest."""
        release = threading.Event()
        calls = gated_engine(engine, lambda call: release.wait(timeout=30.0))

        async def lead():
            return asyncio.ensure_future(gateway._forest(KEY))

        leader = on_loop(gateway, lead()).result(timeout=10.0)
        wait_until(lambda: len(calls) == 1, timeout_s=10.0, message="gateway leader parked")
        served = {}

        def follow():
            try:
                served["forest"] = service.generate_privacy_forest(1, 1)
            except BaseException as error:  # noqa: BLE001 - asserted below
                served["error"] = error

        follower = threading.Thread(target=follow, daemon=True)
        follower.start()
        wait_until(
            lambda: service.metrics.count("coalesced") == 1,
            timeout_s=10.0,
            message="request thread joined the gateway's build",
        )
        gateway._loop.call_soon_threadsafe(leader.cancel)
        on_loop(gateway, asyncio.wait([leader])).result(timeout=10.0)
        assert leader.cancelled()
        release.set()
        follower.join(timeout=30.0)
        assert not follower.is_alive()
        assert "error" not in served, served.get("error")
        assert served["forest"] is not None
        assert len(calls) == 1

    def test_close_lets_a_queued_build_settle_for_its_request_thread(self, engine):
        service = CORGIService(engine, ServiceConfig(max_in_flight=1))
        release = threading.Event()

        def park_first(call):
            if call == 1:
                release.wait(timeout=30.0)

        calls = gated_engine(engine, park_first)
        gateway = GatewayServer(service).start()
        served = {}
        try:
            on_loop(gateway, gateway._forest((1, 0, 2.0)))  # holds the one build thread
            wait_until(lambda: len(calls) == 1, timeout_s=10.0, message="build thread busy")
            on_loop(gateway, gateway._forest(KEY))  # queued behind it
            wait_until(
                lambda: service.snapshot()["gauges"]["inflight_keys"] == 2,
                timeout_s=10.0,
                message="queued leader registered",
            )
            # A queued gateway leader is registered but not yet admitted.
            assert service.snapshot()["gauges"]["pending_leaders"] == 1
            follower = threading.Thread(
                target=lambda: served.setdefault("forest", service.generate_privacy_forest(1, 1)),
                daemon=True,
            )
            follower.start()
            wait_until(
                lambda: service.metrics.count("coalesced") == 1,
                timeout_s=10.0,
                message="request thread joined the queued build",
            )
        finally:
            gateway.close()
            release.set()
        follower.join(timeout=30.0)
        assert not follower.is_alive()
        assert served["forest"] is not None
        assert service.snapshot()["gauges"] == {"pending_leaders": 0, "inflight_keys": 0}

    def test_subscribe_burst_beyond_admission_limit_is_served(self, engine, service):
        """One connection subscribing to more distinct keys than the
        service admits at once: the gateway queues the builds instead of
        failing them."""
        limits = service.config
        gateway = GatewayServer(service).start()
        epsilons = [2.0 + index / 10 for index in range(limits.max_in_flight + limits.max_queue_depth + 4)]
        # Hold the first builds until every subscription is registered, so
        # the whole burst is in flight at once.
        gated_engine(
            engine,
            lambda call: wait_until(
                lambda: gateway.diagnostics()["subscriptions"] == len(epsilons),
                timeout_s=30.0,
                message="every subscription registered",
            ),
        )
        try:
            with GatewayClient(gateway.host, gateway.port) as client:
                for epsilon in epsilons:
                    client.subscribe(1, 1, epsilon, wait_s=None)
                keys = [(1, 1, epsilon) for epsilon in epsilons]
                wait_until(
                    lambda: client.stats()["errors"] or all(client.held(key) for key in keys),
                    timeout_s=120.0,
                    message="a forest push for every key, or an error frame",
                )
                assert client.stats()["errors"] == 0  # no build_failed frame
                assert all(client.held(key) for key in keys)
        finally:
            gateway.close()


# --------------------------------------------------------------------- #
# Client-side generation guard
# --------------------------------------------------------------------- #


class TestGenerationGuard:
    def test_stale_push_never_rolls_the_client_back(self):
        store = _PushStore()
        key_wire = {"privacy_level": 1, "delta": 1, "epsilon": 2.0}
        store.apply(
            {"type": "forest", "key": key_wire, "generation": 3, "reason": "priors",
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
                 "reason": "priors", "response": {"n": 1}}
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
             "reason": "priors", "response": {"epoch": "old"}}
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
    @pytest.mark.parametrize("order", [(1, 2), (2, 1)], ids=["snapshot-first", "refresh-first"])
    def test_snapshot_racing_publish_cannot_wedge_client(self, engine, service, order):
        """A publish lands while the subscribe snapshot builds: the
        snapshot (built on the old priors) keeps its subscribe-time tag 1
        and the refresh carries 2.  Whichever frame arrives first, the
        client ends on generation 2 with the direct build's bytes — a
        late stale snapshot is dropped, never installed over the refresh."""
        gateway = GatewayServer(
            service, GatewayConfig(heartbeat_interval_s=30.0, queue_limit=8)
        ).start()
        try:
            # Each of the first two engine calls (the snapshot's, then the
            # refresh's) parks after building until the test releases it.
            released = {1: threading.Event(), 2: threading.Event()}
            original = engine.build_forest_traced
            calls = []

            def gated(*args, **kwargs):
                calls.append(args)
                result = original(*args, **kwargs)
                if len(calls) in released:
                    released[len(calls)].wait(timeout=30.0)
                return result

            engine.build_forest_traced = gated
            with GatewayClient(gateway.host, gateway.port) as client:
                key = client.subscribe(1, 1)  # ack is sync; snapshot now blocked
                wait_until(lambda: len(calls) == 1, timeout_s=10.0, message="snapshot built")
                publish_new_priors(service)  # generation -> 2 mid-snapshot-build
                wait_until(lambda: len(calls) == 2, timeout_s=10.0, message="refresh led")
                for generation in order:
                    released[generation].set()
                    wait_until(
                        lambda: generation in client.generations_seen(key),
                        timeout_s=30.0,
                        message=f"generation {generation} pushed",
                    )
                assert client.generations_seen(key) == list(order)
                assert client.stats()["stale_dropped"] == (0 if order == (1, 2) else 1)
                held = client.held(key)
                assert held.generation == 2
                assert json.dumps(held.response, sort_keys=True) == direct_response_bytes(service)
        finally:
            gateway.close()

    def test_update_during_failed_refresh_build_is_not_lost(self, engine, service):
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

                def fail_first(call):
                    if call == 1:
                        started.set()
                        release.wait(timeout=30.0)
                        raise RuntimeError("transient solver failure")

                gated_engine(engine, fail_first)
                publish_new_priors(service)  # generation -> 2; refresh build will fail
                assert started.wait(timeout=10.0)
                publish_new_priors(service)  # generation -> 3 lands mid-failing-build
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
            publish_new_priors(service)
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
# Acceptance: the publish storm over many held connections
# --------------------------------------------------------------------- #


STORM_CONNECTIONS = int(os.environ.get("GATEWAY_STORM_CONNECTIONS", "200"))
STORM_PUBLISHES = 5


class TestPublishStorm:
    def test_storm_delivers_exactly_once_per_subscriber(self, service):
        """N held connections, a publish storm: every subscriber ends
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
                for _ in range(STORM_PUBLISHES):
                    publish_new_priors(service)

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
