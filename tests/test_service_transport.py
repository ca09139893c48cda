"""Tests for the engine/service/transport split.

Covers the wire-format round-trips (satellite), single-flight coalescing
and admission control in :class:`CORGIService`, intra-batch deduplication,
constraint-structure sharing across congruent sibling sub-trees, and the
end-to-end client-over-HTTP path against a live ``ThreadingHTTPServer`` on
an ephemeral port — including the acceptance check that HTTP and
in-process transports return byte-identical forests.
"""

import copy
import json
import socket
import threading

import numpy as np
import pytest

from helpers_concurrency import run_burst, wait_until
from repro.client.client import CORGIClient
from repro.client.transport import (
    HTTPTransport,
    InProcessTransport,
    TransportError,
    TransportForestProvider,
    as_forest_provider,
)
from repro.pipeline.executor import RobustGenerationTask, execute_robust_task
from repro.policy.policy import Policy
from repro.server.engine import ForestEngine, ServerConfig
from repro.server.messages import ObfuscationRequest, PrivacyForestResponse
from repro.service.http import CORGIHTTPServer
from repro.service.metrics import ServiceMetrics
from repro.service.pool import EnginePool
from repro.service.service import (
    CoalescedBuildError,
    CORGIService,
    ServiceBuildTimeoutError,
    ServiceConfig,
    ServiceOverloadedError,
    rewrap_for_follower,
)


@pytest.fixture()
def engine(small_tree_with_priors):
    return ForestEngine(
        small_tree_with_priors,
        ServerConfig(epsilon=2.0, num_targets=5, robust_iterations=1),
    )


@pytest.fixture()
def service(engine):
    return CORGIService(engine)


# --------------------------------------------------------------------- #
# Satellite: request message coercion
# --------------------------------------------------------------------- #


class TestRequestCoercion:
    def test_epsilon_string_coerced_to_float(self):
        request = ObfuscationRequest.from_dict(
            {"privacy_level": 1, "delta": 2, "epsilon": "1.5"}
        )
        assert isinstance(request.epsilon, float)
        assert request.epsilon == 1.5

    def test_coerced_epsilon_is_validated(self):
        with pytest.raises(ValueError):
            ObfuscationRequest.from_dict(
                {"privacy_level": 1, "delta": 2, "epsilon": "-3"}
            )
        with pytest.raises(ValueError):
            ObfuscationRequest.from_dict({"privacy_level": 1, "delta": 2, "epsilon": 0})

    def test_unparseable_epsilon_fails_loudly(self):
        with pytest.raises(ValueError):
            ObfuscationRequest.from_dict(
                {"privacy_level": 1, "delta": 2, "epsilon": "soon"}
            )

    def test_missing_epsilon_stays_none(self):
        request = ObfuscationRequest.from_dict({"privacy_level": 1, "delta": 2})
        assert request.epsilon is None

    def test_missing_required_field_is_value_error(self):
        with pytest.raises(ValueError, match="privacy_level"):
            ObfuscationRequest.from_dict({"delta": 1})


# --------------------------------------------------------------------- #
# Satellite: wire-format round-trips through real JSON
# --------------------------------------------------------------------- #


class TestWireRoundTrips:
    def test_request_roundtrip_through_json(self):
        request = ObfuscationRequest(privacy_level=2, delta=3, epsilon=1.25)
        restored = ObfuscationRequest.from_dict(
            json.loads(json.dumps(request.to_dict()))
        )
        assert restored == request

    def test_response_roundtrip_through_json(self, engine):
        response = CORGIService(engine).handle(
            ObfuscationRequest(privacy_level=1, delta=1)
        )
        restored = PrivacyForestResponse.from_dict(
            json.loads(json.dumps(response.to_dict()))
        )
        assert restored.privacy_level == response.privacy_level
        assert restored.delta == response.delta
        assert restored.epsilon == response.epsilon
        assert set(restored.matrices) == set(response.matrices)
        for root_id, matrix in response.matrices.items():
            other = restored.matrices[root_id]
            assert other.node_ids == matrix.node_ids
            assert np.array_equal(other.values, matrix.values)
        # The canonical JSON of both responses is identical (floats
        # round-trip exactly through json.dumps/loads).
        assert json.dumps(restored.to_dict(), sort_keys=True) == json.dumps(
            response.to_dict(), sort_keys=True
        )


# --------------------------------------------------------------------- #
# Service: validation, single-flight, admission control, batching
# --------------------------------------------------------------------- #


class TestServiceValidation:
    def test_rejects_non_engine(self):
        with pytest.raises(TypeError):
            CORGIService(object())

    def test_privacy_level_out_of_range(self, service):
        with pytest.raises(ValueError):
            service.handle(ObfuscationRequest(privacy_level=9, delta=0))

    def test_default_epsilon_coalesces_with_explicit(self, service, engine):
        implicit = service.normalize(ObfuscationRequest(privacy_level=1, delta=0))
        explicit = service.normalize(
            ObfuscationRequest(privacy_level=1, delta=0, epsilon=engine.config.epsilon)
        )
        assert implicit == explicit

    def test_service_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(max_in_flight=0).validate()
        with pytest.raises(ValueError):
            ServiceConfig(max_queue_depth=-1).validate()
        with pytest.raises(ValueError):
            ServiceConfig(max_batch_size=0).validate()


class TestSingleFlight:
    def test_concurrent_identical_requests_build_once(self, service, engine):
        """Acceptance: N concurrent identical requests → exactly one engine build."""
        num_threads = 6
        original = engine.build_forest_traced

        def gated_build(*args, **kwargs):
            # Hold the build open until every other burst member has
            # actually coalesced behind this leader — the condition the old
            # ad-hoc sleep only hoped for.
            wait_until(
                lambda: service.metrics.count("coalesced") == num_threads - 1,
                timeout_s=10,
                message="all followers to coalesce behind the leader",
            )
            return original(*args, **kwargs)

        engine.build_forest_traced = gated_build
        try:
            outcome = run_burst(
                lambda: service.generate_privacy_forest(1, 1),
                count=num_threads,
                timeout_s=60,
            ).raise_errors()
        finally:
            engine.build_forest_traced = original

        # Everyone got the same forest object from the one build.
        assert all(forest is outcome.results[0] for forest in outcome.results)
        assert service.metrics.count("engine_builds") == 1
        assert service.metrics.count("coalesced") == num_threads - 1
        assert service.metrics.count("requests") == num_threads

    def test_leader_error_propagates_to_followers(self, service, engine):
        def failing_build(*args, **kwargs):
            wait_until(
                lambda: service.metrics.count("coalesced") >= 1,
                timeout_s=10,
                message="a follower to coalesce before the leader fails",
            )
            raise RuntimeError("solver exploded")

        engine.build_forest_traced = failing_build
        outcome = run_burst(
            lambda: service.generate_privacy_forest(1, 1), count=2, timeout_s=60
        )
        assert len(outcome.errors) == 2
        assert all(isinstance(error, RuntimeError) for error in outcome.errors)
        assert service.metrics.count("failed") == 1  # one leader, one follower
        assert service.metrics.count("coalesced") == 1

    def test_sequential_repeat_is_engine_cache_hit(self, service):
        first = service.generate_privacy_forest(1, 1)
        second = service.generate_privacy_forest(1, 1)
        assert first is second
        assert service.metrics.count("engine_builds") == 1
        assert service.metrics.count("engine_cache_hits") == 1

    def test_follower_wait_has_a_deadline(self, engine):
        """Regression: a follower used to wait on the leader *forever*.

        With the leader's build wedged, a coalesced follower must give up
        after ``build_wait_timeout_s`` with the typed 503-mapped error —
        not hold its thread (and, over HTTP, its connection) indefinitely.
        """
        service = CORGIService(engine, ServiceConfig(build_wait_timeout_s=0.2))
        release = threading.Event()
        entered = threading.Event()
        original = engine.build_forest_traced

        def wedged_build(*args, **kwargs):
            entered.set()
            release.wait(timeout=30)
            return original(*args, **kwargs)

        engine.build_forest_traced = wedged_build
        leader = threading.Thread(
            target=lambda: service.generate_privacy_forest(1, 1), daemon=True
        )
        leader.start()
        try:
            assert entered.wait(timeout=5)
            with pytest.raises(ServiceBuildTimeoutError):
                service.generate_privacy_forest(1, 1)
            assert service.metrics.count("build_timeouts") == 1
            assert service.metrics.count("coalesced") == 1
        finally:
            engine.build_forest_traced = original
            release.set()
            leader.join(timeout=30)
        # The leader itself was never subject to the follower deadline.
        assert not leader.is_alive()

    def test_followers_raise_private_copies_of_the_leader_error(self, service, engine):
        """Regression: followers used to re-raise the leader's *same* object.

        N threads re-raising one shared instance concurrently splice their
        unrelated frames into a single shared ``__traceback__``.  Each
        follower must get its own same-typed copy with the pristine
        original hanging off ``__cause__``.
        """
        num_threads = 4

        def failing_build(*args, **kwargs):
            wait_until(
                lambda: service.metrics.count("coalesced") == num_threads - 1,
                timeout_s=10,
                message="all followers to coalesce before the leader fails",
            )
            raise RuntimeError("solver exploded")

        engine.build_forest_traced = failing_build
        outcome = run_burst(
            lambda: service.generate_privacy_forest(1, 1),
            count=num_threads,
            timeout_s=60,
        )
        assert len(outcome.errors) == num_threads
        # Transport mapping still sees the original type everywhere.
        assert all(isinstance(error, RuntimeError) for error in outcome.errors)
        # Exactly one thread (the leader) raised the original instance; the
        # followers each hold a distinct copy chained back to it.
        originals = [error for error in outcome.errors if error.__cause__ is None]
        assert len(originals) == 1
        followers = [error for error in outcome.errors if error is not originals[0]]
        assert len(followers) == num_threads - 1
        assert len({id(error) for error in outcome.errors}) == num_threads
        for error in followers:
            assert error.__cause__ is originals[0]
            assert error.args == originals[0].args

    def test_request_after_publish_never_joins_a_pre_publish_build(
        self, small_tree_with_priors
    ):
        """Regression: a request that arrived after ``publish_priors``
        returned could join a leader whose engine call had already returned
        the pre-publish forest (the leader's entry stays in flight until its
        ``finally``), and was served that stale forest."""
        config = ServerConfig(epsilon=2.0, num_targets=5, robust_iterations=1)
        engine = ForestEngine(copy.deepcopy(small_tree_with_priors), config)
        service = CORGIService(engine)
        stale = engine.build_forest(1, 1)
        engine.forest_cache.clear()
        original = engine.build_forest_traced
        parked = threading.Event()
        release = threading.Event()

        def parked_leader_build(*args, **kwargs):
            # The real call returns first, so the engine's priors reader
            # slot is released and publish_priors does not wait for us.
            result = original(*args, **kwargs)
            if not parked.is_set():
                parked.set()
                release.wait(timeout=60)
            return result

        engine.build_forest_traced = parked_leader_build
        served = {}
        leader = threading.Thread(
            target=lambda: served.setdefault("leader", service.generate_privacy_forest(1, 1)),
            daemon=True,
        )
        late = threading.Thread(
            target=lambda: served.setdefault("late", service.generate_privacy_forest(1, 1)),
            daemon=True,
        )
        leader.start()
        try:
            assert parked.wait(timeout=60)
            leaves = engine.tree.leaves()
            service.publish_priors(
                {leaf.node_id: float(index + 1) for index, leaf in enumerate(leaves)}
            )
            late.start()
            wait_until(
                lambda: "late" in served or service.metrics.count("coalesced") == 1,
                timeout_s=60,
                message="the late request to be served or to join the parked leader",
            )
        finally:
            release.set()
            leader.join(timeout=60)
            if late.ident is not None:
                late.join(timeout=60)
        assert not leader.is_alive() and not late.is_alive()
        assert service.metrics.count("coalesced") == 0
        fresh = ForestEngine(copy.deepcopy(engine.tree), config).build_forest(1, 1)

        def encoded(forest):
            return [(root_id, matrix.to_dict()) for root_id, matrix in forest]

        assert encoded(served["leader"]) == encoded(stale)
        assert encoded(served["late"]) == encoded(fresh)
        assert encoded(fresh) != encoded(stale)
        # The late leader's entry is gone; the parked leader did not remove it early.
        assert service.snapshot()["gauges"] == {"pending_leaders": 0, "inflight_keys": 0}

    def test_request_after_replicated_publish_never_joins_a_pre_publish_build(
        self, small_tree_with_priors
    ):
        """Regression: on a follower head a publish arrives through
        ``EnginePool.apply_replicated_control``, never through
        ``CORGIService.publish_priors``; a request that arrived after it
        could still join a leader holding the pre-publish forest."""
        config = ServerConfig(epsilon=2.0, num_targets=5, robust_iterations=1)
        with EnginePool(copy.deepcopy(small_tree_with_priors), config, num_shards=1) as pool:
            service = CORGIService(pool)
            # The pool has not built this key, so the parked leader's build is a miss.
            stale = ForestEngine(copy.deepcopy(pool.tree), config).build_forest(1, 1)
            original = pool.build_forest_traced
            parked = threading.Event()
            release = threading.Event()

            def parked_leader_build(*args, **kwargs):
                # The shard has answered before the leader parks, so the
                # replicated publish does not wait for it.
                result = original(*args, **kwargs)
                if not parked.is_set():
                    parked.set()
                    release.wait(timeout=60)
                return result

            pool.build_forest_traced = parked_leader_build
            served = {}
            leader = threading.Thread(
                target=lambda: served.setdefault("leader", service.generate_privacy_forest(1, 1)),
                daemon=True,
            )
            late = threading.Thread(
                target=lambda: served.setdefault("late", service.generate_privacy_forest(1, 1)),
                daemon=True,
            )
            leader.start()
            try:
                assert parked.wait(timeout=60)
                leaves = pool.tree.leaves()
                pool.apply_replicated_control(
                    {
                        "type": "publish_priors",
                        "version": 1,
                        "priors": {leaf.node_id: float(index + 1) for index, leaf in enumerate(leaves)},
                        "normalize": True,
                    }
                )
                late.start()
                wait_until(
                    lambda: "late" in served or service.metrics.count("coalesced") == 1,
                    timeout_s=60,
                    message="the late request to be served or to join the parked leader",
                )
            finally:
                release.set()
                leader.join(timeout=60)
                if late.ident is not None:
                    late.join(timeout=60)
            assert not leader.is_alive() and not late.is_alive()
            assert service.metrics.count("coalesced") == 0
            fresh = ForestEngine(copy.deepcopy(pool.tree), config).build_forest(1, 1)

        def encoded(forest):
            return [(root_id, matrix.to_dict()) for root_id, matrix in forest]

        assert encoded(served["leader"]) == encoded(stale)
        assert encoded(served["late"]) == encoded(fresh)
        assert encoded(fresh) != encoded(stale)

    def test_rewrap_falls_back_when_type_is_not_reconstructible(self):
        class PickyError(Exception):
            def __init__(self, code, *, detail):
                super().__init__(f"{code}: {detail}")
                self.code = code

        original = PickyError(42, detail="no positional reconstruction")
        copy_ = rewrap_for_follower(original)
        assert isinstance(copy_, CoalescedBuildError)
        assert copy_.__cause__ is original
        assert "PickyError" in str(copy_)
        # And the happy path keeps the concrete type.
        simple = ValueError("bad epsilon")
        rewrapped = rewrap_for_follower(simple)
        assert type(rewrapped) is ValueError
        assert rewrapped is not simple
        assert rewrapped.__cause__ is simple


class TestAdmissionControl:
    def test_overload_rejected(self, engine):
        service = CORGIService(
            engine, ServiceConfig(max_in_flight=1, max_queue_depth=0)
        )
        release = threading.Event()
        entered = threading.Event()

        def slow_build(*args, **kwargs):
            entered.set()
            release.wait(timeout=10)
            return engine_build(*args, **kwargs)

        engine_build = engine.build_forest_traced
        engine.build_forest_traced = slow_build

        def leader():
            service.generate_privacy_forest(1, 0)

        thread = threading.Thread(target=leader)
        thread.start()
        assert entered.wait(timeout=5)
        # A *distinct* build beyond max_in_flight + max_queue_depth is refused.
        with pytest.raises(ServiceOverloadedError):
            service.generate_privacy_forest(1, 1)
        assert service.metrics.count("rejected") == 1
        release.set()
        thread.join(timeout=30)
        # After the backlog drains, the service admits work again.
        assert service.generate_privacy_forest(1, 0) is not None


class TestBatching:
    def test_batch_deduplicates_identical_requests(self, service):
        requests = [
            ObfuscationRequest(privacy_level=1, delta=1),
            ObfuscationRequest(privacy_level=1, delta=1, epsilon=2.0),  # same effective key
            ObfuscationRequest(privacy_level=1, delta=0),
        ]
        responses = service.handle_batch(requests)
        assert len(responses) == 3
        assert responses[0].to_dict() == responses[1].to_dict()
        assert service.metrics.count("batch_coalesced") == 1
        assert service.metrics.count("engine_builds") == 2

    def test_oversized_batch_rejected(self, engine):
        service = CORGIService(engine, ServiceConfig(max_batch_size=1))
        with pytest.raises(ServiceOverloadedError):
            service.handle_batch(
                [
                    ObfuscationRequest(privacy_level=1, delta=0),
                    ObfuscationRequest(privacy_level=1, delta=1),
                ]
            )


class TestServiceMetrics:
    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            ServiceMetrics().increment("typo")

    def test_percentiles_empty_window(self):
        assert ServiceMetrics().latency_percentiles() == {}

    def test_percentiles_ordering(self):
        metrics = ServiceMetrics()
        for value in range(1, 101):
            metrics.observe_latency(value / 100.0)
        percentiles = metrics.latency_percentiles()
        assert percentiles["p50"] == pytest.approx(0.50)
        assert percentiles["p90"] == pytest.approx(0.90)
        assert percentiles["p99"] == pytest.approx(0.99)

    def test_percentiles_nearest_rank_on_odd_window(self):
        # Nearest-rank p50 of 5 samples is the median (3rd smallest), not
        # the 2nd — guards against banker's-rounding rank selection.
        metrics = ServiceMetrics()
        for value in (1.0, 2.0, 3.0, 4.0, 5.0):
            metrics.observe_latency(value)
        assert metrics.latency_percentiles()["p50"] == pytest.approx(3.0)

    def test_snapshot_shape(self, service):
        service.generate_privacy_forest(1, 0)
        snapshot = service.snapshot()
        assert snapshot["service"]["requests"] == 1
        assert "structure_sharing" in snapshot["engine"]
        assert snapshot["limits"]["max_in_flight"] >= 1
        assert snapshot["gauges"] == {"pending_leaders": 0, "inflight_keys": 0}

    def test_snapshot_takes_the_metrics_lock_exactly_once(self):
        """Regression: counters, window and percentiles must come from one
        consistent view — an earlier snapshot() re-acquired the lock for the
        percentiles, letting a concurrent writer slip between the reads."""
        metrics = ServiceMetrics()
        for value in range(10):
            metrics.observe_latency(value / 10.0)
        real_lock = metrics._lock
        acquisitions = []

        class CountingLock:
            def __enter__(self):
                acquisitions.append(1)
                return real_lock.__enter__()

            def __exit__(self, *exc_info):
                return real_lock.__exit__(*exc_info)

        metrics._lock = CountingLock()
        try:
            snapshot = metrics.snapshot()
        finally:
            metrics._lock = real_lock
        assert len(acquisitions) == 1
        assert snapshot["latency_window"] == 10
        # Nearest-rank p50 of {0.0 … 0.9} is the 5th smallest sample.
        assert snapshot["latency_s"]["p50"] == pytest.approx(0.4)

    def test_snapshot_consistent_under_concurrent_writes(self):
        """The reported window can never disagree with the percentile basis."""
        metrics = ServiceMetrics(latency_window=64)
        stop = threading.Event()

        def writer():
            value = 0
            while not stop.is_set():
                value += 1
                metrics.observe_latency(float(value))

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            for _ in range(200):
                snapshot = metrics.snapshot()
                window = snapshot["latency_window"]
                assert window <= 64
                percentiles = snapshot["latency_s"]
                if window == 0:
                    assert percentiles == {}
                else:
                    assert percentiles["p50"] <= percentiles["p90"] <= percentiles["p99"]
        finally:
            stop.set()
            thread.join(timeout=10)


# --------------------------------------------------------------------- #
# Structure sharing across congruent sibling sub-trees (ROADMAP lever)
# --------------------------------------------------------------------- #


class TestStructureSharing:
    @pytest.fixture()
    def shared_engine(self, medium_tree):
        return ForestEngine(
            medium_tree,
            ServerConfig(epsilon=2.0, num_targets=5, robust_iterations=1),
        )

    def test_siblings_share_one_structure(self, shared_engine):
        """Acceptance: congruent sibling sub-trees share a structure (reuses > 0)."""
        forest = shared_engine.build_forest(privacy_level=1, delta=0)
        assert len(forest) == 7
        stats = shared_engine.cache_diagnostics()["structure_sharing"]
        assert stats["builds"] >= 1
        assert stats["reuses"] > 0
        # All 7 sibling sub-trees are congruent: one build serves the rest.
        assert stats["builds"] + stats["reuses"] == 7

    def test_sharing_matches_unshared_results(self, shared_engine):
        """Each shared-structure matrix equals Algorithm 1 run alone on its sub-tree."""
        shared_forest = shared_engine.build_forest(privacy_level=1, delta=1)
        assert shared_engine.cache_diagnostics()["structure_sharing"]["reuses"] > 0
        for root_id, matrix in shared_forest:
            task = RobustGenerationTask(
                key=root_id,
                problem=shared_engine._prepare_subtree(root_id),
                epsilon=shared_forest.epsilon,
                delta=1,
                max_iterations=shared_engine.config.robust_iterations,
            )
            reference = execute_robust_task(task)
            assert np.array_equal(matrix.values, reference.matrix.values)


# --------------------------------------------------------------------- #
# End-to-end: client over HTTP against a live ThreadingHTTPServer
# --------------------------------------------------------------------- #


@pytest.fixture()
def http_stack(service):
    server = CORGIHTTPServer(service, port=0).start()
    try:
        yield server, HTTPTransport(server.url)
    finally:
        server.shutdown()


class TestHTTPEndToEnd:
    def test_health_and_metrics(self, http_stack):
        _, transport = http_stack
        assert transport.health() == {"status": "ok"}
        metrics = transport.metrics()
        assert "service" in metrics and "engine" in metrics

    def test_transports_byte_identical(self, http_stack, service):
        """Acceptance: HTTP and in-process transports return byte-identical forests."""
        _, http_transport = http_stack
        request = ObfuscationRequest(privacy_level=1, delta=1)
        over_http = http_transport.fetch_forest(request)
        in_process = InProcessTransport(service).fetch_forest(request)
        assert json.dumps(over_http.to_dict(), sort_keys=True) == json.dumps(
            in_process.to_dict(), sort_keys=True
        )

    def test_client_over_http(self, http_stack, small_tree_with_priors):
        _, transport = http_stack
        client = CORGIClient(small_tree_with_priors, transport)
        center = small_tree_with_priors.root.center
        policy = Policy(privacy_level=1, precision_level=0, delta=1)
        outcome = client.obfuscate(center.lat, center.lng, policy, seed=11)
        leaf_ids = {leaf.node_id for leaf in small_tree_with_priors.leaves()}
        assert outcome.reported_node_id in leaf_ids
        assert outcome.metadata["privacy_level"] == 1

    def test_client_over_http_matches_in_process(
        self, http_stack, small_tree_with_priors, service
    ):
        _, transport = http_stack
        center = small_tree_with_priors.root.center
        policy = Policy(privacy_level=1, precision_level=0, delta=1)
        remote = CORGIClient(small_tree_with_priors, transport)
        local = CORGIClient(small_tree_with_priors, service)
        outcome_remote = remote.obfuscate(center.lat, center.lng, policy, seed=5)
        outcome_local = local.obfuscate(center.lat, center.lng, policy, seed=5)
        assert outcome_remote.reported_node_id == outcome_local.reported_node_id
        assert np.array_equal(
            outcome_remote.customized_matrix.values,
            outcome_local.customized_matrix.values,
        )

    def test_batch_endpoint(self, http_stack):
        _, transport = http_stack
        requests = [
            ObfuscationRequest(privacy_level=1, delta=1),
            ObfuscationRequest(privacy_level=1, delta=1),
        ]
        responses = transport.fetch_forests(requests)
        assert len(responses) == 2
        assert responses[0].to_dict() == responses[1].to_dict()

    def test_invalid_request_maps_to_400(self, http_stack):
        _, transport = http_stack
        with pytest.raises(TransportError) as excinfo:
            transport.fetch_forest(ObfuscationRequest(privacy_level=9, delta=0))
        assert excinfo.value.status == 400

    def test_unknown_route_maps_to_404(self, http_stack):
        _, transport = http_stack
        with pytest.raises(TransportError) as excinfo:
            transport._post("/nope", {})
        assert excinfo.value.status == 404

    def test_missing_body_field_maps_to_400(self, http_stack):
        _, transport = http_stack
        with pytest.raises(TransportError) as excinfo:
            transport._post("/forest", {"delta": 1})
        assert excinfo.value.status == 400

    def test_priors_endpoint(self, http_stack, small_tree_with_priors):
        _, transport = http_stack
        priors = transport._get(f"/priors/{small_tree_with_priors.root.node_id}")
        assert len(priors) == 7
        assert sum(priors.values()) == pytest.approx(1.0)

    def test_unreachable_server(self):
        transport = HTTPTransport("http://127.0.0.1:9", timeout_s=0.5)
        with pytest.raises(TransportError):
            transport.health()


class TestUpdateListeners:
    """The push gateway's hook: listeners registered through the service
    run on the engine, once per priors install."""

    @pytest.fixture()
    def listened(self, small_tree_with_priors):
        engine = ForestEngine(
            copy.deepcopy(small_tree_with_priors),
            ServerConfig(epsilon=2.0, num_targets=5, robust_iterations=1),
        )
        return engine, CORGIService(engine)

    def test_a_service_publish_notifies_each_listener_once(self, listened):
        engine, service = listened
        calls = []

        def listener():
            calls.append(engine.priors_generation)

        service.add_update_listener(listener)
        assert engine.update_listeners == [listener]
        masses = {leaf.node_id: index + 1.0 for index, leaf in enumerate(engine.tree.leaves())}
        service.publish_priors(masses)
        assert calls == [1]
        service.remove_update_listener(listener)
        service.remove_update_listener(listener)  # a missing one is ignored
        service.publish_priors(masses)
        assert calls == [1]

    def test_a_non_callable_listener_is_refused(self, listened):
        engine, service = listened
        with pytest.raises(TypeError, match="callable"):
            service.add_update_listener("not a listener")
        assert engine.update_listeners == []


class TestAdminEndpoints:
    """Live prior updates over the wire: /admin/priors."""

    @pytest.fixture()
    def admin_stack(self, small_tree_with_priors):
        # A private tree copy: /admin/priors mutates leaf priors, and the
        # session-scoped fixture tree must stay pristine for other tests.
        tree = copy.deepcopy(small_tree_with_priors)
        engine = ForestEngine(
            tree, ServerConfig(epsilon=2.0, num_targets=5, robust_iterations=1)
        )
        service = CORGIService(engine)
        server = CORGIHTTPServer(service, port=0).start()
        try:
            yield tree, service, HTTPTransport(server.url)
        finally:
            server.shutdown()

    def test_invalidate_path_is_an_unknown_route(self, admin_stack):
        _, _, transport = admin_stack
        for body in ({}, {"privacy_level": 1}, {"privacy_level": "not-a-level"}):
            with pytest.raises(TransportError) as excinfo:
                transport._post("/admin/invalidate", body)
            assert excinfo.value.status == 404

    def test_priors_endpoint_republishes(self, admin_stack):
        tree, service, transport = admin_stack
        request = ObfuscationRequest(privacy_level=1, delta=1)
        transport.fetch_forest(request)
        masses = {leaf.node_id: index + 1.0 for index, leaf in enumerate(tree.leaves())}
        assert transport._post("/admin/priors", {"priors": masses}) == {"leaves": len(masses)}
        published = transport._get(f"/priors/{tree.root.node_id}")
        assert max(published.values()) == pytest.approx(7.0 / 28.0)
        # Nothing was flushed, and the next request rebuilds on the new priors.
        assert transport.metrics()["engine"]["forest_entries"] == 1
        transport.fetch_forest(request)
        assert service.metrics.count("engine_builds") == 2

    def test_priors_endpoint_rejects_bad_payloads(self, admin_stack):
        tree, _, transport = admin_stack
        leaf_id = tree.leaves()[0].node_id
        # Regression: Python's json parses NaN/Infinity, and a NaN mass
        # would poison every prior in the tree if it got through.
        for poison in (float("nan"), float("inf"), -1.0):
            with pytest.raises(TransportError) as excinfo:
                transport._post("/admin/priors", {"priors": {leaf_id: poison}})
            assert excinfo.value.status == 400
        with pytest.raises(TransportError) as excinfo:
            transport._post("/admin/priors", {"priors": {}})
        assert excinfo.value.status == 400
        with pytest.raises(TransportError) as excinfo:
            transport._post("/admin/priors", {"priors": "not-a-dict"})
        assert excinfo.value.status == 400
        with pytest.raises(TransportError) as excinfo:
            transport._post("/admin/priors", {"priors": {"bogus-node": 1.0}})
        assert excinfo.value.status == 404  # unknown node id


class TestProviderNormalization:
    def test_provider_passthrough(self, engine, service):
        provider = as_forest_provider(engine)
        assert isinstance(provider, CORGIService) and provider.engine is engine
        assert as_forest_provider(service) is service

    def test_transport_wrapped(self, service):
        provider = as_forest_provider(InProcessTransport(service))
        assert isinstance(provider, TransportForestProvider)
        forest = provider.generate_privacy_forest(1, 0)
        assert len(forest) >= 1
        assert forest.matrix_for_subtree(forest.subtree_roots()[0]) is not None
        with pytest.raises(KeyError):
            forest.matrix_for_subtree("h9:99:99")

    def test_unusable_target_rejected(self):
        with pytest.raises(TypeError):
            as_forest_provider(42)


class TestBuildTimeoutOverHTTP:
    def test_follower_deadline_maps_to_503_build_timeout(self, engine):
        """Regression: the follower deadline must surface as a retryable 503.

        A wedged leader plus a tiny ``build_wait_timeout_s`` makes the HTTP
        request for the same key a timed-out follower; the handler maps the
        typed error to 503/"build_timeout", never a 500.
        """
        service = CORGIService(engine, ServiceConfig(build_wait_timeout_s=0.2))
        release = threading.Event()
        entered = threading.Event()
        original = engine.build_forest_traced

        def wedged_build(*args, **kwargs):
            entered.set()
            release.wait(timeout=30)
            return original(*args, **kwargs)

        engine.build_forest_traced = wedged_build
        leader = threading.Thread(
            target=lambda: service.generate_privacy_forest(1, 1), daemon=True
        )
        with CORGIHTTPServer(service, port=0) as server:
            transport = HTTPTransport(server.url, timeout_s=30)
            leader.start()
            try:
                assert entered.wait(timeout=5)
                with pytest.raises(TransportError) as excinfo:
                    transport.fetch_forest(ObfuscationRequest(privacy_level=1, delta=1))
                assert excinfo.value.status == 503
                assert "coalesced follower waited" in str(excinfo.value)
                assert service.metrics.count("build_timeouts") == 1
            finally:
                engine.build_forest_traced = original
                release.set()
                leader.join(timeout=30)


class TestHTTPShutdown:
    def test_shutdown_force_closes_held_keepalive_connection(self, service):
        """Regression: a held keep-alive socket used to leak its handler thread.

        ``shutdown()`` must shut the lingering connection down explicitly
        (popping the handler out of its blocking read) and still join the
        serving thread — not return leaving both parked forever.
        """
        server = CORGIHTTPServer(service, port=0).start()
        sock = socket.create_connection((server.host, server.port), timeout=10)
        try:
            sock.sendall(
                b"GET /healthz HTTP/1.1\r\n"
                b"Host: test\r\nConnection: keep-alive\r\n\r\n"
            )
            response = b""
            while b'{"status": "ok"}' not in response:
                chunk = sock.recv(65536)
                assert chunk, f"connection closed mid-response: {response!r}"
                response += chunk
            assert b"200" in response.split(b"\r\n", 1)[0]
            # The connection is now held open and its handler thread is
            # parked in a blocking read waiting for the next request.
            server.shutdown()
            # The server tore the held connection down under us: the next
            # read sees EOF (or a reset) instead of blocking forever.
            sock.settimeout(10)
            try:
                trailing = sock.recv(65536)
            except OSError:
                trailing = b""
            assert trailing == b""
            assert server._thread is None
        finally:
            sock.close()

    def test_shutdown_raises_when_the_serving_thread_will_not_die(
        self, service, monkeypatch
    ):
        """Regression: a failed join used to return as if shutdown were clean."""
        server = CORGIHTTPServer(service, port=0).start()
        real_thread = server._thread
        hang = threading.Event()
        stuck = threading.Thread(target=hang.wait, daemon=True)
        stuck.start()
        monkeypatch.setattr(CORGIHTTPServer, "JOIN_TIMEOUT_S", 0.1)
        server._thread = stuck
        try:
            with pytest.raises(RuntimeError, match="did not stop"):
                server.shutdown()
        finally:
            hang.set()
            stuck.join(timeout=5)
            # Clean up the real serving thread (the listener is already
            # closed by the failed shutdown attempt, so only the join and
            # bookkeeping remain).
            server._thread = real_thread
            real_thread.join(timeout=5)
            server._thread = None
