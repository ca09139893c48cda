"""Integration tests for the server (Algorithm 3) and the client (Algorithm 4)."""

import pytest

from repro.client.client import CORGIClient
from repro.client.session import ObfuscationSession
from repro.core.geoind import check_geo_ind
from repro.policy.policy import Policy
from repro.server.engine import ForestEngine, ServerConfig
from repro.server.messages import ObfuscationRequest, PrivacyForestResponse
from repro.server.privacy_forest import PrivacyForest
from repro.service.service import CORGIService


@pytest.fixture(scope="module")
def engine(small_tree_with_priors):
    config = ServerConfig(
        epsilon=2.0,
        num_targets=5,
        robust_iterations=2,
        solver_method="highs-ipm",
    )
    return ForestEngine(small_tree_with_priors, config)


@pytest.fixture(scope="module")
def client(small_tree_with_priors, engine, synthetic_dataset):
    user = synthetic_dataset.users()[0]
    return CORGIClient(small_tree_with_priors, engine, user_id=user, history=synthetic_dataset)


class TestServerConfig:
    def test_defaults_valid(self):
        ServerConfig().validate()

    def test_invalid_configs(self):
        with pytest.raises(ValueError):
            ServerConfig(epsilon=0).validate()
        with pytest.raises(ValueError):
            ServerConfig(num_targets=0).validate()
        with pytest.raises(ValueError):
            ServerConfig(robust_iterations=-1).validate()
        with pytest.raises(ValueError):
            ServerConfig(rpb_method="nope").validate()


class TestForestEngine:
    def test_forest_covers_every_subtree(self, engine, small_tree_with_priors):
        forest = engine.build_forest(privacy_level=1, delta=1)
        assert len(forest) == 1  # only the root at level 1 of a height-1 tree
        assert forest.is_complete()
        forest_level0 = engine.build_forest(privacy_level=0, delta=0)
        assert len(forest_level0) == 7

    def test_matrices_are_valid_and_private(self, engine, small_tree_with_priors):
        forest = engine.build_forest(privacy_level=1, delta=1)
        root_id = small_tree_with_priors.root.node_id
        matrix = forest.matrix_for_subtree(root_id)
        matrix.validate()
        leaves = small_tree_with_priors.descendant_leaves(root_id)
        distances = small_tree_with_priors.distance_matrix_km([leaf.node_id for leaf in leaves])
        assert check_geo_ind(matrix, distances, epsilon=2.0, rtol=1e-4, atol=1e-5).satisfied

    def test_cache_reuse(self, engine):
        first = engine.build_forest(privacy_level=1, delta=1)
        second = engine.build_forest(privacy_level=1, delta=1)
        assert first is second
        assert engine.cache_size() >= 1

    def test_epsilon_override(self, engine):
        forest = engine.build_forest(privacy_level=1, delta=0, epsilon=3.0)
        assert forest.epsilon == 3.0

    def test_negative_delta_rejected(self, engine):
        with pytest.raises(ValueError):
            engine.build_forest(privacy_level=1, delta=-1)

    def test_handle_request_roundtrip(self, engine):
        response = CORGIService(engine).handle(ObfuscationRequest(privacy_level=1, delta=1))
        assert isinstance(response, PrivacyForestResponse)
        assert response.matrices
        restored = PrivacyForestResponse.from_dict(response.to_dict())
        assert set(restored.matrices) == set(response.matrices)

    def test_publish_leaf_priors(self, engine, small_tree_with_priors):
        priors = engine.publish_leaf_priors(small_tree_with_priors.root.node_id)
        assert len(priors) == 7
        assert sum(priors.values()) == pytest.approx(1.0)


class TestPrivacyForest:
    def test_lookup_by_location(self, engine, small_tree_with_priors):
        forest = engine.build_forest(privacy_level=1, delta=0)
        center = small_tree_with_priors.root.center
        root_id, matrix = forest.matrix_for_location(center.lat, center.lng)
        assert root_id == small_tree_with_priors.root.node_id
        assert matrix.size == 7

    def test_unknown_subtree_rejected(self, engine):
        forest = engine.build_forest(privacy_level=1, delta=0)
        with pytest.raises(KeyError):
            forest.matrix_for_subtree("h9:99:99")

    def test_add_validates_level(self, small_tree_with_priors, engine):
        forest = PrivacyForest(small_tree_with_priors, privacy_level=1, delta=0, epsilon=2.0)
        leaf = small_tree_with_priors.leaves()[0]
        existing = engine.build_forest(privacy_level=1, delta=0)
        matrix = existing.matrix_for_subtree(small_tree_with_priors.root.node_id)
        with pytest.raises(ValueError):
            forest.add(leaf.node_id, matrix)

    def test_invalid_privacy_level(self, small_tree_with_priors):
        with pytest.raises(ValueError):
            PrivacyForest(small_tree_with_priors, privacy_level=9, delta=0, epsilon=1.0)

    def test_message_validation(self):
        with pytest.raises(ValueError):
            ObfuscationRequest(privacy_level=-1, delta=0)
        with pytest.raises(ValueError):
            ObfuscationRequest(privacy_level=0, delta=-1)
        with pytest.raises(ValueError):
            ObfuscationRequest(privacy_level=0, delta=0, epsilon=0.0)
        request = ObfuscationRequest.from_dict({"privacy_level": 1, "delta": 2})
        assert request.delta == 2


class TestCORGIClient:
    def test_obfuscation_outcome_structure(self, client, small_tree_with_priors):
        center = small_tree_with_priors.root.center
        policy = Policy(privacy_level=1, precision_level=0, delta=1)
        outcome = client.obfuscate(center.lat, center.lng, policy, seed=3)
        assert outcome.reported_node_id in {leaf.node_id for leaf in small_tree_with_priors.leaves()}
        assert outcome.real_leaf_id == small_tree_with_priors.leaf_for_latlng(center.lat, center.lng).node_id
        assert outcome.subtree_root_id == small_tree_with_priors.root.node_id
        assert outcome.customized_matrix.size <= outcome.matrix.size
        assert outcome.metadata["privacy_level"] == 1

    def test_reported_location_within_subtree(self, client, small_tree_with_priors):
        center = small_tree_with_priors.root.center
        policy = Policy(privacy_level=1, precision_level=0, delta=0)
        for seed in range(5):
            outcome = client.obfuscate(center.lat, center.lng, policy, seed=seed)
            reported = small_tree_with_priors.node(outcome.reported_node_id)
            assert reported.level == 0

    def test_precision_level_reporting(self, client, small_tree_with_priors):
        center = small_tree_with_priors.root.center
        policy = Policy(privacy_level=1, precision_level=1, delta=0)
        outcome = client.obfuscate(center.lat, center.lng, policy, seed=0)
        assert small_tree_with_priors.node(outcome.reported_node_id).level == 1

    def test_preferences_prune_locations(self, client, small_tree_with_priors):
        # Mark one specific (non-central) leaf as to-be-avoided and check it is
        # pruned out of the customized matrix and never reported.
        center = small_tree_with_priors.root.center
        real_leaf = small_tree_with_priors.leaf_for_latlng(center.lat, center.lng)
        avoided = next(
            leaf for leaf in small_tree_with_priors.leaves() if leaf.node_id != real_leaf.node_id
        )
        small_tree_with_priors.annotate(avoided.node_id, {"avoid": True})
        policy = Policy(privacy_level=1, precision_level=0, preferences=["avoid != True"], delta=1)
        outcome = client.obfuscate(center.lat, center.lng, policy, seed=1)
        assert outcome.pruned_ids == [avoided.node_id]
        assert avoided.node_id not in outcome.customized_matrix
        assert outcome.reported_node_id != avoided.node_id

    def test_report_latlng_wrapper(self, client, small_tree_with_priors):
        center = small_tree_with_priors.root.center
        lat, lng = client.report_latlng(center.lat, center.lng, Policy(privacy_level=1, delta=0), seed=2)
        assert small_tree_with_priors.contains_latlng(lat, lng)

    def test_outside_region_rejected(self, client):
        with pytest.raises(KeyError):
            client.obfuscate(0.0, 0.0, Policy(privacy_level=1, delta=0))

    def test_user_attributes_cached(self, client):
        first = client.user_attributes()
        second = client.user_attributes()
        assert first is second
        assert first is not None

    def test_deterministic_given_seed(self, client, small_tree_with_priors):
        center = small_tree_with_priors.root.center
        policy = Policy(privacy_level=1, precision_level=0, delta=1)
        a = client.obfuscate(center.lat, center.lng, policy, seed=77).reported_node_id
        b = client.obfuscate(center.lat, center.lng, policy, seed=77).reported_node_id
        assert a == b


class TestObfuscationSession:
    def test_session_reports(self, client, small_tree_with_priors):
        policy = Policy(privacy_level=1, precision_level=0, delta=1)
        session = ObfuscationSession(client, policy)
        center = small_tree_with_priors.root.center
        reports = session.report_many([(center.lat, center.lng)] * 3, seed=0)
        assert len(reports) == 3
        assert len(session.reports) == 3
        for report in reports:
            assert small_tree_with_priors.contains_latlng(*report.reported_latlng)

    def test_session_caches_customized_matrix(self, client, small_tree_with_priors):
        policy = Policy(privacy_level=1, precision_level=0, delta=1)
        session = ObfuscationSession(client, policy)
        center = small_tree_with_priors.root.center
        session.report(center.lat, center.lng, seed=1)
        cached = dict(session._customized)
        session.report(center.lat, center.lng, seed=2)
        assert dict(session._customized) == cached

    def test_session_invalidate(self, client, small_tree_with_priors):
        policy = Policy(privacy_level=1, precision_level=0, delta=1)
        session = ObfuscationSession(client, policy)
        center = small_tree_with_priors.root.center
        session.report(center.lat, center.lng, seed=1)
        session.invalidate()
        assert not session._customized
