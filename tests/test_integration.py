"""End-to-end integration tests: the full CORGI pipeline on realistic data.

These tests wire every subsystem together the way the examples and the paper
do: synthetic Gowalla-like check-ins -> location tree + priors + attributes
-> server-side robust matrix generation -> client-side customization ->
obfuscated reports -> privacy/utility evaluation.
"""

import numpy as np
import pytest

from repro import (
    CORGIClient,
    CORGIService,
    ForestEngine,
    ObfuscationSession,
    Policy,
    ServerConfig,
    annotate_tree_with_dataset,
    check_geo_ind,
    priors_from_checkins,
    tree_for_region,
)
from repro.attacks.bayesian import BayesianAttacker
from repro.datasets.region import SAN_FRANCISCO
from repro.datasets.splits import train_test_split_checkins
from repro.datasets.synthetic import generate_small_dataset


@pytest.fixture(scope="module")
def pipeline():
    """A complete small-scale CORGI deployment shared by the tests below."""
    dataset = generate_small_dataset(1_500, seed=11)
    train, test = train_test_split_checkins(dataset, 0.1, seed=11)
    tree = tree_for_region(SAN_FRANCISCO, height=2, root_resolution=7)
    priors_from_checkins(tree, train)
    annotate_tree_with_dataset(tree, train)
    config = ServerConfig(epsilon=5.0, num_targets=10, robust_iterations=2, solver_method="highs-ipm")
    engine = ForestEngine(tree, config)
    user = dataset.users()[0]
    client = CORGIClient(tree, engine, user_id=user, history=train)
    return {"tree": tree, "engine": engine, "client": client, "train": train, "test": test}


class TestEndToEnd:
    def test_full_report_flow(self, pipeline):
        tree = pipeline["tree"]
        client = pipeline["client"]
        real = tree.root.center
        policy = Policy.from_strings(
            privacy_level=1,
            precision_level=0,
            preferences=["outlier = False"],
            delta=1,
        )
        outcome = client.obfuscate(real.lat, real.lng, policy, seed=5)
        # The reported node is a leaf of the user's level-1 sub-tree.
        subtree_leaves = {leaf.node_id for leaf in tree.descendant_leaves(outcome.subtree_root_id)}
        assert outcome.reported_node_id in subtree_leaves
        # The customized matrix still satisfies Geo-Ind on its surviving locations.
        ids = outcome.customized_matrix.node_ids
        distances = tree.distance_matrix_km(ids)
        report = check_geo_ind(outcome.customized_matrix, distances, epsilon=5.0, rtol=1e-3, atol=1e-4)
        assert report.violation_fraction < 0.05

    def test_wider_privacy_level_spreads_reports(self, pipeline):
        tree = pipeline["tree"]
        client = pipeline["client"]
        real = tree.root.center
        rng = np.random.default_rng(0)
        narrow = {
            client.obfuscate(real.lat, real.lng, Policy(privacy_level=1, delta=0), seed=rng).reported_node_id
            for _ in range(10)
        }
        wide = {
            client.obfuscate(real.lat, real.lng, Policy(privacy_level=2, delta=0), seed=rng).reported_node_id
            for _ in range(10)
        }
        narrow_root = tree.node_for_latlng(real.lat, real.lng, 1).node_id
        narrow_range = {leaf.node_id for leaf in tree.descendant_leaves(narrow_root)}
        assert narrow <= narrow_range
        # The wide policy may (and with 10 draws usually does) leave the narrow range.
        assert len(wide) >= 1

    def test_session_over_test_checkins(self, pipeline):
        tree = pipeline["tree"]
        client = pipeline["client"]
        policy = Policy(privacy_level=1, precision_level=0, delta=1)
        session = ObfuscationSession(client, policy)
        reported = 0
        for checkin in list(pipeline["test"])[:200]:
            if not tree.contains_latlng(checkin.lat, checkin.lng):
                continue
            report = session.report(checkin.lat, checkin.lng, seed=reported)
            assert tree.contains_latlng(*report.reported_latlng)
            reported += 1
            if reported >= 5:
                break
        assert reported > 0

    def test_attacker_cannot_fully_recover(self, pipeline):
        tree = pipeline["tree"]
        engine = pipeline["engine"]
        forest = engine.build_forest(privacy_level=1, delta=1)
        root_id = forest.subtree_roots()[0]
        matrix = forest.matrix_for_subtree(root_id)
        leaves = tree.descendant_leaves(root_id)
        ids = [leaf.node_id for leaf in leaves]
        priors = tree.conditional_leaf_priors(ids)
        distances = tree.distance_matrix_km(ids)
        attacker = BayesianAttacker(matrix, priors, distances)
        assert attacker.recovery_rate() < 1.0
        assert attacker.expected_inference_error_km() > 0.0

    def test_serialized_forest_usable_by_client_side_code(self, pipeline):
        from repro.core.pruning import prune_matrix
        from repro.server.messages import ObfuscationRequest

        engine = pipeline["engine"]
        response = CORGIService(engine).handle(ObfuscationRequest(privacy_level=1, delta=1))
        payload = response.to_dict()
        from repro.server.messages import PrivacyForestResponse

        restored = PrivacyForestResponse.from_dict(payload)
        root_id = next(iter(restored.matrices))
        matrix = restored.matrices[root_id]
        matrix.validate()
        pruned = prune_matrix(matrix, [matrix.node_ids[0]])
        assert pruned.size == matrix.size - 1

    def test_public_api_importable(self):
        import repro

        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ exports missing attribute {name}"
