"""Ride-hailing scenario: privacy-preserving pick-up requests.

The paper motivates CORGI with location-based services such as Uber/Lyft: the
rider shares an obfuscated location, the service estimates the pick-up
distance from it, and the utility loss is exactly the estimation error of
travelling distance (Eq. 3).  This example quantifies that trade-off:

* a rider repeatedly requests rides from their (held-out) real locations;
* drivers wait at the most popular venues (the target distribution Q);
* we compare CORGI against the non-robust LP baseline and the classic planar
  Laplace mechanism, reporting the mean pick-up-distance estimation error and
  what a Bayesian attacker could infer from the reports.

Run with::

    python examples/ride_hailing.py
"""

import numpy as np

from repro import (
    BayesianAttacker,
    CORGIClient,
    ForestEngine,
    NonRobustLPMechanism,
    PlanarLaplaceMechanism,
    Policy,
    ServerConfig,
    annotate_tree_with_dataset,
    priors_from_checkins,
    tree_for_region,
)
from repro.analysis.tables import ResultTable
from repro.core.objective import QualityLossModel, TargetDistribution, estimation_error_km
from repro.core.graphapprox import HexNeighborhoodGraph
from repro.datasets import SAN_FRANCISCO
from repro.datasets.splits import train_test_split_checkins
from repro.datasets.synthetic import generate_small_dataset

EPSILON = 8.0  # km^-1
NUM_RIDES = 60


def main() -> None:
    dataset = generate_small_dataset(num_checkins=5_000, seed=21)
    train, test = train_test_split_checkins(dataset, test_fraction=0.1, seed=21)

    tree = tree_for_region(SAN_FRANCISCO, height=2, root_resolution=7)
    priors_from_checkins(tree, train)
    annotate_tree_with_dataset(tree, train)

    # Drivers idle at the 15 most popular leaf cells (popularity-weighted).
    leaf_counts = {leaf.node_id: leaf.get_attribute("checkin_count", 0) for leaf in tree.leaves()}
    popular = sorted(leaf_counts, key=leaf_counts.get, reverse=True)[:15]
    targets = TargetDistribution.uniform([tree.node(node_id).center.as_tuple() for node_id in popular])

    engine = ForestEngine(
        tree, ServerConfig(epsilon=EPSILON, num_targets=15, robust_iterations=3), targets=targets
    )
    client = CORGIClient(tree, engine)
    policy = Policy(privacy_level=2, precision_level=0, delta=2)

    # Baselines are built over the same 49-leaf obfuscation range.
    subtree_root = tree.node_for_latlng(*tree.root.center.as_tuple(), level=2)
    leaves = tree.descendant_leaves(subtree_root.node_id)
    ids = [leaf.node_id for leaf in leaves]
    centers = [leaf.center.as_tuple() for leaf in leaves]
    priors = tree.conditional_leaf_priors(ids)
    graph = HexNeighborhoodGraph(tree.grid, [leaf.cell for leaf in leaves])
    model = QualityLossModel(centers, targets, priors)
    nonrobust = NonRobustLPMechanism(
        ids, graph.euclidean_distance_matrix(), model, EPSILON, constraint_set=graph.constraint_set()
    )
    laplace = PlanarLaplaceMechanism(
        ids, centers, EPSILON, grid=tree.grid, leaf_resolution=tree.leaf_resolution
    )

    # Ride requests from held-out check-ins inside the obfuscation range.
    rng = np.random.default_rng(3)
    rides = []
    for checkin in test:
        if tree.contains_latlng(checkin.lat, checkin.lng):
            leaf = tree.leaf_for_latlng(checkin.lat, checkin.lng)
            if leaf.node_id in set(ids):
                rides.append((checkin.lat, checkin.lng))
        if len(rides) >= NUM_RIDES:
            break

    def pickup_error(real, reported_center):
        return float(
            np.mean([estimation_error_km(real, reported_center, target) for target in targets.locations])
        )

    table = ResultTable(title="Ride-hailing: pick-up distance estimation error and attacker accuracy")
    errors = {"CORGI (robust, delta=2)": [], "non-robust LP": [], "planar Laplace": []}
    for lat, lng in rides:
        leaf = tree.leaf_for_latlng(lat, lng)
        outcome = client.obfuscate(lat, lng, policy, seed=rng)
        errors["CORGI (robust, delta=2)"].append(pickup_error((lat, lng), outcome.reported_center.as_tuple()))
        reported = nonrobust.obfuscate(leaf.node_id, seed=rng)
        errors["non-robust LP"].append(pickup_error((lat, lng), tree.node(reported).center.as_tuple()))
        reported = laplace.obfuscate_latlng(lat, lng, seed=rng)
        errors["planar Laplace"].append(pickup_error((lat, lng), tree.node(reported).center.as_tuple()))

    distance_matrix = tree.distance_matrix_km(ids)
    for name, mechanism_matrix in (
        (
            "CORGI (robust, delta=2)",
            engine.build_forest(2, 2).matrix_for_subtree(subtree_root.node_id),
        ),
        ("non-robust LP", nonrobust.matrix),
        ("planar Laplace", laplace.to_matrix(num_samples=100, seed=1)),
    ):
        attacker = BayesianAttacker(mechanism_matrix, priors, distance_matrix)
        table.add_row(
            mechanism=name,
            mean_pickup_error_km=float(np.mean(errors[name])),
            attacker_recovery_rate=attacker.recovery_rate(),
            attacker_expected_error_km=attacker.expected_inference_error_km(),
        )
    table.print()
    print(f"\n({len(rides)} ride requests, epsilon = {EPSILON}/km, 49-location obfuscation range)")


if __name__ == "__main__":
    main()
