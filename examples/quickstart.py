"""Quickstart: obfuscate a location with CORGI in ~40 lines.

Builds a small location tree around downtown San Francisco, derives priors
and location attributes from a synthetic Gowalla-like check-in sample,
generates a robust obfuscation matrix on the (untrusted) server side and
produces a customized obfuscated report on the user side.

Run with::

    python examples/quickstart.py
"""

from repro import (
    CORGIClient,
    ForestEngine,
    Policy,
    ServerConfig,
    annotate_tree_with_dataset,
    priors_from_checkins,
    tree_for_region,
)
from repro.datasets import SAN_FRANCISCO
from repro.datasets.synthetic import generate_small_dataset


def main() -> None:
    # 1. Public data: check-ins (here synthetic; swap in load_gowalla(...) for the real dump).
    dataset = generate_small_dataset(num_checkins=4_000, seed=7)

    # 2. The server builds the location tree for the area of interest and
    #    computes leaf priors + public location attributes from the check-ins.
    tree = tree_for_region(SAN_FRANCISCO, height=2, root_resolution=7)
    priors_from_checkins(tree, dataset)
    annotate_tree_with_dataset(tree, dataset)
    print("location tree:", tree.summary())

    # 3. Server configuration: privacy budget epsilon (per km), robust iterations.
    engine = ForestEngine(tree, ServerConfig(epsilon=10.0, num_targets=20, robust_iterations=3))

    # 4. The user device holds the real location and the customization policy.
    client = CORGIClient(tree, engine)
    real_lat, real_lng = tree.root.center.as_tuple()  # pretend the user stands here
    policy = Policy.from_strings(
        privacy_level=2,        # obfuscation range: the 49-leaf sub-tree around the user
        precision_level=0,      # report at leaf granularity
        preferences=["popular = True"],  # never map me to an unpopular (deserted) block
        delta=3,                # the matrix must survive pruning up to 3 locations
    )
    print("policy:", policy.describe())

    # 5. Obfuscate.
    outcome = client.obfuscate(real_lat, real_lng, policy, seed=42)
    print(f"real location    : ({real_lat:.5f}, {real_lng:.5f})  [leaf {outcome.real_leaf_id}]")
    print(
        f"reported location: ({outcome.reported_center.lat:.5f}, {outcome.reported_center.lng:.5f})"
        f"  [node {outcome.reported_node_id}]"
    )
    print(f"pruned {len(outcome.pruned_ids)} locations that failed the preferences")
    print(
        "distance between real and reported centres: "
        f"{outcome.reported_center.distance_km(tree.node(outcome.real_leaf_id).center):.3f} km"
    )


if __name__ == "__main__":
    main()
