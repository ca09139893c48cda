"""Customization deep-dive: how user policies shape the obfuscation range.

The distinguishing feature of CORGI over monolithic Geo-Ind mechanisms is
that each user can carve locations out of their obfuscation range ("never
map me to my home or office", "only popular places", "stay within 2 km")
while the server-generated matrix stays robust to that pruning.  This
example walks one synthetic user through several policies and shows:

* which locations each policy prunes and why (failed predicates);
* how the quality loss and the report spread change with the policy;
* what happens when the policy prunes more than the matrix's delta budget
  (Section 5.3's overflow discussion).

Run with::

    python examples/custom_policies.py
"""

from collections import Counter

from repro import (
    CORGIClient,
    ForestEngine,
    Policy,
    ServerConfig,
    annotate_tree_with_dataset,
    priors_from_checkins,
    tree_for_region,
    user_location_profile,
)
from repro.analysis.tables import ResultTable
from repro.datasets import SAN_FRANCISCO
from repro.datasets.synthetic import generate_small_dataset
from repro.policy.evaluation import DeltaOverflowStrategy


def main() -> None:
    dataset = generate_small_dataset(num_checkins=5_000, seed=13)
    tree = tree_for_region(SAN_FRANCISCO, height=2, root_resolution=7)
    priors_from_checkins(tree, dataset)
    annotate_tree_with_dataset(tree, dataset)

    engine = ForestEngine(tree, ServerConfig(epsilon=10.0, num_targets=20, robust_iterations=3))

    # Pick a user with a rich history so the home/office heuristics fire.
    user_id = max(dataset.by_user(), key=lambda user: len(dataset.by_user()[user]))
    profile = user_location_profile(tree, dataset, user_id)
    home_leaves = [node_id for node_id, flags in profile.items() if flags["home"]]
    print(f"user {user_id}: inferred home leaf = {home_leaves}")

    client = CORGIClient(
        tree,
        engine,
        user_id=user_id,
        history=dataset,
        overflow_strategy=DeltaOverflowStrategy.FAVOR_PREFERENCES,
    )
    real = tree.root.center  # pretend the user is at the centre of the area of interest

    policies = {
        "no customization": Policy(privacy_level=2, precision_level=0, delta=0),
        "hide home & office": Policy.from_strings(
            2, 0, ["home = False", "office = False"], delta=2
        ),
        "popular places only": Policy.from_strings(2, 0, ["popular = True"], delta=10),
        "nearby & not outlier": Policy.from_strings(
            2, 0, ["distance_km <= 2", "outlier = False"], delta=10
        ),
        "coarse reporting (precision 1)": Policy(privacy_level=2, precision_level=1, delta=2),
    }

    table = ResultTable(title="Policy comparison for one user")
    for name, policy in policies.items():
        outcome = client.obfuscate(real.lat, real.lng, policy, seed=17)
        # Spread of reports under this policy (50 draws).
        reports = Counter(
            client.obfuscate(real.lat, real.lng, policy, seed=seed).reported_node_id for seed in range(50)
        )
        table.add_row(
            policy=name,
            pruned=len(outcome.pruned_ids),
            overflow=outcome.evaluation.overflow,
            range_size=outcome.customized_matrix.size,
            distinct_reports=len(reports),
            sample_report=outcome.reported_node_id,
        )
        if outcome.pruned_ids:
            example = outcome.pruned_ids[0]
            print(f"[{name}] e.g. pruned {example} because it failed: "
                  f"{outcome.evaluation.failed_predicates.get(example)}")
    table.print()

    # Overflow handling: a policy that prunes far more than delta.
    aggressive = Policy.from_strings(2, 0, ["popular = True", "distance_km <= 1"], delta=2)
    outcome = client.obfuscate(real.lat, real.lng, aggressive, seed=1)
    print(
        f"\naggressive policy wanted to prune {len(outcome.pruned_ids)} locations with delta=2 -> "
        f"overflow={outcome.evaluation.overflow} (strategy: favor preferences; "
        "Geo-Ind may degrade, see Fig. 12 benchmarks)"
    )


if __name__ == "__main__":
    main()
