"""Serve CORGI over HTTP and obfuscate through the client transport.

Demonstrates the engine → service → transport stack introduced by the
server-side split:

1. the server process builds the location tree and wraps the pure
   ``ForestEngine`` in a ``CORGIService`` (single-flight coalescing,
   admission control, metrics) behind a stdlib HTTP JSON server;
2. the user device talks to it through an ``HTTPTransport`` — the
   ``CORGIClient`` pipeline is unchanged, only the forest now crosses a
   real socket;
3. the service metrics show the coalescing effect when several identical
   requests arrive at once.

Here both halves run in one process on an ephemeral port so the example is
self-contained; point ``HTTPTransport`` at any reachable host to split
them (e.g. ``python -m repro.experiments.runner --serve --port 8350``).

Run with::

    python examples/serve_http.py
"""

import json
import threading

from repro import (
    CORGIClient,
    CORGIHTTPServer,
    CORGIService,
    HTTPTransport,
    Policy,
    ServerConfig,
    annotate_tree_with_dataset,
    priors_from_checkins,
    tree_for_region,
)
from repro.datasets import SAN_FRANCISCO
from repro.datasets.synthetic import generate_small_dataset
from repro.server.engine import ForestEngine
from repro.server.messages import ObfuscationRequest


def main() -> None:
    # --- server side -------------------------------------------------- #
    dataset = generate_small_dataset(num_checkins=4_000, seed=7)
    tree = tree_for_region(SAN_FRANCISCO, height=2, root_resolution=7)
    priors_from_checkins(tree, dataset)
    annotate_tree_with_dataset(tree, dataset)

    engine = ForestEngine(tree, ServerConfig(epsilon=10.0, num_targets=20, robust_iterations=3))
    service = CORGIService(engine)

    with CORGIHTTPServer(service, port=0) as server:  # port=0 → ephemeral
        print(f"server: listening on {server.url}")

        # --- user device --------------------------------------------- #
        transport = HTTPTransport(server.url)
        print("client: health check:", transport.health())

        client = CORGIClient(tree, transport)
        real_lat, real_lng = tree.root.center.as_tuple()
        policy = Policy.from_strings(
            privacy_level=2,
            precision_level=0,
            preferences=["popular = True"],
            delta=3,
        )
        outcome = client.obfuscate(real_lat, real_lng, policy, seed=42)
        print(f"client: real location     ({real_lat:.5f}, {real_lng:.5f})")
        print(
            f"client: reported location ({outcome.reported_center.lat:.5f}, "
            f"{outcome.reported_center.lng:.5f})  [node {outcome.reported_node_id}]"
        )

        # --- coalescing under concurrent identical requests ----------- #
        # delta=2 is not in the engine cache yet, so the five concurrent
        # requests race: one becomes the build leader, the rest coalesce.
        request = ObfuscationRequest(privacy_level=2, delta=2)
        threads = [
            threading.Thread(target=transport.fetch_forest, args=(request,))
            for _ in range(5)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        metrics = transport.metrics()
        print("server: service metrics:")
        print(json.dumps(metrics["service"], indent=2))
        print("server: structure sharing:", metrics["engine"]["structure_sharing"])

        # --- live prior update over the admin surface ------------------ #
        # New check-in statistics change the forest key, so the next
        # request rebuilds on the new priors.  With `--shards N` (see
        # repro.experiments.runner) the update is broadcast to every shard
        # process of the EnginePool.
        new_priors = {
            leaf.node_id: leaf.prior + 0.001 for leaf in tree.leaves()
        }
        transport.publish_priors(new_priors)
        print("admin: published new priors")


if __name__ == "__main__":
    main()
