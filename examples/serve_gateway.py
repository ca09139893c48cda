"""Hold one push-gateway connection and receive matrix refreshes, no polling.

Demonstrates the asyncio push front-end layered over the same service core
the sync HTTP transport uses:

1. the server process wraps a ``ForestEngine`` in a ``CORGIService`` and
   starts a ``GatewayServer`` next to the ``CORGIHTTPServer`` — both fronts
   share the single-flight gate, caches, metrics and admin surface;
2. the user device opens **one** long-lived ``GatewayClient`` connection,
   subscribes to its ``(privacy_level, delta, epsilon)`` key and blocks on
   pushes — no re-poll loop anywhere;
3. an admin ``publish_priors`` (a fresh batch of check-in statistics)
   flushes the caches and the gateway pushes the rebuilt matrix to every
   subscriber, tagged with a new generation; the client's generation guard
   guarantees it never installs a matrix older than the one it holds;
4. the gateway counters surface in the service metrics and the gateway
   gauges in ``GET /admin/diagnostics`` of the HTTP front.

Run with::

    python examples/serve_gateway.py

For a standalone server use ``python -m repro.experiments.runner --serve
--port 8350 --gateway-port 8351``.
"""

import json

from repro import (
    CORGIHTTPServer,
    CORGIService,
    ServerConfig,
    annotate_tree_with_dataset,
    priors_from_checkins,
    tree_for_region,
)
from repro.client.gateway import GatewayClient
from repro.datasets import SAN_FRANCISCO
from repro.datasets.synthetic import generate_small_dataset
from repro.server.engine import ForestEngine
from repro.service.gateway import GatewayServer

PRIVACY_LEVEL = 1
DELTA = 1


def main() -> None:
    # --- server side -------------------------------------------------- #
    dataset = generate_small_dataset(num_checkins=4_000, seed=7)
    tree = tree_for_region(SAN_FRANCISCO, height=1, root_resolution=8)
    priors_from_checkins(tree, dataset)
    annotate_tree_with_dataset(tree, dataset)

    engine = ForestEngine(tree, ServerConfig(epsilon=10.0, num_targets=20, robust_iterations=1))
    service = CORGIService(engine)

    with GatewayServer(service) as gateway, CORGIHTTPServer(service, port=0) as http:
        print(f"server: push gateway on {gateway.host}:{gateway.port}, HTTP on {http.url}")

        # --- user device: one held connection, zero polling ------------ #
        with GatewayClient(gateway.host, gateway.port) as device:
            key = device.subscribe(PRIVACY_LEVEL, DELTA)
            print(f"client: subscribed to {key}")

            initial = device.wait_forest(key)
            print(
                f"client: initial matrix pushed (generation {initial.generation}, "
                f"{len(initial.forest().matrices)} sub-tree(s))"
            )

            # --- admin publishes fresh priors — the refresh is PUSHED -- #
            new_priors = {leaf.node_id: leaf.prior + 0.001 for leaf in tree.leaves()}
            service.publish_priors(new_priors)
            print("admin:  published new priors")

            refreshed = device.wait_forest(key, min_generation=initial.generation + 1)
            print(
                f"client: refreshed matrix pushed (generation {refreshed.generation}, "
                f"reason {refreshed.reason!r}) — no re-poll happened"
            )
            print(f"client: frame stats {device.stats()}")

        # --- observability --------------------------------------------- #
        snapshot = service.metrics.snapshot()
        print("server: gateway counters:")
        print(
            json.dumps(
                {k: v for k, v in snapshot.items() if k.startswith("gateway_")},
                indent=2,
            )
        )
        print("server: gateway gauges (also under GET /admin/diagnostics):")
        print(json.dumps(service.diagnostics()["gateway"], indent=2))


if __name__ == "__main__":
    main()
