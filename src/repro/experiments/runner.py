"""Run every figure experiment end to end — or serve the workload.

``python -m repro.experiments.runner --scale small`` reproduces all six
figures of Section 6.2, prints the result tables and (optionally) writes
them to a JSON file.  The benchmark harness wraps the same driver functions
individually; this runner exists so the whole evaluation can be reproduced
with one command and its output pasted into EXPERIMENTS.md.

``--serve`` switches the runner into serving mode: it builds the same
workload tree (region, priors, annotations) and exposes it through the
engine → service → transport stack instead of running experiments.
``--transport http`` (default) starts the stdlib HTTP JSON server of
:mod:`repro.service.http` and blocks; ``--transport inprocess`` runs one
demonstration request through an
:class:`~repro.client.transport.InProcessTransport` and prints the service
metrics — a network-free smoke path for CI and scripts.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from typing import Dict, Optional

from repro.experiments.config import ExperimentConfig, get_scale
from repro.experiments.convergence import run_convergence_experiment
from repro.experiments.graph_approx import run_graph_approx_experiment
from repro.experiments.precision_timing import run_precision_timing_experiment
from repro.experiments.privacy_level import run_privacy_level_experiment
from repro.experiments.privacy_params import run_privacy_params_experiment
from repro.experiments.pruning_impact import run_pruning_impact_experiment
from repro.experiments.workloads import build_workload
from repro.utils.logging import configure_cli_logging, get_logger

logger = get_logger(__name__)

#: Experiment registry: name -> (figure, driver function).
EXPERIMENTS = {
    "convergence": ("Fig. 9", run_convergence_experiment),
    "graph_approx": ("Fig. 10", run_graph_approx_experiment),
    "privacy_params": ("Fig. 11", run_privacy_params_experiment),
    "pruning_impact": ("Fig. 12", run_pruning_impact_experiment),
    "privacy_level": ("Fig. 13", run_privacy_level_experiment),
    "precision_timing": ("Fig. 14", run_precision_timing_experiment),
}


def run_all(
    config: Optional[ExperimentConfig] = None,
    *,
    only: Optional[list] = None,
    print_tables: bool = True,
) -> Dict[str, object]:
    """Run the selected experiments and return their result objects keyed by name."""
    config = config or get_scale()
    selected = list(EXPERIMENTS) if not only else [name for name in EXPERIMENTS if name in set(only)]
    workload = build_workload(config)
    results: Dict[str, object] = {}
    for name in selected:
        figure, driver = EXPERIMENTS[name]
        logger.info("running %s (%s) at scale %s", name, figure, config.name)
        start = time.perf_counter()
        result = driver(config, workload=workload)
        elapsed = time.perf_counter() - start
        results[name] = result
        if print_tables:
            for attribute in ("table", "runtime_table", "constraint_table"):
                table = getattr(result, attribute, None)
                if table is not None:
                    table.print()
            print(f"[{figure}] {name} finished in {elapsed:.1f} s")
    return results


def results_to_json(results: Dict[str, object]) -> Dict[str, object]:
    """Convert result objects to a JSON-friendly structure (tables + scalar summaries)."""
    payload: Dict[str, object] = {}
    for name, result in results.items():
        entry: Dict[str, object] = {}
        for attribute in ("table", "runtime_table", "constraint_table"):
            table = getattr(result, attribute, None)
            if table is not None:
                entry[attribute] = table.to_dict()
        for attribute in (
            "headline",
            "iterations_to_converge",
            "mean_runtime_reduction_pct",
            "mean_constraint_reduction_pct",
            "mean_time_ratio",
        ):
            value = getattr(result, attribute, None)
            if value is not None:
                entry[attribute] = value
        payload[name] = entry
    return payload


def serve(config: ExperimentConfig, args: argparse.Namespace) -> int:
    """Serve the workload tree through the engine → service → transport stack.

    ``--shards N`` (N > 1) replaces the in-process engine with an
    :class:`~repro.service.pool.EnginePool` of N worker processes sharing
    the same tree and configuration — identical responses, true process
    parallelism for distinct request keys, and crash-respawn supervision.
    ``--shard-hosts host:port,...`` adds cross-host slots to the same ring:
    each address is a ``python -m repro.service.netshard`` replica serving
    the same workload tree over the socket transport.
    """
    from repro.client.transport import InProcessTransport, TransportForestProvider
    from repro.server.engine import ForestEngine, ServerConfig
    from repro.service.http import CORGIHTTPServer
    from repro.service.pool import EnginePool
    from repro.service.service import CORGIService

    workload = build_workload(config)
    server_config = ServerConfig(
        epsilon=config.epsilon,
        num_targets=config.num_targets,
        robust_iterations=config.robust_iterations,
        solver_method=config.solver_method,
    )
    pool: Optional[EnginePool] = None
    remote_shards = None
    if args.shard_hosts:
        from repro.service.netshard import parse_shard_hosts

        remote_shards = parse_shard_hosts(args.shard_hosts)
    if args.shards > 1 or remote_shards or args.state_dir:
        # --shards counts *local* worker processes; with --shard-hosts the
        # default of 1 means "no local shards, serve purely over sockets".
        # --state-dir forces the pool tier (of at least one shard): the
        # durable control log and snapshot store live in the pool.
        local_shards = args.shards if args.shards > 1 else (0 if remote_shards else 1)
        pool = EnginePool(
            workload.tree,
            server_config,
            targets=workload.targets,
            num_shards=local_shards,
            remote_shards=remote_shards,
            respawn_limit=args.respawn_limit,
            state_dir=args.state_dir,
            replication_port=args.replication_port,
            replication_host=args.host,
            replicate_from=args.replicate_from,
            seed_store_dir=args.seed_store_dir,
        )
        pool.wait_ready()
        remote_note = f" + {len(remote_shards)} socket shard(s)" if remote_shards else ""
        print(f"engine pool: {local_shards} shard process(es){remote_note} ready")
        if args.state_dir:
            durability = pool.durability_diagnostics()
            log_stats = durability.get("control_log") or {}
            print(
                f"durable state under {args.state_dir}: "
                f"replayed {log_stats.get('records_replayed', 0)} control record(s), "
                f"priors generation v{pool.priors_version}; "
                "snapshot pre-warm running in the background"
            )
        replication = pool.durability_diagnostics().get("replication")
        if replication:
            if replication.get("role") == "primary":
                print(
                    "replication primary: streaming the control log on "
                    f"{replication.get('address')} (durable head "
                    f"v{replication.get('last_version', 0)})"
                )
            else:
                print(
                    f"replication follower of {replication.get('source')}: "
                    f"cursor v{replication.get('cursor', 0)} "
                    "(local control writes are refused; they go to the primary)"
                )
        engine = pool
    else:
        engine = ForestEngine(workload.tree, server_config, targets=workload.targets)
    service = CORGIService(engine)

    try:
        if args.transport == "inprocess":
            # Network-free smoke path: one coalesced request through the full
            # client-transport plumbing, then a metrics dump.
            provider = TransportForestProvider(InProcessTransport(service))
            privacy_level = min(2, workload.tree.height)
            forest = provider.generate_privacy_forest(privacy_level, config.delta)
            print(
                f"served privacy forest: level={privacy_level} delta={config.delta} "
                f"subtrees={len(forest)}"
            )
            print(json.dumps(service.snapshot(), indent=2, default=str))
            return 0

        gateway = None
        if args.gateway_port is not None:
            from repro.service.gateway import GatewayServer

            gateway = GatewayServer(
                service, host=args.host, port=args.gateway_port
            ).start()
            print(
                f"push gateway holding connections on {args.host}:{gateway.port} "
                "(subscribe once, refreshed matrices are pushed)"
            )
        server = CORGIHTTPServer(service, host=args.host, port=args.port)
        print(f"serving CORGI forests on {server.url} (Ctrl-C to stop)")
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            server.shutdown()
        finally:
            if gateway is not None:
                gateway.close()
        return 0
    finally:
        if pool is not None:
            if args.drain_on_shutdown:
                # Graceful shutdown: drain the shards in slot order so each
                # one's hot cache cascades to the shards still live (the
                # last slot has no sibling left and retires cold).
                reports = pool.drain_all()
                handed = sum(int(report.get("handoff_keys", 0)) for report in reports)
                print(
                    f"drained {len(reports)} shard(s) on shutdown, "
                    f"handed off {handed} cache key(s)"
                )
            pool.close()


def main(argv: Optional[list] = None) -> int:
    """CLI entry point."""
    parser = argparse.ArgumentParser(description="Reproduce the CORGI evaluation figures")
    parser.add_argument("--scale", default=None, help="small (default) or paper")
    parser.add_argument(
        "--workers",
        type=int,
        default=None,
        help="worker processes for the experiments' independent LP generations "
        "(default 1 = serial; results are identical for every value; serve mode "
        "takes its process parallelism from --shards)",
    )
    parser.add_argument(
        "--only",
        nargs="*",
        default=None,
        help=f"subset of experiments to run (choices: {', '.join(EXPERIMENTS)})",
    )
    parser.add_argument("--output", default=None, help="write results as JSON to this path")
    parser.add_argument("--verbose", action="store_true", help="enable debug logging")
    parser.add_argument(
        "--serve",
        action="store_true",
        help="serve the workload tree (engine → service → transport) instead of "
        "running experiments",
    )
    parser.add_argument(
        "--transport",
        choices=("http", "inprocess"),
        default="http",
        help="serving transport: 'http' starts the JSON server and blocks; "
        "'inprocess' runs one demo request through the client transport and exits",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address for --serve")
    parser.add_argument(
        "--port", type=int, default=8350, help="bind port for --serve (0 = ephemeral)"
    )
    parser.add_argument(
        "--gateway-port",
        type=int,
        default=None,
        help="also start the asyncio push gateway on this port (0 = ephemeral): "
        "clients hold one connection, subscribe to (level, delta, epsilon) keys "
        "and get refreshed matrices pushed when new priors are installed "
        "instead of re-polling the HTTP endpoint",
    )
    parser.add_argument(
        "--shards",
        type=int,
        default=1,
        help="engine shard processes for --serve (1 = in-process engine; N>1 "
        "runs an EnginePool with consistent-hash routing and crash respawn)",
    )
    parser.add_argument(
        "--shard-hosts",
        default=None,
        help="comma-separated host:port list of remote socket shards "
        "(python -m repro.service.netshard servers built over the same "
        "--scale workload); combined with --shards N local processes "
        "(--shards 1, the default, means remote-only)",
    )
    parser.add_argument(
        "--respawn-limit",
        type=int,
        default=3,
        help="how many times a crashed shard is respawned before its slot is "
        "declared dead (--serve with --shards > 1)",
    )
    parser.add_argument(
        "--state-dir",
        default=None,
        help="directory for the durable state tier (--serve): a crash-safe "
        "priors log replayed on boot plus a compressed snapshot "
        "store that pre-warms the shards — a restart over the same directory "
        "serves warm instead of cold-rebuilding (implies an engine pool)",
    )
    parser.add_argument(
        "--replication-port",
        type=int,
        default=None,
        help="serve this head as the control-plane replication *primary*: "
        "stream every durable control-log record (priors publishes) to "
        "follower heads on this port (requires --state-dir)",
    )
    parser.add_argument(
        "--replicate-from",
        default=None,
        help="host:port of a replication primary; this head becomes a "
        "*follower* — it tails the primary's control log "
        "(store-and-forward into its own --state-dir, crash-safe cursor) "
        "and refuses local /admin/priors writes",
    )
    parser.add_argument(
        "--seed-store-dir",
        default=None,
        help="another head's snapshot directory to pre-warm from, read-only "
        "(same pipeline fingerprint required); typically the primary's "
        "<state-dir>/snapshots shared across a fleet",
    )
    parser.add_argument(
        "--drain-on-shutdown",
        action="store_true",
        help="gracefully drain every shard on shutdown — warm cache hand-off "
        "along the consistent-hash ring — before the pool closes "
        "(--serve with --shards > 1)",
    )
    parser.add_argument(
        "--replay-scenario",
        metavar="NAME",
        default=None,
        help="replay one trace-replay scenario from the loadgen matrix "
        "(python -m repro.loadgen --list shows them) instead of running "
        "experiments; exits non-zero on SLO violation.  Combines with "
        "--transport (http | inprocess), --replay-seed and --output "
        "(the ScenarioReport JSON path)",
    )
    parser.add_argument(
        "--replay-seed",
        type=int,
        default=0,
        help="replay seed for --replay-scenario (default 0)",
    )
    args = parser.parse_args(argv)

    configure_cli_logging(verbose=args.verbose)
    if args.replay_scenario is not None:
        from repro.loadgen.__main__ import main as loadgen_main

        forwarded = [
            "--scenario",
            args.replay_scenario,
            "--transport",
            args.transport,
            "--seed",
            str(args.replay_seed),
        ]
        if args.output:
            forwarded += ["--report", args.output]
        return loadgen_main(forwarded)
    config = get_scale(args.scale)
    if args.workers is not None:
        if args.workers < 1:
            parser.error("--workers must be >= 1")
        config = config.derive(max_workers=args.workers)
    if args.shards < 1:
        parser.error("--shards must be >= 1")
    if args.replication_port is not None and args.replicate_from is not None:
        parser.error(
            "--replication-port (primary) and --replicate-from (follower) are "
            "mutually exclusive — multi-primary replication is not supported"
        )
    if (args.replication_port is not None or args.replicate_from is not None) and (
        not args.state_dir
    ):
        parser.error("replication requires --state-dir (the log/cursor live there)")
    if args.serve:
        return serve(config, args)
    results = run_all(config, only=args.only)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(results_to_json(results), handle, indent=2, default=str)
        print(f"wrote results to {args.output}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
