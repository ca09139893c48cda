"""First-class scenario matrix: named workload shapes with declared SLOs.

Each :class:`Scenario` is a complete, self-describing replay configuration:
the fleet (size, key skew, mobility), the arrival process, the serving
topology (in-process engine vs a sharded :class:`~repro.service.pool.EnginePool`),
mid-replay fault-injection ops, and — crucially — the SLOs the scenario
*promises*.  :func:`run_scenario` builds the whole stack, replays the
trace, and returns a :class:`~repro.loadgen.report.ScenarioReport` whose
``passed`` flag is the scenario's verdict, so CI can gate on it directly.

The shipped matrix covers the four production-shaped situations the
roadmap names:

* ``flash_crowd`` — zipf-skew 2.5, bursty arrivals: a hot ``(level, δ, ε)``
  key flash-crowds the coalescing path.
* ``shard_drain`` — a two-shard pool loses a shard to a *graceful* drain
  mid-burst; the warm hand-off must keep serving.
* ``priors_under_load`` — a live priors publish lands mid-replay; every
  matrix served afterwards must reflect the new priors, and the online
  adversary audits both generations.
* ``region_failover`` — a shard worker is SIGKILLed mid-replay (the
  region-loss shape); the pool's crash-retry path must lose no requests.

Ops are synchronous barriers keyed by *event-index fraction*, so the same
seed always injects the fault at the same point of the trace and the
report counters stay deterministic (the acceptance gate).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, Mapping, Optional, Tuple

import numpy as np

from repro.core.objective import TargetDistribution
from repro.datasets.checkin import CheckInDataset
from repro.datasets.synthetic import GowallaLikeGenerator, SyntheticConfig
from repro.geometry.haversine import LatLng
from repro.loadgen.adversary import OnlineAdversary
from repro.loadgen.replay import GatewayForestTransport, ReplayOp, TraceReplayer
from repro.loadgen.report import ScenarioReport, SLOSpec
from repro.loadgen.trace import ArrivalConfig, FleetConfig, TraceGenerator
from repro.server.engine import ForestEngine, ServerConfig
from repro.service.service import CORGIService
from repro.tree.builder import tree_for_point
from repro.tree.location_tree import LocationTree
from repro.tree.priors import priors_from_checkins
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = [
    "SCENARIOS",
    "Scenario",
    "ScenarioEnvironment",
    "ScenarioOp",
    "build_environment",
    "resolve_scenario",
    "run_scenario",
    "soak_factor",
]

#: Environment knob the nightly CI soak sets; multiplies events and fleet.
SOAK_FACTOR_ENV = "SCENARIO_SOAK_FACTOR"
DEFAULT_SOAK_FACTOR = 20

#: The tree anchor every scenario serves (central San Francisco, as in the
#: paper's sample region).
_SF_CENTER = (37.77, -122.42)


def soak_factor() -> int:
    """The long-soak multiplier (``SCENARIO_SOAK_FACTOR``, default 20)."""
    try:
        return max(1, int(os.environ.get(SOAK_FACTOR_ENV, DEFAULT_SOAK_FACTOR)))
    except ValueError:
        return DEFAULT_SOAK_FACTOR


@dataclass(frozen=True)
class ScenarioOp:
    """One fault-injection barrier.

    ``at_fraction`` positions the barrier at that fraction of the event
    stream (0.5 = after half the events drained).  ``action`` is one of
    ``drain`` / ``kill`` / ``publish_priors``.
    """

    at_fraction: float
    action: str
    payload: Mapping[str, object] = field(default_factory=dict)

    def validate(self) -> None:
        if not 0.0 < self.at_fraction < 1.0:
            raise ValueError(f"at_fraction must be in (0, 1), got {self.at_fraction}")
        if self.action not in ("drain", "kill", "publish_priors"):
            raise ValueError(f"unknown scenario op action {self.action!r}")


@dataclass(frozen=True)
class Scenario:
    """A named, fully declared replay scenario."""

    name: str
    title: str
    description: str
    num_events: int
    fleet: FleetConfig
    arrival: ArrivalConfig
    slos: SLOSpec
    tree_height: int = 2
    shards: int = 1
    concurrency: int = 8
    ops: Tuple[ScenarioOp, ...] = ()
    #: Server-side default ε (km⁻¹); sized to the leaf spacing of the tree.
    epsilon: float = 2.0
    robust_iterations: int = 2
    num_targets: int = 5

    def validate(self) -> None:
        if self.num_events <= 0:
            raise ValueError("num_events must be positive")
        if self.shards < 1:
            raise ValueError("shards must be >= 1")
        self.fleet.validate()
        self.arrival.validate()
        fractions = set()
        for op in self.ops:
            op.validate()
            if op.action in ("drain", "kill") and self.shards < 2:
                raise ValueError(
                    f"op {op.action!r} needs a pool of >= 2 shards (scenario has {self.shards})"
                )
            if op.at_fraction in fractions:
                raise ValueError(f"two ops share at_fraction {op.at_fraction}")
            fractions.add(op.at_fraction)

    def scaled(self, factor: int) -> "Scenario":
        """The long-soak variant: *factor*× the events and fleet size."""
        if factor <= 1:
            return self
        return replace(
            self,
            num_events=self.num_events * factor,
            fleet=replace(self.fleet, num_users=self.fleet.num_users * factor),
        )


#: Shared key space: three zipf-ranked ``(level, δ, ε)`` profiles — the hot
#: non-robust key, the robust δ=1 key, and a per-request ε override.
_KEYS: Tuple[Tuple[int, int, Optional[float]], ...] = ((1, 0, None), (1, 1, None), (1, 0, 2.5))

#: Privacy/utility bounds shared by the whole matrix.  The served matrices
#: are LP-feasible by construction, so the violation bound is a solver
#: tolerance allowance, not a behavioural budget; the recovery bound says
#: the optimal Bayesian attacker may at most double its prior-only top-1
#: hit rate; the utility bound is ~3 leaf pitches of the level-9 lattice.
_BASE_SLOS = dict(
    max_violation_pct=1.0,
    max_recovery_ratio=2.0,
    max_utility_loss_km=3.0,
    max_error_rate=0.0,
    max_latency_p50_s=5.0,
    max_latency_p99_s=60.0,
)


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in (
        Scenario(
            name="flash_crowd",
            title="Hot-spot flash crowd",
            description=(
                "Heavily zipf-skewed keys (exponent 2.5) under bursty arrivals: "
                "one hot key flash-crowds the single-flight coalescing path."
            ),
            num_events=240,
            fleet=FleetConfig(num_users=60, key_profiles=_KEYS, zipf_exponent=2.5, mobility=0.15),
            arrival=ArrivalConfig(process="bursty", rate_per_s=400.0, burst_factor=10.0),
            slos=SLOSpec(**_BASE_SLOS),
            shards=1,
            concurrency=16,
        ),
        Scenario(
            name="shard_drain",
            title="Mid-burst shard drain",
            description=(
                "A two-shard pool gracefully drains shard 0 halfway through the "
                "replay; the warm ring hand-off must keep every request served."
            ),
            num_events=200,
            fleet=FleetConfig(num_users=50, key_profiles=_KEYS, zipf_exponent=1.2, mobility=0.2),
            arrival=ArrivalConfig(process="poisson", rate_per_s=300.0),
            slos=SLOSpec(**_BASE_SLOS),
            shards=2,
            concurrency=12,
            ops=(ScenarioOp(at_fraction=0.5, action="drain", payload={"slot": 0}),),
        ),
        Scenario(
            name="priors_under_load",
            title="Priors update under load",
            description=(
                "A live leaf-priors publish lands mid-replay; post-update "
                "requests must serve matrices rebuilt against the new priors "
                "while the adversary audits both generations."
            ),
            num_events=200,
            fleet=FleetConfig(num_users=50, key_profiles=_KEYS, zipf_exponent=1.2, mobility=0.2),
            arrival=ArrivalConfig(process="poisson", rate_per_s=300.0),
            slos=SLOSpec(**_BASE_SLOS),
            shards=1,
            concurrency=12,
            ops=(ScenarioOp(at_fraction=0.5, action="publish_priors"),),
        ),
        Scenario(
            name="region_failover",
            title="Region failover (SIGKILL a shard mid-replay)",
            description=(
                "A shard worker process is SIGKILLed halfway through the replay "
                "(the region-loss shape); crash detection, in-flight retry on "
                "the ring sibling and respawn must lose no requests."
            ),
            num_events=200,
            fleet=FleetConfig(num_users=50, key_profiles=_KEYS, zipf_exponent=1.2, mobility=0.2),
            arrival=ArrivalConfig(process="poisson", rate_per_s=300.0),
            slos=SLOSpec(**_BASE_SLOS),
            shards=2,
            concurrency=12,
            ops=(ScenarioOp(at_fraction=0.5, action="kill", payload={"slot": 0}),),
        ),
    )
}


# --------------------------------------------------------------------- #
# Environment construction
# --------------------------------------------------------------------- #


@dataclass
class ScenarioEnvironment:
    """The serving stack one scenario runs against (owns its cleanup)."""

    scenario: Scenario
    tree: LocationTree
    dataset: CheckInDataset
    service: CORGIService
    transport: object
    pool: Optional[object] = None
    _closers: Tuple[Callable[[], None], ...] = ()

    def close(self) -> None:
        for closer in self._closers:
            try:
                closer()
            except Exception:  # noqa: BLE001 - best-effort teardown
                logger.warning("scenario environment closer failed", exc_info=True)

    def __enter__(self) -> "ScenarioEnvironment":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()


def build_environment(
    scenario: Scenario, *, seed: int = 0, transport: str = "inprocess"
) -> ScenarioEnvironment:
    """Build the tree, dataset, engine/pool, service and client transport."""
    scenario.validate()
    dataset = GowallaLikeGenerator(
        SyntheticConfig(num_checkins=1_200, num_users=48, num_venues=96),
        seed=seed + 101,
    ).generate()
    tree = tree_for_point(
        LatLng(*_SF_CENTER),
        height=scenario.tree_height,
        root_resolution=9 - scenario.tree_height,
    )
    priors_from_checkins(tree, dataset)
    leaf_centers = [leaf.center.as_tuple() for leaf in tree.leaves()]
    targets = TargetDistribution.sample_from_centers(
        leaf_centers, min(scenario.num_targets, len(leaf_centers)), seed=seed + 1
    )
    server_config = ServerConfig(
        epsilon=scenario.epsilon,
        num_targets=scenario.num_targets,
        robust_iterations=scenario.robust_iterations,
    )
    closers = []
    pool = None
    if scenario.shards > 1:
        from repro.service.pool import EnginePool

        pool = EnginePool(tree, server_config, targets=targets, num_shards=scenario.shards)
        pool.wait_ready()
        closers.append(pool.close)
        engine = pool
    else:
        engine = ForestEngine(tree, server_config, targets=targets)
    service = CORGIService(engine)

    if transport == "inprocess":
        from repro.client.transport import InProcessTransport

        client_transport: object = InProcessTransport(service)
    elif transport == "http":
        from repro.client.transport import HTTPTransport
        from repro.service.http import CORGIHTTPServer

        server = CORGIHTTPServer(service, host="127.0.0.1", port=0).start()
        closers.append(server.shutdown)
        client_transport = HTTPTransport(server.url, timeout_s=120.0)
    elif transport == "gateway":
        from repro.client.gateway import GatewayClient
        from repro.service.gateway import GatewayServer

        gateway = GatewayServer(service, host="127.0.0.1", port=0).start()
        closers.append(gateway.close)
        client = GatewayClient("127.0.0.1", gateway.port)
        closers.append(client.close)
        client_transport = GatewayForestTransport(client)
    else:
        raise ValueError(f"unknown transport {transport!r} (inprocess | http | gateway)")
    return ScenarioEnvironment(
        scenario=scenario,
        tree=tree,
        dataset=dataset,
        service=service,
        transport=client_transport,
        pool=pool,
        _closers=tuple(reversed(closers)),
    )


# --------------------------------------------------------------------- #
# Fault-injection ops
# --------------------------------------------------------------------- #


def _make_op(environment: ScenarioEnvironment, op: ScenarioOp) -> ReplayOp:
    if op.action == "drain":
        slot = int(op.payload.get("slot", 0))

        def do_drain() -> Mapping[str, object]:
            outcome = environment.service.drain(slot)
            return {
                "action": "drain",
                "slot": slot,
                "handoff_keys": int(outcome.get("handoff_keys", 0)),
            }

        return do_drain
    if op.action == "kill":
        slot = int(op.payload.get("slot", 0))

        def do_kill() -> Mapping[str, object]:
            if environment.pool is None:
                raise RuntimeError("kill op requires an EnginePool environment")
            shard = environment.pool._shards[slot]
            process = shard.process
            if process is not None:
                # The pid is deliberately not recorded: op descriptions land
                # in the deterministic counters, and pids vary run to run.
                process.kill()
            return {"action": "kill", "slot": slot, "killed": process is not None}

        return do_kill
    if op.action == "publish_priors":

        def do_publish() -> Mapping[str, object]:
            # Deterministic perturbation: mix every leaf's mass with its
            # tree-order neighbour's — a real redistribution (hot leaves
            # cool, cold leaves warm) with no randomness to leak into the
            # determinism gate.
            leaves = environment.tree.leaves()
            masses = environment.tree.leaf_priors()
            mixed = 0.5 * masses + 0.5 * np.roll(masses, 1) + 1e-6
            payload = {leaf.node_id: float(mass) for leaf, mass in zip(leaves, mixed)}
            environment.service.publish_priors(payload)
            return {"action": "publish_priors"}

        return do_publish
    raise ValueError(f"unknown scenario op action {op.action!r}")


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #


def resolve_scenario(name_or_scenario) -> Scenario:
    """Accept a scenario name or an already-built :class:`Scenario`."""
    if isinstance(name_or_scenario, Scenario):
        return name_or_scenario
    try:
        return SCENARIOS[str(name_or_scenario)]
    except KeyError:
        raise ValueError(
            f"unknown scenario {name_or_scenario!r}; known: {', '.join(sorted(SCENARIOS))}"
        ) from None


def run_scenario(
    name_or_scenario,
    *,
    seed: int = 0,
    transport: str = "inprocess",
    soak: bool = False,
    num_events: Optional[int] = None,
    replay_speed: Optional[float] = None,
    on_replayer: Optional[Callable[[TraceReplayer], None]] = None,
) -> ScenarioReport:
    """Run one scenario end to end and return its report.

    Parameters
    ----------
    name_or_scenario:
        A registry name (``flash_crowd`` ...) or a custom :class:`Scenario`.
    seed:
        Replay seed: fixes the dataset, the schedule and every sampled
        report, so two runs with the same seed produce identical
        deterministic counters (``ScenarioReport.deterministic_view``).
    transport:
        ``inprocess`` (default), ``http`` or ``gateway``.
    soak:
        Scale to the nightly long-soak variant (``SCENARIO_SOAK_FACTOR``×
        events and fleet, default 20×).
    num_events:
        Optional override of the scenario's event count (tests use small
        counts; op barriers reposition proportionally).
    on_replayer:
        Hook receiving the :class:`TraceReplayer` before the run starts —
        the live dashboard attaches here.
    """
    scenario = resolve_scenario(name_or_scenario)
    if soak:
        scenario = scenario.scaled(soak_factor())
    if num_events is not None:
        scenario = replace(scenario, num_events=int(num_events))
    scenario.validate()
    with build_environment(scenario, seed=seed, transport=transport) as environment:
        generator = TraceGenerator(
            environment.tree,
            scenario.fleet,
            scenario.arrival,
            seed=seed,
            dataset=environment.dataset,
        )
        schedule = generator.generate(scenario.num_events)
        ops = {
            max(1, int(op.at_fraction * len(schedule))): _make_op(environment, op)
            for op in scenario.ops
        }
        adversary = OnlineAdversary(environment.tree)
        replayer = TraceReplayer(
            environment.transport,
            environment.tree,
            schedule,
            adversary=adversary,
            concurrency=scenario.concurrency,
            ops=ops,
            replay_speed=replay_speed,
        )
        if on_replayer is not None:
            on_replayer(replayer)
        outcome = replayer.run()
        counters = outcome.counters()
        counters["ops"] = outcome.ops_applied
        timing = outcome.timing()
        if environment.pool is not None:
            # Pool supervision counters are wall-clock-shaped (retry counts
            # vary with timing), so they ride in the timing bucket.
            timing["pool"] = dict(environment.pool.pool_stats())
        checks = scenario.slos.evaluate(counters, timing)
        return ScenarioReport(
            scenario=scenario.name,
            seed=int(seed),
            schedule_digest=schedule.digest(),
            counters=counters,
            timing=timing,
            slo_checks=checks,
        )
