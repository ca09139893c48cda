"""The four workloads and the metrics one run of a workload reports.

CORGI's server answers one request per user customization ``(privacy_level,
δ, ε)`` with a robust Geo-Ind forest.  Its traffic has four shapes, one
workload each:

* ``warm_inproc`` — many users fetching a few popular, already built
  forests, in process: the engine fingerprint and forest-cache lookup
  dominate (no wire, no LP).
* ``warm_http`` — the same keys over HTTP at a fixed Poisson rate: JSON
  encode/decode and one connection per request dominate.
* ``cold_build`` — customizations never seen before: every request runs
  Algorithm 1 on 49 sub-trees, so the LP dominates and the caches are idle.
* ``priors_churn`` — live priors updates beside reads on a durable 2-shard
  pool: every publish flushes all caches and the next reads pay coalesced
  cold rebuilds through pool IPC.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

import deploy
import spans
import traffic
import verify
from repro.core.objective import QualityLossModel
from repro.server.messages import ObfuscationRequest

#: Sender threads (and so connections) of the workloads that use two.
SENDERS = max(1, min(2, os.cpu_count() or 1))

#: Set-ups per run; ``setup_s`` is their median and the last one is measured.
SETUP_REPEATS = 3

# Traffic parameters.  No request trace of this service exists, and the
# paper evaluates matrix quality, not serving load, so these are assumptions
# (README.md, "Where the traffic parameters come from"): the zipf exponent is
# the default of the repository's own trace generator (repro.loadgen), the
# keys sit around the service's default ε = 2.0, and the rates are set
# against measured capacity.

#: Popular customizations, most popular first (zipf rank order).
WARM_KEYS = ((1, 0, 2.0), (1, 1, 2.0), (1, 0, 1.5), (1, 0, 2.5), (1, 2, 2.0), (1, 0, 3.0))
WARM_ZIPF = 1.1
#: About half the measured knee of one HTTP server (near 300/s).
WARM_HTTP_RPS = 150.0

#: Built once at set-up so the solver and its imports are warm; its ε lies
#: outside the U(1, 3) range the cold keys are drawn from.
COLD_PROBE_KEYS = ((1, 1, 3.5),)
#: Cold keys compared byte for byte with a single-process engine.
COLD_REFERENCE_KEYS = 10

CHURN_KEYS = (
    (1, 0, 2.0), (1, 1, 2.0), (1, 0, 1.5), (1, 2, 2.0),
    (1, 0, 2.5), (1, 1, 1.5), (1, 0, 3.0), (1, 1, 2.5),
)  # fmt: skip
CHURN_READ_RPS = 60.0
#: At one publish a second, the reads queued behind post-publish rebuilds
#: covered about 45% of each second, so p50 fell on either side of that
#: backlog and moved 4.9–17 ms between seeds.  At one every two seconds,
#: p50 stayed at 3.1–4.1 ms over ten seeds while the host ran steadily.
CHURN_PUBLISH_INTERVAL_S = 2.0
CHURN_SHARDS = 2


# --------------------------------------------------------------------- #
# Plans: everything the seed decides, made before set-up
# --------------------------------------------------------------------- #


@dataclass
class Plan:
    keys: List[traffic.Key] = field(default_factory=list)
    schedule: Optional[traffic.Schedule] = None
    #: (offset s, priors payload) per publish, for priors_churn.
    publishes: List[Tuple[float, Dict[str, float]]] = field(default_factory=list)

    def digest(self) -> str:
        hasher = hashlib.sha256(repr(self.keys).encode())
        if self.schedule is not None:
            hasher.update(self.schedule.digest().encode())
        hasher.update(repr(self.publishes).encode())
        return hasher.hexdigest()


def perturbed_priors(tree, seed: int, index: int) -> Dict[str, float]:
    """Publish *index*'s priors: every leaf's base mass times a seeded log-normal factor."""
    rng = np.random.default_rng([seed, index])
    leaves = tree.leaves()
    masses = tree.leaf_priors() * rng.lognormal(0.0, 0.5, size=len(leaves)) + 1e-6
    return {leaf.node_id: float(mass) for leaf, mass in zip(leaves, masses)}


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #


@dataclass
class Outcome:
    samples: traffic.Samples
    #: Per publish: (index, publish→fresh seconds or None on failure, matrices).
    publishes: List[Tuple[int, Optional[float], Optional[dict]]] = field(default_factory=list)


class Workload:
    name = ""
    height = 3
    #: Built at set-up; fetched once before the timed phase for the quality
    #: metric and compared with the reference engine.
    prebuilt: Sequence[traffic.Key] = ()

    def plan(self, seed: int, seconds: float, tree) -> Plan:
        raise NotImplementedError

    def deploy(self, dataset, state_dir: Path):
        raise NotImplementedError

    def drive(self, deployment, plan: Plan, seconds: float, send, consume, tracer) -> Outcome:
        raise NotImplementedError

    def served_references(
        self, plan: Plan, log: verify.ServedLog, outcome: Outcome, reference
    ) -> Tuple[list, int]:
        """(label, served, reference) triples beyond the pre-built keys, and inconsistencies.

        *reference* is a single-process engine at the base priors; it may be
        mutated (the pre-built keys were compared first).
        """
        return [], 0


class WarmInProcess(Workload):
    name = "warm_inproc"
    prebuilt = WARM_KEYS

    def plan(self, seed, seconds, tree):
        rng = np.random.default_rng(seed)
        return Plan(keys=traffic.zipf_keys(rng, WARM_KEYS, int(seconds * 25_000) + 1_000, WARM_ZIPF))

    def deploy(self, dataset, state_dir):
        return deploy.InProcess(self.height, dataset, self.prebuilt)

    def drive(self, deployment, plan, seconds, send, consume, tracer):
        # One client: in-process requests are pure Python, so the GIL runs
        # them one at a time anyway.  A second thread adds no throughput,
        # only GIL hand-off stalls (measured up to 0.7 s) that vary run to run.
        return Outcome(traffic.closed_loop(send, consume, plan.keys, 1, seconds))

    def served_references(self, plan, log, outcome, reference):
        # No publishes: every key must have been served as one forest only.
        return [], sum(1 for key in WARM_KEYS if len(log.digests_by_key.get(key, ())) != 1)


class WarmHTTP(WarmInProcess):
    name = "warm_http"

    def plan(self, seed, seconds, tree):
        rng = np.random.default_rng(seed)
        return Plan(schedule=traffic.poisson_schedule(rng, WARM_HTTP_RPS, seconds, WARM_KEYS, WARM_ZIPF))

    def deploy(self, dataset, state_dir):
        return deploy.ServerProcess(self.height, dataset, self.prebuilt)

    def drive(self, deployment, plan, seconds, send, consume, tracer):
        return Outcome(traffic.open_loop(send, consume, plan.schedule, SENDERS))


class ColdBuild(Workload):
    name = "cold_build"
    prebuilt = COLD_PROBE_KEYS

    def plan(self, seed, seconds, tree):
        rng = np.random.default_rng(seed)
        return Plan(keys=traffic.cold_keys(rng, int(seconds * 40) + 100, 1, exclude=COLD_PROBE_KEYS))

    def deploy(self, dataset, state_dir):
        return deploy.InProcess(self.height, dataset, self.prebuilt)

    def drive(self, deployment, plan, seconds, send, consume, tracer):
        return Outcome(traffic.closed_loop(send, consume, plan.keys, SENDERS, seconds))

    def served_references(self, plan, log, outcome, reference):
        triples = []
        inconsistent = 0
        # Keys are sent in plan order, so these are the first keys served; a
        # short run may not reach all of them.
        for key in plan.keys[:COLD_REFERENCE_KEYS]:
            digests = log.digests_by_key.get(key, set())
            if not digests:
                continue
            if len(digests) != 1:
                inconsistent += 1
                continue
            served = log.forests[next(iter(digests))][1]
            triples.append((f"cold {key}", served, _forest(reference, key)))
        return triples, inconsistent


class PriorsChurn(Workload):
    name = "priors_churn"
    height = 2
    prebuilt = CHURN_KEYS

    def plan(self, seed, seconds, tree):
        rng = np.random.default_rng(seed)
        publishes = max(1, int(round(seconds / CHURN_PUBLISH_INTERVAL_S)))
        return Plan(
            schedule=traffic.poisson_schedule(rng, CHURN_READ_RPS, seconds, CHURN_KEYS, WARM_ZIPF),
            publishes=[
                ((index + 0.5) * CHURN_PUBLISH_INTERVAL_S, perturbed_priors(tree, seed, index))
                for index in range(publishes)
            ],
        )

    def deploy(self, dataset, state_dir):
        return deploy.ServerProcess(
            self.height, dataset, self.prebuilt, shards=CHURN_SHARDS, state_dir=str(state_dir)
        )

    def drive(self, deployment, plan, seconds, send, consume, tracer):
        # One open-loop reader beside one publisher: the two sender threads
        # the load may use.  Reads due while a post-publish rebuild holds the
        # reader's connection wait for it, and that wait counts.
        transport = deployment.transport
        hot = CHURN_KEYS[0]
        start = time.perf_counter()
        publishes: List[Tuple[int, Optional[float], Optional[dict]]] = []

        def writer() -> None:
            for index, (offset, payload) in enumerate(plan.publishes):
                wait = start + offset - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                if tracer is not None:
                    tracer.set_event(("publish", index))
                sent = time.perf_counter()
                try:
                    transport.publish_priors(payload)
                    response = send(("publish", index), hot)
                except Exception:  # noqa: BLE001 - counted as a failed operation
                    publishes.append((index, None, None))
                    continue
                publishes.append((index, time.perf_counter() - sent, response.matrices))
                consume(("publish", index), hot, response)

        thread = threading.Thread(target=writer, name="bench-publisher", daemon=True)
        thread.start()
        samples = traffic.open_loop(send, consume, plan.schedule, 1)
        thread.join()
        return Outcome(samples, publishes)

    def served_references(self, plan, log, outcome, reference):
        # After publish i the hot key must be what a single-process engine
        # serves after the same i + 1 publishes.
        served = {index: matrices for index, _, matrices in outcome.publishes if matrices is not None}
        triples = []
        for index, (_, payload) in enumerate(plan.publishes):
            reference.publish_priors(payload)
            if index in served:
                triples.append((f"publish {index}", served[index], _forest(reference, CHURN_KEYS[0])))
        return triples, 0


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload for workload in (WarmInProcess(), WarmHTTP(), ColdBuild(), PriorsChurn())
}


def _forest(engine, key: traffic.Key) -> dict:
    level, delta, epsilon = key
    return dict(engine.build_forest(level, delta, epsilon=epsilon))


# --------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------- #


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    #: The end-to-end metrics, or the per-layer ones of a traced run.
    metrics: Dict[str, Tuple[float, str]]
    #: Latency and throughput of the timed phase.  They carry no bound: on a
    #: shared host they move with the host's speed (README.md, "Steadiness").
    timings: Dict[str, Tuple[float, str]]
    notes: List[str]


def expected_error_km(tree, targets, forests: Sequence[dict]) -> float:
    """Mean expected quality loss (Eq. 7) over every matrix of *forests*, at *tree*'s priors."""
    losses = []
    for matrices in forests:
        for matrix in matrices.values():
            centers = [tree.node(node_id).center.as_tuple() for node_id in matrix.node_ids]
            model = QualityLossModel(centers, targets, tree.conditional_leaf_priors(matrix.node_ids))
            losses.append(model.expected_loss(matrix))
    return float(np.mean(losses))


def run(
    name: str, seed: int, seconds: float, trace: bool, scratch: Path, setup_repeats: int = SETUP_REPEATS
) -> RunResult:
    workload = WORKLOADS[name]
    dataset = deploy.make_dataset()
    tree = deploy.build_tree(workload.height, dataset)
    plan = workload.plan(seed, seconds, tree)

    setup_s: List[float] = []
    deployment = None
    for attempt in range(setup_repeats):
        if deployment is not None:
            deployment.close()
        began = time.perf_counter()
        deployment = workload.deploy(dataset, scratch / f"state-{attempt}")
        setup_s.append(time.perf_counter() - began)

    log = verify.ServedLog()
    tracer = spans.Tracer() if trace else None
    try:
        transport = deployment.transport
        prebuilt_forests = {}
        for key in workload.prebuilt:
            response = transport.fetch_forest(ObfuscationRequest(*key))
            log.record(key, response.epsilon, response.matrices)
            prebuilt_forests[key] = response.matrices

        def send(index, key):
            if tracer is not None:
                tracer.set_event(index)
            return transport.fetch_forest(ObfuscationRequest(*key))

        def consume(index, key, response):
            log.record(key, response.epsilon, response.matrices)

        deployment.begin(tracer)
        outcome = workload.drive(deployment, plan, seconds, send, consume, tracer)
        server = deployment.end(tracer)
    finally:
        deployment.close()

    # Correctness, after the timed phase.
    audit = verify.audit_served(log, verify.GeoIndAuditor(tree, deploy.engine_config().graph_weighting))
    reference = deploy.reference_engine(workload.height, dataset)
    triples = [(f"prebuilt {key}", prebuilt_forests[key], _forest(reference, key)) for key in workload.prebuilt]
    more, inconsistent = workload.served_references(plan, log, outcome, reference)
    triples += more
    canonical = verify.canonical
    mismatched = [label for label, served, expected in triples if canonical(served) != canonical(expected)]

    samples = outcome.samples
    failed_requests = int(samples.count - samples.succeeded().sum())
    failed_publishes = sum(1 for _, fresh, _ in outcome.publishes if fresh is None)
    bad_served = sum(log.served[digest] for digest in audit.bad_forests)
    attempted = samples.count + len(outcome.publishes)
    failed = failed_requests + failed_publishes + bad_served + len(mismatched) + inconsistent
    correct = failed == 0

    if not trace:
        targets = deploy.targets_for(tree)
        metrics = {
            "setup_s": (statistics.median(setup_s), "s"),
            "expected_error_km": (expected_error_km(tree, targets, prebuilt_forests.values()), "km"),
            "peak_rss_mb": (float(server["rss_mb"]), "MB"),
        }
    else:
        metrics = layer_metrics(workload, tracer, server, outcome)

    latencies_ms = samples.latencies_ms()
    timings = {
        "latency_p50_ms": (traffic.percentile(latencies_ms, 0.50), "ms"),
        "latency_p90_ms": (traffic.percentile(latencies_ms, 0.90), "ms"),
        "latency_p99_ms": (traffic.percentile(latencies_ms, 0.99), "ms"),
        "throughput_rps": (traffic.throughput(samples), "1/s"),
        "requests": (float(len(latencies_ms)), "count"),
    }
    notes = [
        f"setup_s runs {' '.join(f'{value:.4f}' for value in setup_s)}",
        f"checked {audit.distinct_matrices} distinct matrices ({audit.bad_matrices} failing Geo-Ind or"
        f" stochasticity), {len(triples)} forests against a single-process engine"
        f" ({len(mismatched)} differing), {inconsistent} inconsistent keys",
        f"plan digest {plan.digest()}",
    ]
    notes += [f"MISMATCH {label}" for label in mismatched]
    return RunResult(correct, attempted, failed, metrics, timings, notes)


# --------------------------------------------------------------------- #
# Per-layer metrics (traced run)
# --------------------------------------------------------------------- #


def _delta(start: dict, end: dict, *path: str) -> float:
    def dig(source):
        for part in path:
            source = source.get(part, {}) if isinstance(source, dict) else {}
        return float(source) if isinstance(source, (int, float)) else 0.0

    return dig(end) - dig(start)


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _median(values) -> float:
    values = list(values)
    return float(statistics.median(values)) if values else 0.0


def layer_metrics(workload, tracer, server, outcome: Outcome) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics of a traced run.

    A layer's time is the median, over the requests that reached it, of the
    time each spent there: with two sender threads in one interpreter, a
    thread can wait hundreds of milliseconds for the GIL, and those waits
    land in whichever span is open, so means would measure the scheduler.
    Shares that must add up (solver time over build time, rebuild time over
    read time) are ratios of sums instead.
    """
    client = tracer.spans
    # In process, client and server spans were recorded by the same tracer.
    remote = server["spans"] or client
    start, end = server["start"], server["end"]

    def layer_ms(source, name, tag=None) -> float:
        return _median(spans.per_request(source, name, tag)) * 1e3

    def delta(*path) -> float:
        return _delta(start, end, *path)

    fetch = layer_ms(client, "client.transport.fetch")
    parse = layer_ms(client, "client.transport.parse")
    decode = layer_ms(client, "client.transport.decode")
    handle = layer_ms(remote, "service.service.handle")
    entry = layer_ms(remote, "service.service.handle_dict") or handle
    fingerprint = layer_ms(remote, "server.engine.fingerprint")
    handle_spans = [span for span in remote if span.name == "service.service.handle"]
    own = spans.self_times(remote)
    solves = delta("engine", "solver", "solves")
    stages = ("build", "solve", "refresh", "extract")
    solver_s = {stage: delta("engine", "solver", "time_s", stage) for stage in stages}
    forest = (delta("engine", "forest_stats", "hits"), delta("engine", "forest_stats", "misses"))
    matrix = (delta("engine", "matrix_stats", "hits"), delta("engine", "matrix_stats", "misses"))
    structures = tuple(delta("engine", "structure_sharing", kind) for kind in ("builds", "reuses"))
    lateness = outcome.samples.lateness_ms()
    coalesced = _ratio(delta("service", "coalesced"), delta("service", "requests"))
    generate_ms = _median(s.duration for s in remote if s.name == "core.robust.generate") * 1e3
    fresh = [seconds * 1e3 for _, seconds, _ in outcome.publishes if seconds is not None]

    if workload.name == "warm_inproc":
        dominant = _ratio(fingerprint, handle)
    elif workload.name == "warm_http":
        # Everything outside the server's handle_dict: wire, HTTP stacks, JSON.
        dominant = _ratio(fetch - entry, fetch)
    elif workload.name == "cold_build":
        build_s = sum(span.duration for span in remote if span.name == "server.engine.build")
        dominant = _ratio(solver_s["solve"], build_s)
    else:
        # A read took the rebuild path when its forest was not a cache hit:
        # it led a miss build or waited, coalesced, on someone else's.
        pool_builds = (span for span in remote if span.name == "service.pool.build")
        hit_parents = {span.parent_id for span in pool_builds if span.tag == "hit"}
        rebuild_s = sum(span.duration for span in handle_spans if span.span_id not in hit_parents)
        dominant = _ratio(rebuild_s, sum(span.duration for span in handle_spans))

    return {
        "client.transport.fetch_ms": (fetch, "ms"),
        "client.transport.parse_ms": (parse, "ms"),
        "client.transport.decode_ms": (decode, "ms"),
        "client.transport.response_bytes": (_median(tracer.values["client.transport.response_bytes"]), "bytes"),
        "service.http.overhead_ms": (fetch - entry - parse - decode if entry else 0.0, "ms"),
        "server.messages.encode_ms": (layer_ms(remote, "server.messages.encode"), "ms"),
        "service.service.handle_ms": (handle, "ms"),
        "service.service.self_ms": (_median(own[span.span_id] for span in handle_spans) * 1e3, "ms"),
        "service.service.coalesced_ratio": (coalesced, "ratio"),
        "service.service.rejected": (delta("service", "rejected"), "count"),
        "server.engine.hit_ms": (layer_ms(remote, "server.engine.build", "hit"), "ms"),
        "server.engine.miss_ms": (layer_ms(remote, "server.engine.build", "miss"), "ms"),
        "server.engine.fingerprint_ms": (fingerprint, "ms"),
        "server.engine.forest_hit_ratio": (_ratio(forest[0], sum(forest)), "ratio"),
        "pipeline.cache.matrix_hit_ratio": (_ratio(matrix[0], sum(matrix)), "ratio"),
        "pipeline.executor.run_ms": (layer_ms(remote, "pipeline.executor.run"), "ms"),
        "pipeline.executor.structure_reuse_ratio": (_ratio(structures[1], sum(structures)), "ratio"),
        "core.robust.generate_ms": (generate_ms, "ms"),
        "core.lp.solves": (solves, "count"),
        "core.solver.build_s": (solver_s["build"], "s"),
        "core.solver.solve_s": (solver_s["solve"], "s"),
        "core.solver.refresh_s": (solver_s["refresh"], "s"),
        "core.solver.extract_s": (solver_s["extract"], "s"),
        "core.solver.warm_ratio": (_ratio(delta("engine", "solver", "warm_solves"), solves), "ratio"),
        "service.pool.build_ms": (layer_ms(remote, "service.pool.build"), "ms"),
        "service.pool.ipc_ms": (layer_ms(remote, "service.pool.build", "hit"), "ms"),
        "service.pool.retries": (delta("pool", "retries"), "count"),
        "service.pool.respawns": (delta("pool", "respawns"), "count"),
        "service.pool.publish_ms": (layer_ms(remote, "service.pool.publish"), "ms"),
        "service.controllog.append_ms": (layer_ms(remote, "service.controllog.append"), "ms"),
        "service.store.writes": (delta("durability", "store", "writes"), "count"),
        "service.store.write_errors": (delta("durability", "store", "write_errors"), "count"),
        "bench.publish_to_fresh_ms": (_median(fresh), "ms"),
        "bench.lateness_p99_ms": (traffic.percentile(lateness, 0.99), "ms"),
        "bench.dominant_layer_share": (dominant, "ratio"),
    }
