"""The system under test, deployed the two ways the workloads need.

:class:`InProcess` runs ``InProcessTransport`` → ``CORGIService`` →
``ForestEngine`` inside the benchmark process.  :class:`ServerProcess`
forks a process that serves ``CORGIHTTPServer`` → ``CORGIService`` →
``ForestEngine`` (or a sharded ``EnginePool``) and talks to it over a pipe
for the begin/end counters, spans and memory readings.

Every tree uses the San Francisco anchor with ``root_resolution = 9 -
height``, and every engine the same ``ServerConfig`` on the scipy solver
path, so the workloads differ only in traffic.
"""

from __future__ import annotations

import json
import multiprocessing
from typing import Dict, Optional, Sequence

from spans import Tracer

from repro.client import transport as client_transport
from repro.client.transport import HTTPTransport, InProcessTransport
from repro.core.objective import TargetDistribution
from repro.core.robust import RobustMatrixGenerator
from repro.datasets.synthetic import GowallaLikeGenerator, SyntheticConfig
from repro.geometry.haversine import LatLng
from repro.server import engine as engine_module
from repro.server.engine import ForestEngine, ServerConfig
from repro.server.messages import PrivacyForestResponse
from repro.service.controllog import ControlLog
from repro.service.http import CORGIHTTPServer
from repro.service.pool import EnginePool
from repro.service.service import CORGIService
from repro.tree.builder import tree_for_point
from repro.tree.priors import priors_from_checkins

ANCHOR = LatLng(37.77, -122.42)

#: The check-in data and the service targets are fixed, not drawn from the
#: run's seed: the seed varies the traffic, while the priors and the quality
#: of every served matrix stay comparable across seeds and commits.
DATASET_SEED = 101
TARGET_SEED = 1


def engine_config() -> ServerConfig:
    return ServerConfig(epsilon=2.0, num_targets=5, robust_iterations=2, solver_backend="scipy")


def make_dataset():
    return GowallaLikeGenerator(
        SyntheticConfig(num_checkins=1_200, num_users=48, num_venues=96), seed=DATASET_SEED
    ).generate()


def build_tree(height: int, dataset):
    tree = tree_for_point(ANCHOR, height=height, root_resolution=9 - height)
    priors_from_checkins(tree, dataset)
    return tree


def targets_for(tree) -> TargetDistribution:
    centers = [leaf.center.as_tuple() for leaf in tree.leaves()]
    return TargetDistribution.sample_from_centers(
        centers, min(engine_config().num_targets, len(centers)), seed=TARGET_SEED
    )


def reference_engine(height: int, dataset) -> ForestEngine:
    """A fresh single-process engine over the same inputs (the byte-identity reference)."""
    tree = build_tree(height, dataset)
    return ForestEngine(tree, engine_config(), targets=targets_for(tree))


def prebuild(service: CORGIService, keys: Sequence[tuple]) -> None:
    for level, delta, epsilon in keys:
        service.generate_privacy_forest(level, delta, epsilon=epsilon)


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """VmHWM (peak resident set) of a process, in MB, from /proc."""
    path = f"/proc/{'self' if pid is None else pid}/status"
    with open(path, encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM in {path}")


# --------------------------------------------------------------------- #
# Span wrappers: one set for the client side, one for the serving side
# --------------------------------------------------------------------- #


class _JsonProbe:
    """Stands in for the ``json`` name inside ``repro.client.transport``.

    Times response parsing and records response sizes; every other
    attribute is the real module's.
    """

    def __init__(self, tracer: Tracer) -> None:
        self._tracer = tracer

    def loads(self, raw, *args, **kwargs):
        self._tracer.observe("client.transport.response_bytes", len(raw))
        return self._tracer.call("client.transport.parse", json.loads, (raw, *args), kwargs)

    def __getattr__(self, name: str):
        return getattr(json, name)


def _cached_tag(result) -> str:
    return "hit" if result[1] else "miss"


def wrap_client(tracer: Tracer) -> None:
    tracer.wrap_method(HTTPTransport, "fetch_forest", "client.transport.fetch")
    tracer.wrap_method(InProcessTransport, "fetch_forest", "client.transport.fetch")
    tracer.wrap_method(PrivacyForestResponse, "from_dict", "client.transport.decode")
    tracer.rebind(client_transport, "json", _JsonProbe(tracer))


def wrap_server(tracer: Tracer) -> None:
    tracer.wrap_method(CORGIService, "handle_dict", "service.service.handle_dict")
    tracer.wrap_method(CORGIService, "handle", "service.service.handle")
    tracer.wrap_method(PrivacyForestResponse, "to_dict", "server.messages.encode")
    tracer.wrap_method(ForestEngine, "build_forest_traced", "server.engine.build", _cached_tag)
    # The whole forest-key computation (config fields, target and leaf-prior
    # digests), which every request pays, cache hits included.
    tracer.wrap_method(ForestEngine, "_forest_fingerprint", "server.engine.fingerprint")
    tracer.wrap_binding(engine_module, "run_robust_task_groups", "pipeline.executor.run")
    tracer.wrap_method(RobustMatrixGenerator, "generate", "core.robust.generate")
    tracer.wrap_method(EnginePool, "build_forest_traced", "service.pool.build", _cached_tag)
    tracer.wrap_method(EnginePool, "publish_priors", "service.pool.publish")
    tracer.wrap_method(ControlLog, "append", "service.controllog.append")


# --------------------------------------------------------------------- #
# Counters (start→end deltas give the per-layer counts)
# --------------------------------------------------------------------- #


def counters(service: CORGIService) -> Dict[str, object]:
    engine = service.engine
    pool_stats = getattr(engine, "pool_stats", None)
    return {
        "engine": engine.cache_diagnostics(),
        "service": service.metrics.snapshot(),
        "pool": pool_stats() if callable(pool_stats) else {},
        "durability": service.durability(),
    }


class InProcess:
    """The whole stack in the benchmark process, pre-built with *keys*."""

    def __init__(self, height: int, dataset, keys: Sequence[tuple]) -> None:
        self.tree = build_tree(height, dataset)
        self.engine = ForestEngine(self.tree, engine_config(), targets=targets_for(self.tree))
        self.service = CORGIService(self.engine)
        self.transport = InProcessTransport(self.service)
        prebuild(self.service, keys)
        self._start: Dict[str, object] = {}

    def begin(self, tracer: Optional[Tracer]) -> None:
        if tracer is not None:
            wrap_client(tracer)
            wrap_server(tracer)
        self._start = counters(self.service)

    def end(self, tracer: Optional[Tracer]) -> Dict[str, object]:
        if tracer is not None:
            tracer.uninstall()
        return {
            "start": self._start,
            "end": counters(self.service),
            "spans": [],
            "rss_mb": peak_rss_mb(),
        }

    def close(self) -> None:
        pass


# --------------------------------------------------------------------- #
# Forked HTTP server
# --------------------------------------------------------------------- #

#: Deadline for any one answer from the server process.
PIPE_TIMEOUT_S = 120.0


def _serve(conn, parent_end, height: int, dataset, keys, shards: int, state_dir: Optional[str]) -> None:
    """Server-process main: build, pre-build, serve, answer the pipe, exit."""
    # Fork copied the benchmark's end of the pipe; holding it would keep the
    # pipe open, so the server would never see EOF if the benchmark died.
    parent_end.close()
    pool = None
    server = None
    try:
        tree = build_tree(height, dataset)
        if shards:
            pool = EnginePool(
                tree, engine_config(), targets=targets_for(tree), num_shards=shards, state_dir=state_dir
            )
            pool.wait_ready()
            engine = pool
        else:
            engine = ForestEngine(tree, engine_config(), targets=targets_for(tree))
        service = CORGIService(engine)
        prebuild(service, keys)
        server = CORGIHTTPServer(service, host="127.0.0.1", port=0).start()
        conn.send(("ready", server.url))
        tracer: Optional[Tracer] = None
        start: Dict[str, object] = {}
        while True:
            message = conn.recv()
            if message[0] == "begin":
                start = counters(service)
                if message[1]:
                    tracer = Tracer()
                    wrap_server(tracer)
                conn.send(("begun",))
            elif message[0] == "end":
                if tracer is not None:
                    tracer.uninstall()
                shard_pids = [info["pid"] for info in pool.shard_states() if info["pid"]] if pool else []
                conn.send(
                    (
                        "ended",
                        {
                            "start": start,
                            "end": counters(service),
                            "spans": [] if tracer is None else tracer.spans,
                            "rss_mb": peak_rss_mb() + sum(peak_rss_mb(pid) for pid in shard_pids),
                        },
                    )
                )
            else:
                return
    except EOFError:
        return  # the benchmark process went away
    finally:
        try:
            if server is not None:
                server.shutdown()
        finally:
            if pool is not None:
                pool.close()
            conn.close()


class ServerProcess:
    """``CORGIHTTPServer`` in a forked process; a pool of *shards* when > 0."""

    def __init__(
        self,
        height: int,
        dataset,
        keys: Sequence[tuple],
        *,
        shards: int = 0,
        state_dir: Optional[str] = None,
    ) -> None:
        context = multiprocessing.get_context("fork")
        self._conn, child = context.Pipe()
        self.process = context.Process(
            target=_serve,
            args=(child, self._conn, height, dataset, list(keys), shards, state_dir),
            name="bench-server",
        )
        self.process.start()
        child.close()
        try:
            self.url = self._call(None, "ready")[1]
        except BaseException:
            self.close()
            raise
        self.transport = HTTPTransport(self.url, timeout_s=PIPE_TIMEOUT_S)

    def _call(self, message, expected: str):
        if message is not None:
            self._conn.send(message)
        if not self._conn.poll(PIPE_TIMEOUT_S):
            raise TimeoutError(f"server process gave no {expected!r} within {PIPE_TIMEOUT_S:.0f} s")
        reply = self._conn.recv()
        if reply[0] != expected:
            raise RuntimeError(f"server process answered {reply[0]!r}, expected {expected!r}")
        return reply

    def begin(self, tracer: Optional[Tracer]) -> None:
        if tracer is not None:
            wrap_client(tracer)
        self._call(("begin", tracer is not None), "begun")

    def end(self, tracer: Optional[Tracer]) -> Dict[str, object]:
        if tracer is not None:
            tracer.uninstall()
        return self._call(("end",), "ended")[1]

    def close(self) -> None:
        try:
            self._conn.send(("stop",))
        except OSError:
            pass  # already gone
        self.process.join(timeout=30.0)
        if self.process.is_alive():
            self.process.kill()
            self.process.join(timeout=10.0)
        self._conn.close()
