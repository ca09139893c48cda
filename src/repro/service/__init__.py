"""Serving tier of the CORGI framework: engine ← service ← transport.

The server side is split into three layers (mirroring the persistence /
logic / control separation the related DB-nets work argues for):

* :class:`~repro.server.engine.ForestEngine` — pure matrix generation over
  the pipeline layer (no request semantics);
* :class:`~repro.service.service.CORGIService` — request validation and
  normalization, single-flight coalescing of identical ``(privacy_level,
  δ, ε)`` requests (the one in-flight table every transport shares),
  bounded batching, admission control and
  :class:`~repro.service.metrics.ServiceMetrics`;
* :mod:`repro.service.http` — a stdlib-only HTTP JSON transport reusing
  the wire formats of :mod:`repro.server.messages`;
* :class:`~repro.service.pool.EnginePool` /
  :mod:`repro.service.shard` — N engine replicas in shard processes with
  consistent-hash routing, crash respawn and broadcast prior updates,
  behind the same service API;
* :mod:`repro.service.wire` / :mod:`repro.service.netshard` — the one shard
  transport: length-prefixed JSON frames with heartbeat liveness and
  bounded redial, served by a child forked onto a socketpair for a local
  slot or by a ``python -m repro.service.netshard`` server on another
  machine for a remote one;
* :mod:`repro.service.controllog` / :mod:`repro.service.store` — the
  durable state tier: a crash-safe priors write-ahead log
  replayed on boot, plus a compressed, checksummed snapshot store that
  pre-warms a restarted fleet (``EnginePool(state_dir=...)``);
* :mod:`repro.service.gateway` — the asyncio push front-end: clients hold
  one connection, subscribe to keys, and get refreshed matrices *pushed*
  when new priors are installed (builds awaited through the service's
  single-flight gate, per-connection queues, slow-consumer eviction,
  generation tags).  It and the sync HTTP transport are both thin adapters
  over the same core.

Client-side counterparts (the transport protocol, ``InProcessTransport``
and ``HTTPTransport``) live in :mod:`repro.client.transport`.
"""

from repro.service.controllog import ControlLog, ControlLogFormatError
from repro.service.handoff import (
    CacheSnapshot,
    SnapshotEntry,
    SnapshotFormatError,
    decode_snapshot,
    encode_snapshot,
)
from repro.service.gateway import (
    GatewayConfig,
    GatewayProtocolError,
    GatewayServer,
    serve_gateway,
)
from repro.service.http import CORGIHTTPServer, serve_http
from repro.service.metrics import ServiceMetrics
from repro.service.netshard import NetShardServer
from repro.service.pool import EnginePool, EnginePoolError, PoolTimeoutError
from repro.service.service import CORGIService, ServiceConfig, ServiceOverloadedError
from repro.service.shard import RemoteShardError, ShardCrashedError, ShardState
from repro.service.store import SnapshotStore, StoreFormatError
from repro.service.wire import FrameFormatError

__all__ = [
    "CORGIService",
    "ServiceConfig",
    "ServiceOverloadedError",
    "ServiceMetrics",
    "CORGIHTTPServer",
    "serve_http",
    "GatewayConfig",
    "GatewayProtocolError",
    "GatewayServer",
    "serve_gateway",
    "EnginePool",
    "EnginePoolError",
    "PoolTimeoutError",
    "ShardCrashedError",
    "ShardState",
    "FrameFormatError",
    "NetShardServer",
    "RemoteShardError",
    "CacheSnapshot",
    "SnapshotEntry",
    "SnapshotFormatError",
    "decode_snapshot",
    "encode_snapshot",
    "ControlLog",
    "ControlLogFormatError",
    "SnapshotStore",
    "StoreFormatError",
]
