"""Shard server: one engine replica behind the frame protocol.

Every :class:`~repro.service.pool.EnginePool` slot talks to one of these
over the frames of :mod:`repro.service.wire`, and the two kinds of slot
differ only in how the connection is made:

* a **local** slot's server is a child process the pool forks onto one end
  of a ``socketpair`` (:func:`serve_local_shard`); it serves that one
  connection and exits when it ends (``bye`` or EOF) or when the child is
  orphaned;
* a **remote** slot dials a ``python -m repro.service.netshard`` server on
  another host (:func:`serve_netshard` / :func:`main`), which serves one
  pool connection at a time and keeps its engine — and therefore its hot
  forest cache — across reconnects, so a transient network blip costs a
  redial, not a cold rebuild.

The groundwork is host-agnostic on purpose: the ring hashes semantic
request keys, the op vocabulary ships plain data
(:class:`~repro.service.shard.ShardOpExecutor`), and the hand-off snapshot
format (:mod:`repro.service.handoff`) carries semantic request keys and
priors versions instead of local state.  Matrices cross the wire via
:meth:`~repro.core.matrix.ObfuscationMatrix.to_dict` (exact float64
round-trip — pooled forests stay byte-identical to single-process builds),
and hand-off snapshots ride as the exact blob
:func:`~repro.service.handoff.encode_snapshot` produces.

The pool heartbeats every shard and the server echoes from its *reader*
thread (never behind a long engine build), so a dead or frozen shard is
detected within ``liveness_timeout_s`` (default 1 s) even mid-LP-campaign.

Server entry point::

    python -m repro.service.netshard --port 9400 [--scale small] ...

hosts one :class:`~repro.server.engine.ForestEngine` replica; the head node
then serves with ``python -m repro.experiments.runner --serve
--shard-hosts hostA:9400,hostB:9400``.  Both sides must be built over the
same workload tree and engine config — the same requirement every replica
of the pool already obeys.
"""

from __future__ import annotations

import argparse
import os
import queue as queue_module
import socket
import sys
import threading
from typing import Callable, Dict, List, Optional, Tuple

from repro.service.shard import (
    ShardOpExecutor,
    ShardSpec,
    decode_request,
    encode_error,
    encode_result,
)
from repro.service.wire import CLIENT_IDLE_TIMEOUT_S, FrameConnection, FrameFormatError, parse_address
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = [
    "NetShardServer",
    "parse_shard_hosts",
    "serve_local_shard",
    "serve_netshard",
    "main",
]


class NetShardServer:
    """One :class:`ForestEngine` replica serving pool connections.

    Connections are served one at a time (a pool is the only client); the
    engine — and its warm forest cache — persists across connections, so a
    reconnecting parent finds the replica exactly as warm as it left it.
    Two threads split the work so liveness survives long builds:

    * the **reader** (:meth:`serve_connection`) parses frames, echoes
      heartbeats immediately, and queues requests;
    * the **worker** runs ops serially through the shared
      :class:`~repro.service.shard.ShardOpExecutor` and writes responses.

    Failures are answers: op-level errors ship back typed under their
    ticket, undecodable streams get a best-effort ``protocol_error`` frame
    and a dropped connection — the server never dies on client input.  A
    ``bye`` frame ends the connection; a ``shutdown`` frame (an
    operator/tooling affordance — the pool itself only ever says ``bye``)
    also stops :meth:`serve_forever`.
    """

    def __init__(self, spec: ShardSpec) -> None:
        self._spec = spec
        self._executor = ShardOpExecutor(spec)
        self._stop = threading.Event()
        self._work: "queue_module.Queue[Optional[Tuple[FrameConnection, str, int, object]]]" = (
            queue_module.Queue()
        )
        threading.Thread(
            target=self._worker, name=f"netshard-{spec.shard_id}-worker", daemon=True
        ).start()

    def _worker(self) -> None:
        while True:
            item = self._work.get()
            if item is None:
                return
            connection, op, ticket, payload = item
            try:
                result = encode_result(op, self._executor.execute(op, payload))
            except BaseException as error:  # noqa: BLE001 - shipped to the caller
                response: Dict[str, object] = {
                    "kind": "response",
                    "op": op,
                    "ticket": ticket,
                    "status": "error",
                    "error": encode_error(error),
                }
            else:
                response = {
                    "kind": "response",
                    "op": op,
                    "ticket": ticket,
                    "status": "ok",
                    "result": result,
                }
            # A connection that ended meanwhile drops the stale answer.
            connection.send(response)

    def serve_forever(self, listener: socket.socket) -> None:
        """Accept and serve pool connections until ``shutdown``/stop."""
        listener.settimeout(0.2)
        host, port = listener.getsockname()[:2]
        logger.info(
            "netshard %d serving on %s:%d (pid %d)", self._spec.shard_id, host, port, os.getpid()
        )
        try:
            while not self._stop.is_set():
                try:
                    conn, peer = listener.accept()
                except socket.timeout:
                    continue
                except OSError:
                    break  # listener closed under us
                conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                logger.debug("netshard %d: client %s connected", self._spec.shard_id, peer)
                self.serve_connection(conn)
        finally:
            self.shutdown()
            listener.close()

    def serve_connection(
        self, sock: socket.socket, *, stop: Optional[Callable[[], bool]] = None
    ) -> None:
        """Serve one pool connection until ``bye``, EOF, silence or *stop*."""
        connection = FrameConnection(sock)
        connection.send({"kind": "ready", "shard": self._executor.ready_announcement()})
        try:
            ended = connection.read(
                lambda message: self._dispatch(connection, message),
                silence_timeout_s=CLIENT_IDLE_TIMEOUT_S,
                stop=lambda: self._stop.is_set() or (stop is not None and stop()),
            )
            if ended == "silent":
                logger.warning(
                    "netshard %d: client silent for %.0f s; dropping connection",
                    self._spec.shard_id,
                    CLIENT_IDLE_TIMEOUT_S,
                )
        except FrameFormatError as error:
            # Strict decode: a desynced length-prefixed stream cannot be
            # re-synchronized — answer (best effort) and drop the
            # connection, never the server.
            logger.warning("netshard %d: protocol error: %s", self._spec.shard_id, error)
            connection.send({"kind": "protocol_error", "detail": str(error)})
        finally:
            connection.close()

    def _dispatch(self, connection: FrameConnection, message: Dict[str, object]) -> bool:
        """Route one decoded message; False ends the connection."""
        kind = message.get("kind")
        if kind == "heartbeat":
            # Echoed from the reader thread so liveness is orthogonal to
            # whatever the worker is building right now.
            connection.send(message)
            return True
        if kind == "request":
            try:
                op, ticket, payload = decode_request(message)
            except FrameFormatError as error:
                ticket_field = message.get("ticket")
                if isinstance(ticket_field, int) and not isinstance(ticket_field, bool):
                    # The envelope is intact — answer the ticket with a
                    # typed client error instead of dropping the stream.
                    connection.send(
                        {
                            "kind": "response",
                            "op": str(message.get("op")),
                            "ticket": ticket_field,
                            "status": "error",
                            "error": encode_error(error),
                        }
                    )
                    return True
                connection.send({"kind": "protocol_error", "detail": str(error)})
                return False
            self._work.put((connection, op, ticket, payload))
            return True
        if kind == "bye":
            logger.debug("netshard %d: client said bye", self._spec.shard_id)
            return False
        if kind == "shutdown":
            logger.info("netshard %d: shutdown requested; retiring", self._spec.shard_id)
            self.shutdown()
            return False
        connection.send({"kind": "protocol_error", "detail": f"unknown frame kind {kind!r}"})
        return False

    def shutdown(self) -> None:
        """Stop serving: end the current connection and the worker (idempotent)."""
        if not self._stop.is_set():
            self._stop.set()
            self._work.put(None)


def serve_local_shard(spec: ShardSpec, sock: socket.socket) -> None:
    """Process entry point of a local pool slot: serve one socketpair end.

    The child exits when its one connection ends — ``bye`` from the pool,
    or EOF — and also when it is orphaned: a sibling child forked later
    inherits the pool's end of this socketpair, so a SIGKILLed head does
    not always produce EOF here.
    """
    parent_pid = os.getppid()
    NetShardServer(spec).serve_connection(sock, stop=lambda: os.getppid() != parent_pid)


def serve_netshard(spec: ShardSpec, host: str, port: int, port_queue=None) -> None:
    """Process entry point: host *spec* on ``host:port`` until shutdown.

    Picklable (usable as a ``multiprocessing`` target, which is how the
    tests and benchmarks stand up socket shards).  With ``port=0`` the OS
    assigns the port; pass *port_queue* to learn the bound port — the
    race-free alternative to probing for a free port up front.
    """
    listener = socket.create_server((host, port), backlog=4)
    server = NetShardServer(spec)
    if port_queue is not None:
        port_queue.put(listener.getsockname()[1])
    server.serve_forever(listener)


def parse_shard_hosts(text: str) -> List[Tuple[str, int]]:
    """Parse ``host:port,host:port,...`` into address tuples (strict)."""
    addresses = [parse_address(token) for token in text.split(",") if token.strip()]
    if not addresses:
        raise ValueError("no shard hosts given")
    return addresses


# --------------------------------------------------------------------- #
# CLI: python -m repro.service.netshard
# --------------------------------------------------------------------- #


def main(argv: Optional[List[str]] = None) -> int:
    """Host one engine replica over TCP for a remote EnginePool.

    Builds the same workload tree and engine configuration the serving
    runner builds (``--scale`` must match across every replica and the
    head node — replicas of one ring serve one tree), binds the listener
    and serves until a shutdown frame or Ctrl-C.
    """
    parser = argparse.ArgumentParser(
        description="Serve one CORGI engine shard over a TCP socket"
    )
    parser.add_argument("--host", default="0.0.0.0", help="bind address")
    parser.add_argument("--port", type=int, required=True, help="bind port (0 = ephemeral)")
    parser.add_argument("--scale", default=None, help="workload scale: small (default) or paper")
    parser.add_argument(
        "--shard-id", type=int, default=0, help="shard id announced to the pool (cosmetic)"
    )
    parser.add_argument("--verbose", action="store_true", help="enable debug logging")
    args = parser.parse_args(argv)

    # Heavy imports deferred so `--help` stays instant.
    from repro.experiments.config import get_scale
    from repro.experiments.workloads import build_workload
    from repro.server.engine import ServerConfig
    from repro.utils.logging import configure_cli_logging

    configure_cli_logging(verbose=args.verbose)
    config = get_scale(args.scale)
    workload = build_workload(config)
    server_config = ServerConfig(
        epsilon=config.epsilon,
        num_targets=config.num_targets,
        robust_iterations=config.robust_iterations,
        solver_method=config.solver_method,
    )
    spec = ShardSpec(
        shard_id=args.shard_id,
        tree=workload.tree,
        config=server_config,
        targets=workload.targets,
    )
    listener = socket.create_server((args.host, args.port), backlog=4)
    host, port = listener.getsockname()[:2]
    server = NetShardServer(spec)
    print(f"netshard {args.shard_id} serving on {host}:{port} (Ctrl-C to stop)")
    try:
        server.serve_forever(listener)
    except KeyboardInterrupt:
        server.shutdown()
    return 0


if __name__ == "__main__":
    sys.exit(main())
