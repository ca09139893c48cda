"""Stdlib HTTP JSON transport for the CORGI service.

The wire protocol is deliberately tiny and reuses the existing message
(de)serialisation in :mod:`repro.server.messages` verbatim — the HTTP layer
adds routing, status codes and JSON framing, nothing else:

* ``POST /forest`` — body: :meth:`ObfuscationRequest.to_dict` JSON;
  response: :meth:`PrivacyForestResponse.to_dict` JSON.
* ``POST /forest/batch`` — body: ``{"requests": [<request>, ...]}``;
  response: ``{"responses": [<response>, ...]}`` (order-aligned).
* ``GET /healthz`` — liveness probe.
* ``GET /metrics`` — :meth:`CORGIService.snapshot` JSON: request counters
  and latencies under ``service``, engine diagnostics under ``engine``; on
  a pool, its drain, hand-off and respawn counters under ``engine.pool``.
* ``GET /priors/<subtree_root_id>`` — published leaf priors (footnote 5).
* ``GET /admin/durability`` — durable-tier diagnostics (control-log replay
  length, snapshot-store hits and compression ratio, pre-warm counters);
  ``{"durable": false, ...}`` when serving without a ``--state-dir``.  On
  a replicated head the payload adds a ``replication`` block — primary:
  per-follower acked cursors and lag against the durable log head;
  follower: source address, durable cursor, applied/skipped/reset
  counters and lag.  A control write (``/admin/priors``,
  ``/admin/invalidate``) sent to a *follower* head is refused with a
  structured 400 (:class:`~repro.service.replication
  .ReplicationRoleError`) naming the primary — replicated state converges
  through the primary's log, never through side writes.
* ``GET /admin/diagnostics`` — engine cache/solver diagnostics
  (:meth:`CORGIService.diagnostics`): forest/matrix cache stats, structure
  sharing, and the aggregate LP-solver block (solve count and per-stage
  time totals) — summed across shards on a pool.
* ``POST /admin/invalidate`` — body ``{"privacy_level": <int|null>}``
  (field optional); drops cached forests — on a sharded
  :class:`~repro.service.pool.EnginePool` across every shard — and answers
  ``{"invalidated": <count>}``.
* ``POST /admin/priors`` — body ``{"priors": {<leaf_id>: <mass>, ...},
  "normalize": <bool>}``; installs new leaf priors (a live prior update),
  flushes affected caches on every shard and answers
  ``{"invalidated": <count>, "leaves": <len(priors)>}``.
* ``POST /admin/drain`` — body ``{"slot": <int>}``; gracefully drains one
  shard slot of a sharded :class:`~repro.service.pool.EnginePool` (warm
  cache hand-off to its ring siblings, then retirement) and answers the
  drain report (``{"slot", "exported", "handoff_keys", ...}``).  A bad or
  unknown slot id — or a server not running a pool — is a structured 400,
  never a 500.

Error mapping: malformed JSON / invalid parameters → 400, unknown node or
route → 404, admission-control rejection → 503, anything else → 500.  The
body of every error is ``{"error": <type>, "detail": <message>}``.

The server is :class:`http.server.ThreadingHTTPServer` — one thread per
connection, which is exactly the concurrency shape the service layer's
single-flight gate is built to absorb.  Binding to port 0 picks an
ephemeral port (exposed via :attr:`CORGIHTTPServer.port`), which the tests
and examples use to avoid collisions.
"""

from __future__ import annotations

import json
import socket
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple

from repro.core.exceptions import CORGIError
from repro.service.service import (
    CORGIService,
    ServiceBuildTimeoutError,
    ServiceOverloadedError,
)
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = ["CORGIHTTPServer", "CORGIRequestHandler", "serve_http"]

#: Maximum accepted request-body size (a forest request is a few dozen
#: bytes; anything larger is a client error or abuse).
MAX_BODY_BYTES = 1 << 20


class CORGIRequestHandler(BaseHTTPRequestHandler):
    """Routes HTTP requests to the owning server's :class:`CORGIService`."""

    server_version = "CORGIService/1.0"
    protocol_version = "HTTP/1.1"

    @property
    def service(self) -> CORGIService:
        return self.server.corgi_service  # type: ignore[attr-defined]

    # ------------------------------------------------------------------ #
    # Routing
    # ------------------------------------------------------------------ #

    def do_POST(self) -> None:  # noqa: N802 (stdlib naming)
        try:
            payload = self._read_json()
            if self.path == "/forest":
                self._send_json(200, self.service.handle_dict(payload))
            elif self.path == "/forest/batch":
                requests = payload.get("requests")
                if not isinstance(requests, list):
                    raise ValueError('batch body must be {"requests": [...]}')
                responses = self.service.handle_batch_dicts(requests)
                self._send_json(200, {"responses": responses})
            elif self.path == "/admin/invalidate":
                self._send_json(200, self._handle_invalidate(payload))
            elif self.path == "/admin/priors":
                self._send_json(200, self._handle_publish_priors(payload))
            elif self.path == "/admin/drain":
                self._send_json(200, self._handle_drain(payload))
            else:
                self._send_error(404, "not_found", f"unknown path {self.path!r}")
        except Exception as error:  # pragma: no cover - thin mapping, each arm tested
            self._send_mapped_error(error)

    # ------------------------------------------------------------------ #
    # Admin ops (cache lifecycle)
    # ------------------------------------------------------------------ #

    def _handle_invalidate(self, payload: Dict[str, object]) -> Dict[str, object]:
        privacy_level = payload.get("privacy_level")
        if privacy_level is not None:
            privacy_level = int(privacy_level)  # type: ignore[arg-type]
        dropped = self.service.invalidate(privacy_level)
        return {"invalidated": dropped}

    def _handle_publish_priors(self, payload: Dict[str, object]) -> Dict[str, object]:
        priors = payload.get("priors")
        if not isinstance(priors, dict) or not priors:
            raise ValueError('priors body must be {"priors": {<leaf_id>: <mass>, ...}}')
        normalize = payload.get("normalize", True)
        if not isinstance(normalize, bool):
            raise ValueError("normalize must be a boolean")
        coerced = {str(node_id): float(mass) for node_id, mass in priors.items()}
        dropped = self.service.publish_priors(coerced, normalize=normalize)
        return {"invalidated": dropped, "leaves": len(coerced)}

    def _handle_drain(self, payload: Dict[str, object]) -> Dict[str, object]:
        if "slot" not in payload:
            raise ValueError('drain body must be {"slot": <int>}')
        # Slot vetting (type, range, lifecycle state) lives in
        # CORGIService.drain / EnginePool.drain; every rejection is a
        # ValueError, which the mapping below turns into a structured 400.
        return self.service.drain(payload["slot"])

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        try:
            if self.path == "/healthz":
                self._send_json(200, {"status": "ok"})
            elif self.path == "/metrics":
                self._send_json(200, self.service.snapshot())
            elif self.path == "/admin/durability":
                self._send_json(200, self.service.durability())
            elif self.path == "/admin/diagnostics":
                self._send_json(200, self.service.diagnostics())
            elif self.path.startswith("/priors/"):
                subtree_root_id = self.path[len("/priors/") :]
                self._send_json(200, self.service.publish_leaf_priors(subtree_root_id))
            else:
                self._send_error(404, "not_found", f"unknown path {self.path!r}")
        except Exception as error:
            self._send_mapped_error(error)

    # ------------------------------------------------------------------ #
    # Framing helpers
    # ------------------------------------------------------------------ #

    def _read_json(self) -> Dict[str, object]:
        length = int(self.headers.get("Content-Length", 0))
        if length <= 0:
            raise ValueError("request body required")
        if length > MAX_BODY_BYTES:
            # The oversized body is left unread; keeping the connection alive
            # would make the next keep-alive request parse it as garbage.
            self.close_connection = True
            raise ValueError(f"request body exceeds {MAX_BODY_BYTES} bytes")
        body = self.rfile.read(length)
        payload = json.loads(body)
        if not isinstance(payload, dict):
            raise ValueError("request body must be a JSON object")
        return payload

    def _send_json(self, status: int, payload: object) -> None:
        body = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error(self, status: int, error: str, detail: str) -> None:
        self._send_json(status, {"error": error, "detail": detail})

    def _send_mapped_error(self, error: Exception) -> None:
        if isinstance(error, ServiceOverloadedError):
            self._send_error(503, "overloaded", str(error))
        elif isinstance(error, ServiceBuildTimeoutError):
            # A follower deadline is transient — retrying starts a fresh
            # build — so it must surface as 503, never 500.
            self._send_error(503, "build_timeout", str(error))
        elif isinstance(error, (json.JSONDecodeError, ValueError, TypeError, OverflowError)):
            # OverflowError: json.loads accepts ``Infinity`` and int(inf)
            # overflows — a malformed payload, not a server fault.
            self._send_error(400, "bad_request", str(error))
        elif isinstance(error, KeyError):
            self._send_error(404, "not_found", str(error))
        else:
            logger.exception("unhandled error serving %s %s", self.command, self.path)
            kind = "corgi_error" if isinstance(error, CORGIError) else "internal_error"
            self._send_error(500, kind, str(error))

    def log_message(self, format: str, *args: object) -> None:  # noqa: A002
        # Route the stdlib's per-request stderr chatter through our logger.
        logger.debug("%s - %s", self.address_string(), format % args)


class _TrackingThreadingHTTPServer(ThreadingHTTPServer):
    """:class:`ThreadingHTTPServer` that can force-close held connections.

    With ``daemon_threads = True`` the stock ``server_close`` neither joins
    handler threads nor closes their sockets, so a client holding a
    keep-alive connection left its handler thread parked in
    ``rfile.readline()`` forever after shutdown — a silent thread *and*
    socket leak on every restart.  Accepted sockets are tracked from
    ``process_request`` until ``shutdown_request`` so shutdown can shut
    them down explicitly, which pops every parked handler thread out of
    its blocking read.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._open_connections: set = set()
        self._open_connections_lock = threading.Lock()

    def process_request(self, request, client_address) -> None:
        with self._open_connections_lock:
            self._open_connections.add(request)
        super().process_request(request, client_address)

    def shutdown_request(self, request) -> None:
        with self._open_connections_lock:
            self._open_connections.discard(request)
        super().shutdown_request(request)

    def force_close_connections(self) -> int:
        """Shut down every connection still held open; return how many."""
        with self._open_connections_lock:
            lingering = list(self._open_connections)
            self._open_connections.clear()
        for connection in lingering:
            try:
                connection.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass  # already half-closed by the peer
            try:
                connection.close()
            except OSError:
                pass
        return len(lingering)


class CORGIHTTPServer:
    """A threaded HTTP server wrapping one :class:`CORGIService`.

    Parameters
    ----------
    service:
        The service to expose.  An engine
        (:class:`~repro.server.engine.ForestEngine` or
        :class:`~repro.service.pool.EnginePool`) is also accepted and
        wrapped in a default-configured service.
    host / port:
        Bind address; ``port=0`` selects an ephemeral port, available as
        :attr:`port` after construction.

    Usage::

        with CORGIHTTPServer(service, port=0) as server:
            transport = HTTPTransport(server.url)
            ...

    or non-blocking: :meth:`start` runs ``serve_forever`` on a daemon
    thread and :meth:`shutdown` stops it.
    """

    def __init__(self, service: CORGIService, host: str = "127.0.0.1", port: int = 0) -> None:
        if not isinstance(service, CORGIService):
            service = CORGIService(service)
        self.service = service
        self._httpd = _TrackingThreadingHTTPServer((host, port), CORGIRequestHandler)
        self._httpd.corgi_service = service  # type: ignore[attr-defined]
        self._httpd.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------ #
    # Address
    # ------------------------------------------------------------------ #

    @property
    def address(self) -> Tuple[str, int]:
        """The bound ``(host, port)`` pair."""
        host, port = self._httpd.server_address[:2]
        return str(host), int(port)

    @property
    def host(self) -> str:
        return self.address[0]

    @property
    def port(self) -> int:
        return self.address[1]

    @property
    def url(self) -> str:
        """Base URL clients should point an ``HTTPTransport`` at."""
        return f"http://{self.host}:{self.port}"

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "CORGIHTTPServer":
        """Serve on a background daemon thread and return immediately."""
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._httpd.serve_forever, name="corgi-http", daemon=True
        )
        self._thread.start()
        logger.info("CORGI HTTP service listening on %s", self.url)
        return self

    def serve_forever(self) -> None:
        """Serve on the calling thread until :meth:`shutdown` (blocking)."""
        logger.info("CORGI HTTP service listening on %s", self.url)
        self._httpd.serve_forever()

    #: Deadline for the serving thread to exit after ``shutdown()``.
    JOIN_TIMEOUT_S = 5.0

    def shutdown(self) -> None:
        """Stop serving, force-close held connections, release the socket.

        Idempotent.  Keep-alive connections still held by clients are
        shut down explicitly — without that, their handler threads stay
        parked in a blocking read forever (the stock ``server_close``
        neither joins nor closes them under ``daemon_threads``).  A serving
        thread that then still fails to exit within
        :attr:`JOIN_TIMEOUT_S` raises :class:`RuntimeError` instead of
        returning as if the shutdown were clean.
        """
        self._httpd.shutdown()
        self._httpd.server_close()
        forced = self._httpd.force_close_connections()
        if forced:
            logger.info("force-closed %d held keep-alive connection(s) on shutdown", forced)
        thread = self._thread
        if thread is not None:
            thread.join(timeout=self.JOIN_TIMEOUT_S)
            if thread.is_alive():
                raise RuntimeError(
                    f"HTTP serving thread did not stop within {self.JOIN_TIMEOUT_S:.1f}s "
                    "of shutdown; the listener socket may still be held"
                )
            self._thread = None

    def __enter__(self) -> "CORGIHTTPServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown()


def serve_http(
    service: CORGIService, host: str = "127.0.0.1", port: int = 0
) -> CORGIHTTPServer:
    """Start a background HTTP server for *service* and return it."""
    return CORGIHTTPServer(service, host=host, port=port).start()
