"""Async push gateway: one held connection per client, refreshes are pushed.

The thread-per-request HTTP transport answers exactly one forest per
exchange, so after every ``/admin/invalidate`` or ``/admin/priors`` each
mobile client re-polls for a fresh obfuscation matrix — at millions of
users that is a reconnect storm per configuration change.  The gateway
inverts the flow, following the store-and-forward delivery model of the
MSMQ multi-branch synchronization design (PAPERS.md): a client holds
**one** long-lived connection, subscribes to the ``(privacy_level, δ, ε)``
keys it cares about, and the server *pushes* refreshed matrices when the
admin surface fires — queued per connection, tagged with a generation so a
client can never install a matrix older than the one it holds.

Layering (the sync HTTP transport stays a thin adapter over the same
core)::

    held TCP connections (asyncio)          POST /forest (ThreadingHTTPServer)
              │                                       │
              ▼                                       │
        GatewayServer  ── subscriptions,              │
              │           generations, queues         │
              ▼                                       ▼
      AsyncCORGIService ── async single-flight ──► CORGIService (sync core)
              │   (ticket rendezvous, as in the shard layer)
              ▼
        bounded ThreadPoolExecutor ──► engine builds (blocking)

* **Wire protocol** — newline-delimited JSON frames (one object per line),
  strict both ways: :func:`decode_gateway_frame` raises
  :class:`GatewayProtocolError` on garbage, and a malformed client frame is
  *answered* with an ``error`` frame (and counted), never a server death —
  the property suite in ``tests/test_wire_properties.py`` fuzzes this.
* **Async single-flight** — :class:`AsyncCORGIService` reuses the ticket
  rendezvous idiom of the shard layer: one leader awaits the blocking
  build in a bounded executor, followers await its event with the same
  config-derived deadline (:class:`ServiceBuildTimeoutError`, never a
  hang) and re-raise per-follower wrapped copies of a leader error.
* **Subscription registry** — per-connection bounded frame queues; a
  consumer that stops reading fills its queue and is *evicted* (counted as
  ``gateway_evicted_slow``) instead of growing server memory; idle
  connections get heartbeat frames so NATs stay open and dead peers
  surface as queue growth.
* **Generation tags** — every subscribed key carries a monotonic
  generation, bumped per invalidate/priors event.  Refresh pushes are
  coalesced per key (a storm of invalidations converges to one rebuild +
  one push of the final generation) and a rebuild that raced an update is
  re-run, so no subscriber is pushed a stale generation.

Counters flow into :class:`~repro.service.metrics.ServiceMetrics` (the
``gateway_*`` family) and connection/subscription gauges into
``GET /admin/diagnostics`` via
:meth:`CORGIService.attach_gateway_diagnostics`.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Dict, Mapping, Optional, Set, Tuple

from repro.service.service import (
    CORGIService,
    RequestKey,
    ServiceBuildTimeoutError,
    rewrap_for_follower,
)
from repro.server.messages import ObfuscationRequest
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = [
    "AsyncCORGIService",
    "GatewayConfig",
    "GatewayProtocolError",
    "GatewayServer",
    "MAX_FRAME_BYTES",
    "decode_gateway_frame",
    "encode_gateway_frame",
    "key_from_wire",
    "key_to_wire",
    "serve_gateway",
]

#: Upper bound on one frame (bytes, newline included).  Push frames carry a
#: whole forest response; at paper scale (49-leaf sub-trees) that is a few
#: hundred KiB of JSON, so the bound is generous — but it *is* a bound, on
#: both directions.
MAX_FRAME_BYTES = 4 << 20

#: Protocol identifier announced in the hello frame.
GATEWAY_SERVER_ID = "corgi-gateway/1.0"


class GatewayProtocolError(ValueError):
    """A gateway frame violates the wire protocol (garbage, oversize, non-object).

    A ``ValueError`` subclass so transport-agnostic error mapping treats it
    as a client fault (HTTP-400 class), mirroring
    :class:`~repro.service.wire.FrameFormatError`.
    """


def encode_gateway_frame(payload: Mapping[str, object]) -> bytes:
    """Encode one frame: compact JSON object plus a newline terminator."""
    if not isinstance(payload, Mapping):
        raise GatewayProtocolError(
            f"frame payload must be a mapping, got {type(payload).__name__}"
        )
    try:
        body = json.dumps(dict(payload), allow_nan=False, separators=(",", ":")).encode("utf-8")
    except (TypeError, ValueError) as error:
        raise GatewayProtocolError(f"frame payload is not JSON-encodable: {error}") from None
    if len(body) + 1 > MAX_FRAME_BYTES:
        raise GatewayProtocolError(
            f"frame of {len(body) + 1} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"
        )
    return body + b"\n"


def decode_gateway_frame(data: bytes) -> Dict[str, object]:
    """Decode one frame (a line as read off the wire); strict inverse of encode.

    Raises :class:`GatewayProtocolError` for anything that is not one
    newline-terminated JSON object within the size bound — empty lines,
    truncated JSON, arrays, scalars, binary garbage.
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    if not isinstance(data, (bytes, bytearray)):
        raise GatewayProtocolError(f"frame must be bytes, got {type(data).__name__}")
    if len(data) > MAX_FRAME_BYTES:
        raise GatewayProtocolError(
            f"frame of {len(data)} bytes exceeds the {MAX_FRAME_BYTES}-byte bound"
        )
    line = bytes(data).rstrip(b"\r\n")
    if not line.strip():
        raise GatewayProtocolError("empty frame")
    try:
        payload = json.loads(line)
    except (json.JSONDecodeError, UnicodeDecodeError) as error:
        raise GatewayProtocolError(f"frame is not valid JSON: {error}") from None
    if not isinstance(payload, dict):
        raise GatewayProtocolError(
            f"frame must be a JSON object, got {type(payload).__name__}"
        )
    return payload


def key_to_wire(key: RequestKey) -> Dict[str, object]:
    """The JSON shape of a normalized request key."""
    privacy_level, delta, epsilon = key
    return {"privacy_level": privacy_level, "delta": delta, "epsilon": epsilon}


def key_from_wire(payload: Mapping[str, object]) -> RequestKey:
    """Inverse of :func:`key_to_wire` (used by clients to index pushes)."""
    try:
        return (
            int(payload["privacy_level"]),  # type: ignore[arg-type]
            int(payload["delta"]),  # type: ignore[arg-type]
            float(payload["epsilon"]),  # type: ignore[arg-type]
        )
    except (KeyError, TypeError, ValueError, OverflowError) as error:
        raise GatewayProtocolError(f"malformed key payload: {error}") from None


@dataclass
class GatewayConfig:
    """Gateway knobs (the service core keeps its own :class:`ServiceConfig`).

    Attributes
    ----------
    queue_limit:
        Outbound frames buffered per connection before the consumer is
        declared slow and evicted.
    heartbeat_interval_s:
        Period of the idle-connection heartbeat frames.
    max_subscriptions:
        Distinct keys one connection may subscribe to.
    write_buffer_high:
        When set, clamp the per-connection transport write buffer (and the
        kernel send buffer) to roughly this many bytes, so a peer that
        stops reading blocks the writer — and therefore fills the frame
        queue and gets evicted — after *bounded* buffering instead of
        after megabytes of kernel buffers.  ``None`` keeps the asyncio and
        OS defaults.
    """

    queue_limit: int = 64
    heartbeat_interval_s: float = 10.0
    max_subscriptions: int = 64
    write_buffer_high: Optional[int] = None

    def validate(self) -> None:
        """Raise :class:`ValueError` for inconsistent settings."""
        if self.queue_limit < 2:
            raise ValueError("queue_limit must be >= 2 (one push + one heartbeat)")
        if self.heartbeat_interval_s <= 0:
            raise ValueError("heartbeat_interval_s must be positive")
        if self.max_subscriptions < 1:
            raise ValueError("max_subscriptions must be >= 1")
        if self.write_buffer_high is not None and self.write_buffer_high < 0:
            raise ValueError("write_buffer_high must be >= 0 when given")


class _AsyncBuild:
    """Rendezvous for one in-progress async build (ticket idiom, loop-confined)."""

    __slots__ = ("event", "response", "error", "followers", "generation")

    def __init__(self, generation: int = 0) -> None:
        self.event = asyncio.Event()
        self.response: Optional[Dict[str, object]] = None
        self.error: Optional[BaseException] = None
        self.followers = 0
        self.generation = generation


class AsyncCORGIService:
    """Awaitable adapter over the sync :class:`CORGIService` core.

    Blocking engine builds run in a bounded :class:`ThreadPoolExecutor`;
    concurrent identical keys share one executor ticket through an async
    single-flight rendezvous (the same leader/follower shape the shard
    layer's ticket map uses), so N held connections refreshing the same key
    cost one executor slot, not N.  The executor has the service's
    ``max_in_flight`` threads, so the gateway can never demand more
    concurrent engine builds than the sync core admits, and an async
    follower waits the service's ``build_wait_timeout_s``.  All coroutine
    methods are loop-confined (call them from one event loop); the executor
    threads only touch the thread-safe sync service.
    """

    def __init__(self, service: CORGIService) -> None:
        if not isinstance(service, CORGIService):
            service = CORGIService(service)  # type: ignore[arg-type]
        self.service = service
        self._executor = ThreadPoolExecutor(
            max_workers=service.config.max_in_flight, thread_name_prefix="gateway-build"
        )
        self.build_wait_timeout_s = float(service.config.build_wait_timeout_s)
        self._inflight: Dict[RequestKey, _AsyncBuild] = {}

    def normalize(self, privacy_level, delta, epsilon=None) -> RequestKey:
        """Validate raw wire fields into a normalized request key.

        Raises ``ValueError`` / ``TypeError`` for malformed fields — the
        same client-fault class the HTTP transport maps to 400.
        """
        request = ObfuscationRequest(
            privacy_level=int(privacy_level),
            delta=int(delta),
            epsilon=None if epsilon is None else float(epsilon),
        )
        return self.service.normalize(request)

    async def forest_response(
        self, key: RequestKey, *, generation: Optional[int] = None
    ) -> Dict[str, object]:
        """The wire response dict for *key*, built at most once concurrently.

        ``generation`` is the caller's freshness requirement: an in-flight
        build that started under an older generation may carry data from
        before the triggering update, so instead of joining it the caller
        waits it out and then leads a fresh build.  Callers without a
        freshness requirement (initial subscribe snapshots) join whatever
        is in flight.
        """
        while True:
            entry = self._inflight.get(key)
            if entry is None:
                break
            if generation is not None and entry.generation < generation:
                # Joining would risk serving pre-update data under a fresh
                # tag; drain the stale build (outcome irrelevant) and lead.
                await self._await_entry(entry)
                continue
            entry.followers += 1
            await self._await_entry(entry)
            if entry.error is not None:
                raise rewrap_for_follower(entry.error) from entry.error
            assert entry.response is not None
            return entry.response

        entry = _AsyncBuild(generation if generation is not None else 0)
        self._inflight[key] = entry
        loop = asyncio.get_running_loop()
        try:
            entry.response = await loop.run_in_executor(
                self._executor, self._build_sync, key
            )
            return entry.response
        except BaseException as error:
            entry.error = error
            raise
        finally:
            self._inflight.pop(key, None)
            entry.event.set()

    async def _await_entry(self, entry: _AsyncBuild) -> None:
        try:
            await asyncio.wait_for(entry.event.wait(), timeout=self.build_wait_timeout_s)
        except asyncio.TimeoutError:
            self.service.metrics.increment("build_timeouts")
            raise ServiceBuildTimeoutError(
                f"async follower waited {self.build_wait_timeout_s:.1f}s for the "
                "build leader; retry to start a fresh build"
            ) from None

    def _build_sync(self, key: RequestKey) -> Dict[str, object]:
        """Executor-thread body: sync single-flight build, packaged for the wire."""
        forest = self.service._forest_for(key)
        return CORGIService._package(forest).to_dict()

    def close(self) -> None:
        """Shut the executor down (queued builds are abandoned)."""
        self._executor.shutdown(wait=False, cancel_futures=True)


class _GatewayConnection:
    """One held client connection: bounded outbound queue plus subscriptions."""

    _next_id = 0

    def __init__(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        queue_limit: int,
    ) -> None:
        _GatewayConnection._next_id += 1
        self.connection_id = _GatewayConnection._next_id
        self.reader = reader
        self.writer = writer
        self.queue: "asyncio.Queue[bytes]" = asyncio.Queue(maxsize=queue_limit)
        self.subscriptions: Set[RequestKey] = set()
        self.closing = False
        self.dropped = False
        self.evicted = False
        self.writer_task: Optional["asyncio.Task"] = None

    def try_push(self, frame: bytes) -> bool:
        """Queue one outbound frame; False means the queue is full (slow peer)."""
        if self.closing:
            return False
        try:
            self.queue.put_nowait(frame)
            return True
        except asyncio.QueueFull:
            return False

    def abort(self) -> None:
        """Drop the connection immediately (pending queue data is discarded)."""
        self.closing = True
        transport = self.writer.transport
        if transport is not None:
            try:
                transport.abort()
            except Exception:  # noqa: BLE001 - already torn down
                pass

    async def writer_loop(self) -> None:
        """Drain the queue onto the socket until cancelled or the peer dies."""
        while True:
            frame = await self.queue.get()
            try:
                self.writer.write(frame)
                await self.writer.drain()
            except (ConnectionError, RuntimeError, OSError):
                return  # transport aborted (eviction) or peer went away


class GatewayServer:
    """The asyncio push front-end for one :class:`CORGIService`.

    Runs its own event loop on a background thread (``start()`` /
    ``close()``, also usable as a context manager), so it composes with the
    sync :class:`~repro.service.http.CORGIHTTPServer` serving the same
    service object — the two fronts share the single-flight gate, the
    caches, the metrics and the admin surface.

    Parameters
    ----------
    service:
        The service to push for.  An engine / server / pool is accepted and
        wrapped, exactly like the HTTP transport.
    config:
        Gateway knobs; see :class:`GatewayConfig`.
    host / port:
        Bind address; ``port=0`` selects an ephemeral port, available as
        :attr:`port` after ``start()``.
    """

    def __init__(
        self,
        service: CORGIService,
        config: Optional[GatewayConfig] = None,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        if not isinstance(service, CORGIService):
            service = CORGIService(service)  # type: ignore[arg-type]
        self.service = service
        self.config = config or GatewayConfig()
        self.config.validate()
        self._host = host
        self._requested_port = int(port)
        self._port: Optional[int] = None
        self._thread: Optional[threading.Thread] = None
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._started = threading.Event()
        self._startup_error: Optional[BaseException] = None
        self._stop_event: Optional[asyncio.Event] = None
        self._async: Optional[AsyncCORGIService] = None
        # Loop-confined registries (touched only on the gateway loop).
        self._connections: Set[_GatewayConnection] = set()
        self._subscribers: Dict[RequestKey, Set[_GatewayConnection]] = {}
        self._generations: Dict[RequestKey, int] = {}
        self._refreshing: Dict[RequestKey, asyncio.Task] = {}
        self._snapshot_tasks: Set[asyncio.Task] = set()
        self._handler_tasks: Set[asyncio.Task] = set()

    # ------------------------------------------------------------------ #
    # Address
    # ------------------------------------------------------------------ #

    @property
    def host(self) -> str:
        return self._host

    @property
    def port(self) -> int:
        if self._port is None:
            raise RuntimeError("gateway not started")
        return self._port

    @property
    def address(self) -> Tuple[str, int]:
        return self._host, self.port

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    def start(self) -> "GatewayServer":
        """Serve on a background thread; returns once the port is bound."""
        if self._thread is not None:
            raise RuntimeError("gateway already started")
        self._thread = threading.Thread(
            target=self._run, name="corgi-gateway", daemon=True
        )
        self._thread.start()
        if not self._started.wait(timeout=30.0):
            raise RuntimeError("gateway event loop failed to start within 30s")
        if self._startup_error is not None:
            error = self._startup_error
            self._thread.join(timeout=5.0)
            self._thread = None
            raise RuntimeError(f"gateway failed to start: {error}") from error
        self.service.add_update_listener(self._on_update)
        self.service.attach_gateway_diagnostics(self.diagnostics)
        logger.info("CORGI push gateway listening on %s:%d", self._host, self._port)
        return self

    def close(self) -> None:
        """Stop the loop, drop held connections, join the thread (idempotent).

        Like the HTTP transport's ``shutdown``, a serving thread that fails
        to stop raises instead of silently leaking.
        """
        if self._thread is None:
            return
        self.service.remove_update_listener(self._on_update)
        self.service.detach_gateway_diagnostics(self.diagnostics)
        loop = self._loop
        if loop is not None and not loop.is_closed():
            try:
                loop.call_soon_threadsafe(self._request_stop)
            except RuntimeError:
                pass  # loop already shutting down
        self._thread.join(timeout=10.0)
        if self._thread.is_alive():
            raise RuntimeError("gateway thread did not stop within 10s of close()")
        self._thread = None

    def __enter__(self) -> "GatewayServer":
        return self.start()

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def _request_stop(self) -> None:
        if self._stop_event is not None:
            self._stop_event.set()

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        except BaseException as error:  # noqa: BLE001 - reported via start()
            if not self._started.is_set():
                self._startup_error = error
                self._started.set()
            else:
                logger.exception("gateway loop died")

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_event = asyncio.Event()
        self._async = AsyncCORGIService(self.service)
        try:
            server = await asyncio.start_server(
                self._handle_connection,
                self._host,
                self._requested_port,
                limit=MAX_FRAME_BYTES + 2,
            )
        except OSError as error:
            self._startup_error = error
            self._started.set()
            return
        self._port = server.sockets[0].getsockname()[1]
        heartbeat = asyncio.create_task(self._heartbeat_loop())
        self._started.set()
        try:
            await self._stop_event.wait()
        finally:
            heartbeat.cancel()
            server.close()
            await server.wait_closed()
            for task in list(self._refreshing.values()) + list(self._snapshot_tasks):
                task.cancel()
            for connection in list(self._connections):
                connection.abort()
            # Aborted transports EOF the reader loops; draining the handler
            # tasks here (instead of letting asyncio.run cancel them) keeps
            # per-connection cleanup deterministic and the logs quiet.
            if self._handler_tasks:
                await asyncio.wait(set(self._handler_tasks), timeout=5.0)
            self._async.close()

    # ------------------------------------------------------------------ #
    # Update fan-out (invalidate / priors → push)
    # ------------------------------------------------------------------ #

    def _on_update(self, kind: str, privacy_level: Optional[int]) -> None:
        """Service update listener — called on the admin caller's thread."""
        loop = self._loop
        if loop is None or loop.is_closed():
            return
        try:
            loop.call_soon_threadsafe(self._mark_updated, kind, privacy_level)
        except RuntimeError:
            pass  # loop shut down between the check and the call

    def _mark_updated(self, kind: str, privacy_level: Optional[int]) -> None:
        """Bump generations of affected subscribed keys and schedule refreshes."""
        for key in list(self._subscribers):
            if privacy_level is not None and key[0] != privacy_level:
                continue
            self._generations[key] = self._generations.get(key, 1) + 1
            if key not in self._refreshing:
                self._refreshing[key] = asyncio.create_task(self._refresh(key, kind))

    async def _refresh(self, key: RequestKey, reason: str) -> None:
        """Rebuild *key* and fan the result out — once per settled generation.

        A storm of updates while the build runs keeps bumping the key's
        generation; the loop rebuilds until the generation it built under
        is still current, then pushes exactly one frame per subscriber.
        """
        try:
            while True:
                if key not in self._subscribers:
                    return  # last subscriber left mid-storm; nothing to push
                generation = self._generations.get(key, 1)
                try:
                    response = await self._async.forest_response(key, generation=generation)
                except asyncio.CancelledError:
                    raise
                except BaseException as error:  # noqa: BLE001 - answered, not fatal
                    logger.warning("gateway refresh for %s failed: %s", key, error)
                    frame = encode_gateway_frame(
                        {
                            "type": "error",
                            "error": "refresh_failed",
                            "key": key_to_wire(key),
                            "generation": generation,
                            "detail": str(error),
                        }
                    )
                    self._fan_out(key, frame, count_as=None)
                    if self._generations.get(key, 1) != generation:
                        # An update raced the failed build.  _mark_updated
                        # skipped scheduling while this task held the key,
                        # so returning here would strand subscribers on
                        # stale data — go again for the newer generation.
                        continue
                    return
                if self._generations.get(key, 1) != generation:
                    continue  # superseded mid-build — go again
                frame = encode_gateway_frame(
                    {
                        "type": "forest",
                        "key": key_to_wire(key),
                        "generation": generation,
                        "reason": reason,
                        "response": response,
                    }
                )
                self._fan_out(key, frame, count_as="gateway_pushes")
                return
        finally:
            # Guarded: a task cancelled by key release may only unwind after
            # a re-subscribe installed a successor task under the same key.
            if self._refreshing.get(key) is asyncio.current_task():
                del self._refreshing[key]

    def _fan_out(self, key: RequestKey, frame: bytes, *, count_as: Optional[str]) -> None:
        """Push one pre-encoded frame to every subscriber of *key*."""
        pushed = 0
        for connection in list(self._subscribers.get(key, ())):
            if connection.try_push(frame):
                pushed += 1
            else:
                self._evict_slow(connection)
        if pushed and count_as:
            self.service.metrics.increment(count_as, pushed)

    def _push_or_evict(self, connection: _GatewayConnection, frame: bytes) -> bool:
        """Queue one reply frame; a full queue means a slow peer, so evict."""
        if connection.try_push(frame):
            return True
        self._evict_slow(connection)
        return False

    def _evict_slow(self, connection: _GatewayConnection) -> None:
        """Drop a consumer whose queue is full instead of buffering unboundedly."""
        if connection.evicted or connection.dropped:
            return
        connection.evicted = True
        self.service.metrics.increment("gateway_evicted_slow")
        logger.warning(
            "evicting slow gateway consumer #%d (%d frames queued, limit %d)",
            connection.connection_id,
            connection.queue.qsize(),
            self.config.queue_limit,
        )
        connection.abort()
        if connection.writer_task is not None:
            connection.writer_task.cancel()
        self._drop_connection(connection)

    async def _heartbeat_loop(self) -> None:
        """Periodic heartbeat to every held connection (keeps NATs open; a
        peer that stopped reading accumulates these until eviction)."""
        sequence = 0
        while True:
            await asyncio.sleep(self.config.heartbeat_interval_s)
            sequence += 1
            frame = encode_gateway_frame({"type": "heartbeat", "seq": sequence})
            pushed = 0
            for connection in list(self._connections):
                if connection.try_push(frame):
                    pushed += 1
                else:
                    self._evict_slow(connection)
            if pushed:
                self.service.metrics.increment("gateway_heartbeats", pushed)

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._handler_tasks.add(task)
        if self.config.write_buffer_high is not None:
            raw_socket = writer.get_extra_info("socket")
            if raw_socket is not None:
                try:
                    raw_socket.setsockopt(
                        socket.SOL_SOCKET,
                        socket.SO_SNDBUF,
                        max(4096, self.config.write_buffer_high),
                    )
                except OSError:
                    pass  # platform refused; the transport clamp still applies
            writer.transport.set_write_buffer_limits(high=self.config.write_buffer_high)
        connection = _GatewayConnection(reader, writer, self.config.queue_limit)
        self._connections.add(connection)
        self.service.metrics.increment("gateway_connections")
        connection.try_push(
            encode_gateway_frame(
                {
                    "type": "hello",
                    "server": GATEWAY_SERVER_ID,
                    "heartbeat_interval_s": self.config.heartbeat_interval_s,
                    "queue_limit": self.config.queue_limit,
                }
            )
        )
        writer_task = asyncio.create_task(connection.writer_loop())
        connection.writer_task = writer_task
        try:
            await self._reader_loop(connection)
        finally:
            self._drop_connection(connection)
            writer_task.cancel()
            connection.closing = True
            try:
                writer.close()
            except Exception:  # noqa: BLE001 - transport may already be gone
                pass
            if task is not None:
                self._handler_tasks.discard(task)

    async def _reader_loop(self, connection: _GatewayConnection) -> None:
        while True:
            try:
                line = await connection.reader.readline()
            except (ConnectionResetError, asyncio.IncompleteReadError, BrokenPipeError):
                return
            except ValueError:
                # Line exceeded the stream limit: framing is lost for good.
                self.service.metrics.increment("gateway_rejected_frames")
                connection.try_push(
                    encode_gateway_frame(
                        {
                            "type": "error",
                            "error": "frame_too_large",
                            "detail": f"frames are bounded at {MAX_FRAME_BYTES} bytes",
                        }
                    )
                )
                return
            if not line:
                return  # EOF — orderly disconnect
            if not line.strip():
                continue  # tolerate bare keep-alive newlines
            try:
                frame = decode_gateway_frame(line)
            except GatewayProtocolError as error:
                # Garbage is answered, never fatal to the server: count it,
                # tell the client, keep reading (framing is line-based, so
                # the stream resynchronizes at the next newline).
                self.service.metrics.increment("gateway_rejected_frames")
                if not connection.try_push(
                    encode_gateway_frame(
                        {"type": "error", "error": "bad_frame", "detail": str(error)}
                    )
                ):
                    self._evict_slow(connection)
                    return
                continue
            self._dispatch(connection, frame)

    def _dispatch(self, connection: _GatewayConnection, frame: Dict[str, object]) -> None:
        op = frame.get("op")
        if op == "ping":
            self._push_or_evict(
                connection,
                encode_gateway_frame({"type": "pong", "nonce": frame.get("nonce")}),
            )
        elif op == "subscribe":
            self._handle_subscribe(connection, frame)
        elif op == "unsubscribe":
            self._handle_unsubscribe(connection, frame)
        else:
            self.service.metrics.increment("gateway_rejected_frames")
            self._push_or_evict(
                connection,
                encode_gateway_frame(
                    {
                        "type": "error",
                        "error": "unknown_op",
                        "detail": f"unknown op {op!r}; expected subscribe/unsubscribe/ping",
                    }
                ),
            )

    def _handle_subscribe(
        self, connection: _GatewayConnection, frame: Dict[str, object]
    ) -> None:
        try:
            key = self._async.normalize(
                frame.get("privacy_level"), frame.get("delta"), frame.get("epsilon")
            )
        except (ValueError, TypeError, OverflowError) as error:
            self.service.metrics.increment("gateway_rejected_frames")
            self._push_or_evict(
                connection,
                encode_gateway_frame(
                    {"type": "error", "error": "bad_request", "detail": str(error)}
                ),
            )
            return
        if (
            key not in connection.subscriptions
            and len(connection.subscriptions) >= self.config.max_subscriptions
        ):
            self._push_or_evict(
                connection,
                encode_gateway_frame(
                    {
                        "type": "error",
                        "error": "too_many_subscriptions",
                        "detail": f"at most {self.config.max_subscriptions} keys per connection",
                    }
                ),
            )
            return
        generation = self._generations.setdefault(key, 1)
        self._subscribers.setdefault(key, set()).add(connection)
        if key not in connection.subscriptions:
            connection.subscriptions.add(key)
            self.service.metrics.increment("gateway_subscriptions")
        self._push_or_evict(
            connection,
            encode_gateway_frame(
                {"type": "subscribed", "key": key_to_wire(key), "generation": generation}
            ),
        )
        task = asyncio.create_task(self._push_snapshot(connection, key, generation))
        self._snapshot_tasks.add(task)
        task.add_done_callback(self._snapshot_tasks.discard)

    def _handle_unsubscribe(
        self, connection: _GatewayConnection, frame: Dict[str, object]
    ) -> None:
        try:
            key = self._async.normalize(
                frame.get("privacy_level"), frame.get("delta"), frame.get("epsilon")
            )
        except (ValueError, TypeError, OverflowError) as error:
            self.service.metrics.increment("gateway_rejected_frames")
            self._push_or_evict(
                connection,
                encode_gateway_frame(
                    {"type": "error", "error": "bad_request", "detail": str(error)}
                ),
            )
            return
        connection.subscriptions.discard(key)
        holders = self._subscribers.get(key)
        if holders is not None:
            holders.discard(connection)
            self._release_if_unwatched(key)
        self._push_or_evict(
            connection,
            encode_gateway_frame({"type": "unsubscribed", "key": key_to_wire(key)}),
        )

    async def _push_snapshot(
        self, connection: _GatewayConnection, key: RequestKey, generation: int
    ) -> None:
        """Push the current forest to one fresh subscriber.

        *generation* is the key's generation at subscribe time — both the
        freshness floor for the build (a stale in-flight build is waited
        out, never joined) and the frame's label.  An update that lands
        mid-build bumps the key past *generation* and its refresh task
        pushes the newer frame separately; this frame keeps the older tag,
        so the client's generation guard orders the two correctly instead
        of dropping the genuine refresh because a stale payload usurped
        its tag.
        """
        try:
            response = await self._async.forest_response(key, generation=generation)
        except asyncio.CancelledError:
            raise
        except BaseException as error:  # noqa: BLE001 - answered, not fatal
            connection.try_push(
                encode_gateway_frame(
                    {
                        "type": "error",
                        "error": "build_failed",
                        "key": key_to_wire(key),
                        "detail": str(error),
                    }
                )
            )
            return
        delivered = connection.try_push(
            encode_gateway_frame(
                {
                    "type": "forest",
                    "key": key_to_wire(key),
                    "generation": generation,
                    "reason": "subscribe",
                    "response": response,
                }
            )
        )
        if delivered:
            self.service.metrics.increment("gateway_pushes")
        elif not connection.dropped:
            self._evict_slow(connection)

    def _drop_connection(self, connection: _GatewayConnection) -> None:
        if connection.dropped:
            return
        connection.dropped = True
        connection.closing = True
        self._connections.discard(connection)
        for key in connection.subscriptions:
            holders = self._subscribers.get(key)
            if holders is not None:
                holders.discard(connection)
                self._release_if_unwatched(key)
        connection.subscriptions.clear()
        self.service.metrics.increment("gateway_disconnects")

    def _release_if_unwatched(self, key: RequestKey) -> None:
        """Forget a key's gateway state once its last subscriber is gone.

        Keys embed a client-chosen epsilon, so without pruning a long-lived
        server accrues an unbounded ``_generations`` dict.  The generation
        restarts at 1 on re-subscribe; the client store treats a subscribe
        ack announcing a lower generation than it holds as a new server
        epoch and clears the held entry, so the per-key guard cannot wedge
        on the restart.
        """
        if self._subscribers.get(key):
            return
        self._subscribers.pop(key, None)
        self._generations.pop(key, None)
        task = self._refreshing.pop(key, None)
        if task is not None:
            task.cancel()

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    def diagnostics(self) -> Dict[str, object]:
        """Connection/subscription gauges, read consistently on the loop.

        Safe from any thread; a gateway that is not (or no longer) running
        reports ``{"running": False}`` instead of erroring — like the
        durability endpoint, this is a probe, not a capability check.
        """
        loop = self._loop
        thread = self._thread
        if loop is None or loop.is_closed() or thread is None or not thread.is_alive():
            return {"running": False, "port": self._port}
        future = asyncio.run_coroutine_threadsafe(self._diagnostics_on_loop(), loop)
        try:
            return future.result(timeout=5.0)
        except Exception:  # noqa: BLE001 - probe must not raise
            return {"running": False, "port": self._port}

    async def _diagnostics_on_loop(self) -> Dict[str, object]:
        keys = [
            {
                **key_to_wire(key),
                "generation": self._generations.get(key, 1),
                "subscribers": len(holders),
            }
            for key, holders in sorted(self._subscribers.items())
        ]
        return {
            "running": True,
            "port": self._port,
            "connections": len(self._connections),
            "subscribed_keys": len(self._subscribers),
            "subscriptions": sum(len(holders) for holders in self._subscribers.values()),
            "refreshing": len(self._refreshing),
            "queue_limit": self.config.queue_limit,
            "heartbeat_interval_s": self.config.heartbeat_interval_s,
            "keys": keys,
        }


def serve_gateway(
    service: CORGIService,
    config: Optional[GatewayConfig] = None,
    *,
    host: str = "127.0.0.1",
    port: int = 0,
) -> GatewayServer:
    """Start a background push gateway for *service* and return it."""
    return GatewayServer(service, config, host=host, port=port).start()
