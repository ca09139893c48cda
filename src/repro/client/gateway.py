"""Client side of the push gateway: one held connection, pushed refreshes.

Two clients over the same newline-delimited JSON frame protocol
(:mod:`repro.service.gateway`):

* :class:`GatewayClient` — blocking API for scripts and tests.  A daemon
  reader thread drains the held socket and installs pushed forests into a
  per-key store; callers block on :meth:`wait_forest` instead of polling.
* :class:`AsyncGatewayClient` — coroutine API for holding *many*
  connections from one event loop (the 1 000-connection stress test and
  the push-latency bench use it; a thread per held socket would not scale).

Both enforce the **generation guard**: a pushed forest is installed only
if its generation is strictly newer than the one held for that key, so an
initial-snapshot frame that raced a refresh push can never roll the client
back to a stale matrix (dropped frames are counted in ``stale_dropped``).
"""

from __future__ import annotations

import asyncio
import socket
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.server.messages import PrivacyForestResponse
from repro.service.gateway import (
    MAX_FRAME_BYTES,
    GatewayProtocolError,
    decode_gateway_frame,
    encode_gateway_frame,
    key_from_wire,
)
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = ["AsyncGatewayClient", "GatewayClient", "GatewayPush"]

#: ``(privacy_level, delta, epsilon)`` as resolved by the server.
ClientKey = Tuple[int, int, float]


@dataclass
class GatewayPush:
    """One installed forest push."""

    key: ClientKey
    generation: int
    reason: str
    response: Dict[str, object]

    def forest(self) -> PrivacyForestResponse:
        """The pushed payload as a client-side :class:`PrivacyForestResponse`."""
        return PrivacyForestResponse.from_dict(self.response)


class _PushStore:
    """Shared install logic: generation guard plus bookkeeping (no locking)."""

    def __init__(self) -> None:
        self.forests: Dict[ClientKey, GatewayPush] = {}
        self.generations_seen: Dict[ClientKey, List[int]] = {}
        self.subscribed: Dict[ClientKey, int] = {}
        self.subscribe_acks: List[ClientKey] = []
        self.errors: List[Dict[str, object]] = []
        self.pushes = 0
        self.stale_dropped = 0
        self.heartbeats = 0
        self.last_pong: Optional[object] = None
        self.closed_by_server = False

    def apply(self, frame: Dict[str, object]) -> None:
        """Fold one server frame into the store."""
        kind = frame.get("type")
        if kind == "forest":
            key = key_from_wire(frame["key"])  # type: ignore[arg-type]
            generation = int(frame["generation"])  # type: ignore[arg-type]
            self.generations_seen.setdefault(key, []).append(generation)
            held = self.forests.get(key)
            if held is not None and generation <= held.generation:
                self.stale_dropped += 1  # never roll back to an older matrix
                return
            self.forests[key] = GatewayPush(
                key=key,
                generation=generation,
                reason=str(frame.get("reason", "")),
                response=frame["response"],  # type: ignore[arg-type]
            )
            self.pushes += 1
        elif kind == "subscribed":
            key = key_from_wire(frame["key"])  # type: ignore[arg-type]
            generation = int(frame.get("generation", 1))  # type: ignore[arg-type]
            held = self.forests.get(key)
            if held is not None and generation < held.generation:
                # The server forgot the key (its state is pruned when the
                # last subscriber leaves) and restarted its generation
                # count: a new epoch.  Clear the held entry so the epoch's
                # pushes are installed rather than dropped as stale.
                del self.forests[key]
            self.subscribed[key] = generation
            self.subscribe_acks.append(key)
        elif kind == "heartbeat":
            self.heartbeats += 1
        elif kind == "pong":
            self.last_pong = frame.get("nonce")
        elif kind == "error":
            self.errors.append(frame)
        elif kind == "goodbye":
            self.closed_by_server = True
        # hello / unsubscribed frames carry no state worth keeping.


class GatewayClient:
    """Blocking gateway client holding one push connection.

    Usable as a context manager.  All waiting is condition-based (the
    reader thread notifies on every frame) — no polling loops.
    """

    def __init__(self, host: str, port: int, *, connect_timeout_s: float = 10.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=connect_timeout_s)
        self._sock.settimeout(None)
        self._file = self._sock.makefile("rb")
        self._send_lock = threading.Lock()
        self._cond = threading.Condition()
        self._store = _PushStore()
        self._closed = False
        self._reader = threading.Thread(
            target=self._reader_loop, name="gateway-client-reader", daemon=True
        )
        self._reader.start()

    # -- lifecycle ------------------------------------------------------ #

    def close(self) -> None:
        """Drop the held connection and stop the reader thread."""
        with self._cond:
            if self._closed:
                return
            self._closed = True
            self._cond.notify_all()
        try:
            self._sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._sock.close()
        self._reader.join(timeout=5.0)

    def __enter__(self) -> "GatewayClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # -- sending -------------------------------------------------------- #

    def _send(self, payload: Dict[str, object]) -> None:
        frame = encode_gateway_frame(payload)
        with self._send_lock:
            self._sock.sendall(frame)

    def subscribe(
        self,
        privacy_level: int,
        delta: int,
        epsilon: Optional[float] = None,
        *,
        wait_s: Optional[float] = 10.0,
    ) -> Optional[ClientKey]:
        """Subscribe to a key; returns the server-resolved key (or ``None``
        when ``wait_s`` is ``None`` — the ack then arrives asynchronously).

        Only frames arriving *after* this send count: every subscribe —
        including a re-subscribe to an already-acked key — is acked with
        its own ``subscribed`` frame, and earlier async errors (say, a
        ``refresh_failed`` from a prior subscription) never bleed into
        this call's verdict.
        """
        with self._cond:
            acks_before = len(self._store.subscribe_acks)
            errors_before = len(self._store.errors)
        self._send(
            {
                "op": "subscribe",
                "privacy_level": privacy_level,
                "delta": delta,
                "epsilon": epsilon,
            }
        )
        if wait_s is None:
            return None
        deadline = time.monotonic() + wait_s
        with self._cond:
            while True:
                if len(self._store.subscribe_acks) > acks_before:
                    return self._store.subscribe_acks[acks_before]
                for error in self._store.errors[errors_before:]:
                    if error.get("error") in ("bad_request", "too_many_subscriptions"):
                        raise GatewayProtocolError(
                            f"subscribe rejected: {error.get('error')}: {error.get('detail')}"
                        )
                self._raise_if_dead()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError("no subscribe acknowledgement within deadline")
                self._cond.wait(timeout=remaining)

    def ping(self, nonce: object = None) -> None:
        self._send({"op": "ping", "nonce": nonce})

    # -- receiving ------------------------------------------------------ #

    def _reader_loop(self) -> None:
        try:
            while True:
                line = self._file.readline(MAX_FRAME_BYTES + 2)
                if not line:
                    break
                try:
                    frame = decode_gateway_frame(line)
                except GatewayProtocolError:
                    logger.warning("gateway client dropped an undecodable frame")
                    continue
                with self._cond:
                    self._store.apply(frame)
                    self._cond.notify_all()
        except (OSError, ValueError):
            pass  # socket torn down under us — close() or server death
        finally:
            with self._cond:
                self._closed = True
                self._cond.notify_all()

    def _raise_if_dead(self) -> None:
        if self._closed:
            raise ConnectionError("gateway connection closed")

    def wait_forest(
        self,
        key: ClientKey,
        *,
        min_generation: int = 1,
        timeout_s: float = 30.0,
    ) -> GatewayPush:
        """Block until a forest for *key* at ``generation >= min_generation``
        is held, and return it."""
        deadline = time.monotonic() + timeout_s
        with self._cond:
            while True:
                held = self._store.forests.get(key)
                if held is not None and held.generation >= min_generation:
                    return held
                self._raise_if_dead()
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise TimeoutError(
                        f"no forest for {key} at generation >= {min_generation} "
                        f"within {timeout_s:.1f}s"
                    )
                self._cond.wait(timeout=remaining)

    def held(self, key: ClientKey) -> Optional[GatewayPush]:
        """The currently installed push for *key* (``None`` before the first)."""
        with self._cond:
            return self._store.forests.get(key)

    def stats(self) -> Dict[str, int]:
        """Client-side frame bookkeeping (pushes, stale drops, heartbeats)."""
        with self._cond:
            return {
                "pushes": self._store.pushes,
                "stale_dropped": self._store.stale_dropped,
                "heartbeats": self._store.heartbeats,
                "errors": len(self._store.errors),
            }

    def generations_seen(self, key: ClientKey) -> List[int]:
        """Every pushed generation observed for *key*, in arrival order."""
        with self._cond:
            return list(self._store.generations_seen.get(key, []))


class AsyncGatewayClient:
    """Coroutine gateway client — hold hundreds of connections on one loop.

    Unlike :class:`GatewayClient` there is no background reader: the owner
    pumps frames explicitly via :meth:`pump_until` / :meth:`wait_forest`,
    which keeps a 1 000-client fleet at one task per client.
    """

    def __init__(self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter) -> None:
        self._reader = reader
        self._writer = writer
        self.store = _PushStore()

    @classmethod
    async def open(cls, host: str, port: int) -> "AsyncGatewayClient":
        reader, writer = await asyncio.open_connection(
            host, port, limit=MAX_FRAME_BYTES + 2
        )
        return cls(reader, writer)

    async def close(self) -> None:
        try:
            self._writer.close()
            await self._writer.wait_closed()
        except (OSError, ConnectionError):
            pass

    async def send(self, payload: Dict[str, object]) -> None:
        self._writer.write(encode_gateway_frame(payload))
        await self._writer.drain()

    async def subscribe(
        self, privacy_level: int, delta: int, epsilon: Optional[float] = None
    ) -> None:
        await self.send(
            {
                "op": "subscribe",
                "privacy_level": privacy_level,
                "delta": delta,
                "epsilon": epsilon,
            }
        )

    async def _pump_one(self) -> bool:
        """Read and fold one frame; ``False`` on EOF."""
        line = await self._reader.readline()
        if not line:
            self.store.closed_by_server = True
            return False
        try:
            frame = decode_gateway_frame(line)
        except GatewayProtocolError:
            logger.warning("gateway client dropped an undecodable frame")
            return True
        self.store.apply(frame)
        return True

    async def pump_until(self, predicate, *, timeout_s: float = 30.0) -> None:
        """Fold frames until ``predicate(store)`` holds (or raise on timeout/EOF)."""
        loop = asyncio.get_running_loop()
        deadline = loop.time() + timeout_s
        while not predicate(self.store):
            remaining = deadline - loop.time()
            if remaining <= 0:
                raise TimeoutError("gateway predicate not satisfied within deadline")
            try:
                alive = await asyncio.wait_for(self._pump_one(), timeout=remaining)
            except asyncio.TimeoutError:
                raise TimeoutError("gateway predicate not satisfied within deadline") from None
            if not alive and not predicate(self.store):
                raise ConnectionError("gateway connection closed by server")

    async def wait_forest(
        self, key: ClientKey, *, min_generation: int = 1, timeout_s: float = 30.0
    ) -> GatewayPush:
        """Pump until a forest for *key* at ``generation >= min_generation`` is held."""
        await self.pump_until(
            lambda store: (
                store.forests.get(key) is not None
                and store.forests[key].generation >= min_generation
            ),
            timeout_s=timeout_s,
        )
        return self.store.forests[key]
