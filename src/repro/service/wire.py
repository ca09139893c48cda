"""Framed socket transport shared by every shard session and log replication.

One channel abstraction serves every branch, local or remote: an
:class:`~repro.service.pool.EnginePool` slot whose shard is a forked child
on a socketpair, a slot dialed to a ``python -m repro.service.netshard``
server on another host, and a follower head tailing a primary's control
log (:mod:`repro.service.replication`) all speak these frames:

* **Framing** — every message is one length-prefixed frame: a 4-byte magic
  (``CRGF``, or ``CRGZ`` for a zlib-compressed payload), a 4-byte
  big-endian payload length, then a UTF-8 JSON object.  Payloads past
  ``FRAME_COMPRESS_MIN_BYTES`` are deflated at encode time — hand-off and
  store pre-warm snapshots are multi-megabyte JSON, which compresses
  several-fold — and inflated with a zip-bomb guard (``MAX_FRAME_BYTES``
  bounds the *decompressed* size too).  Decoding is strict: wrong magic,
  oversized, truncated or undecompressable frames and non-object payloads
  raise :class:`FrameFormatError` (a ``ValueError``, so transports map it
  to the 400 class) — a malformed peer can never crash a server or a pool.
* **Liveness** — :meth:`FrameConnection.read` is the one framed read loop:
  any frame counts as life, silence past a timeout ends the stream, and
  an optional heartbeat thread keeps the peer's own silence timer fed.
  Heartbeats go out from their own thread, so a send blocked on a frozen
  peer never stalls the silence check.
* **Reconnection** — :func:`dial` connects with decorrelated-jitter
  backoff (:func:`next_backoff_delay`) inside a bounded window, to an
  address checked by :func:`parse_address`, the one strict ``host:port``
  parser (shard hosts, replication sources and ``(host, port)`` pairs).
"""

from __future__ import annotations

import json
import random
import select
import socket
import struct
import threading
import time
import zlib
from typing import Callable, Dict, Optional, Tuple

from repro.core.exceptions import CORGIError

__all__ = [
    "FRAME_MAGIC",
    "FRAME_MAGIC_DEFLATE",
    "FRAME_COMPRESS_MIN_BYTES",
    "MAX_FRAME_BYTES",
    "FrameFormatError",
    "FrameAssembler",
    "FrameConnection",
    "encode_frame",
    "decode_frame",
    "dial",
    "next_backoff_delay",
    "parse_address",
]

#: Frame magic: identifies a byte stream as CORGI shard frames.  A peer
#: speaking anything else (HTTP, TLS, line noise) is rejected on the first
#: eight bytes instead of being buffered until some bogus length arrives.
FRAME_MAGIC = b"CRGF"

#: Magic of a frame whose payload is zlib-compressed JSON.  Same header
#: shape (the length counts the *compressed* bytes); decoders inflate
#: under a decompressed-size bound so a hostile frame cannot zip-bomb the
#: receiver.
FRAME_MAGIC_DEFLATE = b"CRGZ"

#: Payloads at or above this size are deflated at encode time.  Tuned for
#: snapshot traffic: request/response chatter stays uncompressed (zlib
#: latency would dominate), while multi-megabyte hand-off and store
#: pre-warm snapshots — highly redundant JSON-encoded float arrays —
#: shrink several-fold on the socket.
FRAME_COMPRESS_MIN_BYTES = 64 << 10

#: Upper bound on one frame's payload.  Large enough for a hand-off
#: snapshot at the default payload budget (JSON inflates matrix bytes
#: roughly threefold), small enough that a garbage length prefix is
#: rejected immediately instead of stalling the stream for gigabytes.
MAX_FRAME_BYTES = 128 << 20

_HEADER = struct.Struct(">4sI")

#: Socket read chunk of the frame read loop.
_READ_CHUNK = 64 << 10

#: How often a session pings its peer (seconds).
HEARTBEAT_INTERVAL_S = 0.25

#: Silence threshold after which a peer is declared dead.  Any frame —
#: response, heartbeat echo, ready — counts as life; shard servers echo
#: heartbeats from their reader thread so long engine builds never look
#: like death.
LIVENESS_TIMEOUT_S = 1.0

#: Server-side read deadline: a client that has not sent *anything* (every
#: client heartbeats every 0.25 s) for this long is presumed gone, instead
#: of pinning the server on a half-open socket.
CLIENT_IDLE_TIMEOUT_S = 10.0

#: Redial backoff bounds within one dial window (seconds).  Delays are
#: *decorrelated-jittered* between these bounds (see
#: :func:`next_backoff_delay`) so a whole fleet redialing one restarted
#: server spreads out instead of thundering in lockstep.
CONNECT_BACKOFF_BASE_S = 0.05
CONNECT_BACKOFF_CAP_S = 0.8


class FrameFormatError(CORGIError, ValueError):
    """The byte stream is not a well-formed CORGI frame.

    Subclasses :class:`ValueError` so transports classify it with the other
    client faults (the 400 class); raised for wrong magic, oversized
    lengths, truncated payloads and non-object JSON.
    """


def next_backoff_delay(
    previous: float,
    *,
    base: float = CONNECT_BACKOFF_BASE_S,
    cap: float = CONNECT_BACKOFF_CAP_S,
    rng: Optional[random.Random] = None,
) -> float:
    """Decorrelated-jitter reconnect delay: ``min(cap, U(base, previous*3))``.

    The first call (``previous`` = 0) returns exactly ``base``; later calls
    draw uniformly between ``base`` and three times the last delay, capped.
    Unlike a fixed schedule, two clients that lost the same server at the
    same instant decorrelate after one round — the property that prevents a
    whole fleet from redialing a restarted server in lockstep.  Pure (pass
    a seeded ``rng``) so the bounds are directly property-testable.
    """
    pick = (rng or random).uniform
    upper = max(float(base), float(previous) * 3.0)
    return min(float(cap), pick(float(base), upper))


# --------------------------------------------------------------------- #
# Frame codec
# --------------------------------------------------------------------- #


def encode_frame(
    message: Dict[str, object],
    *,
    compress_min_bytes: Optional[int] = FRAME_COMPRESS_MIN_BYTES,
) -> bytes:
    """Serialize one message dict to its framed wire form.

    Payloads at or above *compress_min_bytes* are zlib-deflated and framed
    under :data:`FRAME_MAGIC_DEFLATE` — but only when compression actually
    wins, so already-dense payloads never inflate on the wire.  Pass
    ``compress_min_bytes=None`` to force plain frames.
    """
    payload = json.dumps(message, sort_keys=True).encode("utf-8")
    if len(payload) > MAX_FRAME_BYTES:
        raise FrameFormatError(
            f"frame payload of {len(payload)} bytes exceeds MAX_FRAME_BYTES"
        )
    magic = FRAME_MAGIC
    if compress_min_bytes is not None and len(payload) >= compress_min_bytes:
        compressed = zlib.compress(payload, 6)
        if len(compressed) < len(payload):
            magic = FRAME_MAGIC_DEFLATE
            payload = compressed
    return _HEADER.pack(magic, len(payload)) + payload


def _inflate_payload(payload: bytes) -> bytes:
    """Inflate a CRGZ payload under the frame size bound (zip-bomb guard)."""
    inflater = zlib.decompressobj()
    try:
        raw = inflater.decompress(payload, MAX_FRAME_BYTES + 1)
    except zlib.error as error:
        raise FrameFormatError(f"corrupt compressed frame payload: {error}") from error
    if len(raw) > MAX_FRAME_BYTES:
        raise FrameFormatError(
            f"compressed frame inflates past MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
        )
    if not inflater.eof or inflater.unused_data:
        raise FrameFormatError(
            "compressed frame payload is not a single complete zlib stream"
        )
    return raw


class FrameAssembler:
    """Incremental frame parser over an untrusted byte stream.

    Feed raw socket bytes with :meth:`feed`; :meth:`next_message` yields
    complete decoded messages one at a time (``None`` while incomplete).
    Pure and socket-free, so the strict-rejection properties — garbage
    prefix, oversized length, truncation, non-JSON payload — are directly
    property-testable.
    """

    def __init__(self) -> None:
        self._buffer = bytearray()

    @property
    def buffered_bytes(self) -> int:
        return len(self._buffer)

    def feed(self, data: bytes) -> None:
        if not isinstance(data, (bytes, bytearray, memoryview)):
            raise FrameFormatError(f"frame data must be bytes, got {type(data).__name__}")
        self._buffer.extend(data)

    def next_message(self) -> Optional[Dict[str, object]]:
        """The next complete message, or ``None`` until more bytes arrive.

        Raises :class:`FrameFormatError` as soon as the stream is provably
        corrupt — callers must drop the connection, because a desynced
        length-prefixed stream cannot be re-synchronized.
        """
        if len(self._buffer) < _HEADER.size:
            return None
        magic, length = _HEADER.unpack_from(self._buffer)
        if magic not in (FRAME_MAGIC, FRAME_MAGIC_DEFLATE):
            raise FrameFormatError(
                f"bad frame magic {bytes(magic)!r} "
                f"(expected {FRAME_MAGIC!r} or {FRAME_MAGIC_DEFLATE!r})"
            )
        if length > MAX_FRAME_BYTES:
            raise FrameFormatError(
                f"frame length {length} exceeds MAX_FRAME_BYTES ({MAX_FRAME_BYTES})"
            )
        end = _HEADER.size + length
        if len(self._buffer) < end:
            return None
        payload = bytes(self._buffer[_HEADER.size : end])
        del self._buffer[:end]
        if magic == FRAME_MAGIC_DEFLATE:
            payload = _inflate_payload(payload)
        try:
            message = json.loads(payload.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as error:
            raise FrameFormatError(f"frame payload is not valid JSON: {error}") from error
        if not isinstance(message, dict):
            raise FrameFormatError(
                f"frame payload must be a JSON object, got {type(message).__name__}"
            )
        return message

    def expect_end(self) -> None:
        """Assert the stream ended on a frame boundary (EOF hygiene)."""
        if self._buffer:
            raise FrameFormatError(
                f"stream ended mid-frame with {len(self._buffer)} buffered byte(s)"
            )


def decode_frame(blob: bytes) -> Dict[str, object]:
    """Strictly decode exactly one frame from *blob* (no trailing bytes).

    The whole-blob counterpart of :class:`FrameAssembler` used by tests and
    tools; any prefix garbage, truncation or trailing junk raises
    :class:`FrameFormatError`.
    """
    if not isinstance(blob, (bytes, bytearray)):
        raise FrameFormatError(f"frame blob must be bytes, got {type(blob).__name__}")
    assembler = FrameAssembler()
    assembler.feed(bytes(blob))
    message = assembler.next_message()
    if message is None:
        raise FrameFormatError("truncated frame")
    if assembler.buffered_bytes:
        raise FrameFormatError(
            f"{assembler.buffered_bytes} trailing byte(s) after the frame"
        )
    return message


# --------------------------------------------------------------------- #
# Connections: whole-frame sends, the one read loop, the one dial loop
# --------------------------------------------------------------------- #


class FrameConnection:
    """One framed socket: thread-safe whole-frame sends and one reader.

    The socket is made fully blocking: a partial ``sendall`` on a
    non-blocking or timing-out socket would leave half a frame on the wire
    and permanently desync the length-prefixed stream.  Reads never block
    the loop: :meth:`read` polls before every ``recv`` — with ``poll``, not
    ``select``, which cannot watch descriptors past ``FD_SETSIZE`` (a head
    holding a thousand client connections forks shards past it).
    """

    def __init__(self, sock: socket.socket) -> None:
        sock.settimeout(None)
        self.sock = sock
        self._send_lock = threading.Lock()

    def send(self, message: Dict[str, object]) -> bool:
        """Write one frame; False when the socket is dead.

        A failed send is not an error for the caller to handle: the reader
        of this connection notices the dead socket (EOF or silence) and
        ends the session.
        """
        frame = encode_frame(message)
        try:
            with self._send_lock:
                self.sock.sendall(frame)
        except OSError:
            return False
        return True

    def close(self) -> None:
        """Shut the socket down both ways and close it (idempotent).

        ``shutdown`` reaches the peer even when a forked process still
        holds a copy of the descriptor, and wakes a ``sendall`` blocked on
        a frozen peer.
        """
        try:
            self.sock.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        try:
            self.sock.close()
        except OSError:
            pass

    def read(
        self,
        on_message: Callable[[Dict[str, object]], bool],
        *,
        silence_timeout_s: float,
        heartbeat_s: Optional[float] = None,
        stop: Optional[Callable[[], bool]] = None,
    ) -> str:
        """Feed every incoming message to *on_message*; return why reading ended.

        Ends with ``"closed"`` on EOF or a socket error, ``"silent"`` when
        nothing arrived for *silence_timeout_s*, ``"stopped"`` once *stop*
        returns true (polled several times a second), or ``"done"`` when
        *on_message* returns false.  A corrupt stream raises
        :class:`FrameFormatError`.  With *heartbeat_s*, a heartbeat frame
        goes out every *heartbeat_s* seconds until reading ends.
        """
        assembler = FrameAssembler()
        poll_ms = min(200.0, silence_timeout_s * 250.0)
        poller = select.poll()
        try:
            poller.register(self.sock, select.POLLIN)
        except (OSError, ValueError):
            return "closed"
        stopped = threading.Event()
        if heartbeat_s is not None:
            threading.Thread(
                target=self._heartbeat,
                args=(float(heartbeat_s), stopped),
                name="corgi-frame-heartbeat",
                daemon=True,
            ).start()
        last_heard = time.monotonic()
        try:
            while stop is None or not stop():
                try:
                    ready = poller.poll(poll_ms)
                    chunk = self.sock.recv(_READ_CHUNK) if ready else None
                except (OSError, ValueError):
                    return "closed"
                now = time.monotonic()
                if chunk is None:
                    if now - last_heard > silence_timeout_s:
                        return "silent"
                    continue
                if not chunk:
                    return "closed"
                last_heard = now
                assembler.feed(chunk)
                while True:
                    message = assembler.next_message()
                    if message is None:
                        break
                    if not on_message(message):
                        return "done"
            return "stopped"
        finally:
            stopped.set()

    def _heartbeat(self, interval_s: float, stopped: threading.Event) -> None:
        seq = 0
        while not stopped.wait(interval_s):
            seq += 1
            if not self.send({"kind": "heartbeat", "seq": seq}):
                return  # the reader is about to notice


def parse_address(spec: object) -> Tuple[str, int]:
    """A ``"host:port"`` string or ``(host, port)`` pair as a checked address.

    Strict, so a bad address fails where it is configured instead of when
    it is first dialed: raises :class:`ValueError` for a missing host, a
    port that is not an integer (``True`` and ``1.5`` are not ports) or a
    port outside 1–65535.
    """
    if isinstance(spec, str):
        host, separator, port = spec.strip().rpartition(":")
        if not separator:
            raise ValueError(f"address {spec!r} must look like host:port")
    else:
        try:
            host, port = spec  # type: ignore[misc]
        except (TypeError, ValueError):
            raise ValueError(f"address {spec!r} must be host:port or a (host, port) pair") from None
    if not isinstance(host, str) or not host:
        raise ValueError(f"address {spec!r} has no host")
    if isinstance(port, bool) or not isinstance(port, (int, str)):
        raise ValueError(f"address {spec!r} has a non-integer port")
    try:
        number = int(port)
    except ValueError:
        raise ValueError(f"address {spec!r} has a non-integer port") from None
    if not 0 < number < 65536:
        raise ValueError(f"address {spec!r} has an out-of-range port")
    return host, number


def dial(
    address: Tuple[str, int],
    *,
    timeout_s: float,
    stop: Optional[Callable[[], bool]] = None,
) -> Optional[socket.socket]:
    """Connect to *address*, redialing with backoff for up to *timeout_s*.

    Returns the connected TCP socket (``TCP_NODELAY`` set), or ``None``
    when the window closes or *stop* returns true between attempts.
    """
    deadline = time.monotonic() + float(timeout_s)
    delay = 0.0
    while stop is None or not stop():
        try:
            sock = socket.create_connection(address, timeout=min(1.0, float(timeout_s)))
        except OSError:
            delay = next_backoff_delay(delay)
            if time.monotonic() + delay > deadline:
                return None
            time.sleep(delay)
            continue
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        return sock
    return None
