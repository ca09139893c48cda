"""Control-plane replication: one primary's control log, tailed by N heads.

PR 6 made the priors control plane a durable write-ahead log that one head
replays on boot (:mod:`repro.service.controllog`).  This module ships that
log across heads, following the store-and-forward durable-queue design of
the MSMQ multi-branch synchronization literature:

* A **primary** head keeps accepting ``publish_priors`` writes exactly as
  before — the control log allocates the version and commits the record
  with write+fsync.  A :class:`ReplicationServer`
  attached to that log streams every *durable* record to subscribed
  followers over the same CRGF frames, read loop and dial helper every
  shard session uses (length-prefixed JSON, heartbeat liveness; see
  :mod:`repro.service.wire`).
* A **follower** head (:class:`ReplicationClient`, owned by its
  :class:`~repro.service.pool.EnginePool`) dials the primary with bounded
  decorrelated-jitter backoff, subscribes from its durable cursor, and for
  each received record runs the store-and-forward commit order: append the
  record *verbatim* (primary's version) to the local control log first,
  apply it to the pool second, advance the fsync'd cursor file third.  A
  crash between receive and apply therefore converges on the follower's
  own boot-time replay — the record is already local — and a crash between
  apply and cursor write merely re-receives records the version check
  then skips.
* **Conflict resolution is by version** — the PR 5 split-brain rule, now
  log-driven: a follower whose replayed version exceeds the primary's
  durable head subscribed into a generation that never happened.  The
  primary answers with a ``reset`` frame carrying its authoritative priors
  and version; the follower rotates its divergent log aside
  (``control.log.split-brain``), adopts the primary's state, and resumes
  tailing from there.

Wire protocol (one JSON object per CRGF frame):

====================  =============================================== =====
frame                 fields                                          from
====================  =============================================== =====
``subscribe``         ``cursor`` (int), ``fingerprint`` (str)         follower
``sub_ack``           ``last_version`` (int)                          primary
``sub_reject``        ``reason`` (str)                                primary
``reset``             ``last_version``, ``priors``, ``normalize``     primary
``record``            ``record`` (one control-log record)             primary
``ack``               ``version`` (int, follower's applied cursor)    follower
``heartbeat``         —                                               both
``bye``               —                                               follower
====================  =============================================== =====

Only heads of the same pipeline fingerprint may pair up (the same
namespace rule the snapshot store enforces on disk); a mismatched
``subscribe`` is rejected, never half-applied.  Replication lag — the
primary's durable head minus each follower's acked cursor — surfaces in
``GET /admin/durability`` on both sides.
"""

from __future__ import annotations

import json
import logging
import os
import queue as queue_module
import select
import socket
import threading
from collections import deque
from pathlib import Path
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.core.exceptions import CORGIError
from repro.service.controllog import ControlLog, write_atomic
from repro.service.wire import (
    CLIENT_IDLE_TIMEOUT_S,
    CONNECT_BACKOFF_BASE_S,
    HEARTBEAT_INTERVAL_S,
    LIVENESS_TIMEOUT_S,
    FrameConnection,
    FrameFormatError,
    dial,
)

__all__ = [
    "REPLICATION_SEND_QUEUE",
    "ReplicationClient",
    "ReplicationError",
    "ReplicationRoleError",
    "ReplicationServer",
    "read_cursor",
    "write_cursor",
]

logger = logging.getLogger(__name__)

#: Outbound frames buffered per follower connection before the primary
#: evicts it as too slow (it will redial and re-subscribe from its cursor,
#: so eviction loses liveness, never records).
REPLICATION_SEND_QUEUE = 512

#: Poll granularity of the accept and dispatch loops (also bounds shutdown
#: latency).
_POLL_INTERVAL_S = 0.1

#: Name of a follower's durable cursor file inside its state directory.
CURSOR_FILENAME = "replication.cursor"


class ReplicationError(CORGIError, RuntimeError):
    """Replication-layer fault (connection, protocol, or role misuse)."""


class ReplicationRoleError(ReplicationError, ValueError):
    """A control write landed on a follower head.

    Followers converge on the primary's log; accepting a local
    ``publish_priors`` would fork the version sequence — exactly the
    split-brain this layer exists to prevent.  Subclasses
    :class:`ValueError` so HTTP transports map it to the 400 class.
    """


# --------------------------------------------------------------------- #
# Durable per-source cursor
# --------------------------------------------------------------------- #


def write_cursor(path: os.PathLike, source: str, version: int) -> bool:
    """Atomically persist a follower's applied cursor (tmp+fsync+rename).

    Never raises: a cursor that cannot be written degrades to re-receiving
    records the version check will skip, which is exactly the store-and-
    forward contract.
    """
    payload = json.dumps({"source": str(source), "version": int(version)}, sort_keys=True)
    try:
        write_atomic(path, payload.encode("utf-8"))
        return True
    except OSError as error:
        logger.warning("replication cursor write to %s failed: %s", path, error)
        return False


def read_cursor(path: os.PathLike, source: str) -> int:
    """The durably recorded applied version for ``source`` (0 if none).

    A cursor written against a *different* source is ignored — the version
    sequence is per-primary, and resuming another primary's offsets would
    silently skip records.
    """
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError, UnicodeDecodeError):
        return 0
    if not isinstance(payload, dict) or payload.get("source") != str(source):
        return 0
    version = payload.get("version")
    if isinstance(version, int) and not isinstance(version, bool) and version >= 0:
        return version
    return 0


# --------------------------------------------------------------------- #
# Primary side: stream the durable log to subscribed followers
# --------------------------------------------------------------------- #


class _FollowerConn:
    """One accepted follower connection (reader + writer thread pair)."""

    def __init__(self, conn_id: int, sock: socket.socket, peer: str) -> None:
        self.conn_id = conn_id
        # Whole-frame sends are serialized inside the connection, so the
        # writer thread and the rare synchronous send (the pre-drop
        # ``sub_reject``) never interleave mid-stream.
        self.connection = FrameConnection(sock)
        self.peer = peer
        self.outbox: "queue_module.Queue[Optional[Dict[str, object]]]" = queue_module.Queue(
            maxsize=REPLICATION_SEND_QUEUE
        )
        self.subscribed = False  # dispatcher-owned: only it flips/reads this
        self.cursor = 0
        self.acked = 0
        self.alive = True

    def send(self, message: Dict[str, object]) -> bool:
        """Enqueue one frame; False when the follower is too slow (evict)."""
        if not self.alive:
            return False
        try:
            self.outbox.put_nowait(message)
            return True
        except queue_module.Full:
            return False

    def shutdown(self) -> None:
        self.alive = False
        try:
            self.outbox.put_nowait(None)
        except queue_module.Full:
            pass
        self.connection.close()


class ReplicationServer:
    """Primary-side log shipper: accept followers, stream durable records.

    Single-writer by construction: one *dispatcher* thread owns all record
    sends, reading the log's durable sequence through a commit-order index
    — so followers observe records in exactly the order they became
    durable, regardless of which serving thread appended them.  Per-
    connection reader threads only handle heartbeats, subscribes and acks;
    per-connection writer threads drain a bounded outbox (a follower that
    cannot keep up is evicted and redials from its cursor).
    """

    def __init__(
        self,
        log: ControlLog,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        fingerprint: str = "",
        state_provider: Optional[Callable[[], Tuple[Dict[str, float], bool]]] = None,
        client_idle_timeout_s: float = CLIENT_IDLE_TIMEOUT_S,
    ) -> None:
        self.log = log
        self.fingerprint = str(fingerprint)
        self._state_provider = state_provider
        self._client_idle_timeout_s = float(client_idle_timeout_s)
        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._closed = False
        self._conns: Dict[int, _FollowerConn] = {}
        self._next_conn_id = 0
        self._pending_subscribes: Deque[Tuple[int, int, str]] = deque()
        self._dispatched = 0  # commit-order index into the log's durable records
        self._counters = {
            "connections_accepted": 0,
            "subscribes": 0,
            "rejects": 0,
            "resets": 0,
            "records_streamed": 0,
            "evictions": 0,
            "protocol_errors": 0,
        }
        self._listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._listener.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._listener.bind((host, int(port)))
        self._listener.listen(16)
        self.host, self.port = self._listener.getsockname()[:2]
        # The log listener is only a wake-up — ordering comes from reading
        # the durable sequence, never from callback arrival order.
        self.log.add_listener(self._on_append)
        self._threads: List[threading.Thread] = []
        self._start_thread(self._accept_loop, "corgi-repl-accept")
        self._start_thread(self._dispatch_loop, "corgi-repl-dispatch")
        logger.info("replication primary listening on %s:%d", self.host, self.port)

    def _start_thread(self, target: Callable[[], None], name: str) -> None:
        thread = threading.Thread(target=target, name=name, daemon=True)
        thread.start()
        self._threads.append(thread)

    def _bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] += amount

    def _on_append(self, record: Dict[str, object]) -> None:
        with self._wake:
            self._wake.notify_all()

    # -- accept / per-connection loops --------------------------------- #

    def _accept_loop(self) -> None:
        while True:
            try:
                readable, _, _ = select.select([self._listener], [], [], _POLL_INTERVAL_S)
            except (OSError, ValueError):
                return  # listener closed
            if self._closed:
                return
            if not readable:
                continue
            try:
                sock, address = self._listener.accept()
            except OSError:
                continue
            peer = f"{address[0]}:{address[1]}"
            with self._lock:
                if self._closed:
                    sock.close()
                    return
                conn = _FollowerConn(self._next_conn_id, sock, peer)
                self._next_conn_id += 1
                self._conns[conn.conn_id] = conn
                self._counters["connections_accepted"] += 1
            threading.Thread(
                target=self._reader_loop, args=(conn,),
                name=f"corgi-repl-reader-{conn.conn_id}", daemon=True,
            ).start()
            threading.Thread(
                target=self._writer_loop, args=(conn,),
                name=f"corgi-repl-writer-{conn.conn_id}", daemon=True,
            ).start()

    def _reader_loop(self, conn: _FollowerConn) -> None:
        try:
            ended = conn.connection.read(
                lambda message: self._dispatch_message(conn, message),
                silence_timeout_s=self._client_idle_timeout_s,
                stop=lambda: not conn.alive or self._closed,
            )
            if ended == "silent":
                logger.info("replication follower %s idle; dropping", conn.peer)
        except FrameFormatError as error:
            self._bump("protocol_errors")
            logger.warning(
                "replication follower %s sent garbage (%s); dropping", conn.peer, error
            )
        finally:
            self._drop_conn(conn)

    def _dispatch_message(self, conn: _FollowerConn, message: Dict[str, object]) -> bool:
        kind = message.get("kind")
        if kind == "heartbeat":
            conn.send({"kind": "heartbeat"})
        elif kind == "subscribe":
            cursor = message.get("cursor", 0)
            if not isinstance(cursor, int) or isinstance(cursor, bool) or cursor < 0:
                cursor = 0
            fingerprint = str(message.get("fingerprint", ""))
            with self._wake:
                self._pending_subscribes.append((conn.conn_id, cursor, fingerprint))
                self._wake.notify_all()
        elif kind == "ack":
            version = message.get("version")
            if isinstance(version, int) and not isinstance(version, bool):
                conn.acked = max(conn.acked, version)
        elif kind == "bye":
            conn.alive = False
            return False
        else:
            self._bump("protocol_errors")
        return True

    def _writer_loop(self, conn: _FollowerConn) -> None:
        while True:
            message = conn.outbox.get()
            if message is None:
                return
            if not conn.connection.send(message):
                conn.alive = False
                return

    def _drop_conn(self, conn: _FollowerConn) -> None:
        with self._lock:
            self._conns.pop(conn.conn_id, None)
        conn.shutdown()

    # -- dispatcher: the single ordered record writer ------------------- #

    def _dispatch_loop(self) -> None:
        while True:
            with self._wake:
                while (
                    not self._closed
                    and not self._pending_subscribes
                    and not self.log.records_after_index(self._dispatched)
                ):
                    self._wake.wait(timeout=_POLL_INTERVAL_S * 5)
                if self._closed:
                    return
                subscribes = list(self._pending_subscribes)
                self._pending_subscribes.clear()
            for conn_id, cursor, fingerprint in subscribes:
                self._handle_subscribe(conn_id, cursor, fingerprint)
            batch = self.log.records_after_index(self._dispatched)
            self._dispatched += len(batch)
            if not batch:
                continue
            with self._lock:
                conns = [c for c in self._conns.values() if c.subscribed]
            for record in batch:
                for conn in conns:
                    self._stream(conn, {"kind": "record", "record": record})

    def _stream(self, conn: _FollowerConn, message: Dict[str, object]) -> None:
        if not conn.send(message):
            self._bump("evictions")
            logger.warning(
                "replication follower %s cannot keep up (%d frames queued); evicting",
                conn.peer,
                REPLICATION_SEND_QUEUE,
            )
            self._drop_conn(conn)
        elif message.get("kind") == "record":
            self._bump("records_streamed")

    def _handle_subscribe(self, conn_id: int, cursor: int, fingerprint: str) -> None:
        with self._lock:
            conn = self._conns.get(conn_id)
        if conn is None or not conn.alive:
            return
        if fingerprint != self.fingerprint:
            self._bump("rejects")
            logger.warning(
                "replication follower %s subscribed with fingerprint %r "
                "(this primary serves %r); rejecting",
                conn.peer,
                fingerprint[:16],
                self.fingerprint[:16],
            )
            # Synchronous send: shutdown() closes the socket immediately, so
            # an outbox-queued reject would race the writer thread and the
            # follower would see a bare EOF instead of the typed refusal.
            conn.connection.send(
                {"kind": "sub_reject", "reason": "pipeline fingerprint mismatch"}
            )
            self._drop_conn(conn)
            return
        self._bump("subscribes")
        conn.cursor = cursor
        durable = self.log.durable_version
        if cursor > durable:
            # Split-brain, log-driven: the follower replayed a generation
            # this primary never committed.  Ship the authoritative state
            # so it can reset defensively (the PR 5 rule).
            self._bump("resets")
            priors: Optional[Dict[str, float]] = None
            normalize = False
            if self._state_provider is not None:
                try:
                    priors, normalize = self._state_provider()
                except Exception:  # noqa: BLE001 - a reset without priors still resets
                    logger.exception("replication state provider failed during reset")
            self._stream(
                conn,
                {
                    "kind": "reset",
                    "last_version": durable,
                    "priors": priors,
                    "normalize": bool(normalize),
                },
            )
        else:
            self._stream(conn, {"kind": "sub_ack", "last_version": durable})
            for record in self.log.records_since(cursor):
                self._stream(conn, {"kind": "record", "record": record})
        # Live records flow from here on; any overlap with the backlog is
        # version-deduplicated on the follower.
        conn.subscribed = True

    # -- lifecycle / diagnostics --------------------------------------- #

    def diagnostics(self) -> Dict[str, object]:
        durable = self.log.durable_version
        with self._lock:
            followers = [
                {
                    "peer": conn.peer,
                    "subscribed": conn.subscribed,
                    "cursor": conn.cursor,
                    "acked_version": conn.acked,
                    "lag": max(0, durable - conn.acked),
                }
                for conn in self._conns.values()
            ]
            counters = dict(self._counters)
        return {
            "role": "primary",
            "address": f"{self.host}:{self.port}",
            "fingerprint": self.fingerprint[:16],
            "last_version": durable,
            "followers": followers,
            **counters,
        }

    def close(self) -> None:
        with self._wake:
            if self._closed:
                return
            self._closed = True
            conns = list(self._conns.values())
            self._conns.clear()
            self._wake.notify_all()
        try:
            self._listener.close()
        except OSError:
            pass
        for conn in conns:
            conn.shutdown()
        for thread in self._threads:
            thread.join(timeout=2.0)


# --------------------------------------------------------------------- #
# Follower side: tail the primary, commit locally, then apply
# --------------------------------------------------------------------- #


class ReplicationClient:
    """Follower-side tailer owned by an :class:`EnginePool`.

    Runs one daemon session thread: dial the primary (decorrelated-jitter
    backoff between attempts, :func:`repro.service.wire.dial`), subscribe
    from the durable cursor, then for every received record run
    commit-before-apply: local log append (primary's version, verbatim),
    pool apply, fsync'd cursor advance, ack.  The pool half of the contract lives in
    ``EnginePool.apply_replicated_control`` and
    ``EnginePool.reset_for_replication``.
    """

    def __init__(
        self,
        pool,
        address: Tuple[str, int],
        *,
        state_dir: os.PathLike,
        fingerprint: str = "",
        heartbeat_interval_s: float = HEARTBEAT_INTERVAL_S,
        liveness_timeout_s: float = LIVENESS_TIMEOUT_S,
        connect_timeout_s: float = 5.0,
    ) -> None:
        self._pool = pool
        self.address = (str(address[0]), int(address[1]))
        self.source = f"{self.address[0]}:{self.address[1]}"
        self.fingerprint = str(fingerprint)
        self._heartbeat_interval_s = float(heartbeat_interval_s)
        self._liveness_timeout_s = float(liveness_timeout_s)
        self._connect_timeout_s = float(connect_timeout_s)
        self._cursor_path = Path(state_dir) / CURSOR_FILENAME
        self._lock = threading.Lock()
        self._closed = threading.Event()
        self._connection: Optional[FrameConnection] = None
        self._connected = False
        # Resume point: everything up to the local log's durable head was
        # applied by the pool's own boot replay; the cursor file covers the
        # crashed-between-apply-and-ack window (both are safe to resume
        # from — re-received records are version-skipped).
        log = getattr(pool, "_control_log", None)
        log_version = log.durable_version if log is not None else 0
        self._applied = max(read_cursor(self._cursor_path, self.source), log_version)
        self._primary_version = 0
        self._counters = {
            "records_applied": 0,
            "records_skipped": 0,
            "apply_errors": 0,
            "local_commit_errors": 0,
            "resets": 0,
            "reconnects": 0,
            "rejected": 0,
        }
        self._thread = threading.Thread(
            target=self._session_loop, name="corgi-repl-follower", daemon=True
        )
        self._thread.start()

    def _bump(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self._counters[name] += amount

    @property
    def applied_version(self) -> int:
        with self._lock:
            return self._applied

    # -- session ------------------------------------------------------- #

    def _session_loop(self) -> None:
        while not self._closed.is_set():
            sock = dial(self.address, timeout_s=self._connect_timeout_s, stop=self._closed.is_set)
            if sock is None:
                continue
            connection = FrameConnection(sock)
            with self._lock:
                if self._closed.is_set():
                    connection.close()
                    return
                self._connection = connection
                self._connected = True
            try:
                self._run_session(connection)
            finally:
                with self._lock:
                    self._connected = False
                    self._connection = None
                connection.close()
            if not self._closed.is_set():
                self._bump("reconnects")
                self._closed.wait(CONNECT_BACKOFF_BASE_S)

    def _run_session(self, connection: FrameConnection) -> None:
        with self._lock:
            cursor = self._applied
        connection.send(
            {"kind": "subscribe", "cursor": cursor, "fingerprint": self.fingerprint}
        )
        try:
            ended = connection.read(
                lambda message: self._handle_message(connection, message),
                silence_timeout_s=self._liveness_timeout_s,
                heartbeat_s=self._heartbeat_interval_s,
                stop=self._closed.is_set,
            )
        except FrameFormatError as error:
            logger.warning(
                "replication primary %s sent a malformed frame (%s); redialing",
                self.source,
                error,
            )
            return
        if ended == "silent":
            logger.warning(
                "replication primary %s silent for %.2f s; redialing",
                self.source,
                self._liveness_timeout_s,
            )

    def _handle_message(self, connection: FrameConnection, message: Dict[str, object]) -> bool:
        kind = message.get("kind")
        if kind == "heartbeat":
            return True
        if kind == "sub_ack":
            version = message.get("last_version")
            if isinstance(version, int) and not isinstance(version, bool):
                with self._lock:
                    self._primary_version = max(self._primary_version, version)
            return True
        if kind == "sub_reject":
            self._bump("rejected")
            logger.error(
                "replication primary %s rejected subscription: %s",
                self.source,
                message.get("reason"),
            )
            return False
        if kind == "reset":
            return self._handle_reset(connection, message)
        if kind == "record":
            return self._handle_record(connection, message.get("record"))
        logger.warning("replication primary %s sent unknown frame %r", self.source, kind)
        return True

    def _handle_reset(self, connection: FrameConnection, message: Dict[str, object]) -> bool:
        version = message.get("last_version")
        if not isinstance(version, int) or isinstance(version, bool) or version < 0:
            return False
        logger.warning(
            "replication: this head replayed v%d but primary %s is at v%d — "
            "divergent generation never happened; resetting defensively",
            self._applied,
            self.source,
            version,
        )
        try:
            self._pool.reset_for_replication(
                version, message.get("priors"), bool(message.get("normalize", False))
            )
        except Exception:  # noqa: BLE001 - a failed reset must not kill the tailer
            self._bump("apply_errors")
            logger.exception("replication reset failed; will retry on reconnect")
            return False
        # One critical section: diagnostics never report the reset without
        # the cursor it moved to.
        with self._lock:
            self._applied = version
            self._primary_version = max(self._primary_version, version)
            self._counters["resets"] += 1
        write_cursor(self._cursor_path, self.source, version)
        connection.send({"kind": "ack", "version": version})
        return True

    def _handle_record(self, connection: FrameConnection, record: object) -> bool:
        if not isinstance(record, dict):
            return True
        version = record.get("version")
        if not isinstance(version, int) or isinstance(version, bool) or version <= 0:
            return True
        with self._lock:
            self._primary_version = max(self._primary_version, version)
            applied = self._applied
        if version <= applied:
            self._bump("records_skipped")
            return True
        # Store-and-forward: commit the record locally *before* applying it,
        # so a crash mid-apply converges on this head's own boot replay.
        log = getattr(self._pool, "_control_log", None)
        if log is not None:
            try:
                if not log.append_replicated(record):
                    self._bump("local_commit_errors")
            except Exception:  # noqa: BLE001 - a bad record is skipped, not fatal
                self._bump("local_commit_errors")
                logger.exception("replicated record v%d failed local commit", version)
        try:
            self._pool.apply_replicated_control(record)
        except Exception:  # noqa: BLE001 - surfaced in diagnostics, replayed on reboot
            self._bump("apply_errors")
            logger.exception("replicated record v%d failed to apply", version)
        with self._lock:
            self._applied = version
        self._bump("records_applied")
        write_cursor(self._cursor_path, self.source, version)
        connection.send({"kind": "ack", "version": version})
        return True

    # -- lifecycle / diagnostics --------------------------------------- #

    def diagnostics(self) -> Dict[str, object]:
        with self._lock:
            counters = dict(self._counters)
            applied = self._applied
            primary = self._primary_version
            connected = self._connected
        return {
            "role": "follower",
            "source": self.source,
            "fingerprint": self.fingerprint[:16],
            "connected": connected,
            "cursor": applied,
            "primary_version": primary,
            "lag": max(0, primary - applied),
            **counters,
        }

    def close(self) -> None:
        self._closed.set()
        with self._lock:
            connection = self._connection
        if connection is not None:
            connection.send({"kind": "bye"})
            connection.close()
        self._thread.join(timeout=2.0)
