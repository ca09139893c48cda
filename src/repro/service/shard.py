"""One engine shard: a :class:`ForestEngine` replica behind the frame protocol.

The :class:`~repro.service.pool.EnginePool` runs N of these behind one
:class:`~repro.service.service.CORGIService`.  Following the DB-nets idea of
modelling component lifecycles as explicit states with verified
transitions, a shard is always in exactly one :class:`ShardState`, and the
parent-side handle enforces the legal transition graph — an illegal
transition is a bug and raises immediately instead of corrupting the pool's
bookkeeping.

Every shard speaks one transport, the length-prefixed JSON frames of
:mod:`repro.service.wire`, whether it is a child process the pool forked
onto one end of a ``socketpair`` or a ``python -m repro.service.netshard``
server on another host.  The parent posts ``request`` frames carrying
``(op, ticket, payload)``; the shard runs them serially through
:class:`ShardOpExecutor` and answers with ``response`` frames under the
same ticket.  The handle's session thread reads those frames, resolves the
per-ticket rendezvous, and heartbeats the shard: EOF or silence past
``liveness_timeout_s`` — a SIGKILLed, frozen or unreachable shard — fails
every request in flight over to the next ring sibling (see
:class:`~repro.service.pool.EnginePool`).

Only plain data crosses the boundary: requests carry scalars, responses
carry ``{root_id: ObfuscationMatrix}`` mappings in their exact
``to_dict`` encoding — never the tree, never a
:class:`~repro.server.privacy_forest.PrivacyForest` (the parent reattaches
matrices to its own tree handle).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Dict, Optional, Tuple

from repro.core.exceptions import (
    CORGIError,
    InfeasibleMatrixError,
    MatrixValidationError,
    PrecisionReductionError,
    PruningError,
)
from repro.core.matrix import ObfuscationMatrix
from repro.core.objective import TargetDistribution
from repro.core.solver import SolverBackendUnavailableError
from repro.server.engine import ForestEngine, ServerConfig
from repro.service.handoff import SnapshotFormatError, decode_snapshot
from repro.service.wire import (
    HEARTBEAT_INTERVAL_S,
    LIVENESS_TIMEOUT_S,
    FrameConnection,
    FrameFormatError,
    dial,
)
from repro.tree.location_tree import LocationTree
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = [
    "ShardState",
    "ShardCrashedError",
    "ShardUnavailableError",
    "RemoteShardError",
    "ShardSpec",
    "ShardOpExecutor",
    "ShardHandle",
    "encode_request",
    "decode_request",
    "encode_result",
    "decode_result",
    "encode_error",
    "decode_error",
]


class ShardState(Enum):
    """Lifecycle states of one shard slot (parent-side view)."""

    STARTING = "starting"
    READY = "ready"
    DRAINING = "draining"  # graceful drain: no new work, hand-off in progress
    DRAINED = "drained"  # drain complete, worker retired; respawnable
    CRASHED = "crashed"
    DEAD = "dead"  # crashed with the respawn budget exhausted — permanent
    STOPPED = "stopped"  # orderly shutdown


#: Legal lifecycle transitions.  ``CRASHED -> STARTING`` is the respawn
#: edge and ``DRAINED -> STARTING`` the post-drain revival edge (used by
#: ``EnginePool.respawn`` / ``rebalance``); ``DEAD`` and ``STOPPED`` are
#: terminal.  A worker dying mid-drain takes ``DRAINING -> CRASHED`` and
#: re-enters the normal crash/respawn path; a drain that *fails* without
#: killing the worker (flush timeout, hand-off error) rolls back
#: ``DRAINING -> READY`` so the slot is never stranded in a state nothing
#: can leave.
_LEGAL_TRANSITIONS: Dict[ShardState, Tuple[ShardState, ...]] = {
    ShardState.STARTING: (ShardState.READY, ShardState.CRASHED, ShardState.STOPPED),
    ShardState.READY: (ShardState.DRAINING, ShardState.CRASHED, ShardState.STOPPED),
    ShardState.DRAINING: (
        ShardState.DRAINED,
        ShardState.READY,
        ShardState.CRASHED,
        ShardState.STOPPED,
    ),
    ShardState.DRAINED: (ShardState.STARTING, ShardState.STOPPED),
    ShardState.CRASHED: (ShardState.STARTING, ShardState.DEAD, ShardState.STOPPED),
    ShardState.DEAD: (),
    ShardState.STOPPED: (),
}


def legal_transition(current: ShardState, target: ShardState) -> bool:
    """Whether ``current -> target`` is an edge of the lifecycle graph."""
    return target in _LEGAL_TRANSITIONS[current]


class ShardCrashedError(RuntimeError):
    """The shard died while (or before) serving the request.

    The pool treats this as retryable: the request is re-routed to the next
    shard on the consistent-hash ring while the crashed slot respawns.
    """


class ShardUnavailableError(RuntimeError):
    """The shard cannot accept work right now (not READY, or shutting down)."""


class RemoteShardError(CORGIError, RuntimeError):
    """A shard reported an error type this build cannot reconstruct."""


@dataclass(frozen=True)
class ShardSpec:
    """Everything a worker process needs to host an engine replica (picklable).

    ``max_workers`` is forced to 1: shard processes *are* the parallelism,
    and nested process fan-out inside a daemonic child is not allowed by
    ``multiprocessing`` anyway.  ``keep_generation_results`` is forced off
    because convergence traces never cross the process boundary.
    """

    shard_id: int
    tree: LocationTree
    config: ServerConfig
    targets: Optional[TargetDistribution] = None
    chaos_build_delay_s: float = 0.0
    #: Published-priors generation the tree carries at spawn.  The
    #: replica tracks it through ``set_priors`` ops and uses it to reject
    #: snapshot payloads built under different priors (see ``import_cache``).
    priors_version: int = 0

    def engine_config(self) -> ServerConfig:
        return replace(self.config, max_workers=1, keep_generation_results=False)


class ShardOpExecutor:
    """One engine replica's serial op interpreter.

    :class:`repro.service.netshard.NetShardServer` runs it for every shard,
    local child or remote host alike, so the engine-facing semantics live
    here once.  The executor owns the engine and the replica's current
    priors generation; callers feed it one ``(op, payload)`` at a time from
    a single thread (the server's worker thread).

    Ops:

    * ``build`` — payload ``(privacy_level, delta, epsilon, use_cache)``;
      result ``{"privacy_level", "delta", "epsilon", "matrices", "cached"}``.
    * ``invalidate`` — payload ``privacy_level | None``; result = #dropped.
    * ``set_priors`` — payload ``(priors_mapping, normalize, version)``;
      result = #forests flushed.  The executor records *version* as its
      current priors generation.
    * ``export_cache`` — payload ``payload_budget_bytes``; result = list of
      plain cache entries (see ``ForestEngine.export_cache_entries``) —
      live entries only, expired ones are excluded at export time.
    * ``import_cache`` — payload = an encoded snapshot blob
      (:func:`repro.service.handoff.encode_snapshot`); result =
      ``{"imported", "prewarmed", "skipped"}`` counts.  The replica — not
      just the pool — compares the snapshot's priors version against its
      own: on a mismatch payloads are dropped and the entries pre-warmed
      by rebuilding, so matrices built under other priors can never be
      installed under a fresh-priors fingerprint (the pool-side check is
      only an optimization; a ``set_priors`` queued ahead of the import
      would race it).  A malformed or version-skewed blob is an *answer*
      (``SnapshotFormatError`` raised to the transport), never a death.
    * ``diagnostics`` — engine cache diagnostics dict.
    * ``ping`` — liveness probe; result ``"pong"``.
    """

    def __init__(self, spec: ShardSpec) -> None:
        self.spec = spec
        self.engine = ForestEngine(spec.tree, spec.engine_config(), targets=spec.targets)
        self.priors_version = int(spec.priors_version)

    def ready_announcement(self) -> Dict[str, object]:
        """The control payload a fresh replica announces itself with.

        Carries the replica's current priors generation so a parent
        (re)connecting to an already-warm replica — the remote reconnect
        path — learns what the replica actually serves instead of assuming
        the spawn-time version.
        """
        return {
            "shard_id": self.spec.shard_id,
            "pid": os.getpid(),
            "priors_version": self.priors_version,
        }

    def execute(self, op: str, payload) -> object:
        """Run one op against the engine; exceptions are the caller's answer."""
        if op == "build":
            privacy_level, delta, epsilon, use_cache = payload
            if self.spec.chaos_build_delay_s > 0:
                # Chaos/test hook: widen the in-flight window so crash
                # injection lands deterministically mid-build.
                time.sleep(self.spec.chaos_build_delay_s)
            forest, cached = self.engine.build_forest_traced(
                privacy_level, delta, epsilon=epsilon, use_cache=use_cache
            )
            return {
                "privacy_level": forest.privacy_level,
                "delta": forest.delta,
                "epsilon": forest.epsilon,
                "matrices": dict(forest),
                "cached": cached,
            }
        if op == "invalidate":
            return self.engine.invalidate(payload)
        if op == "set_priors":
            priors, normalize, version = payload
            result = self.engine.publish_priors(priors, normalize=normalize)
            self.priors_version = int(version)
            return result
        if op == "export_cache":
            return self.engine.export_cache_entries(payload_budget_bytes=int(payload))
        if op == "import_cache":
            snapshot = decode_snapshot(payload)
            counts = {"imported": 0, "prewarmed": 0, "skipped": 0}
            # Authoritative skew check: a set_priors queued ahead of this
            # import already ran (the op stream is serial), so a version
            # mismatch here means the payloads were built on priors this
            # replica no longer serves — rebuild instead.
            skewed = snapshot.priors_version != self.priors_version
            for entry in snapshot.entries:
                if skewed:
                    entry = entry.without_payload()
                outcome = self.engine.import_cache_entry(
                    entry.privacy_level,
                    entry.delta,
                    entry.epsilon,
                    matrices=entry.matrices,
                    ttl_remaining_s=entry.ttl_remaining_s,
                )
                counts[outcome] += 1
            return counts
        if op == "diagnostics":
            return self.engine.cache_diagnostics()
        if op == "ping":
            return "pong"
        raise ValueError(f"unknown shard op {op!r}")


# --------------------------------------------------------------------- #
# Message codec: shard ops and results over JSON frames
# --------------------------------------------------------------------- #


def _encode_matrices(
    matrices: Optional[Dict[str, ObfuscationMatrix]],
) -> Optional[Dict[str, object]]:
    if matrices is None:
        return None
    return {str(root_id): matrix.to_dict() for root_id, matrix in matrices.items()}


def _decode_matrices(payload: object) -> Optional[Dict[str, ObfuscationMatrix]]:
    if payload is None:
        return None
    if not isinstance(payload, dict):
        raise FrameFormatError("matrices payload must be an object or null")
    decoded: Dict[str, ObfuscationMatrix] = {}
    for root_id, matrix_payload in payload.items():
        try:
            decoded[str(root_id)] = ObfuscationMatrix.from_dict(matrix_payload)
        except (KeyError, TypeError, ValueError, MatrixValidationError) as error:
            raise FrameFormatError(
                f"invalid matrix payload for {root_id!r}: {error}"
            ) from error
    return decoded


def encode_request(op: str, ticket: int, payload: object) -> Dict[str, object]:
    """One shard op as a JSON-friendly request message.

    The op vocabulary and payload shapes are exactly those of
    :class:`ShardOpExecutor`; only the encodings that are not JSON-native
    change representation (`import_cache`'s snapshot blob rides as its
    UTF-8 text — it *is* versioned JSON already).
    """
    if op == "build":
        privacy_level, delta, epsilon, use_cache = payload
        body: object = {
            "privacy_level": int(privacy_level),
            "delta": int(delta),
            "epsilon": float(epsilon),
            "use_cache": bool(use_cache),
        }
    elif op == "set_priors":
        priors, normalize, version = payload
        body = {
            "priors": {str(node): float(mass) for node, mass in priors.items()},
            "normalize": bool(normalize),
            "version": int(version),
        }
    elif op == "import_cache":
        if not isinstance(payload, (bytes, bytearray)):
            raise FrameFormatError("import_cache payload must be a snapshot blob")
        body = {"snapshot": bytes(payload).decode("utf-8")}
    else:
        # invalidate (int | None), export_cache (int), diagnostics / ping (None)
        body = payload
    return {"kind": "request", "op": str(op), "ticket": int(ticket), "payload": body}


def decode_request(message: Dict[str, object]) -> Tuple[str, int, object]:
    """Inverse of :func:`encode_request`; strict about shapes."""
    op = message.get("op")
    ticket = message.get("ticket")
    if not isinstance(op, str):
        raise FrameFormatError(f"request op must be a string, got {op!r}")
    if isinstance(ticket, bool) or not isinstance(ticket, int):
        raise FrameFormatError(f"request ticket must be an integer, got {ticket!r}")
    body = message.get("payload")
    try:
        if op == "build":
            if not isinstance(body, dict):
                raise FrameFormatError("build payload must be an object")
            payload: object = (
                int(body["privacy_level"]),
                int(body["delta"]),
                float(body["epsilon"]),
                bool(body["use_cache"]),
            )
        elif op == "set_priors":
            if not isinstance(body, dict):
                raise FrameFormatError("set_priors payload must be an object")
            priors = body["priors"]
            if not isinstance(priors, dict):
                raise FrameFormatError("set_priors priors must be an object")
            payload = (
                {str(node): float(mass) for node, mass in priors.items()},
                bool(body["normalize"]),
                int(body["version"]),
            )
        elif op == "import_cache":
            if not isinstance(body, dict) or not isinstance(body.get("snapshot"), str):
                raise FrameFormatError("import_cache payload must carry a snapshot string")
            payload = body["snapshot"].encode("utf-8")
        else:
            payload = body
    except (KeyError, TypeError, ValueError) as error:
        if isinstance(error, FrameFormatError):
            raise
        raise FrameFormatError(f"malformed {op!r} request payload: {error}") from error
    return op, ticket, payload


def encode_result(op: str, result: object) -> object:
    """Encode one op result for the wire (op-specific matrix handling)."""
    if op == "build":
        assert isinstance(result, dict)
        encoded = dict(result)
        encoded["matrices"] = _encode_matrices(result["matrices"])
        return encoded
    if op == "export_cache":
        assert isinstance(result, list)
        entries = []
        for entry in result:
            encoded_entry = dict(entry)
            encoded_entry["matrices"] = _encode_matrices(entry["matrices"])
            entries.append(encoded_entry)
        return entries
    return result


def decode_result(op: str, result: object) -> object:
    """Inverse of :func:`encode_result`."""
    try:
        if op == "build":
            if not isinstance(result, dict):
                raise FrameFormatError("build result must be an object")
            decoded = dict(result)
            decoded["matrices"] = _decode_matrices(result.get("matrices")) or {}
            return decoded
        if op == "export_cache":
            if not isinstance(result, list):
                raise FrameFormatError("export_cache result must be a list")
            entries = []
            for entry in result:
                if not isinstance(entry, dict):
                    raise FrameFormatError("export_cache entries must be objects")
                decoded_entry = dict(entry)
                decoded_entry["matrices"] = _decode_matrices(entry.get("matrices"))
                entries.append(decoded_entry)
            return entries
    except (KeyError, TypeError, ValueError) as error:
        if isinstance(error, FrameFormatError):
            raise
        raise FrameFormatError(f"malformed {op!r} result: {error}") from error
    return result


#: Exception types reconstructed by name on the receiving side, most
#: specific first.  Everything here must be constructible from a single
#: message string; anything unlisted arrives as :class:`RemoteShardError`
#: (the pool treats it as a non-retryable request failure, like any other
#: engine-raised error).  Builtins precede ``CORGIError`` so an unlisted
#: library error that is also a ``ValueError`` keeps its 400 class.
_ERROR_REGISTRY: Tuple[Tuple[str, type], ...] = (
    ("SnapshotFormatError", SnapshotFormatError),
    ("FrameFormatError", FrameFormatError),
    ("MatrixValidationError", MatrixValidationError),
    ("InfeasibleMatrixError", InfeasibleMatrixError),
    ("PruningError", PruningError),
    ("PrecisionReductionError", PrecisionReductionError),
    ("SolverBackendUnavailableError", SolverBackendUnavailableError),
    ("ShardUnavailableError", ShardUnavailableError),
    ("RemoteShardError", RemoteShardError),
    ("ValueError", ValueError),
    ("TypeError", TypeError),
    ("KeyError", KeyError),
    ("OverflowError", OverflowError),
    ("CORGIError", CORGIError),
)


def encode_error(error: BaseException) -> Dict[str, object]:
    """Encode an exception as its closest reconstructible registry type.

    Walking the registry (most specific first) preserves the *family* of
    the error — a ``SnapshotFormatError`` subclass still arrives as a
    ``SnapshotFormatError``, an exotic ``ValueError`` subclass still maps
    to HTTP 400 on the far side — even when the exact class is unknown to
    the peer.  A ``KeyError`` ships its key (``str()`` of a ``KeyError``
    adds quotes) and an ``InfeasibleMatrixError`` its ``solver_status``.
    """
    name = "RemoteShardError"
    for registered, cls in _ERROR_REGISTRY:
        if isinstance(error, cls):
            name = registered
            break
    if isinstance(error, KeyError) and error.args:
        message = str(error.args[0])
    else:
        message = str(error)
    encoded: Dict[str, object] = {"type": name, "message": message}
    solver_status = getattr(error, "solver_status", None)
    if solver_status is not None:
        encoded["solver_status"] = str(solver_status)
    return encoded


def decode_error(payload: object) -> BaseException:
    """Reconstruct a wire error (unknown types become RemoteShardError)."""
    if not isinstance(payload, dict):
        return RemoteShardError(f"malformed remote error payload: {payload!r}")
    name = payload.get("type")
    message = str(payload.get("message", ""))
    for registered, cls in _ERROR_REGISTRY:
        if registered == name:
            error = cls(message)
            if isinstance(error, InfeasibleMatrixError):
                error.solver_status = payload.get("solver_status")
            return error
    return RemoteShardError(f"{name}: {message}")


# --------------------------------------------------------------------- #
# Parent-side handle: one slot's session, tickets and lifecycle
# --------------------------------------------------------------------- #


class ShardHandle:
    """Parent-side view of one shard slot: session, tickets, state.

    Every slot runs the same session over one framed socket: the ready
    frame moves it to READY, response frames resolve tickets, heartbeats
    prove liveness, and EOF or silence reports death to the pool's crash
    handler, which respawns the slot (bounded by ``respawn_limit``).  The
    only difference between slots is where the socket comes from: a
    *local* slot's is one end of a socketpair whose other end a forked
    child serves (``process`` is that child); a *remote* slot dials
    ``address``.  All mutation happens under ``self.lock``.
    """

    def __init__(
        self,
        slot: int,
        address: Optional[Tuple[str, int]] = None,
        *,
        heartbeat_interval_s: float = HEARTBEAT_INTERVAL_S,
        liveness_timeout_s: float = LIVENESS_TIMEOUT_S,
        connect_timeout_s: float = 5.0,
    ) -> None:
        self.slot = slot
        self.address = None if address is None else (str(address[0]), int(address[1]))
        self.heartbeat_interval_s = float(heartbeat_interval_s)
        self.liveness_timeout_s = float(liveness_timeout_s)
        self.connect_timeout_s = float(connect_timeout_s)
        self.lock = threading.Lock()
        self.state = ShardState.STARTING
        self.process = None  # the forked child serving a local slot
        self.connection: Optional[FrameConnection] = None
        self.ready_event = threading.Event()
        self.pending: Dict[int, "_PendingTicket"] = {}
        self.respawns = 0
        self.generation = 0  # bumped on every (re)spawn
        self.priors_version = 0  # last published-priors version this shard carries
        self.dispatched = 0
        self.completed = 0
        self.crash_failures = 0
        self.reconnects = 0

    # ------------------------------------------------------------------ #
    # State machine
    # ------------------------------------------------------------------ #

    def transition(self, target: ShardState) -> None:
        """Move to *target*, enforcing the lifecycle graph (lock held by caller)."""
        if not legal_transition(self.state, target):
            raise RuntimeError(
                f"illegal shard transition {self.state.value} -> {target.value} "
                f"(slot {self.slot})"
            )
        logger.debug(
            "shard %d: %s -> %s", self.slot, self.state.value, target.value
        )
        self.state = target
        if target is ShardState.READY:
            self.ready_event.set()
        else:
            self.ready_event.clear()

    def stale(self, generation: int) -> bool:
        """Whether *generation*'s session is over (superseded or retired)."""
        with self.lock:
            return self.generation != generation or self.state in (
                ShardState.STOPPED,
                ShardState.DEAD,
                ShardState.DRAINED,
            )

    # ------------------------------------------------------------------ #
    # Session: one connection generation, driven on a daemon thread
    # ------------------------------------------------------------------ #

    def start_session(
        self,
        generation: int,
        sock: Optional[socket.socket],
        *,
        on_ready: Callable[["ShardHandle", int, Optional[int]], None],
        on_crash: Callable[["ShardHandle", int], None],
    ) -> None:
        """Serve one generation on a daemon thread, over *sock* (a local
        child's socketpair end) or, when it is None, over a connection the
        session dials to ``address``."""
        threading.Thread(
            target=self._session,
            args=(generation, sock, on_ready, on_crash),
            name=f"corgi-shard-{self.slot}-session",
            daemon=True,
        ).start()

    def _session(self, generation: int, sock, on_ready, on_crash) -> None:
        if sock is None:
            sock = dial(
                self.address,
                timeout_s=self.connect_timeout_s,
                stop=lambda: self.stale(generation),
            )
        if sock is None:
            if not self.stale(generation):
                logger.warning("shard slot %d: cannot reach %s", self.slot, self.address)
                on_crash(self, generation)
            return
        connection = FrameConnection(sock)
        with self.lock:
            if self.generation != generation:
                connection.close()
                return
            self.connection = connection
            if self.address is not None and generation > 1:
                self.reconnects += 1
        try:
            ended = connection.read(
                lambda message: self._handle_message(message, generation, on_ready),
                silence_timeout_s=self.liveness_timeout_s,
                heartbeat_s=self.heartbeat_interval_s,
                stop=lambda: self.stale(generation),
            )
            if ended == "silent":
                logger.warning(
                    "shard slot %d: no frames for %.2f s; declaring the shard dead",
                    self.slot,
                    self.liveness_timeout_s,
                )
        except FrameFormatError as error:
            logger.warning("shard slot %d: corrupt frame stream (%s)", self.slot, error)
        finally:
            connection.close()
        if not self.stale(generation):
            on_crash(self, generation)

    def _handle_message(self, message: Dict[str, object], generation: int, on_ready) -> bool:
        kind = message.get("kind")
        if kind == "response":
            op = message.get("op")
            ticket = message.get("ticket")
            if not isinstance(op, str) or isinstance(ticket, bool) or not isinstance(ticket, int):
                raise FrameFormatError(f"malformed response envelope: {message!r}")
            if message.get("status") == "ok":
                self.resolve(ticket, "ok", decode_result(op, message.get("result")))
            else:
                self.resolve(ticket, "error", decode_error(message.get("error")))
            return True
        if kind == "heartbeat":
            return True  # any frame already counted as life
        if kind == "ready":
            shard_info = message.get("shard")
            announced = None
            if isinstance(shard_info, dict):
                version = shard_info.get("priors_version")
                if isinstance(version, int) and not isinstance(version, bool):
                    announced = version
            on_ready(self, generation, announced)
            return True
        if kind == "protocol_error":
            raise FrameFormatError(
                f"shard reported a protocol error: {message.get('detail')!r}"
            )
        raise FrameFormatError(f"unknown frame kind {kind!r}")

    def send(self, op: str, payload, ticket: int) -> None:
        """Post one request frame without registering a ticket.

        Its answer is dropped by :meth:`resolve`; the pool uses this for
        the priors re-send queued ahead of the READY transition.
        """
        connection = self.connection
        if connection is not None:
            connection.send(encode_request(op, ticket, payload))

    def retire(self) -> None:
        """End the current connection with ``bye``; a local child exits on it.

        ``bye``, never ``shutdown``, for a remote slot too: the pool does not
        own the remote process — its host's supervisor does — so retiring
        the slot only ends the connection, and the server keeps its engine
        (and cache) for a later respawn or a restarted head to redial.
        """
        with self.lock:
            connection = self.connection
        if connection is not None:
            connection.send({"kind": "bye"})
            connection.close()

    def reap(self, timeout_s: float) -> None:
        """Join a local slot's child, killing it if it outlives *timeout_s*."""
        with self.lock:
            process = self.process
        if process is None:
            return
        process.join(timeout=timeout_s)
        if process.is_alive():
            process.kill()  # also ends a frozen (SIGSTOPped) child
            process.join(timeout=5.0)

    # ------------------------------------------------------------------ #
    # Tickets
    # ------------------------------------------------------------------ #

    def submit(
        self, op: str, payload, ticket: int, *, allow_draining: bool = False
    ) -> "_PendingTicket":
        """Register a ticket and post the request; raises if not READY.

        ``allow_draining=True`` is the drain protocol's narrow exception:
        the pool must still run ``export_cache`` on a DRAINING shard (whose
        READY days are over by definition) — regular routed work is never
        submitted with it.
        """
        message = encode_request(op, ticket, payload)
        with self.lock:
            accepted = (
                (ShardState.READY, ShardState.DRAINING)
                if allow_draining
                else (ShardState.READY,)
            )
            if self.state not in accepted:
                raise ShardUnavailableError(
                    f"shard {self.slot} is {self.state.value}, not ready"
                )
            entry = _PendingTicket()
            self.pending[ticket] = entry
            self.dispatched += 1
            connection = self.connection
        # Sending outside the lock: sendall can block on a full socket and
        # must never do so while holding the ticket lock.  A failed send
        # is noticed by the session reader, whose crash path fails the
        # ticket over.
        connection.send(message)
        return entry

    def resolve(self, ticket: int, status: str, payload) -> None:
        """Deliver a shard answer to its waiting caller (session thread)."""
        with self.lock:
            entry = self.pending.pop(ticket, None)
            if entry is None:
                # Ticket already failed over (e.g. resolved as crashed just
                # before the respawned shard's answer arrived) — drop it.
                return
            self.completed += 1
        if status == "ok":
            entry.result = payload
        else:
            entry.error = payload
        entry.event.set()

    def abandon(self, ticket: int) -> None:
        """Forget a ticket whose caller gave up waiting (timeout).

        Without this, a timed-out request would sit in ``pending`` forever,
        inflating the ``in_flight`` gauge — and a stray late answer would be
        counted as completed work instead of being dropped by
        :meth:`resolve`.
        """
        with self.lock:
            self.pending.pop(ticket, None)

    def fail_pending(self, error: BaseException) -> int:
        """Fail every in-flight ticket (crash path); return how many."""
        with self.lock:
            entries = list(self.pending.values())
            self.pending.clear()
            self.crash_failures += len(entries)
        for entry in entries:
            entry.error = error
            entry.event.set()
        return len(entries)

    def info(self) -> Dict[str, object]:
        """JSON-friendly snapshot of this slot's lifecycle counters."""
        with self.lock:
            process = self.process
            payload: Dict[str, object] = {
                "slot": self.slot,
                "state": self.state.value,
                "pid": None if process is None else process.pid,
                # A remote slot has no process to probe: it is alive while
                # its session holds the connection open.
                "alive": (
                    process.is_alive()
                    if process is not None
                    else self.state in (ShardState.READY, ShardState.DRAINING)
                ),
                "respawns": self.respawns,
                "generation": self.generation,
                "dispatched": self.dispatched,
                "completed": self.completed,
                "in_flight": len(self.pending),
                "crash_failures": self.crash_failures,
            }
            if self.address is not None:
                payload["remote"] = True
                payload["address"] = f"{self.address[0]}:{self.address[1]}"
                payload["reconnects"] = self.reconnects
            return payload


class _PendingTicket:
    """Rendezvous for one outstanding shard request."""

    __slots__ = ("event", "result", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.result = None
        self.error: Optional[BaseException] = None
