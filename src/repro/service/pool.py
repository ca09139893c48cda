"""Sharded multi-process engine pool behind the CORGI service API.

PR 2 made serving thread-safe in one process; this module makes it scale
with cores and survive worker death.  An :class:`EnginePool` hosts N shard
processes (see :mod:`repro.service.shard`), each running its own
:class:`~repro.server.engine.ForestEngine` replica over the same tree and
config, and answers the same engine protocol (``build_forest_traced`` /
``build_forest``) that a :class:`~repro.service.service.CORGIService`
drives — so the whole engine → service → transport stack gains process
parallelism without any caller changing.

Routing is a **consistent-hash ring** over the normalized request key
``(privacy_level, δ, effective ε)``: identical requests always land on the
same shard, so the service's single-flight coalescing keeps collapsing a
burst of identical requests into one build *on one process*, while distinct
keys spread across shards and run truly in parallel.  The ring also defines
each key's failover order — when a shard dies mid-request, the pool fails
the in-flight tickets, retries them on the next live shard along the ring,
and respawns the dead slot in the background (up to ``respawn_limit`` times
per slot).  Every shard speaks the frame protocol of
:mod:`repro.service.wire`: a local slot's shard is a child forked onto one
end of a ``socketpair`` (:func:`~repro.service.netshard.serve_local_shard`),
and one session thread per slot heartbeats it, so EOF (a SIGKILLed child)
or silence past ``liveness_timeout_s`` (a frozen one) reports its death.

Cache lifecycle is a broadcast concern: :meth:`EnginePool.invalidate` and
:meth:`EnginePool.publish_priors` fan out to every shard so a live prior
update flushes all replicas' caches at once (exposed on the wire as
``POST /admin/priors`` / ``POST /admin/invalidate``).

Shards also retire *warm*: :meth:`EnginePool.drain` runs the graceful
hand-off protocol (stop new assignments, flush in-flight work, ship the
shard's live cache to its ring siblings as a versioned snapshot — see
:mod:`repro.service.handoff` — then retire the worker), and on SIGKILL the
crash handler replays the slot's hot-key ledger to the siblings so even an
unplanned failover pre-warms instead of cold-building.  :meth:`respawn`
revives a drained slot and :meth:`rebalance` re-homes cached keys after
the topology settles.  A cached forest has one shape from export to
import: a shard exports its cache as a snapshot stamped with its own
priors version, and drain, crash recovery, rebalance and the boot
pre-warm all ship entries through one path; the receiving replica alone
decides whether a payload's priors version lets it install.  The pool
counts these events itself (:meth:`pool_stats`, reported under
``cache_diagnostics()["pool"]``).

Shards need not live on this host: ``remote_shards`` adds ring slots that
dial ``python -m repro.service.netshard`` servers over TCP instead of
forking a child — the session, routing, failover, drain and warm hand-off
are the same code for both, so a pool can mix shard processes on this
machine with replicas on other machines behind one service.

With ``state_dir`` set, the pool gains a **durable state tier**: control
events (``publish_priors`` / ``invalidate``) are committed to a crash-safe
write-ahead log (:mod:`repro.service.controllog`) before they are applied,
and every built forest is persisted to a compressed snapshot store
(:mod:`repro.service.store`) by a background thread.  A fresh pool booted
over the same directory replays the log — recovering the authoritative
priors generation from disk instead of resetting replicas defensively —
and pre-warms its shards (local *and* remote) from the store, so even a
full-fleet kill -9 restarts warm.  Every durability failure (torn log
tail, corrupt snapshot, disk full) degrades to cold rebuild with typed
diagnostics; none can crash a boot or serve a stale priors generation
(stored payloads are version-checked at import exactly like hand-offs).

The durable control plane also replicates (:mod:`repro.service
.replication`): a head started with ``replication_port`` becomes the
*primary*, streaming every durable control-log record to follower heads
started with ``replicate_from="host:port"``.  Followers commit each
record verbatim to their own log before applying it (store-and-forward),
keep an fsync'd per-source cursor for crash-safe resume, refuse local
control writes (:class:`~repro.service.replication.ReplicationRoleError`),
and reset defensively when their replayed version exceeds the primary's
durable head.  ``seed_store_dir`` additionally lets a follower pre-warm
read-only from another head's snapshot store when both share a pipeline
fingerprint.  Replication lag, cursors and applied counters ride in
:meth:`durability_diagnostics` (``GET /admin/durability``).

Determinism: every shard runs the same serial engine code path, so pooled
forests are byte-identical to single-process ones for every shard count —
local, remote or mixed.
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
import multiprocessing
import os
import queue as queue_module
import socket
import threading
import time
from dataclasses import replace
from pathlib import Path
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.core.exceptions import CORGIError
from repro.core.objective import TargetDistribution
from repro.server.engine import ServerConfig, validate_prior_masses
from repro.server.privacy_forest import PrivacyForest
from repro.service.controllog import ControlLog
from repro.service.handoff import (
    CacheSnapshot,
    SnapshotEntry,
    SnapshotFormatError,
    decode_snapshot,
    encode_snapshot,
)
from repro.service.netshard import parse_shard_hosts, serve_local_shard
from repro.service.replication import ReplicationClient, ReplicationRoleError, ReplicationServer
from repro.service.store import SnapshotStore, pipeline_store_fingerprint
from repro.service.shard import (
    ShardCrashedError,
    ShardHandle,
    ShardSpec,
    ShardState,
    ShardUnavailableError,
)
from repro.service.wire import parse_address
from repro.tree.location_tree import LocationTree
from repro.utils.logging import get_logger

logger = get_logger(__name__)

__all__ = [
    "EnginePool",
    "EnginePoolError",
    "PoolTimeoutError",
    "ShardCrashedError",
    "ShardState",
    "build_ring",
    "ring_failover_order",
]

#: Virtual nodes per shard on the consistent-hash ring.  Plenty for even
#: spread at the shard counts a single host runs (2–64).
RING_VNODES = 32

#: Cumulative size budget for snapshot payloads in one hand-off (matrix
#: bytes).  Entries past the budget ship key-only and the sibling pre-warms
#: them by rebuilding.
HANDOFF_PAYLOAD_BUDGET_BYTES = 8 << 20

#: Most-recently-used request keys remembered per shard slot — the ledger
#: the pool replays to ring siblings when the slot dies without a drain.
HOT_KEY_LEDGER_SIZE = 128

#: Bound on the write-through persistence queue feeding the snapshot
#: store.  A full queue drops the write (counted) rather than ever
#: back-pressuring the request path.
PERSIST_QUEUE_SIZE = 256

#: Serializes socketpair → fork → close-child-end across every pool in the
#: process.  Forks copy every open descriptor, so a child forked while
#: another slot's child end is still open in this process would hold that
#: end too — and the slot's session would never see EOF when its own child
#: dies.
_FORK_LOCK = threading.Lock()


class EnginePoolError(CORGIError):
    """The pool cannot serve the request (every shard dead, pool closed…)."""


class PoolTimeoutError(EnginePoolError):
    """A shard did not answer within ``request_timeout_s``."""


def _normalize_remote_addresses(
    remote_shards: Optional[Sequence[object]],
) -> List[Tuple[str, int]]:
    """Parse and check remote slot specs (``host:port`` strings or (host, port) pairs)."""
    addresses: List[Tuple[str, int]] = []
    for spec in remote_shards or ():
        if isinstance(spec, str):
            addresses.extend(parse_shard_hosts(spec))
        else:
            addresses.append(parse_address(spec))
    return addresses


def _stable_hash(token: str) -> int:
    """64-bit stable hash (process-independent, unlike builtin ``hash``)."""
    return int.from_bytes(hashlib.sha256(token.encode("utf-8")).digest()[:8], "big")


def build_ring(num_shards: int, vnodes: int = RING_VNODES) -> List[Tuple[int, int]]:
    """The consistent-hash ring for *num_shards* slots (pure, deterministic).

    Module-level (rather than pool-internal) so routing properties — ring
    order is a permutation of the slots, ownership after any drain sequence
    is unique — can be property-tested without spawning worker processes.
    """
    points = [
        (_stable_hash(f"corgi-shard-{slot}-vnode-{vnode}"), slot)
        for slot in range(num_shards)
        for vnode in range(vnodes)
    ]
    points.sort()
    return points


def ring_failover_order(
    ring: List[Tuple[int, int]], key: Tuple[int, int, float], num_shards: int
) -> List[int]:
    """Every slot in the key's ring-walk order (home shard first).

    Deterministic across processes and runs, and always a permutation of
    ``range(num_shards)`` — so for any non-empty set of live slots, the
    first live slot along the order exists and is unique: every key is
    owned by exactly one live shard, whatever was drained or died.
    """
    privacy_level, delta, epsilon = key
    point = _stable_hash(f"{int(privacy_level)}:{int(delta)}:{float(epsilon)!r}")
    start = bisect.bisect_right(ring, (point, num_shards))
    order: List[int] = []
    seen = set()
    for index in range(len(ring)):
        _, slot = ring[(start + index) % len(ring)]
        if slot not in seen:
            seen.add(slot)
            order.append(slot)
            if len(order) == num_shards:
                break
    return order


def _merge_diagnostics(reports: Iterable[Mapping[str, object]]) -> Dict[str, object]:
    """Sum engine diagnostics key by key (pure; the pool's shard merge).

    Numbers add and dicts recurse.  Each ``hit_rate`` is recomputed from
    the summed ``hits`` and ``misses``, so it stays a rate.
    """
    reports = list(reports)
    merged: Dict[str, object] = {}
    for name in dict.fromkeys(name for report in reports for name in report):
        values = [report[name] for report in reports if name in report]
        if isinstance(values[0], Mapping):
            merged[name] = _merge_diagnostics(values)
        else:
            merged[name] = sum(values)
    if "hit_rate" in merged:
        lookups = merged.get("hits", 0) + merged.get("misses", 0)
        merged["hit_rate"] = merged.get("hits", 0) / lookups if lookups else 0.0
    return merged


class EnginePool:
    """N forest-engine replicas in shard processes behind one provider API.

    Parameters
    ----------
    tree:
        The location tree to serve.  The parent keeps its own handle (for
        request normalization and reattaching returned matrices); each
        local shard inherits a copy when it is forked.
    config:
        Engine configuration, shared by every shard (snapshot — mutating
        the caller's object afterwards is inert, exactly like
        :class:`~repro.server.engine.ForestEngine`).
    targets:
        Optional explicit service-target distribution, forwarded verbatim.
    num_shards:
        *Local* shard-process count.  Sized to cores for CPU-bound LP
        work; may be 0 when ``remote_shards`` is non-empty (a purely
        remote pool).
    remote_shards:
        Socket shard addresses — ``"host:port"`` strings (comma-joined
        accepted) or ``(host, port)`` pairs.  Each address becomes one
        ring slot that dials a ``python -m repro.service.netshard`` server
        instead of forking a child; local and remote slots are
        indistinguishable to routing, failover and drain.  The remote
        servers must be built over the same tree and engine config as this
        pool (the replica contract).
    respawn_limit:
        How many times one slot may be respawned after a crash before it is
        declared permanently dead.
    request_timeout_s:
        Upper bound on one request's wait, including failover retries.
    chaos_build_delay_s:
        Test/chaos hook: every shard sleeps this long before each build,
        widening the in-flight window so crash injection is deterministic.
    warm_recovery:
        Replay a crashed shard's hot-key ledger to its ring siblings
        (post-crash warm failover).  On by default; benchmarks disable it
        to measure the cold-failover baseline.
    heartbeat_interval_s / liveness_timeout_s / connect_timeout_s:
        Shard liveness knobs: how often every shard is pinged, how long
        silence means death (a frozen child or host; a dead child is
        noticed at once by EOF), and — remote slots only — the per-redial
        budget of the bounded reconnect backoff.
    state_dir:
        Directory for the durable state tier (``None`` = RAM-only, the
        previous behaviour).  Holds the crash-safe control log
        (``control.log``) replayed on boot and the compressed snapshot
        store (``snapshots/``) that pre-warms booting shards.  The
        directory is created if missing; any failure to open or replay it
        is logged, surfaced in :meth:`durability_diagnostics`, and the
        pool boots cold — durability problems never block serving.

    The pool answers the engine protocol of
    :class:`~repro.server.engine.ForestEngine` (``build_forest_traced`` /
    ``build_forest`` / ``tree`` / ``config`` / ``publish_leaf_priors`` /
    ``cache_diagnostics``), so both ``CORGIService(EnginePool(...))`` and
    ``CORGIClient(tree, EnginePool(...))`` work unchanged.
    """

    def __init__(
        self,
        tree: LocationTree,
        config: Optional[ServerConfig] = None,
        *,
        targets: Optional[TargetDistribution] = None,
        num_shards: int = 2,
        remote_shards: Optional[Sequence[object]] = None,
        respawn_limit: int = 3,
        request_timeout_s: float = 600.0,
        chaos_build_delay_s: float = 0.0,
        warm_recovery: bool = True,
        heartbeat_interval_s: float = 0.25,
        liveness_timeout_s: float = 1.0,
        connect_timeout_s: float = 5.0,
        state_dir: Optional[os.PathLike] = None,
        replication_port: Optional[int] = None,
        replication_host: str = "127.0.0.1",
        replicate_from: Optional[str] = None,
        seed_store_dir: Optional[os.PathLike] = None,
    ) -> None:
        addresses = _normalize_remote_addresses(remote_shards)
        if num_shards < 0 or (num_shards < 1 and not addresses):
            raise ValueError(f"num_shards must be >= 1, got {num_shards}")
        if replication_port is not None and replicate_from is not None:
            raise ValueError(
                "a head is either a replication primary (replication_port) or a "
                "follower (replicate_from), never both — multi-primary is not "
                "supported"
            )
        if (replication_port is not None or replicate_from is not None) and state_dir is None:
            raise ValueError(
                "replication requires state_dir: the primary streams its durable "
                "control log and a follower keeps its cursor beside its own"
            )
        # Parse before any shard spawns so a malformed address cannot leak
        # half-started shard processes out of a raising constructor.
        replication_source = None if replicate_from is None else parse_address(replicate_from)
        if respawn_limit < 0:
            raise ValueError(f"respawn_limit must be non-negative, got {respawn_limit}")
        self.tree = tree
        self.config = replace(config) if config is not None else ServerConfig()
        self.config.validate()
        self.local_shards = int(num_shards)
        self.remote_addresses: List[Tuple[str, int]] = addresses
        self.num_shards = self.local_shards + len(addresses)
        self.respawn_limit = int(respawn_limit)
        self.request_timeout_s = float(request_timeout_s)
        self._chaos_build_delay_s = float(chaos_build_delay_s)
        self._warm_recovery = bool(warm_recovery)
        self._targets = targets
        # Fork: a local shard inherits its socketpair end and the tree
        # without pickling either.
        self._ctx = multiprocessing.get_context("fork")
        self._lifecycle_lock = threading.Lock()
        self._ticket_lock = threading.Lock()
        # Serializes parent-tree prior mutation against parent-side prior
        # reads (publish_leaf_priors), so the admin read can never observe a
        # half-applied live update.
        self._tree_lock = threading.Lock()
        self._tickets = itertools.count(1)
        self._closed = False
        # Stats live under their own leaf lock, so any path — the crash
        # handler included — can bump them while holding a pool lock.
        self._stats_lock = threading.Lock()
        self._stats = {
            "respawns": 0,
            "retries": 0,
            "crash_failures": 0,
            "drains": 0,
            "handoffs": 0,
            "warm_failovers": 0,
            "handoff_payloads": 0,
            "handoff_prewarms": 0,
            "handoff_dropped": 0,
            "store_prewarm_imported": 0,
            "store_prewarm_prewarmed": 0,
            "store_prewarm_skipped": 0,
            "store_prewarm_stale": 0,
            "store_prewarm_foreign": 0,
            "store_prewarm_dropped": 0,
            "store_persist_dropped": 0,
        }
        # Per-slot hot-key ledger: the most recently served request keys,
        # replayed to ring siblings when the slot dies without a drain so
        # even SIGKILL failover pre-warms instead of cold-building.
        self._ledger_lock = threading.Lock()
        self._hot_keys: Dict[int, Dict[Tuple[int, int, float], float]] = {}
        # Live-prior-update bookkeeping: a shard spawned (and hence copied
        # the tree) before the latest publish_priors must have the update
        # re-sent when it becomes READY — see _mark_ready.
        self._priors_version = 0
        self._current_priors: Optional[Tuple[Dict[str, float], bool, int]] = None
        # Bumped after every priors broadcast (local publish, replicated
        # publish or replication reset) has been answered; the service's
        # single-flight gate lets a request join only a build led under the
        # generation it read.
        self.priors_generation = 0
        # Durable state tier (optional): replay the control log *before*
        # spawning shards, so every shard is stamped with the recovered
        # priors generation and carries the replayed tree priors.
        self._state_dir: Optional[Path] = None
        self._control_log: Optional[ControlLog] = None
        self._store: Optional[SnapshotStore] = None
        self._seed_store: Optional[SnapshotStore] = None
        self._seed_store_dir = seed_store_dir
        self._store_fingerprint = ""
        self._durability_errors: List[str] = []
        self._persist_queue: Optional[queue_module.Queue] = None
        self._persister: Optional[threading.Thread] = None
        # Orders write-through persists against store purges: every purge
        # bumps the epoch, and a persist dispatched under an older epoch is
        # dropped, so a forest queued before an invalidate can never land in
        # the store after its purge (and be pre-warmed by the next boot).
        self._store_lock = threading.Lock()
        self._store_epoch = 0
        self._prewarm_done = threading.Event()
        # Replication role: decided by configuration, enforced before the
        # client/server even starts — a follower must refuse local control
        # writes whether or not its tailer managed to come up.
        self._replication_follower = replicate_from is not None
        self._replication_server: Optional[ReplicationServer] = None
        self._replication_client: Optional[ReplicationClient] = None
        if state_dir is not None:
            self._open_durable_state(state_dir)
        self._ring: List[Tuple[int, int]] = build_ring(self.num_shards)
        # Local slots first, then one slot per remote address — the ring
        # treats them identically (slot number is all that is hashed), so
        # keys spread across hosts exactly as they spread across processes.
        self._shards: List[ShardHandle] = [
            ShardHandle(
                slot,
                address,
                heartbeat_interval_s=heartbeat_interval_s,
                liveness_timeout_s=liveness_timeout_s,
                connect_timeout_s=connect_timeout_s,
            )
            for slot, address in enumerate(
                [None] * self.local_shards + list(self.remote_addresses)
            )
        ]
        for shard in self._shards:
            self._spawn(shard)
        if self._store is not None:
            self._persist_queue = queue_module.Queue(maxsize=PERSIST_QUEUE_SIZE)
            self._persister = threading.Thread(
                target=self._persist_loop, name="corgi-store-persister", daemon=True
            )
            self._persister.start()
            threading.Thread(
                target=self._store_prewarm, name="corgi-store-prewarm", daemon=True
            ).start()
        else:
            self._prewarm_done.set()
        if replication_port is not None:
            if self._control_log is None:
                self._durability_errors.append(
                    "replication primary disabled: control log unavailable"
                )
            else:
                self._replication_server = ReplicationServer(
                    self._control_log,
                    host=replication_host,
                    port=int(replication_port),
                    fingerprint=self._store_fingerprint,
                    state_provider=self._replication_state,
                )
        if replicate_from is not None:
            if self._state_dir is None or self._control_log is None:
                self._durability_errors.append(
                    "replication follower disabled: durable state unavailable"
                )
            else:
                self._replication_client = ReplicationClient(
                    self,
                    replication_source,
                    state_dir=self._state_dir,
                    fingerprint=self._store_fingerprint,
                    heartbeat_interval_s=heartbeat_interval_s,
                    liveness_timeout_s=liveness_timeout_s,
                    connect_timeout_s=connect_timeout_s,
                )

    # ------------------------------------------------------------------ #
    # Durable state tier: control-log replay, persistence, pre-warm
    # ------------------------------------------------------------------ #

    def _open_durable_state(self, state_dir: os.PathLike) -> None:
        """Open (or create) the state directory and replay the control log.

        Every failure mode — unreadable directory, torn or corrupt log,
        undecodable priors record — is caught, logged, and recorded in
        :meth:`durability_diagnostics`; the pool then boots cold.  A
        durability problem must never crash a boot.
        """
        self._state_dir = Path(state_dir)
        try:
            self._state_dir.mkdir(parents=True, exist_ok=True)
            self._control_log = ControlLog(self._state_dir / "control.log")
            self._recover_from_control_log()
            self._store_fingerprint = pipeline_store_fingerprint(
                self.tree, self.config, self._targets
            )
            self._store = SnapshotStore(
                self._state_dir / "snapshots", fingerprint=self._store_fingerprint
            )
            if self._seed_store_dir is not None:
                # Warm-boot seed shared across heads of the same pipeline
                # fingerprint (typically the primary's snapshot directory):
                # strictly read-only — this head pre-warms from it but all
                # its own write-through persistence stays in its own store.
                self._seed_store = SnapshotStore(
                    self._seed_store_dir,
                    fingerprint=self._store_fingerprint,
                    read_only=True,
                )
        except Exception as error:  # noqa: BLE001 - durability never blocks a boot
            self._durability_errors.append(f"durable state unavailable: {error}")
            logger.exception(
                "durable state tier under %s unavailable; booting cold", state_dir
            )

    def _recover_from_control_log(self) -> None:
        """Apply the last replayed ``publish_priors`` to the parent tree.

        Restores the authoritative priors generation from disk: the version
        of the newest committed publish becomes the pool's priors version
        (so a warm replica announcing it at READY is recognized rather than
        reset), and the masses are re-applied to the parent tree so every
        spawned shard inherits the recovered priors.  A record that fails
        vetting (hand-edited log) is surfaced as a diagnostic and skipped —
        the version still advances so it can never be reissued.
        """
        assert self._control_log is not None
        replay = self._control_log.replay
        if replay.error:
            self._durability_errors.append(f"control-log tail: {replay.error}")
        last_publish: Optional[Dict[str, object]] = None
        for record in replay.records:
            if record.get("type") == "publish_priors":
                last_publish = record
        if last_publish is None:
            return
        version = last_publish.get("version")
        if not isinstance(version, int) or isinstance(version, bool) or version <= 0:
            self._durability_errors.append(
                f"replayed publish_priors carries invalid version {version!r}"
            )
            return
        try:
            vetted = validate_prior_masses(last_publish.get("priors"))
            normalize = bool(last_publish.get("normalize", True))
            self._apply_tree_priors(vetted, normalize)
        except Exception as error:  # noqa: BLE001 - a bad record boots cold
            self._durability_errors.append(f"replayed priors rejected: {error}")
            logger.warning(
                "control-log priors v%s failed to apply (%s); keeping seed priors",
                version,
                error,
            )
            self._priors_version = version
            return
        self._priors_version = version
        self._current_priors = (vetted, normalize, version)
        logger.info(
            "replayed %d control-log record(s); priors generation v%d recovered "
            "from disk",
            len(replay.records),
            version,
        )

    def _schedule_persist(
        self,
        shard: ShardHandle,
        key: Tuple[int, int, float],
        result: Mapping[str, object],
        store_epoch: int,
        priors_version: int,
    ) -> None:
        """Queue one freshly built forest for write-through persistence.

        *store_epoch* and *priors_version* are the store epoch and the
        shard's priors version when the build was dispatched.  A version
        read at dispatch can only be older than the priors the build used
        (a publish queued behind the build may be acknowledged before the
        build answers), so a wrong stamp makes the next boot skip the entry
        as stale — it never serves a forest under priors it was not built on.
        """
        persist_queue = self._persist_queue
        if persist_queue is None:
            return
        matrices = result.get("matrices")
        if not matrices:
            return
        entry = SnapshotEntry(
            privacy_level=key[0],
            delta=key[1],
            epsilon=key[2],
            matrices=dict(matrices),
        )
        try:
            persist_queue.put_nowait((shard.slot, priors_version, entry, store_epoch))
        except queue_module.Full:
            self._bump("store_persist_dropped")

    def _persist_loop(self) -> None:
        """Background writer: snapshot-encode queued forests into the store."""
        while True:
            try:
                item = self._persist_queue.get(timeout=0.2)
            except queue_module.Empty:
                if self._closed:
                    return
                continue
            if item is None:
                return
            slot, version, entry, store_epoch = item
            try:
                self._store_entry(slot, version, entry, store_epoch)
            except Exception:  # noqa: BLE001 - persistence must not die mid-run
                # A snapshot-encode failure is a persistence gap exactly
                # like a failed disk write: count it where the durability
                # endpoint looks, or /admin/durability under-reports.
                self._store.count_write_error()
                logger.exception("snapshot persistence failed for key %s", entry.key)

    def _purge_store(self, privacy_level: Optional[int]) -> None:
        """Purge stored snapshots (one level, or all) and drop in-flight persists."""
        if self._store is None:
            return
        with self._store_lock:
            self._store_epoch += 1
            self._store.purge(privacy_level)

    def _store_entry(
        self,
        slot: int,
        version: int,
        entry: SnapshotEntry,
        store_epoch: Optional[int] = None,
    ) -> bool:
        """Write one entry to the store as a single-entry snapshot blob.

        With *store_epoch*, the write is dropped if the store was purged
        since that epoch was read.
        """
        blob = encode_snapshot(
            CacheSnapshot(shard_slot=slot, priors_version=version, entries=(entry,))
        )
        with self._store_lock:
            if store_epoch is not None and store_epoch != self._store_epoch:
                return False
            return self._store.put(entry.privacy_level, entry.delta, entry.epsilon, blob)

    def _persist_exported(self, snapshot: CacheSnapshot) -> int:
        """Persist a draining shard's exported payload entries (synchronous)."""
        if self._store is None:
            return 0
        persisted = 0
        for entry in snapshot.entries:
            if entry.matrices is None:
                continue
            try:
                persisted += self._store_entry(
                    snapshot.shard_slot, snapshot.priors_version, entry
                )
            except Exception as error:  # noqa: BLE001 - skip the one bad entry
                logger.warning("could not persist drained entry %s: %s", entry.key, error)
        return persisted

    def _store_prewarm(self) -> None:
        """Boot-time pre-warm: import every stored snapshot into its home shard.

        Runs on a daemon thread after the shards spawn.  An entry whose
        file name is not the one this pool's namespace fingerprint gives
        its key was written under another pipeline fingerprint (another
        config, targets or tree sharing the directory): it is skipped and
        counted as foreign.  Snapshots whose priors version differs from
        the replayed generation are skipped (and counted) — and even for
        matching ones the shard executor re-checks the version at import,
        so a stored payload can never be served under different priors.
        The rest ship to their home shards through :meth:`_transfer_entries`,
        the hand-off path.  Any per-blob failure is counted and the loop
        moves on; the thread can only end by finishing or by pool close.
        """
        try:
            try:
                self.wait_ready(timeout_s=self.request_timeout_s)
            except EnginePoolError as error:
                logger.warning("store pre-warm: pool not ready (%s)", error)
                return
            with self._lifecycle_lock:
                pool_version = self._priors_version
            # Own store first, then the shared read-only seed (if any):
            # a key present in both imports twice, which the shard-side
            # idempotent import absorbs — correctness never depends on
            # deduplicating the warm boot.
            sources = [self._store]
            if self._seed_store is not None:
                sources.append(self._seed_store)
            for store, name, blob in (
                (store, name, blob)
                for store in sources
                for name, blob in store.load_all()
            ):
                if self._closed:
                    return
                try:
                    snapshot = decode_snapshot(blob)
                except SnapshotFormatError as error:
                    store.quarantine_blob(name, error)
                    continue
                entries = tuple(
                    entry for entry in snapshot.entries if store.filename_for(*entry.key) == name
                )
                if len(entries) < len(snapshot.entries):
                    self._bump("store_prewarm_foreign", len(snapshot.entries) - len(entries))
                    logger.info(
                        "store pre-warm: %s was written under another pipeline "
                        "fingerprint; skipping",
                        name,
                    )
                if entries and snapshot.priors_version != pool_version:
                    self._bump("store_prewarm_stale", len(entries))
                    logger.info(
                        "store pre-warm: %s is from priors v%d (pool is at v%d); "
                        "skipping — the key will rebuild on demand",
                        name,
                        snapshot.priors_version,
                        pool_version,
                    )
                    continue
                deadline = time.monotonic() + self.request_timeout_s
                try:
                    report = self._transfer_entries(
                        replace(snapshot, entries=entries), deadline, exclude_slot=None
                    )
                except EnginePoolError as error:
                    self._bump("store_prewarm_dropped", len(entries))
                    logger.warning("store pre-warm of %s failed: %s", name, error)
                    continue
                for outcome in ("imported", "prewarmed", "skipped", "dropped"):
                    self._bump(f"store_prewarm_{outcome}", report[outcome])
        except Exception:  # noqa: BLE001 - pre-warm must never take the pool down
            logger.exception("store pre-warm thread failed")
        finally:
            self._prewarm_done.set()

    def wait_prewarmed(self, timeout_s: float = 60.0) -> bool:
        """Block until the boot-time store pre-warm finished (True) or timeout."""
        return self._prewarm_done.wait(timeout=timeout_s)

    @property
    def priors_version(self) -> int:
        """The pool's current (possibly disk-replayed) priors generation."""
        with self._lifecycle_lock:
            return self._priors_version

    def durability_diagnostics(self) -> Dict[str, object]:
        """State of the durable tier: log replay, store counters, pre-warm."""
        info: Dict[str, object] = {
            "durable": self._control_log is not None or self._store is not None,
            "state_dir": None if self._state_dir is None else str(self._state_dir),
            "errors": list(self._durability_errors),
            "prewarm_complete": self._prewarm_done.is_set(),
        }
        if self._control_log is not None:
            info["control_log"] = self._control_log.stats()
        if self._store is not None:
            info["store"] = self._store.stats()
        if self._seed_store is not None:
            info["seed_store"] = self._seed_store.stats()
        if self._replication_server is not None:
            info["replication"] = self._replication_server.diagnostics()
        elif self._replication_client is not None:
            info["replication"] = self._replication_client.diagnostics()
        elif self._replication_follower:
            info["replication"] = {"role": "follower", "connected": False}
        with self._stats_lock:
            info["prewarm"] = {
                name: self._stats[name]
                for name in self._stats
                if name.startswith("store_prewarm_")
            }
        return info

    # ------------------------------------------------------------------ #
    # Replication: primary/follower control-plane convergence
    # ------------------------------------------------------------------ #

    def _require_primary(self, operation: str) -> None:
        """Refuse local control writes on a follower head.

        Accepting them would fork the version sequence away from the
        primary's log — the split-brain this layer exists to prevent.
        Operators (and the HTTP admin surface) get a typed 400-class error
        pointing at the primary.
        """
        if self._replication_follower:
            raise ReplicationRoleError(
                f"{operation} refused: this head replicates from "
                f"{getattr(self._replication_client, 'source', 'a primary')} — "
                "control writes go to the primary"
            )

    def _replication_state(self) -> Tuple[Dict[str, float], bool]:
        """The authoritative priors masses shipped in a ``reset`` frame.

        The parent tree's current leaf priors are already normalized, so
        the reset applies them verbatim (``normalize=False``).
        """
        with self._tree_lock:
            priors = {
                str(leaf.node_id): float(leaf.prior) for leaf in self.tree.leaves()
            }
        return priors, False

    def apply_replicated_control(self, record: Mapping[str, object]) -> None:
        """Apply one replicated control record at the *primary's* version.

        The follower-side twin of ``publish_priors`` / ``invalidate``:
        same tree mutation, same broadcast, but no local version
        allocation and no local log append — the replication client
        already committed the record verbatim (store-and-forward), so this
        head's log carries the primary's exact sequence.
        """
        record_type = record.get("type")
        version = record.get("version")
        if not isinstance(version, int) or isinstance(version, bool) or version <= 0:
            raise ValueError(f"replicated record carries invalid version {version!r}")
        if record_type == "publish_priors":
            vetted = validate_prior_masses(record.get("priors"))
            normalize = bool(record.get("normalize", True))
            self._apply_tree_priors(vetted, normalize)
            payload = (vetted, normalize, version)
            with self._lifecycle_lock:
                self._priors_version = max(self._priors_version, version)
                self._current_priors = payload
            self._broadcast_priors(version, payload)
        elif record_type == "invalidate":
            level = record.get("privacy_level")
            level = None if level is None else int(level)
            self._purge_store(level)
            self._broadcast("invalidate", level)
        else:
            raise ValueError(f"unknown replicated control record type {record_type!r}")

    def reset_for_replication(
        self,
        last_version: int,
        priors: Optional[Mapping[str, float]],
        normalize: bool = False,
    ) -> None:
        """Defensive reset: this head replayed a generation the primary
        never committed (the PR 5 split-brain rule, now log-driven).

        The divergent local log is rotated aside (``control.log
        .split-brain``), a fresh log is seeded with the primary's
        authoritative priors at its durable version (store-and-forward
        applies to the reset itself: a reboot replays it), the parent tree
        adopts those priors, every shard's cache is flushed at the
        primary's version, and the local snapshot store is purged — every
        snapshot it holds was built under versions that never happened.
        """
        version = int(last_version)
        vetted: Optional[Dict[str, float]] = None
        if priors is not None:
            vetted = validate_prior_masses(priors)
        log = self._control_log
        if log is not None:
            log.close()
            self._rotate_split_brain_log(log.path)
            self._control_log = ControlLog(log.path)
            if version > 0 and vetted is not None:
                self._control_log.append_replicated(
                    {
                        "type": "publish_priors",
                        "version": version,
                        "priors": {str(k): float(v) for k, v in vetted.items()},
                        "normalize": bool(normalize),
                        "reset": True,
                    }
                )
        payload = None
        if vetted is not None:
            self._apply_tree_priors(vetted, bool(normalize))
            payload = (vetted, bool(normalize), version)
        with self._lifecycle_lock:
            self._priors_version = version
            self._current_priors = payload
        self._purge_store(None)
        self._broadcast_priors(version, payload, reset=True)
        logger.warning(
            "replication reset complete: this head now serves the primary's "
            "priors generation v%d",
            version,
        )

    def _rotate_split_brain_log(self, path: Path) -> None:
        """Move a divergent control log aside (first free numbered name)."""
        for suffix in [".split-brain"] + [f".split-brain.{n}" for n in range(1, 100)]:
            candidate = path.with_name(path.name + suffix)
            if candidate.exists():
                continue
            try:
                os.replace(path, candidate)
                return
            except FileNotFoundError:
                return  # nothing on disk to rotate
            except OSError as error:
                self._durability_errors.append(f"split-brain log rotation failed: {error}")
                break
        # Rotation failed (or 100 resets?!): delete rather than let the
        # divergent records replay into the reset state on the next boot.
        try:
            path.unlink(missing_ok=True)
        except OSError as error:
            self._durability_errors.append(f"split-brain log removal failed: {error}")

    # ------------------------------------------------------------------ #
    # Consistent-hash routing
    # ------------------------------------------------------------------ #

    def route_key(self, key: Tuple[int, int, float]) -> List[int]:
        """Failover order for a normalized request key: all slots, ring order.

        The first entry is the key's home shard; later entries are the
        siblings tried (in order) when earlier ones are down.  Deterministic
        across processes and runs — the property the routing tests pin.
        """
        return ring_failover_order(self._ring, key, self.num_shards)

    def shard_for(
        self, privacy_level: int, delta: int, *, epsilon: Optional[float] = None
    ) -> int:
        """Home shard slot of one request (after ε-default resolution)."""
        return self.route_key(self._normalize(privacy_level, delta, epsilon))[0]

    def _normalize(
        self, privacy_level: int, delta: int, epsilon: Optional[float]
    ) -> Tuple[int, int, float]:
        effective = float(epsilon if epsilon is not None else self.config.epsilon)
        return (int(privacy_level), int(delta), effective)

    # ------------------------------------------------------------------ #
    # Process lifecycle
    # ------------------------------------------------------------------ #

    def _spawn(self, shard: ShardHandle) -> None:
        """(Re)launch one slot on a fresh generation: fork or dial, then serve.

        A local slot forks a child onto one end of a new socketpair; a
        remote slot dials its server again.  Everything after that is one
        session for both, so a lost shard walks the same CRASHED → STARTING
        → READY path (bounded by ``respawn_limit``) wherever it lived.
        """
        with shard.lock:
            if shard.state in (ShardState.STOPPED, ShardState.DEAD):
                # close() (or respawn exhaustion) won the race between the
                # crash handler releasing the lifecycle lock and this spawn —
                # the slot is terminal, nothing to launch.
                return
            if shard.state is not ShardState.STARTING:
                shard.transition(ShardState.STARTING)
            shard.generation += 1
            generation = shard.generation
            # Record which prior generation this shard will carry.  Read
            # *before* the fork: any publish_priors bumping the version
            # after this read makes the READY handler re-send the update (a
            # publish landing in between merely causes one redundant,
            # idempotent re-send).  A remote shard announces its own.
            shard.priors_version = priors_version = self._priors_version
        sock = None if shard.address is not None else self._fork_local(shard, priors_version)
        shard.start_session(
            generation, sock, on_ready=self._mark_ready, on_crash=self._handle_crash
        )

    def _fork_local(self, shard: ShardHandle, priors_version: int) -> socket.socket:
        """Fork a local slot's child onto a new socketpair; return the pool's end."""
        spec = ShardSpec(
            shard_id=shard.slot,
            tree=self.tree,
            config=self.config,
            targets=self._targets,
            chaos_build_delay_s=self._chaos_build_delay_s,
            priors_version=priors_version,
        )
        with _FORK_LOCK:
            parent_end, child_end = socket.socketpair()
            process = self._ctx.Process(
                target=serve_local_shard,
                args=(spec, child_end),
                name=f"corgi-shard-{shard.slot}",
                daemon=True,
            )
            try:
                process.start()
            finally:
                child_end.close()
        with shard.lock:
            shard.process = process
        return parent_end

    def _mark_ready(
        self,
        shard: ShardHandle,
        generation: int,
        announced_priors_version: Optional[int] = None,
    ) -> None:
        """Transition a freshly-announced shard to READY.

        If the shard was spawned (tree copied) before the latest
        ``publish_priors``, the update is sent *ahead of* the READY
        transition — the shard runs its requests serially, so the priors
        land before any request submitted post-READY can build on them.
        Without this, a shard respawned around a live update would serve
        forests from outdated priors forever.

        *announced_priors_version* is what the replica itself claims to
        carry.  For a forked shard it equals what :meth:`_spawn` recorded;
        for a remote shard it is authoritative — a reconnect may find a
        server that kept state (and priors) across the outage, and trusting
        the spawn-time guess would either skip a needed re-send or waste a
        redundant one.
        """
        with self._lifecycle_lock:
            current_version = self._priors_version
            current_priors = self._current_priors
        announced = None
        if announced_priors_version is not None and not isinstance(
            announced_priors_version, bool
        ):
            announced = int(announced_priors_version)
        reset_priors = None
        if announced is not None and announced > current_version:
            # The replica carries a priors generation this pool never
            # published — e.g. a warm netshard server outliving a head-node
            # restart.  Its live priors are unreconcilable with ours, so
            # reset it to this pool's authoritative tree priors (which also
            # flushes its stale forest cache) instead of silently serving
            # split-brain forests next to the other shards.
            with self._tree_lock:
                masses = {leaf.node_id: leaf.prior for leaf in self.tree.leaves()}
            reset_priors = (masses, False, current_version)
            logger.warning(
                "shard %d announced priors version %d > pool version %d; "
                "resetting the replica to this pool's tree priors",
                shard.slot,
                announced,
                current_version,
            )
        with shard.lock:
            if shard.generation != generation or shard.state is not ShardState.STARTING:
                return
            if reset_priors is not None:
                shard.send("set_priors", reset_priors, self._next_ticket())
                shard.priors_version = current_version
            elif announced is not None:
                shard.priors_version = announced
            if current_priors is not None and shard.priors_version < current_version:
                shard.send("set_priors", current_priors, self._next_ticket())
                shard.priors_version = current_version
                logger.info(
                    "re-sent published priors (v%d) to respawned shard %d",
                    current_version,
                    shard.slot,
                )
            shard.transition(ShardState.READY)

    def _handle_crash(self, shard: ShardHandle, generation: int) -> None:
        """Crash path: fail in-flight tickets, respawn or declare the slot dead.

        Before the slot respawns (or is declared dead), the slot's hot-key
        ledger is replayed to its ring siblings on a background thread —
        post-crash warm recovery: by the time failed-over requests land on
        a sibling, the dead shard's hot keys are (being) pre-warmed there
        instead of cold-built on the request path.  A local slot's child is
        killed and reaped before its successor forks: a frozen child never
        exits on its own.
        """
        respawn = False
        crashed = False
        try:
            with self._lifecycle_lock:
                with shard.lock:
                    if shard.generation != generation or shard.state in (
                        ShardState.STOPPED,
                        ShardState.DEAD,
                        ShardState.DRAINED,
                    ):
                        return
                    shard.transition(ShardState.CRASHED)
                    crashed = True
                    exhausted = shard.respawns >= self.respawn_limit
                    closed = self._closed
                failed = shard.fail_pending(
                    ShardCrashedError(
                        f"shard {shard.slot} (generation {generation}) died mid-request"
                    )
                )
                self._bump("crash_failures", failed)
                logger.warning(
                    "shard %d died (generation %d, %d request(s) in flight)",
                    shard.slot,
                    generation,
                    failed,
                )
                if not closed:
                    self._start_warm_recovery(shard.slot)
                if closed:
                    with shard.lock:
                        shard.transition(ShardState.STOPPED)
                    return
                if exhausted:
                    with shard.lock:
                        shard.transition(ShardState.DEAD)
                    logger.error(
                        "shard %d exceeded respawn_limit=%d; slot is permanently dead",
                        shard.slot,
                        self.respawn_limit,
                    )
                    return
                with shard.lock:
                    shard.respawns += 1
                self._bump("respawns")
                respawn = True
        finally:
            if crashed:
                shard.reap(0.0)
        if respawn:
            self._spawn(shard)

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        """Block until every shard is READY or terminal (spawn rendezvous).

        Slots already DEAD or STOPPED are skipped *immediately* — the state
        is checked before any wait, so a permanently dead slot costs nothing
        instead of stalling the caller for the whole timeout.  If *no* slot
        reaches READY (e.g. the engine constructor raises in every worker),
        this raises :class:`EnginePoolError` instead of reporting a pool
        that cannot serve a single request as ready.
        """
        deadline = time.monotonic() + timeout_s
        ready = 0
        for shard in self._shards:
            while True:
                with shard.lock:
                    state = shard.state
                if state is ShardState.READY:
                    ready += 1
                    break
                if state in (ShardState.DEAD, ShardState.STOPPED, ShardState.DRAINED):
                    break
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    raise PoolTimeoutError(
                        f"shard {shard.slot} not ready within {timeout_s:.1f} s "
                        f"(state {state.value})"
                    )
                # Short waits so a transition to a terminal state (which
                # never sets ready_event) is noticed promptly.
                shard.ready_event.wait(timeout=min(0.05, remaining))
        if ready == 0:
            raise EnginePoolError(
                f"no shard became ready ({self.num_shards} slot(s) dead or stopped); "
                "the pool cannot serve"
            )

    def close(self) -> None:
        """Stop every shard and release resources (idempotent)."""
        with self._lifecycle_lock:
            if self._closed:
                return
            self._closed = True
        # Replication first: stop tailing/streaming before the shards the
        # apply path broadcasts into start disappearing.
        if self._replication_client is not None:
            self._replication_client.close()
        if self._replication_server is not None:
            self._replication_server.close()
        for shard in self._shards:
            with shard.lock:
                if shard.state not in (ShardState.STOPPED, ShardState.DEAD):
                    shard.transition(ShardState.STOPPED)
            shard.fail_pending(EnginePoolError("engine pool closed"))
            shard.retire()
        for shard in self._shards:
            shard.reap(5.0)
        # Flush the durable tier: the persister drains queued writes (a
        # sentinel lands behind them), then the control log is released.
        if self._persist_queue is not None:
            try:
                self._persist_queue.put_nowait(None)
            except queue_module.Full:
                pass  # the loop also exits on the closed flag
            if self._persister is not None:
                self._persister.join(timeout=5.0)
        if self._control_log is not None:
            self._control_log.close()
        self._prewarm_done.set()
        logger.info("engine pool closed (%d shards)", self.num_shards)

    def __enter__(self) -> "EnginePool":
        try:
            self.wait_ready()
        except BaseException:
            # __exit__ never runs when __enter__ raises — clean up here or
            # leak every shard process and session thread.
            self.close()
            raise
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------ #
    # Routed requests with failover
    # ------------------------------------------------------------------ #

    def _next_ticket(self) -> int:
        with self._ticket_lock:
            return next(self._tickets)

    def _pick_shard(self, key: Tuple[int, int, float]) -> Optional[ShardHandle]:
        """First READY shard along the key's ring order; None = worth waiting."""
        any_pending = False
        for slot in self.route_key(key):
            shard = self._shards[slot]
            with shard.lock:
                state = shard.state
            if state is ShardState.READY:
                return shard
            if state in (ShardState.STARTING, ShardState.CRASHED):
                any_pending = True
        if any_pending:
            return None
        raise EnginePoolError(
            "every shard is dead, stopped or drained; the pool cannot serve"
        )

    def _wait_any_progress(self, deadline: float) -> None:
        """Sleep-poll until some shard might be READY again (respawn window)."""
        while time.monotonic() < deadline:
            for shard in self._shards:
                if shard.ready_event.wait(timeout=0.02):
                    return
        raise PoolTimeoutError(
            f"no shard became ready within request_timeout_s={self.request_timeout_s}"
        )

    def _shard_request(
        self,
        shard: ShardHandle,
        op: str,
        payload,
        deadline: float,
        *,
        allow_draining: bool = False,
    ) -> object:
        """One op on one specific shard (no routing, no failover)."""
        ticket = self._next_ticket()
        entry = shard.submit(op, payload, ticket, allow_draining=allow_draining)
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not entry.event.wait(timeout=remaining):
            shard.abandon(ticket)
            raise PoolTimeoutError(
                f"shard {shard.slot} did not answer {op!r} before the deadline"
            )
        if entry.error is not None:
            raise entry.error
        return entry.result

    def _request_routed(self, key: Tuple[int, int, float]) -> Dict[str, object]:
        """Build one key on its home shard, failing over along the ring."""
        if self._closed:
            raise EnginePoolError("engine pool is closed")
        deadline = time.monotonic() + self.request_timeout_s
        max_attempts = self.num_shards * (self.respawn_limit + 1) + 1
        last_error: Optional[BaseException] = None
        store_epoch = self._store_epoch
        for _ in range(max_attempts):
            shard = self._pick_shard(key)
            if shard is None:
                self._wait_any_progress(deadline)
                continue
            with shard.lock:
                priors_version = shard.priors_version
            try:
                result = self._shard_request(shard, "build", key, deadline)
            except ShardUnavailableError as error:
                # Not READY by the time of the submit: pick again.
                last_error = error
                continue
            except ShardCrashedError as error:
                last_error = error
                self._bump("retries")
                logger.info("retrying build for key %s after %s", key, error)
                continue
            self._record_hot_key(shard.slot, key)
            if not result.get("cached"):
                # Write-through: a freshly built forest goes to the snapshot
                # store so even an unplanned full-fleet kill -9 restarts warm
                # (a drain is not required for durability).
                self._schedule_persist(shard, key, result, store_epoch, priors_version)
            return result
        raise last_error or EnginePoolError("build request exhausted retries")

    # ------------------------------------------------------------------ #
    # Hot-key ledger and hand-off bookkeeping
    # ------------------------------------------------------------------ #

    def _bump(self, name: str, amount: int = 1) -> None:
        """Increment one pool stat (see :meth:`pool_stats`)."""
        if amount > 0:
            with self._stats_lock:
                self._stats[name] += int(amount)

    def _record_hot_key(self, slot: int, key: Tuple[int, int, float]) -> None:
        """Remember that *slot* served *key* (bounded, most-recent-last)."""
        with self._ledger_lock:
            ledger = self._hot_keys.setdefault(slot, {})
            ledger.pop(key, None)
            ledger[key] = time.monotonic()
            while len(ledger) > HOT_KEY_LEDGER_SIZE:
                ledger.pop(next(iter(ledger)))

    def hot_keys(self, slot: int) -> List[Tuple[int, int, float]]:
        """The slot's remembered hot keys, oldest first (diagnostics/tests)."""
        with self._ledger_lock:
            return list(self._hot_keys.get(int(slot), {}))

    # ------------------------------------------------------------------ #
    # Warm hand-off: graceful drain, respawn, rebalance, crash recovery
    # ------------------------------------------------------------------ #

    def _destination_for(
        self, key: Tuple[int, int, float], exclude_slot: Optional[int]
    ) -> Optional[int]:
        """First READY slot along the key's ring order (skipping *exclude_slot*)."""
        for slot in self.route_key(key):
            if slot == exclude_slot:
                continue
            shard = self._shards[slot]
            with shard.lock:
                state = shard.state
            if state is ShardState.READY:
                return slot
        return None

    def _transfer_entries(
        self, snapshot: CacheSnapshot, deadline: float, *, exclude_slot: Optional[int]
    ) -> Dict[str, int]:
        """Ship a snapshot's entries to each key's owning live shard.

        Entries are grouped by destination — the first READY shard along
        each key's ring order, skipping *exclude_slot* — and imported there
        as snapshots that keep *snapshot*'s slot and priors version.  The
        receiving replica checks that version against its own and rebuilds,
        rather than installs, payloads built under other priors.  Keys with
        no live destination are dropped and counted.  Callers bump their
        own counters from the returned report.
        """
        groups: Dict[int, List[SnapshotEntry]] = {}
        dropped = 0
        for entry in snapshot.entries:
            dest = self._destination_for(entry.key, exclude_slot)
            if dest is None:
                dropped += 1
            else:
                groups.setdefault(dest, []).append(entry)
        report = {
            "handoff_keys": 0,
            "payloads": 0,
            "imported": 0,
            "prewarmed": 0,
            "skipped": 0,
            "dropped": dropped,
        }
        for dest, entries in sorted(groups.items()):
            # Payload entries are cheap to install and ship as one blob;
            # each key-only entry is its own op because the receiving worker
            # *rebuilds* it — per-entry ops let live requests interleave
            # with the pre-warms instead of queueing behind the whole replay.
            payload_entries = [entry for entry in entries if entry.matrices is not None]
            keyonly_entries = [entry for entry in entries if entry.matrices is None]
            batches = ([payload_entries] if payload_entries else []) + [
                [entry] for entry in keyonly_entries
            ]
            for batch in batches:
                blob = encode_snapshot(replace(snapshot, entries=tuple(batch)))
                try:
                    counts = self._shard_request(
                        self._shards[dest], "import_cache", blob, deadline
                    )
                except (ShardCrashedError, ShardUnavailableError) as error:
                    # The destination died mid-import: its keys will fail
                    # over again along the ring; count them as dropped here.
                    logger.warning("hand-off to shard %d failed: %s", dest, error)
                    report["dropped"] += len(batch)
                    continue
                report["handoff_keys"] += len(batch)
                report["payloads"] += sum(
                    1 for entry in batch if entry.matrices is not None
                )
                for name in ("imported", "prewarmed", "skipped"):
                    report[name] += int(counts.get(name, 0))
                for entry in batch:
                    self._record_hot_key(dest, entry.key)
        return report

    def _count_handoff(self, report: Mapping[str, int]) -> None:
        """Bump the hand-off counters from one :meth:`_transfer_entries` report."""
        self._bump("handoffs", report["handoff_keys"])
        self._bump("handoff_payloads", report["payloads"])
        self._bump("handoff_prewarms", report["prewarmed"])
        self._bump("handoff_dropped", report["dropped"])

    def _check_slot(self, slot: object) -> int:
        """The slot id as an int, or :class:`ValueError` (the typed 4xx path).

        Accepts an int, or a float or string that spells one; rejects
        ``bool`` (``True`` is not slot 1), fractions and out-of-range ids.
        """
        if isinstance(slot, bool) or not isinstance(slot, (int, str, float)):
            raise ValueError(f"slot must be an integer, got {slot!r}")
        if isinstance(slot, float) and not slot.is_integer():
            raise ValueError(f"slot must be an integer, got {slot!r}")
        try:
            index = int(slot)
        except ValueError:
            raise ValueError(f"slot must be an integer, got {slot!r}") from None
        if not 0 <= index < self.num_shards:
            raise ValueError(f"slot must be in [0, {self.num_shards - 1}], got {index}")
        return index

    def drain(self, slot: int, timeout_s: Optional[float] = None) -> Dict[str, object]:
        """Gracefully retire one shard: stop, flush, hand off, shut down.

        The protocol, in `ShardState` terms: ``READY -> DRAINING`` (new
        assignments stop routing here immediately), in-flight requests are
        flushed (the worker finishes what it already accepted), the shard's
        live cache is exported and shipped to its ring siblings as a
        versioned snapshot, then the worker retires (``DRAINING ->
        DRAINED``).  A drained slot stays respawnable via :meth:`respawn` /
        :meth:`rebalance`.

        Raises :class:`ValueError` for an unknown slot id or a slot that is
        not READY — the typed 4xx path of ``POST /admin/drain``.
        """
        if self._closed:
            raise EnginePoolError("engine pool is closed")
        slot = self._check_slot(slot)
        shard = self._shards[slot]
        with shard.lock:
            if shard.state is not ShardState.READY:
                raise ValueError(
                    f"shard {slot} is {shard.state.value}; only a ready shard can drain"
                )
            shard.transition(ShardState.DRAINING)
        timeout = self.request_timeout_s if timeout_s is None else float(timeout_s)
        deadline = time.monotonic() + timeout
        logger.info("draining shard %d (flushing in-flight work)", slot)
        try:
            # Flush: the shard keeps answering what it already accepted;
            # the session resolves the tickets.  New work cannot arrive
            # (not READY).
            while True:
                with shard.lock:
                    state = shard.state
                    pending = len(shard.pending)
                if state is not ShardState.DRAINING:
                    raise ShardCrashedError(
                        f"shard {slot} left the draining state ({state.value}) "
                        "before the hand-off completed"
                    )
                if pending == 0:
                    break
                if time.monotonic() > deadline:
                    raise PoolTimeoutError(
                        f"shard {slot} still has {pending} request(s) in flight "
                        f"after {timeout:.1f} s; drain aborted"
                    )
                time.sleep(0.005)
            blob = self._shard_request(
                shard, "export_cache", HANDOFF_PAYLOAD_BUDGET_BYTES, deadline, allow_draining=True
            )
            snapshot = decode_snapshot(blob)
            try:
                # Persist before the sibling transfer: the export is the
                # last full copy of this shard's cache, and for the final
                # drain of a fleet shutdown there is no live sibling — the
                # store is what makes the next boot warm.
                persisted = self._persist_exported(snapshot)
            except Exception:  # noqa: BLE001 - persistence is best-effort
                logger.exception("persisting drained cache of shard %d failed", slot)
                persisted = 0
            report = self._transfer_entries(snapshot, deadline, exclude_slot=slot)
            self._count_handoff(report)
            report["persisted"] = persisted
        except BaseException:
            # A failed drain must not strand the slot: the worker is still
            # alive (a death takes the DRAINING -> CRASHED path through the
            # crash handler), so roll back to READY and keep serving.
            with shard.lock:
                if shard.state is ShardState.DRAINING:
                    shard.transition(ShardState.READY)
            logger.warning("drain of shard %d failed; slot returned to ready", slot)
            raise
        # Retire: mark DRAINED *before* the connection ends so the session
        # treats it as an orderly end, not a crash.
        with shard.lock:
            if shard.state is ShardState.DRAINING:
                shard.transition(ShardState.DRAINED)
        shard.retire()
        shard.reap(10.0)
        with self._ledger_lock:
            self._hot_keys.pop(slot, None)
        self._bump("drains", 1)
        logger.info(
            "shard %d drained: %d key(s) handed off (%d with payload, "
            "%d pre-warmed, %d dropped)",
            slot,
            report["handoff_keys"],
            report["payloads"],
            report["prewarmed"],
            report["dropped"],
        )
        return {"slot": slot, "exported": len(snapshot.entries), **report}

    def drain_all(self, timeout_s: Optional[float] = None) -> List[Dict[str, object]]:
        """Drain every READY shard in slot order (graceful pool shutdown).

        Each drain hands its cache to the shards still live, so the keys
        cascade along the ring; the final shard has no live sibling left and
        retires cold (its entries are counted as dropped).
        """
        reports: List[Dict[str, object]] = []
        for shard in self._shards:
            with shard.lock:
                state = shard.state
            if state is not ShardState.READY:
                continue
            try:
                reports.append(self.drain(shard.slot, timeout_s=timeout_s))
            except (EnginePoolError, ShardCrashedError, ShardUnavailableError) as error:
                logger.warning("drain of shard %d failed: %s", shard.slot, error)
        return reports

    def respawn(self, slot: int) -> None:
        """Relaunch a previously drained slot (``DRAINED -> STARTING``)."""
        if self._closed:
            raise EnginePoolError("engine pool is closed")
        slot = self._check_slot(slot)
        shard = self._shards[slot]
        with shard.lock:
            if shard.state is not ShardState.DRAINED:
                raise ValueError(
                    f"only a drained slot can be respawned; shard {slot} "
                    f"is {shard.state.value}"
                )
            # Claim the slot *before* releasing the lock: a concurrent
            # respawn/rebalance now fails the DRAINED check above instead
            # of double-spawning the shard.
            shard.transition(ShardState.STARTING)
        self._spawn(shard)

    def rebalance(self, timeout_s: Optional[float] = None) -> Dict[str, int]:
        """Revive drained slots and re-home cached keys onto their home shards.

        After a drain sequence, keys live on whichever ring sibling picked
        them up.  ``rebalance`` (1) respawns every DRAINED slot, (2) waits
        for the pool to settle, then (3) has every READY shard export its
        cache and ships each entry whose *home* shard is a different live
        slot to that home — so routing and cache placement agree again.
        Source copies are left in place (they are unreachable through
        routing while the home is live, and merely occupy memory until
        invalidated or evicted).
        """
        if self._closed:
            raise EnginePoolError("engine pool is closed")
        respawned = 0
        for shard in self._shards:
            with shard.lock:
                state = shard.state
            if state is ShardState.DRAINED:
                self.respawn(shard.slot)
                respawned += 1
        timeout = self.request_timeout_s if timeout_s is None else float(timeout_s)
        if respawned:
            self.wait_ready(timeout_s=timeout)
        deadline = time.monotonic() + timeout
        summary = {
            "respawned": respawned,
            "moved_keys": 0,
            "imported": 0,
            "prewarmed": 0,
            "dropped": 0,
        }
        for shard in self._shards:
            with shard.lock:
                state = shard.state
            if state is not ShardState.READY:
                continue
            try:
                blob = self._shard_request(shard, "export_cache", HANDOFF_PAYLOAD_BUDGET_BYTES, deadline)
            except (ShardCrashedError, ShardUnavailableError):
                continue
            snapshot = decode_snapshot(blob)
            foreign = tuple(
                entry
                for entry in snapshot.entries
                if self._destination_for(entry.key, None) not in (None, shard.slot)
            )
            if not foreign:
                continue
            report = self._transfer_entries(
                replace(snapshot, entries=foreign), deadline, exclude_slot=shard.slot
            )
            self._count_handoff(report)
            summary["moved_keys"] += report["handoff_keys"]
            summary["imported"] += report["imported"]
            summary["prewarmed"] += report["prewarmed"]
            summary["dropped"] += report["dropped"]
        return summary

    def _start_warm_recovery(self, slot: int) -> None:
        """Kick off background ledger replay for a crashed slot.

        Called from the crash handler while it holds the lifecycle lock —
        hence all slow work on a daemon thread: the crash path must stay
        fast so failover latency is not inflated by pre-warm builds.
        """
        if not self._warm_recovery:
            return
        with self._ledger_lock:
            keys = list(self._hot_keys.pop(slot, {}))
        if not keys:
            return
        threading.Thread(
            target=self._warm_recover,
            args=(slot, keys),
            name=f"corgi-shard-{slot}-warm-recovery",
            daemon=True,
        ).start()

    def _warm_recover(self, slot: int, keys: List[Tuple[int, int, float]]) -> None:
        """Replay a dead slot's hot-key ledger to its ring siblings (best effort)."""
        # The process died — only the keys survive, and key-only entries
        # are rebuilt whatever priors version the snapshot names.
        snapshot = CacheSnapshot(
            shard_slot=slot,
            priors_version=0,
            entries=tuple(SnapshotEntry(*key) for key in keys),
        )
        deadline = time.monotonic() + self.request_timeout_s
        try:
            report = self._transfer_entries(snapshot, deadline, exclude_slot=slot)
        except EnginePoolError as error:
            logger.warning("warm recovery for shard %d failed: %s", slot, error)
            return
        self._count_handoff(report)
        if report["handoff_keys"]:
            self._bump("warm_failovers", 1)
            logger.info(
                "warm recovery for crashed shard %d: %d hot key(s) pre-warmed "
                "on ring siblings",
                slot,
                report["handoff_keys"],
            )

    # ------------------------------------------------------------------ #
    # Engine protocol
    # ------------------------------------------------------------------ #

    def build_forest_traced(
        self,
        privacy_level: int,
        delta: int,
        *,
        epsilon: Optional[float] = None,
    ) -> Tuple[PrivacyForest, bool]:
        """Build (or fetch) one forest on the key's home shard.

        The worker ships back plain matrices; the parent reattaches them to
        its own tree handle, so callers receive a normal
        :class:`~repro.server.privacy_forest.PrivacyForest` byte-identical
        to a single-process build.
        """
        key = self._normalize(privacy_level, delta, epsilon)
        result = self._request_routed(key)
        forest = PrivacyForest(
            self.tree, result["privacy_level"], result["delta"], result["epsilon"]
        )
        for root_id, matrix in result["matrices"].items():
            forest.add(root_id, matrix)
        return forest, bool(result["cached"])

    def build_forest(
        self,
        privacy_level: int,
        delta: int,
        *,
        epsilon: Optional[float] = None,
    ) -> PrivacyForest:
        """:meth:`build_forest_traced` without the cache flag."""
        forest, _ = self.build_forest_traced(privacy_level, delta, epsilon=epsilon)
        return forest

    def publish_leaf_priors(self, subtree_root_id: str) -> Dict[str, float]:
        """Leaf priors of one sub-tree, served from the parent's tree handle.

        Read under the tree lock so a concurrent :meth:`publish_priors` can
        never be observed half-applied.
        """
        with self._tree_lock:
            leaves = self.tree.descendant_leaves(subtree_root_id)
            return {leaf.node_id: leaf.prior for leaf in leaves}

    # ------------------------------------------------------------------ #
    # Broadcast cache lifecycle
    # ------------------------------------------------------------------ #

    def _broadcast(
        self,
        op: str,
        payload,
        timeout_s: Optional[float] = None,
        *,
        partial: bool = False,
    ) -> Dict[int, object]:
        """Run one op on every shard that can take it; return answers by slot.

        Shards that are respawning are skipped — a fresh worker starts with
        a cold cache, which is exactly the post-broadcast state (and a live
        prior update is re-sent at READY) — and a shard that dies
        mid-broadcast counts as flushed for the same reason.  With
        ``partial=True`` a shard that does not answer within the timeout is
        simply omitted from the result (monitoring must not fail wholesale
        because one worker is deep in a long build); otherwise the timeout
        raises :class:`PoolTimeoutError`.
        """
        timeout_s = self.request_timeout_s if timeout_s is None else float(timeout_s)
        entries = []
        for shard in self._shards:
            ticket = self._next_ticket()
            try:
                entries.append((shard, ticket, shard.submit(op, payload, ticket)))
            except ShardUnavailableError:
                continue
        deadline = time.monotonic() + timeout_s
        results: Dict[int, object] = {}
        for shard, ticket, entry in entries:
            remaining = max(0.0, deadline - time.monotonic())
            if not entry.event.wait(timeout=remaining):
                # Abandoning makes resolve() drop the stray late answer
                # instead of counting it as completed work.
                shard.abandon(ticket)
                if partial:
                    continue
                raise PoolTimeoutError(
                    f"shard {shard.slot} did not answer broadcast {op!r} within "
                    f"{timeout_s:.1f} s"
                )
            if entry.error is not None:
                if isinstance(entry.error, (ShardCrashedError, ShardUnavailableError)):
                    continue
                raise entry.error
            results[shard.slot] = entry.result
        return results

    def invalidate(self, privacy_level: Optional[int] = None) -> int:
        """Drop cached forests on every shard; return the total dropped.

        With a durable tier, the event is committed to the control log
        first (write-ahead: a crash mid-broadcast converges on replay) and
        the matching stored snapshots are purged — an operator invalidation
        must not be resurrected from disk by the next boot's pre-warm.
        """
        self._require_primary("invalidate")
        level = None if privacy_level is None else int(privacy_level)
        if self._control_log is not None:
            self._control_log.append("invalidate", {"privacy_level": level})
        self._purge_store(level)
        answers = self._broadcast("invalidate", level)
        return sum(int(count) for count in answers.values())

    def publish_priors(
        self, priors: Mapping[str, float], *, normalize: bool = True
    ) -> int:
        """Install new leaf priors everywhere and flush every shard's caches.

        Masses are vetted (finite, non-negative) and the parent tree is
        updated first — so a bad payload never reaches a worker — then the
        update is broadcast.  A shard that cannot take the broadcast right
        now (respawning) gets it re-sent the moment it turns READY, keyed
        by a monotonically increasing priors version, so no replica is left
        serving pre-update priors.  Returns the total number of forests
        flushed across the shards that answered.
        """
        self._require_primary("publish_priors")
        vetted = validate_prior_masses(priors)
        # Mutate the parent tree *before* bumping the version: a worker
        # forked in between then carries the new tree with an old version
        # stamp (one redundant re-send), never the old tree with a new
        # stamp (a silently stale replica).
        self._apply_tree_priors(vetted, normalize)
        with self._lifecycle_lock:
            if self._control_log is not None:
                # Write-ahead: commit (append + fsync) before the broadcast,
                # so a crash in between converges on replay instead of
                # losing the generation.  The log allocates the version —
                # one monotonic sequence shared with invalidation events.
                version = self._control_log.append(
                    "publish_priors",
                    {
                        "priors": {str(k): float(v) for k, v in vetted.items()},
                        "normalize": bool(normalize),
                    },
                )
                version = max(version, self._priors_version + 1)
            else:
                version = self._priors_version + 1
            self._priors_version = version
            # The version rides in the payload so each worker can track its
            # own priors generation (the import_cache skew check).
            payload = (vetted, bool(normalize), version)
            self._current_priors = payload
        answers = self._broadcast_priors(version, payload)
        return sum(int(count) for count in answers.values())

    def _apply_tree_priors(self, vetted: Mapping[str, float], normalize: bool) -> None:
        """Install vetted leaf priors on the parent tree (forked shards copy it)."""
        with self._tree_lock:
            self.tree.set_leaf_priors(dict(vetted), normalize=normalize)

    def _broadcast_priors(
        self,
        version: int,
        payload: Optional[Tuple[Dict[str, float], bool, int]],
        *,
        reset: bool = False,
    ) -> Dict[int, object]:
        """Broadcast ``set_priors`` (``invalidate`` for a reset without priors)
        and move each answering shard's priors version to *version*.

        A publish only moves versions up (``max``).  A reset moves them
        exactly, downward included: the replica's old generation never
        happened, so ``max`` would preserve exactly the lie the reset is
        erasing.
        """
        if payload is None:
            answers = self._broadcast("invalidate", None)
        else:
            answers = self._broadcast("set_priors", payload)
        for slot in answers:
            shard = self._shards[slot]
            with shard.lock:
                shard.priors_version = (
                    version if reset else max(shard.priors_version, version)
                )
        with self._lifecycle_lock:
            self.priors_generation += 1
        return answers

    # ------------------------------------------------------------------ #
    # Health and introspection
    # ------------------------------------------------------------------ #

    def health_check(self, timeout_s: float = 5.0) -> Dict[int, bool]:
        """Ping every shard; True = answered within the timeout.

        Partial by design: one busy or dead shard marks only itself
        unhealthy, never its siblings.
        """
        answers = self._broadcast("ping", None, timeout_s=timeout_s, partial=True)
        return {shard.slot: shard.slot in answers for shard in self._shards}

    def shard_states(self) -> List[Dict[str, object]]:
        """Lifecycle snapshot of every slot (parent-side, no worker round-trip)."""
        return [shard.info() for shard in self._shards]

    def pool_stats(self) -> Dict[str, int]:
        """Respawn/retry/crash counters accumulated since construction."""
        with self._stats_lock:
            return dict(self._stats)

    def cache_diagnostics(self, timeout_s: float = 10.0) -> Dict[str, object]:
        """The shards' engine diagnostics, summed, plus pool lifecycle state.

        The per-shard engine numbers are fetched with one ``diagnostics`` op
        per shard; the broadcast is partial, so a shard stuck in a long
        build is merely absent from ``shards_reporting`` rather than
        blocking monitoring or zeroing its siblings' counters.  The shards
        that answered are merged by :func:`_merge_diagnostics`, so the
        summary keeps the single-engine key shape (``forest_entries``,
        ``lp_stats``, ``solver``, …) and a counter an engine adds is summed
        without a pool edit.  When no shard answers, the engine counters
        are absent rather than zero.  The ``pool`` block carries the pool's
        own counters (:meth:`pool_stats`) and slot states.
        """
        answers = self._broadcast("diagnostics", None, timeout_s=timeout_s, partial=True)
        return {
            **_merge_diagnostics(answers.values()),
            "pool": {
                "num_shards": self.num_shards,
                "local_shards": self.local_shards,
                "remote_shards": [
                    f"{host}:{port}" for host, port in self.remote_addresses
                ],
                "respawn_limit": self.respawn_limit,
                "shards_reporting": sorted(answers),
                "shards": self.shard_states(),
                "hot_keys": {
                    slot: len(self.hot_keys(slot)) for slot in range(self.num_shards)
                },
                **self.pool_stats(),
            },
        }
