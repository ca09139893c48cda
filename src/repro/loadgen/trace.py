"""Deterministic city-scale trace generation for replay workloads.

A *trace* is a fully materialised replay schedule: a sequence of
:class:`ReplayEvent` records, each naming a simulated user, the
``(privacy_level, δ, ε)`` key the user's device requests, the user's real
leaf at that moment (for the online adversary and the utility metric —
never sent to the server, exactly as in the paper's trust model) and a
virtual arrival offset drawn from a Poisson or bursty process.

Three properties make the schedule a fixture rather than a fuzz source:

* **seed determinism** — the same ``(seed, config)`` pair produces a
  byte-identical schedule (:meth:`TraceSchedule.to_bytes` /
  :meth:`TraceSchedule.digest` are the canonical encoding CI compares);
* **zipf-skewed keys** — request keys are drawn from a Zipf distribution
  over the configured key profiles, so rank-1 keys dominate the way hot
  ``(level, δ, ε)`` combinations dominate production traffic;
* **servability** — every generated key is validated against the workload
  tree up front (:meth:`TraceGenerator.validate_key_profiles`), so a replay
  can only fail for service-side reasons, never because the trace asked
  for an impossible level or an unprunable δ.

Fleets can be seeded from a :class:`~repro.datasets.checkin.CheckInDataset`
(each simulated user starts at the leaf of their modal real check-in — the
Gowalla-shaped mobility prior) or, without a dataset, from the tree's own
leaf priors.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.datasets.checkin import CheckInDataset
from repro.hexgrid.lattice import axial_neighbors
from repro.tree.location_tree import LocationTree
from repro.utils.rng import RandomState, as_rng

__all__ = [
    "ArrivalConfig",
    "FleetConfig",
    "ReplayEvent",
    "TraceGenerator",
    "TraceSchedule",
]

#: A request key as carried on the wire: ``(privacy_level, delta, epsilon)``.
#: ``epsilon`` may be ``None`` (use the server default).
KeyProfile = Tuple[int, int, Optional[float]]


@dataclass(frozen=True)
class FleetConfig:
    """The simulated user fleet.

    Attributes
    ----------
    num_users:
        Number of simulated users.  Each user holds a current leaf (its
        "real location") that mobility moves between events.
    key_profiles:
        The distinct ``(privacy_level, delta, epsilon)`` keys the fleet
        requests, in *popularity rank order*: profile 0 is the hottest.
    zipf_exponent:
        Skew of the key popularity: profile at rank ``r`` (1-based) is drawn
        with probability ∝ ``1 / r**zipf_exponent``.  ``0`` = uniform.
    mobility:
        Per-event probability that the requesting user hops to an adjacent
        leaf before the request (mobility across tree levels: a hop can
        cross a sub-tree boundary at the requested privacy level, changing
        which matrix of the forest the device consults).
    """

    num_users: int = 50
    key_profiles: Tuple[KeyProfile, ...] = ((1, 0, None), (1, 1, None))
    zipf_exponent: float = 1.1
    mobility: float = 0.2

    def validate(self) -> None:
        if self.num_users <= 0:
            raise ValueError(f"num_users must be positive, got {self.num_users}")
        if not self.key_profiles:
            raise ValueError("key_profiles must not be empty")
        if self.zipf_exponent < 0:
            raise ValueError(f"zipf_exponent must be non-negative, got {self.zipf_exponent}")
        if not 0.0 <= self.mobility <= 1.0:
            raise ValueError(f"mobility must be in [0, 1], got {self.mobility}")
        for profile in self.key_profiles:
            level, delta, epsilon = profile
            if int(level) < 0 or int(delta) < 0:
                raise ValueError(f"negative level/delta in key profile {profile!r}")
            if epsilon is not None and not (math.isfinite(epsilon) and epsilon > 0):
                raise ValueError(f"epsilon must be positive and finite in {profile!r}")

    def zipf_weights(self) -> np.ndarray:
        """Normalised popularity of each key profile (rank order preserved)."""
        ranks = np.arange(1, len(self.key_profiles) + 1, dtype=float)
        weights = 1.0 / np.power(ranks, self.zipf_exponent)
        return weights / weights.sum()


@dataclass(frozen=True)
class ArrivalConfig:
    """The arrival process generating virtual request times.

    ``poisson`` draws exponential inter-arrival gaps at ``rate_per_s``.
    ``bursty`` alternates calm and flash-crowd phases: during a burst the
    rate is multiplied by ``burst_factor`` (the hot-spot flash-crowd shape);
    phase lengths are exponential with mean ``phase_mean_s``.
    """

    process: str = "poisson"
    rate_per_s: float = 200.0
    burst_factor: float = 8.0
    burst_fraction: float = 0.25
    phase_mean_s: float = 2.0

    def validate(self) -> None:
        if self.process not in ("poisson", "bursty"):
            raise ValueError(f"unknown arrival process {self.process!r}")
        if self.rate_per_s <= 0:
            raise ValueError(f"rate_per_s must be positive, got {self.rate_per_s}")
        if self.burst_factor < 1.0:
            raise ValueError(f"burst_factor must be >= 1, got {self.burst_factor}")
        if not 0.0 < self.burst_fraction < 1.0:
            raise ValueError(f"burst_fraction must be in (0, 1), got {self.burst_fraction}")
        if self.phase_mean_s <= 0:
            raise ValueError(f"phase_mean_s must be positive, got {self.phase_mean_s}")


@dataclass(frozen=True)
class ReplayEvent:
    """One scheduled request of the replay."""

    index: int
    at_s: float
    user_id: str
    privacy_level: int
    delta: int
    epsilon: Optional[float]
    leaf_id: str

    @property
    def key(self) -> KeyProfile:
        return (self.privacy_level, self.delta, self.epsilon)

    def to_dict(self) -> Dict[str, object]:
        return {
            "index": self.index,
            "at_s": round(self.at_s, 9),
            "user_id": self.user_id,
            "privacy_level": self.privacy_level,
            "delta": self.delta,
            "epsilon": self.epsilon,
            "leaf_id": self.leaf_id,
        }


@dataclass
class TraceSchedule:
    """A materialised replay schedule with its canonical byte encoding."""

    events: List[ReplayEvent]
    seed: int
    fleet: FleetConfig
    arrival: ArrivalConfig

    def __len__(self) -> int:
        return len(self.events)

    def to_bytes(self) -> bytes:
        """Canonical encoding: one sorted-key JSON object per line.

        This is the byte string the determinism gate compares — any change
        to the generator that alters a schedule for a fixed seed shows up
        as a digest change.
        """
        lines = [
            json.dumps(event.to_dict(), sort_keys=True, separators=(",", ":"))
            for event in self.events
        ]
        return ("\n".join(lines) + "\n").encode("utf-8")

    def digest(self) -> str:
        """SHA-256 hex digest of :meth:`to_bytes`."""
        return hashlib.sha256(self.to_bytes()).hexdigest()

    def key_counts(self) -> Dict[KeyProfile, int]:
        """How many events request each key (zipf-ordering checks)."""
        counts: Dict[KeyProfile, int] = {}
        for event in self.events:
            counts[event.key] = counts.get(event.key, 0) + 1
        return counts

    def duration_s(self) -> float:
        """Virtual length of the schedule (arrival offset of the last event)."""
        return self.events[-1].at_s if self.events else 0.0


class TraceGenerator:
    """Generates deterministic replay schedules against a workload tree.

    Parameters
    ----------
    tree:
        The served location tree; key profiles are validated against it and
        user mobility walks its leaf lattice.
    fleet / arrival:
        Workload shape (see the config dataclasses).
    seed:
        Schedule seed.  The same seed and configs produce a byte-identical
        schedule; the generator derives all randomness from one
        ``np.random.default_rng`` stream.
    dataset:
        Optional check-in dataset seeding each user's starting leaf with
        the leaf of their modal real check-in (users beyond the dataset's
        population, or datasets outside the tree, fall back to prior- or
        uniform-weighted leaves).
    """

    def __init__(
        self,
        tree: LocationTree,
        fleet: Optional[FleetConfig] = None,
        arrival: Optional[ArrivalConfig] = None,
        *,
        seed: RandomState = 0,
        dataset: Optional[CheckInDataset] = None,
    ) -> None:
        self.tree = tree
        self.fleet = fleet or FleetConfig()
        self.arrival = arrival or ArrivalConfig()
        self.fleet.validate()
        self.arrival.validate()
        self.seed = int(seed) if isinstance(seed, (int, np.integer)) else 0
        self._rng = as_rng(seed)
        self.dataset = dataset
        self.validate_key_profiles()
        self._leaves = self.tree.leaves()
        self._leaf_ids = [leaf.node_id for leaf in self._leaves]
        self._by_axial = {leaf.cell.axial: leaf.node_id for leaf in self._leaves}

    # ------------------------------------------------------------------ #
    # Servability
    # ------------------------------------------------------------------ #

    def validate_key_profiles(self) -> None:
        """Raise :class:`ValueError` for any key the tree cannot serve.

        A level must exist in the tree, and δ must leave at least two
        locations in every obfuscation range at that level (a range of
        ``7**level`` leaves can prune at most ``7**level - 2``).
        """
        for profile in self.fleet.key_profiles:
            level, delta, _epsilon = profile
            if level > self.tree.height:
                raise ValueError(
                    f"key profile {profile!r} requests level {level} but the tree "
                    f"height is {self.tree.height}"
                )
            range_size = 7 ** int(level)
            if delta > max(0, range_size - 2):
                raise ValueError(
                    f"key profile {profile!r} prunes {delta} of a {range_size}-leaf "
                    "range; at least two locations must survive"
                )

    # ------------------------------------------------------------------ #
    # Generation
    # ------------------------------------------------------------------ #

    def generate(self, num_events: int) -> TraceSchedule:
        """Materialise *num_events* events (deterministic for a fixed seed)."""
        if num_events <= 0:
            raise ValueError(f"num_events must be positive, got {num_events}")
        rng = self._rng
        user_leaves = self._starting_leaves(rng)
        key_weights = self.fleet.zipf_weights()
        profiles = self.fleet.key_profiles
        arrivals = self._arrival_offsets(num_events, rng)
        events: List[ReplayEvent] = []
        for index in range(num_events):
            user = int(rng.integers(0, self.fleet.num_users))
            if self.fleet.mobility > 0 and rng.random() < self.fleet.mobility:
                user_leaves[user] = self._hop(user_leaves[user], rng)
            level, delta, epsilon = profiles[int(rng.choice(len(profiles), p=key_weights))]
            events.append(
                ReplayEvent(
                    index=index,
                    at_s=float(arrivals[index]),
                    user_id=f"user-{user:05d}",
                    privacy_level=int(level),
                    delta=int(delta),
                    epsilon=None if epsilon is None else float(epsilon),
                    leaf_id=user_leaves[user],
                )
            )
        return TraceSchedule(events=events, seed=self.seed, fleet=self.fleet, arrival=self.arrival)

    # ------------------------------------------------------------------ #
    # Internals
    # ------------------------------------------------------------------ #

    def _starting_leaves(self, rng: np.random.Generator) -> List[str]:
        """Each user's initial leaf: modal check-in leaf, else prior-weighted."""
        starts: List[str] = []
        modal: List[str] = []
        if self.dataset is not None:
            by_user = self.dataset.by_user()
            for user_id in sorted(by_user):
                counts: Dict[str, int] = {}
                for checkin in by_user[user_id]:
                    if not self.tree.contains_latlng(checkin.lat, checkin.lng):
                        continue
                    leaf = self.tree.leaf_for_latlng(checkin.lat, checkin.lng)
                    counts[leaf.node_id] = counts.get(leaf.node_id, 0) + 1
                if counts:
                    # Ties break towards the lexicographically first leaf so
                    # the assignment is order-independent and deterministic.
                    modal.append(max(sorted(counts), key=counts.get))
        priors = self.tree.leaf_priors()
        total = float(priors.sum())
        weights = priors / total if total > 0 else None
        leaf_ids = [leaf.node_id for leaf in self.tree.leaves()]
        for user in range(self.fleet.num_users):
            if user < len(modal):
                starts.append(modal[user])
            elif weights is not None:
                starts.append(leaf_ids[int(rng.choice(len(leaf_ids), p=weights))])
            else:
                starts.append(leaf_ids[int(rng.integers(0, len(leaf_ids)))])
        return starts

    def _hop(self, leaf_id: str, rng: np.random.Generator) -> str:
        """Move to a uniformly chosen adjacent leaf (stay put when isolated)."""
        cell = self.tree.node(leaf_id).cell
        neighbors = [
            self._by_axial[axial] for axial in axial_neighbors(cell.axial) if axial in self._by_axial
        ]
        if not neighbors:
            return leaf_id
        return neighbors[int(rng.integers(0, len(neighbors)))]

    def _arrival_offsets(self, num_events: int, rng: np.random.Generator) -> np.ndarray:
        """Cumulative virtual arrival times for *num_events* requests."""
        config = self.arrival
        if config.process == "poisson":
            gaps = rng.exponential(1.0 / config.rate_per_s, size=num_events)
            return np.cumsum(gaps)
        # Bursty: walk calm/burst phases, drawing each gap at the phase rate.
        offsets = np.empty(num_events)
        now = 0.0
        in_burst = rng.random() < config.burst_fraction
        phase_left = float(rng.exponential(config.phase_mean_s))
        for index in range(num_events):
            rate = config.rate_per_s * (config.burst_factor if in_burst else 1.0)
            gap = float(rng.exponential(1.0 / rate))
            now += gap
            phase_left -= gap
            if phase_left <= 0:
                in_burst = not in_burst
                phase_left = float(rng.exponential(config.phase_mean_s))
            offsets[index] = now
        return offsets


def fleet_from_dataset(
    dataset: CheckInDataset,
    *,
    key_profiles: Sequence[KeyProfile],
    zipf_exponent: float = 1.1,
    mobility: float = 0.2,
    max_users: Optional[int] = None,
) -> FleetConfig:
    """A :class:`FleetConfig` sized to a dataset's real user population."""
    num_users = len(dataset.users())
    if max_users is not None:
        num_users = min(num_users, max_users)
    return FleetConfig(
        num_users=max(1, num_users),
        key_profiles=tuple(key_profiles),
        zipf_exponent=zipf_exponent,
        mobility=mobility,
    )
