"""Property-based round-trip tests for the wire formats.

Randomized (but seeded and deterministic: ``derandomize=True``) coverage of
the two serialization layers:

* :mod:`repro.server.messages` — every valid payload round-trips through
  real JSON to an equal message; every malformed payload raises
  ``ValueError``/``TypeError`` (the types transports map to HTTP 400) —
  never anything else;
* :mod:`repro.service.http` — arbitrary JSON bodies thrown at a live
  server always produce a *client*-class answer (200/400/404), never a 500:
  the error mapping has no hole a malformed payload can fall through;
* :mod:`repro.service.handoff` — every cache snapshot round-trips through
  its versioned wire form; entry fields the decoder does not know (such as
  the remaining TTL that builds with a forest TTL wrote) are ignored;
  truncated and version-skewed blobs are rejected with
  :class:`SnapshotFormatError` (never a worker crash); and the
  consistent-hash ring guarantees that after *any* drain sequence every
  key is owned by exactly one live shard;
* :mod:`repro.service.controllog` / :mod:`repro.service.store` — the
  durable state tier: WAL records and stored snapshot files round-trip
  exactly; truncation, single-bit flips, version skew and arbitrary junk
  are rejected with typed errors (``ControlLogFormatError`` /
  ``StoreFormatError``) — replay recovers the longest valid prefix and
  never crashes;
* :mod:`repro.service.gateway` — push-gateway frames round-trip through
  the newline-delimited JSON codec exactly; arbitrary junk either decodes
  to a JSON object or raises exactly :class:`GatewayProtocolError`; and a
  *live* gateway answers garbage with typed ``error`` frames — a held
  connection can never 500 the server or kill its loop.

Hypothesis is an optional dependency (pure test tooling); the module skips
cleanly where only the runtime deps are installed.
"""

import functools
import json
import socket
import urllib.error
import urllib.request
from pathlib import Path

import numpy as np
import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import HealthCheck, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from repro.core.matrix import ObfuscationMatrix  # noqa: E402
from repro.server.engine import ForestEngine, ServerConfig  # noqa: E402
from repro.server.messages import (  # noqa: E402
    ObfuscationRequest,
    PrivacyForestResponse,
)
from repro.service.handoff import (  # noqa: E402
    SNAPSHOT_VERSION,
    CacheSnapshot,
    SnapshotEntry,
    SnapshotFormatError,
    decode_snapshot,
    encode_snapshot,
)
from repro.service.controllog import (  # noqa: E402
    CONTROL_LOG_MAGIC,
    CONTROL_LOG_VERSION,
    ControlLog,
    ControlLogFormatError,
    decode_record,
    encode_record,
    scan_records,
)
from repro.service.http import CORGIHTTPServer  # noqa: E402
from repro.service.shard import decode_result, encode_result  # noqa: E402
from repro.service.wire import (  # noqa: E402
    FRAME_MAGIC,
    FRAME_MAGIC_DEFLATE,
    CONNECT_BACKOFF_BASE_S,
    CONNECT_BACKOFF_CAP_S,
    FrameAssembler,
    FrameFormatError,
    decode_frame,
    encode_frame,
    next_backoff_delay,
)
from repro.service.gateway import (  # noqa: E402
    GatewayConfig,
    GatewayProtocolError,
    GatewayServer,
    decode_gateway_frame,
    encode_gateway_frame,
)
from repro.service.pool import build_ring, ring_failover_order  # noqa: E402
from repro.service.service import CORGIService  # noqa: E402
from repro.core.lp import ObfuscationLP  # noqa: E402
from repro.service.store import (  # noqa: E402
    STORE_VERSION,
    StoreFormatError,
    decode_store_blob,
    encode_store_blob,
)

#: Deterministic profile shared by every property in this module.
DETERMINISTIC = settings(
    derandomize=True,
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

# --------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------- #

#: Values ``int()`` accepts for the integer request fields.
valid_ints = st.one_of(
    st.integers(min_value=0, max_value=6),
    st.integers(min_value=0, max_value=6).map(str),
)

#: Values ``float()`` accepts and ``__post_init__`` admits for ε.
valid_epsilons = st.one_of(
    st.none(),
    st.floats(min_value=0.1, max_value=50.0, allow_nan=False),
    st.floats(min_value=0.1, max_value=50.0, allow_nan=False).map(str),
)


@st.composite
def valid_request_payloads(draw):
    payload = {"privacy_level": draw(valid_ints), "delta": draw(valid_ints)}
    epsilon = draw(valid_epsilons)
    if epsilon is not None or draw(st.booleans()):
        payload["epsilon"] = epsilon
    return payload


def _not_numeric(text: str) -> bool:
    """True when neither int() nor float() can parse *text*.

    ``float()`` accepts a superset of ``int()``'s grammar (including
    underscore numerals like ``"1_0"`` that a naive isdigit filter keeps),
    so one parse attempt is the safe junk filter.
    """
    try:
        float(text)
    except ValueError:
        return True
    return False


#: Junk that must be rejected with exactly ValueError/TypeError.  Negative
#: numbers stay <= -1 so truncation cannot rescue them (int(-0.5) == 0
#: would be a *valid* privacy_level).
junk_scalars = st.one_of(
    st.none(),
    st.text(max_size=8).filter(_not_numeric),
    st.integers(max_value=-1),
    st.floats(max_value=-1.0, allow_nan=False),
    st.just(float("nan")),
    st.lists(st.integers(), max_size=2),
)


@st.composite
def invalid_request_payloads(draw):
    """Payloads broken in at least one deliberate way."""
    breakage = draw(st.sampled_from(["missing", "bad_level", "bad_delta", "bad_epsilon"]))
    payload = {"privacy_level": draw(valid_ints), "delta": draw(valid_ints)}
    if breakage == "missing":
        del payload[draw(st.sampled_from(["privacy_level", "delta"]))]
    elif breakage == "bad_level":
        payload["privacy_level"] = draw(junk_scalars)
    elif breakage == "bad_delta":
        payload["delta"] = draw(junk_scalars)
    else:
        # None is a *valid* epsilon (server default applies), so the junk
        # pool for this field explicitly excludes it.
        payload["epsilon"] = draw(
            st.one_of(
                junk_scalars.filter(lambda value: value is not None),
                st.just(0),
                st.just(0.0),
                st.just("0"),
                st.just(float("inf")),
            )
        )
    return payload


@st.composite
def response_payloads(draw):
    """A PrivacyForestResponse with random row-stochastic matrices."""
    size = draw(st.integers(min_value=1, max_value=4))
    num_matrices = draw(st.integers(min_value=0, max_value=3))
    matrices = {}
    for index in range(num_matrices):
        raw = draw(
            st.lists(
                st.lists(
                    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
                    min_size=size,
                    max_size=size,
                ),
                min_size=size,
                max_size=size,
            )
        )
        values = np.asarray(raw, dtype=float)
        values = values / values.sum(axis=1, keepdims=True)
        node_ids = [f"m{index}:n{position}" for position in range(size)]
        matrices[f"root-{index}"] = ObfuscationMatrix(
            values=values,
            node_ids=node_ids,
            level=draw(st.integers(min_value=0, max_value=3)),
            epsilon=draw(st.one_of(st.none(), st.floats(0.1, 20.0, allow_nan=False))),
            delta=draw(st.integers(min_value=0, max_value=3)),
            metadata={"tag": draw(st.text(max_size=6))},
        )
    return PrivacyForestResponse(
        privacy_level=draw(st.integers(min_value=0, max_value=5)),
        delta=draw(st.integers(min_value=0, max_value=5)),
        epsilon=draw(st.floats(min_value=0.1, max_value=50.0, allow_nan=False)),
        matrices=matrices,
    )


# --------------------------------------------------------------------- #
# Message-layer properties
# --------------------------------------------------------------------- #


class TestRequestProperties:
    @DETERMINISTIC
    @given(payload=valid_request_payloads())
    def test_valid_payload_roundtrips_through_json(self, payload):
        request = ObfuscationRequest.from_dict(payload)
        assert request.privacy_level == int(payload["privacy_level"])
        assert request.delta == int(payload["delta"])
        restored = ObfuscationRequest.from_dict(
            json.loads(json.dumps(request.to_dict()))
        )
        assert restored == request

    @DETERMINISTIC
    @given(payload=invalid_request_payloads())
    def test_invalid_payload_raises_client_error(self, payload):
        """Malformed payloads raise exactly the types transports map to 400.

        This property found two real holes when first written: ``NaN`` ε
        passed validation (``nan <= 0`` is False) and ``Infinity`` integers
        raised ``OverflowError``, which no transport mapped.
        """
        with pytest.raises((ValueError, TypeError)):
            ObfuscationRequest.from_dict(payload)


class TestResponseProperties:
    @DETERMINISTIC
    @given(response=response_payloads())
    def test_response_roundtrips_through_json(self, response):
        restored = PrivacyForestResponse.from_dict(
            json.loads(json.dumps(response.to_dict()))
        )
        assert restored.privacy_level == response.privacy_level
        assert restored.delta == response.delta
        assert restored.epsilon == response.epsilon
        assert set(restored.matrices) == set(response.matrices)
        for root_id, matrix in response.matrices.items():
            other = restored.matrices[root_id]
            assert other.node_ids == matrix.node_ids
            assert np.array_equal(other.values, matrix.values)
        # Full canonical-JSON fixpoint: serialising the restored response
        # reproduces the original bytes (floats round-trip exactly).
        assert json.dumps(restored.to_dict(), sort_keys=True) == json.dumps(
            response.to_dict(), sort_keys=True
        )


# --------------------------------------------------------------------- #
# Cache-snapshot protocol properties (warm shard hand-off)
# --------------------------------------------------------------------- #


@st.composite
def snapshot_matrices(draw):
    """A small payload: row-stochastic matrices keyed by sub-tree root."""
    size = draw(st.integers(min_value=1, max_value=3))
    count = draw(st.integers(min_value=1, max_value=2))
    matrices = {}
    for index in range(count):
        raw = draw(
            st.lists(
                st.lists(
                    st.floats(min_value=0.01, max_value=1.0, allow_nan=False),
                    min_size=size,
                    max_size=size,
                ),
                min_size=size,
                max_size=size,
            )
        )
        values = np.asarray(raw, dtype=float)
        values = values / values.sum(axis=1, keepdims=True)
        matrices[f"root-{index}"] = ObfuscationMatrix(
            values=values,
            node_ids=[f"m{index}:n{position}" for position in range(size)],
            level=draw(st.integers(min_value=0, max_value=3)),
        )
    return matrices


#: A snapshot blob written by a build that kept a forest TTL (snapshot version 1).
LEGACY_TTL_SNAPSHOT = Path(__file__).parent / "data" / "snapshot_v1_with_ttl.json"


@st.composite
def snapshot_entries(draw):
    return SnapshotEntry(
        privacy_level=draw(st.integers(min_value=0, max_value=9)),
        delta=draw(st.integers(min_value=0, max_value=9)),
        epsilon=draw(st.floats(min_value=0.01, max_value=100.0, allow_nan=False)),
        matrices=draw(st.one_of(st.none(), snapshot_matrices())),
    )


@st.composite
def cache_snapshots(draw):
    return CacheSnapshot(
        shard_slot=draw(st.integers(min_value=0, max_value=63)),
        priors_version=draw(st.integers(min_value=0, max_value=1_000_000)),
        entries=tuple(draw(st.lists(snapshot_entries(), max_size=4))),
    )


class TestSnapshotProperties:
    @DETERMINISTIC
    @given(snapshot=cache_snapshots())
    def test_snapshot_roundtrips_through_wire_form(self, snapshot):
        """Arbitrary key sets / payloads / priors versions survive the
        encode → decode round trip exactly."""
        restored = decode_snapshot(encode_snapshot(snapshot))
        assert restored.shard_slot == snapshot.shard_slot
        assert restored.priors_version == snapshot.priors_version
        assert len(restored.entries) == len(snapshot.entries)
        for original, decoded in zip(snapshot.entries, restored.entries):
            assert decoded.key == original.key
            if original.matrices is None:
                assert decoded.matrices is None
            else:
                assert set(decoded.matrices) == set(original.matrices)
                for root_id, matrix in original.matrices.items():
                    other = decoded.matrices[root_id]
                    assert other.node_ids == matrix.node_ids
                    assert np.array_equal(other.values, matrix.values)

    @DETERMINISTIC
    @given(snapshot=cache_snapshots(), data=st.data())
    def test_truncated_blob_is_rejected_not_crashed(self, snapshot, data):
        blob = encode_snapshot(snapshot)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        with pytest.raises(SnapshotFormatError):
            decode_snapshot(blob[:cut])

    @DETERMINISTIC
    @given(
        snapshot=cache_snapshots(),
        version=st.integers(min_value=-5, max_value=50).filter(
            lambda value: value != SNAPSHOT_VERSION
        ),
    )
    def test_version_skewed_blob_is_rejected(self, snapshot, version):
        envelope = json.loads(encode_snapshot(snapshot).decode("utf-8"))
        envelope["version"] = version
        with pytest.raises(SnapshotFormatError):
            decode_snapshot(json.dumps(envelope).encode("utf-8"))

    @DETERMINISTIC
    @given(
        junk=st.one_of(
            st.binary(max_size=64),
            st.text(max_size=32).map(lambda text: text.encode("utf-8")),
            st.none(),
            st.integers(),
            st.dictionaries(st.text(max_size=4), st.integers(), max_size=3),
        )
    )
    def test_junk_blob_is_rejected(self, junk):
        """Any non-snapshot input raises exactly SnapshotFormatError."""
        with pytest.raises(SnapshotFormatError):
            decode_snapshot(junk)

    @DETERMINISTIC
    @given(
        snapshot=cache_snapshots(),
        mutation=st.sampled_from(
            ["format", "shard_slot", "priors_version", "entries"]
        ),
    )
    def test_corrupted_envelope_fields_are_rejected(self, snapshot, mutation):
        envelope = json.loads(encode_snapshot(snapshot).decode("utf-8"))
        envelope[mutation] = "corrupted"
        with pytest.raises(SnapshotFormatError):
            decode_snapshot(json.dumps(envelope).encode("utf-8"))

    @DETERMINISTIC
    @given(snapshot=cache_snapshots(), extra=st.dictionaries(st.text(max_size=8), st.integers(), max_size=3))
    def test_unknown_entry_fields_are_ignored(self, snapshot, extra):
        """Entry fields this build does not know (a peer's older or newer
        field) never change what a blob decodes to."""
        envelope = json.loads(encode_snapshot(snapshot))
        for entry in envelope["entries"]:
            entry.update({key: value for key, value in extra.items() if key not in entry})
        restored = decode_snapshot(json.dumps(envelope).encode("utf-8"))
        assert encode_snapshot(restored) == encode_snapshot(snapshot)

    def test_blob_with_a_remaining_ttl_field_still_decodes(self):
        """A version-1 blob as builds with a forest TTL wrote it (each entry
        also carries the remaining TTL) decodes to the same keys and matrices."""
        blob = LEGACY_TTL_SNAPSHOT.read_bytes()
        restored = decode_snapshot(blob)
        assert (restored.shard_slot, restored.priors_version) == (1, 3)
        assert [entry.key for entry in restored.entries] == [(1, 1, 2.0), (1, 0, 15.0), (2, 0, 15.0)]
        assert [entry.matrices is None for entry in restored.entries] == [False, True, True]
        expected = {
            "root-a": (["a0", "a1", "a2"], [[0.7, 0.2, 0.1], [0.15, 0.7, 0.15], [0.1, 0.2, 0.7]]),
            "root-b": (["b0", "b1", "b2"], [[0.6, 0.3, 0.1], [0.25, 0.5, 0.25], [0.05, 0.15, 0.8]]),
        }
        matrices = restored.entries[0].matrices
        assert set(matrices) == set(expected)
        for root_id, (node_ids, values) in expected.items():
            assert matrices[root_id].node_ids == node_ids
            assert np.array_equal(matrices[root_id].values, np.array(values))
        # Every legacy entry carries one field this build's encoder no longer writes.
        legacy = json.loads(blob)["entries"]
        current = json.loads(encode_snapshot(restored))["entries"]
        assert all(len(set(old) - set(new)) == 1 for old, new in zip(legacy, current))

    @DETERMINISTIC
    @given(snapshot=cache_snapshots())
    def test_export_cache_answer_roundtrips_through_a_frame(self, snapshot):
        """A shard's ``export_cache`` answer is its encoded snapshot: through
        the result codec and real JSON it decodes to the same snapshot."""
        wire = json.loads(json.dumps(encode_result("export_cache", encode_snapshot(snapshot))))
        restored = decode_snapshot(decode_result("export_cache", wire))
        assert encode_snapshot(restored) == encode_snapshot(snapshot)

    @DETERMINISTIC
    @given(
        answer=st.one_of(
            st.lists(st.dictionaries(st.text(max_size=4), st.integers(), max_size=3), max_size=3),
            st.text(max_size=32),
        )
    )
    def test_export_cache_junk_answer_fails_typed(self, answer):
        """A list (the old per-entry answer) or a string that is not a
        snapshot raises a typed wire error, never anything else."""
        with pytest.raises((FrameFormatError, SnapshotFormatError)):
            decode_snapshot(decode_result("export_cache", answer))


# --------------------------------------------------------------------- #
# Ring-rebalance invariant (pure routing, no worker processes)
# --------------------------------------------------------------------- #


@functools.lru_cache(maxsize=None)
def _ring(num_shards: int):
    return build_ring(num_shards)


@st.composite
def rings_with_drained_slots(draw):
    """A shard count plus a *proper* subset of drained/dead slots."""
    num_shards = draw(st.integers(min_value=1, max_value=8))
    drained = draw(
        st.sets(st.integers(min_value=0, max_value=num_shards - 1), max_size=num_shards)
    )
    if len(drained) == num_shards:  # keep at least one live slot
        drained.discard(draw(st.sampled_from(sorted(drained))))
    return num_shards, frozenset(drained)


request_keys = st.tuples(
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=12),
    st.floats(min_value=0.01, max_value=100.0, allow_nan=False),
)


class TestRingOwnership:
    @DETERMINISTIC
    @given(topology=rings_with_drained_slots(), key=request_keys)
    def test_every_key_owned_by_exactly_one_live_shard(self, topology, key):
        """The rebalance invariant: whatever subset of slots a drain
        sequence removed, each key's ring order is a permutation of all
        slots, so the first live slot — the key's owner — exists and is
        unique, and is deterministic across calls."""
        num_shards, drained = topology
        order = ring_failover_order(_ring(num_shards), key, num_shards)
        assert sorted(order) == list(range(num_shards))  # permutation
        assert order == ring_failover_order(_ring(num_shards), key, num_shards)
        owners = [slot for slot in order if slot not in drained]
        assert owners, "at least one live slot must own the key"
        owner = owners[0]
        assert owner not in drained
        # Ownership is a function: re-deriving it yields the same slot.
        assert owner == next(slot for slot in order if slot not in drained)


# --------------------------------------------------------------------- #
# Netshard frame codec: round-trip and strict rejection
# --------------------------------------------------------------------- #

#: Arbitrary JSON-object messages, the only thing frames may carry.
json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**9), max_value=10**9),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=16),
    ),
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(st.text(max_size=8), children, max_size=4),
    ),
    max_leaves=16,
)

frame_messages = st.dictionaries(st.text(max_size=12), json_values, max_size=6)


class TestFrameProperties:
    @DETERMINISTIC
    @given(message=frame_messages)
    def test_frame_roundtrips(self, message):
        """Any JSON-object message survives the framed round trip exactly
        (finite floats included — repr round-trips binary64)."""
        assert decode_frame(encode_frame(message)) == message

    @DETERMINISTIC
    @given(message=frame_messages, data=st.data())
    def test_truncated_frame_is_rejected_not_crashed(self, message, data):
        blob = encode_frame(message)
        cut = data.draw(st.integers(min_value=0, max_value=len(blob) - 1))
        with pytest.raises(FrameFormatError):
            decode_frame(blob[:cut])

    @DETERMINISTIC
    @given(
        message=frame_messages,
        prefix=st.binary(min_size=4, max_size=32).filter(
            lambda junk: junk[:4] not in (FRAME_MAGIC, FRAME_MAGIC_DEFLATE)
        ),
    )
    def test_garbage_prefix_is_rejected(self, message, prefix):
        """A stream not starting with the magic is refused on sight — the
        codec never buffers behind a bogus length from line noise."""
        with pytest.raises(FrameFormatError):
            decode_frame(prefix + encode_frame(message))
        assembler = FrameAssembler()
        # Pad to a full header: the assembler withholds judgement until it
        # has all eight bytes, then rejects on the magic alone.
        assembler.feed(prefix + bytes(8))
        with pytest.raises(FrameFormatError):
            assembler.next_message()

    @DETERMINISTIC
    @given(messages=st.lists(frame_messages, min_size=1, max_size=4), data=st.data())
    def test_stream_reassembles_across_arbitrary_chunking(self, messages, data):
        """However the network fragments or coalesces the byte stream, the
        assembler yields exactly the sent messages in order."""
        stream = b"".join(encode_frame(message) for message in messages)
        assembler = FrameAssembler()
        received = []
        position = 0
        while position < len(stream):
            step = data.draw(st.integers(min_value=1, max_value=len(stream) - position))
            assembler.feed(stream[position : position + step])
            position += step
            while True:
                message = assembler.next_message()
                if message is None:
                    break
                received.append(message)
        assert received == messages
        assembler.expect_end()

    @DETERMINISTIC
    @given(
        junk=st.one_of(
            st.binary(max_size=64),
            st.text(max_size=32).map(lambda text: text.encode("utf-8")),
            st.none(),
            st.integers(),
        )
    )
    def test_junk_blob_is_rejected(self, junk):
        """Any non-frame input raises exactly FrameFormatError — a 400-class
        ValueError, never a crash in the server's reader."""
        if isinstance(junk, (bytes, bytearray)) and bytes(junk[:4]) in (
            FRAME_MAGIC,
            FRAME_MAGIC_DEFLATE,
        ):
            junk = b"XXXX" + bytes(junk[4:])
        with pytest.raises(FrameFormatError):
            decode_frame(junk)

    @DETERMINISTIC
    @given(message=frame_messages, padding=st.text(max_size=100_000))
    def test_compressed_frames_roundtrip(self, message, padding):
        """Forcing the compression threshold to zero exercises the deflate
        arm for every payload size; the round trip stays exact."""
        message = dict(message, padding=padding)
        blob = encode_frame(message, compress_min_bytes=0)
        assert decode_frame(blob) == message
        # And the plain arm decodes the same message identically.
        assert decode_frame(encode_frame(message, compress_min_bytes=None)) == message

    @DETERMINISTIC
    @given(message=frame_messages, data=st.data())
    def test_corrupt_compressed_frame_is_rejected(self, message, data):
        """A bit flip inside a deflated payload raises FrameFormatError —
        the inflater's error surface maps to the same typed rejection."""
        blob = bytearray(encode_frame(dict(message, pad="x" * 512), compress_min_bytes=0))
        header = 8  # magic + u32 length
        position = data.draw(st.integers(min_value=header, max_value=len(blob) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        blob[position] ^= 1 << bit
        with pytest.raises(FrameFormatError):
            decode_frame(bytes(blob))


# --------------------------------------------------------------------- #
# Reconnect backoff: decorrelated jitter stays inside [base, cap]
# --------------------------------------------------------------------- #


class TestBackoffProperties:
    @DETERMINISTIC
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        steps=st.integers(min_value=1, max_value=12),
    )
    def test_backoff_sequence_is_bounded_and_starts_at_base(self, seed, steps):
        """The decorrelated-jitter sequence starts at exactly the base delay
        (a fresh dial retries promptly) and every subsequent delay stays
        inside [base, cap] whatever the RNG draws."""
        import random as random_module

        rng = random_module.Random(seed)
        delay = 0.0
        for step in range(steps):
            delay = next_backoff_delay(delay, rng=rng)
            if step == 0:
                assert delay == CONNECT_BACKOFF_BASE_S
            assert CONNECT_BACKOFF_BASE_S <= delay <= CONNECT_BACKOFF_CAP_S

    @DETERMINISTIC
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        previous=st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
        base=st.floats(min_value=0.001, max_value=1.0, allow_nan=False),
        cap_factor=st.floats(min_value=1.0, max_value=50.0, allow_nan=False),
    )
    def test_backoff_respects_arbitrary_base_and_cap(
        self, seed, previous, base, cap_factor
    ):
        import random as random_module

        cap = base * cap_factor
        delay = next_backoff_delay(
            previous, base=base, cap=cap, rng=random_module.Random(seed)
        )
        assert min(base, cap) <= delay <= cap


# --------------------------------------------------------------------- #
# Control-log (WAL) records: round-trip, prefix replay, corruption
# --------------------------------------------------------------------- #

#: JSON-object control events, as publish_priors / invalidate would log.
wal_events = st.dictionaries(
    st.text(max_size=10),
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(min_value=-(10**9), max_value=10**9),
        st.floats(allow_nan=False, allow_infinity=False),
        st.text(max_size=12),
        st.dictionaries(
            st.text(max_size=6),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            max_size=4,
        ),
    ),
    max_size=5,
)


class TestControlLogProperties:
    @DETERMINISTIC
    @given(event=wal_events)
    def test_record_roundtrips(self, event):
        """Any JSON-object event survives the framed, checksummed round trip
        exactly, and the decoder reports the precise record length."""
        blob = encode_record(event)
        decoded, next_offset = decode_record(blob)
        assert decoded == json.loads(json.dumps(event))
        assert next_offset == len(blob)

    @DETERMINISTIC
    @given(events=st.lists(wal_events, min_size=1, max_size=5))
    def test_scan_replays_full_log(self, events):
        data = b"".join(encode_record(event) for event in events)
        records, valid_bytes, error = scan_records(data)
        assert records == [json.loads(json.dumps(event)) for event in events]
        assert valid_bytes == len(data)
        assert error is None

    @DETERMINISTIC
    @given(events=st.lists(wal_events, min_size=1, max_size=5), data=st.data())
    def test_truncated_log_replays_longest_valid_prefix(self, events, data):
        """Cut the log anywhere — a kill -9 mid-append — and replay returns
        exactly the records fully committed before the cut, never raising."""
        blobs = [encode_record(event) for event in events]
        stream = b"".join(blobs)
        cut = data.draw(st.integers(min_value=0, max_value=len(stream) - 1))
        records, valid_bytes, error = scan_records(stream[:cut])
        # The cut lands inside record k; everything before k replays.
        boundary, complete = 0, 0
        for blob in blobs:
            if boundary + len(blob) > cut:
                break
            boundary += len(blob)
            complete += 1
        assert records == [json.loads(json.dumps(event)) for event in events[:complete]]
        assert valid_bytes == boundary
        assert (error is None) == (cut == boundary)

    @DETERMINISTIC
    @given(events=st.lists(wal_events, min_size=1, max_size=4), data=st.data())
    def test_bit_flip_stops_replay_at_corrupt_record(self, events, data):
        """Flip any single bit anywhere in the log: replay yields exactly
        the records before the damaged one — checksum coverage means a flip
        can never alter a decoded event or crash the scan."""
        blobs = [encode_record(event) for event in events]
        stream = bytearray(b"".join(blobs))
        position = data.draw(st.integers(min_value=0, max_value=len(stream) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        stream[position] ^= 1 << bit
        boundary, damaged = 0, 0
        for blob in blobs:
            if boundary + len(blob) > position:
                break
            boundary += len(blob)
            damaged += 1
        records, valid_bytes, error = scan_records(bytes(stream))
        assert records == [json.loads(json.dumps(event)) for event in events[:damaged]]
        assert valid_bytes == boundary
        assert error is not None

    @DETERMINISTIC
    @given(
        event=wal_events,
        version=st.integers(min_value=0, max_value=255).filter(
            lambda value: value != CONTROL_LOG_VERSION
        ),
    )
    def test_version_skewed_record_is_rejected(self, event, version):
        blob = bytearray(encode_record(event))
        blob[len(CONTROL_LOG_MAGIC)] = version  # the u8 after the magic
        with pytest.raises(ControlLogFormatError):
            decode_record(bytes(blob))

    @DETERMINISTIC
    @given(junk=st.binary(max_size=64))
    def test_scan_never_crashes_on_junk(self, junk):
        """Arbitrary bytes — line noise, a foreign file — replay as an
        empty (or partial) prefix with a diagnostic, never an exception."""
        records, valid_bytes, error = scan_records(junk)
        assert valid_bytes <= len(junk)
        assert isinstance(records, list)
        if junk and valid_bytes < len(junk):
            assert error is not None


class TestControlLogReplayOrdering:
    """Replay semantics for hostile version sequences and the append fixes.

    A log written by a buggy or adversarial producer can carry duplicate,
    out-of-order, or regressing ``version`` fields: replay must preserve
    *file* (commit) order, report ``last_version`` as the maximum seen,
    and version-filtered reads must stay consistent with that — followers
    depend on it for dedup.
    """

    def _write_raw(self, path, versions):
        records = [
            {"type": "publish_priors", "version": version, "round": index}
            for index, version in enumerate(versions)
        ]
        path.write_bytes(b"".join(encode_record(record) for record in records))
        return records

    def test_duplicate_versions_replay_in_file_order(self, tmp_path):
        path = tmp_path / "control.log"
        self._write_raw(path, [1, 2, 2, 3])
        log = ControlLog(path)
        assert [r["round"] for r in log.replay.records] == [0, 1, 2, 3]
        assert log.last_version == 3
        assert log.durable_version == 3
        # The duplicate is retained (file order is the truth for tailers);
        # version-filtered reads return both carriers of version 2.
        assert [r["round"] for r in log.records_since(1)] == [1, 2, 3]
        log.close()

    def test_out_of_order_and_regressing_versions(self, tmp_path):
        path = tmp_path / "control.log"
        self._write_raw(path, [5, 2, 9, 1])
        log = ControlLog(path)
        assert [r["version"] for r in log.replay.records] == [5, 2, 9, 1]
        assert log.last_version == 9  # max, not last-seen
        # The next allocated version continues past the maximum: the
        # sequence can never regress because of a disordered prefix.
        assert log.append("invalidate", {}) == 10
        assert log.records_since(5)[0]["version"] == 9
        log.close()

    def test_non_integer_versions_do_not_poison_the_sequence(self, tmp_path):
        path = tmp_path / "control.log"
        records = [
            {"type": "publish_priors", "version": "seven"},
            {"type": "publish_priors", "version": True},
            {"type": "publish_priors", "version": 3},
        ]
        path.write_bytes(b"".join(encode_record(record) for record in records))
        log = ControlLog(path)
        assert log.last_version == 3
        assert len(log.replay.records) == 3
        # Version-filtered reads skip the unversioned junk records.
        assert [r["version"] for r in log.records_since(0)] == [3]
        log.close()


class TestControlLogAppendFixes:
    """Regressions for the append-path bugfixes.

    * an unserializable payload must be *counted*, never raised, and must
      not burn a version number;
    * the persistent append handle survives across appends and a real
      ``close()`` releases it — late appends degrade to counted errors.
    """

    def test_unserializable_payload_never_raises_or_burns_a_version(self, tmp_path):
        path = tmp_path / "control.log"
        log = ControlLog(path)
        assert log.append("publish_priors", {"priors": {"a": 1.0}}) == 1
        # The poison payload: json.dumps cannot encode an arbitrary object.
        assert log.append("publish_priors", {"poison": object()}) == 1
        stats = log.stats()
        assert stats["append_errors"] == 1
        assert stats["last_version"] == 1  # the failed event never existed
        # The next good append gets version 2 — no gap, no burn.
        assert log.append("invalidate", {}) == 2
        log.close()

        # The file holds exactly the two good records: the failed encode
        # never touched disk and the log replays cleanly.
        reborn = ControlLog(path)
        assert [r["version"] for r in reborn.replay.records] == [1, 2]
        assert reborn.stats()["truncated_tail_bytes"] == 0
        reborn.close()

    def test_append_after_close_is_counted_not_crashed(self, tmp_path):
        path = tmp_path / "control.log"
        log = ControlLog(path)
        assert log.append("invalidate", {}) == 1
        log.close()
        assert log.stats()["closed"] is True
        # Late append: the in-memory version still advances (serving stays
        # monotonic) but the write is refused and counted.
        assert log.append("invalidate", {}) == 2
        assert log.stats()["append_errors"] == 1
        assert log.durable_version == 1

        reborn = ControlLog(path)
        assert reborn.last_version == 1  # the late append never hit disk
        reborn.close()

    def test_append_replicated_skips_stale_and_rejects_invalid(self, tmp_path):
        path = tmp_path / "control.log"
        log = ControlLog(path)
        assert log.append_replicated({"type": "invalidate", "version": 4}) is True
        # Stale or duplicate versions are skipped, not re-committed.
        assert log.append_replicated({"type": "invalidate", "version": 4}) is False
        assert log.append_replicated({"type": "invalidate", "version": 2}) is False
        assert log.last_version == 4
        assert log.stats()["replicated_appends"] == 1
        with pytest.raises(ControlLogFormatError):
            log.append_replicated({"type": "invalidate"})
        with pytest.raises(ControlLogFormatError):
            log.append_replicated({"type": "invalidate", "version": True})
        log.close()


# --------------------------------------------------------------------- #
# Snapshot-store files: round-trip, corruption, version skew
# --------------------------------------------------------------------- #


class TestStoreBlobProperties:
    @DETERMINISTIC
    @given(payload=st.binary(max_size=4096))
    def test_store_blob_roundtrips(self, payload):
        assert decode_store_blob(encode_store_blob(payload)) == payload

    @DETERMINISTIC
    @given(snapshot=cache_snapshots())
    def test_real_snapshots_roundtrip_through_store_envelope(self, snapshot):
        """The store wraps the hand-off wire form verbatim: unwrap + decode
        reproduces the snapshot's canonical JSON bytes exactly."""
        blob = encode_snapshot(snapshot)
        assert decode_store_blob(encode_store_blob(blob)) == blob

    @DETERMINISTIC
    @given(payload=st.binary(min_size=1, max_size=2048), data=st.data())
    def test_truncated_store_file_is_rejected(self, payload, data):
        stored = encode_store_blob(payload)
        cut = data.draw(st.integers(min_value=0, max_value=len(stored) - 1))
        with pytest.raises(StoreFormatError):
            decode_store_blob(stored[:cut])

    @DETERMINISTIC
    @given(payload=st.binary(min_size=1, max_size=2048), data=st.data())
    def test_bit_flipped_store_file_is_rejected(self, payload, data):
        """Every byte of the file is covered by magic, version, length or
        the CRC trailer: any single-bit flip raises StoreFormatError."""
        stored = bytearray(encode_store_blob(payload))
        position = data.draw(st.integers(min_value=0, max_value=len(stored) - 1))
        bit = data.draw(st.integers(min_value=0, max_value=7))
        stored[position] ^= 1 << bit
        with pytest.raises(StoreFormatError):
            decode_store_blob(bytes(stored))

    @DETERMINISTIC
    @given(
        payload=st.binary(max_size=2048),
        version=st.integers(min_value=0, max_value=255).filter(
            lambda value: value != STORE_VERSION
        ),
    )
    def test_version_skewed_store_file_is_rejected(self, payload, version):
        stored = bytearray(encode_store_blob(payload))
        stored[4] = version  # the u8 after the 4-byte magic
        with pytest.raises(StoreFormatError):
            decode_store_blob(bytes(stored))

    @DETERMINISTIC
    @given(payload=st.binary(max_size=1024), tail=st.binary(min_size=1, max_size=32))
    def test_trailing_garbage_is_rejected(self, payload, tail):
        """Appended bytes — a torn second write, filesystem garbage — make
        the file invalid outright rather than silently ignored."""
        with pytest.raises(StoreFormatError):
            decode_store_blob(encode_store_blob(payload) + tail)

    @DETERMINISTIC
    @given(
        junk=st.one_of(
            st.binary(max_size=64),
            st.none(),
            st.integers(),
            st.text(max_size=16),
        )
    )
    def test_junk_store_bytes_are_rejected(self, junk):
        with pytest.raises(StoreFormatError):
            decode_store_blob(junk)


# --------------------------------------------------------------------- #
# HTTP-layer properties against a live server
# --------------------------------------------------------------------- #


@pytest.fixture(scope="module")
def live_server(small_tree_with_priors):
    engine = ForestEngine(
        small_tree_with_priors,
        ServerConfig(epsilon=2.0, num_targets=5, robust_iterations=1),
    )
    server = CORGIHTTPServer(CORGIService(engine), port=0).start()
    try:
        yield server
    finally:
        server.shutdown()


def _post_status(url: str, body: object) -> int:
    """POST arbitrary JSON; return the HTTP status (errors included)."""
    request = urllib.request.Request(
        url,
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status
    except urllib.error.HTTPError as error:
        return error.code


#: JSON bodies mixing valid requests, broken requests and arbitrary junk.
fuzz_bodies = st.one_of(
    valid_request_payloads(),
    invalid_request_payloads(),
    st.dictionaries(
        st.text(max_size=8),
        st.recursive(
            st.one_of(st.none(), st.booleans(), st.integers(), st.text(max_size=6)),
            lambda children: st.lists(children, max_size=3),
            max_leaves=5,
        ),
        max_size=3,
    ),
    st.lists(st.integers(), max_size=3),
    st.integers(),
    st.text(max_size=10),
)

#: The statuses a client may ever see for a syntactically-correct HTTP
#: exchange: success or its own fault — a 5xx would be an error-mapping hole.
CLIENT_CLASS = {200, 400, 404}


class TestHTTPNever500:
    # The engine serves at most 2×7×… distinct cheap 7-leaf builds here:
    # valid payloads are drawn from a small level/δ/ε grid, so the 200 arm
    # stays fast while the 400 arm sweeps the junk space.

    @DETERMINISTIC
    @given(body=fuzz_bodies)
    def test_forest_endpoint(self, live_server, body):
        if isinstance(body, dict):
            # Bound the 200-path key space so builds stay cheap and cached.
            for field, cap in (("privacy_level", 1), ("delta", 2)):
                value = body.get(field)
                if isinstance(value, (int, str)):
                    try:
                        body[field] = min(abs(int(value)), cap)
                    except (TypeError, ValueError, OverflowError):
                        pass
            if isinstance(body.get("epsilon"), (int, float, str)):
                try:
                    if float(body["epsilon"]) > 0:
                        body["epsilon"] = 2.0
                except (TypeError, ValueError):
                    pass
        status = _post_status(live_server.url + "/forest", body)
        assert status in CLIENT_CLASS, f"unexpected status {status} for {body!r}"

    @DETERMINISTIC
    @given(
        requests=st.one_of(
            st.lists(invalid_request_payloads(), max_size=3),
            st.integers(),
            st.none(),
            st.text(max_size=6),
        )
    )
    def test_batch_endpoint(self, live_server, requests):
        status = _post_status(
            live_server.url + "/forest/batch", {"requests": requests}
        )
        assert status in CLIENT_CLASS

    @DETERMINISTIC
    @given(
        level=st.one_of(
            st.none(), st.integers(min_value=-3, max_value=9), junk_scalars
        )
    )
    def test_admin_invalidate_endpoint(self, live_server, level):
        status = _post_status(
            live_server.url + "/admin/invalidate", {"privacy_level": level}
        )
        assert status in CLIENT_CLASS

    @DETERMINISTIC
    @given(
        slot=st.one_of(
            st.none(), st.integers(min_value=-5, max_value=9), junk_scalars
        )
    )
    def test_admin_drain_endpoint(self, live_server, slot):
        # The live server runs a plain engine (no pool), so *every* drain
        # request must come back as a structured client-class answer.
        status = _post_status(live_server.url + "/admin/drain", {"slot": slot})
        assert status in CLIENT_CLASS

    @DETERMINISTIC
    @given(
        priors=st.one_of(
            st.none(),
            st.integers(),
            st.dictionaries(st.text(max_size=6), junk_scalars, max_size=3),
            st.dictionaries(
                st.text(max_size=6),
                st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
                max_size=3,
            ),
        )
    )
    def test_admin_priors_endpoint(self, live_server, priors):
        status = _post_status(live_server.url + "/admin/priors", {"priors": priors})
        assert status in CLIENT_CLASS


# --------------------------------------------------------------------- #
# Solver-session properties (warm-start state hygiene)
# --------------------------------------------------------------------- #


class TestSolverSessionProperties:
    """Coefficient refreshes must never leak solver state between solves.

    One session solves A, a perturbed A', then A again, rebinding nothing
    between them; every solve is cold, so the third answer must equal the
    first bit for bit.
    """

    @settings(derandomize=True, max_examples=15, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(
        scale=st.floats(min_value=0.05, max_value=0.5, allow_nan=False),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_refresh_never_leaks_stale_basis(self, small_location_set, scale, seed):
        from tests.conftest import TEST_EPSILON

        size = len(small_location_set["node_ids"])
        rng = np.random.default_rng(seed)
        budget = rng.uniform(0.0, scale * TEST_EPSILON, size=(size, size))
        lp = ObfuscationLP(
            small_location_set["node_ids"],
            small_location_set["distance_matrix"],
            small_location_set["quality_model"],
            TEST_EPSILON,
            constraint_set=small_location_set["graph"].constraint_set(),
        )
        first = lp.solve(None)
        lp.solve(budget, delta=1)  # perturbed coefficients A'
        third = lp.solve(None)
        np.testing.assert_array_equal(third.matrix.values, first.matrix.values)
        assert third.objective_value == first.objective_value


# --------------------------------------------------------------------- #
# Push-gateway frame codec and live-server robustness
# --------------------------------------------------------------------- #


class TestGatewayFrameProperties:
    @DETERMINISTIC
    @given(message=frame_messages)
    def test_gateway_frame_roundtrips(self, message):
        """Any JSON-object payload survives encode → decode exactly (the
        newline-delimited codec is a strict inverse pair)."""
        assert decode_gateway_frame(encode_gateway_frame(message)) == message

    @DETERMINISTIC
    @given(
        junk=st.one_of(
            st.binary(max_size=64),
            st.text(max_size=32).map(lambda text: text.encode("utf-8")),
            st.just(b""),
            st.just(b"\n"),
            st.just(b"[1, 2, 3]\n"),
            st.just(b'"a bare string"\n'),
            st.just(b'{"truncated": \n'),
        )
    )
    def test_gateway_decode_junk_is_typed_rejection(self, junk):
        """Arbitrary bytes either decode to a JSON object or raise exactly
        GatewayProtocolError (a ValueError, the 400-class fault transports
        already map) — never any other exception type."""
        try:
            decoded = decode_gateway_frame(junk)
        except GatewayProtocolError:
            return
        assert isinstance(decoded, dict)

    @DETERMINISTIC
    @given(payload=st.one_of(st.none(), st.integers(), st.lists(st.integers(), max_size=3)))
    def test_gateway_encode_rejects_non_mappings(self, payload):
        with pytest.raises(GatewayProtocolError):
            encode_gateway_frame(payload)


@pytest.fixture(scope="module")
def live_gateway(small_tree_with_priors):
    engine = ForestEngine(
        small_tree_with_priors,
        ServerConfig(epsilon=2.0, num_targets=5, robust_iterations=1),
    )
    gateway = GatewayServer(
        CORGIService(engine), GatewayConfig(heartbeat_interval_s=30.0)
    ).start()
    try:
        yield gateway
    finally:
        gateway.close()


class TestGatewayNever500s:
    @DETERMINISTIC
    @given(garbage=st.binary(max_size=128))
    def test_garbage_is_answered_and_the_server_survives(self, live_gateway, garbage):
        """Whatever bytes a client throws at a held connection, the server
        answers with typed frames (``error`` for each undecodable line) and
        keeps serving: a ping sent after the garbage is always ponged —
        on the same connection when framing can resynchronize, and by a
        fresh connection regardless."""
        with socket.create_connection(
            ("127.0.0.1", live_gateway.port), timeout=30
        ) as sock:
            stream = sock.makefile("rb")
            # The garbage may lack a terminator; add one so the follow-up
            # ping starts on a frame boundary (line framing resyncs at \n).
            sock.sendall(garbage + b"\n")
            sock.sendall(encode_gateway_frame({"op": "ping", "nonce": "probe"}))
            while True:
                line = stream.readline()
                assert line, "server closed a connection instead of answering"
                frame = decode_gateway_frame(line)
                assert frame["type"] in {"hello", "error", "pong"}
                if frame["type"] == "pong" and frame.get("nonce") == "probe":
                    break
        # And the listener itself is still alive for new connections.
        with socket.create_connection(
            ("127.0.0.1", live_gateway.port), timeout=30
        ) as sock:
            stream = sock.makefile("rb")
            sock.sendall(encode_gateway_frame({"op": "ping", "nonce": "fresh"}))
            while True:
                frame = decode_gateway_frame(stream.readline())
                if frame["type"] == "pong" and frame.get("nonce") == "fresh":
                    break
