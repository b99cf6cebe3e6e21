"""Transcript equality: the fast transport vs the seed implementation.

The fast transport shares one SHAKE-256 keystream between seal and open
inside ``Channel.transmit``, XORs with numpy, and gives the wire codec
batched integer-run paths.  The contract is the same as the
vectorized protocol engine's: *not a single wire byte changes*.  This
suite pins that against the preserved scalar implementations in
:mod:`repro.crypto.reference` -- per primitive, and frame-for-frame over
full sessions across secure/insecure channels and every PRNG kind.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.config import ProtocolSuiteConfig, SessionConfig
from repro.core.session import ClusteringSession
from repro.crypto.prng import available_kinds, make_prng
from repro.crypto.reference import (
    ScalarSymmetricCipher,
    scalar_keystream,
    scalar_transport,
    scalar_xor,
)
from repro.crypto.sym import SymmetricCipher, open_sealed, seal
from repro.data.alphabet import DNA_ALPHABET
from repro.data.matrix import AttributeSpec, DataMatrix
from repro.network import serialization
from repro.network.channel import Channel, Eavesdropper
from repro.types import AttributeType

KEY = b"k" * 32


class TestKeystreamEquivalence:
    @pytest.mark.parametrize("length", [0, 1, 31, 32, 33, 64, 100, 4096, 100001])
    def test_seal_and_open_match_reference(self, length):
        message = bytes(i * 7 % 256 for i in range(length))
        fast, scalar = SymmetricCipher(KEY), ScalarSymmetricCipher(KEY)
        sealed = fast.seal(message, make_prng(length))
        assert sealed == scalar.seal(message, make_prng(length))
        assert fast.open(sealed) == scalar.open(sealed) == message

    def test_nonces_give_distinct_keystreams(self):
        plaintext = bytes(64)  # all zeros: the ciphertext is the keystream
        cipher = SymmetricCipher(KEY)
        entropy = make_prng(7)
        first, second = (cipher.seal(plaintext, entropy) for _ in range(2))
        assert first[:16] != second[:16]
        assert first[16:-32] != second[16:-32]

    @given(data=st.binary(max_size=512))
    @settings(max_examples=50, deadline=None)
    def test_property_xor_roundtrip(self, data):
        stream = scalar_keystream(KEY, b"n" * 16, len(data))
        from repro.crypto.sym import _xor

        assert _xor(data, stream) == scalar_xor(data, stream)
        assert _xor(_xor(data, stream), stream) == data


class TestCipherEquivalence:
    @pytest.mark.parametrize("size", [0, 1, 32, 33, 1000, 65536])
    def test_seal_bytes_identical(self, size):
        message = bytes(i % 256 for i in range(size))
        fast = SymmetricCipher(KEY).seal(message, make_prng(size))
        scalar = ScalarSymmetricCipher(KEY).seal(message, make_prng(size))
        assert fast == scalar

    def test_open_interoperates(self):
        message = b"cross-implementation frame"
        sealed_fast = SymmetricCipher(KEY).seal(message, make_prng(1))
        assert ScalarSymmetricCipher(KEY).open(sealed_fast) == message
        sealed_scalar = ScalarSymmetricCipher(KEY).seal(message, make_prng(2))
        assert SymmetricCipher(KEY).open(sealed_scalar) == message

    def test_transmit_roundtrip_matches_seal(self):
        """The shared-keystream path emits the exact seal() wire bytes
        and consumes the same nonce entropy."""
        cipher = SymmetricCipher(KEY)
        message = b"x" * 1000
        entropy_a, entropy_b = make_prng(3), make_prng(3)
        wire, opened = cipher.transmit_roundtrip(message, entropy_a)
        assert wire == cipher.seal(message, entropy_b)
        assert opened == message
        assert entropy_a.draws == entropy_b.draws

    def test_scalar_transmit_roundtrip_reopens(self):
        cipher = ScalarSymmetricCipher(KEY)
        wire, opened = cipher.transmit_roundtrip(b"payload", make_prng(4))
        assert opened == b"payload"
        assert cipher.open(wire) == b"payload"

    def test_one_shot_helpers_cache_derived_keys(self):
        from repro.crypto import sym

        sym._CIPHER_CACHE.clear()
        sealed = seal(KEY, b"msg", make_prng(5))
        cached = sym._CIPHER_CACHE[KEY]
        assert open_sealed(KEY, sealed) == b"msg"
        assert sym._CIPHER_CACHE[KEY] is cached  # reused, not re-derived

    def test_cipher_cache_bounded(self):
        from repro.crypto import sym

        sym._CIPHER_CACHE.clear()
        for i in range(sym._CIPHER_CACHE_MAX + 8):
            seal(b"k" * 16 + i.to_bytes(16, "big"), b"", make_prng(i))
        assert len(sym._CIPHER_CACHE) <= sym._CIPHER_CACHE_MAX

    @given(data=st.binary(max_size=4096))
    @settings(max_examples=50, deadline=None)
    def test_property_seal_equivalence(self, data):
        fast = SymmetricCipher(KEY).seal(data, make_prng(len(data)))
        scalar = ScalarSymmetricCipher(KEY).seal(data, make_prng(len(data)))
        assert fast == scalar


_INT_RUN = st.lists(
    st.one_of(
        st.integers(-(2**80), 2**80),
        st.integers(-(2**64) - 10, 2**64 + 10),  # densely around the lane bound
        st.integers(-300, 300),
    ),
    max_size=60,
)


class TestCodecEquivalence:
    @given(values=_INT_RUN)
    @settings(max_examples=120, deadline=None)
    def test_property_int_runs_byte_identical(self, values):
        fast = serialization.serialize(values)
        try:
            serialization._FAST_PATHS = False
            assert serialization.serialize(values) == fast
            assert serialization.deserialize(fast) == values
        finally:
            serialization._FAST_PATHS = True
        assert serialization.deserialize(fast) == values
        assert serialization.serialized_size(values) == len(fast)

    def test_mixed_width_runs(self):
        values = [2**(8 * width) - 1 for width in range(1, 12)] * 40
        wire = serialization.serialize(values)
        assert serialization.deserialize(wire) == values
        try:
            serialization._FAST_PATHS = False
            assert serialization.serialize(values) == wire
        finally:
            serialization._FAST_PATHS = True

    def test_long_uniform_run_crosses_chunks(self):
        values = list(range(5000))
        wire = serialization.serialize(values)
        assert serialization.deserialize(wire) == values

    @pytest.mark.parametrize(
        "values",
        [
            [0],
            [1],
            [-1],
            [2**64 - 1],
            [2**64],
            [-(2**64)],
            [0, 1, 2**64 - 1, 255, 256],  # uint64 lane
            [0, 1, -1, 2**63 - 1, -(2**63 - 1)],  # int64 lane
            [-(2**63), 5],  # int64 minimum: per element
            [0, 1, -1, 2**64 - 1, 2**64, -(2**64)],  # per element
        ],
    )
    def test_int_run_matches_per_element_records(self, values):
        out: list[bytes] = []
        assert serialization._encode_int_run(values, out)
        assert out == [b"".join(map(serialization._encode_int, values))]

    @pytest.mark.parametrize("odd", [True, np.int64(3)])
    def test_int_run_with_foreign_type_takes_generic_path(self, odd):
        values = [1, 2, odd, 4]
        out: list[bytes] = []
        assert not serialization._encode_int_run(values, out)
        assert out == []
        fast = serialization.serialize(values)
        with scalar_transport():
            assert serialization.serialize(values) == fast

    @pytest.mark.parametrize(
        "array",
        [
            np.array(7, dtype=np.int64),  # 0-d
            np.zeros((0,), dtype=np.float64),
            np.zeros((3, 0, 2), dtype=np.uint8),
            np.arange(24, dtype=np.int32).reshape(2, 3, 4),
            np.arange(6, dtype=np.float32).reshape(3, 2).T,  # non-contiguous
        ],
    )
    def test_array_records_match_generic_codec(self, array):
        payload = [array, [array, 1], {"a": array}]
        fast = serialization.serialize(payload)
        with scalar_transport():
            assert serialization.serialize(payload) == fast
            generic = serialization.deserialize(fast)
        for decoded in (serialization.deserialize(fast), generic):
            for got in (decoded[0], decoded[1][0], decoded[2]["a"]):
                expected = np.ascontiguousarray(array)
                assert got.dtype == expected.dtype and got.shape == expected.shape
                assert np.array_equal(got, expected)
                assert got.flags.writeable


def _session_partitions():
    schema = [
        AttributeSpec("num", AttributeType.NUMERIC, precision=1),
        AttributeSpec("seq", AttributeType.ALPHANUMERIC, alphabet=DNA_ALPHABET),
        AttributeSpec("cat", AttributeType.CATEGORICAL),
    ]
    return {
        "A": DataMatrix(schema, [[1.5, "ACGT", "x"], [5.0, "TTGT", "y"], [9.25, "ACGG", "x"]]),
        "B": DataMatrix(schema, [[2.0, "ACGA", "y"], [7.5, "TTTT", "x"]]),
        "C": DataMatrix(schema, [[3.5, "AGGT", "z"], [8.0, "TAGT", "y"]]),
    }


def _run_tapped(secure: bool, prng_kind: str):
    suite = ProtocolSuiteConfig(secure_channels=secure, prng_kind=prng_kind)
    session = ClusteringSession(
        SessionConfig(num_clusters=2, master_seed=11, suite=suite),
        _session_partitions(),
    )
    taps = {}
    names = sorted(_session_partitions()) + ["TP"]
    for i, a in enumerate(names):
        for b in names[i + 1 :]:
            tap = Eavesdropper(f"{a}|{b}")
            session.network.attach_tap(a, b, tap)
            taps[(a, b)] = tap
    result = session.run()
    return session, result, taps


class TestSessionTranscriptEquality:
    """Full sessions, fast transport vs the seed transport, frame for frame."""

    @pytest.mark.parametrize("secure", [True, False])
    @pytest.mark.parametrize("prng_kind", sorted(available_kinds()))
    def test_wire_identical_to_seed_transport(self, secure, prng_kind):
        fast_session, fast_result, fast_taps = _run_tapped(secure, prng_kind)
        with scalar_transport():
            seed_session, seed_result, seed_taps = _run_tapped(secure, prng_kind)

        assert fast_result.to_payload() == seed_result.to_payload()
        for link, fast_tap in fast_taps.items():
            seed_tap = seed_taps[link]
            fast_frames = [(f.sender, f.recipient, f.kind, f.tag, f.wire) for f in fast_tap.frames]
            seed_frames = [(f.sender, f.recipient, f.kind, f.tag, f.wire) for f in seed_tap.frames]
            assert fast_frames == seed_frames, f"transcript diverged on link {link}"

    @pytest.mark.parametrize("secure", [True, False])
    def test_stats_identical_to_seed_transport(self, secure):
        fast_session, _, _ = _run_tapped(secure, "hash_drbg")
        with scalar_transport():
            seed_session, _, _ = _run_tapped(secure, "hash_drbg")

        names = sorted(_session_partitions()) + ["TP"]
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                fast_channel = fast_session.network.channel(a, b)
                seed_channel = seed_session.network.channel(a, b)
                for x, y in ((a, b), (b, a)):
                    assert fast_channel.stats(x, y) == seed_channel.stats(x, y)
                fast_tags = {
                    tag: (s.messages, s.payload_bytes, s.wire_bytes)
                    for tag, s in fast_channel.tag_totals().items()
                }
                seed_tags = {
                    tag: (s.messages, s.payload_bytes, s.wire_bytes)
                    for tag, s in seed_channel.tag_totals().items()
                }
                assert fast_tags == seed_tags
        assert fast_session.total_bytes() == seed_session.total_bytes()

    def test_scalar_transport_restores_state(self):
        from repro.network import channel

        before = channel.SymmetricCipher
        with scalar_transport():
            assert channel.SymmetricCipher is ScalarSymmetricCipher
            assert serialization._FAST_PATHS is False
        assert channel.SymmetricCipher is before
        assert serialization._FAST_PATHS is True

    def test_scalar_channel_matches_fast_channel(self):
        """Channel-level: same key/entropy, byte-identical wire frames."""
        payload = {"attribute": "num", "values": [2**63 + i for i in range(100)]}
        fast = Channel("A", "B", secure=True, key=KEY, entropy=make_prng(1))
        fast_message = fast.transmit("A", "B", "kind", "tag", payload)
        with scalar_transport():
            seed = Channel("A", "B", secure=True, key=KEY, entropy=make_prng(1))
            seed_message = seed.transmit("A", "B", "kind", "tag", payload)
        assert fast_message.payload == seed_message.payload
        assert fast_message.wire_bytes == seed_message.wire_bytes
        assert fast.stats("A", "B") == seed.stats("A", "B")
