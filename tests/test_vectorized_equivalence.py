"""Vectorized engine vs scalar reference: byte-identical protocol messages.

The rewrite of :mod:`repro.core.numeric` and :mod:`repro.core.alphanumeric`
as array operations must not change a single protocol message relative to
the paper-shaped scalar implementations preserved in
:mod:`repro.core.reference`.  These tests drive both engines with clone
generators over random inputs -- every PRNG kind, mask widths below,
at and above 64 bits (the int64 fast path and the object-dtype exact
fallback) -- and compare the *serialized wire bytes*, not just the
values.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import alphanumeric as alnum_vec
from repro.core import numeric as num_vec
from repro.core import reference as ref
from repro.crypto.prng import available_kinds, make_prng
from repro.data.alphabet import DNA_ALPHABET, FIGURE7_ALPHABET, Alphabet
from repro.distance.edit import edit_distance_from_ccm
from repro.network.serialization import serialize

ALL_KINDS = available_kinds()
WIDE_ALPHABET = Alphabet("abcdefghijklmnopqrstuvwxyz0123456789")


def _clones(seed, kind):
    return make_prng(seed, kind), make_prng(seed, kind)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("mask_bits", [16, 62, 64, 96, 128])
class TestNumericWireEquivalence:
    VALUES_J = [3, -15, 1000, 0, 7, 2**70, -(2**65)]
    VALUES_K = [8, 8, -100, 2**70 + 3]

    def test_batch_messages_byte_identical(self, kind, mask_bits):
        jk_v, jk_r = _clones(1, kind)
        jt_v, jt_r = _clones(2, kind)
        masked_v = num_vec.initiator_mask_batch(self.VALUES_J, jk_v, jt_v, mask_bits)
        masked_r = ref.initiator_mask_batch(self.VALUES_J, jk_r, jt_r, mask_bits)
        assert serialize(masked_v) == serialize(masked_r)
        jk_v, jk_r = _clones(1, kind)
        matrix_v = num_vec.responder_matrix_batch(self.VALUES_K, masked_v, jk_v)
        matrix_r = ref.responder_matrix_batch(self.VALUES_K, masked_r, jk_r)
        assert serialize(matrix_v) == serialize(matrix_r)
        jt_v, jt_r = _clones(2, kind)
        unmasked_v = num_vec.third_party_unmask_batch(matrix_v, jt_v, mask_bits)
        unmasked_r = ref.third_party_unmask_batch(matrix_r, jt_r, mask_bits)
        assert unmasked_v.tolist() == unmasked_r

    def test_per_pair_messages_byte_identical(self, kind, mask_bits):
        jk_v, jk_r = _clones(3, kind)
        jt_v, jt_r = _clones(4, kind)
        m = len(self.VALUES_K)
        masked_v = num_vec.initiator_mask_per_pair(
            self.VALUES_J, m, jk_v, jt_v, mask_bits
        )
        masked_r = ref.initiator_mask_per_pair(
            self.VALUES_J, m, jk_r, jt_r, mask_bits
        )
        assert serialize(masked_v) == serialize(masked_r)
        jk_v, jk_r = _clones(3, kind)
        matrix_v = num_vec.responder_matrix_per_pair(self.VALUES_K, masked_v, jk_v)
        matrix_r = ref.responder_matrix_per_pair(self.VALUES_K, masked_r, jk_r)
        assert serialize(matrix_v) == serialize(matrix_r)
        jt_v, jt_r = _clones(4, kind)
        unmasked_v = num_vec.third_party_unmask_per_pair(matrix_v, jt_v, mask_bits)
        unmasked_r = ref.third_party_unmask_per_pair(matrix_r, jt_r, mask_bits)
        assert unmasked_v.tolist() == unmasked_r


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize("mask_bits", [20, 64, 80])
def test_numeric_mid_stream_generators_still_agree(kind, mask_bits):
    """Scalar Figure 5/6 semantics: row 0 consumes the generator's entry
    state, rows 1+ the post-reset state.  The vectorized engine must
    reproduce both even when handed a generator mid-stream."""
    values_j, values_k = [3, -15, 1000, 0], [8, 8, -100]
    jk_v, jk_r = _clones(1, kind)
    jt_v, jt_r = _clones(2, kind)
    for g in (jk_v, jk_r, jt_v, jt_r):
        g.next_uint64()
        g.next_uint64()
    masked = ref.initiator_mask_batch(values_j, make_prng(1, kind), make_prng(2, kind), mask_bits)
    matrix_v = num_vec.responder_matrix_batch(values_k, masked, jk_v)
    matrix_r = ref.responder_matrix_batch(values_k, masked, jk_r)
    assert matrix_v == matrix_r
    unmasked_v = num_vec.third_party_unmask_batch(matrix_v, jt_v, mask_bits)
    unmasked_r = ref.third_party_unmask_batch(matrix_r, jt_r, mask_bits)
    assert unmasked_v.tolist() == unmasked_r


@given(
    kind=st.sampled_from(ALL_KINDS),
    mask_bits=st.integers(16, 90),
    seed=st.integers(0, 2**32),
    values_j=st.lists(st.integers(-(2**66), 2**66), max_size=6),
    values_k=st.lists(st.integers(-(2**66), 2**66), max_size=5),
)
@settings(max_examples=60, deadline=None)
def test_property_numeric_batch_equivalence(kind, mask_bits, seed, values_j, values_k):
    jk_v, jk_r = _clones(seed, kind)
    jt_v, jt_r = _clones(seed + 1, kind)
    masked_v = num_vec.initiator_mask_batch(values_j, jk_v, jt_v, mask_bits)
    masked_r = ref.initiator_mask_batch(values_j, jk_r, jt_r, mask_bits)
    assert masked_v == masked_r
    assert jt_v.draws == jt_r.draws and jk_v.draws == jk_r.draws
    jk_v, jk_r = _clones(seed, kind)
    matrix_v = num_vec.responder_matrix_batch(values_k, masked_v, jk_v)
    matrix_r = ref.responder_matrix_batch(values_k, masked_r, jk_r)
    assert matrix_v == matrix_r
    jt_v, jt_r = _clones(seed + 1, kind)
    unmasked_v = num_vec.third_party_unmask_batch(matrix_v, jt_v, mask_bits)
    unmasked_r = ref.third_party_unmask_batch(matrix_r, jt_r, mask_bits)
    assert unmasked_v.tolist() == unmasked_r


def _unmask_both_modes(values_j, values_k, mask_bits, seed=7):
    """TP unmask outputs (vectorized, reference) for batch and per-pair."""
    out = []
    jk, jt = make_prng(seed), make_prng(seed + 1)
    masked = ref.initiator_mask_batch(values_j, jk, jt, mask_bits)
    matrix = ref.responder_matrix_batch(values_k, masked, make_prng(seed))
    jt_v, jt_r = _clones(seed + 1, "hash_drbg")
    out.append(
        (
            num_vec.third_party_unmask_batch(matrix, jt_v, mask_bits),
            ref.third_party_unmask_batch(matrix, jt_r, mask_bits),
        )
    )
    jk, jt = make_prng(seed + 2), make_prng(seed + 3)
    masked = ref.initiator_mask_per_pair(values_j, len(values_k), jk, jt, mask_bits)
    matrix = ref.responder_matrix_per_pair(values_k, masked, make_prng(seed + 2))
    jt_v, jt_r = _clones(seed + 3, "hash_drbg")
    out.append(
        (
            num_vec.third_party_unmask_per_pair(matrix, jt_v, mask_bits),
            ref.third_party_unmask_per_pair(matrix, jt_r, mask_bits),
        )
    )
    return out


class TestUnmaskDemotion:
    """The TP unmask leaves the exact object path as int64 when it can."""

    @pytest.mark.parametrize("mask_bits", [64, 96, 128])
    def test_small_distances_come_back_int64(self, mask_bits):
        for got, expected in _unmask_both_modes([3, -15, 10**12, 0], [8, -10**9], mask_bits):
            assert got.dtype == np.int64
            assert got.tolist() == expected

    def test_distances_at_the_bound_stay_object(self):
        # |x - y| reaches 2^62 exactly: the first value that no longer fits.
        for got, expected in _unmask_both_modes([0, 2**62], [0], 64):
            assert got.dtype == object
            assert got.tolist() == expected
            assert max(map(max, expected)) == 2**62

    def test_huge_entries_with_wide_masks_stay_object(self):
        for got, expected in _unmask_both_modes([2**90, -(2**70)], [2**80, 5], 128):
            assert got.dtype == object
            assert got.tolist() == expected
            assert all(type(v) is int for row in got.tolist() for v in row)

    def test_non_integral_entries_are_never_truncated(self):
        matrix = [[2**64 + 0.5, 7], [3, 2**63]]
        jt_v, jt_r = _clones(5, "hash_drbg")
        got = num_vec.third_party_unmask_batch(matrix, jt_v, 64)
        assert got.dtype == object
        assert got.tolist() == ref.third_party_unmask_batch(matrix, jt_r, 64)

    def test_numpy_integers_in_rows_match_reference(self):
        matrix = [[np.int64(5), 2**64 + 1], [np.uint64(2**63), True]]
        jt_v, jt_r = _clones(6, "hash_drbg")
        got = num_vec.third_party_unmask_batch(matrix, jt_v, 64)
        assert got.tolist() == ref.third_party_unmask_batch(matrix, jt_r, 64)


@pytest.mark.parametrize("kind", ALL_KINDS)
@pytest.mark.parametrize(
    "alphabet", [DNA_ALPHABET, FIGURE7_ALPHABET, WIDE_ALPHABET]
)
class TestAlphanumericWireEquivalence:
    def _strings(self, alphabet, seed):
        rng = np.random.default_rng(seed)
        chars = alphabet.characters
        return [
            "".join(chars[i] for i in rng.integers(0, len(chars), size=size))
            for size in (0, 5, 9, 1, 7)
        ]

    def test_masked_strings_byte_identical(self, kind, alphabet):
        strings = self._strings(alphabet, 0)
        jt_v, jt_r = _clones(5, kind)
        masked_v = alnum_vec.initiator_mask_strings(strings, alphabet, jt_v)
        masked_r = ref.initiator_mask_strings(strings, alphabet, jt_r)
        assert serialize(masked_v) == serialize(masked_r)

    def test_decode_and_distances_match_reference(self, kind, alphabet):
        strings_j = self._strings(alphabet, 1)
        strings_k = self._strings(alphabet, 2)[1:]
        masked = ref.initiator_mask_strings(strings_j, alphabet, make_prng(6, kind))
        matrices = alnum_vec.responder_ccm_matrices(strings_k, masked, alphabet)
        for row in matrices:
            for intermediary in row:
                ccm_v = alnum_vec.third_party_decode_ccm(
                    intermediary, alphabet, make_prng(6, kind)
                )
                ccm_r = ref.third_party_decode_ccm(
                    intermediary, alphabet, make_prng(6, kind)
                )
                assert np.array_equal(ccm_v, ccm_r)
        distances = alnum_vec.third_party_distances(
            matrices, alphabet, make_prng(6, kind)
        )
        expected = [
            [
                edit_distance_from_ccm(
                    ref.third_party_decode_ccm(m, alphabet, make_prng(6, kind))
                )
                for m in row
            ]
            for row in matrices
        ]
        assert distances.tolist() == expected

    def test_mid_stream_generators_still_agree(self, kind, alphabet):
        """Scalar Figure 8/10 semantics: the first string/row consumes the
        generator's entry state, everything later the post-reset state.
        The vectorized engine reproduces both."""
        strings = self._strings(alphabet, 3)
        jt_v, jt_r = _clones(7, kind)
        jt_v.next_uint64()
        jt_r.next_uint64()
        assert alnum_vec.initiator_mask_strings(
            strings, alphabet, jt_v
        ) == ref.initiator_mask_strings(strings, alphabet, jt_r)
        masked = ref.initiator_mask_strings(strings, alphabet, make_prng(8, kind))
        matrices = alnum_vec.responder_ccm_matrices(strings[1:], masked, alphabet)
        jt_v, jt_r = _clones(8, kind)
        jt_v.next_uint64()
        jt_r.next_uint64()
        ccm_v = alnum_vec.third_party_decode_ccm(matrices[0][1], alphabet, jt_v)
        ccm_r = ref.third_party_decode_ccm(matrices[0][1], alphabet, jt_r)
        assert np.array_equal(ccm_v, ccm_r)
