"""Tests for the categorical comparison protocol (Section 4.3)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.categorical import (
    code_dissimilarity,
    equality_codes,
    holder_encrypt_column,
    third_party_categorical_matrix,
)
from repro.crypto.detenc import DeterministicEncryptor
from repro.data.partition import GlobalIndex
from repro.distance.categorical import categorical_distance, ciphertext_distance
from repro.distance.local import local_dissimilarity
from repro.exceptions import ConfigurationError, ProtocolError

KEY = b"shared-holder-key-0123456789abcd"


def _encrypt_sites(columns: dict[str, list[str]], attribute: str = "city"):
    encryptor = DeterministicEncryptor(KEY)
    return {
        site: holder_encrypt_column(encryptor, attribute, values)
        for site, values in columns.items()
    }


class TestProtocol:
    def test_matches_plaintext_matrix(self):
        columns = {
            "A": ["red", "blue", "red"],
            "B": ["blue", "green"],
        }
        index = GlobalIndex({"A": 3, "B": 2})
        encrypted = _encrypt_sites(columns)
        matrix = third_party_categorical_matrix(encrypted, index)

        merged_plain = columns["A"] + columns["B"]
        expected = local_dissimilarity(merged_plain, categorical_distance)
        assert matrix.allclose(expected)

    def test_cross_site_equality_detected(self):
        columns = {"A": ["x"], "B": ["x"], "C": ["y"]}
        index = GlobalIndex({"A": 1, "B": 1, "C": 1})
        matrix = third_party_categorical_matrix(_encrypt_sites(columns), index)
        assert matrix[1, 0] == 0.0  # A0 == B0
        assert matrix[2, 0] == 1.0  # A0 != C0

    def test_canonical_site_order(self):
        """Rows must follow sorted site order regardless of dict order."""
        columns = {"B": ["v"], "A": ["w"]}
        index = GlobalIndex({"A": 1, "B": 1})
        matrix = third_party_categorical_matrix(_encrypt_sites(columns), index)
        assert matrix[1, 0] == 1.0

    def test_missing_site_rejected(self):
        index = GlobalIndex({"A": 1, "B": 1})
        with pytest.raises(ProtocolError):
            third_party_categorical_matrix(_encrypt_sites({"A": ["x"]}), index)

    def test_extra_site_rejected(self):
        index = GlobalIndex({"A": 1})
        encrypted = _encrypt_sites({"A": ["x"], "B": ["y"]})
        with pytest.raises(ProtocolError):
            third_party_categorical_matrix(encrypted, index)

    def test_size_mismatch_rejected(self):
        index = GlobalIndex({"A": 2, "B": 1})
        encrypted = _encrypt_sites({"A": ["x"], "B": ["y"]})
        with pytest.raises(ProtocolError):
            third_party_categorical_matrix(encrypted, index)

    def test_different_keys_break_equality(self):
        """Sites must share one key; differing keys make everything look
        distinct (silent accuracy loss the group-key setup prevents)."""
        index = GlobalIndex({"A": 1, "B": 1})
        enc_a = DeterministicEncryptor(b"a" * 32)
        enc_b = DeterministicEncryptor(b"b" * 32)
        encrypted = {
            "A": holder_encrypt_column(enc_a, "city", ["same"]),
            "B": holder_encrypt_column(enc_b, "city", ["same"]),
        }
        matrix = third_party_categorical_matrix(encrypted, index)
        assert matrix[1, 0] == 1.0

    def test_tp_sees_only_ciphertexts(self):
        """The TP input contains no plaintext value."""
        encrypted = _encrypt_sites({"A": ["topsecret"], "B": ["topsecret"]})
        for column in encrypted.values():
            for ciphertext in column:
                assert b"topsecret" not in ciphertext
                assert isinstance(ciphertext, bytes)


def _spec_matrix(merged):
    """Figure 12 with the per-pair ciphertext callback: the specification
    the code-based build must reproduce entry for entry."""
    return local_dissimilarity(merged, ciphertext_distance)


def _assert_matches_spec(merged):
    built = code_dissimilarity(equality_codes(merged))
    spec = _spec_matrix(merged)
    assert built.num_objects == spec.num_objects
    assert np.array_equal(built.condensed, spec.condensed)


class TestCodeDissimilarity:
    @pytest.mark.parametrize(
        "merged",
        [
            [b"only"],
            [b"a", b"a"],
            [b"a", b"b"],
            [b"same"] * 9,
            [bytes([i]) for i in range(12)],
            [b"x", b"y", b"x", b"z", b"y", b"x"],
        ],
        ids=["n1", "n2-equal", "n2-distinct", "all-equal", "all-distinct", "mixed"],
    )
    def test_matches_callback_spec(self, merged):
        _assert_matches_spec(merged)

    def test_empty_column_rejected_like_spec(self):
        assert equality_codes([]).shape == (0,)
        with pytest.raises(ConfigurationError):
            _spec_matrix([])
        with pytest.raises(ConfigurationError):
            code_dissimilarity(equality_codes([]))

    def test_codes_follow_first_appearance(self):
        assert equality_codes([b"q", b"r", b"q", b"s"]).tolist() == [0, 1, 0, 2]

    @given(st.lists(st.sampled_from([b"", b"a", b"b", b"ab", b"\x00"]), min_size=1, max_size=40))
    @settings(max_examples=80, deadline=None)
    def test_property_matches_callback_spec(self, merged):
        _assert_matches_spec(merged)

    def test_tp_matrix_matches_spec_over_sites(self):
        columns = {"A": ["red", "blue", "red"], "B": ["blue", "green"], "C": ["red"]}
        index = GlobalIndex({"A": 3, "B": 2, "C": 1})
        encrypted = _encrypt_sites(columns)
        merged = [c for site in index.sites for c in encrypted[site]]
        built = third_party_categorical_matrix(encrypted, index)
        assert np.array_equal(built.condensed, _spec_matrix(merged).condensed)
