"""Categorical comparison function.

Section 4.3: "Categorical attributes are only compared for equality so
that any categorical value is equally distant to all other values but
itself":

.. math::

    distance(a, b) = 0 \\text{ if } a = b \\text{ else } 1

The paper explicitly leaves ordered/hierarchical categorical domains as
future work; this module therefore implements the flat 0/1 metric only,
plus the ciphertext-side variant the third party runs (it never sees
plaintexts, only deterministic ciphertexts whose equality mirrors
plaintext equality).
"""

from __future__ import annotations

from typing import Hashable


def categorical_distance(a: Hashable, b: Hashable) -> int:
    """0 when equal, 1 otherwise -- over plaintext values."""
    return 0 if a == b else 1


def ciphertext_distance(ciphertext_a: bytes, ciphertext_b: bytes) -> int:
    """The third party's version: equality of deterministic ciphertexts.

    Kept as the per-pair specification; the TP itself compares int codes
    of the ciphertexts (:func:`repro.core.categorical.equality_codes`).

    Correct because the encryption is deterministic and injective per
    attribute (collisions are birthday-bounded far below any categorical
    domain size; see :class:`repro.crypto.detenc.DeterministicEncryptor`).
    """
    return 0 if ciphertext_a == ciphertext_b else 1
