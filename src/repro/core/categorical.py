"""The categorical comparison protocol (paper Section 4.3).

"Data holder parties share a secret key to encrypt their data.  Value of
the categorical attribute is encrypted for every object at every site and
these encrypted data are sent to the third party ... If ciphertext of two
categorical values are the same, then plaintexts must be the same.  Third
party merges encrypted data and runs the local dissimilarity matrix
construction algorithm [Figure 12].  Outcome is not a local dissimilarity
matrix ... since data from all parties is input to the algorithm."

Unlike the numeric/alphanumeric cases there are no cross-site protocol
rounds: each holder sends one encrypted column (cost O(n), Section 4.3),
and the TP alone assembles the *global* 0/1 matrix.

The TP runs Figure 12 over int *codes* rather than ciphertexts: each
distinct ciphertext maps to one code in a single O(n) pass, so two
objects share a code exactly when their ciphertexts are equal, and the
0/1 matrix is then filled one vectorized row comparison at a time.  The
result equals ``local_dissimilarity(merged, ciphertext_distance)`` entry
for entry (the equivalence suite keeps that callback form as the spec).
"""

from __future__ import annotations

from typing import Hashable, Mapping, Sequence

import numpy as np

from repro.crypto.detenc import DeterministicEncryptor
from repro.data.partition import GlobalIndex
from repro.distance.dissimilarity import DissimilarityMatrix, condensed_size
from repro.exceptions import ProtocolError


def holder_encrypt_column(
    encryptor: DeterministicEncryptor,
    attribute: str,
    values: Sequence[str],
) -> list[bytes]:
    """Per-site step: deterministically encrypt the categorical column."""
    return encryptor.encrypt_column(attribute, list(values))


def equality_codes(values: Sequence[Hashable]) -> np.ndarray:
    """One int64 code per value, equal codes exactly for equal values.

    Codes are assigned in first-appearance order by one dict pass, so a
    column of deterministic ciphertexts costs O(n) hashing and every
    later comparison is an integer compare.
    """
    table: dict[Hashable, int] = {}
    return np.fromiter(
        (table.setdefault(value, len(table)) for value in values),
        dtype=np.int64,
        count=len(values),
    )


def code_dissimilarity(codes: np.ndarray) -> DissimilarityMatrix:
    """Figure 12 over equality codes: the global 0/1 matrix.

    Row ``i`` of the strict lower triangle is ``codes[:i] != codes[i]``,
    written straight into its condensed (Figure 2) slot -- one array
    comparison per row and no O(n^2) index arrays.
    """
    n = len(codes)
    condensed = np.empty(condensed_size(n), dtype=np.float64)
    start = 0
    for i in range(1, n):
        np.not_equal(codes[:i], codes[i], out=condensed[start : start + i])
        start += i
    return DissimilarityMatrix(n, condensed)


def third_party_categorical_matrix(
    encrypted_columns: Mapping[str, Sequence[bytes]],
    index: GlobalIndex,
) -> DissimilarityMatrix:
    """TP step: merge ciphertext columns and run Figure 12 on the result.

    Columns are concatenated in the canonical site order of ``index`` so
    the output rows line up with every other attribute's global matrix.
    """
    if set(encrypted_columns) != set(index.sites):
        raise ProtocolError(
            f"columns from sites {sorted(encrypted_columns)} do not match "
            f"index sites {list(index.sites)}"
        )
    merged: list[bytes] = []
    for site in index.sites:
        column = list(encrypted_columns[site])
        if len(column) != index.size_of(site):
            raise ProtocolError(
                f"site {site!r} sent {len(column)} ciphertexts, "
                f"index expects {index.size_of(site)}"
            )
        merged.extend(column)
    return code_dissimilarity(equality_codes(merged))
