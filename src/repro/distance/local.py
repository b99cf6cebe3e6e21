"""Local dissimilarity matrix construction (paper Figure 12).

Every data holder runs this on each attribute column of its own
partition: no privacy machinery is needed for pairs of objects held by
the same party (Section 4, first paragraph).  Run over the merged
*ciphertext* column with :func:`~repro.distance.categorical.ciphertext_distance`
it is also the specification of the third party's categorical matrix,
which :mod:`repro.core.categorical` builds over ciphertext codes instead.
"""

from __future__ import annotations

from typing import Callable, Sequence, TypeVar

from repro.distance.dissimilarity import DissimilarityMatrix

T = TypeVar("T")


def local_dissimilarity(
    column: Sequence[T], distance: Callable[[T, T], float]
) -> DissimilarityMatrix:
    """Pairwise distances within one attribute column.

    Follows Figure 12 exactly: fill ``d[m][n] = distance(D[m], D[n])``
    for ``n <= m`` (the diagonal stays implicitly zero in our condensed
    representation).
    """
    values = list(column)
    return DissimilarityMatrix.from_pairwise(
        len(values), lambda i, j: distance(values[i], values[j])
    )
