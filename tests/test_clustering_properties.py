"""Randomized property suite for the rewritten clustering layer.

Hypothesis drives random dissimilarity matrices -- including matrices
with deliberate ties, the adversarial regime for nearest-neighbor-chain
clustering -- through invariants the layer must hold unconditionally:

* NN-chain agrees with ``scipy.cluster.hierarchy.linkage`` on merge
  heights, and with the preserved seed on the full dendrogram,
* cophenetic matrices stay ultrametric and consistent with the merge
  heights; supported linkages stay monotone,
* FasterPAM never ends with a higher cost than the reference PAM from
  the same BUILD initialisation,
* the condensed primitives agree with their square-matrix meanings.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.cluster.hierarchy import linkage as scipy_linkage

from repro.clustering.kmedoids import k_medoids
from repro.clustering.linkage import agglomerative
from repro.clustering.reference import reference_agglomerative, reference_k_medoids
from repro.distance.dissimilarity import (
    DissimilarityMatrix,
    condensed_argmin,
    condensed_pair_indices,
    condensed_row_gather,
    condensed_row_scatter,
    same_label_mask,
)
from repro.distance.store import InMemoryStore
from repro.types import LinkageMethod

METHODS = list(LinkageMethod)


def random_matrix(n: int, seed: int, tie_levels: int | None) -> DissimilarityMatrix:
    """Euclidean matrix, or an integer-levels one with massive ties."""
    rng = np.random.default_rng(seed)
    if tie_levels is None:
        points = rng.normal(size=(n, 3))
        square = np.linalg.norm(points[:, None] - points[None, :], axis=2)
    else:
        square = rng.integers(1, tie_levels + 1, size=(n, n)).astype(np.float64)
        square = np.minimum(square, square.T)
        np.fill_diagonal(square, 0.0)
    return DissimilarityMatrix.from_square(square)


matrix_strategy = st.tuples(
    st.integers(3, 16),
    st.integers(0, 10_000),
    st.one_of(st.none(), st.integers(2, 5)),
)


class TestLinkageProperties:
    @given(params=matrix_strategy, method_index=st.integers(0, len(METHODS) - 1))
    @settings(max_examples=40, deadline=None)
    def test_nn_chain_vs_scipy_heights(self, params, method_index):
        """Merge-height multisets match scipy's.

        With deliberate ties, only single linkage has tie-independent
        heights (the MST edge weights); for the other methods different
        legal tie resolutions yield different (all valid) dendrograms --
        scipy picks its own, we replicate the seed's (asserted exactly by
        :meth:`test_nn_chain_vs_reference_exact`) -- so the scipy
        comparison degrades to the invariants every resolution shares.
        """
        matrix = random_matrix(params[0], params[1], params[2])
        method = METHODS[method_index]
        ours = agglomerative(matrix, method)
        theirs = scipy_linkage(matrix.to_scipy_condensed(), method=method.value)
        if params[2] is None or method is LinkageMethod.SINGLE:
            assert np.allclose(
                sorted(ours.heights), sorted(theirs[:, 2]), rtol=1e-8, atol=1e-12
            )
        else:
            assert len(ours.heights) == theirs.shape[0]
            assert ours.heights[0] == pytest.approx(theirs[0, 2], rel=1e-8)
            assert ours.merges[-1].size == int(theirs[-1, 3])

    @given(params=matrix_strategy, method_index=st.integers(0, len(METHODS) - 1))
    @settings(max_examples=40, deadline=None)
    def test_nn_chain_vs_reference_exact(self, params, method_index):
        """Merge-for-merge identity with the seed, ties included."""
        matrix = random_matrix(params[0], params[1], params[2])
        method = METHODS[method_index]
        assert (
            agglomerative(matrix, method).merges
            == reference_agglomerative(matrix, method).merges
        )

    @given(params=matrix_strategy, method_index=st.integers(0, len(METHODS) - 1))
    @settings(max_examples=30, deadline=None)
    def test_cophenetic_and_monotonicity_invariants(self, params, method_index):
        matrix = random_matrix(params[0], params[1], params[2])
        method = METHODS[method_index]
        dendrogram = agglomerative(matrix, method)
        # Supported linkages are reducible, hence monotone.
        assert dendrogram.is_monotone()
        coph = dendrogram.cophenetic_matrix()
        # Ultrametric: coph(i,j) <= max(coph(i,k), coph(k,j)) for all triples.
        via = np.maximum(coph[:, :, None], coph[None, :, :])
        assert np.all(coph[:, None, :] <= via.transpose(0, 2, 1) + 1e-9)
        # Every off-diagonal cophenetic value is one of the merge heights.
        heights = np.asarray(dendrogram.heights)
        values = dendrogram.cophenetic_condensed()
        assert np.all(np.isclose(values[:, None], heights[None, :]).any(axis=1))


class TestKMedoidsProperties:
    @given(
        seed=st.integers(0, 10_000),
        n=st.integers(6, 40),
        k=st.integers(2, 5),
        tie_levels=st.one_of(st.none(), st.integers(2, 5)),
    )
    @settings(max_examples=30, deadline=None)
    def test_fasterpam_cost_never_above_reference(self, seed, n, k, tie_levels):
        """Same BUILD init, so the steepest-descent replay can never end
        costlier than the reference PAM."""
        k = min(k, n)
        matrix = random_matrix(n, seed, tie_levels)
        fast = k_medoids(matrix, k)
        ref = reference_k_medoids(matrix, k)
        assert fast.cost <= ref.cost + 1e-9

    @given(seed=st.integers(0, 10_000), n=st.integers(4, 30))
    @settings(max_examples=20, deadline=None)
    def test_labels_are_consistent_partition(self, seed, n):
        matrix = random_matrix(n, seed, None)
        k = 2 + seed % 3
        result = k_medoids(matrix, min(k, n))
        assert len(result.labels) == n
        assert sorted(set(result.labels)) == list(range(len(result.medoids)))
        # Each medoid belongs to the cluster it names, in label order.
        for label, medoid in enumerate(result.medoids):
            assert result.labels[medoid] == label


class TestCondensedPrimitives:
    @given(seed=st.integers(0, 10_000), n=st.integers(2, 30))
    @settings(max_examples=25, deadline=None)
    def test_argmin_matches_square_rule(self, seed, n):
        """condensed_argmin == np.argmin over the square (seed tie rule),
        exercised on tied integer matrices."""
        matrix = random_matrix(n, seed, 3)
        square = matrix.to_square()
        np.fill_diagonal(square, np.inf)
        flat = int(np.argmin(square))
        expected = divmod(flat, n)
        i, j = condensed_argmin(InMemoryStore(matrix.condensed), n)
        assert (min(i, j), max(i, j)) == (
            min(expected),
            max(expected),
        )

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 25))
    @settings(max_examples=25, deadline=None)
    def test_row_gather_scatter_roundtrip(self, seed, n):
        matrix = random_matrix(n, seed, None)
        values = InMemoryStore(np.array(matrix.condensed))
        square = matrix.to_square()
        index = seed % n
        row = condensed_row_gather(values, index, n)
        assert np.array_equal(row, square[index])
        doubled = row * 2.0
        condensed_row_scatter(values, index, n, doubled)
        rebuilt = condensed_row_gather(values, index, n)
        expected = square[index] * 2.0
        expected[index] = 0.0
        assert np.array_equal(rebuilt, expected)

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 25))
    @settings(max_examples=25, deadline=None)
    def test_same_label_mask(self, seed, n):
        rng = np.random.default_rng(seed)
        labels = rng.integers(0, 4, size=n)
        i, j = condensed_pair_indices(n)
        assert np.array_equal(same_label_mask(labels), labels[i] == labels[j])

    def test_cross_block_matches_elementwise(self):
        matrix = random_matrix(12, 77, None)
        rows, cols = [1, 5, 9], [0, 2, 5, 11]
        block = matrix.cross_block(rows, cols)
        for bi, i in enumerate(rows):
            for bj, j in enumerate(cols):
                assert block[bi, bj] == matrix[i, j]
