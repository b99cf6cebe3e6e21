"""Backend-conformance harness for the condensed storage layer.

Every :class:`~repro.distance.store.CondensedStore` backend must behave
identically through the store contract and through every
:class:`~repro.distance.dissimilarity.DissimilarityMatrix` operation:
bit-identically, whatever their block size.  The harness runs every
public operation on a backend under test (with tiny blocks) and on the
default in-memory reference simultaneously and compares results -- plus a
Hypothesis property that drives random operation *sequences* through
both, so cross-operation interactions (grow, shrink, overwrite, rescale)
are covered, not just single calls.

The memmap backend additionally gets white-box units for what makes it
a backend at all: the LRU cache bound, dirty writeback through
eviction, shard-directory persistence/reopen, and ownership cleanup.
The RSS regression test at the bottom runs a real n=20,000 PAM workload
in a subprocess and asserts the peak RSS a full in-memory triangle
could never meet.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.clustering.kmedoids import k_medoids
from repro.clustering.linkage import agglomerative
from repro.clustering.quality import average_square_distance
from repro.distance.dissimilarity import (
    DissimilarityMatrix,
    condensed_has_duplicates,
    condensed_pair_mask,
    condensed_size,
    condensed_span_indices,
)
from repro.distance.store import (
    DEFAULT_BLOCK_ENTRIES,
    ENV_BACKEND,
    ENV_BLOCK_ENTRIES,
    ENV_CACHE_BYTES,
    ENV_DIRECTORY,
    InMemoryStore,
    MemmapStore,
    StoreSpec,
    default_store_spec,
    open_store,
    spec_of,
    with_backend,
)
from repro.exceptions import ConfigurationError
from repro.types import LinkageMethod

BACKENDS = ("memory", "memmap")

#: Tiny blocks so every conformance case crosses shard boundaries, and a
#: cache of four blocks so eviction/writeback runs constantly.
SMALL_BLOCK = 32
SMALL_CACHE = 4 * SMALL_BLOCK * 8


def small_spec(backend: str) -> StoreSpec:
    return StoreSpec(
        backend=backend, block_entries=SMALL_BLOCK, cache_bytes=SMALL_CACHE
    )


def fill_values(size: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(0.0, 10.0, size=size)


# -- store-contract conformance ---------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
class TestStoreContract:
    def test_roundtrip_across_block_boundaries(self, backend):
        size = 5 * SMALL_BLOCK + 11
        values = fill_values(size)
        store = open_store(small_spec(backend), size, values)
        expected = values
        # Whole-store, single-block, and straddling reads all agree.
        np.testing.assert_array_equal(store.read(0, size), expected)
        np.testing.assert_array_equal(
            store.read(SMALL_BLOCK - 5, 3 * SMALL_BLOCK + 7),
            expected[SMALL_BLOCK - 5 : 3 * SMALL_BLOCK + 7],
        )
        assert store.read(17, 17).shape == (0,)
        out = np.empty(2 * SMALL_BLOCK + 3)
        assert store.read(SMALL_BLOCK + 1, 3 * SMALL_BLOCK + 4, out=out) is out
        np.testing.assert_array_equal(
            out, expected[SMALL_BLOCK + 1 : 3 * SMALL_BLOCK + 4]
        )
        store.close()

    def test_write_then_read_spans(self, backend):
        size = 4 * SMALL_BLOCK
        store = open_store(small_spec(backend), size)
        np.testing.assert_array_equal(store.read(0, size), np.zeros(size))
        patch = fill_values(2 * SMALL_BLOCK + 9, seed=11)
        store.write(SMALL_BLOCK - 4, patch)
        expected = np.zeros(size)
        expected[SMALL_BLOCK - 4 : SMALL_BLOCK - 4 + patch.size] = patch
        np.testing.assert_array_equal(store.read(0, size), expected)
        store.close()

    def test_gather_scatter_unsorted_positions(self, backend):
        size = 6 * SMALL_BLOCK
        values = fill_values(size, seed=3)
        store = open_store(small_spec(backend), size, values)
        rng = np.random.default_rng(5)
        # Unsorted, block-hopping, with repeats: the access pattern the
        # NN-chain tail gathers produce.
        positions = rng.integers(0, size, size=4 * SMALL_BLOCK, dtype=np.int64)
        expected = values[positions]
        np.testing.assert_array_equal(store.gather(positions), expected)
        out = np.empty(positions.size, dtype=np.float64)
        result = store.gather(positions, out=out)
        assert result is out
        np.testing.assert_array_equal(out, expected)

        unique = np.unique(positions)[::-1].copy()  # descending: not block order
        replacement = fill_values(unique.size, seed=13)
        store.scatter(unique, replacement)
        values[unique] = replacement
        np.testing.assert_array_equal(store.read(0, size), values)
        store.close()

    def test_spawn_is_zeroed_sibling(self, backend):
        store = open_store(small_spec(backend), 3 * SMALL_BLOCK)
        store.write(0, fill_values(3 * SMALL_BLOCK))
        sibling = store.spawn(2 * SMALL_BLOCK + 5)
        assert sibling.kind == store.kind
        assert sibling.size == 2 * SMALL_BLOCK + 5
        np.testing.assert_array_equal(
            sibling.read(0, sibling.size), np.zeros(sibling.size)
        )
        sibling.close()
        store.close()

    def test_adopt_holds_values(self, backend):
        store = open_store(small_spec(backend), SMALL_BLOCK)
        values = fill_values(2 * SMALL_BLOCK + 3, seed=17)
        adopted = store.adopt(values)
        assert adopted.kind == store.kind
        np.testing.assert_array_equal(adopted.read(0, adopted.size), values)
        adopted.close()
        store.close()

    def test_block_ranges_tile_the_store(self, backend):
        size = 3 * SMALL_BLOCK + 7
        store = open_store(small_spec(backend), size)
        spans = list(store.block_ranges())
        assert spans[0][0] == 0 and spans[-1][1] == size
        for (_, prev_stop), (start, stop) in zip(spans, spans[1:]):
            assert start == prev_stop and start < stop
        store.close()

    def test_blocks_stream_read_only_block_reads(self, backend):
        size = 3 * SMALL_BLOCK + 7
        values = fill_values(size, seed=19)
        store = open_store(small_spec(backend), size, values)
        spans = list(store.block_ranges())
        count = 0
        for (start, block), (span_start, span_stop) in zip(store.blocks(), spans):
            assert start == span_start
            assert not block.flags.writeable
            np.testing.assert_array_equal(block, values[span_start:span_stop])
            count += 1
        assert count == len(spans)
        assert list(store.spawn(0).blocks()) == []
        store.close()

    def test_duplicate_scan_crosses_blocks(self, backend):
        """A tie between two blocks is found whether the scan sorts all
        values as one group or hash-partitions them into several."""
        values = np.arange(1.0, 5.0 * SMALL_BLOCK)
        store = open_store(small_spec(backend), values.size, values)
        for budget in (1 << 20, SMALL_BLOCK * 8):
            assert not condensed_has_duplicates(store, budget_bytes=budget)
        store.write(4 * SMALL_BLOCK, values[3:4])
        for budget in (1 << 20, SMALL_BLOCK * 8):
            assert condensed_has_duplicates(store, budget_bytes=budget)
        store.close()

    def test_spec_roundtrip(self, backend):
        spec = small_spec(backend)
        store = open_store(spec, SMALL_BLOCK)
        recovered = spec_of(store)
        assert recovered.backend == backend
        assert recovered.block_entries == SMALL_BLOCK
        assert store.spawn(3).block_entries == SMALL_BLOCK
        assert store.adopt(np.zeros(3)).block_entries == SMALL_BLOCK
        assert with_backend(recovered, "memory").backend == "memory"
        store.close()


# -- matrix-level conformance ------------------------------------------------


def reference_condensed(n: int, seed: int = 23) -> np.ndarray:
    return fill_values(condensed_size(n), seed=seed)


def matrix_pair(n: int, backend: str, seed: int = 23):
    """The same matrix on the default backend and on ``backend``."""
    condensed = reference_condensed(n, seed)
    return (
        DissimilarityMatrix(n, condensed.copy()),
        DissimilarityMatrix(n, condensed, store_spec=small_spec(backend)),
    )


def assert_matches(backend: str, matrix: DissimilarityMatrix, reference: DissimilarityMatrix):
    """Backend matrix equals the default in-memory reference exactly."""
    assert matrix.num_objects == reference.num_objects
    np.testing.assert_array_equal(matrix.condensed, reference.condensed)


@pytest.mark.parametrize("backend", BACKENDS)
class TestMatrixConformance:
    def test_construction_and_views(self, backend):
        n = 30
        reference, matrix = matrix_pair(n, backend)
        assert matrix.store_kind == backend
        expected = reference.condensed
        np.testing.assert_array_equal(matrix.condensed, expected)
        np.testing.assert_array_equal(
            matrix.to_square(), DissimilarityMatrix(n, expected).to_square()
        )
        np.testing.assert_array_equal(
            matrix.to_scipy_condensed(),
            DissimilarityMatrix(n, expected).to_scipy_condensed(),
        )
        for i, j in ((1, 0), (17, 4), (n - 1, n - 2), (5, 29)):
            assert matrix[i, j] == matrix[j, i]
            assert matrix[i, j] == DissimilarityMatrix(n, expected)[max(i, j), min(i, j)]
        assert matrix[3, 3] == 0.0

    def test_scalar_reductions(self, backend):
        n = 30
        reference, matrix = matrix_pair(n, backend)
        expected = DissimilarityMatrix(n, reference.condensed)
        assert matrix.max_value() == expected.max_value()
        assert matrix.mean_value() == pytest.approx(expected.mean_value(), rel=1e-12)

    def test_setitem_and_blocks(self, backend):
        n = 26
        reference, matrix = matrix_pair(n, backend)
        for target in (reference, matrix):
            target[4, 11] = 3.25
            block = np.arange(1.0, 13.0).reshape(3, 4) / 8.0
            target.set_block([0, 7, 19], [2, 5, 9, 23], block)
        np.testing.assert_array_equal(
            matrix.cross_block([0, 7, 19], [2, 5, 9, 23]),
            reference.cross_block([0, 7, 19], [2, 5, 9, 23]),
        )
        assert_matches(backend, matrix, reference)

    def test_normalized(self, backend):
        n = 24
        reference, matrix = matrix_pair(n, backend)
        assert_matches(backend, matrix.normalized(), reference.normalized())
        # The derived matrix inherits the backend.
        assert matrix.normalized().store_kind == backend

    def test_submatrix_and_remove(self, backend):
        n = 28
        reference, matrix = matrix_pair(n, backend)
        keep = [0, 3, 4, 11, 12, 19, 27, 26]
        assert_matches(backend, matrix.submatrix(keep), reference.submatrix(keep))
        drop = [1, 2, 25]
        assert_matches(
            backend, matrix.remove_objects(drop), reference.remove_objects(drop)
        )
        assert matrix.submatrix(keep).store_kind == backend

    def test_insert_objects(self, backend):
        n = 22
        reference, matrix = matrix_pair(n, backend)
        positions = [0, 5, 23]
        assert_matches(
            backend,
            matrix.insert_objects(positions),
            reference.insert_objects(positions),
        )

    def test_grow_and_shrink_follow_the_square(self, backend):
        """insert_objects/remove_objects against the square-matrix
        definition, independent of the condensed remap under test."""
        n = 23
        reference, matrix = matrix_pair(n, backend)
        square = reference.to_square()
        positions = [0, 6, 7, 24, 25]  # grown frame, ascending
        expected = square
        for p in positions:
            expected = np.insert(np.insert(expected, p, 0.0, axis=0), p, 0.0, axis=1)
        grown = matrix.insert_objects(positions)
        np.testing.assert_array_equal(grown.to_square(), expected)
        drop = [0, 1, 12, 22]
        np.testing.assert_array_equal(
            matrix.remove_objects(drop).to_square(),
            np.delete(np.delete(square, drop, axis=0), drop, axis=1),
        )
        np.testing.assert_array_equal(
            grown.remove_objects(positions).condensed, matrix.condensed
        )

    def test_diagonal_blocks(self, backend):
        n = 20
        reference, matrix = matrix_pair(n, backend)
        local = DissimilarityMatrix(6, np.arange(1.0, 16.0) / 4.0)
        for target in (reference, matrix):
            target.set_diagonal_block(7, local)
        assert_matches(backend, matrix, reference)
        tail = np.arange(1.0, 1.0 + condensed_size(6) - condensed_size(4)) / 8.0
        for target in (reference, matrix):
            target.set_diagonal_delta(7, 4, 6, tail)
        assert_matches(backend, matrix, reference)

    def test_set_submatrix(self, backend):
        n = 18
        reference, matrix = matrix_pair(n, backend)
        indices = [2, 9, 3, 15, 10]
        local = DissimilarityMatrix(5, np.arange(1.0, 11.0) / 2.0)
        for target in (reference, matrix):
            target.set_submatrix(indices, local)
        assert_matches(backend, matrix, reference)

    def test_copy_and_equality(self, backend):
        n = 16
        _, matrix = matrix_pair(n, backend)
        clone = matrix.copy()
        assert clone.store_kind == backend
        assert clone == matrix and clone.allclose(matrix)
        clone[5, 2] = clone[5, 2] + 1.0
        assert clone != matrix

    def test_condensed_round_trip_io(self, backend):
        n = 25
        _, matrix = matrix_pair(n, backend)
        size = condensed_size(n)
        span = matrix.read_condensed(10, size - 10)
        matrix.write_condensed(10, span)
        np.testing.assert_array_equal(matrix.read_condensed(10, size - 10), span)
        with pytest.raises(ConfigurationError):
            matrix.write_condensed(size - 1, np.zeros(2))
        with pytest.raises(ConfigurationError):
            matrix.write_condensed(0, np.array([-1.0]))


@pytest.mark.parametrize("pattern", ["all", "none", "alternate", "random"])
def test_pair_mask_matches_pair_indices(pattern):
    n = 41
    keep = {
        "all": np.ones(n, dtype=bool),
        "none": np.zeros(n, dtype=bool),
        "alternate": np.arange(n) % 2 == 0,
        "random": np.random.default_rng(3).random(n) < 0.6,
    }[pattern]
    size = condensed_size(n)
    spans = [(0, size), (0, 0), (5, 6), (7, 300), (size - 50, size)]
    spans += [(start, min(size, start + 7)) for start in range(0, size, 7)]
    for start, stop in spans:
        i, j = condensed_span_indices(start, stop)
        np.testing.assert_array_equal(
            condensed_pair_mask(keep, start, stop), keep[i] & keep[j]
        )


# -- block-size invariance ---------------------------------------------------


def _block_sweep_matrix(n: int, block_entries: int, tied: bool) -> DissimilarityMatrix:
    values = fill_values(condensed_size(n), seed=41)
    if tied:
        values = np.ceil(values)  # ten levels: many exact ties
    spec = StoreSpec(backend="memory", block_entries=block_entries)
    return DissimilarityMatrix(n, values, store_spec=spec)


@pytest.mark.parametrize("tied", [False, True], ids=["tie-free", "tied"])
def test_memory_results_do_not_depend_on_block_size(tied):
    """The memory backend streams in ``StoreSpec.block_entries`` spans, so
    a 7-entry block crosses row boundaries everywhere at test scale; every
    result must still be bit-identical to the default single-block run."""
    n = 37
    small = _block_sweep_matrix(n, 7, tied)
    default = _block_sweep_matrix(n, DEFAULT_BLOCK_ENTRIES, tied)
    assert small.store.block_entries == 7
    assert len(list(small.store.block_ranges())) > n

    # Matrix operations, and the block size they hand down.
    assert small == default
    for derive in (
        lambda m: m.normalized(),
        lambda m: m.copy(),
        lambda m: m.submatrix([30, 2, 17, 5, 11, 36]),
        lambda m: m.insert_objects([0, 9, 38]),
        lambda m: m.remove_objects([1, 20, 35]),
    ):
        derived_small, derived_default = derive(small), derive(default)
        assert derived_small.store.block_entries == 7
        np.testing.assert_array_equal(
            derived_small.condensed, derived_default.condensed
        )
    np.testing.assert_array_equal(small.to_square(), default.to_square())
    assert small.max_value() == default.max_value()
    assert small.check_triangle_inequality() == default.check_triangle_inequality()

    # Clustering and the published quality statistic.
    for method in LinkageMethod:
        assert (
            agglomerative(small, method).merges
            == agglomerative(default, method).merges
        ), method
    pam_small, pam_default = k_medoids(small, 4), k_medoids(default, 4)
    assert (pam_small.medoids, pam_small.labels, pam_small.cost) == (
        pam_default.medoids,
        pam_default.labels,
        pam_default.cost,
    )
    labels = pam_default.labels
    assert average_square_distance(small, labels) == average_square_distance(
        default, labels
    )


# -- random operation sequences (Hypothesis) ---------------------------------


_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("set"), st.integers(0, 10_000)),
        st.tuples(st.just("insert"), st.integers(0, 3)),
        st.tuples(st.just("remove"), st.integers(0, 10_000)),
        st.tuples(st.just("block"), st.integers(0, 10_000)),
        st.tuples(st.just("normalize"), st.just(0)),
    ),
    min_size=1,
    max_size=8,
)


def _apply(op, payload, matrix: DissimilarityMatrix) -> DissimilarityMatrix:
    n = matrix.num_objects
    if op == "set" and n >= 2:
        i = 1 + payload % (n - 1)
        j = payload % i
        matrix[i, j] = float(payload % 31) / 4.0
    elif op == "insert" and n <= 24:
        positions = sorted({payload % (n + 1), (payload * 7 + 1) % (n + 2)})
        matrix = matrix.insert_objects(positions)
    elif op == "remove" and n >= 4:
        matrix = matrix.remove_objects([payload % n])
    elif op == "block" and n >= 6:
        rows = [payload % n, (payload + 1) % n]
        cols = [(payload + 2) % n, (payload + 3) % n, (payload + 4) % n]
        if not set(rows) & set(cols):
            block = (np.arange(6.0).reshape(2, 3) + payload % 8) / 8.0
            matrix.set_block(rows, cols, block)
    elif op == "normalize" and matrix.max_value() > 0:
        matrix = matrix.normalized()
    return matrix


@pytest.mark.parametrize("backend", BACKENDS)
@given(ops=_OPS, seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_random_operation_sequences_track_reference(backend, ops, seed):
    """Any operation sequence leaves backend and reference in agreement."""
    n = 8 + seed % 5
    condensed = np.floor(fill_values(condensed_size(n), seed=seed) * 8.0) / 8.0
    reference = DissimilarityMatrix(n, condensed.copy())
    matrix = DissimilarityMatrix(n, condensed, store_spec=small_spec(backend))
    for op, payload in ops:
        reference = _apply(op, payload, reference)
        matrix = _apply(op, payload, matrix)
        assert matrix.store_kind == backend
        np.testing.assert_array_equal(matrix.condensed, reference.condensed)


@pytest.mark.parametrize("backend", BACKENDS)
@given(n=st.integers(1, 30), added=st.integers(1, 6), seed=st.integers(0, 2**16))
@settings(max_examples=25, deadline=None)
def test_remove_undoes_insert(backend, n, added, seed):
    """Growing by any position set and removing the same positions
    restores the matrix bit for bit, with every new pair at zero."""
    condensed = fill_values(condensed_size(n), seed=seed)
    matrix = DissimilarityMatrix(n, condensed, store_spec=small_spec(backend))
    rng = np.random.default_rng(seed)
    positions = sorted(rng.choice(n + added, size=added, replace=False).tolist())
    grown = matrix.insert_objects(positions)
    square = grown.to_square()
    assert not square[positions].any() and not square[:, positions].any()
    shrunk = grown.remove_objects(positions)
    np.testing.assert_array_equal(shrunk.condensed, condensed)


# -- memmap white-box units --------------------------------------------------


class TestMemmapInternals:
    def test_lru_cache_stays_bounded(self):
        store = MemmapStore.create(
            16 * SMALL_BLOCK, block_entries=SMALL_BLOCK, cache_bytes=2 * SMALL_BLOCK * 8
        )
        values = fill_values(16 * SMALL_BLOCK, seed=29)
        store.write(0, values)  # touches every block
        assert store.cached_blocks <= 2
        # Reads refault evicted blocks; written data survived writeback.
        np.testing.assert_array_equal(store.read(0, store.size), values)
        assert store.cached_blocks <= 2
        store.close()

    def test_single_block_budget_still_works(self):
        store = MemmapStore.create(
            4 * SMALL_BLOCK, block_entries=SMALL_BLOCK, cache_bytes=1
        )
        values = fill_values(4 * SMALL_BLOCK, seed=31)
        store.write(0, values)
        np.testing.assert_array_equal(store.read(0, store.size), values)
        assert store.cached_blocks == 1
        store.close()

    def test_flush_then_reopen_sees_data(self, tmp_path):
        owner = MemmapStore.create(
            3 * SMALL_BLOCK,
            block_entries=SMALL_BLOCK,
            cache_bytes=SMALL_CACHE,
            base_directory=str(tmp_path),
        )
        values = fill_values(3 * SMALL_BLOCK, seed=37)
        owner.write(0, values)
        owner.flush()
        reader = MemmapStore.open(owner.directory)
        assert reader.size == owner.size
        assert reader.block_entries == SMALL_BLOCK
        np.testing.assert_array_equal(reader.read(0, reader.size), values)
        # The reader borrows: closing it leaves the shards in place...
        reader.close()
        assert os.path.isdir(owner.directory)
        np.testing.assert_array_equal(owner.read(0, owner.size), values)
        # ...while closing the owner reclaims the directory.
        directory = owner.directory
        owner.close()
        assert not os.path.exists(directory)

    def test_open_rejects_foreign_directory(self, tmp_path):
        with pytest.raises(ConfigurationError):
            MemmapStore.open(str(tmp_path))

    @pytest.mark.parametrize(
        "meta",
        [
            {"format": 1, "block_entries": 4},  # no size
            {"format": 1, "size": 8, "block_entries": 0},
            {"format": 1, "size": "x", "block_entries": 4},
            [1, 8, 4],  # not an object
        ],
        ids=["missing-size", "zero-block-entries", "string-size", "json-list"],
    )
    def test_open_rejects_malformed_meta(self, tmp_path, meta):
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(ConfigurationError):
            MemmapStore.open(str(tmp_path))

    def test_sparse_zero_store_is_cheap(self, tmp_path):
        store = MemmapStore.create(
            DEFAULT_BLOCK_ENTRIES * 4,
            base_directory=str(tmp_path),
        )
        # No writes: no shard file needs to exist yet.
        assert store.read(5, 9).tolist() == [0.0, 0.0, 0.0, 0.0]
        store.close()


# -- environment-driven defaults ---------------------------------------------


def test_default_spec_honours_environment(monkeypatch, tmp_path):
    monkeypatch.delenv(ENV_BACKEND, raising=False)
    monkeypatch.delenv(ENV_BLOCK_ENTRIES, raising=False)
    monkeypatch.delenv(ENV_CACHE_BYTES, raising=False)
    monkeypatch.delenv(ENV_DIRECTORY, raising=False)
    assert default_store_spec() == StoreSpec()

    monkeypatch.setenv(ENV_BACKEND, "memmap")
    monkeypatch.setenv(ENV_BLOCK_ENTRIES, "4096")
    monkeypatch.setenv(ENV_CACHE_BYTES, str(1 << 20))
    monkeypatch.setenv(ENV_DIRECTORY, str(tmp_path))
    spec = default_store_spec()
    assert spec == StoreSpec(
        backend="memmap",
        block_entries=4096,
        cache_bytes=1 << 20,
        directory=str(tmp_path),
    )
    matrix = DissimilarityMatrix.zeros(10, store_spec=spec)
    assert matrix.store_kind == "memmap"
    assert str(tmp_path) in matrix.store.directory


def test_bad_spec_is_rejected():
    with pytest.raises(ConfigurationError):
        StoreSpec(backend="tape")
    with pytest.raises(ConfigurationError, match="memory.*memmap"):
        StoreSpec(backend="float32")
    with pytest.raises(ConfigurationError):
        StoreSpec(block_entries=0)
    with pytest.raises(ConfigurationError):
        StoreSpec(cache_bytes=0)


def test_environment_rejects_removed_float32_backend(monkeypatch):
    monkeypatch.setenv(ENV_BACKEND, "float32")
    with pytest.raises(ConfigurationError, match="memory.*memmap"):
        default_store_spec()


def test_store_types_are_exposed():
    assert isinstance(open_store(StoreSpec(), 3), InMemoryStore)
    assert isinstance(open_store(StoreSpec(backend="memmap"), 3), MemmapStore)


# -- the RSS regression: a real workload under a hard memory cap -------------


#: n=20,000 means a 1.6 GB condensed triangle; the cap below is far
#: under that, so the test fails if anything ever materialises the full
#: matrix (or leaks block mappings past the LRU budget).
RSS_PROBE_N = int(os.environ.get("STORAGE_RSS_N", "20000"))
RSS_CAP_MB = float(os.environ.get("STORAGE_RSS_CAP_MB", "1100"))


@pytest.mark.slow
def test_pam_at_scale_respects_rss_cap(tmp_path):
    triangle_mb = condensed_size(RSS_PROBE_N) * 8 / (1 << 20)
    assert RSS_CAP_MB < triangle_mb, "cap must be meaningful"
    report_path = tmp_path / "probe.json"
    completed = subprocess.run(
        [
            sys.executable,
            "-m",
            "repro.apps.storage_probe",
            "--scenario",
            "pam",
            "--n",
            str(RSS_PROBE_N),
            "--backend",
            "memmap",
            "--k",
            "4",
            "--cache-bytes",
            str(256 << 20),
            "--store-dir",
            str(tmp_path),
            "--json-out",
            str(report_path),
        ],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": "src"},
        cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    )
    assert completed.returncode == 0, completed.stderr
    report = json.loads(report_path.read_text())
    assert report["n"] == RSS_PROBE_N and report["backend"] == "memmap"
    assert report["peak_rss_mb"] < RSS_CAP_MB, report
