"""k-medoids (PAM) on a dissimilarity matrix.

The partitioning counterpart used by the T-CLUST experiment.  The paper
argues for hierarchical methods because partitioning algorithms "tend to
result in spherical clusters" and "can not handle string data type for
which a 'mean' is not defined" (Section 2).  k-medoids is the *strongest*
partitioning contender under those constraints -- it needs only pairwise
distances, so it runs on the same private dissimilarity matrix -- which
makes the comparison fair: where even PAM fails (non-spherical shapes),
the paper's argument holds a fortiori against k-means.

Implementation
--------------
The seed implementation (preserved in
:func:`repro.clustering.reference.reference_k_medoids`) is textbook PAM:
greedy BUILD, then SWAP steps that re-assign every object for every
medoid/candidate pair -- O(k^2 n^2) per iteration.  This module keeps
PAM's steepest-descent *trajectory* (same swaps, same order, same
results) but evaluates it FasterPAM-style (Schubert & Rousseeuw):
cached nearest/second-nearest medoid distance arrays turn the cost delta
of swapping medoid m for candidate c into

    delta(m, c) =   sum_{i: nearest(i)=m}  min(d(i,c), dsecond(i)) - dnearest(i)
                  + sum_{i: nearest(i)!=m} min(d(i,c) - dnearest(i), 0)

so one whole-candidate numpy evaluation scores every (m, c) pair in
O(n^2 + n k) per iteration.  BUILD is likewise a single vectorized gain
computation per added medoid.  Deterministic throughout, and identical
to the reference trajectory (the winner selection replays the seed's
scan order and its 1e-12 strict-improvement rule).

Both phases stream the square in row/column panels of
``_CANDIDATE_BLOCK`` rows off the condensed store (:class:`_Panels`), so
no square is ever materialised on any backend.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.distance.dissimilarity import (
    DissimilarityMatrix,
    condensed_offsets,
    condensed_row_gather,
)
from repro.exceptions import ClusteringError

#: Candidate columns are scored in blocks of this many to bound the
#: working set at O(n * block) instead of O(n^2) scratch.
_CANDIDATE_BLOCK = 512
#: Rows per slab of :func:`_copy_transposed`.
_TRANSPOSE_SLAB = 64


def _copy_transposed(dst: np.ndarray, src: np.ndarray) -> None:
    """``dst[...] = src.T``, a slab of source rows at a time.

    One whole-array transposed copy strides through memory on every
    element; slabs keep each source/destination pair cache-resident,
    which makes the copy several times faster at panel sizes.
    """
    for r0 in range(0, src.shape[0], _TRANSPOSE_SLAB):
        dst[:, r0 : r0 + _TRANSPOSE_SLAB] = src[r0 : r0 + _TRANSPOSE_SLAB].T


class _Panels:
    """Row/column panels of the square matrix, streamed off the condensed store.

    PAM never materialises ``to_square()``: a panel of rows ``[r0, r1)``
    is one contiguous condensed segment (every below-diagonal entry of
    those rows) mirrored across the in-band diagonal, plus one
    block-ascending gather for the columns beyond ``r1``.  Panels hold
    exactly the values, shape and C-contiguous layout of the matching
    slice of the square, so every reduction downstream sees the same
    operands in the same order as the seed's dense square would.

    PAM rebuilds every panel once per BUILD pass and per SWAP iteration,
    so panels live in four buffers of ``n * _CANDIDATE_BLOCK`` entries
    allocated once here (plus the store's cache): a returned panel or
    block is valid until the next one is requested, and callers may
    overwrite it.
    """

    def __init__(self, matrix: DissimilarityMatrix) -> None:
        self.store = matrix.store
        self.n = n = matrix.num_objects
        self.offsets = condensed_offsets(n)
        self._scratch = np.empty(n, dtype=np.int64)
        cells = min(n, _CANDIDATE_BLOCK) * n
        #: The panel or block handed out, and the part built beside it
        #: (a row panel's gathered tail, a column block's band rows).
        self._panel_buf = np.empty(cells, dtype=np.float64)
        self._part_buf = np.empty(cells, dtype=np.float64)
        self._segment_buf = np.empty(cells, dtype=np.float64)
        self._positions_buf = np.empty(cells, dtype=np.int64)

    def column(self, index: int) -> np.ndarray:
        """Column ``index`` of the square (== row, exactly: symmetry)."""
        return condensed_row_gather(
            self.store, int(index), self.n, self.offsets, scratch=self._scratch
        )

    def columns(self, indices: np.ndarray) -> np.ndarray:
        """Columns at ``indices`` as a C-contiguous ``(n, len(indices))``
        array -- the layout ``square[:, indices]`` fancy indexing yields."""
        out = np.empty((self.n, len(indices)), dtype=np.float64)
        for slot, index in enumerate(indices):
            out[:, slot] = self.column(int(index))
        return out

    def _band_rows(self, r0: int, r1: int, out: np.ndarray) -> np.ndarray:
        """Rows ``[r0, r1)`` of the square, columns ``[0, r1)``, into ``out``.

        Each row's below-diagonal run is a slice of one contiguous read;
        the in-band block above the diagonal is its mirror image.
        """
        base = int(self.offsets[r0])
        stop = r1 * (r1 - 1) // 2
        segment = self.store.read(base, stop, out=self._segment_buf[: stop - base])
        band = out[:, r0:]
        band[...] = 0.0
        for a, row in enumerate(range(r0, r1)):
            start = int(self.offsets[row]) - base
            out[a, :row] = segment[start : start + row]
        mirror = np.empty_like(band)
        _copy_transposed(mirror, band)
        band += mirror
        return out

    def _tail(self, r0: int, r1: int, out: np.ndarray | None = None) -> np.ndarray:
        """``d(c, r)`` for ``c >= r1``, ``r0 <= r < r1``, as
        ``(n - r1, r1 - r0)``: one ascending gather, a run per row ``c``."""
        shape = (self.n - r1, r1 - r0)
        positions = self._positions_buf[: shape[0] * shape[1]].reshape(shape)
        np.add(
            self.offsets[r1:, None],
            np.arange(r0, r1, dtype=np.int64),
            out=positions,
        )
        if out is None:
            out = self._part_buf[: positions.size].reshape(shape)
        return self.store.gather(positions, out=out)

    def row_panel(self, r0: int, r1: int) -> np.ndarray:
        """Rows ``[r0, r1)`` of the square as a ``(r1 - r0, n)`` array."""
        panel = self._panel_buf[: (r1 - r0) * self.n].reshape(r1 - r0, self.n)
        self._band_rows(r0, r1, panel[:, :r1])
        if r1 < self.n:
            _copy_transposed(panel[:, r1:], self._tail(r0, r1))
        return panel

    def column_block(self, start: int, stop: int) -> np.ndarray:
        """Columns ``[start, stop)`` as C-contiguous ``(n, stop - start)``."""
        width = stop - start
        block = self._panel_buf[: self.n * width].reshape(self.n, width)
        rows = self._part_buf[: width * stop].reshape(width, stop)
        _copy_transposed(block[:stop], self._band_rows(start, stop, rows))
        if stop < self.n:
            self._tail(start, stop, out=block[stop:])
        return block


@dataclass(frozen=True)
class KMedoidsResult:
    """Outcome of a PAM run."""

    labels: list[int]
    medoids: list[int]
    cost: float
    iterations: int
    converged: bool


def _build_init(panels: _Panels, k: int) -> list[int]:
    """PAM BUILD: greedily add the medoid that most reduces total cost.

    One numpy gain computation per added medoid, panel by panel: rows of
    ``nearest - panel`` clipped at zero are exactly the per-candidate
    columns the seed loop evaluated one by one (the matrix is symmetric),
    summed along the contiguous axis so the reductions -- and therefore
    the greedy tie-breaking -- match the seed bit for bit.
    """
    n = panels.n
    sums = np.empty(n, dtype=np.float64)
    for r0 in range(0, n, _CANDIDATE_BLOCK):
        r1 = min(n, r0 + _CANDIDATE_BLOCK)
        sums[r0:r1] = panels.row_panel(r0, r1).sum(axis=1)
    first = int(sums.argmin())
    medoids = [first]
    is_medoid = np.zeros(n, dtype=bool)
    is_medoid[first] = True
    nearest = panels.column(first)
    gains = np.empty(n, dtype=np.float64)
    while len(medoids) < k:
        for r0 in range(0, n, _CANDIDATE_BLOCK):
            r1 = min(n, r0 + _CANDIDATE_BLOCK)
            gain = panels.row_panel(r0, r1)
            np.subtract(nearest[None, :], gain, out=gain)
            np.maximum(gain, 0.0, out=gain)
            gains[r0:r1] = gain.sum(axis=1)
        gains[is_medoid] = -np.inf
        best = int(gains.argmax())
        medoids.append(best)
        is_medoid[best] = True
        nearest = np.minimum(nearest, panels.column(best))
    return medoids


def _swap_deltas(
    panels: _Panels,
    medoid_idx: np.ndarray,
    nearest: np.ndarray,
    dnearest: np.ndarray,
    dsecond: np.ndarray,
) -> np.ndarray:
    """Cost deltas of every (medoid position, candidate) swap, (k, n)."""
    n = panels.n
    k = medoid_idx.shape[0]
    member = [nearest == m for m in range(k)]
    deltas = np.empty((k, n), dtype=np.float64)
    scratch = np.empty(n * min(n, _CANDIDATE_BLOCK), dtype=np.float64)
    dnear_col = dnearest[:, None]
    dsecond_col = dsecond[:, None]
    for start in range(0, n, _CANDIDATE_BLOCK):
        stop = min(start + _CANDIDATE_BLOCK, n)
        d_c = panels.column_block(start, stop)
        reduction = scratch[: d_c.size].reshape(d_c.shape)
        np.subtract(d_c, dnear_col, out=reduction)
        np.minimum(reduction, 0.0, out=reduction)
        shared = reduction.sum(axis=0)
        # For points losing their nearest medoid, the reduction term is
        # replaced by min(d(i,c), dsecond(i)) - dnearest(i).
        correction = np.minimum(d_c, dsecond_col, out=d_c)
        correction -= dnear_col
        correction -= reduction
        for m in range(k):
            deltas[m, start:stop] = shared + correction[member[m]].sum(axis=0)
    deltas[:, medoid_idx] = np.inf
    return deltas


def _select_swap(deltas: np.ndarray) -> tuple[int, int] | None:
    """Replay the seed's scan over the delta table.

    The seed walks medoids (list order) then candidates (ascending) and
    accepts a swap only when it beats the incumbent by more than 1e-12.
    The accepted entries form a record chain (each acceptance lowers the
    incumbent by > 1e-12), so the full scan is reproduced exactly by
    jumping to the next improving entry until none remains -- one
    vectorized comparison per acceptance, and the chain is short (its
    length is bounded by the number of epsilon-separated records).
    """
    flat = deltas.ravel()
    if not flat.min() < -1e-12:
        return None
    best = 0.0
    winner = -1
    position = 0
    while position < flat.size:
        improving = flat[position:] < best - 1e-12
        step = int(np.argmax(improving))
        if not improving[step]:
            break
        winner = position + step
        best = float(flat[winner])
        position = winner + 1
    if winner < 0:
        return None
    return divmod(winner, deltas.shape[1])


def k_medoids(
    matrix: DissimilarityMatrix, k: int, max_iterations: int = 100
) -> KMedoidsResult:
    """Partition objects into ``k`` clusters around medoids.

    Parameters
    ----------
    matrix:
        Pairwise dissimilarities (any metric or non-metric values work;
        only comparisons are used).
    k:
        Number of clusters, ``1 <= k <= num_objects``.
    max_iterations:
        Upper bound on SWAP iterations; PAM almost always converges far
        earlier, and ``converged`` reports whether it did.
    """
    n = matrix.num_objects
    if not 1 <= k <= n:
        raise ClusteringError(f"k must be in [1, {n}], got {k}")
    panels = _Panels(matrix)
    medoids = _build_init(panels, k)

    iterations = 0
    converged = False
    row_index = np.arange(n)
    # Unlike the seed, no running cost is tracked: acceptance decisions
    # are made purely on deltas, and the final cost is recomputed below.
    while iterations < max_iterations:
        iterations += 1
        medoid_idx = np.asarray(medoids, dtype=np.int64)
        distances = panels.columns(medoid_idx)
        nearest = distances.argmin(axis=1)
        dnearest = distances[row_index, nearest]
        if k > 1:
            distances[row_index, nearest] = np.inf
            dsecond = distances.min(axis=1)
        else:
            dsecond = np.full(n, np.inf)
        deltas = _swap_deltas(panels, medoid_idx, nearest, dnearest, dsecond)
        swap = _select_swap(deltas)
        if swap is None:
            converged = True
            break
        medoids[swap[0]] = int(swap[1])

    distances = panels.columns(np.asarray(medoids, dtype=np.int64))
    nearest = distances.argmin(axis=1)
    cost = float(distances[row_index, nearest].sum())
    # Renumber labels by first appearance so results are comparable.
    remap: dict[int, int] = {}
    labels = []
    for value in nearest:
        value = int(value)
        if value not in remap:
            remap[value] = len(remap)
        labels.append(remap[value])
    ordered_medoids = [medoids[old] for old in sorted(remap, key=remap.get)]
    return KMedoidsResult(
        labels=labels,
        medoids=ordered_medoids,
        cost=cost,
        iterations=iterations,
        converged=converged,
    )
