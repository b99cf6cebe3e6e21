"""The numeric comparison protocol (paper Section 4.1, Figures 4-6).

Three roles compute ``|x - y|`` for every cross-site pair without
revealing ``x``, ``y`` or even the sign of ``x - y``:

* **DHJ (initiator)** masks each value twice: a *sign* decided by the
  generator shared with DHK (``rng_JK``) -- if the draw is odd DHJ
  negates, otherwise DHK will -- and an *additive mask* drawn from the
  generator shared with the third party (``rng_JT``)::

      DH'J[n] = rng_JT.next() + DHJ[n] * (-1)^(rng_JK.next() % 2)

* **DHK (responder)** builds the pairwise comparison matrix, adding its
  own (complementarily signed) value to every masked input and
  re-initialising ``rng_JK`` at each row so the sign draws re-align with
  DHJ's::

      s[m][n] = DH'J[n] + DHK[m] * (-1)^((rng_JK.next() + 1) % 2)

* **TP** regenerates the additive masks (it shares ``rng_JT``'s seed)
  and recovers ``|x - y| = |s[m][n] - rng_JT.next()|``, re-initialising
  per row for the same alignment reason.

The functions below are pure protocol steps over *encoded integers*
(see :class:`repro.distance.numeric.FixedPointCodec`); party classes in
:mod:`repro.parties` wire them to the network.

Erratum note: Figure 5's step 1 reads "Initialize rngJT with seed rJT",
but DHK never holds ``r_JT`` -- from the protocol description and
Figure 3 it must be ``rng_JK``/``r_JK``; we implement the corrected
version.

Both modes of Section 4.1 are provided: the default **batch** mode
(one mask per initiator value, reused down the responder's rows -- cheap
but open to the frequency attack of :mod:`repro.attacks.frequency`) and
the **per-pair** mitigation ("unique random numbers for each object
pair") with its higher communication cost.

Vectorization
-------------
Every step is implemented as array operations: masks and sign bits are
drawn in one block (:meth:`~repro.crypto.prng.ReseedablePRNG.next_bits_block`
/ :meth:`~repro.crypto.prng.ReseedablePRNG.next_sign_bits`), the
responder matrix is one broadcast ``masked[None, :] + sign * own[:, None]``
and the TP unmask one ``np.abs`` over the block.  Arithmetic runs in
``int64`` when masks and data provably fit; otherwise (notably the
default 64-bit masks and any ``mask_bits > 64`` configuration) it falls
back to object-dtype arrays of Python ints, which keep exact arbitrary
precision.  The TP's recovered distances leave the object path as
``int64`` again whenever they fit below 2^62, so descaling stays one
array division.  Both paths emit bitwise the same values as the scalar
reference in :mod:`repro.core.reference` -- not a single protocol
message changes; property tests pin that equivalence.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.crypto.prng import ReseedablePRNG
from repro.exceptions import ProtocolError

#: Largest magnitude (exclusive) that keeps ``mask + sign*x`` and
#: ``masked + sign*y`` provably inside int64: two operands below 2^62
#: sum below 2^63.
_INT64_HEADROOM = 1 << 62


def _as_checked_int64(values, bound: int = _INT64_HEADROOM) -> np.ndarray | None:
    """``values`` as an int64 array iff integral and below ``bound``.

    Anything non-integral (floats would silently truncate) or too large
    is handed to the exact object-dtype path instead.
    """
    try:
        arr = np.asarray(values)
    except (OverflowError, TypeError, ValueError):
        return None
    if arr.dtype.kind not in "iu":
        return None
    if arr.size:
        low, high = int(arr.min()), int(arr.max())
        if high >= bound or low <= -bound:
            return None
    return arr.astype(np.int64)


def _exact(value):
    """Integral types as Python ints (unbounded, overflow-proof); anything
    else passes through untouched, matching the scalar reference."""
    return int(value) if isinstance(value, (int, np.integer)) else value


def _object_vector(values) -> np.ndarray:
    """1-D object array for the exact-arithmetic path."""
    out = np.empty(len(values), dtype=object)
    out[:] = [_exact(v) for v in values]
    return out


def _object_matrix(
    rows: Sequence[Sequence[int]], cols: int
) -> tuple[np.ndarray, bool]:
    """2-D object array from a rectangular list of lists, and whether
    every entry came out a Python ``int``.

    Rows off the wire hold plain ``int`` only; a C-level type scan lets
    those be stored as they are, so only rows carrying other types pay
    the per-element :func:`_exact` pass.
    """
    out = np.empty((len(rows), cols), dtype=object)
    integral = True
    for i, row in enumerate(rows):
        if set(map(type, row)) <= {int}:
            out[i, :] = row
        else:
            exact = [_exact(v) for v in row]
            integral = integral and set(map(type, exact)) <= {int}
            out[i, :] = exact
    return out, integral


def _demoted(distances: np.ndarray, integral: bool) -> np.ndarray:
    """Exact object-dtype distances as int64 whenever they all fit.

    The object path exists for the *masked* operands (64-bit masks and
    wider); the recovered ``|x - y|`` are data-sized, so they usually fit
    below 2^62 and descale through the vectorized branch of
    :meth:`~repro.distance.numeric.FixedPointCodec.decode_distance_array`.
    Values that do not fit, or are not integers, stay as they are.
    """
    if not integral or (distances.size and distances.max() >= _INT64_HEADROOM):
        return distances
    return distances.astype(np.int64)


def _rectangular_shape(matrix: Sequence[Sequence[int]], what: str) -> tuple[int, int]:
    rows = len(matrix)
    cols = len(matrix[0]) if rows else 0
    for row in matrix:
        if len(row) != cols:
            raise ProtocolError(f"{what} must be rectangular")
    return rows, cols


def _signs_from_bits(sign_bits: np.ndarray, negate_on_one: bool) -> np.ndarray:
    """Map draw parity to +-1: DHJ negates on odd draws, DHK on even."""
    if negate_on_one:
        return np.where(sign_bits == 1, -1, 1)
    return np.where(sign_bits == 1, 1, -1)


def _masks_as_array(masks: np.ndarray, use_int64: bool) -> np.ndarray:
    """Block-drawn masks as a signed array for the chosen arithmetic path.

    ``next_bits_block`` returns ``uint64`` for widths up to 64 and an
    object array beyond; casting to ``object`` yields Python ints, so
    downstream arithmetic is exact either way.
    """
    if use_int64:
        return masks.astype(np.int64)
    return masks.astype(object)


# -- batch mode (Figures 4-6 verbatim) ----------------------------------------


def initiator_mask_batch(
    values: Sequence[int],
    rng_jk: ReseedablePRNG,
    rng_jt: ReseedablePRNG,
    mask_bits: int,
) -> list[int]:
    """Figure 4 -- DHJ's step.

    One sign draw from ``rng_JK`` and one additive mask from ``rng_JT``
    per value, both drawn as a single block.  Returns the disguised
    vector ``DH'J`` sent to DHK.
    """
    values = list(values)
    n = len(values)
    if n == 0:
        return []
    sign_bits = rng_jk.next_sign_bits(n)
    masks = rng_jt.next_bits_block(n, mask_bits)
    v64 = _as_checked_int64(values) if mask_bits <= 62 else None
    if v64 is not None:
        signs = _signs_from_bits(sign_bits, negate_on_one=True)
        masked = masks.astype(np.int64) + signs * v64
    else:
        signs = _signs_from_bits(sign_bits, negate_on_one=True).astype(object)
        masked = _masks_as_array(masks, use_int64=False) + signs * _object_vector(values)
    return masked.tolist()


def responder_matrix_batch(
    own_values: Sequence[int],
    masked_initiator: Sequence[int],
    rng_jk: ReseedablePRNG,
) -> list[list[int]]:
    """Figure 5 -- DHK's step.

    Builds the ``len(own_values) x len(masked_initiator)`` comparison
    matrix ``s`` as one broadcast.  ``rng_JK`` is re-initialised at the
    end of every row "to be able to remember the oddness/evenness of the
    random numbers generated at site DHJ" -- the sign draws are therefore
    identical across rows, so one block draw plus one reset reproduces
    the scalar per-row choreography exactly.
    """
    own_values = list(own_values)
    masked_initiator = list(masked_initiator)
    if not own_values:
        return []
    # The scalar loop resets after every row, so row 0 consumes the
    # generator's entry stream and rows 1+ the post-reset stream (they
    # coincide whenever the generator starts fresh, as in sessions).
    first_bits = rng_jk.next_sign_bits(len(masked_initiator))
    rng_jk.reset()
    rest_bits = first_bits
    if len(own_values) > 1:
        rest_bits = rng_jk.next_sign_bits(len(masked_initiator))
        rng_jk.reset()
    m64 = _as_checked_int64(masked_initiator)
    o64 = _as_checked_int64(own_values) if m64 is not None else None
    if o64 is not None:
        first_signs = _signs_from_bits(first_bits, negate_on_one=False)
        rest_signs = _signs_from_bits(rest_bits, negate_on_one=False)
        matrix = np.asarray(m64)[None, :] + rest_signs[None, :] * o64[:, None]
        matrix[0] = m64 + first_signs * o64[0]
    else:
        first_signs = _signs_from_bits(first_bits, negate_on_one=False).astype(object)
        rest_signs = _signs_from_bits(rest_bits, negate_on_one=False).astype(object)
        masked_obj = _object_vector(masked_initiator)
        own_obj = _object_vector(own_values)
        matrix = masked_obj[None, :] + rest_signs[None, :] * own_obj[:, None]
        matrix[0] = masked_obj + first_signs * own_obj[0]
    return matrix.tolist()


def third_party_unmask_batch(
    comparison_matrix: Sequence[Sequence[int]],
    rng_jt: ReseedablePRNG,
    mask_bits: int,
) -> np.ndarray:
    """Figure 6 -- TP's step.

    Subtracts the regenerated masks and takes absolute values in one
    ``np.abs`` over the block, giving the cross-site distance block
    ``J_K[m][n] = |x_n - y_m|`` (rows are DHK's objects, columns DHJ's).
    ``rng_JT`` re-initialises per row because every column is disguised
    with the same mask in batch mode -- so one block draw plus one reset
    regenerates every row's masks.

    ``mask_bits`` is a public protocol parameter: the pseudocode leaves
    the mask domain implicit, but TP can only redraw identical masks when
    it knows their width.
    """
    comparison_matrix = list(comparison_matrix)
    rows, cols = _rectangular_shape(comparison_matrix, "comparison matrix")
    if rows == 0:
        return np.zeros((0, 0), dtype=np.int64)
    # Scalar semantics: row 0 unmasks with the generator's entry stream,
    # rows 1+ with the post-reset stream (identical for fresh generators).
    first_masks = rng_jt.next_bits_block(cols, mask_bits)
    rng_jt.reset()
    rest_masks = first_masks
    if rows > 1:
        rest_masks = rng_jt.next_bits_block(cols, mask_bits)
        rng_jt.reset()
    m64 = None
    if mask_bits <= 62:
        m64 = _as_checked_int64(comparison_matrix)
    if m64 is not None:
        distances = np.abs(m64 - rest_masks.astype(np.int64)[None, :])
        distances[0] = np.abs(m64[0] - first_masks.astype(np.int64))
        return distances
    matrix, integral = _object_matrix(comparison_matrix, cols)
    distances = np.abs(matrix - _masks_as_array(rest_masks, use_int64=False)[None, :])
    distances[0] = np.abs(matrix[0] - _masks_as_array(first_masks, use_int64=False))
    return _demoted(distances, integral)


# -- per-pair mode (the Section 4.1 frequency-attack mitigation) ---------------


def initiator_mask_per_pair(
    values: Sequence[int],
    responder_size: int,
    rng_jk: ReseedablePRNG,
    rng_jt: ReseedablePRNG,
    mask_bits: int,
) -> list[list[int]]:
    """Per-pair DHJ step: a fresh sign and mask for every (m, n) pair.

    Output is a ``responder_size x len(values)`` matrix; row ``m`` holds
    the masked copies of DHJ's vector destined for the responder's object
    ``m``.  Draws are row-major so all three parties stay aligned with no
    re-initialisation at all; the sign and mask generators are
    independent streams, so both blocks are drawn in one call each.
    """
    if responder_size < 0:
        raise ProtocolError(f"responder_size must be >= 0, got {responder_size}")
    values = list(values)
    n = len(values)
    total = responder_size * n
    if total == 0:
        return [[] for _ in range(responder_size)]
    sign_bits = rng_jk.next_sign_bits(total)
    masks = rng_jt.next_bits_block(total, mask_bits)
    v64 = _as_checked_int64(values) if mask_bits <= 62 else None
    if v64 is not None:
        signs = _signs_from_bits(sign_bits, negate_on_one=True)
        matrix = masks.astype(np.int64).reshape(responder_size, n) + signs.reshape(
            responder_size, n
        ) * v64[None, :]
    else:
        signs = _signs_from_bits(sign_bits, negate_on_one=True).astype(object)
        matrix = _masks_as_array(masks, use_int64=False).reshape(
            responder_size, n
        ) + signs.reshape(responder_size, n) * _object_vector(values)[None, :]
    return matrix.tolist()


def responder_matrix_per_pair(
    own_values: Sequence[int],
    masked_matrix: Sequence[Sequence[int]],
    rng_jk: ReseedablePRNG,
) -> list[list[int]]:
    """Per-pair DHK step: complement each pair's unique sign draw."""
    own_values = list(own_values)
    masked_matrix = list(masked_matrix)
    if len(masked_matrix) != len(own_values):
        raise ProtocolError(
            f"masked matrix has {len(masked_matrix)} rows for "
            f"{len(own_values)} responder values"
        )
    rows, cols = _rectangular_shape(masked_matrix, "masked matrix")
    total = rows * cols
    if total == 0:
        return [[] for _ in range(rows)]
    sign_bits = rng_jk.next_sign_bits(total).reshape(rows, cols)
    m64 = _as_checked_int64(masked_matrix)
    o64 = _as_checked_int64(own_values) if m64 is not None else None
    if o64 is not None:
        signs = _signs_from_bits(sign_bits, negate_on_one=False)
        matrix = m64 + signs * o64[:, None]
    else:
        signs = _signs_from_bits(sign_bits, negate_on_one=False).astype(object)
        matrix = _object_matrix(masked_matrix, cols)[0] + signs * _object_vector(
            own_values
        )[:, None]
    return matrix.tolist()


def third_party_unmask_per_pair(
    comparison_matrix: Sequence[Sequence[int]],
    rng_jt: ReseedablePRNG,
    mask_bits: int,
) -> np.ndarray:
    """Per-pair TP step: masks are consumed row-major, never re-used."""
    comparison_matrix = list(comparison_matrix)
    rows, cols = _rectangular_shape(comparison_matrix, "comparison matrix")
    total = rows * cols
    if total == 0:
        return np.zeros((rows, cols), dtype=np.int64)
    masks = rng_jt.next_bits_block(total, mask_bits)
    m64 = None
    if mask_bits <= 62:
        m64 = _as_checked_int64(comparison_matrix)
    if m64 is not None:
        return np.abs(m64 - masks.astype(np.int64).reshape(rows, cols))
    matrix, integral = _object_matrix(comparison_matrix, cols)
    return _demoted(
        np.abs(matrix - _masks_as_array(masks, use_int64=False).reshape(rows, cols)),
        integral,
    )
