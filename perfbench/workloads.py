"""Inputs, operations and output checks of the benchmark workloads.

Every input is a pure function of the workload seed.  The program under
test only ever receives the generated inputs.  Each check runs outside
the timed region and returns ``True`` only for an exactly right output.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

# Module references, not names: the traced run patches the functions on
# their modules, and a name bound here would bypass the patch.
from repro.clustering import kmedoids, linkage
from repro.core.config import SessionConfig
from repro.core.session import ClusteringSession
from repro.data.datasets import customer_segmentation
from repro.data.matrix import AttributeSpec, DataMatrix
from repro.data.partition import merge_partitions
from repro.data.synthetic import categorical_column, gaussian_clusters
from repro.distance.dissimilarity import DissimilarityMatrix, condensed_size
from repro.distance.edit import pairwise_edit_distances
from repro.distance.merge import merge_weighted
from repro.distance.numeric import FixedPointCodec
from repro.distance.store import StoreSpec
from repro.network.channel import Eavesdropper
from repro.types import AttributeType

NUM_CLUSTERS = 3


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``tiny`` is the smoke-test scale."""

    mixed_per_segment: int
    numcat_rows: int
    socket_per_segment: int
    cluster_n: int
    cluster_block_entries: int
    setup_samples: int

    @property
    def cluster_cache_bytes(self) -> int:
        # Two resident blocks, well below the triangle: eviction and
        # writeback run on every memmap scenario.
        return 2 * self.cluster_block_entries * 8


FULL = Sizes(
    mixed_per_segment=70,
    numcat_rows=200,
    socket_per_segment=60,
    cluster_n=2400,
    cluster_block_entries=1 << 19,
    setup_samples=3,
)
TINY = Sizes(
    mixed_per_segment=6,
    numcat_rows=20,
    socket_per_segment=6,
    cluster_n=120,
    cluster_block_entries=256,
    setup_samples=1,
)


# -- in-process sessions ---------------------------------------------------


#: Data seed of the ``customer_segmentation`` workloads.  Their DNA-like
#: strings get their lengths from the data seed, and the CCM payloads
#: grow with the product of two strings' lengths: drawing the data from
#: the workload seed moved wire bytes, and op time with them, by up to
#: 14% between seeds.  These workloads therefore take their keys, masks
#: and nonces (the session's master seed) from the workload seed and
#: their data from this constant.
CUSTOMER_DATA_SEED = 11


def mixed_partitions(seed: int, sizes: Sizes) -> dict[str, DataMatrix]:
    """3 companies, numeric + categorical + alphanumeric attributes."""
    dataset = customer_segmentation(
        num_companies=3, per_segment=sizes.mixed_per_segment, seed=CUSTOMER_DATA_SEED
    )
    return dict(dataset.partitions)


def socket_partitions(seed: int, sizes: Sizes) -> dict[str, DataMatrix]:
    """2 companies of the mixed data set (the smallest deployment)."""
    dataset = customer_segmentation(
        num_companies=2, per_segment=sizes.socket_per_segment, seed=CUSTOMER_DATA_SEED
    )
    return dict(dataset.partitions)


NUMCAT_SCHEMA = [
    AttributeSpec("x", AttributeType.NUMERIC, precision=2),
    AttributeSpec("y", AttributeType.NUMERIC, precision=2),
    AttributeSpec("tier", AttributeType.CATEGORICAL),
]
_TIERS = ["bronze", "silver", "gold", "platinum", "staff"]


def numcat_partitions(seed: int, sizes: Sizes) -> dict[str, DataMatrix]:
    """3 sites, 2 numeric + 1 categorical attributes, no strings.

    Drawn from the seed: without strings, payload sizes depend only on
    the row counts (wire bytes agree to 0.005% between seeds).
    """
    rows_per_site = sizes.numcat_rows
    partitions = {}
    for site in range(3):
        base = seed * 10 + site
        per_cluster = [rows_per_site // 3] * 2 + [rows_per_site - 2 * (rows_per_site // 3)]
        points, _ = gaussian_clusters(per_cluster, dim=2, separation=6.0, seed=base)
        tiers = categorical_column(rows_per_site, _TIERS, seed=base + 5)
        rows = [
            [round(p[0], 2), round(p[1], 2), tier] for p, tier in zip(points, tiers)
        ]
        partitions[f"site{site}"] = DataMatrix.from_rows(NUMCAT_SCHEMA, rows)
    return partitions


def session_config(seed: int) -> SessionConfig:
    return SessionConfig(num_clusters=NUM_CLUSTERS, master_seed=seed)


def new_session(partitions: Mapping[str, DataMatrix], seed: int) -> ClusteringSession:
    """Set-up of one operation: DH agreement and sealed channels."""
    return ClusteringSession(session_config(seed), partitions)


def reference_matrix(partitions: Mapping[str, DataMatrix]) -> DissimilarityMatrix:
    """The centralized baseline's merged matrix, computed with arrays.

    Equal, entry for entry, to ``centralized_pipeline(partitions)[0]``
    (the smoke tests pin this at small sizes); the baseline's per-pair
    Python callbacks would cost minutes at benchmark sizes.
    """
    pooled, _ = merge_partitions(partitions)
    n = pooled.num_rows
    lower, upper = np.tril_indices(n, -1)
    per_attribute = []
    for spec in pooled.schema:
        column = pooled.column_by_name(spec.name)
        if spec.attr_type is AttributeType.NUMERIC:
            codec = FixedPointCodec(spec.precision)
            encoded = np.asarray(codec.encode_column(column), dtype=np.int64)
            values = np.abs(encoded[lower] - encoded[upper]).astype(np.float64)
            if spec.precision:
                values = values / codec.scale
        elif spec.attr_type is AttributeType.ALPHANUMERIC:
            values = np.asarray(pairwise_edit_distances(column), dtype=np.float64)
        else:
            _, codes = np.unique(np.asarray(column, dtype=object).astype(str), return_inverse=True)
            values = (codes[lower] != codes[upper]).astype(np.float64)
        per_attribute.append(DissimilarityMatrix(n, values).normalized())
    return merge_weighted(per_attribute)


def reference_clusters(
    partitions: Mapping[str, DataMatrix], matrix: DissimilarityMatrix
) -> set[frozenset[tuple[str, int]]]:
    """Membership sets the baseline's dendrogram cut publishes."""
    _, index = merge_partitions(partitions)
    labels = linkage.agglomerative(matrix).cut_at_k(NUM_CLUSTERS)
    groups: dict[int, set[tuple[str, int]]] = {}
    for ref, label in zip(index.refs(), labels):
        groups.setdefault(label, set()).add((ref.site, ref.local_id))
    return {frozenset(group) for group in groups.values()}


def payload_clusters(payload: Mapping[str, Any]) -> set[frozenset[tuple[str, int]]]:
    return {
        frozenset((site, int(local)) for site, local in members)
        for members in payload["clusters"]
    }


def matrix_digest(matrix: DissimilarityMatrix) -> str:
    return hashlib.sha256(matrix.condensed.tobytes()).hexdigest()


def check_session(
    digest: str,
    payload: Mapping[str, Any] | None,
    expected_digest: str,
    clusters: set[frozenset[tuple[str, int]]],
) -> bool:
    """Zero accuracy loss: the TP's merged matrix (by digest) equals the
    baseline's exactly, and the published clusters are the baseline's."""
    return (
        payload is not None
        and digest == expected_digest
        and payload_clusters(payload) == clusters
    )


# -- socket session --------------------------------------------------------


def tapped_reference(
    partitions: Mapping[str, DataMatrix], seed: int, tp_name: str = "TP"
) -> tuple[dict, dict[tuple[str, str], list[tuple[str, str, str]]], int]:
    """In-process session on the same spec: result payload, per-lane
    frame digests and total sealed bytes."""
    session = ClusteringSession(session_config(seed), partitions, tp_name=tp_name)
    tap = Eavesdropper("bench")
    parties = sorted(partitions) + [tp_name]
    for i, a in enumerate(parties):
        for b in parties[i + 1 :]:
            session.network.channel(a, b).attach_tap(tap)
    result = session.run()
    lanes: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
    for frame in tap.frames:
        lanes.setdefault((frame.sender, frame.recipient), []).append(
            (frame.kind, frame.tag, hashlib.sha256(frame.wire).hexdigest())
        )
    return result.to_payload(), lanes, sum(len(f.wire) for f in tap.frames)


def report_lanes(reports: Mapping[str, Mapping[str, Any]]) -> dict:
    lanes: dict[tuple[str, str], list[tuple[str, str, str]]] = {}
    for party, report in reports.items():
        for _era, recipient, kind, tag, digest in report["transcript"]:
            lanes.setdefault((party, recipient), []).append((kind, tag, digest))
    return lanes


def check_socket(
    reports: Mapping[str, Mapping[str, Any] | None], payload: Mapping[str, Any], lanes: dict
) -> bool:
    """Every party published/received the in-process session's result,
    and every frame on every lane is byte-identical to it."""
    if any(report is None for report in reports.values()):
        return False
    return all(r["result"] == payload for r in reports.values()) and (
        report_lanes(reports) == lanes
    )


# -- clustering on the storage backends ------------------------------------

#: Clustering scenarios: metric stem -> (algorithm, tied fill).
SCENARIOS = {
    "agglo": ("agglomerative", False),
    "agglo_tied": ("agglomerative", True),
    "pam": ("pam", False),
}
BACKENDS = ("memory", "memmap")
PAM_K = 8
#: Quantization steps of the tied fill: distances share 64 levels, like
#: the integer- and category-valued matrices of real sessions.
TIE_LEVELS = 64

#: Odd multiplier of the position bijection below (the golden ratio in
#: 64-bit fixed point).
_SCRAMBLE = 0x9E3779B97F4A7C15
_MASK53 = (1 << 53) - 1


def fill_matrix(
    n: int, spec: StoreSpec, seed: int, tied: bool, block: int = 1 << 20
) -> DissimilarityMatrix:
    """A synthetic matrix on ``spec``'s backend, filled block-wise.

    Pair position ``p`` gets ``((p * _SCRAMBLE) mod 2^53 + 1) * 2^-53``:
    the multiplier is odd, hence invertible mod 2^53, so every distance
    is distinct and exact in float64.  The tied fill rounds those values
    up to ``TIE_LEVELS`` levels.  The seed scales the whole matrix by a
    power of two, which changes every value and digest but no comparison
    and no rounding: each seed does exactly the same clustering work, so
    run-to-run spread measures the machine, not the input.  (Permuting
    the objects instead moved agglomerative time by up to 40% between
    seeds, through NN-chain lengths and tie-breaking order.)
    """
    exponent = seed % 8
    matrix = DissimilarityMatrix.zeros(n, store_spec=spec)
    size = condensed_size(n)
    for start in range(0, size, block):
        positions = np.arange(start, min(start + block, size), dtype=np.uint64)
        scrambled = (positions * np.uint64(_SCRAMBLE)) & np.uint64(_MASK53)
        values = (scrambled.astype(np.float64) + 1.0) * 2.0**-53
        if tied:
            values = np.ceil(values * TIE_LEVELS) / TIE_LEVELS
        matrix.write_condensed(start, np.ldexp(values, exponent))
    return matrix


def peak_rss_mb() -> float:
    """This process's peak resident set (``VmHWM``), in MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def cluster_once(matrix: DissimilarityMatrix, algorithm: str) -> tuple[str, bool]:
    """Run one clustering call; returns ``(digest, sane)``."""
    n = matrix.num_objects
    digest = hashlib.sha256()
    if algorithm == "agglomerative":
        tree = linkage.agglomerative(matrix)
        merges = tree.merges
        digest.update(np.array([(m.left, m.right, m.size) for m in merges], dtype=np.int64).tobytes())
        digest.update(np.array([m.height for m in merges], dtype=np.float64).tobytes())
        sane = len(merges) == n - 1 and merges[-1].size == n
    else:
        result = kmedoids.k_medoids(matrix, PAM_K)
        labels = np.asarray(result.labels, dtype=np.int64)
        digest.update(labels.tobytes())
        digest.update(np.asarray(result.medoids, dtype=np.int64).tobytes())
        digest.update(np.array([result.cost], dtype=np.float64).tobytes())
        sane = len(result.medoids) == PAM_K and labels.size == n
    return digest.hexdigest(), bool(sane)


_CALIBRATION_VALUES = np.arange(8192, dtype=np.float64)


def _calibration_kernel() -> None:
    total = 0
    for i in range(20_000):
        total += i * i
    hashlib.sha256(np.sort(_CALIBRATION_VALUES[::-1]).tobytes()).digest()


def calibrate(samples: int = 9) -> float:
    """Median seconds of a fixed CPU kernel (interpreter loop, sort, hash):
    how fast this CPU runs right now.  On a shared host, neighbours slow
    every core by up to 40% for seconds at a time; timing this kernel
    between operations lets the benchmark report op time at a fixed
    CPU speed."""
    times = []
    for _ in range(samples):
        started = time.perf_counter()
        _calibration_kernel()
        times.append(time.perf_counter() - started)
    return sorted(times)[samples // 2]


def timed(fn, *args):
    started = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - started, value
