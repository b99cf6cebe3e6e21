"""Smoke tests of the benchmark itself, at tiny input sizes.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads
from repro.baselines.centralized import centralized_pipeline
from repro.distance.dissimilarity import DissimilarityMatrix

SEED = 3
HELD_OUT_SEED = 424242


def bench(*argv: str, env: dict | None = None, cwd: str = run.ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *argv],
        capture_output=True, text=True, timeout=170, cwd=cwd, env=env,
    )
    return proc.returncode, proc.stdout


def result_of(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def tiny(workload: str, seed: int, trace: int, **kwargs) -> tuple[int, dict]:
    code, stdout = bench("--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                         "--trace", str(trace), "--tiny", **kwargs)
    return code, result_of(stdout)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_untraced_run_passes_checks_on_held_out_seed(workload):
    code, result = tiny(workload, HELD_OUT_SEED, 0)
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    assert [name for name, _ in run.END_TO_END] == list(result["metrics"])
    assert all(entry["value"] > 0 for entry in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first = tiny(workload, SEED, 1)
    second = tiny(workload, SEED, 1)
    for code, result in (first, second):
        assert code == 0 and result["correct"]
        assert list(result["metrics"]) == list(run.PER_LAYER)

    def counts(result: dict) -> dict:
        # Over sockets, acks and heartbeats follow the clock: their frames
        # and their serialization are not counted on.
        timed = (".tcp.", ".serialization.") if workload.startswith("socket-") else ()
        return {
            name: entry["value"] for name, entry in result["metrics"].items()
            if entry["unit"] in ("count", "B") and not any(t in name for t in timed)
        }

    assert counts(first[1]) == counts(second[1])


@pytest.mark.parametrize("make", [workloads.mixed_partitions, workloads.numcat_partitions])
def test_reference_matrix_is_the_centralized_baseline(make):
    partitions = make(SEED, workloads.TINY)
    merged = centralized_pipeline(partitions)[0]
    assert np.array_equal(workloads.reference_matrix(partitions).condensed, merged.condensed)


def test_perturbed_matrix_or_clusters_fail_the_session_check():
    partitions = workloads.mixed_partitions(SEED, workloads.TINY)
    reference = workloads.reference_matrix(partitions)
    clusters = workloads.reference_clusters(partitions, reference)
    payload = {"clusters": [sorted(group) for group in clusters]}
    expected = workloads.matrix_digest(reference)
    assert workloads.check_session(expected, payload, expected, clusters)

    perturbed = np.array(reference.condensed)
    perturbed[7] = np.nextafter(perturbed[7], 2.0)
    digest = workloads.matrix_digest(DissimilarityMatrix(reference.num_objects, perturbed))
    assert not workloads.check_session(digest, payload, expected, clusters)

    first, second = payload["clusters"][:2]
    first[0], second[0] = second[0], first[0]
    assert not workloads.check_session(expected, payload, expected, clusters)
    assert not workloads.check_session(expected, None, expected, clusters)


def test_flipped_digest_counts_as_failed_clustering_call():
    reports = {
        (scenario, backend): {"digests": ["ab", "ab"], "sane": [True, True],
                              "times": [1.0, 1.0], "calibrations": [1e-3] * 3,
                              "peak_rss_mb": 1.0}
        for scenario in workloads.SCENARIOS for backend in workloads.BACKENDS
    }
    out = run.Outcome()
    run.score_cluster(reports, out)
    assert (out.attempted, out.failed) == (12, 0)

    reports[("pam", "memmap")]["digests"][1] = "ba"
    out = run.Outcome()
    run.score_cluster(reports, out)
    assert (out.attempted, out.failed) == (12, 1)


def test_flipped_frame_digest_fails_the_socket_check():
    frame = ["A", "TP", "local", "t", "d1"]
    reports = {"A": {"result": {"clusters": []}, "transcript": [[1, *frame[1:]]]}}
    lanes = workloads.report_lanes(reports)
    assert workloads.check_socket(reports, {"clusters": []}, lanes)
    reports["A"]["transcript"][0][4] = "d2"
    assert not workloads.check_socket(reports, {"clusters": []}, lanes)
    assert not workloads.check_socket({"A": None}, {"clusters": []}, lanes)


def test_corrupted_third_party_matrix_fails_the_run(tmp_path):
    """A perturbed merged-matrix entry inside the program is caught end to
    end: the run reports failures and exits nonzero."""
    (tmp_path / "sitecustomize.py").write_text(
        "import numpy as np\n"
        "from repro.distance.dissimilarity import DissimilarityMatrix\n"
        "from repro.parties.third_party import ThirdParty\n"
        "_merged = ThirdParty.merged_matrix\n"
        "def merged_matrix(self, *args, **kwargs):\n"
        "    matrix = _merged(self, *args, **kwargs)\n"
        "    values = np.array(matrix.condensed)\n"
        "    values[0] += 0.25\n"
        "    return DissimilarityMatrix(matrix.num_objects, values)\n"
        "ThirdParty.merged_matrix = merged_matrix\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(tmp_path), run.SRC]))
    code, result = tiny(run.WORKLOADS[0], SEED, 0, env=env)
    assert code != 0
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_benchmark_json_matches_the_runner():
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in spec["per_layer"]] == list(run.PER_LAYER)
    assert [m["unit"] for m in spec["per_layer"]] == [run.unit_of(m) for m in run.PER_LAYER]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    code, stdout = bench("--workload", run.WORKLOADS[0], "--seed", "1", "--seconds", "1",
                         "--trace", "0", cwd=str(tmp_path))
    assert code != 0
    assert '"correct"' not in stdout
