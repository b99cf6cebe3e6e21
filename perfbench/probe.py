"""Fresh-interpreter parts of the benchmark, run by ``run.py``.

``setup-session`` and ``setup-socket`` time what a user pays before the
first operation can start.  ``cluster`` runs one clustering scenario on
one storage backend, alone in its process so that its peak RSS counts
that scenario only.  Each prints one JSON object.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import sys  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def _setup_session(args: argparse.Namespace) -> dict:
    import repro  # noqa: F401
    from repro.core.session import ClusteringSession  # noqa: F401

    import_s = time.perf_counter() - _STARTED
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    make = {"mixed": workloads.mixed_partitions, "numcat": workloads.numcat_partitions}
    partitions = make[args.inputs](args.seed, sizes)
    construct_s, _ = workloads.timed(workloads.new_session, partitions, args.seed)
    return {"setup_s": import_s + construct_s, "import_s": import_s}


def _setup_socket(args: argparse.Namespace) -> dict:
    import repro.apps.cluster  # noqa: F401

    return {"setup_s": time.perf_counter() - _STARTED}


def _cluster(args: argparse.Namespace) -> dict:
    import workloads
    from repro.distance.store import StoreSpec

    import layers

    sizes = workloads.TINY if args.tiny else workloads.FULL
    algorithm, tied = workloads.SCENARIOS[args.scenario]
    spec = StoreSpec(
        backend=args.backend,
        block_entries=sizes.cluster_block_entries,
        cache_bytes=sizes.cluster_cache_bytes,
        directory=args.store_dir,
    )
    matrix = workloads.fill_matrix(sizes.cluster_n, spec, args.seed, tied)
    setup_s = time.perf_counter() - _STARTED

    outputs: list[tuple[str, bool]] = []

    def reps(budget: float, tracer: layers.Tracer | None) -> dict:
        """Clustering calls until they took ``budget`` seconds, each
        followed by a CPU-speed calibration (the first one precedes)."""
        times: list[float] = []
        calibrations = [workloads.calibrate()]
        summaries: list[dict] = []
        while not times or sum(times) < budget:
            if tracer is None:
                seconds, output = workloads.timed(workloads.cluster_once, matrix, algorithm)
            else:
                tracer.reset()
                with tracer.span(layers.OP):
                    seconds, output = workloads.timed(
                        workloads.cluster_once, matrix, algorithm
                    )
                summaries.append(tracer.summary())
            times.append(seconds)
            outputs.append(output)
            calibrations.append(workloads.calibrate())
        return {"times": times, "calibrations": calibrations, "summaries": summaries}

    budget = args.seconds / 2 if args.trace else args.seconds
    untraced = reps(budget, None)
    report: dict = {"setup_s": setup_s, "times": untraced["times"],
                    "calibrations": untraced["calibrations"]}
    if args.trace:
        tracer = layers.Tracer()
        tracer.install()
        try:
            traced = reps(budget, tracer)
        finally:
            tracer.uninstall()
        if args.spans_out:
            tracer.write_spans(args.spans_out)
        report["traced_times"] = traced["times"]
        report["traced_calibrations"] = traced["calibrations"]
        report["summaries"] = traced["summaries"]
    report["digests"] = [digest for digest, _ in outputs]
    report["sane"] = [sane for _, sane in outputs]
    report["peak_rss_mb"] = workloads.peak_rss_mb()
    matrix.store.close()
    return report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("mode", choices=("setup-session", "setup-socket", "cluster"))
    parser.add_argument("--src", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--inputs", choices=("mixed", "numcat"))
    parser.add_argument("--scenario")
    parser.add_argument("--backend")
    parser.add_argument("--store-dir")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--spans-out")
    args = parser.parse_args()
    sys.path[:0] = [args.src, BENCH_DIR]
    run = {"setup-session": _setup_session, "setup-socket": _setup_socket, "cluster": _cluster}
    print(json.dumps(run[args.mode](args)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
