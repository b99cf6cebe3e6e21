"""The repository benchmark: one workload, one seed, one closed loop.

Run from the repository root::

    python3 perfbench/run.py --workload session-mixed-3x70 --seed 1 --seconds 16 --trace 0

One client runs one operation at a time in a closed loop until the
operations have taken ``--seconds``; every output is checked outside the
timed region.  ``--trace 0`` measures the end-to-end metrics untraced;
``--trace 1`` runs half the budget untraced and half with every layer
wrapped (``layers.py``), and reports the per-layer metrics.  The last
line of standard output is one JSON object; the lines above it are a
human-readable table.  Full results, with the machine fingerprint, go to
``.bench_work/results/``.  See ``README.md`` for the workloads.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from typing import Any, Callable

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
CHILD_TIMEOUT = 150.0

WORKLOADS = (
    "session-mixed-3x70",
    "session-numcat-3x200",
    "cluster-n2400",
    "socket-3proc-2x90",
)

#: The workload-level metrics the table prints for every workload
#: ("n/a" where a workload has none); BENCHMARK.json holds END_TO_END.
WORKLOAD_METRICS = (
    "session_s", "setup_s", "wire_bytes", "peak_rss_mb", "error_rate",
    *(f"{scenario}_{backend}_s" for scenario in ("agglo", "agglo_tied", "pam")
      for backend in ("memory", "memmap")),
    *(f"{scenario}_{backend}_rss_mb" for scenario in ("agglo", "pam")
      for backend in ("memory", "memmap")),
)

#: ``(name, unit)`` of the end-to-end metrics every workload reports.
END_TO_END = (("op_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))

_STORE_METRICS = tuple(
    f"distance.store.MemmapStore.{op}.{field}"
    for op in ("read", "write", "gather", "scatter", "flush")
    for field in ("calls", "bytes", "self_s")
    if not (op == "flush" and field == "bytes")
)

#: Per-layer metrics of the traced run, reported for every workload (0
#: where a workload bypasses the layer).
PER_LAYER = (
    *(f"layer.{layer}.self_s" for layer in
      ("crypto", "network", "core", "parties", "distance", "clustering")),
    "trace.untraced_s",
    "trace.coverage",
    "trace.overhead",
    "network.wire_bytes",
    "network.frames",
    "network.serialization.serialize.self_s",
    "network.serialization.serialize.bytes",
    "network.serialization.deserialize.self_s",
    "network.serialization.deserialize.bytes",
    "crypto.sym.SymmetricCipher.transmit_roundtrip.self_s",
    "crypto.sym.SymmetricCipher.transmit_roundtrip.bytes",
    "network.simulator.Network.send.calls",
    "network.channel.Channel.transmit.bytes",
    "core.alphanumeric.initiator_mask_strings.self_s",
    "core.alphanumeric.responder_ccm_matrices.self_s",
    "core.alphanumeric.third_party_distances.self_s",
    "core.numeric.initiator_mask_batch.self_s",
    "core.numeric.responder_matrix_batch.self_s",
    "core.numeric.third_party_unmask_batch.self_s",
    "core.categorical.third_party_categorical_matrix.self_s",
    "distance.dissimilarity.DissimilarityMatrix.from_pairwise.self_s",
    "distance.dissimilarity.DissimilarityMatrix.to_square.calls",
    "distance.dissimilarity.DissimilarityMatrix.to_square.bytes",
    "parties.holder.DataHolder.local_matrix.self_s",
    "parties.third_party.ThirdParty.merged_matrix.self_s",
    "parties.third_party.ThirdParty.cluster_and_publish.self_s",
    *_STORE_METRICS,
    "clustering.linkage.agglomerative.self_s",
    "clustering.kmedoids.k_medoids.self_s",
    "network.tcp.SocketTransport.send.self_s",
    "network.tcp.SocketTransport.send.wait_s",
    "network.tcp.SocketTransport.receive.self_s",
    "network.tcp.SocketTransport.receive.wait_s",
    "network.tcp.SocketTransport.connect_all.self_s",
    "network.handshake.LinkCipher.seal.bytes",
    "parties.runner.PartyRunner.run.A.wall_s",
    "parties.runner.PartyRunner.run.B.wall_s",
    "parties.runner.PartyRunner.run.TP.wall_s",
    "apps.cluster.import_s",
)

_UNITS = {"self_s": "s", "wait_s": "s", "wall_s": "s", "import_s": "s",
          "untraced_s": "s", "calls": "count", "bytes": "B", "frames": "count",
          "wire_bytes": "B", "coverage": "ratio", "overhead": "ratio"}


def unit_of(metric: str) -> str:
    return _UNITS[metric.rsplit(".", 1)[-1]]


#: Seconds the calibration kernel (``workloads.calibrate``) takes at the
#: nominal CPU speed that ``op_s`` and ``setup_s`` are reported at: its
#: uncontended time on the 2-core box the benchmark was tuned on.
CAL_REF_S = 1.25e-3


# -- helpers ---------------------------------------------------------------


def median(values: list[float]) -> float:
    return float(statistics.median(values))


def nominal(times: list[float], calibrations: list[float]) -> float:
    """Median op time at the nominal CPU speed.

    ``calibrations`` brackets the ops: op ``i`` ran between calibration
    ``i`` and ``i + 1``.  On a shared host the neighbours' load slows this
    VM's cores by up to 40% for seconds at a time, and a raw median then
    measures the neighbours.  The kernel runs as much slower as the ops
    next to it, so each op is rescaled by the mean of its two brackets:
    over ten seeds this cut the spread of the in-process sessions' op time
    from 21-39% to 8-12% of the median, and the socket session's from 14%
    to 9%.
    """
    return median([
        seconds * CAL_REF_S * 2 / (calibrations[i] + calibrations[i + 1])
        for i, seconds in enumerate(times)
    ])


def closed_loop(
    budget: float, op: Callable[[], float], calibrations: list[float]
) -> list[float]:
    """Run ``op`` (which returns its own timed seconds) back to back
    until the timed seconds reach ``budget``; at least once.  A CPU-speed
    calibration before the first op and after every op lands in
    ``calibrations``, so op ``i`` is bracketed by entries ``i``, ``i+1``."""
    import workloads

    times: list[float] = []
    calibrations.append(workloads.calibrate())
    while not times or sum(times) < budget:
        times.append(op())
        calibrations.append(workloads.calibrate())
    return times


def run_child(argv: list[str]) -> dict:
    """Run ``probe.py`` in a fresh interpreter; returns its JSON."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "probe.py"), *argv, "--src", SRC],
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT,
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {argv[0]} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def sample_setup(argv: list[str], count: int, out: "Outcome") -> None:
    """``count`` fresh-interpreter set-up probes, calibrated like ops."""
    import workloads

    out.setup_calibrations.append(workloads.calibrate())
    for _ in range(count):
        out.setup.append(run_child(argv)["setup_s"])
        out.setup_calibrations.append(workloads.calibrate())


def fingerprint() -> dict[str, Any]:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    l3 = None
    try:
        with open("/sys/devices/system/cpu/cpu0/cache/index3/size", encoding="ascii") as handle:
            l3 = handle.read().strip()
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l3": l3,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def read_json(path: str) -> Any:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def now_utc() -> str:
    return datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="milliseconds")


class Outcome:
    """What one run measured, before it is turned into metrics."""

    def __init__(self) -> None:
        self.op_times: list[float] = []
        self.calibrations: list[float] = []
        self.traced_times: list[float] = []
        self.traced_calibrations: list[float] = []
        #: Results at the nominal CPU speed (see :func:`nominal`).
        self.op_s = 0.0
        self.traced_op_s = 0.0
        self.setup_s = 0.0
        self.attempted = 0
        self.failed = 0
        self.setup: list[float] = []
        self.setup_calibrations: list[float] = []
        self.peak_rss_mb = 0.0
        self.counts: dict[str, int] = {}
        #: Workload-level metrics for the table: name -> (value, unit, samples)
        self.extra: dict[str, tuple[float, str, int]] = {}
        #: per-op layer profile: name -> {self_s, calls, bytes, wait_s}
        self.profile: dict[str, dict[str, float]] = {}
        self.untraced_s = 0.0
        self.stamps: dict[str, str] = {}
        #: Raw per-process reports (cluster scenarios), for the result file.
        self.detail: dict[str, Any] = {}

    def summarize(self) -> None:
        """``op_s``/``setup_s``: medians at the nominal CPU speed."""
        self.op_s = nominal(self.op_times, self.calibrations)
        if self.traced_times:
            self.traced_op_s = nominal(self.traced_times, self.traced_calibrations)
        if self.setup:
            self.setup_s = nominal(self.setup, self.setup_calibrations)

    def record(self, ok: bool) -> None:
        self.attempted += 1
        self.failed += 0 if ok else 1


def merge_profiles(summaries: list[dict]) -> dict[str, dict[str, float]]:
    """One op's profile from several traced ops: median self/wait time,
    counts and bytes of the first op (they repeat exactly)."""
    first = summaries[0]
    return {
        name: {
            "calls": first[name]["calls"],
            "bytes": first[name]["bytes"],
            "self_s": median([s.get(name, {}).get("self_s", 0.0) for s in summaries]),
            "wait_s": median([s.get(name, {}).get("wait_s", 0.0) for s in summaries]),
        }
        for name in first
    }


def add_profiles(profiles: list[dict]) -> dict[str, dict[str, float]]:
    total: dict[str, dict[str, float]] = {}
    for profile in profiles:
        for name, entry in profile.items():
            slot = total.setdefault(name, {"calls": 0, "bytes": 0, "self_s": 0.0, "wait_s": 0.0})
            for field in slot:
                slot[field] += entry[field]
    return total


# -- workloads -------------------------------------------------------------


def run_session(args: argparse.Namespace, out: Outcome, inputs: str) -> None:
    import layers
    import workloads

    sizes = workloads.TINY if args.tiny else workloads.FULL
    make = {"mixed": workloads.mixed_partitions, "numcat": workloads.numcat_partitions}[inputs]
    partitions = make(args.seed, sizes)
    if not args.trace:
        sample_setup(["setup-session", "--inputs", inputs, "--seed", str(args.seed),
                      *(["--tiny"] if args.tiny else [])], sizes.setup_samples, out)
    # Warm-up: lazy imports and first-call caches, on tiny inputs.
    workloads.new_session(make(args.seed, workloads.TINY), args.seed).run()

    produced: list[tuple[str, Any]] = []
    summaries: list[dict] = []
    rss: list[float] = []
    tracer = layers.Tracer() if args.trace else None

    def op(traced: bool) -> float:
        session = workloads.new_session(partitions, args.seed)
        try:
            if traced:
                tracer.reset()
                with tracer.span(layers.OP):
                    seconds, result = workloads.timed(session.run)
                summaries.append(tracer.summary())
            else:
                seconds, result = workloads.timed(session.run)
                rss.append(workloads.peak_rss_mb())
            produced.append((workloads.matrix_digest(session.final_matrix()),
                             result.to_payload()))
            out.counts = {
                "wire_bytes": session.total_bytes(),
                "frames": sum(session.network.messages_sent_by(p)
                              for p in session.network.parties),
            }
        except Exception as exc:  # an op that raises is a failed op
            print(f"operation failed: {exc!r}", file=sys.stderr)
            produced.append(("error", None))
            seconds = 0.0
        return seconds

    out.stamps["untraced_start"] = now_utc()
    budget = args.seconds / 2 if args.trace else args.seconds
    out.op_times = closed_loop(budget, lambda: op(False), out.calibrations)
    out.stamps["untraced_end"] = now_utc()
    # The high-water mark after one session: later sessions in this
    # process add whatever the previous ones left behind.
    out.peak_rss_mb = rss[0] if rss else workloads.peak_rss_mb()
    if len(rss) > 1:
        out.extra["rss_growth_mb_per_op"] = ((rss[-1] - rss[0]) / (len(rss) - 1), "MB", len(rss))
    if args.trace:
        tracer.install()
        out.stamps["traced_start"] = now_utc()
        try:
            out.traced_times = closed_loop(budget, lambda: op(True), out.traced_calibrations)
        finally:
            tracer.uninstall()
        out.stamps["traced_end"] = now_utc()
        out.profile = merge_profiles(summaries)
        out.untraced_s = out.profile.pop(layers.OP)["self_s"]
        tracer.write_spans(os.path.join(args.workdir, "spans.jsonl.gz"))

    reference = workloads.reference_matrix(partitions)
    expected = workloads.matrix_digest(reference)
    clusters = workloads.reference_clusters(partitions, reference)
    for digest, payload in produced:
        out.record(workloads.check_session(digest, payload, expected, clusters))
    out.summarize()
    out.extra["session_s"] = (out.op_s, "s", len(out.op_times))
    out.extra["session_raw_s"] = (median(out.op_times), "s", len(out.op_times))
    out.extra["wire_bytes"] = (out.counts.get("wire_bytes", 0), "B", 1)
    out.extra["peak_rss_mb"] = (out.peak_rss_mb, "MB", 1)


def run_socket(args: argparse.Namespace, out: Outcome) -> None:
    import workloads
    from repro.apps.cluster import ClusterSupervisor, unix_addresses
    from repro.parties.runner import encode_spec

    sizes = workloads.TINY if args.tiny else workloads.FULL
    partitions = workloads.socket_partitions(args.seed, sizes)
    if not args.trace:
        sample_setup(["setup-socket", "--seed", str(args.seed)], sizes.setup_samples, out)
    rows = {site: [list(row) for row in matrix.rows] for site, matrix in partitions.items()}
    schema = next(iter(partitions.values())).schema
    parties = sorted(partitions) + ["TP"]
    # Socket paths are relative to the checkout root (the children's
    # working directory too), which keeps them under the AF_UNIX limit.
    relative = os.path.relpath(args.workdir, ROOT)
    counter = iter(range(1 << 30))
    produced: list[dict | None] = []
    dumps: list[list[dict]] = []
    op_spans: list[tuple[float, float]] = []

    def op(traced: bool) -> float:
        run_dir = os.path.join(relative, f"op{next(counter)}")
        os.makedirs(run_dir)
        spec_path = os.path.join(run_dir, "session.spec")
        with open(spec_path, "wb") as handle:
            handle.write(encode_spec(workloads.session_config(args.seed), schema, rows,
                                     unix_addresses(parties, run_dir)))
        if traced:
            os.environ["PERFBENCH_TRACE_OUT"] = run_dir
        started = time.perf_counter()
        try:
            reports = ClusterSupervisor(spec_path, run_dir, timeout=CHILD_TIMEOUT).run()
        except Exception as exc:  # an op that raises is a failed op
            print(f"operation failed: {exc!r}", file=sys.stderr)
            reports = None
        seconds = time.perf_counter() - started
        produced.append(reports)
        if traced:
            op_spans.append((started, started + seconds))
            dumps.append([read_json(os.path.join(run_dir, name))
                          for name in sorted(os.listdir(run_dir)) if name.endswith(".json")])
        shutil.rmtree(run_dir, ignore_errors=True)
        return seconds

    os.chdir(ROOT)
    budget = args.seconds / 2 if args.trace else args.seconds
    out.stamps["untraced_start"] = now_utc()
    out.op_times = closed_loop(budget, lambda: op(False), out.calibrations)
    out.stamps["untraced_end"] = now_utc()
    # Children spawned with vfork inherit this process's high-water mark,
    # so it is read before the reference session below grows it.
    out.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if args.trace:
        saved = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = os.pathsep.join(
            [os.path.join(BENCH_DIR, "traced_env")] + ([saved] if saved else []))
        out.stamps["traced_start"] = now_utc()
        try:
            out.traced_times = closed_loop(budget, lambda: op(True), out.traced_calibrations)
        finally:
            os.environ.pop("PERFBENCH_TRACE_OUT", None)
            if saved is None:
                os.environ.pop("PYTHONPATH")
            else:
                os.environ["PYTHONPATH"] = saved
        out.stamps["traced_end"] = now_utc()
        _socket_profile(out, dumps, op_spans)

    payload, lanes, wire_bytes = workloads.tapped_reference(partitions, args.seed)
    out.counts = {"wire_bytes": wire_bytes, "frames": sum(len(v) for v in lanes.values())}
    for reports in produced:
        out.record(reports is not None and workloads.check_socket(reports, payload, lanes))
    out.summarize()
    out.extra["session_s"] = (out.op_s, "s", len(out.op_times))
    out.extra["session_raw_s"] = (median(out.op_times), "s", len(out.op_times))
    out.extra["wire_bytes"] = (wire_bytes, "B", 1)
    out.extra["peak_rss_mb"] = (out.peak_rss_mb, "MB", 1)


def _socket_profile(out: Outcome, dumps: list[list[dict]], op_spans: list) -> None:
    """Per-op layer profile from the party processes' span summaries."""
    summaries, uncovered, walls, imports = [], [], {}, []
    for parties, (op_start, op_end) in zip(dumps, op_spans):
        summaries.append(add_profiles([p["summary"] for p in parties]))
        intervals = sorted(
            (max(start, op_start), min(end, op_end))
            for p in parties for start, end in [p["import"], *p["runs"]]
        )
        covered, reach = 0.0, op_start
        for start, end in intervals:
            if end > reach:
                covered += end - max(start, reach)
                reach = end
        uncovered.append(op_end - op_start - covered)
        for p in parties:
            imports.append(p["import"][1] - p["import"][0])
            for start, end in p["runs"]:
                walls.setdefault(p["party"], []).append(end - start)
    if not summaries:
        return
    out.profile = merge_profiles(summaries)
    out.untraced_s = median(uncovered)
    for party, values in walls.items():
        out.profile[f"parties.runner.PartyRunner.run.{party}"] = {"wall_s": median(values)}
    if imports:
        out.profile["apps.cluster"] = {"import_s": median(imports)}


def run_cluster(args: argparse.Namespace, out: Outcome) -> None:
    import layers
    import workloads

    store_dir = os.path.join(args.workdir, "store")
    os.makedirs(store_dir)
    slots = [(s, b) for s in workloads.SCENARIOS for b in workloads.BACKENDS]
    reports: dict[tuple[str, str], dict] = {}
    out.stamps["start"] = now_utc()
    for scenario, backend in slots:
        argv = ["cluster", "--scenario", scenario, "--backend", backend,
                "--store-dir", store_dir, "--seed", str(args.seed),
                "--seconds", str(args.seconds / len(slots)), "--trace", str(args.trace),
                *(["--tiny"] if args.tiny else [])]
        if args.trace:
            argv += ["--spans-out", os.path.join(args.workdir, f"spans-{scenario}-{backend}.jsonl.gz")]
        try:
            reports[(scenario, backend)] = run_child(argv)
        except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"operation failed: {scenario}/{backend}: {exc}", file=sys.stderr)
            out.record(False)
    out.stamps["end"] = now_utc()
    if len(reports) != len(slots):
        return

    score_cluster(reports, out)
    out.detail = {
        f"{scenario}/{backend}": {k: v for k, v in report.items() if k != "summaries"}
        for (scenario, backend), report in reports.items()
    }
    out.op_times = [sum(median(r["times"]) for r in reports.values())]
    out.op_s = sum(nominal(r["times"], r["calibrations"]) for r in reports.values())
    out.setup = [r["setup_s"] for r in reports.values()]
    # Each scenario process calibrates right after its set-up.
    out.setup_s = median([r["setup_s"] * CAL_REF_S / r["calibrations"][0]
                          for r in reports.values()])
    out.peak_rss_mb = max(r["peak_rss_mb"] for r in reports.values())
    if args.trace:
        out.traced_times = [sum(median(r["traced_times"]) for r in reports.values())]
        out.traced_op_s = sum(nominal(r["traced_times"], r["traced_calibrations"])
                              for r in reports.values())
        out.profile = add_profiles([merge_profiles(r["summaries"]) for r in reports.values()])
        out.untraced_s = out.profile.pop(layers.OP)["self_s"]


def score_cluster(reports: dict[tuple[str, str], dict], out: Outcome) -> None:
    """Check every clustering call: sane, and its digest equal to the
    first call of the same scenario on the in-memory backend."""
    import workloads

    for scenario in workloads.SCENARIOS:
        expected = reports[(scenario, "memory")]["digests"][0]
        for backend in workloads.BACKENDS:
            report = reports[(scenario, backend)]
            for digest, sane in zip(report["digests"], report["sane"]):
                out.record(sane and digest == expected)
            out.extra[f"{scenario}_{backend}_s"] = (
                nominal(report["times"], report["calibrations"]), "s", len(report["times"]))
            if scenario != "agglo_tied":
                out.extra[f"{scenario}_{backend}_rss_mb"] = (report["peak_rss_mb"], "MB", 1)


# -- output ----------------------------------------------------------------


def per_layer_metrics(out: Outcome) -> dict[str, float]:
    import layers

    values: dict[str, float] = {}
    for name, entry in out.profile.items():
        for field, value in entry.items():
            values[f"{name}.{field}"] = value
    for layer, seconds in layers.layer_totals(out.profile).items():
        values[f"layer.{layer}.self_s"] = seconds
    op = median(out.traced_times)
    values["trace.untraced_s"] = out.untraced_s
    values["trace.coverage"] = 1.0 - out.untraced_s / op if op else 0.0
    values["trace.overhead"] = out.traced_op_s / out.op_s - 1.0
    values["network.wire_bytes"] = out.counts.get("wire_bytes", 0)
    values["network.frames"] = out.counts.get("frames", 0)
    return values


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="smoke-test input sizes (not for measurement)")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import repro

    if os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__))) != SRC:
        print(f"error: imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return 2

    args.workdir = os.path.join(
        WORK, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    os.makedirs(args.workdir)
    out = Outcome()
    started = time.perf_counter()
    try:
        if args.workload.startswith("session-"):
            run_session(args, out, args.workload.split("-")[1])
        elif args.workload.startswith("socket-"):
            run_socket(args, out)
        else:
            run_cluster(args, out)
    finally:
        keep = [n for n in os.listdir(args.workdir) if n.endswith(".jsonl.gz")]
        results_dir = os.path.join(WORK, "results")
        os.makedirs(results_dir, exist_ok=True)
        for name in keep:
            os.replace(os.path.join(args.workdir, name), os.path.join(
                results_dir, f"{os.path.basename(args.workdir)}-{name}"))
        shutil.rmtree(args.workdir, ignore_errors=True)

    correct = out.attempted > 0 and out.failed == 0
    if args.trace:
        all_values = per_layer_metrics(out)
        metrics = {name: {"value": all_values.get(name, 0), "unit": unit_of(name)}
                   for name in PER_LAYER}
    else:
        all_values = {}
        values = {"op_s": out.op_s, "setup_s": out.setup_s,
                  "peak_rss_mb": out.peak_rss_mb}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    out.extra["error_rate"] = (out.failed / max(out.attempted, 1), "ratio", out.attempted)
    if out.setup:
        out.extra["setup_s"] = (out.setup_s, "s", len(out.setup))
        out.extra["setup_raw_s"] = (median(out.setup), "s", len(out.setup))
    out.extra.setdefault("peak_rss_mb", (out.peak_rss_mb, "MB", 1))
    if out.calibrations:
        out.extra["cpu_speed"] = (CAL_REF_S / median(out.calibrations), "ratio",
                                  len(out.calibrations))

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"ops={len(out.op_times)}+{len(out.traced_times)} traced "
          f"wall={time.perf_counter() - started:.1f}s")
    for name in WORKLOAD_METRICS:
        if name in out.extra:
            value, unit, samples = out.extra[name]
            print(f"{name:32s} {value:14.6g} {unit:6s} (n={samples})")
        else:
            print(f"{name:32s} {'n/a':>14s}")
    for name, (value, unit, samples) in sorted(out.extra.items()):
        if name not in WORKLOAD_METRICS:
            print(f"{name:32s} {value:14.6g} {unit:6s} (n={samples})")
    for name, entry in metrics.items():
        print(f"{name:32s} {entry['value']:14.6g} {entry['unit']}")
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "fingerprint": fingerprint(), "stamps": out.stamps,
        "op_times": out.op_times, "calibrations": out.calibrations,
        "traced_op_times": out.traced_times, "traced_calibrations": out.traced_calibrations,
        "setup_samples": out.setup, "setup_calibrations": out.setup_calibrations,
        "counts": out.counts,
        "extra": {k: {"value": v, "unit": u, "samples": n} for k, (v, u, n) in out.extra.items()},
        "profile": out.profile, "per_layer_all": all_values, "metrics": metrics,
        "attempted": out.attempted, "failed": out.failed, "detail": out.detail,
    }
    with open(os.path.join(WORK, "results", f"{os.path.basename(args.workdir)}.json"),
              "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, default=str)
    print(json.dumps({"correct": correct, "attempted": max(out.attempted, 1),
                      "failed": out.failed if out.attempted else 1, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
