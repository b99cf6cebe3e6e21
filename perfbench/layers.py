"""Outside-in span tracing of the ``repro`` layers.

The tracer wraps public functions of each layer (``crypto``, ``network``,
``core``, ``parties``, ``distance``, ``clustering``, ``apps``) from the
benchmark's side only; no file of the package changes.  A wrapper is
installed wherever callers look the name up: a method on its class, a
module-level function on its defining module *and* on every loaded
``repro`` module that bound it by name (``channel.py`` imports
``serialize``/``deserialize``, ``third_party.py`` imports
``agglomerative``), so no call slips past.

Every call records a span: name, parent, start, end, self time (its
duration minus its child spans), self wait (self wall time minus self
thread CPU time) and bytes.  Stacks are per thread.  Aggregates per name
are what the benchmark reports; the raw spans stay in memory until the
caller writes them out.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import json
import sys
import threading
import time
from typing import Any, Callable

LAYERS = ("crypto", "network", "core", "parties", "distance", "clustering", "apps")

BytesFn = Callable[[tuple, Any], int]


def _arg_len(index: int) -> BytesFn:
    return lambda args, result: len(args[index])


def _arg_nbytes(index: int) -> BytesFn:
    return lambda args, result: int(args[index].nbytes)


def _ret_len(args: tuple, result: Any) -> int:
    return len(result)


def _ret_nbytes(args: tuple, result: Any) -> int:
    return int(result.nbytes)


def _ret_wire(args: tuple, result: Any) -> int:
    return int(result.wire_bytes)


_STORE_BYTES: dict[str, BytesFn | None] = {
    "read": _ret_nbytes,
    "write": _arg_nbytes(2),
    "gather": _ret_nbytes,
    "scatter": _arg_nbytes(2),
    "flush": None,
}

#: ``(module, qualname, bytes)`` for every wrapped name.  ``Class.*``
#: wraps every public function the class itself defines.  Orchestration
#: roots (``ClusteringSession.run``, the scheduler, the supervisor) are
#: deliberately absent: the benchmark's own operation span stands for
#: them, so its self time is the op time no layer accounts for.
TARGETS: list[tuple[str, str, BytesFn | None]] = [
    ("repro.crypto.sym", "SymmetricCipher.transmit_roundtrip", _arg_len(1)),
    ("repro.crypto.sym", "SymmetricCipher.seal", _arg_len(1)),
    ("repro.crypto.sym", "SymmetricCipher.open", _arg_len(1)),
    ("repro.crypto.keys", "DiffieHellman.shared_secret", None),
    ("repro.crypto.detenc", "DeterministicEncryptor.encrypt_column", None),
    ("repro.network.simulator", "Network.send", None),
    ("repro.network.simulator", "Network.receive", None),
    ("repro.network.channel", "Channel.transmit", _ret_wire),
    ("repro.network.serialization", "serialize", _ret_len),
    ("repro.network.serialization", "deserialize", _arg_len(0)),
    ("repro.network.tcp", "SocketTransport.connect_all", None),
    ("repro.network.tcp", "SocketTransport.send", None),
    ("repro.network.tcp", "SocketTransport.receive", None),
    ("repro.network.handshake", "LinkCipher.seal", _ret_len),
    ("repro.network.handshake", "LinkCipher.open", _arg_len(1)),
    ("repro.core.numeric", "initiator_mask_batch", None),
    ("repro.core.numeric", "responder_matrix_batch", None),
    ("repro.core.numeric", "third_party_unmask_batch", None),
    ("repro.core.alphanumeric", "initiator_mask_strings", None),
    ("repro.core.alphanumeric", "responder_ccm_matrices", None),
    ("repro.core.alphanumeric", "third_party_distances", None),
    ("repro.core.categorical", "holder_encrypt_column", None),
    ("repro.core.categorical", "third_party_categorical_matrix", None),
    ("repro.parties.holder", "DataHolder.*", None),
    ("repro.parties.third_party", "ThirdParty.*", None),
    ("repro.parties.runner", "PartyRunner.run", None),
    ("repro.distance.dissimilarity", "DissimilarityMatrix.from_pairwise", None),
    ("repro.distance.dissimilarity", "DissimilarityMatrix.to_square", _ret_nbytes),
    ("repro.distance.dissimilarity", "DissimilarityMatrix.normalized", None),
    ("repro.distance.merge", "merge_weighted", None),
    ("repro.distance.edit", "pairwise_edit_distances", None),
    ("repro.distance.edit", "edit_distances_from_ccms", None),
    *[
        ("repro.distance.store", f"{backend}.{op}", fn)
        for backend in ("InMemoryStore", "MemmapStore")
        for op, fn in _STORE_BYTES.items()
        if not (backend == "InMemoryStore" and op == "flush")
    ],
    ("repro.clustering.linkage", "agglomerative", None),
    ("repro.clustering.kmedoids", "k_medoids", None),
    ("repro.clustering.dendrogram", "Dendrogram.cut_at_k", None),
]

#: Name of the benchmark's own operation span (not a layer).
OP = "op"


def metric_name(module: str, qualname: str) -> str:
    """``repro.network.serialization`` + ``serialize`` ->
    ``network.serialization.serialize``."""
    return f"{module.removeprefix('repro.')}.{qualname}"


def layer_of(name: str) -> str | None:
    head = name.split(".", 1)[0]
    return head if head in LAYERS else None


class Tracer:
    """Span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        #: name -> [calls, bytes, self_s, wait_s]
        self.stats: dict[str, list[float]] = {}
        #: (name, parent, start, end, self_s, bytes), in completion order.
        self.spans: list[tuple[str, str | None, float, float, float, int]] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        frame = [name, parent, time.perf_counter(), time.thread_time(), 0.0, 0.0]
        stack.append(frame)
        return frame

    def _exit(self, frame: list, nbytes: int) -> None:
        end = time.perf_counter()
        cpu = time.thread_time() - frame[3]
        stack = self._stack()
        stack.pop()
        duration = end - frame[2]
        self_s = duration - frame[4]
        wait_s = max(0.0, self_s - (cpu - frame[5]))
        if stack:
            stack[-1][4] += duration
            stack[-1][5] += cpu
        with self._lock:
            entry = self.stats.setdefault(frame[0], [0, 0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += nbytes
            entry[2] += self_s
            entry[3] += wait_s
            self.spans.append((frame[0], frame[1], frame[2], end, self_s, nbytes))

    def span(self, name: str) -> "_Span":
        """Context manager recording one span (the benchmark's op roots)."""
        return _Span(self, name)

    def reset(self) -> None:
        with self._lock:
            self.stats = {}
            self.spans = []

    def _wrap(self, name: str, fn: Callable, nbytes: BytesFn | None) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            frame = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(frame, 0)
                raise
            tracer._exit(frame, nbytes(args, result) if nbytes else 0)
            return result

        return traced

    # -- patching ----------------------------------------------------------

    def install(self, targets: list[tuple[str, str, BytesFn | None]] = TARGETS) -> None:
        """Wrap every target; :meth:`uninstall` restores the originals."""
        for module_name, qualname, nbytes in targets:
            module = importlib.import_module(module_name)
            if "." not in qualname:
                self._patch_function(module_name, qualname, module, nbytes)
                continue
            class_name, attr = qualname.split(".")
            cls = getattr(module, class_name)
            names = (
                [
                    key
                    for key, value in vars(cls).items()
                    if not key.startswith("_") and inspect.isfunction(value)
                ]
                if attr == "*"
                else [attr]
            )
            for key in names:
                name = metric_name(module_name, f"{class_name}.{key}")
                raw = vars(cls)[key]
                if isinstance(raw, classmethod):
                    patched: object = classmethod(self._wrap(name, raw.__func__, nbytes))
                elif isinstance(raw, staticmethod):
                    patched = staticmethod(self._wrap(name, raw.__func__, nbytes))
                else:
                    patched = self._wrap(name, raw, nbytes)
                setattr(cls, key, patched)
                self._patches.append((cls, key, raw))

    def _patch_function(
        self, module_name: str, attr: str, module: object, nbytes: BytesFn | None
    ) -> None:
        original = getattr(module, attr)
        traced = self._wrap(metric_name(module_name, attr), original, nbytes)
        for loaded in list(sys.modules.values()):
            loaded_name = getattr(loaded, "__name__", "")
            if not (loaded_name == "repro" or loaded_name.startswith("repro.")
                    or loaded_name == "__main__"):
                continue
            for key, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, key, traced)
                    self._patches.append((loaded, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches = []

    # -- output ------------------------------------------------------------

    def summary(self) -> dict[str, dict[str, float]]:
        """Per-name ``{calls, bytes, self_s, wait_s}`` since the last reset."""
        with self._lock:
            return {
                name: {"calls": int(c), "bytes": int(b), "self_s": s, "wait_s": w}
                for name, (c, b, s, w) in self.stats.items()
            }

    def write_spans(self, path: str) -> None:
        """Write the recorded spans as gzipped JSON lines."""
        with self._lock, gzip.open(path, "wt", encoding="utf-8") as handle:
            for name, parent, start, end, self_s, nbytes in self.spans:
                handle.write(
                    json.dumps(
                        {"name": name, "parent": parent, "start": start,
                         "end": end, "self_s": self_s, "bytes": nbytes}
                    )
                    + "\n"
                )


class _Span:
    def __init__(self, tracer: Tracer, name: str) -> None:
        self._tracer = tracer
        self._name = name
        self._frame: list | None = None

    def __enter__(self) -> "_Span":
        self._frame = self._tracer._enter(self._name)
        return self

    def __exit__(self, *exc: object) -> None:
        assert self._frame is not None
        self._tracer._exit(self._frame, 0)


def layer_totals(summary: dict[str, dict[str, float]]) -> dict[str, float]:
    """Self seconds per layer; the op span's self time is ``untraced``."""
    totals = {layer: 0.0 for layer in LAYERS}
    for name, entry in summary.items():
        layer = layer_of(name)
        if layer is not None:
            totals[layer] += entry.get("self_s", 0.0)
    return totals
