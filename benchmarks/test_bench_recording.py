"""Benches record ``BENCH_*.json`` only when recording is switched on.

A test run leaves the committed bench records alone; only a run with
``REPRO_BENCH_RECORD=1`` (the CI bench steps) writes them.
"""

from __future__ import annotations

import json


def test_bench_files_written_only_when_recording(bench_store, monkeypatch, tmp_path):
    monkeypatch.setitem(bench_store.__globals__, "_REPO_ROOT", tmp_path)

    monkeypatch.delenv("REPRO_BENCH_RECORD", raising=False)
    assert bench_store("probe", {"value": 1}) is None
    monkeypatch.setenv("REPRO_BENCH_RECORD", "0")
    assert bench_store("probe", {"value": 1}) is None
    assert list(tmp_path.iterdir()) == []

    monkeypatch.setenv("REPRO_BENCH_RECORD", "1")
    path = bench_store("probe", {"value": 1})
    bench_store("probe", {"other": 2})
    assert path == tmp_path / "BENCH_probe.json"
    assert json.loads(path.read_text()) == {"other": 2, "value": 1}
