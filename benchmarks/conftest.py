"""Shared fixtures and reporting helpers for the benchmark suite.

Every module here regenerates one experiment row from DESIGN.md
(paper artifact -> measured reproduction).  Benchmarks both *time* the
operation under ``pytest-benchmark`` and *assert* the paper's claim, so
``pytest benchmarks/ --benchmark-only`` doubles as the reproduction
gate.  Human-readable tables print with ``-s``; EXPERIMENTS.md records
the reference numbers.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest

_REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``BENCH_*.json`` is written only when this environment variable is
#: ``1``: a recorded number must be measured on purpose, not left behind
#: by a test run on whatever machine it happened to run on.
RECORD_ENV = "REPRO_BENCH_RECORD"


def persist_bench(name: str, payload: dict) -> Path | None:
    """Merge measured numbers into ``BENCH_<name>.json`` at the repo root.

    Benchmarks persist their headline results so the perf trajectory is
    recorded per PR (CI records with ``REPRO_BENCH_RECORD=1`` and uploads
    every ``BENCH_*.json`` as an artifact).  Without that setting nothing
    is written and ``None`` is returned; the bench's gates still assert.
    Merging keeps one file per bench module with the latest value under
    each key.
    """
    if os.environ.get(RECORD_ENV) != "1":
        return None
    path = _REPO_ROOT / f"BENCH_{name}.json"
    existing: dict = {}
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (OSError, ValueError):
            existing = {}
    existing.update(payload)
    path.write_text(json.dumps(existing, indent=2, sort_keys=True) + "\n")
    return path


def report(title: str, rows: list[tuple], headers: tuple) -> None:
    """Print an aligned table (visible with ``pytest -s``)."""
    widths = [
        max(len(str(headers[i])), max((len(str(r[i])) for r in rows), default=0))
        for i in range(len(headers))
    ]
    line = "  ".join(str(h).ljust(w) for h, w in zip(headers, widths))
    print(f"\n== {title} ==")
    print(line)
    print("-" * len(line))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


@pytest.fixture
def table():
    return report


@pytest.fixture
def bench_store():
    """The :func:`persist_bench` writer, as a fixture (no package import
    needed from benchmark modules)."""
    return persist_bench
