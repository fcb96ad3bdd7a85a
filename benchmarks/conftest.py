"""Shared infrastructure for the benchmark harness.

Every bench file regenerates one table or figure from the paper's
evaluation. Besides the pytest-benchmark timing, each bench writes its
paper-vs-measured series to ``benchmarks/results/<name>.txt`` (and
prints it) so the reproduction numbers survive output capturing.

Set ``REPRO_BENCH_TELEMETRY=1`` to run the whole bench session under an
observation session: each :func:`emit` then also snapshots the metrics
registry next to the result table, and everything the session saw is
exported to ``benchmarks/results/telemetry/`` at session end.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

RESULTS_DIR = Path(__file__).parent / "results"

_TELEMETRY_ON = os.environ.get("REPRO_BENCH_TELEMETRY") == "1"


def emit(name: str, lines) -> str:
    """Print and persist one bench's result table."""
    text = "\n".join(lines)
    banner = f"\n===== {name} =====\n{text}\n"
    print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    from repro import observe

    session = observe.active()
    if session is not None:
        from repro.telemetry.export import to_prometheus

        (RESULTS_DIR / f"{name}.metrics.prom").write_text(
            to_prometheus(session.registry))
    return text


@pytest.fixture(scope="session", autouse=_TELEMETRY_ON)
def bench_telemetry():
    """Session-wide observation, gated on REPRO_BENCH_TELEMETRY=1."""
    from repro import observe

    with observe.session(str(RESULTS_DIR / "telemetry")) as session:
        yield session


@pytest.fixture(scope="session")
def results_dir() -> Path:
    RESULTS_DIR.mkdir(exist_ok=True)
    return RESULTS_DIR
