"""Packet hot-path microbenchmarks and the perf-regression gate.

Measures engine event dispatch, the layer every simulated packet pays
for, plus one end-to-end ``run_test`` on the parallel-scaling workload,
and writes a canonical ``BENCH_hotpath.json``.

Run as a script (no pytest needed):

    python benchmarks/bench_hotpath.py                  # measure + write results/
    python benchmarks/bench_hotpath.py --check          # gate vs committed baseline
    python benchmarks/bench_hotpath.py --update-baseline  # refresh the committed file

``--check`` compares every section's throughput metric against the
committed ``benchmarks/BENCH_hotpath.json`` and exits 1 on a >25%
regression — the CI ``perf`` job runs exactly this. The committed file
also records the pre-refactor (PR 6) numbers measured with the
interpreted ``struct.pack``/dict-``Packet`` hot path, so the speedup
trajectory stays auditable.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RESULTS_DIR = BENCH_DIR / "results"
BASELINE_PATH = BENCH_DIR / "BENCH_hotpath.json"

sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from repro import quick_config  # noqa: E402
from repro.api import run_test  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402

#: Allowed slowdown vs the committed baseline before --check fails.
TOLERANCE = 0.25


# ----------------------------------------------------------------------
# Section 1: engine dispatch (serialization-delay + same-tick pattern)
# ----------------------------------------------------------------------
def _engine_workload(n_events: int) -> float:
    """Events/sec for a link-like schedule mix.

    64 hop chains reschedule themselves at small distinct delays (the
    per-link serialization pattern), and every fourth hop fans out two
    zero-delay events (pipeline hand-offs on the same tick).
    """
    sim = Simulator()
    budget = [n_events]

    def noop() -> None:
        pass

    def hop(delay: int) -> None:
        if budget[0] <= 0:
            return
        budget[0] -= 1
        sim.schedule(delay, hop, 40 + (delay * 7 + 13) % 211)
        if budget[0] % 4 == 0:
            sim.schedule(0, noop)
            sim.schedule(0, noop)
    for lane in range(64):
        sim.schedule(lane, hop, 40 + lane % 13)
    start = time.perf_counter()
    sim.run()
    elapsed = time.perf_counter() - start
    return sim.events_processed / elapsed


def bench_engine(n_events: int = 200_000, repeats: int = 3) -> dict:
    best = max(_engine_workload(n_events) for _ in range(repeats))
    return {"events_per_sec": round(best, 1), "n_events": n_events}


# ----------------------------------------------------------------------
# Section 2: end to end — one e810 WRITE run, 2 QPs x 10 x 100 KiB
# ----------------------------------------------------------------------
def bench_e2e(repeats: int = 3) -> dict:
    config = quick_config(nic="e810", verb="write", num_msgs=10,
                          message_size=102400, num_connections=2)
    best = float("inf")
    packets = 0
    for _ in range(repeats):
        start = time.perf_counter()
        result = run_test(config)
        best = min(best, time.perf_counter() - start)
        packets = len(result.trace)
    return {"packets_per_sec": round(packets / best, 1),
            "seconds": round(best, 4), "trace_packets": packets,
            "workload": {"nic": "e810", "verb": "write", "num_msgs": 10,
                         "message_size": 102400, "num_connections": 2}}


#: section name -> (metric key, pretty unit)
SECTIONS = {
    "engine": (bench_engine, "events_per_sec", "ev/s"),
    "e2e": (bench_e2e, "packets_per_sec", "pkt/s"),
}


def measure() -> dict:
    sections = {}
    for name, (fn, _metric, _unit) in SECTIONS.items():
        sections[name] = fn()
    return {"schema": 1, "sections": sections}


def render(payload: dict, baseline: dict = None) -> str:
    lines = [f"{'section':<12s} {'throughput':>14s}  unit"
             + ("        vs baseline" if baseline else "")]
    for name, (_fn, metric, unit) in SECTIONS.items():
        value = payload["sections"][name][metric]
        row = f"{name:<12s} {value:>14,.1f}  {unit}"
        if baseline:
            ref = baseline["sections"][name][metric]
            row += f"  {value / ref:>8.2f}x of {ref:,.1f}"
        lines.append(row)
    return "\n".join(lines)


def check(fresh: dict, baseline: dict) -> list:
    """Metric regressions beyond TOLERANCE, as human-readable strings."""
    failures = []
    for name, (_fn, metric, unit) in SECTIONS.items():
        ref = baseline["sections"].get(name, {}).get(metric)
        if ref is None:
            continue
        value = fresh["sections"][name][metric]
        floor = ref * (1.0 - TOLERANCE)
        if value < floor:
            failures.append(
                f"{name}: {value:,.1f} {unit} is below the regression "
                f"floor {floor:,.1f} (baseline {ref:,.1f}, -{TOLERANCE:.0%})")
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="fail on >25%% regression vs the committed "
                             "baseline")
    parser.add_argument("--update-baseline", action="store_true",
                        help="rewrite benchmarks/BENCH_hotpath.json")
    args = parser.parse_args(argv)

    baseline = None
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())

    fresh = measure()
    if baseline is not None and "pre_refactor" in baseline:
        fresh["pre_refactor"] = baseline["pre_refactor"]
        fresh["speedup_vs_pre_refactor"] = {
            name: round(fresh["sections"][name][metric]
                        / baseline["pre_refactor"][name][metric], 2)
            for name, (_fn, metric, _unit) in SECTIONS.items()
            if name in baseline["pre_refactor"]
        }

    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / "BENCH_hotpath.json"
    out.write_text(json.dumps(fresh, indent=2) + "\n")
    print(render(fresh, baseline))
    if "speedup_vs_pre_refactor" in fresh:
        pretty = ", ".join(f"{k} {v:.2f}x"
                           for k, v in fresh["speedup_vs_pre_refactor"].items())
        print(f"speedup vs pre-refactor hot path: {pretty}")
    print(f"wrote {out}")

    if args.update_baseline:
        BASELINE_PATH.write_text(json.dumps(fresh, indent=2) + "\n")
        print(f"updated {BASELINE_PATH}")
        return 0
    if args.check:
        if baseline is None:
            print("no committed baseline to check against", file=sys.stderr)
            return 1
        failures = check(fresh, baseline)
        for failure in failures:
            print(f"PERF REGRESSION — {failure}", file=sys.stderr)
        if failures:
            return 1
        print(f"perf gate OK (tolerance {TOLERANCE:.0%})")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
