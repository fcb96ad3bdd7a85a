"""End-to-end benchmark: seven user workloads, their end-to-end metrics,
and a traced per-layer split.

Usage (from the repository root; the script puts ``src`` on the path)::

    python3 benchmarks/e2e/run.py                      # every workload once
    python3 benchmarks/e2e/run.py --workload bulk-rdma --seed 3
    python3 benchmarks/e2e/run.py --workload bulk-rdma --trace 1
    python3 benchmarks/e2e/run.py --runs 10 --sets 2   # the committed baseline
    python3 benchmarks/e2e/run.py --check              # gate vs BENCH_e2e.json

Each workload runs in its own fresh child process, one at a time. With
``--trace 0`` a run reports the end-to-end metrics; ``setup_s`` is the
median of five fresh-interpreter set-ups (imports plus workload
preparation such as daemon start). With ``--trace 1`` the child reruns
every op under timing wrappers and reports the per-layer metrics
instead. The last line of standard output is always one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

Artifacts (results of multi-run invocations, Chrome traces of traced
runs, scratch state) go to ``benchmarks/e2e/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
BASELINE = HERE / "BENCH_e2e.json"
BENCHMARK = ROOT / "BENCHMARK.json"

#: Seconds one run measures, unless --seconds says otherwise.
RUN_SECONDS = 10
#: Fresh-interpreter set-ups per run; setup_s is their median.
SETUP_PROBES = 5
#: A child that takes longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170

WORKLOAD_NAMES = ("bulk-rdma", "conformance-matrix", "fuzz-guided",
                  "sweep-w1", "sweep-w2", "service-cold", "service-replay")

#: name -> (unit, better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "op_s_p50": ("s", "lower"),
    "work_per_s": ("1/s", "higher"),
}

#: The name the issue's users know each (workload, metric) pair by.
ALIASES = {
    "bulk-rdma": {"op_s_p50": "run_s_p50", "work_per_s": "sim_pkts_per_s"},
    "conformance-matrix": {"op_s_p50": "suite_s_p50"},
    "fuzz-guided": {"work_per_s": "fuzz_cands_per_s"},
    "sweep-w1": {"work_per_s": "sweep_runs_per_s_w1"},
    "sweep-w2": {"work_per_s": "sweep_runs_per_s_w2"},
    "service-cold": {"op_s_p50": "cold_s_p50"},
    "service-replay": {"op_s_p50": "replay_s_p50"},
}


class BenchError(RuntimeError):
    """A child process failed; the run has no result."""


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def spread(values: List[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


# ---------------------------------------------------------------------------
# Children
# ---------------------------------------------------------------------------

def _spawn(mode: str, name: str, seed: int, seconds: int = 0,
           trace: int = 0) -> str:
    """Run one child to completion; returns its stdout."""
    state = OUT / f"state-{name}-{os.getpid()}"
    cmd = [sys.executable, str(HERE / "run.py"), "--child", mode,
           "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--state", str(state)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        stdout = None
    finally:
        # The child waits for its own pools and job processes; this only
        # catches strays (and the child itself after a timeout).
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
        shutil.rmtree(state, ignore_errors=True)
    if stdout is None:
        raise BenchError(f"{name} {mode} child timed out after "
                         f"{CHILD_TIMEOUT_S}s")
    if proc.returncode != 0:
        raise BenchError(f"{name} {mode} child exited with code "
                         f"{proc.returncode}")
    return stdout


def setup_seconds(name: str, seed: int) -> float:
    """Wall time of one fresh interpreter that imports and prepares ``name``."""
    start = time.perf_counter()
    _spawn("setup", name, seed)
    return time.perf_counter() - start


def measure(name: str, seed: int, seconds: int, trace: int) -> Dict:
    lines = _spawn("measure", name, seed, seconds, trace).strip().splitlines()
    if not lines:
        raise BenchError(f"{name} measure child printed nothing")
    return json.loads(lines[-1])


def run_workload(name: str, seed: int, seconds: int, trace: int) -> Dict:
    """One run: set-up probes (untraced runs only), then the measuring child."""
    setups = [] if trace else [setup_seconds(name, seed)
                               for _ in range(SETUP_PROBES)]
    raw = measure(name, seed, seconds, trace)
    run = {"workload": name, "seed": seed, "trace": trace,
           "attempted": raw["attempted"], "failed": raw["failed"],
           "errors": raw["errors"]}
    if trace:
        run["metrics"] = raw["layers"]
        run["samples"] = {metric: raw["ops"] for metric in raw["layers"]}
        run["table"] = raw["table"]
        run["trace_file"] = raw["trace_file"]
        return run
    samples = raw["samples"]
    run["metrics"] = {
        "setup_s": statistics.median(setups),
        "peak_rss_mb": raw["peak_rss_mb"],
        "op_s_p50": statistics.median(samples),
        "work_per_s": raw["work"] / raw["busy_s"],
    }
    run["samples"] = {"setup_s": len(setups), "peak_rss_mb": 1,
                      "op_s_p50": len(samples), "work_per_s": raw["work"]}
    return run


# ---------------------------------------------------------------------------
# The measuring child
# ---------------------------------------------------------------------------

def _rounds(workload, seconds: float):
    """Whole rounds of ops: as many as brings the run closest to ``seconds``."""
    start = time.perf_counter()
    index = 0
    while True:
        yield workload.round(index)
        index += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / index / 2 >= seconds:
            return


def _run_op(workload, op, tracer=None, op_id: int = 0):
    """(seconds, Checked) for one op; a raised error is a failed op."""
    from e2e_workloads import Checked

    if tracer is not None:
        tracer.begin_op(op_id)
    start = time.perf_counter()
    error = None
    try:
        out = workload.call(op)
    except Exception as exc:  # noqa: BLE001 — a failed op must not end the run
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    if tracer is not None:
        elapsed = tracer.end_op()
    if error is None:
        try:
            return elapsed, workload.check(op, out, traced=tracer is not None)
        except Exception as exc:  # noqa: BLE001 — wrong output, counted
            error = f"check: {type(exc).__name__}: {exc}"
    units = workload.units(op)
    return elapsed, Checked(attempted=units, failed=units, errors=[error])


class _Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []

    def add(self, checked) -> None:
        self.attempted += checked.attempted
        self.failed += checked.failed
        self.errors.extend(checked.errors[:max(0, 10 - len(self.errors))])


def _warm_up(workload, tally: _Tally) -> None:
    from e2e_workloads import Checked

    try:
        for checked in workload.warm_up():
            tally.add(checked)
    except Exception as exc:  # noqa: BLE001 — counted, the run goes on
        tally.add(Checked(errors=[f"warm-up: {type(exc).__name__}: {exc}"],
                          failed=1))


def _measure_plain(workload, seconds: int) -> Dict:
    tally = _Tally()
    _warm_up(workload, tally)
    samples: List[float] = []
    work = 0.0
    for ops in _rounds(workload, seconds):
        for op in ops:
            elapsed, checked = _run_op(workload, op)
            samples.append(elapsed)
            work += checked.work
            tally.add(checked)
    return {"attempted": tally.attempted, "failed": tally.failed,
            "errors": tally.errors, "samples": samples, "work": work,
            "busy_s": sum(samples)}


def _measure_traced(workload, seconds: int, seed: int) -> Dict:
    """Every op untraced then traced; the digests must agree."""
    from e2e_layers import Tracer, layer_metrics

    tracer = Tracer()
    tally = _Tally()
    _warm_up(workload, tally)
    untraced = traced = 0.0
    for ops in _rounds(workload, seconds):
        if workload.repeatable:
            pairs = [(op, op) for op in ops]
        else:
            pairs = list(zip(ops[0::2], ops[1::2]))
        for plain, op in pairs:
            elapsed, reference = _run_op(workload, plain)
            untraced += elapsed
            tally.add(reference)
            tracer.install()
            try:
                elapsed, checked = _run_op(workload, op, tracer, tracer.ops)
            finally:
                tracer.uninstall()
            traced += elapsed
            tracer.note(checked.counts)
            if (workload.repeatable and not checked.failed
                    and checked.digest != reference.digest):
                checked.fail(f"op {tracer.ops}: traced output differs from "
                             f"untraced")
            tally.add(checked)
    trace_file = OUT / f"trace-{workload.name}-s{seed}.json"
    tracer.write_chrome_trace(str(trace_file))
    return {"attempted": tally.attempted, "failed": tally.failed,
            "errors": tally.errors, "ops": tracer.ops,
            "layers": layer_metrics(tracer, traced / untraced),
            "table": tracer.table(), "trace_file": str(trace_file)}


def _peak_rss_mb() -> float:
    """Peak resident set of this process or its largest reaped child."""
    import resource

    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak_kib / 1024


def _stop_resource_tracker() -> None:
    """Stop and reap multiprocessing's tracker so no process outlives us."""
    from multiprocessing import resource_tracker

    stop = getattr(getattr(resource_tracker, "_resource_tracker", None),
                   "_stop", None)
    if stop is not None:
        stop()


def child_main(args) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from e2e_workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.state)
    if args.child == "setup":
        os._exit(0)  # the set-up is what is timed; teardown is not
    try:
        if args.trace:
            result = _measure_traced(workload, args.seconds, args.seed)
        else:
            result = _measure_plain(workload, args.seconds)
    finally:
        workload.close()
    _stop_resource_tracker()
    result["peak_rss_mb"] = _peak_rss_mb()
    print(json.dumps(result))
    return 0


# ---------------------------------------------------------------------------
# Reporting and the regression gate
# ---------------------------------------------------------------------------

def _units() -> Dict[str, str]:
    from e2e_layers import PER_LAYER_METRICS

    units = {name: unit for name, (unit, _) in END_TO_END.items()}
    units.update({name: unit for name, (unit, _) in PER_LAYER_METRICS.items()})
    return units


def print_run(run: Dict) -> None:
    name = run["workload"]
    print(f"{name}  seed={run['seed']}  ops={run['attempted']}  "
          f"ops_failed={run['failed']}")
    for error in run["errors"]:
        print(f"  FAILED: {error}")
    if run["trace"]:
        print(f"  {'layer':<32s}{'calls/op':>12s}{'busy_s/op':>12s}"
              f"{'self_s/op':>12s}{'share':>8s}")
        for row, calls, busy, own, share in run["table"]:
            print(f"  {row:<32s}{calls:>12.1f}{busy:>12.4f}{own:>12.4f}"
                  f"{share:>8.1%}")
        print(f"  chrome trace: {run['trace_file']}")
    units = _units()
    aliases = ALIASES.get(name, {})
    for metric, value in run["metrics"].items():
        alias = aliases.get(metric, "")
        print(f"  {metric:<36s}{value:>16.6g} {units[metric]:<6s}"
              f"n={run['samples'][metric]:<8g}{alias}")


def result_line(runs: List[Dict]) -> Dict:
    """The JSON object the last stdout line carries."""
    units = _units()
    failed = sum(run["failed"] for run in runs)
    if len(runs) == 1:
        metrics = {metric: {"value": value, "unit": units[metric]}
                   for metric, value in runs[0]["metrics"].items()}
    else:
        metrics = {
            f"{workload}/{metric}": {"value": stats["median"],
                                     "unit": units[metric]}
            for workload, per_metric in summarize(runs).items()
            for metric, stats in per_metric.items()}
    return {"correct": failed == 0,
            "attempted": sum(run["attempted"] for run in runs),
            "failed": failed, "metrics": metrics}


def summarize(runs: List[Dict]) -> Dict:
    """workload -> metric -> median and quartile spread across runs."""
    values: Dict[str, Dict[str, List[float]]] = {}
    for run in runs:
        per_metric = values.setdefault(run["workload"], {})
        for metric, value in run["metrics"].items():
            per_metric.setdefault(metric, []).append(value)
    return {workload: {metric: {"median": statistics.median(v),
                                "spread": spread(v), "n": len(v)}
                       for metric, v in per_metric.items()}
            for workload, per_metric in values.items()}


def gate(current: Dict, baseline: Dict, bounds: Dict[str, float]) -> List[str]:
    """Compare medians; returns the failing lines (also prints every row).

    A metric whose spread between runs is wider than its bound cannot
    resolve a change of that size: it prints "unresolved", never pass/fail.
    """
    failures = []
    for workload, per_metric in current.items():
        for metric, stats in per_metric.items():
            base = baseline.get(workload, {}).get(metric)
            if base is None or metric not in bounds:
                continue
            bound = bounds[metric]
            better = END_TO_END[metric][1]
            change = (stats["median"] - base["median"]) / base["median"]
            worse = change if better == "lower" else -change
            noise = max(base["spread"],
                        stats["spread"] if stats["n"] >= 4 else 0.0)
            if noise > bound:
                verdict = "unresolved"
            elif worse > bound:
                verdict = "FAIL"
            else:
                verdict = "pass"
            line = (f"{workload:<20s}{metric:<14s}{stats['median']:>12.5g} vs "
                    f"{base['median']:<12.5g}{change:>+8.1%}  bound "
                    f"{bound:.0%}  spread {noise:.1%}  {verdict}")
            print(line)
            if verdict == "FAIL":
                failures.append(line)
    return failures


def write_results(path: Path, sets: List[List[Dict]], seconds: int) -> None:
    runs = [run for runs in sets for run in runs]
    doc = {
        "schema": 1,
        "host": {"cpus": os.cpu_count(), "machine": platform.machine(),
                 "python": platform.python_version()},
        "run_seconds": seconds,
        "sets": [{"summary": summarize(runs),
                  "runs": [{key: run[key] for key in
                            ("workload", "seed", "attempted", "failed",
                             "metrics")} for run in runs]}
                 for runs in sets],
        "summary": summarize(runs),
    }
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end benchmark with a traced per-layer split.")
    parser.add_argument("--workload", choices=WORKLOAD_NAMES,
                        help="run one workload (default: all, in order)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=RUN_SECONDS,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics from a traced rerun")
    parser.add_argument("--runs", type=int, default=1,
                        help="runs per workload, seeds SEED..SEED+RUNS-1")
    parser.add_argument("--sets", type=int, default=1,
                        help="repeat all runs this many times")
    parser.add_argument("--check", nargs="?", const=str(BASELINE),
                        metavar="BASELINE",
                        help="fail on a regression beyond BENCHMARK.json's "
                             "bounds vs BASELINE (default: the committed "
                             "BENCH_e2e.json)")
    parser.add_argument("--child", choices=("setup", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--state", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        return child_main(args)
    if args.seconds < 1 or args.runs < 1 or args.sets < 1:
        parser.error("--seconds, --runs and --sets must be at least 1")

    OUT.mkdir(exist_ok=True)
    names = [args.workload] if args.workload else list(WORKLOAD_NAMES)
    sets: List[List[Dict]] = []
    try:
        for _ in range(args.sets):
            runs = []
            for seed in range(args.seed, args.seed + args.runs):
                for name in names:
                    run = run_workload(name, seed, args.seconds, args.trace)
                    print_run(run)
                    runs.append(run)
            sets.append(runs)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    runs = [run for runs in sets for run in runs]
    if len(runs) > 1 and not args.trace:
        out = OUT / "BENCH_e2e.json"
        write_results(out, sets, args.seconds)
        print(f"wrote {out}")
    status = 0 if all(run["failed"] == 0 for run in runs) else 1
    if args.check:
        baseline = json.loads(Path(args.check).read_text())["summary"]
        bounds = {m["name"]: m["bound"] for m in
                  json.loads(BENCHMARK.read_text())["end_to_end"]}
        if gate(summarize(runs), baseline, bounds):
            status = 1
    print(json.dumps(result_line(runs)))
    return status


if __name__ == "__main__":
    sys.exit(main())
