"""Self-tests for the end-to-end benchmark: ``pytest benchmarks/e2e -q``."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import e2e_workloads  # noqa: E402
import run  # noqa: E402
from e2e_layers import PER_LAYER_METRICS, Tracer  # noqa: E402

SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


@pytest.fixture
def make(tmp_path):
    """Build a workload by name; closes it after the test."""
    built = []

    def factory(name: str, seed: int = 1):
        workload = e2e_workloads.WORKLOADS[name](seed, str(tmp_path / name))
        built.append(workload)
        return workload
    yield factory
    for workload in built:
        workload.close()


@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_each_workload_passes_its_checks(make, name):
    workload = make(name)
    tally = run._Tally()
    run._warm_up(workload, tally)
    elapsed, checked = run._run_op(workload, workload.round(0)[0])
    tally.add(checked)
    assert (tally.failed, tally.errors) == (0, [])
    assert tally.attempted >= 2 and elapsed > 0 and checked.work > 0


def test_wrong_output_is_a_failed_op(make, monkeypatch):
    workload = make("conformance-matrix")
    real = e2e_workloads.run_suite

    def short_suite(nic, seed=None):
        card = real(nic, seed=seed)
        card.results.pop()
        return card
    monkeypatch.setattr(e2e_workloads, "run_suite", short_suite)
    _, checked = run._run_op(workload, "ideal")
    assert checked.failed == 1 and "13 checks" in checked.errors[0]

    def broken(nic, seed=None):
        raise RuntimeError("boom")
    monkeypatch.setattr(e2e_workloads, "run_suite", broken)
    _, checked = run._run_op(workload, "ideal")
    assert checked.failed == 1 and "boom" in checked.errors[0]


def test_traced_and_untraced_digests_agree(make):
    workload = make("bulk-rdma")
    config = workload.round(0)[2]  # the lossy shape
    _, plain = run._run_op(workload, config)
    tracer = Tracer()
    tracer.install()
    try:
        _, traced = run._run_op(workload, config, tracer)
    finally:
        tracer.uninstall()
    assert plain.failed == traced.failed == 0
    assert plain.digest == traced.digest
    assert tracer.attributed_share > 0.9
    assert tracer.rows["sim.engine"][0] > 0 and tracer.rows["rdma.nic"][0] > 0


def test_uninstall_restores_every_entry_point():
    from repro.core.analyzers.registry import get_analyzer
    from repro.sim.engine import Simulator

    run_fn, gbn = Simulator.__dict__["run"], get_analyzer("gbn")
    tracer = Tracer()
    tracer.install()
    assert Simulator.__dict__["run"] is not run_fn
    tracer.uninstall()
    assert Simulator.__dict__["run"] is run_fn and get_analyzer("gbn") is gbn


def test_definitions_match_benchmark_json():
    assert SPEC["run_seconds"] == run.RUN_SECONDS
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(e2e_workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    for entry in SPEC["workloads"]:
        assert entry["why"] == e2e_workloads.WORKLOADS[entry["name"]].why
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} \
        == PER_LAYER_METRICS
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("trace,kind", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, kind):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "service-replay",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in SPEC[kind]]
    for entry in SPEC[kind]:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_gate_verdicts(capsys):
    baseline = {"w": {"op_s_p50": {"median": 1.0, "spread": 0.02, "n": 10},
                      "work_per_s": {"median": 10.0, "spread": 0.3, "n": 10}}}
    bounds = {"op_s_p50": 0.1, "work_per_s": 0.1}

    def current(p50, rate):
        return {"w": {"op_s_p50": {"median": p50, "spread": 0.0, "n": 1},
                      "work_per_s": {"median": rate, "spread": 0.0, "n": 1}}}
    assert run.gate(current(1.05, 5.0), baseline, bounds) == []
    assert "unresolved" in capsys.readouterr().out
    failures = run.gate(current(1.2, 10.0), baseline, bounds)
    assert len(failures) == 1 and "FAIL" in failures[0]


def test_empty_checkout_fails_without_a_result(tmp_path):
    copy = tmp_path / "benchmarks" / "e2e"
    copy.mkdir(parents=True)
    for path in HERE.iterdir():
        if path.is_file():
            (copy / path.name).write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "bulk-rdma",
         "--seconds", "1"], cwd=tmp_path, capture_output=True, text=True,
        timeout=170, env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert not proc.stdout.strip().endswith("}")
