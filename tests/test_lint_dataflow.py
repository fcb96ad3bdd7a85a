"""Fixture tests for the whole-program dataflow rules.

Each FLOW/RACE/UNIT family gets at least one true positive and one
must-not-flag case (the issue's acceptance bar), driven through
:func:`repro.lint.dataflow.run_program_rules` on synthetic multi-module
programs. The seeded-transitive-violation acceptance fixture — a
wall-clock read two calls below an engine callback — lives in
``test_flow001_catches_seeded_transitive_violation``. A perf test pins
graph construction plus all four analyses over ``src/repro`` under the
10-second CI budget.
"""

import textwrap
import time

from repro.lint.callgraph import Program
from repro.lint.cli import default_root, lint_tree
from repro.lint.dataflow import run_program_rules, worker_root_qnames
from repro.lint.findings import FileStats


def analyze(files, select=None, stats=None):
    prog = Program.from_sources(
        {path: textwrap.dedent(src) for path, src in files.items()})
    return run_program_rules(prog, select=select, stats=stats)


def codes(findings):
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# FLOW001 — transitive wall-clock taint
# ----------------------------------------------------------------------
def test_flow001_catches_seeded_transitive_violation():
    """The acceptance fixture: wall-clock two calls below an engine
    callback, through a helper module outside the DET001 dirs."""
    findings = analyze({
        "repro/sim/model.py": """
            from ..util.timing import stamp

            def on_packet(sim, pkt):
                pkt.note = stamp()
        """,
        "repro/util/timing.py": """
            from .clock import read_clock

            def stamp():
                return read_clock()
        """,
        "repro/util/clock.py": """
            import time

            def read_clock():
                return time.time()
        """,
    }, select={"FLOW001"})
    assert codes(findings) == ["FLOW001"]
    finding = findings[0]
    assert finding.path == "repro/sim/model.py"
    # Flagged at the scope-exit call site, chain in the message.
    assert "repro.util.timing.stamp" in finding.message
    assert "<wall-clock>" in finding.message


def test_flow001_clean_helper_chain_not_flagged():
    findings = analyze({
        "repro/sim/model.py": """
            from ..util.mathy import double

            def on_packet(sim, pkt):
                pkt.size = double(pkt.size)
        """,
        "repro/util/mathy.py": """
            def double(x):
                return 2 * x
        """,
    }, select={"FLOW001"})
    assert findings == []


def test_flow001_telemetry_wall_usage_sanctioned():
    findings = analyze({
        "repro/sim/model.py": """
            from ..telemetry.spans import annotate

            def on_packet(sim, pkt):
                annotate(pkt)
        """,
        "repro/telemetry/spans.py": """
            import time

            def annotate(pkt):
                pkt.wall_ns = time.perf_counter_ns()
        """,
    }, select={"FLOW001"})
    assert findings == []


def test_flow001_value_taint_into_sim_time_field():
    findings = analyze({
        "repro/util/clock.py": """
            import time

            def read_ms():
                return time.time() * 1000
        """,
        "repro/rdma/qp.py": """
            from ..util.clock import read_ms

            def touch(state):
                state.last_ack_ns = read_ms()
        """,
    }, select={"FLOW001"})
    assert any(f.path == "repro/rdma/qp.py" and
               "last_ack_ns" in f.message for f in findings)


def test_flow001_wall_prefixed_fields_exempt():
    findings = analyze({
        "repro/util/clock.py": """
            import time

            def read_ns():
                return time.perf_counter_ns()
        """,
        "repro/report.py": """
            from .util.clock import read_ns

            def fill(record):
                record.wall_elapsed_ns = read_ns()
        """,
    }, select={"FLOW001"})
    assert all("wall_elapsed_ns" not in f.message for f in findings)


def test_flow001_taint_into_fingerprint_sink():
    findings = analyze({
        "repro/util/clock.py": """
            import time

            def read():
                return time.time()
        """,
        "repro/store/fp.py": """
            from ..util.clock import read

            def config_fingerprint(payload):
                return hash(str(payload))

            def save(config):
                return config_fingerprint({"at": read()})
        """,
    }, select={"FLOW001"})
    assert any("fingerprint" in f.message for f in findings)


# ----------------------------------------------------------------------
# FLOW002 — RNG provenance
# ----------------------------------------------------------------------
def test_flow002_orphan_random_construction_flagged():
    findings = analyze({
        "repro/core/model.py": """
            import random

            def jitter():
                rng = random.Random()
                return rng.random()
        """,
    }, select={"FLOW002"})
    assert codes(findings) == ["FLOW002"]
    assert "provenance" in findings[0].message


def test_flow002_simrandom_implementation_exempt():
    findings = analyze({
        "repro/sim/rng.py": """
            import random

            class SimRandom:
                def __init__(self, seed, namespace="root"):
                    self._rng = random.Random(f"{seed}:{namespace}")

                def setstate(self, state):
                    self._rng.setstate(state)
        """,
    }, select={"FLOW002"})
    assert findings == []


def test_flow002_literal_seeded_simrandom_fork_flagged():
    findings = analyze({
        "repro/sim/rng.py": """
            class SimRandom:
                def __init__(self, seed):
                    self.seed = seed
        """,
        "repro/core/setup.py": """
            from ..sim.rng import SimRandom

            def build(config):
                good = SimRandom(config.seed)
                bad = SimRandom(42)
                return good, bad
        """,
    }, select={"FLOW002"})
    assert len(findings) == 1
    assert "42" in findings[0].message


def test_flow002_reseed_on_worker_path_flagged():
    findings = analyze({
        "repro/exec/tasks.py": """
            from ..core.work import run_one

            def run_config_task(payload):
                return run_one(payload)
        """,
        "repro/core/work.py": """
            def run_one(payload):
                rng = payload["rng"]
                rng.seed(7)
                return rng
        """,
    }, select={"FLOW002"})
    assert codes(findings) == ["FLOW002"]
    assert "reseeds" in findings[0].message


def test_flow002_reseed_outside_worker_path_not_flagged():
    findings = analyze({
        "repro/core/resume.py": """
            def load_state(rng, state):
                rng.setstate(state)
        """,
    }, select={"FLOW002"})
    assert findings == []


# ----------------------------------------------------------------------
# RACE001 — spawn-safety races
# ----------------------------------------------------------------------
RACE_TASKS = """
    from ..core.work import work

    def run_config_task(payload):
        return work(payload)
"""


def test_race001_global_write_on_worker_path_flagged():
    findings = analyze({
        "repro/exec/tasks.py": RACE_TASKS,
        "repro/core/work.py": """
            _CACHE = {}

            def work(payload):
                _CACHE[payload["k"]] = payload
                return payload
        """,
    }, select={"RACE001"})
    assert codes(findings) == ["RACE001"]
    assert "_CACHE" in findings[0].message


def test_race001_global_rebind_via_global_stmt_flagged():
    findings = analyze({
        "repro/exec/tasks.py": RACE_TASKS,
        "repro/core/work.py": """
            _COUNT = 0

            def work(payload):
                global _COUNT
                _COUNT += 1
                return payload
        """,
    }, select={"RACE001"})
    assert codes(findings) == ["RACE001"]


def test_race001_local_shadow_not_flagged():
    findings = analyze({
        "repro/exec/tasks.py": RACE_TASKS,
        "repro/core/work.py": """
            _CACHE = {}

            def work(payload):
                cache = {}
                cache[payload["k"]] = payload
                items = dict(_CACHE)
                return items
        """,
    }, select={"RACE001"})
    assert findings == []


def test_race001_write_off_worker_path_not_flagged():
    findings = analyze({
        "repro/core/work.py": """
            _CACHE = {}

            def parent_only(payload):
                _CACHE[payload["k"]] = payload
        """,
    }, select={"RACE001"})
    assert findings == []


def test_race001_parallel_runner_task_fn_is_a_root():
    files = {
        "repro/driver.py": """
            from repro.exec import ParallelRunner

            def work(payload):
                return payload

            def go(payloads):
                with ParallelRunner(work, workers=2) as runner:
                    return runner.map(payloads)
        """,
    }
    prog = Program.from_sources(
        {p: textwrap.dedent(s) for p, s in files.items()})
    assert "repro.driver.work" in worker_root_qnames(prog)


def test_race001_merge_outside_declared_points_flagged():
    findings = analyze({
        "repro/core/extra.py": """
            def sneaky_fold(cov, snapshots):
                for snap in snapshots:
                    cov.merge_snapshot(snap)
        """,
    }, select={"RACE001"})
    assert codes(findings) == ["RACE001"]
    assert "merge" in findings[0].message


def test_race001_observe_session_merges_flagged_outside_its_module():
    findings = analyze({
        "repro/core/extra.py": """
            from .. import observe

            def sneaky_fold(snapshots):
                for snap in snapshots:
                    observe.current().merge_snapshot(snap)
        """,
        "repro/observe.py": """
            class Session:
                def total_snapshot(self, total):
                    for scope in self.stack:
                        total.merge_map(scope)
        """,
    }, select={"RACE001"})
    assert [(f.path, f.code) for f in findings] == \
        [("repro/core/extra.py", "RACE001")]


def test_race001_merge_at_declared_point_not_flagged():
    findings = analyze({
        "repro/exec/runner.py": """
            class ParallelRunner:
                def map_cached(self, cov, snapshots):
                    for snap in snapshots:
                        cov.merge_snapshot(snap)
        """,
        "repro/coverage/map.py": """
            class CoverageMap:
                def merge(self, other):
                    return other
        """,
    }, select={"RACE001"})
    assert findings == []


# ----------------------------------------------------------------------
# UNIT001 — unit consistency
# ----------------------------------------------------------------------
def test_unit001_mixed_addition_flagged():
    findings = analyze({
        "repro/sim/delay.py": """
            def total(delay_ns, gap_us):
                return delay_ns + gap_us
        """,
    }, select={"UNIT001"})
    assert codes(findings) == ["UNIT001"]
    assert "ns" in findings[0].message and "us" in findings[0].message


def test_unit001_mixed_comparison_flagged():
    findings = analyze({
        "repro/sim/delay.py": """
            def late(deadline_ns, elapsed_ms):
                return elapsed_ms > deadline_ns
        """,
    }, select={"UNIT001"})
    assert codes(findings) == ["UNIT001"]


def test_unit001_cross_dimension_mentions_dimensions():
    findings = analyze({
        "repro/net/rate.py": """
            def weird(size_bytes, rate_gbps):
                return size_bytes + rate_gbps
        """,
    }, select={"UNIT001"})
    assert len(findings) == 1
    assert "different dimensions" in findings[0].message


def test_unit001_conversion_via_multiplication_not_flagged():
    findings = analyze({
        "repro/sim/delay.py": """
            def total(delay_ns, gap_us):
                return delay_ns + gap_us * 1000
        """,
    }, select={"UNIT001"})
    assert findings == []


def test_unit001_same_unit_not_flagged():
    findings = analyze({
        "repro/sim/delay.py": """
            def total(a_ns, b_ns):
                if a_ns > b_ns:
                    return a_ns + b_ns
                return b_ns - a_ns
        """,
    }, select={"UNIT001"})
    assert findings == []


def test_unit001_call_argument_mismatch_across_modules():
    findings = analyze({
        "repro/sim/sched.py": """
            def schedule_after(delay_ns):
                return delay_ns
        """,
        "repro/rdma/qp.py": """
            from ..sim.sched import schedule_after

            def arm(timeout_us):
                return schedule_after(timeout_us)
        """,
    }, select={"UNIT001"})
    assert len(findings) == 1
    assert findings[0].path == "repro/rdma/qp.py"
    assert "delay_ns" in findings[0].message


def test_unit001_keyword_argument_mismatch():
    findings = analyze({
        "repro/sim/sched.py": """
            def schedule_after(delay_ns=0):
                return delay_ns
        """,
        "repro/rdma/qp.py": """
            from ..sim.sched import schedule_after

            def arm(timeout_us):
                return schedule_after(delay_ns=timeout_us)
        """,
    }, select={"UNIT001"})
    assert len(findings) == 1


def test_unit001_matching_argument_not_flagged():
    findings = analyze({
        "repro/sim/sched.py": """
            def schedule_after(delay_ns):
                return delay_ns
        """,
        "repro/rdma/qp.py": """
            from ..sim.sched import schedule_after

            def arm(timeout_ns):
                return schedule_after(timeout_ns)
        """,
    }, select={"UNIT001"})
    assert findings == []


# ----------------------------------------------------------------------
# Framework behaviour
# ----------------------------------------------------------------------
def test_program_rule_findings_honour_inline_suppressions():
    stats = FileStats()
    findings = analyze({
        "repro/sim/delay.py": """
            def total(delay_ns, gap_us):
                return delay_ns + gap_us  # repro-lint: ignore[UNIT001]
        """,
    }, select={"UNIT001"}, stats=stats)
    assert findings == []
    assert stats.suppressed == 1


def test_program_rules_respect_select():
    files = {
        "repro/sim/delay.py": """
            def total(delay_ns, gap_us):
                return delay_ns + gap_us
        """,
    }
    assert analyze(files, select={"FLOW001"}) == []
    assert codes(analyze(files, select={"UNIT001"})) == ["UNIT001"]


# ----------------------------------------------------------------------
# Perf: the CI budget
# ----------------------------------------------------------------------
def test_whole_program_analysis_under_ci_budget():
    """Graph + all four analyses over src/repro in well under 10s."""
    started = time.perf_counter()
    findings, _stats = lint_tree(default_root())
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0, f"whole-program lint took {elapsed:.1f}s"
    # And the repo itself stays clean (everything fixed or suppressed
    # with a reason at the site).
    assert [f for f in findings
            if f.code.startswith(("FLOW", "RACE", "UNIT"))] == []
