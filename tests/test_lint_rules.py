"""Fixture-driven tests for every repro.lint rule.

Each rule gets (at least) a true positive, a true negative, and a
suppression case, exercised through :func:`repro.lint.rules.run_rules`
on small synthetic modules. Paths are chosen to land inside/outside
each rule's directory scope.
"""

import textwrap

import pytest

from repro.lint import ModuleContext, run_rules
from repro.lint.findings import FileStats
from repro.lint.rules import RULES


def lint(source, path="repro/core/sample.py", select=None, stats=None):
    ctx = ModuleContext(path, textwrap.dedent(source),
                        module_package="repro.core")
    return run_rules(ctx, select=select, stats=stats)


def codes(findings):
    return [f.code for f in findings]


# ----------------------------------------------------------------------
# Registry basics
# ----------------------------------------------------------------------
def test_registry_has_all_shipped_rules():
    assert set(RULES) == {"DET001", "DET002", "DET003", "DET004",
                          "EXEC001", "TEL001", "API001", "PERF001",
                          "FLOW001", "FLOW002", "RACE001", "UNIT001"}


def test_findings_sorted_and_located():
    findings = lint("""
        import time

        def a():
            return time.time()

        def b():
            return time.monotonic()
    """)
    assert codes(findings) == ["DET001", "DET001"]
    assert findings[0].line < findings[1].line
    assert findings[0].path == "repro/core/sample.py"
    assert "time.time" in findings[0].message


# ----------------------------------------------------------------------
# DET001 — wall-clock in sim code
# ----------------------------------------------------------------------
def test_det001_positive_direct_and_aliased():
    findings = lint("""
        import time
        from time import perf_counter as pc
        from datetime import datetime

        def f():
            return time.time(), pc(), datetime.now()
    """, path="repro/sim/model.py")
    assert codes(findings) == ["DET001"] * 3


def test_det001_negative_outside_scoped_dirs():
    # telemetry/ is the one layer allowed to read the wall clock.
    assert lint("""
        import time

        def f():
            return time.perf_counter_ns()
    """, path="repro/telemetry/thing.py") == []


def test_det001_covers_exec_dir_and_api_module():
    # Wall-clock reads in the pool plumbing or the facade would leak
    # host time into scheduling decisions and cached results.
    src = """
        import time

        def f():
            return time.time()
    """
    assert codes(lint(src, path="repro/exec/runner.py")) == ["DET001"]
    assert codes(lint(src, path="repro/api.py")) == ["DET001"]


def test_det002_covers_exec_dir_and_api_module():
    src = """
        import random

        def f():
            return random.random()
    """
    assert codes(lint(src, path="repro/exec/worker.py")) == ["DET002"]
    assert codes(lint(src, path="repro/api.py")) == ["DET002"]


def test_det001_covers_faults_and_dumper_dirs():
    # The measurement-fault layer and the dumpers are simulation code:
    # a wall-clock read there would make capture loss host-speed
    # dependent.
    src = """
        import time

        def f():
            return time.time()
    """
    assert codes(lint(src, path="repro/faults/injector.py")) == ["DET001"]
    assert codes(lint(src, path="repro/dumper/server.py")) == ["DET001"]


def test_det002_covers_faults_dir():
    findings = lint("""
        import random

        def f():
            return random.random()
    """, path="repro/faults/injector.py")
    assert codes(findings) == ["DET002"]


def test_det001_negative_engine_clock_is_fine():
    assert lint("""
        def f(sim):
            return sim.now
    """, path="repro/sim/model.py") == []


def test_det001_scoped_allowlist_engine_probe():
    # The engine's probe timing is the sanctioned wall-clock site.
    src = """
        from time import perf_counter_ns

        def run():
            return perf_counter_ns()
    """
    assert lint(src, path="repro/sim/engine.py") == []
    assert codes(lint(src, path="repro/sim/other.py")) == ["DET001"]


def test_det001_suppressed(tmp_path):
    stats = FileStats()
    findings = lint("""
        import time

        def f():
            return time.time()  # repro-lint: ignore[DET001]
    """, path="repro/sim/model.py", stats=stats)
    assert findings == []
    assert stats.suppressed == 1


# ----------------------------------------------------------------------
# DET002 — unseeded global RNG
# ----------------------------------------------------------------------
def test_det002_positive_module_functions():
    findings = lint("""
        import random
        from random import randint

        def f():
            return random.random() + randint(0, 5) + random.choice([1])
    """)
    assert codes(findings) == ["DET002"] * 3


def test_det002_negative_seeded_instance_and_simrandom():
    assert lint("""
        import random
        from repro.sim.rng import SimRandom

        def f(seed):
            rng = random.Random(seed)
            sim_rng = SimRandom(seed)
            return rng.random() + sim_rng.random()
    """) == []


def test_det002_rng_module_exempt():
    assert lint("""
        import random

        def f():
            return random.randint(0, 1)
    """, path="repro/sim/rng.py") == []


def test_det002_numpy_global():
    findings = lint("""
        import numpy as np

        def f():
            unseeded = np.random.default_rng()
            seeded = np.random.default_rng(42)
            return np.random.rand(3)
    """)
    assert codes(findings) == ["DET002"] * 2  # bare default_rng + rand


def test_det002_suppressed():
    assert lint("""
        import random

        def f():
            return random.random()  # repro-lint: ignore[DET002]
    """) == []


# ----------------------------------------------------------------------
# DET003 — unordered set iteration
# ----------------------------------------------------------------------
def test_det003_positive_for_over_set_local():
    findings = lint("""
        def f(items):
            seen = set(items)
            out = []
            for x in seen:
                out.append(x)
            return out
    """)
    assert codes(findings) == ["DET003"]


def test_det003_positive_inline_set_call_and_literal():
    findings = lint("""
        def f(a, b):
            for x in set(a) - set(b):
                yield x
            for y in {1, 2, 3}:
                yield y
    """)
    assert codes(findings) == ["DET003", "DET003"]


def test_det003_positive_dict_comprehension_from_frozenset_param():
    from typing import FrozenSet  # noqa: F401 - for the fixture below

    findings = lint("""
        from typing import FrozenSet

        def f(stuck: FrozenSet[str]):
            return {name: 0 for name in stuck}
    """)
    assert codes(findings) == ["DET003"]


def test_det003_negative_sorted_wrap():
    assert lint("""
        def f(items):
            seen = set(items)
            return [x for x in sorted(seen)]
    """) == []


def test_det003_negative_membership_and_order_free():
    assert lint("""
        def f(items, wanted):
            keep = set(wanted)
            hits = [x for x in items if x in keep]
            return len(keep), sum(keep), max(keep), hits
    """) == []


def test_det003_negative_set_comprehension_target():
    # Building another set from a set is order-free by construction.
    assert lint("""
        def f(contexts, alive):
            return {c for c in contexts if c in alive}
    """.replace("contexts,", "contexts: set,")) == []


def test_det003_negative_list_iteration():
    assert lint("""
        def f(servers):
            for s in servers:
                yield s.name
    """) == []


def test_det003_suppressed():
    assert lint("""
        def f(items):
            seen = set(items)
            for x in seen:  # repro-lint: ignore[DET003]
                yield x
    """) == []


# ----------------------------------------------------------------------
# DET004 — identity ordering
# ----------------------------------------------------------------------
def test_det004_positive_key_id_and_lambda_hash():
    findings = lint("""
        def f(events):
            a = sorted(events, key=id)
            events.sort(key=lambda e: hash(e))
            return a
    """)
    assert codes(findings) == ["DET004", "DET004"]


def test_det004_negative_stable_key():
    assert lint("""
        def f(events):
            return sorted(events, key=lambda e: (e.time, e.seq))
    """) == []


def test_det004_suppressed():
    assert lint("""
        def f(events):
            return sorted(events, key=id)  # repro-lint: ignore[DET004]
    """) == []


# ----------------------------------------------------------------------
# EXEC001 — spawn-unsafe callables
# ----------------------------------------------------------------------
def test_exec001_positive_lambda_to_runner():
    findings = lint("""
        from repro.exec import ParallelRunner

        def f(payloads):
            runner = ParallelRunner(lambda p: p, workers=2)
            return runner.map(payloads)
    """)
    assert codes(findings) == ["EXEC001"]
    assert "lambda" in findings[0].message


def test_exec001_positive_closure_and_bound_method():
    findings = lint("""
        from repro.exec import ParallelRunner

        class Campaign:
            def run(self, payloads):
                def local_task(p):
                    return p
                a = ParallelRunner(local_task, workers=2)
                b = ParallelRunner(self.score, workers=2)
                return a, b
    """)
    assert codes(findings) == ["EXEC001", "EXEC001"]
    assert "closure" in findings[0].message
    assert "bound method" in findings[1].message


def test_exec001_positive_pool_submit_lambda():
    findings = lint("""
        def f(pool, x):
            return pool.submit(lambda: x + 1)
    """)
    assert codes(findings) == ["EXEC001"]


def test_exec001_negative_module_level_and_imported():
    assert lint("""
        from repro.exec import ParallelRunner
        from repro.exec.tasks import score_config_task
        from repro.exec import worker as worker_mod

        def module_task(p):
            return p

        def f(pool, payload):
            a = ParallelRunner(score_config_task, workers=2)
            b = ParallelRunner(module_task, workers=2)
            pool.submit(worker_mod.invoke, payload)
            return a, b
    """) == []


def test_exec001_task_fn_keyword():
    findings = lint("""
        from repro.exec import ParallelRunner

        def f():
            return ParallelRunner(task_fn=lambda p: p, workers=2)
    """)
    assert codes(findings) == ["EXEC001"]


def test_exec001_suppressed():
    assert lint("""
        from repro.exec import ParallelRunner

        def f():
            return ParallelRunner(  # repro-lint: ignore[EXEC001]
                lambda p: p, workers=1)
    """) == []


# ----------------------------------------------------------------------
# TEL001 — observation handle construction in loops
# ----------------------------------------------------------------------
def test_tel001_positive_local_session_in_loop():
    findings = lint("""
        from .. import observe

        def f(servers):
            tel = observe.current()
            for s in servers:
                tel.gauge("records", server=s.name).set(1)
    """)
    assert codes(findings) == ["TEL001"]


def test_tel001_positive_session_attribute_in_while():
    findings = lint("""
        class Probe:
            def flush(self, names):
                while names:
                    name = names.pop()
                    self.session.counter("cb", fn=name).inc()
    """)
    assert codes(findings) == ["TEL001"]


def test_tel001_negative_handle_bound_outside_loop():
    assert lint("""
        from .. import observe

        def f(servers):
            gauge = observe.current().gauge("records")
            for s in servers:
                gauge.set(s.count)
    """) == []


def test_tel001_negative_unrelated_receiver():
    # .counter() on a non-telemetry object must not trip the rule.
    assert lint("""
        def f(geigers):
            for g in geigers:
                g.counter("clicks")
    """) == []


def test_tel001_suppressed():
    assert lint("""
        from .. import observe

        def f(servers):
            tel = observe.current()
            for s in servers:
                tel.gauge(  # repro-lint: ignore[TEL001]
                    "records", server=s.name).set(1)
    """) == []


def test_tel001_positive_coverage_domain_in_loop():
    # Coverage handles obey the same contract as telemetry handles:
    # bind once at construction, never per packet.
    findings = lint("""
        from .. import observe

        def f(packets):
            cov = observe.current()
            for pkt in packets:
                cov.domain("rdma.gbn").hit("nak-sent", pkt.ns)
    """)
    assert codes(findings) == ["TEL001"]


def test_tel001_positive_coverage_recorder_in_while():
    findings = lint("""
        class Probe:
            def drain(self, entries):
                while entries:
                    entry = entries.pop()
                    self.coverage.recorder("rnic").note(entry.ns, "gap")
    """)
    assert codes(findings) == ["TEL001"]


def test_tel001_negative_coverage_handle_bound_outside_loop():
    assert lint("""
        from .. import observe

        def f(packets):
            gbn = observe.current().domain("rdma.gbn")
            for pkt in packets:
                gbn.hit("nak-sent", pkt.ns)
    """) == []


def test_det001_applies_to_coverage_sources():
    # DET001's directory scope includes coverage/ — the map records
    # seeded sim-time only, never wall clocks.
    findings = lint("""
        import time

        def stamp():
            return time.time()
    """, path="repro/coverage/sample.py")
    assert codes(findings) == ["DET001"]


def test_det001_applies_to_the_observe_session():
    # The session module holds the coverage scopes; only telemetry/
    # may read wall clocks on its behalf.
    findings = lint("""
        import time

        def stamp():
            return time.perf_counter_ns()
    """, path="repro/observe.py")
    assert codes(findings) == ["DET001"]


# ----------------------------------------------------------------------
# API001 — engine-owned state mutation
# ----------------------------------------------------------------------
def test_api001_positive_clock_write_and_private_call():
    findings = lint("""
        def hack(sim):
            sim._now = 0
            sim._live += 1
            sim._queue.append(None)
            sim._compact()
    """, path="repro/core/hack.py")
    assert codes(findings) == ["API001"] * 4


def test_api001_negative_public_api():
    assert lint("""
        def ok(sim, fn):
            event = sim.schedule(10, fn)
            event.cancel()
            sim.reset()
            sim.probe = None
            return sim.now, sim.pending
    """, path="repro/core/ok.py") == []


def test_api001_negative_inside_sim_package():
    assert lint("""
        def engine_internal(sim):
            sim._now = 0
    """, path="repro/sim/helper.py") == []


def test_api001_negative_unrelated_receiver():
    # A private _queue on a non-engine object is someone else's business.
    assert lint("""
        def f(server):
            server._queue = []
    """, path="repro/core/f.py") == []


def test_api001_suppressed():
    assert lint("""
        def hack(sim):
            sim._now = 0  # repro-lint: ignore[API001]
    """, path="repro/core/hack.py") == []


# ----------------------------------------------------------------------
# PERF001 — literal struct format strings on the packet hot path
# ----------------------------------------------------------------------
def test_perf001_positive_literal_pack_and_aliased_unpack():
    findings = lint("""
        import struct
        from struct import unpack as u

        def encode(h):
            return struct.pack("!HHHH", h.a, h.b, h.c, 0)

        def decode(data):
            return u("!HHHH", data[:8])
    """, path="repro/net/sample.py")
    assert codes(findings) == ["PERF001", "PERF001"]
    assert "struct.Struct" in findings[0].message


def test_perf001_negative_precompiled_struct_and_dynamic_format():
    assert lint("""
        import struct

        _UDP = struct.Struct("!HHHH")

        def encode(h):
            return _UDP.pack(h.a, h.b, h.c, 0)

        def flexible(fmt, data):
            return struct.unpack(fmt, data)
    """, path="repro/net/sample.py") == []


def test_perf001_negative_outside_packet_path():
    # Cold-path code (store/, telemetry/, ...) may pack ad hoc.
    assert lint("""
        import struct

        def checkpoint(v):
            return struct.pack("!I", v)
    """, path="repro/store/blob.py") == []


def test_perf001_suppressed_counts_in_stats():
    stats = FileStats()
    findings = lint("""
        import struct

        def one_shot(v):
            return struct.pack("!I", v)  # repro-lint: ignore[PERF001]
    """, path="repro/rdma/sample.py", stats=stats)
    assert findings == []
    assert stats.suppressed == 1


# ----------------------------------------------------------------------
# Cross-cutting: suppressions and skip-file
# ----------------------------------------------------------------------
def test_bare_ignore_suppresses_all_rules():
    assert lint("""
        import time

        def f():
            return time.time()  # repro-lint: ignore
    """, path="repro/sim/model.py") == []


def test_ignore_for_other_rule_does_not_mask():
    findings = lint("""
        import time

        def f():
            return time.time()  # repro-lint: ignore[DET002]
    """, path="repro/sim/model.py")
    assert codes(findings) == ["DET001"]


def test_suppression_spans_parenthesized_expression():
    # The directive sits on the closing-paren line; the finding anchors
    # on the ``time.time()`` line two lines up. One statement, one span.
    assert lint("""
        import time

        def f():
            return (
                time.time()
            )  # repro-lint: ignore[DET001]
    """, path="repro/sim/model.py") == []


def test_suppression_spans_multiline_call_arguments():
    assert lint("""
        import time

        def f(log):
            log.emit(
                "started",
                at=time.time(),  # repro-lint: ignore[DET001]
            )
    """, path="repro/sim/model.py") == []


def test_suppression_spans_decorated_def_header():
    # A directive on the decorator line covers the whole def header,
    # including a default argument on a later signature line.
    assert lint("""
        import time
        import functools

        @functools.lru_cache  # repro-lint: ignore[DET001]
        def f(
            a,
            seed=time.time(),
        ):
            return a, seed
    """, path="repro/sim/model.py") == []


def test_header_suppression_does_not_leak_into_body():
    # The def header span stops before the body: a violation inside the
    # function is still reported.
    findings = lint("""
        import time
        import functools

        @functools.lru_cache  # repro-lint: ignore[DET001]
        def f(
            seed=time.time(),
        ):
            return time.time()
    """, path="repro/sim/model.py")
    assert [(f.code, "return" in (f.snippet or "")) for f in findings] == [
        ("DET001", True)]


def test_bare_ignore_dominates_within_span():
    # A bare ``ignore`` anywhere in a statement span masks every rule
    # on every line of that statement.
    assert lint("""
        import time
        import random

        def f():
            return (
                time.time(),  # repro-lint: ignore
                random.random(),
            )
    """, path="repro/sim/model.py") == []


def test_skip_file_directive():
    assert lint("""
        # repro-lint: skip-file
        import time

        def f():
            return time.time()
    """, path="repro/sim/model.py") == []


def test_directive_inside_string_is_inert():
    findings = lint('''
        import time

        DOC = "# repro-lint: skip-file"

        def f():
            """Says '# repro-lint: ignore' but only in prose."""
            return time.time()
    ''', path="repro/sim/model.py")
    assert codes(findings) == ["DET001"]


def test_select_filters_rules():
    findings = lint("""
        import time
        import random

        def f():
            return time.time() + random.random()
    """, path="repro/sim/model.py", select={"DET002"})
    assert codes(findings) == ["DET002"]


@pytest.mark.parametrize("code", sorted(RULES))
def test_every_rule_documents_itself(code):
    rule = RULES[code]
    assert rule.name and rule.description
    assert rule.severity is not None
