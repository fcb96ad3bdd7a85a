"""Per-layer tracing for the end-to-end benchmark, owned by the benchmark.

Nothing under ``src/`` knows about this module. :class:`Tracer` times
calls into each layer's public functions by swapping module and class
attributes for timing wrappers while a traced op runs, and restores
them afterwards. Engine callbacks are timed through the simulator's
public ``probe`` hook: :class:`Tracer` attaches itself to every
``Simulator`` built during a traced op and keys each callback by the
module that defines it (``repro.rdma.nic`` -> layer ``rdma.nic``).

Accounting rules, applied to every row of the layer table:

* *busy* is the wall time inside the layer, children included;
* *self* is busy minus the part of the interval covered by wrapped
  children (a callback's self time excludes the mirror block and packet
  serialisation it calls, the engine's self time is its loop overhead);
* the op's own span is the root: its self time is glue the table does
  not attribute, so ``1 - root self / op wall`` is the attributed share.

Spans (name, start, end, parent, op id, thread) are kept in memory and
written as a Chrome trace by :meth:`Tracer.write_chrome_trace`. Per-packet
layers (packet serialisation, the mirror block, engine callbacks) are
aggregated per op instead of recorded one span each.
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Dict, List, Optional

__all__ = ["Tracer", "layer_metrics", "PER_LAYER_METRICS"]

#: Row names of the six registered analyzers.
ANALYZERS = ("gbn", "retransmission", "cnp", "counters", "goodput", "latency")


class _Frame:
    __slots__ = ("name", "start", "child", "pending", "span")

    def __init__(self, name: str, start: int, span: Optional[int]):
        self.name = name
        self.start = start
        #: Time covered by closed child frames.
        self.child = 0
        #: Engine frames only: time of wrapped calls made by the callback
        #: that is still running, subtracted from that callback's self time.
        self.pending = 0
        self.span = span


class _TimedAnalyzer:
    """Registry stand-in that times one analyzer's ``analyze``."""

    def __init__(self, tracer: "Tracer", analyzer):
        self.name = analyzer.name
        self.analyze = tracer.timed(analyzer.analyze,
                                    f"core.analyzers.{analyzer.name}")


class Tracer:
    """Timing wrappers, the simulator probe, and the per-layer ledger."""

    def __init__(self):
        #: row name -> [calls, busy_ns, self_ns], summed over traced ops.
        self.rows: Dict[str, List[int]] = defaultdict(lambda: [0, 0, 0])
        #: Extra per-run counts (packets, store hits, bytes, ...).
        self.counts: Dict[str, float] = defaultdict(float)
        #: [name, start_ns, end_ns, parent span index, op id, thread], and
        #: for op spans the op's per-module callback table.
        self.spans: List[list] = []
        self.ops = 0
        self.op_wall_ns = 0
        self.root_self_ns = 0
        self.op: Optional[int] = None
        #: Rows timed on another thread (the daemon's): they overlap the
        #: op's own spans instead of adding to them.
        self.background = set()
        self._main = threading.get_ident()
        self._tls = threading.local()
        self._lock = threading.Lock()
        self._engine: Optional[_Frame] = None
        self._root: Optional[_Frame] = None
        self._callbacks: Dict[str, List[int]] = {}
        self._layer_of: Dict[str, str] = {}
        self._patches: List[tuple] = []
        self._originals: Dict[str, object] = {}
        self._fuzzers: List[tuple] = []
        self._baseline: Dict[str, float] = {}

    # -- frames ---------------------------------------------------------
    def _stack(self) -> List[_Frame]:
        stack = getattr(self._tls, "stack", None)
        if stack is None:
            stack = self._tls.stack = []
        return stack

    def _open(self, name: str, span: bool) -> _Frame:
        stack = self._stack()
        index = None
        start = perf_counter_ns()
        if span:
            parent = stack[-1].span if stack else None
            index = len(self.spans)
            self.spans.append([name, start, 0, parent, self.op,
                               threading.get_ident()])
        frame = _Frame(name, start, index)
        stack.append(frame)
        return frame

    def _close(self, frame: _Frame) -> int:
        end = perf_counter_ns()
        stack = self._stack()
        stack.pop()
        duration = end - frame.start
        if stack:
            parent = stack[-1]
            if parent is self._engine:
                parent.pending += duration
            else:
                parent.child += duration
        if frame.span is not None:
            self.spans[frame.span][2] = end
        with self._lock:
            row = self.rows[frame.name]
            row[0] += 1
            row[1] += duration
            row[2] += duration - frame.child
            if threading.get_ident() != self._main:
                self.background.add(frame.name)
        return duration

    def timed(self, fn, name: str, span: bool = True):
        """``fn`` wrapped to time each call made inside a traced op."""
        tracer = self

        @functools.wraps(fn)
        def timed_call(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            frame = tracer._open(name, span)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)
        return timed_call

    # -- simulator probe --------------------------------------------------
    def record(self, fn, wall_ns: int, now_ns: int, queue_depth: int) -> None:
        """``Simulator.probe`` hook: called after every engine callback."""
        engine = self._engine
        if engine is None:
            return
        module = getattr(fn, "__module__", None) or type(fn).__name__
        row = self._callbacks.get(module)
        if row is None:
            row = self._callbacks[module] = [0, 0, 0]
            self._layer_of[module] = module[6:] \
                if module.startswith("repro.") else module
        row[0] += 1
        row[1] += wall_ns
        row[2] += wall_ns - engine.pending
        engine.pending = 0
        engine.child += wall_ns

    def _timed_run(self, run):
        tracer = self

        @functools.wraps(run)
        def timed_run(sim, *args, **kwargs):
            if tracer.op is None or sim.probe is not tracer:
                return run(sim, *args, **kwargs)
            frame = tracer._open("sim.engine", True)
            outer, tracer._engine = tracer._engine, frame
            try:
                return run(sim, *args, **kwargs)
            finally:
                tracer._engine = outer
                tracer._close(frame)
        return timed_run

    def _probing_init(self, init):
        tracer = self

        @functools.wraps(init)
        def probing_init(sim, *args, **kwargs):
            init(sim, *args, **kwargs)
            if tracer.op is not None:
                sim.probe = tracer
        return probing_init

    # -- install / uninstall -----------------------------------------------
    def _patch(self, owner, attr: str, wrapper) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, wrapper(original))

    def install(self) -> None:
        """Swap every traced entry point for its timing wrapper."""
        from repro.core import orchestrator, report, sweep, testbed
        from repro.core import trace as core_trace
        from repro.core.analyzers import registry
        from repro.core.fuzz import fuzzer
        from repro.core.suite import Scorecard
        from repro.coverage.map import CoverageMap
        from repro.exec.runner import ParallelRunner
        from repro.net.packet import Packet
        from repro.service.client import Client
        from repro.service.dispatcher import ProcessJobExecutor
        from repro.sim.engine import Simulator
        from repro.store import serialize
        from repro.store.index import CampaignStore
        from repro.switch.mirror import MirrorBlock

        def timed(name, span=True):
            return lambda fn: self.timed(fn, name, span)

        self._patch(Simulator, "__init__", self._probing_init)
        self._patch(Simulator, "run", self._timed_run)
        self._patch(Packet, "pack_headers", timed("net.packet", False))
        self._patch(Packet, "icrc", timed("net.packet", False))
        self._patch(MirrorBlock, "mirror", timed("switch.mirror", False))
        for module in (testbed, orchestrator):
            self._patch(module, "build_testbed", timed("core.testbed.build"))
        self._patch(orchestrator.Orchestrator, "setup",
                    timed("core.testbed.setup"))
        for module in (core_trace, orchestrator):
            self._patch(module, "reconstruct_trace", self._counting_reconstruct)
            self._patch(module, "check_integrity",
                        timed("core.trace.integrity"))
        for name in ("render_report", "render_fuzz_summary"):
            self._patch(report, name, timed("core.report.render"))
        self._patch(sweep, "render_sweep_report", timed("core.report.render"))
        self._patch(Scorecard, "render", timed("core.report.render"))
        for name in ("encode_result", "encode_check_result",
                     "encode_fuzz_report", "encode_score"):
            self._patch(serialize, name, timed("store.serialize.encode"))
        for name in ("decode_result", "decode_check_result", "decode_score"):
            self._patch(serialize, name, timed("store.serialize.decode"))
        self._patch(CampaignStore, "get", self._counting_get)
        self._patch(CampaignStore, "put", timed("store.index.put"))
        self._patch(ParallelRunner, "map", self._counting_map)
        self._patch(fuzzer, "mutate", timed("core.fuzz.mutate"))
        self._patch(fuzzer, "score_result", timed("core.fuzz.score"))
        self._patch(fuzzer, "novelty_score", timed("core.fuzz.score"))
        self._patch(fuzzer.LuminaFuzzer, "__init__", self._fuzzer_init)
        self._patch(CoverageMap, "merge_snapshot", timed("coverage.merge"))
        self._patch(CoverageMap, "merge_map", timed("coverage.merge"))
        self._patch(Client, "submit", timed("service.submit"))
        self._patch(Client, "wait", timed("service.wait"))
        self._patch(Client, "results_bytes", timed("service.fetch"))
        self._patch(ProcessJobExecutor, "execute", timed("service.execute"))
        self._originals = {name: registry.get_analyzer(name)
                           for name in ANALYZERS}
        for analyzer in self._originals.values():
            registry.register(_TimedAnalyzer(self, analyzer))

    def uninstall(self) -> None:
        """Put every original entry point back."""
        from repro.core.analyzers import registry

        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
        for analyzer in self._originals.values():
            registry.register(analyzer)

    def _counting_reconstruct(self, reconstruct):
        timed = self.timed(reconstruct, "core.trace.reconstruct")

        @functools.wraps(reconstruct)
        def counting(*args, **kwargs):
            trace = timed(*args, **kwargs)
            if self.op is not None:
                self.counts["core.trace.packets"] += len(trace)
            return trace
        return counting

    def _counting_get(self, get):
        timed = self.timed(get, "store.index.get")

        @functools.wraps(get)
        def counting(store, fp):
            found = timed(store, fp)
            if self.op is not None:
                self.counts["store.index.gets"] += 1
                self.counts["store.index.hits"] += found is not None
            return found
        return counting

    def _counting_map(self, map_fn):
        timed = self.timed(map_fn, "exec.runner.map")

        @functools.wraps(map_fn)
        def counting(runner, payloads):
            stats = runner.stats
            crashes, local = stats.worker_crashes, stats.in_process_runs
            outcomes = timed(runner, payloads)
            if self.op is not None:
                self.counts["exec.runner.tasks"] += len(payloads)
                self.counts["exec.runner.worker_crashes"] += \
                    stats.worker_crashes - crashes
                if runner.workers > 1:
                    self.counts["exec.runner.in_process_fallbacks"] += \
                        stats.in_process_runs - local
            return outcomes
        return counting

    def _fuzzer_init(self, init):
        tracer = self

        @functools.wraps(init)
        def fuzzer_init(fuzzer, *args, **kwargs):
            init(fuzzer, *args, **kwargs)
            if tracer.op is not None:
                # Candidate runs go through the run function the fuzzer
                # was built with; time it where the fuzzer calls it.
                fuzzer._run = tracer.timed(fuzzer._run, "core.fuzz.run")
                tracer._fuzzers.append((fuzzer, len(fuzzer.pool)))
        return fuzzer_init

    # -- ops --------------------------------------------------------------
    def _cache_counters(self) -> Dict[str, float]:
        from repro.net.checksum import icrc_batch_stats, icrc_for
        from repro.net.packet import pack_cache_hits

        info = icrc_for.cache_info()
        batch_hits, batch_misses = icrc_batch_stats()
        return {"net.packet.cache_hits": pack_cache_hits(),
                "net.checksum.hits": info.hits + batch_hits,
                "net.checksum.lookups": info.hits + info.misses
                + batch_hits + batch_misses}

    def begin_op(self, op_id: int) -> None:
        """Open the root span of one traced op (main thread)."""
        self._baseline = self._cache_counters()
        self._callbacks = {}
        self._fuzzers = []
        self.op = op_id
        self._root = self._open("op", True)

    def end_op(self) -> float:
        """Close the op's root span; returns its wall time in seconds."""
        root = self._root
        wall = self._close(root)
        self.op = None
        self.ops += 1
        self.op_wall_ns += wall
        self.root_self_ns += wall - root.child
        for name, value in self._cache_counters().items():
            self.counts[name] += value - self._baseline[name]
        callbacks = {}
        for module, (calls, busy, own) in self._callbacks.items():
            layer = self._layer_of[module]
            row = self.rows[layer]
            row[0] += calls
            row[1] += busy
            row[2] += own
            self.counts["sim.engine.events"] += calls
            callbacks[layer] = [calls, busy, own]
        self.spans[root.span].append(callbacks)
        for fuzzer, initial in self._fuzzers:
            self.counts["core.fuzz.pool_growth"] += len(fuzzer.pool) - initial
        return wall / 1e9

    def note(self, counts: Dict[str, float]) -> None:
        """Add counts the benchmark took from the op's checked output."""
        for name, value in counts.items():
            self.counts[name] += value

    # -- output -----------------------------------------------------------
    def table(self) -> List[tuple]:
        """(row, calls/op, busy s/op, self s/op, self share of op wall).

        Rows timed on another thread are marked ``*``.
        """
        n = max(self.ops, 1)
        wall = max(self.op_wall_ns, 1)
        rows = [(name + " *" * (name in self.background), calls / n,
                 busy / n / 1e9, own / n / 1e9, own / wall)
                for name, (calls, busy, own) in self.rows.items()
                if name != "op"]
        rows.append(("(unattributed op glue)", 1.0, self.root_self_ns / n / 1e9,
                     self.root_self_ns / n / 1e9, self.root_self_ns / wall))
        return sorted(rows, key=lambda r: -r[3])

    @property
    def attributed_share(self) -> float:
        if not self.op_wall_ns:
            return 0.0
        return 1.0 - self.root_self_ns / self.op_wall_ns

    def write_chrome_trace(self, path: str) -> None:
        """All spans as Chrome trace events (load in Perfetto/chrome://tracing)."""
        if not self.spans:
            return
        origin = min(span[1] for span in self.spans)
        threads: Dict[int, int] = {}
        events = []
        for index, span in enumerate(self.spans):
            name, start, end, parent, op, thread = span[:6]
            args = {"op": op, "span": index, "parent": parent}
            if len(span) > 6:
                args["callbacks"] = {
                    layer: {"calls": calls, "busy_ms": busy / 1e6,
                            "self_ms": own / 1e6}
                    for layer, (calls, busy, own) in span[6].items()}
            events.append({"name": name, "ph": "X", "pid": 1,
                           "tid": threads.setdefault(thread, len(threads)),
                           "ts": (start - origin) / 1e3,
                           "dur": (end - start) / 1e3, "args": args})
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, handle)


def _busy(rows, name: str) -> float:
    return rows.get(name, (0, 0, 0))[1] / 1e9


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


#: name -> (unit, better); every value is a per-op mean unless a ratio.
PER_LAYER_METRICS = {
    "sim.engine.events": ("count", "lower"),
    "sim.engine.self_s": ("s", "lower"),
    "sim.engine.events_per_pkt": ("count", "lower"),
    "sim.process.busy_s": ("s", "lower"),
    "sim.process.calls": ("count", "lower"),
    "net.link.busy_s": ("s", "lower"),
    "net.link.calls": ("count", "lower"),
    "net.packet.pack_s": ("s", "lower"),
    "net.packet.pack_calls": ("count", "lower"),
    "net.packet.pack_cache_hit_ratio": ("ratio", "higher"),
    "net.checksum.icrc_cache_hit_ratio": ("ratio", "higher"),
    "switch.pipeline.self_s": ("s", "lower"),
    "switch.pipeline.calls": ("count", "lower"),
    "switch.mirror.busy_s": ("s", "lower"),
    "switch.mirror.calls": ("count", "lower"),
    "rdma.nic.busy_s": ("s", "lower"),
    "rdma.nic.calls": ("count", "lower"),
    "dumper.server.busy_s": ("s", "lower"),
    "dumper.server.calls": ("count", "lower"),
    "rdma.qp.busy_s": ("s", "lower"),
    "rdma.qp.calls": ("count", "lower"),
    "rdma.dcqcn.busy_s": ("s", "lower"),
    "rdma.dcqcn.calls": ("count", "lower"),
    "core.testbed.build_s": ("s", "lower"),
    "core.testbed.builds": ("count", "lower"),
    "core.trace.reconstruct_s": ("s", "lower"),
    "core.trace.integrity_s": ("s", "lower"),
    "core.trace.packets": ("count", "lower"),
    **{f"core.analyzers.{name}_s": ("s", "lower") for name in ANALYZERS},
    "core.analyzers.calls": ("count", "lower"),
    "core.report.render_self_s": ("s", "lower"),
    "store.serialize.encode_s": ("s", "lower"),
    "store.serialize.decode_s": ("s", "lower"),
    "store.serialize.doc_bytes": ("bytes", "lower"),
    "store.index.get_s": ("s", "lower"),
    "store.index.put_s": ("s", "lower"),
    "store.index.hit_ratio": ("ratio", "higher"),
    "exec.runner.map_s": ("s", "lower"),
    "exec.runner.tasks": ("count", "lower"),
    "exec.runner.worker_crashes": ("count", "lower"),
    "exec.runner.in_process_fallbacks": ("count", "lower"),
    "core.fuzz.mutate_s": ("s", "lower"),
    "core.fuzz.run_s": ("s", "lower"),
    "core.fuzz.score_s": ("s", "lower"),
    "core.fuzz.admit_ratio": ("ratio", "higher"),
    "coverage.merge_s": ("s", "lower"),
    "coverage.points_hit": ("count", "higher"),
    "service.submit_s": ("s", "lower"),
    "service.wait_s": ("s", "lower"),
    "service.execute_s": ("s", "lower"),
    "service.spawn_overhead_s": ("s", "lower"),
    "service.fetch_s": ("s", "lower"),
    "service.result_bytes": ("bytes", "lower"),
    "trace.attributed_share": ("ratio", "higher"),
    "trace_overhead_ratio": ("ratio", "lower"),
}


def layer_metrics(tracer: Tracer, overhead_ratio: float) -> Dict[str, float]:
    """Every :data:`PER_LAYER_METRICS` value from one traced run."""
    rows, counts = tracer.rows, tracer.counts
    n = max(tracer.ops, 1)

    def per_op(value: float) -> float:
        return value / n

    def calls(name: str) -> float:
        return per_op(rows.get(name, (0,))[0])

    events = counts["sim.engine.events"]
    values = {
        "sim.engine.events": per_op(events),
        "sim.engine.self_s": per_op(rows.get("sim.engine", (0, 0, 0))[2] / 1e9),
        "sim.engine.events_per_pkt": _ratio(events,
                                            counts["core.trace.packets"]),
        "net.packet.pack_s": per_op(_busy(rows, "net.packet")),
        "net.packet.pack_calls": calls("net.packet"),
        "net.packet.pack_cache_hit_ratio": _ratio(
            counts["net.packet.cache_hits"], rows.get("net.packet", (0,))[0]),
        "net.checksum.icrc_cache_hit_ratio": _ratio(
            counts["net.checksum.hits"], counts["net.checksum.lookups"]),
        "switch.pipeline.self_s": per_op(
            rows.get("switch.pipeline", (0, 0, 0))[2] / 1e9),
        "switch.pipeline.calls": calls("switch.pipeline"),
        "core.testbed.build_s": per_op(_busy(rows, "core.testbed.build")
                                       + _busy(rows, "core.testbed.setup")),
        "core.testbed.builds": calls("core.testbed.build"),
        "core.trace.reconstruct_s": per_op(_busy(rows,
                                                 "core.trace.reconstruct")),
        "core.trace.integrity_s": per_op(_busy(rows, "core.trace.integrity")),
        "core.trace.packets": per_op(counts["core.trace.packets"]),
        "core.analyzers.calls": sum(calls(f"core.analyzers.{name}")
                                    for name in ANALYZERS),
        "core.report.render_self_s": per_op(
            rows.get("core.report.render", (0, 0, 0))[2] / 1e9),
        "store.serialize.doc_bytes": per_op(
            counts["store.serialize.doc_bytes"]),
        "store.index.hit_ratio": _ratio(counts["store.index.hits"],
                                        counts["store.index.gets"]),
        "exec.runner.tasks": per_op(counts["exec.runner.tasks"]),
        "exec.runner.worker_crashes": per_op(
            counts["exec.runner.worker_crashes"]),
        "exec.runner.in_process_fallbacks": per_op(
            counts["exec.runner.in_process_fallbacks"]),
        "core.fuzz.admit_ratio": _ratio(
            counts["core.fuzz.pool_growth"] + counts["core.fuzz.evictions"],
            counts["core.fuzz.valid"]),
        "coverage.points_hit": per_op(counts["coverage.points_hit"]),
        "service.spawn_overhead_s": per_op(
            _busy(rows, "service.execute") - counts["service.inproc_s"])
        if counts["service.inproc_s"] else 0.0,
        "service.result_bytes": per_op(counts["service.result_bytes"]),
        "trace.attributed_share": tracer.attributed_share,
        "trace_overhead_ratio": overhead_ratio,
    }
    for name in ANALYZERS:
        values[f"core.analyzers.{name}_s"] = per_op(
            _busy(rows, f"core.analyzers.{name}"))
    for layer in ("sim.process", "net.link", "switch.mirror", "rdma.nic",
                  "dumper.server", "rdma.qp", "rdma.dcqcn"):
        values[f"{layer}.busy_s"] = per_op(_busy(rows, layer))
        values[f"{layer}.calls"] = calls(layer)
    for metric, row in (("store.serialize.encode_s", "store.serialize.encode"),
                        ("store.serialize.decode_s", "store.serialize.decode"),
                        ("store.index.get_s", "store.index.get"),
                        ("store.index.put_s", "store.index.put"),
                        ("exec.runner.map_s", "exec.runner.map"),
                        ("core.fuzz.mutate_s", "core.fuzz.mutate"),
                        ("core.fuzz.run_s", "core.fuzz.run"),
                        ("core.fuzz.score_s", "core.fuzz.score"),
                        ("coverage.merge_s", "coverage.merge"),
                        ("service.submit_s", "service.submit"),
                        ("service.wait_s", "service.wait"),
                        ("service.execute_s", "service.execute"),
                        ("service.fetch_s", "service.fetch")):
        values[metric] = per_op(_busy(rows, row))
    return {name: values[name] for name in PER_LAYER_METRICS}
