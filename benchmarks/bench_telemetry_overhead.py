"""Observation overhead — the null session must stay free.

The instrumentation contract (see ``repro/observe``) is that an
unobserved run pays only one no-op method call per instrumented
operation — metric counters and gauges, coverage ``hit()`` and
flight-recorder ``note()`` alike, all handed out by the one null
session — and the engine's probe branch reduces to a single
``is not None`` test per event. This bench:

* measures the per-packet wall cost of the §5 throughput workload with
  nothing observed (the default, i.e. what every test and user run
  pays);
* measures the cost of the no-op calls a packet's path performs on
  every kind of site and asserts their combined share of the
  per-packet budget stays under 5%;
* reports the live-session cost alongside for context, with the
  metrics facet on and off (observed runs pay for real counters and
  map updates — that cost is accepted, not bounded).
"""

import time

from conftest import emit
from workloads import two_host_config

from repro import observe
from repro.core.config import TrafficConfig
from repro.core.orchestrator import run_test

#: Upper bound on no-op metric calls along one packet's path through
#: switch (rx/lookup/match/tx), mirror (counter + gauge), dumper and
#: NIC (timer arm/cancel, pacing): counted from the instrumented sites.
METRIC_CALLS_PER_PACKET = 16

#: Upper bound on no-op coverage calls per packet: switch table lookup,
#: iteration tracking, mirror clone, pipeline stage, GBN accept/ack on
#: the RNIC plus a flight-recorder note — counted from the ``.hit()``
#: and ``.note()`` sites a data packet can cross.
COVERAGE_CALLS_PER_PACKET = 8

#: The contract this bench enforces, for all sites together.
MAX_DISABLED_OVERHEAD = 0.05


def _throughput_config(seed: int):
    traffic = TrafficConfig(num_connections=1, rdma_verb="write",
                            num_msgs_per_qp=50, message_size=102400,
                            mtu=1024, barrier_sync=False, tx_depth=4)
    return two_host_config("cx6", traffic, seed=seed, dumpers=2)


def _time_run(config) -> tuple:
    start = time.perf_counter_ns()
    result = run_test(config)
    elapsed_ns = time.perf_counter_ns() - start
    return elapsed_ns, len(result.trace)


def _noop_call_cost_ns(rounds: int = 500_000) -> float:
    """Wall cost of one null-session call, averaged over every kind."""
    obs = observe.NULL_SESSION
    inc = obs.counter("m").inc
    set_ = obs.gauge("g").set
    hit = obs.domain("d").hit
    note = obs.recorder("r").note
    start = time.perf_counter_ns()
    for _ in range(rounds):
        inc()
        set_(0)
        hit("p", 0)
        note(0, "e")
    return (time.perf_counter_ns() - start) / (4 * rounds)


def _observed_run_ns(config, metrics: bool) -> tuple:
    with observe.session(metrics=metrics) as obs:
        elapsed_ns, _ = _time_run(config)
        return elapsed_ns, len(obs.total_snapshot())


def test_null_session_overhead(benchmark):
    observe.disable()  # belt and braces: the default state
    _time_run(_throughput_config(62))  # warm caches / JIT-free steady state
    disabled_ns, packets = _time_run(_throughput_config(62))
    per_packet_ns = disabled_ns / packets

    calls = METRIC_CALLS_PER_PACKET + COVERAGE_CALLS_PER_PACKET
    noop_ns = _noop_call_cost_ns()
    noop_share = calls * noop_ns / per_packet_ns

    observed_ns, points = _observed_run_ns(_throughput_config(62), True)
    covered_ns, _ = _observed_run_ns(_throughput_config(62), False)

    lines = [
        f"workload: {packets} packets through the §5 throughput config",
        f"unobserved run: {disabled_ns / 1e6:.1f} ms "
        f"({per_packet_ns:.0f} ns/packet)",
        f"null-session call: {noop_ns:.1f} ns "
        f"(x{calls}/packet = {noop_share * 100:.2f}% of the packet "
        f"budget; bound: {MAX_DISABLED_OVERHEAD * 100:.0f}%)",
        f"observed run: {observed_ns / 1e6:.1f} ms "
        f"({observed_ns / disabled_ns:.2f}x unobserved), "
        f"{points} coverage point(s) recorded",
        f"coverage-only run: {covered_ns / 1e6:.1f} ms "
        f"({covered_ns / disabled_ns:.2f}x unobserved)",
    ]
    emit("observe_overhead", lines)

    assert noop_share < MAX_DISABLED_OVERHEAD, (
        f"null-session no-op calls cost {noop_share * 100:.2f}% of the "
        f"per-packet budget (limit {MAX_DISABLED_OVERHEAD * 100:.0f}%)")

    benchmark.pedantic(run_test, args=(_throughput_config(62),),
                       rounds=2, iterations=1)
