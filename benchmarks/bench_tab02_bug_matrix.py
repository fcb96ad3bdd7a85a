"""Table 2 — bugs and hidden behaviours vs affected NICs.

Runs one detection scenario per Table 2 row against every NIC model and
prints the resulting matrix next to the paper's. Detection uses only
wire-visible evidence (traces, counters, application metrics) — exactly
what Lumina sees on real hardware.
"""

from conftest import emit
from workloads import (
    analyzer_data,
    cnp_interval_config,
    ets_config,
    interop_config,
    noisy_neighbor_config,
    adaptive_retrans_config,
)

from repro.core.analyzers import (
    min_cnp_interval_ns,
    per_qp_goodput_gbps,
    split_mct,
)
from repro.core.orchestrator import run_test

NICS = ("cx4", "cx5", "cx6", "e810")

#: Paper's Table 2 ground truth (NIC short names).
PAPER = {
    "non-work-conserving-ets": {"cx6"},
    "noisy-neighbor": {"cx4"},
    "interoperability": {"e810"},       # the MigReq=0 sender side
    "counter-inconsistency": {"cx4", "e810"},
    "cnp-rate-limiting": {"cx4", "cx5", "cx6", "e810"},
    "adaptive-retransmission": {"cx4", "cx5", "cx6"},
}


def detect_ets_bug(nic: str) -> bool:
    from repro.rdma.profiles import get_profile

    line = get_profile(nic).default_bandwidth_gbps
    goodput = per_qp_goodput_gbps(
        run_test(ets_config(nic, "multi_ecn", seed=5, messages=8)).traffic_log)
    # Bug: QP0 throttled to ~0 yet QP1 pinned near its 50% guarantee
    # instead of expanding toward line rate.
    return goodput[1] < 0.1 * line and goodput[2] < 0.62 * line


def detect_noisy_neighbor(nic: str) -> bool:
    result = run_test(noisy_neighbor_config(12, nic, seed=11))
    parts = split_mct(result.traffic_log, list(range(1, 13)))
    innocent = parts["others"]
    return innocent is not None and innocent.max_ns > 10_000_000


def detect_interop(nic: str) -> bool:
    # Does this NIC, as the sender, break a CX5 receiver at 16 QPs?
    result = run_test(interop_config(nic, "cx5", qps=16, seed=21))
    return result.responder_counters["rx_discards_phy"] > 0


def detect_counter_bug(nic: str) -> bool:
    from repro.core.config import DataPacketEvent, TrafficConfig
    from workloads import two_host_config

    # ECN path (cnpSent) + Read-loss path (implied_nak_seq_err).
    ecn_traffic = TrafficConfig(
        num_connections=1, rdma_verb="write", num_msgs_per_qp=2,
        message_size=10240, mtu=1024,
        data_pkt_events=(DataPacketEvent(1, 3, "ecn"),))
    read_traffic = TrafficConfig(
        num_connections=1, rdma_verb="read", num_msgs_per_qp=2,
        message_size=10240, mtu=1024,
        data_pkt_events=(DataPacketEvent(1, 2, "drop"),))
    for traffic in (ecn_traffic, read_traffic):
        result = run_test(two_host_config(nic, traffic, seed=9))
        if analyzer_data("counters", result).mismatches:
            return True
    return False


def detect_cnp_rate_limiting(nic: str) -> bool:
    # Every NIC coalesces CNPs in some form (§6.3): with the interval
    # knob at 0, a hidden/residual floor or coalescing behaviour shows
    # as fewer CNPs than marks.
    result = run_test(cnp_interval_config(nic, configured_us=4, seed=31,
                                          messages=10))
    report = analyzer_data("cnp", result)
    return report.total_cnps < report.total_ecn_marked


def detect_adaptive_quirk(nic: str) -> bool:
    result = run_test(adaptive_retrans_config(nic, adaptive=True, drops=7,
                                              seed=41))
    meta = result.metadata[0]
    conn = (meta.requester_ip, meta.responder_ip, meta.responder_qpn)
    last_psn = (meta.requester_ipsn + 9) & 0xFFFFFF
    appearances = [p for p in result.trace.data_packets(conn)
                   if p.psn == last_psn]
    gaps_ms = [(b.timestamp_ns - a.timestamp_ns) / 1e6
               for a, b in zip(appearances, appearances[1:])]
    # The quirk: actual timeouts below the configured 67.1 ms minimum.
    return bool(gaps_ms) and min(gaps_ms) < 60.0


DETECTORS = {
    "non-work-conserving-ets": detect_ets_bug,
    "noisy-neighbor": detect_noisy_neighbor,
    "interoperability": detect_interop,
    "counter-inconsistency": detect_counter_bug,
    "cnp-rate-limiting": detect_cnp_rate_limiting,
    "adaptive-retransmission": detect_adaptive_quirk,
}


def build_matrix():
    return {bug: {nic: detector(nic) for nic in NICS}
            for bug, detector in DETECTORS.items()}


def test_tab02_bug_matrix(benchmark):
    matrix = build_matrix()
    lines = [f"{'bug / hidden behaviour':<28s}" + "".join(f"{n:>7s}" for n in NICS)
             + "   paper",
             "-" * 70]
    for bug, row in matrix.items():
        cells = "".join(f"{'X' if row[nic] else '.':>7s}" for nic in NICS)
        paper = ",".join(sorted(PAPER[bug]))
        lines.append(f"{bug:<28s}{cells}   {paper}")
    emit("tab02_bug_matrix", lines)

    # Affected sets must match the paper exactly.
    for bug, row in matrix.items():
        detected = {nic for nic, hit in row.items() if hit}
        assert detected == PAPER[bug], f"{bug}: {detected} != {PAPER[bug]}"

    benchmark.pedantic(detect_counter_bug, args=("e810",), rounds=1,
                       iterations=1)
