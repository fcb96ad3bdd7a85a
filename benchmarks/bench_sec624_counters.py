"""§6.2.4 — incorrect RNIC counters.

Paper findings, both vendor-confirmed:

* Intel E810's ``cnpSent`` stays unchanged although the dumped trace
  shows CNPs being generated.
* NVIDIA CX4 Lx's ``implied_nak_seq_err`` stays unchanged when Read
  responses are dropped, while CX5/CX6 Dx increment it as expected.

The counter analyzer recomputes expected values from the wire trace and
diffs them against what each NIC reports.
"""

from conftest import emit
from workloads import analyzer_data, two_host_config

from repro.core.config import DataPacketEvent, TrafficConfig
from repro.core.orchestrator import run_test

NICS = ("cx4", "cx5", "cx6", "e810")


def run_ecn_scenario(nic: str, seed: int = 9):
    traffic = TrafficConfig(num_connections=1, rdma_verb="write",
                            num_msgs_per_qp=3, message_size=10240, mtu=1024,
                            data_pkt_events=(DataPacketEvent(1, 3, "ecn"),
                                             DataPacketEvent(1, 23, "ecn")))
    return run_test(two_host_config(nic, traffic, seed))


def run_read_loss_scenario(nic: str, seed: int = 5):
    traffic = TrafficConfig(num_connections=1, rdma_verb="read",
                            num_msgs_per_qp=3, message_size=10240, mtu=1024,
                            data_pkt_events=(DataPacketEvent(1, 2, "drop"),))
    return run_test(two_host_config(nic, traffic, seed))


def test_sec624_counter_bugs(benchmark):
    lines = ["scenario          nic    mismatched counters", "-" * 60]
    cnp_bug = {}
    nak_bug = {}
    for nic in NICS:
        report = analyzer_data("counters", run_ecn_scenario(nic))
        names = sorted({m.vendor_counter for m in report.mismatches})
        cnp_bug[nic] = names
        lines.append(f"ECN/CNP          {nic:>5s}   {names or '-'}")
    for nic in NICS:
        report = analyzer_data("counters", run_read_loss_scenario(nic))
        names = sorted({m.vendor_counter for m in report.mismatches})
        nak_bug[nic] = names
        lines.append(f"Read loss        {nic:>5s}   {names or '-'}")
    lines += ["", "paper: E810 cnpSent stuck; CX4 implied_nak_seq_err stuck",
              "on Read; CX5/CX6 increment both correctly"]
    emit("sec624_counter_bugs", lines)

    assert cnp_bug["e810"] == ["cnpSent"]
    assert cnp_bug["cx4"] == cnp_bug["cx5"] == cnp_bug["cx6"] == []
    assert nak_bug["cx4"] == ["implied_nak_seq_err"]
    assert nak_bug["cx5"] == nak_bug["cx6"] == nak_bug["e810"] == []

    benchmark.pedantic(run_ecn_scenario, args=("e810",), rounds=2,
                       iterations=1)


def test_sec624_trace_is_the_ground_truth(benchmark):
    """The bug is detectable only because the dumped trace disagrees."""
    result = run_ecn_scenario("e810")
    cnps_on_wire = len(result.trace.cnps())
    reported = result.responder_counters.vendor["cnpSent"]
    lines = [f"CNPs in dumped trace: {cnps_on_wire}",
             f"E810 cnpSent counter: {reported}",
             "paper: counter remains unchanged while the receiver does "
             "generate CNPs as shown in the dumped packet trace"]
    emit("sec624_e810_cnpsent_evidence", lines)
    assert cnps_on_wire > 0
    assert reported == 0
    benchmark.pedantic(run_ecn_scenario, args=("cx5",), rounds=2,
                       iterations=1)
