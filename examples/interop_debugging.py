#!/usr/bin/env python3
"""Debugging the CX5/E810 interoperability problem (§6.2.3).

Walks the exact diagnostic path the paper describes:

1. Run plain Send traffic from E810 to CX5 with 16 QPs — observe
   rx_discards_phy on the CX5 and timeout-inflated completion times.
2. Confirm the control case: CX5 -> CX5 is clean.
3. Inspect the dumped trace — E810's packets carry MigReq=0 while
   CX5's carry MigReq=1 (IB spec says the initial state is 1).
4. Extend the event injector with a rewrite action setting MigReq=1
   on all packets from the E810 — the discards disappear, confirming
   the hypothesis.

Run:  python examples/interop_debugging.py
"""

from repro.core.config import (
    DumperPoolConfig,
    HostConfig,
    TestConfig,
    TrafficConfig,
)
from repro.core.orchestrator import Orchestrator
from repro.net.addressing import int_to_ip
from repro.switch.events import RewriteRule


def build_config(req_nic: str, resp_nic: str, qps: int = 16,
                 seed: int = 21) -> TestConfig:
    return TestConfig(
        requester=HostConfig(nic_type=req_nic, ip_list=("10.0.0.1/24",)),
        responder=HostConfig(nic_type=resp_nic, ip_list=("10.0.0.2/24",)),
        traffic=TrafficConfig(num_connections=qps, rdma_verb="send",
                              num_msgs_per_qp=5, message_size=102400,
                              mtu=1024, barrier_sync=True),
        dumpers=DumperPoolConfig(num_servers=3),
        seed=seed,
        max_duration_ns=120_000_000_000,
    )


def report(tag: str, result) -> None:
    messages = [m for m in result.traffic_log.all_messages if m.ok]
    slow = [m for m in messages if m.completion_time_ns > 1_000_000]
    clean = [m for m in messages if m.completion_time_ns <= 1_000_000]
    avg = lambda xs: sum(x.completion_time_ns for x in xs) / len(xs) / 1e3 if xs else 0
    print(f"{tag}: rx_discards_phy="
          f"{result.responder_counters['rx_discards_phy']}, "
          f"clean MCT {avg(clean):.0f}us, "
          f"affected MCT {avg(slow):.0f}us ({len(slow)} messages)")


def main() -> None:
    print("step 1: E810 -> CX5, 16 QPs, five 100KB Sends per QP")
    broken = Orchestrator(build_config("e810", "cx5")).run()
    report("  e810->cx5", broken)

    print("step 2: control case")
    control = Orchestrator(build_config("cx5", "cx5")).run()
    report("  cx5->cx5 ", control)

    print("step 3: inspect the dumped trace")
    sample = broken.trace.data_packets()[0]
    print(f"  first data packet from {int_to_ip(sample.ip.src_ip)}: "
          f"MigReq={int(sample.bth.migreq)}")
    control_pkt = control.trace.data_packets()[0]
    print(f"  CX5-generated packets carry MigReq="
          f"{int(control_pkt.bth.migreq)} "
          f"(IB spec initial state: 1)")
    print("  hypothesis: MigReq=0 triggers a slow path in CX5's APM logic")

    print("step 4: extend the injector - rewrite MigReq=1 for E810 traffic")
    fix = RewriteRule(field_name="migreq", value=1,
                      src_ip=sample.ip.src_ip)
    fixed = Orchestrator(build_config("e810", "cx5"),
                         rewrite_rules=[fix]).run()
    report("  with fix ", fixed)

    assert fixed.responder_counters["rx_discards_phy"] == 0
    print()
    print("conclusion: once MigReq is forced to 1, CX5 stops discarding -")
    print("the interoperability problem is the APM slow path (§6.2.3).")


if __name__ == "__main__":
    main()
