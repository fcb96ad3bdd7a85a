"""Figure 8 — NACK generation latency vs PSN of the dropped packet.

Paper: 100 KB messages over one connection; drop the packet with a
given relative PSN and measure the receiver-side phase of Go-back-N
recovery. Write traffic: consistently low for all four NICs (2–10 µs).
Read traffic: CX5/CX6 stay ~2 µs, CX4 Lx ~150 µs, E810 ~83 ms.
"""

from conftest import emit
from workloads import analyzer_data, retrans_sweep_config

from repro.core.orchestrator import run_test

NICS = ("cx4", "cx5", "cx6", "e810")
DROP_PSNS = (1, 20, 40, 60, 80, 99)


def measure(nic: str, verb: str, drop_psn: int, seed: int = 0):
    seed = seed or (3 + drop_psn)  # vary jitter draws across sweep points
    result = run_test(retrans_sweep_config(nic, verb, drop_psn, seed))
    events = analyzer_data("retransmission", result)
    assert len(events) == 1 and events[0].fast_retransmission
    return events[0]


def series(verb: str):
    return {nic: [measure(nic, verb, psn).nack_generation_ns / 1e3
                  for psn in DROP_PSNS]
            for nic in NICS}


def _render(verb: str, data) -> list:
    lines = [f"NACK generation latency (us), {verb} traffic",
             "dropped-psn " + "".join(f"{p:>10d}" for p in DROP_PSNS),
             "-" * 75]
    for nic in NICS:
        lines.append(f"{nic:>10s}  " + "".join(f"{v:>10.1f}" for v in data[nic]))
    return lines


def test_fig08a_write(benchmark):
    data = series("write")
    lines = _render("write", data)
    lines += ["", "paper: all NICs low and flat; CX5/CX6 ~2us, CX4 ~4us, "
                  "E810 ~10us"]
    emit("fig08a_nack_generation_write", lines)
    for nic in NICS:
        assert max(data[nic]) < 50  # all < 50 µs for Write
    assert max(data["cx5"]) < 10 and max(data["cx6"]) < 10

    benchmark.pedantic(measure, args=("cx5", "write", 50), rounds=3,
                       iterations=1)


def test_fig08b_read(benchmark):
    data = series("read")
    lines = _render("read", data)
    lines += ["", "paper: CX5/CX6 ~2us; CX4 ~150us; E810 ~83ms"]
    emit("fig08b_nack_generation_read", lines)
    assert max(data["cx5"]) < 10
    assert max(data["cx6"]) < 10
    assert all(100 < v < 250 for v in data["cx4"])          # ~150 µs
    assert all(60_000 < v < 110_000 for v in data["e810"])  # ~83 ms

    benchmark.pedantic(measure, args=("cx5", "read", 50), rounds=3,
                       iterations=1)
