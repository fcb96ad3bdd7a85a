"""Figure 9 — NACK reaction latency vs PSN of the dropped packet.

Paper: the sender-side phase of Go-back-N recovery. CX5 and CX6 Dx
react within 2–8 µs; CX4 Lx takes hundreds of µs (its overall
retransmission delay is ~200 µs ≈ 100 base RTTs); E810 is ~100 µs.
"""

from conftest import emit
from workloads import analyzer_data, retrans_sweep_config

from repro.core.orchestrator import run_test

NICS = ("cx4", "cx5", "cx6", "e810")
DROP_PSNS = (1, 20, 40, 60, 80, 99)


def measure(nic: str, verb: str, drop_psn: int, seed: int = 0):
    seed = seed or (3 + drop_psn)  # vary jitter draws across sweep points
    result = run_test(retrans_sweep_config(nic, verb, drop_psn, seed))
    event = analyzer_data("retransmission", result)[0]
    assert event.fast_retransmission
    return event


def series(verb: str):
    return {nic: [measure(nic, verb, psn).nack_reaction_ns / 1e3
                  for psn in DROP_PSNS]
            for nic in NICS}


def _render(verb: str, data) -> list:
    lines = [f"NACK reaction latency (us), {verb} traffic",
             "dropped-psn " + "".join(f"{p:>10d}" for p in DROP_PSNS),
             "-" * 75]
    for nic in NICS:
        lines.append(f"{nic:>10s}  " + "".join(f"{v:>10.1f}" for v in data[nic]))
    return lines


def _assert_shape(data):
    # CX5/CX6 in single-digit µs; CX4 hundreds of µs; E810 ~100 µs.
    assert max(data["cx5"]) < 10
    assert max(data["cx6"]) < 10
    assert all(120 < v < 260 for v in data["cx4"])
    assert all(50 < v < 200 for v in data["e810"])
    # Ordering: CX4 is the worst reactor by a large factor (Fig. 9).
    assert min(data["cx4"]) > 10 * max(data["cx6"])


def test_fig09a_write(benchmark):
    data = series("write")
    lines = _render("write", data)
    lines += ["", "paper: CX5/CX6 2-6us; CX4 ~170us; E810 ~100us"]
    emit("fig09a_nack_reaction_write", lines)
    _assert_shape(data)
    benchmark.pedantic(measure, args=("cx4", "write", 50), rounds=3,
                       iterations=1)


def test_fig09b_read(benchmark):
    data = series("read")
    lines = _render("read", data)
    lines += ["", "paper: CX5/CX6 2-4us; CX4 ~170us; E810 ~90us"]
    emit("fig09b_nack_reaction_read", lines)
    _assert_shape(data)
    benchmark.pedantic(measure, args=("cx4", "read", 50), rounds=3,
                       iterations=1)


def test_fig09_total_recovery_headline(benchmark):
    """§2's headline: CX4 retransmission delay ~200 µs ≈ 100 base RTTs."""
    event = measure("cx4", "write", 50)
    total_us = event.total_recovery_ns / 1e3
    lines = [f"CX4 Lx total retransmission delay: {total_us:.1f} us",
             "paper: ~200 us (~100 base RTTs)"]
    emit("fig09_cx4_total_recovery", lines)
    assert 120 < total_us < 320
    benchmark.pedantic(measure, args=("cx4", "write", 50), rounds=3,
                       iterations=1)
