"""Direct switch-level tests for the §7 extension actions."""

from repro.net.headers import BaseTransportHeader, Ipv4Header, Opcode, UdpHeader
from repro.net.link import Node, connect, gbps
from repro.net.packet import EventType, Packet
from repro.sim.rng import SimRandom
from repro.switch.events import ANY_ITERATION, EventEntry
from repro.switch.pipeline import TofinoSwitch


class Host(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def handle_packet(self, port, packet):
        self.received.append((self.sim.now, packet))


def build(sim):
    switch = TofinoSwitch(sim, "sw", SimRandom(3))
    a, b = Host(sim, "a"), Host(sim, "b")
    for host, ip in ((a, 1), (b, 2)):
        sw_port = switch.add_host_port(gbps(100))
        connect(sw_port, host.add_port(gbps(100)), 100)
        switch.set_forwarding(ip, sw_port)
    return switch, a, b


def data_packet(psn, qpn=7):
    return Packet(
        ip=Ipv4Header(src_ip=1, dst_ip=2),
        udp=UdpHeader(src_port=0xC001, dst_port=4791),
        bth=BaseTransportHeader(opcode=Opcode.SEND_ONLY, dest_qp=qpn, psn=psn),
        payload_len=256,
    )


class TestDelayAction:
    def test_delay_holds_packet_for_configured_time(self, sim):
        switch, a, b = build(sim)
        switch.install_event(EventEntry(1, 2, 7, 5, 1, "delay",
                                        delay_ns=50_000))
        a.ports[0].send(data_packet(5))
        a.ports[0].send(data_packet(6))
        sim.run()
        arrival = {p.bth.psn: t for t, p in b.received}
        assert arrival[5] - arrival[6] >= 45_000  # 5 held ~50 µs
        assert len(b.received) == 2

    def test_delay_counter(self, sim):
        switch, a, b = build(sim)
        switch.install_event(EventEntry(1, 2, 7, 5, 1, "delay",
                                        delay_ns=1_000))
        a.ports[0].send(data_packet(5))
        sim.run()
        assert switch.delayed_by_event == 1
        assert switch.dump_counters()["delayed_by_event"] == 1

    def test_delayed_packet_mirrored_with_delay_code(self, sim):
        switch, a, b = build(sim)
        dumper = Host(sim, "d")
        port = switch.add_dumper_port(gbps(100))
        connect(port, dumper.add_port(gbps(100)), 100)
        switch.install_event(EventEntry(1, 2, 7, 5, 1, "delay",
                                        delay_ns=1_000))
        a.ports[0].send(data_packet(5))
        sim.run()
        assert dumper.received[0][1].ip.ttl == EventType.DELAY


class TestReorderAction:
    def test_reorder_swaps_with_next_packet(self, sim):
        switch, a, b = build(sim)
        switch.install_event(EventEntry(1, 2, 7, 5, 1, "reorder"))
        a.ports[0].send(data_packet(5))
        a.ports[0].send(data_packet(6))
        sim.run()
        order = [p.bth.psn for _, p in sorted(b.received)]
        assert order == [6, 5]
        assert switch.reordered_by_event == 1

    def test_reorder_without_successor_uses_safety_timer(self, sim):
        switch, a, b = build(sim)
        switch.reorder_release_timeout_ns = 30_000
        switch.install_event(EventEntry(1, 2, 7, 5, 1, "reorder"))
        a.ports[0].send(data_packet(5))
        sim.run()
        assert len(b.received) == 1
        assert b.received[0][0] >= 30_000

    def test_reorder_scoped_to_connection(self, sim):
        # A packet of a different connection must not release the hold.
        switch, a, b = build(sim)
        switch.reorder_release_timeout_ns = 50_000
        switch.install_event(EventEntry(1, 2, 7, 5, 1, "reorder"))
        a.ports[0].send(data_packet(5, qpn=7))
        a.ports[0].send(data_packet(1, qpn=9))  # other connection
        sim.run()
        arrival = {(p.bth.dest_qp, p.bth.psn): t for t, p in b.received}
        assert arrival[(7, 5)] >= 50_000       # released by safety timer
        assert arrival[(9, 1)] < 10_000

    def test_second_reorder_releases_first(self, sim):
        switch, a, b = build(sim)
        switch.install_event(EventEntry(1, 2, 7, 5, 1, "reorder"))
        switch.install_event(EventEntry(1, 2, 7, 6, 1, "reorder"))
        a.ports[0].send(data_packet(5))
        a.ports[0].send(data_packet(6))
        a.ports[0].send(data_packet(7))
        sim.run()
        psns = {p.bth.psn for _, p in b.received}
        assert psns == {5, 6, 7}  # nothing lost


class TestWildcardInPipeline:
    def test_any_round_entry_fires_on_retransmission_round(self, sim):
        switch, a, b = build(sim)
        switch.install_event(EventEntry(1, 2, 7, 5, ANY_ITERATION, "drop",
                                        max_hits=1))
        # First pass a later PSN so the wildcard target arrives in a
        # higher ITER (as happens after a recovery).
        a.ports[0].send(data_packet(9))
        sim.run()
        a.ports[0].send(data_packet(5))  # ITER 2 for this connection
        sim.run()
        assert switch.dropped_by_event == 1
        delivered = {p.bth.psn for _, p in b.received}
        assert 5 not in delivered

    def test_spent_wildcard_lets_retransmission_through(self, sim):
        switch, a, b = build(sim)
        switch.install_event(EventEntry(1, 2, 7, 5, ANY_ITERATION, "drop",
                                        max_hits=1))
        a.ports[0].send(data_packet(5))
        sim.run()
        a.ports[0].send(data_packet(5))  # retransmission
        sim.run()
        assert switch.dropped_by_event == 1
        assert any(p.bth.psn == 5 for _, p in b.received)
