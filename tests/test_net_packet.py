"""Unit tests for the Packet object: sizes, copies, mirror metadata, iCRC."""

import pytest

from repro.net.checksum import icrc_for
from repro.net.headers import (
    AckExtendedHeader,
    BaseTransportHeader,
    ECN_CE,
    ECN_ECT0,
    EthernetHeader,
    Ipv4Header,
    Opcode,
    RdmaExtendedHeader,
    UdpHeader,
)
from repro.net.link import Node, connect, gbps
from repro.net.packet import EventType, Packet
from repro.sim.engine import Simulator
from repro.sim.rng import SimRandom
from repro.switch.events import EventEntry, RewriteRule
from repro.switch.pipeline import TofinoSwitch


def roce_packet(payload_len=1024, opcode=Opcode.RDMA_WRITE_ONLY,
                with_reth=True) -> Packet:
    return Packet(
        eth=EthernetHeader(dst_mac=2, src_mac=1),
        ip=Ipv4Header(src_ip=0x0A000001, dst_ip=0x0A000002),
        udp=UdpHeader(src_port=0xC123, dst_port=4791),
        bth=BaseTransportHeader(opcode=opcode, dest_qp=0x1234, psn=100),
        reth=RdmaExtendedHeader(dma_length=payload_len) if with_reth else None,
        payload_len=payload_len,
    )


class TestSizes:
    def test_l2_only_size(self):
        packet = Packet(payload_len=50)
        assert packet.size == 14 + 50

    def test_full_roce_size(self):
        # Eth(14)+IP(20)+UDP(8)+BTH(12)+RETH(16)+payload+iCRC(4)
        packet = roce_packet(payload_len=1024)
        assert packet.size == 14 + 20 + 8 + 12 + 16 + 1024 + 4

    def test_ack_packet_size(self):
        packet = Packet(
            ip=Ipv4Header(), udp=UdpHeader(),
            bth=BaseTransportHeader(opcode=Opcode.ACKNOWLEDGE),
            aeth=AckExtendedHeader.ack(),
        )
        assert packet.size == 14 + 20 + 8 + 12 + 4 + 4

    def test_header_len_excludes_payload_and_crc(self):
        packet = roce_packet(payload_len=500)
        assert packet.header_len == 14 + 20 + 8 + 12 + 16

    def test_pack_headers_matches_header_len(self):
        packet = roce_packet()
        assert len(packet.pack_headers()) == packet.header_len


class TestProperties:
    def test_is_roce(self):
        assert roce_packet().is_roce
        assert not Packet().is_roce

    def test_accessors(self):
        packet = roce_packet()
        assert packet.opcode == Opcode.RDMA_WRITE_ONLY
        assert packet.psn == 100
        assert packet.dest_qp == 0x1234

    def test_accessors_none_without_bth(self):
        packet = Packet()
        assert packet.opcode is None
        assert packet.psn is None


class TestCopy:
    def test_copy_is_deep(self):
        original = roce_packet()
        clone = original.copy()
        clone.ip.ttl = 3
        clone.bth.psn = 999
        assert original.ip.ttl != 3
        assert original.bth.psn == 100

    def test_copy_gets_fresh_packet_id(self):
        original = roce_packet()
        assert original.copy().packet_id != original.packet_id

    def test_copy_preserves_icrc_state(self):
        original = roce_packet()
        original.icrc_ok = False
        assert original.copy().icrc_ok is False


class TestIcrc:
    def test_icrc_stable_for_same_packet(self):
        assert roce_packet().icrc() == roce_packet().icrc()

    def test_corruption_changes_icrc(self):
        good = roce_packet()
        bad = roce_packet()
        bad.icrc_ok = False
        assert good.icrc() != bad.icrc()

    def test_icrc_depends_on_transport_headers(self):
        a = roce_packet()
        b = roce_packet()
        b.bth.psn = 101
        assert a.icrc() != b.icrc()

    def test_icrc_payload_length_matters(self):
        assert icrc_for(b"\x01\x02", 10) != icrc_for(b"\x01\x02", 11)


class TestMirrorMetadata:
    def test_metadata_accessors_read_rewritten_fields(self):
        packet = roce_packet()
        packet.ip.ttl = EventType.DROP
        packet.eth.src_mac = 12345        # mirror sequence
        packet.eth.dst_mac = 987654321    # timestamp
        assert packet.mirror_event_type == EventType.DROP
        assert packet.mirror_seq == 12345
        assert packet.mirror_timestamp_ns == 987654321

    def test_event_type_names(self):
        assert EventType.NAMES[EventType.NONE] == "none"
        assert EventType.NAMES[EventType.DROP] == "drop"
        assert EventType.NAMES[EventType.ECN] == "ecn"
        assert EventType.NAMES[EventType.CORRUPT] == "corrupt"

    def test_mirror_event_type_requires_ip(self):
        with pytest.raises(ValueError):
            Packet().mirror_event_type


# ----------------------------------------------------------------------
# In-place rewrites on the switch path. Each one changes header fields
# of a packet whose size and wire bytes were already read; afterwards
# the packet must serialise and size exactly like a freshly built one.
# ----------------------------------------------------------------------
def data_packet(psn=5, migreq=True, ttl=64, src_mac=1, dst_mac=2,
                dst_port=4791, ecn=ECN_ECT0) -> Packet:
    return Packet(
        eth=EthernetHeader(dst_mac=dst_mac, src_mac=src_mac),
        ip=Ipv4Header(src_ip=1, dst_ip=2, ttl=ttl, ecn=ecn),
        udp=UdpHeader(src_port=0xC001, dst_port=dst_port),
        bth=BaseTransportHeader(opcode=Opcode.RDMA_WRITE_ONLY, dest_qp=7,
                                psn=psn, migreq=migreq),
        reth=RdmaExtendedHeader(dma_length=256),
        payload_len=256,
    )


class _Sink(Node):
    def __init__(self, sim, name):
        super().__init__(sim, name)
        self.received = []

    def handle_packet(self, port, packet):
        self.received.append(packet)


def through_switch(packets, setup=None, egress_gbps=100, **switch_kw):
    """Send ``packets`` from host 1 to host 2 across one switch that
    mirrors to a dumper; return the switch, what host 2 received and
    the mirrored clones. ``setup(switch)`` runs before the first send."""
    sim = Simulator()
    switch = TofinoSwitch(sim, "sw", SimRandom(3), **switch_kw)
    src, dst, dumper = _Sink(sim, "a"), _Sink(sim, "b"), _Sink(sim, "d")
    for host, ip, bandwidth in ((src, 1, gbps(100)),
                                (dst, 2, gbps(egress_gbps))):
        sw_port = switch.add_host_port(bandwidth)
        connect(sw_port, host.add_port(bandwidth), 100)
        switch.set_forwarding(ip, sw_port)
    connect(switch.add_dumper_port(gbps(100)), dumper.add_port(gbps(100)),
            100)
    if setup is not None:
        setup(switch)
    for packet in packets:
        src.ports[0].send(packet)
    sim.run()
    return switch, dst.received, dumper.received


def _event_ecn(packet):
    switch, received, _ = through_switch(
        [packet],
        setup=lambda sw: sw.install_event(EventEntry(1, 2, 7, 5, 1, "ecn")))
    assert switch.ecn_marked_by_event == 1
    return received[0], {"ecn": ECN_CE}


def _queue_ecn(packet):
    # A slow egress link keeps the leading packet queued when the packet
    # under test arrives, so only the second one crosses the threshold.
    switch, received, _ = through_switch(
        [data_packet(psn=4), packet], egress_gbps=1, ecn_threshold_bytes=0)
    assert switch.ecn_marked_by_queue == 1
    return received[1], {"ecn": ECN_CE}


def _rewrite_migreq(packet):
    _, received, _ = through_switch(
        [packet],
        setup=lambda sw: sw.install_rewrite(RewriteRule("migreq", 0)))
    return received[0], {"migreq": False}


def _mirror_stamp(packet):
    _, _, mirrored = through_switch([packet])
    clone = mirrored[0]
    return clone, {"ttl": clone.ip.ttl, "src_mac": clone.eth.src_mac,
                   "dst_mac": clone.eth.dst_mac,
                   "dst_port": clone.udp.dst_port}


class TestInPlaceRewrites:
    @pytest.mark.parametrize("rewrite", [_event_ecn, _queue_ecn,
                                         _rewrite_migreq, _mirror_stamp],
                             ids=["event-ecn", "queue-ecn", "rewrite-migreq",
                                  "mirror-stamp"])
    def test_rewritten_packet_matches_a_fresh_one(self, rewrite):
        packet = data_packet()
        size_before = packet.size
        bytes_before = packet.pack_headers()
        out, fields = rewrite(packet)
        fresh = data_packet(**fields)
        assert out.pack_headers() != bytes_before
        assert out.pack_headers() == fresh.pack_headers()
        assert out.size == fresh.size == size_before
