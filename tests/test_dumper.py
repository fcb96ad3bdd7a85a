"""Unit tests for dump records and the dumper server/pool."""

import pytest

from repro.core.trace import parse_record
from repro.dumper.records import TRIM_BYTES, DumpRecord, make_record
from repro.dumper.server import DumperServer
from repro.net.addressing import ROCEV2_UDP_PORT
from repro.net.headers import (
    AckExtendedHeader,
    BaseTransportHeader,
    EthernetHeader,
    Ipv4Header,
    Opcode,
    RdmaExtendedHeader,
    UdpHeader,
)
from repro.net.link import Node, connect, gbps
from repro.net.packet import EventType, Packet


def mirrored_packet(psn=5, opcode=Opcode.RDMA_WRITE_ONLY, payload=1024,
                    mirror_seq=3, timestamp=777, event=EventType.NONE,
                    udp_dst=12345):
    packet = Packet(
        eth=EthernetHeader(src_mac=mirror_seq, dst_mac=timestamp),
        ip=Ipv4Header(src_ip=1, dst_ip=2, ttl=event),
        udp=UdpHeader(src_port=0xC000, dst_port=udp_dst),
        bth=BaseTransportHeader(opcode=opcode, dest_qp=9, psn=psn),
        payload_len=payload,
        is_mirror=True,
    )
    if opcode in (Opcode.RDMA_WRITE_ONLY, Opcode.RDMA_WRITE_FIRST,
                  Opcode.RDMA_READ_REQUEST):
        packet.reth = RdmaExtendedHeader(virtual_address=0x1000, rkey=5,
                                         dma_length=payload)
    if opcode in (Opcode.ACKNOWLEDGE, Opcode.RDMA_READ_RESPONSE_LAST,
                  Opcode.RDMA_READ_RESPONSE_ONLY):
        packet.aeth = AckExtendedHeader.ack(1)
    # IP/UDP length fields must be consistent for payload recovery.
    packet.ip.total_length = packet.size - 14
    packet.udp.length = packet.ip.total_length - 20
    return packet


class TestRecords:
    def test_record_is_trimmed_to_128_bytes(self):
        record = make_record(mirrored_packet(payload=1024), 10, "d0", 0)
        assert len(record.raw) == TRIM_BYTES

    def test_small_packet_not_padded_beyond_wire_size(self):
        packet = mirrored_packet(opcode=Opcode.ACKNOWLEDGE, payload=0)
        record = make_record(packet, 10, "d0", 0)
        assert len(record.raw) == packet.size

    def test_parse_roundtrip_write(self):
        packet = mirrored_packet()
        parsed = parse_record(make_record(packet, 42, "d0", 3))
        assert parsed.opcode == Opcode.RDMA_WRITE_ONLY
        assert parsed.psn == 5
        assert parsed.dest_qp == 9
        assert parsed.payload_len == 1024
        assert parsed.reth is not None
        assert parsed.rx_time_ns == 42
        assert parsed.server == "d0"
        assert parsed.core == 3

    def test_parse_roundtrip_ack(self):
        packet = mirrored_packet(opcode=Opcode.ACKNOWLEDGE, payload=0)
        parsed = parse_record(make_record(packet, 1, "d0", 0))
        assert parsed.aeth is not None
        assert parsed.aeth.is_ack
        assert parsed.payload_len == 0

    def test_parse_decodes_mirror_metadata(self):
        packet = mirrored_packet(mirror_seq=17, timestamp=123456,
                                 event=EventType.DROP)
        parsed = parse_record(make_record(packet, 1, "d0", 0))
        assert parsed.mirror_seq == 17
        assert parsed.timestamp_ns == 123456
        assert parsed.event_type == EventType.DROP
        assert parsed.event_name == "drop"

    def test_conn_key_direction(self):
        parsed = parse_record(make_record(mirrored_packet(), 1, "d0", 0))
        assert parsed.conn_key == (1, 2, 9)

    def test_restored_rewrites_udp_port(self):
        record = make_record(mirrored_packet(udp_dst=55555), 1, "d0", 0)
        restored = record.restored()
        assert parse_record(restored).udp.dst_port == ROCEV2_UDP_PORT
        # Original record is unchanged (restore returns a copy).
        assert parse_record(record).udp.dst_port == 55555

    def test_truncated_record_restores_unchanged(self):
        record = DumpRecord(raw=b"\x00" * 10, rx_time_ns=0, server="d", core=0)
        assert record.restored().raw == record.raw


class _SwitchStub(Node):
    def handle_packet(self, port, packet):  # pragma: no cover
        pass


def wire_server(sim, num_cores=4, core_service_ns=170, ring_slots=8,
                bandwidth=gbps(100)):
    server = DumperServer(sim, "d0", bandwidth, num_cores=num_cores,
                          core_service_ns=core_service_ns, ring_slots=ring_slots)
    stub = _SwitchStub(sim, "sw")
    out = stub.add_port(bandwidth)
    connect(out, server.port, 100)
    return server, out


class TestDumperServer:
    def test_packets_become_records(self, sim):
        server, out = wire_server(sim)
        for psn in range(5):
            out.send(mirrored_packet(psn=psn, udp_dst=1000 + psn))
        sim.run()
        assert server.buffered_records == 5

    def test_rss_spreads_random_ports_across_cores(self, sim):
        server, out = wire_server(sim, num_cores=4)
        for i in range(64):
            out.send(mirrored_packet(psn=i, udp_dst=5000 + i * 13))
        sim.run()
        busy = [c for c in server.core_stats if c["processed"] > 0]
        assert len(busy) >= 3

    def test_single_flow_hits_single_core(self, sim):
        server, out = wire_server(sim, num_cores=4)
        for i in range(32):
            out.send(mirrored_packet(psn=i, udp_dst=4791))
        sim.run()
        busy = [c for c in server.core_stats if c["processed"] > 0]
        assert len(busy) == 1

    def test_ring_overflow_drops(self, sim):
        # One flow, tiny ring, slow core: line-rate burst must overflow.
        server, out = wire_server(sim, num_cores=2, ring_slots=4,
                                  core_service_ns=5_000)
        for i in range(64):
            out.send(mirrored_packet(psn=i, udp_dst=4791))
        sim.run()
        assert server.rx_discards > 0
        assert server.buffered_records < 64

    def test_terminate_restores_ports_and_writes_disk(self, sim):
        server, out = wire_server(sim)
        out.send(mirrored_packet(udp_dst=9999))
        sim.run()
        records = server.terminate()
        assert len(records) == 1
        assert parse_record(records[0]).udp.dst_port == ROCEV2_UDP_PORT
        assert server.buffered_records == 0

    def test_terminate_counts_ring_backlog_as_lost(self, sim):
        # Slow cores + a burst: TERM arrives while rings still hold
        # packets. Those packets never become records, so they must be
        # visible as capture loss, not silently vanish.
        server, out = wire_server(sim, num_cores=2, ring_slots=64,
                                  core_service_ns=50_000)
        for i in range(32):
            out.send(mirrored_packet(psn=i, udp_dst=4791))
        sim.run_for(100_000)  # deliver the burst, barely service any
        backlog = sum(core.backlog for core in server.cores)
        assert backlog > 0
        records = server.terminate()
        assert server.term_dropped == backlog
        assert server.rx_discards == backlog  # folded into discards
        assert len(records) + backlog == 32   # nothing vanishes uncounted
        assert sum(c["term_dropped"] for c in server.core_stats) == backlog
        assert all(core.backlog == 0 for core in server.cores)

    def test_terminate_with_empty_rings_drops_nothing(self, sim):
        server, out = wire_server(sim)
        out.send(mirrored_packet(udp_dst=4791))
        sim.run()
        server.terminate()
        assert server.term_dropped == 0
        assert server.rx_discards == 0

    def test_packets_after_terminate_ignored(self, sim):
        server, out = wire_server(sim)
        server.terminate()
        out.send(mirrored_packet())
        sim.run()
        assert server.buffered_records == 0

    def test_capacity_pps(self, sim):
        server, _ = wire_server(sim, num_cores=8, core_service_ns=170)
        assert server.capacity_pps == 8 * (1_000_000_000 // 170)

    def test_needs_at_least_one_core(self, sim):
        with pytest.raises(ValueError):
            DumperServer(sim, "bad", gbps(10), num_cores=0)
