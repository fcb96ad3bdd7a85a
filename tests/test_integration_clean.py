"""Integration tests: clean (event-free) end-to-end runs per verb."""

import pytest

from conftest import run_scenario
from repro.net.headers import Opcode


class TestCleanWrite:
    def test_all_messages_complete(self):
        result = run_scenario(verb="write", num_msgs=5, message_size=4096)
        assert result.ok
        messages = result.traffic_log.all_messages
        assert len(messages) == 5
        assert all(m.ok for m in messages)

    def test_packet_count_matches_geometry(self):
        # 5 msgs * 4 packets data + 5 ACKs = 25 RoCE packets.
        result = run_scenario(verb="write", num_msgs=5, message_size=4096)
        assert len(result.trace.data_packets()) == 20
        assert len(result.trace.acks()) == 5
        assert len(result.trace) == 25

    def test_opcode_sequence_per_message(self):
        result = run_scenario(verb="write", num_msgs=1, message_size=4096)
        opcodes = [p.opcode for p in result.trace.data_packets()]
        assert opcodes == [
            Opcode.RDMA_WRITE_FIRST,
            Opcode.RDMA_WRITE_MIDDLE,
            Opcode.RDMA_WRITE_MIDDLE,
            Opcode.RDMA_WRITE_LAST,
        ]

    def test_single_packet_message_uses_only(self):
        result = run_scenario(verb="write", num_msgs=1, message_size=512)
        opcodes = [p.opcode for p in result.trace.data_packets()]
        assert opcodes == [Opcode.RDMA_WRITE_ONLY]

    def test_psns_are_consecutive(self):
        result = run_scenario(verb="write", num_msgs=2, message_size=4096)
        psns = [p.psn for p in result.trace.data_packets()]
        first = psns[0]
        assert psns == [(first + i) & 0xFFFFFF for i in range(8)]

    def test_all_iterations_are_one(self):
        result = run_scenario(verb="write", num_msgs=3, message_size=4096)
        assert all(p.iteration == 1 for p in result.trace)

    def test_no_retransmission_counters(self):
        result = run_scenario(verb="write", num_msgs=3, message_size=4096)
        for host in (result.requester_counters, result.responder_counters):
            assert host["retransmitted_packets"] == 0
            assert host["out_of_sequence"] == 0
            assert host["local_ack_timeout_err"] == 0

    def test_goodput_positive_and_below_line_rate(self):
        result = run_scenario(verb="write", num_msgs=10, message_size=65536,
                              barrier_sync=False, tx_depth=4)
        goodput = result.traffic_log.total_goodput_bps()
        assert 0 < goodput < 100e9


class TestCleanSend:
    def test_send_completes(self):
        result = run_scenario(verb="send", num_msgs=4, message_size=2048)
        assert result.ok
        assert len(result.traffic_log.all_messages) == 4

    def test_send_opcodes(self):
        result = run_scenario(verb="send", num_msgs=1, message_size=2048)
        opcodes = [p.opcode for p in result.trace.data_packets()]
        assert opcodes == [Opcode.SEND_FIRST, Opcode.SEND_LAST]

    def test_send_has_no_reth(self):
        result = run_scenario(verb="send", num_msgs=1, message_size=2048)
        assert all(p.reth is None for p in result.trace.data_packets())


class TestCleanRead:
    def test_read_completes(self):
        result = run_scenario(verb="read", num_msgs=4, message_size=4096)
        assert result.ok
        assert all(m.ok for m in result.traffic_log.all_messages)

    def test_read_request_and_response_streams(self):
        result = run_scenario(verb="read", num_msgs=2, message_size=4096)
        requests = result.trace.by_opcode(Opcode.RDMA_READ_REQUEST)
        responses = [p for p in result.trace if p.opcode.is_read_response]
        assert len(requests) == 2
        assert len(responses) == 8

    def test_response_psns_extend_request_psn(self):
        result = run_scenario(verb="read", num_msgs=1, message_size=4096)
        request = result.trace.by_opcode(Opcode.RDMA_READ_REQUEST)[0]
        responses = [p for p in result.trace if p.opcode.is_read_response]
        assert [p.psn for p in responses] == \
               [(request.psn + i) & 0xFFFFFF for i in range(4)]

    def test_read_requests_carry_reth(self):
        result = run_scenario(verb="read", num_msgs=1, message_size=4096)
        request = result.trace.by_opcode(Opcode.RDMA_READ_REQUEST)[0]
        assert request.reth is not None
        assert request.reth.dma_length == 4096

    def test_no_acks_for_read(self):
        result = run_scenario(verb="read", num_msgs=2, message_size=4096)
        assert len(result.trace.naks()) == 0


class TestVerbCombination:
    def test_send_read_alternates(self):
        result = run_scenario(verb="send,read", num_msgs=4, message_size=2048)
        assert result.ok
        verbs = [m.verb.value for m in sorted(result.traffic_log.all_messages,
                                              key=lambda m: m.msg_index)]
        assert verbs == ["send", "read", "send", "read"]


class TestMultiConnection:
    def test_messages_complete_on_every_connection(self):
        result = run_scenario(verb="write", num_connections=4, num_msgs=3,
                              message_size=2048)
        assert result.ok
        for qp in result.traffic_log.per_qp:
            assert len(qp.completed_messages) == 3

    def test_one_data_connection_per_qp(self):
        result = run_scenario(verb="write", num_connections=4, num_msgs=2,
                              message_size=2048)
        data_conns = {p.conn_key for p in result.trace.data_packets()}
        assert len(data_conns) == 4

    def test_qpns_are_distinct(self):
        result = run_scenario(verb="write", num_connections=8, num_msgs=1,
                              message_size=1024)
        qpns = {meta.responder_qpn for meta in result.metadata}
        assert len(qpns) == 8


class TestIntegrityEndToEnd:
    @pytest.mark.parametrize("verb", ["write", "send", "read"])
    def test_integrity_passes(self, verb):
        result = run_scenario(verb=verb, num_msgs=3, message_size=4096)
        assert result.integrity.ok

    def test_mirror_seqs_consecutive(self):
        result = run_scenario(verb="write", num_msgs=3, message_size=4096)
        seqs = [p.mirror_seq for p in result.trace]
        assert seqs == list(range(len(seqs)))

    def test_switch_timestamps_monotonic_in_seq_order(self):
        result = run_scenario(verb="write", num_msgs=3, message_size=4096)
        stamps = [p.timestamp_ns for p in result.trace]
        assert all(b >= a for a, b in zip(stamps, stamps[1:]))

    def test_determinism_same_seed_same_trace(self):
        a = run_scenario(verb="write", num_msgs=3, seed=77)
        b = run_scenario(verb="write", num_msgs=3, seed=78)
        # Different seeds give different QPNs.
        assert a.metadata[0].responder_qpn != b.metadata[0].responder_qpn

    def test_mirroring_off_yields_empty_trace_and_skips_integrity(self):
        result = run_scenario(verb="write", num_msgs=2, mirroring=False,
                              num_dumpers=0)
        assert len(result.trace) == 0
        assert result.traffic_log.all_messages
