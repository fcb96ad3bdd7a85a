"""Integration tests: injected drops / ECN / corruption and recovery."""

import pytest

from conftest import corrupt, drop, ecn, run_scenario
from repro.net.headers import Opcode
from repro.net.packet import EventType


class TestSingleDropWrite:
    def _result(self):
        return run_scenario(verb="write", num_msgs=3, message_size=4096,
                            events=(drop(psn=2),), seed=5)

    def test_exactly_one_drop_event_in_trace(self):
        result = self._result()
        drops = [p for p in result.trace if p.was_dropped]
        assert len(drops) == 1
        assert drops[0].iteration == 1

    def test_dropped_packet_never_reaches_responder(self):
        result = self._result()
        sent = result.trace.data_packets()
        delivered = result.responder_counters["rx_packets"]
        # Responder misses exactly the dropped copy.
        total_toward_responder = len(sent)
        assert delivered == total_toward_responder - 1 + len(
            [p for p in result.trace if p.opcode == Opcode.RDMA_READ_REQUEST])

    def test_nak_generated_for_gap(self):
        result = self._result()
        naks = result.trace.naks()
        assert len(naks) == 1
        dropped = next(p for p in result.trace if p.was_dropped)
        assert naks[0].psn == dropped.psn

    def test_go_back_n_retransmission(self):
        result = self._result()
        dropped = next(p for p in result.trace if p.was_dropped)
        # Retransmitted packets are those whose PSN reappears; note that
        # ITER is sticky (Fig. 3), so follow-on messages also carry
        # ITER 2 — identify the replay by PSN duplication instead.
        seen = set()
        retrans = []
        for pkt in result.trace.data_packets():
            if pkt.psn in seen:
                retrans.append(pkt)
            seen.add(pkt.psn)
        # Rewind starts exactly at the dropped PSN and replays the rest
        # of the message (packets 2,3,4 of the first 4-packet message).
        assert retrans[0].psn == dropped.psn
        assert len(retrans) == 3
        assert all(p.iteration == 2 for p in retrans)

    def test_all_messages_still_complete(self):
        result = self._result()
        assert result.ok
        assert all(m.ok for m in result.traffic_log.all_messages)

    def test_requester_counters_reflect_recovery(self):
        result = self._result()
        req = result.requester_counters
        resp = result.responder_counters
        assert req["packet_seq_err"] == 1          # one NAK received
        assert req["retransmitted_packets"] == 3   # go-back-N replay
        assert resp["out_of_sequence"] >= 1
        assert resp["nak_sent"] == 1
        assert req["local_ack_timeout_err"] == 0   # fast retransmission


class TestDoubleDrop:
    def test_dropping_retransmission_forces_timeout(self):
        # Listing 2's scenario: drop PSN 5 in rounds 1 AND 2.
        result = run_scenario(verb="write", num_msgs=2, message_size=4096,
                              events=(drop(psn=2), drop(psn=2, iteration=2)),
                              timeout_cfg=10, seed=6)
        drops = [p for p in result.trace if p.was_dropped]
        assert len(drops) == 2
        assert {p.iteration for p in drops} == {1, 2}
        assert result.requester_counters["local_ack_timeout_err"] >= 1
        assert all(m.ok for m in result.traffic_log.all_messages)

    def test_third_round_recovers(self):
        result = run_scenario(verb="write", num_msgs=2, message_size=4096,
                              events=(drop(psn=2), drop(psn=2, iteration=2)),
                              timeout_cfg=10, seed=6)
        dropped_psn = next(p for p in result.trace if p.was_dropped).psn
        final = [p for p in result.trace.data_packets()
                 if p.psn == dropped_psn and not p.was_dropped]
        assert final, "dropped PSN must eventually get through"


class TestTailDrop:
    def test_last_packet_drop_recovers_by_timeout(self):
        # Dropping the LAST packet leaves no later packet to expose the
        # gap: only the retransmission timer can recover (§6.3 setup).
        result = run_scenario(verb="write", num_msgs=1, message_size=4096,
                              events=(drop(psn=4),), timeout_cfg=10, seed=7)
        assert result.requester_counters["local_ack_timeout_err"] == 1
        assert len(result.trace.naks()) == 0
        assert all(m.ok for m in result.traffic_log.all_messages)


class TestDropOnRead:
    def test_read_recovers_via_reissued_request(self):
        result = run_scenario(verb="read", num_msgs=2, message_size=4096,
                              events=(drop(psn=2),), seed=8)
        assert all(m.ok for m in result.traffic_log.all_messages)
        requests = result.trace.by_opcode(Opcode.RDMA_READ_REQUEST)
        # 2 messages + 1 re-issued request for the gap.
        assert len(requests) == 3
        dropped = next(p for p in result.trace if p.was_dropped)
        reissue = [r for r in requests if r.psn == dropped.psn]
        assert len(reissue) == 1

    def test_read_drop_direction_is_responder_to_requester(self):
        result = run_scenario(verb="read", num_msgs=1, message_size=4096,
                              events=(drop(psn=2),), seed=8)
        dropped = next(p for p in result.trace if p.was_dropped)
        meta = result.metadata[0]
        assert dropped.ip.src_ip == meta.responder_ip
        assert dropped.ip.dst_ip == meta.requester_ip
        assert dropped.opcode.is_read_response


class TestEcnInjection:
    def test_marked_packet_visible_in_trace(self):
        result = run_scenario(verb="write", num_msgs=2, message_size=4096,
                              events=(ecn(psn=3),), seed=9)
        marked = [p for p in result.trace if p.was_ecn_marked]
        assert len(marked) == 1
        assert marked[0].event_type == EventType.ECN

    def test_cnp_generated_in_response(self):
        result = run_scenario(verb="write", num_msgs=2, message_size=4096,
                              events=(ecn(psn=3),), seed=9)
        cnps = result.trace.cnps()
        assert len(cnps) == 1
        meta = result.metadata[0]
        # CNP flows from the NP (responder) back to the RP (requester).
        assert cnps[0].ip.src_ip == meta.responder_ip
        assert cnps[0].ip.dst_ip == meta.requester_ip
        assert cnps[0].dest_qp == meta.requester_qpn

    def test_counters_track_marks_and_cnps(self):
        result = run_scenario(verb="write", num_msgs=2, message_size=4096,
                              events=(ecn(psn=3),), seed=9)
        assert result.responder_counters["ecn_marked_packets"] == 1
        assert result.responder_counters["cnp_sent"] == 1
        assert result.requester_counters["cnp_handled"] == 1

    def test_ecn_does_not_trigger_retransmission(self):
        result = run_scenario(verb="write", num_msgs=2, message_size=4096,
                              events=(ecn(psn=3),), seed=9)
        assert result.requester_counters["retransmitted_packets"] == 0
        assert len(result.trace.naks()) == 0


class TestCorruption:
    def test_corrupted_packet_dropped_at_receiver(self):
        result = run_scenario(verb="write", num_msgs=2, message_size=4096,
                              events=(corrupt(psn=2),), seed=10)
        assert result.responder_counters["rx_icrc_errors"] == 1

    def test_corruption_recovered_like_a_loss(self):
        result = run_scenario(verb="write", num_msgs=2, message_size=4096,
                              events=(corrupt(psn=2),), seed=10)
        assert all(m.ok for m in result.traffic_log.all_messages)
        assert result.requester_counters["retransmitted_packets"] >= 1

    def test_corrupt_event_type_in_trace(self):
        result = run_scenario(verb="write", num_msgs=2, message_size=4096,
                              events=(corrupt(psn=2),), seed=10)
        flagged = [p for p in result.trace
                   if p.event_type == EventType.CORRUPT]
        assert len(flagged) == 1


class TestMultiConnectionEvents:
    def test_listing2_event_set(self):
        # ECN on 4th pkt of conn 1; drop 5th of conn 2 twice (iter 1+2).
        result = run_scenario(verb="write", num_connections=2, num_msgs=2,
                              message_size=10240,
                              events=(ecn(qpn=1, psn=4),
                                      drop(qpn=2, psn=5),
                                      drop(qpn=2, psn=5, iteration=2)),
                              timeout_cfg=10, seed=11)
        assert all(m.ok for m in result.traffic_log.all_messages)
        marked = [p for p in result.trace if p.was_ecn_marked]
        dropped = [p for p in result.trace if p.was_dropped]
        assert len(marked) == 1
        assert len(dropped) == 2

    def test_events_only_affect_target_connection(self):
        result = run_scenario(verb="write", num_connections=2, num_msgs=2,
                              message_size=10240,
                              events=(drop(qpn=2, psn=5),), seed=12)
        meta1 = result.metadata[0]
        conn1 = (meta1.requester_ip, meta1.responder_ip, meta1.responder_qpn)
        # Connection 1's packets are untouched.
        assert all(p.event_type == EventType.NONE
                   for p in result.trace.data_packets(conn1))
