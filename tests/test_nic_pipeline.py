"""NIC-level unit tests: TX arbitration, RX ordering, pipeline quirks."""

from repro import quick_config
from repro.core.testbed import build_testbed
from repro.net.headers import Opcode
from repro.net.packet import Packet
from repro.rdma.verbs import CompletionQueue, Verb, WorkRequest


def make_pair(nic="ideal", seed=3, **cfg_kwargs):
    testbed = build_testbed(quick_config(nic=nic, seed=seed, **cfg_kwargs))
    req_cq, resp_cq = CompletionQueue(), CompletionQueue()
    req = testbed.requester.nic.create_qp(req_cq, testbed.requester.ips[0])
    resp = testbed.responder.nic.create_qp(resp_cq, testbed.responder.ips[0])
    req.connect(testbed.responder.ips[0], resp.qp_num, resp.initial_psn)
    resp.connect(testbed.requester.ips[0], req.qp_num, req.initial_psn)
    return testbed, req, resp, req_cq


class TestTxPath:
    def test_control_queue_preempts_data(self):
        # Queue a large data backlog, then a control packet: the control
        # packet must leave before the remaining data packets.
        testbed, req, resp, _ = make_pair()
        nic = testbed.requester.nic
        order = []
        nic.port.tx_tap = lambda p: order.append(p.bth.opcode)
        req.post_send(WorkRequest(verb=Verb.WRITE, length=16 * 1024))
        # Inject a control packet right away (CNP addressed to peer).
        nic.send_control(req.build_cnp())
        testbed.sim.run()
        first_cnp = order.index(Opcode.CNP)
        assert first_cnp <= 1  # at most one data packet slips out first

    def test_tx_serialises_back_to_back(self):
        testbed, req, resp, _ = make_pair()
        nic = testbed.requester.nic
        times = []
        nic.port.tx_tap = lambda p: times.append(testbed.sim.now)
        req.post_send(WorkRequest(verb=Verb.WRITE, length=4 * 1024))
        testbed.sim.run()
        gaps = [b - a for a, b in zip(times, times[1:])]
        ser = nic.port.serialization_delay_ns(1024 + 58 + 16)
        # Data packets leave one serialisation apart (line rate).
        assert all(abs(g - ser) <= ser * 0.2 for g in gaps[:2])

    def test_pacing_spreads_packets_when_throttled(self):
        testbed, req, resp, _ = make_pair()
        req.dcqcn.handle_cnp()
        req.dcqcn.handle_cnp()  # rate ~ 25 Gbps of 100
        nic = testbed.requester.nic
        times = []
        nic.port.tx_tap = lambda p: times.append(testbed.sim.now)
        req.post_send(WorkRequest(verb=Verb.WRITE, length=4 * 1024))
        testbed.sim.run()
        gaps = [b - a for a, b in zip(times, times[1:])]
        line_gap = nic.port.serialization_delay_ns(1098)
        assert min(gaps) > 2 * line_gap  # visibly paced below line rate


class TestRxPath:
    def test_rx_pipeline_never_reorders(self):
        # Jittered per-packet latency must not swap delivery order: the
        # dispatch floor enforces FIFO (regression for an actual bug).
        testbed, req, resp, cq = make_pair(nic="cx5", seed=11)
        for _ in range(5):
            req.post_send(WorkRequest(verb=Verb.WRITE, length=10 * 1024))
        testbed.sim.run()
        assert len(cq.poll(10)) == 5
        assert testbed.responder.nic.counters["out_of_sequence"] == 0
        assert testbed.responder.nic.counters["nak_sent"] == 0

    def test_non_roce_packets_ignored(self):
        testbed, req, resp, _ = make_pair()
        nic = testbed.responder.nic
        before = nic.counters["rx_packets"]
        nic.handle_packet(nic.port, Packet(payload_len=100))  # plain L2
        testbed.sim.run()
        assert nic.counters["rx_packets"] == before

    def test_unknown_qp_packet_dropped_silently(self):
        testbed, req, resp, _ = make_pair()
        packet = req.pending_tx and None
        req.post_send(WorkRequest(verb=Verb.WRITE, length=1024))
        stray = req.dequeue_tx()
        stray.bth.dest_qp = 0xABCDEF  # nobody home
        testbed.responder.nic.handle_packet(testbed.responder.nic.port, stray)
        testbed.sim.run()
        # Counted as received, then discarded at dispatch.
        assert testbed.responder.nic.counters["rx_packets"] >= 1

    def test_corrupt_packet_counted_and_dropped(self):
        testbed, req, resp, _ = make_pair()
        req.post_send(WorkRequest(verb=Verb.WRITE, length=1024))
        packet = req.dequeue_tx()
        packet.icrc_ok = False
        testbed.responder.nic.handle_packet(testbed.responder.nic.port, packet)
        # Run shorter than the retransmission timeout: the corrupt copy
        # alone must not advance the receiver.
        testbed.sim.run_for(1_000_000)
        assert testbed.responder.nic.counters["rx_icrc_errors"] == 1
        assert resp.epsn == req.initial_psn  # never delivered


class TestStallModel:
    def test_stall_discards_everything(self):
        testbed, req, resp, _ = make_pair(nic="cx4")
        nic = testbed.requester.nic
        nic._stall_until = testbed.sim.now + 1_000_000
        req.post_send(WorkRequest(verb=Verb.WRITE, length=1024))
        packet = req.dequeue_tx()
        nic.handle_packet(nic.port, packet)
        assert nic.counters["rx_discards_phy"] == 1
        assert nic.counters["rx_packets"] == 0  # dropped before counting

    def test_stall_requires_distinct_qps(self):
        testbed, req, resp, _ = make_pair(nic="cx4")
        nic = testbed.requester.nic
        # The same QP entering the slow path repeatedly must not trip
        # the threshold (regression: per-packet counting caused false
        # stalls with a single lossy connection).
        for _ in range(30):
            nic.note_read_loss_event(req)
        assert nic.pipeline_stalls == 0

    def test_stall_triggers_on_threshold_distinct_qps(self):
        testbed, req, resp, cq = make_pair(nic="cx4")
        nic = testbed.requester.nic
        qps = [nic.create_qp(cq, testbed.requester.ips[0]) for _ in range(12)]
        for qp in qps:
            nic.note_read_loss_event(qp)
        assert nic.pipeline_stalls == 1

    def test_profiles_without_bug_never_stall(self):
        testbed, req, resp, cq = make_pair(nic="cx5")
        nic = testbed.requester.nic
        qps = [nic.create_qp(cq, testbed.requester.ips[0]) for _ in range(20)]
        for qp in qps:
            nic.note_read_loss_event(qp)
        assert nic.pipeline_stalls == 0


class TestEtsReconfiguration:
    def test_configure_ets_remaps_existing_qps(self):
        from repro.rdma.ets import EtsQueueConfig

        testbed, req, resp, _ = make_pair()
        nic = testbed.requester.nic
        nic.configure_ets([EtsQueueConfig(0, 0.5), EtsQueueConfig(1, 0.5)])
        # Existing QP got remapped to the first configured queue.
        assert req.ets_queue_index == 0
        nic.ets.assign(req, 1)
        assert req.ets_queue_index == 1
