"""Unit tests for queue-pair mechanics via a minimal two-NIC testbed."""

import pytest

from repro.core.testbed import build_testbed
from repro import quick_config
from repro.rdma.qp import QpState, psn_add, psn_distance, psn_geq
from repro.rdma.verbs import (
    CompletionQueue,
    MemoryRegion,
    Verb,
    WcStatus,
    WorkCompletion,
    WorkRequest,
)


def minimal_pair(nic="ideal", mtu=1024, seed=3):
    testbed = build_testbed(quick_config(nic=nic, mtu=mtu, seed=seed))
    req_cq, resp_cq = CompletionQueue(), CompletionQueue()
    req_nic = testbed.requester.nic
    resp_nic = testbed.responder.nic
    req_qp = req_nic.create_qp(req_cq, testbed.requester.ips[0], mtu=mtu)
    resp_qp = resp_nic.create_qp(resp_cq, testbed.responder.ips[0], mtu=mtu)
    req_qp.connect(testbed.responder.ips[0], resp_qp.qp_num, resp_qp.initial_psn)
    resp_qp.connect(testbed.requester.ips[0], req_qp.qp_num, req_qp.initial_psn)
    return testbed, req_qp, resp_qp, req_cq


class TestVerbObjects:
    def test_work_request_validation(self):
        with pytest.raises(ValueError):
            WorkRequest(verb=Verb.WRITE, length=0)

    def test_wr_ids_unique(self):
        a = WorkRequest(verb=Verb.SEND, length=10)
        b = WorkRequest(verb=Verb.SEND, length=10)
        assert a.wr_id != b.wr_id

    def test_memory_region_contains(self):
        mr = MemoryRegion(address=0x1000, length=0x100)
        assert mr.contains(0x1000, 0x100)
        assert mr.contains(0x1080, 0x10)
        assert not mr.contains(0x0FFF, 1)
        assert not mr.contains(0x1000, 0x101)

    def test_verb_data_direction(self):
        assert Verb.READ.data_from_responder
        assert not Verb.WRITE.data_from_responder
        assert not Verb.SEND.data_from_responder

    def test_cq_poll_drains(self):
        cq = CompletionQueue()
        for i in range(5):
            cq.push(WorkCompletion(wr_id=i, verb=Verb.SEND,
                                   status=WcStatus.SUCCESS, qp_num=1, length=1))
        assert len(cq.poll(3)) == 3
        assert len(cq) == 2

    def test_cq_overflow_counted(self):
        cq = CompletionQueue(capacity=1)
        wc = WorkCompletion(wr_id=1, verb=Verb.SEND,
                            status=WcStatus.SUCCESS, qp_num=1, length=1)
        cq.push(wc)
        cq.push(wc)
        assert cq.overflows == 1

    def test_cq_capacity_validated(self):
        with pytest.raises(ValueError):
            CompletionQueue(capacity=0)

    def test_completion_time(self):
        wc = WorkCompletion(wr_id=1, verb=Verb.SEND, status=WcStatus.SUCCESS,
                            qp_num=1, length=1, posted_at=100, completed_at=350)
        assert wc.completion_time_ns == 250


class TestPsnHelpers:
    def test_add_wraps(self):
        assert psn_add(0xFFFFFF, 1) == 0
        assert psn_add(0xFFFFFE, 3) == 1

    def test_distance(self):
        assert psn_distance(10, 5) == 5
        assert psn_distance(1, 0xFFFFFF) == 2

    def test_geq_window(self):
        assert psn_geq(5, 5)
        assert psn_geq(6, 5)
        assert not psn_geq(5, 6)
        assert psn_geq(1, 0xFFFFFF)  # wrapped forward


class TestQpLifecycle:
    def test_post_before_connect_rejected(self, sim):
        testbed = build_testbed(quick_config())
        cq = CompletionQueue()
        qp = testbed.requester.nic.create_qp(cq, testbed.requester.ips[0])
        assert qp.state is QpState.RESET
        with pytest.raises(RuntimeError):
            qp.post_send(WorkRequest(verb=Verb.WRITE, length=100))

    def test_connect_moves_to_rts(self):
        _, req_qp, resp_qp, _ = minimal_pair()
        assert req_qp.state is QpState.RTS
        assert resp_qp.epsn == req_qp.initial_psn

    def test_qp_numbers_random_and_24_bit(self):
        testbed = build_testbed(quick_config())
        cq = CompletionQueue()
        qpns = {testbed.requester.nic.create_qp(cq, testbed.requester.ips[0]).qp_num
                for _ in range(20)}
        assert len(qpns) == 20
        assert all(0 < q <= 0xFFFFFF for q in qpns)

    def test_write_completes_end_to_end(self):
        testbed, req_qp, _, cq = minimal_pair()
        wr = WorkRequest(verb=Verb.WRITE, length=4096)
        req_qp.post_send(wr)
        testbed.sim.run()
        completions = cq.poll()
        assert len(completions) == 1
        assert completions[0].wr_id == wr.wr_id
        assert completions[0].status is WcStatus.SUCCESS

    def test_read_completes_end_to_end(self):
        testbed, req_qp, _, cq = minimal_pair()
        req_qp.post_send(WorkRequest(verb=Verb.READ, length=4096))
        testbed.sim.run()
        assert cq.poll()[0].status is WcStatus.SUCCESS

    def test_psn_advances_per_packet(self):
        testbed, req_qp, _, _ = minimal_pair()
        start = req_qp.next_psn
        req_qp.post_send(WorkRequest(verb=Verb.WRITE, length=4096))  # 4 pkts
        assert psn_distance(req_qp.next_psn, start) == 4

    def test_read_consumes_response_psns(self):
        testbed, req_qp, _, _ = minimal_pair()
        start = req_qp.next_psn
        req_qp.post_send(WorkRequest(verb=Verb.READ, length=4096))
        assert psn_distance(req_qp.next_psn, start) == 4

    def test_base_timeout_formula(self):
        _, req_qp, _, _ = minimal_pair()
        req_qp.timeout_cfg = 14
        assert req_qp.base_timeout_ns == 4096 * (2 ** 14)
        req_qp.timeout_cfg = 0
        assert req_qp.base_timeout_ns == 4096

    def test_stats_updated_on_completion(self):
        testbed, req_qp, _, _ = minimal_pair()
        req_qp.post_send(WorkRequest(verb=Verb.WRITE, length=4096))
        testbed.sim.run()
        assert req_qp.messages_completed == 1
        assert req_qp.bytes_completed == 4096

    def test_msn_advances_per_message(self):
        testbed, req_qp, resp_qp, _ = minimal_pair()
        for _ in range(3):
            req_qp.post_send(WorkRequest(verb=Verb.WRITE, length=2048))
        testbed.sim.run()
        assert resp_qp.msn == 3
        assert resp_qp.first_message_done
