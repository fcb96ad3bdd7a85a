"""Golden regression tests: canonical scenarios must stay bit-identical.

The whole value of Lumina-style testing is *reproducibility*: the same
configuration must produce the same wire trace, every time, on every
machine. These tests pin a digest of the canonical scenarios' traces;
they fail on any unintended behavioural change (and on nondeterminism,
which they run twice to detect directly).

If a deliberate model change breaks a digest, re-derive it with:
    python -c "from tests.test_regression_golden import digest_of; ..."
and update the constant together with the change that justified it.
"""

import hashlib
import json

import pytest

from conftest import drop, ecn, run_scenario
from repro.core.orchestrator import run_test
from repro.faults.scenarios import get_scenario
from repro.net.headers import ETH_HEADER_LEN
from repro.store.serialize import encode_result

#: Digest of the stored document of :func:`canonical` (see
#: :func:`document_digest`): pins the campaign store's bytes, trace
#: records included.
CANONICAL_DOCUMENT_DIGEST = "2839ca1d97a0057e"


def digest_of(result) -> str:
    """Stable digest over the wire-visible content of a trace."""
    hasher = hashlib.sha256()
    for pkt in result.trace:
        hasher.update(pkt.eth.pack())
        hasher.update(pkt.ip.pack())
        hasher.update(pkt.udp.pack())
        hasher.update(pkt.bth.pack())
        if pkt.reth is not None:
            hasher.update(pkt.reth.pack())
        if pkt.aeth is not None:
            hasher.update(pkt.aeth.pack())
        hasher.update(pkt.timestamp_ns.to_bytes(8, "big"))
        hasher.update(pkt.iteration.to_bytes(2, "big"))
    return hasher.hexdigest()[:16]


def canonical(seed=1001):
    # Note the ECN mark sits *before* the drop: ITER is sticky per
    # connection, so an iter-1 entry behind the retransmission point
    # would never fire (see test_loss_emulation for that mechanism).
    return run_scenario(nic="cx5", verb="write", num_msgs=3,
                        message_size=10240,
                        events=(drop(psn=5), ecn(psn=3)), seed=seed)


def document_digest(doc) -> str:
    """Digest of a JSON document in the store's canonical key order."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def repacked(pkt) -> bytes:
    """A trace entry's trimmed record rebuilt from its decoded headers.

    Headers packed back to back, zero-padded to the trimmed wire length
    ``min(128, eth + ip.total_length)``: captured payload bytes are
    zeros, so the headers determine every byte of a record.
    """
    parts = [pkt.eth.pack(), pkt.ip.pack(), pkt.udp.pack(), pkt.bth.pack()]
    if pkt.reth is not None:
        parts.append(pkt.reth.pack())
    if pkt.aeth is not None:
        parts.append(pkt.aeth.pack())
    headers = b"".join(parts)
    wire_len = min(128, ETH_HEADER_LEN + pkt.ip.total_length)
    return headers[:wire_len].ljust(wire_len, b"\0")


def cx4_read():
    return run_scenario(nic="cx4", verb="read", num_msgs=3,
                        message_size=10240, seed=1001)


def mirror_loss():
    return run_test(get_scenario("mirror-loss").apply(canonical().config))


class TestStoredDocument:
    def test_canonical_document_digest(self):
        assert document_digest(encode_result(canonical())) == \
            CANONICAL_DOCUMENT_DIGEST

    @pytest.mark.parametrize("scenario", [canonical, cx4_read, mirror_loss],
                             ids=["cx5-write-drop-ecn", "cx4-read",
                                  "mirror-loss"])
    def test_stored_records_are_the_packed_headers(self, scenario):
        result = scenario()
        records = encode_result(result)["trace"]["records"]
        assert len(records) == len(result.trace) > 0
        if scenario is mirror_loss:
            assert result.trace.has_gaps
        for pkt, stored in zip(result.trace, records):
            assert bytes.fromhex(stored["raw"]) == repacked(pkt)


class TestDeterminism:
    def test_identical_runs_produce_identical_traces(self):
        import dataclasses

        first = canonical()
        config = dataclasses.replace(first.config)
        second = run_test(config)
        assert digest_of(first) == digest_of(second)

    def test_different_seed_different_trace(self):
        assert digest_of(canonical(seed=1001)) != digest_of(canonical(seed=1002))

    def test_counters_are_deterministic(self):
        import dataclasses

        first = canonical()
        second = run_test(dataclasses.replace(first.config))
        assert first.requester_counters.canonical == \
            second.requester_counters.canonical
        assert first.responder_counters.canonical == \
            second.responder_counters.canonical

    def test_mct_values_are_deterministic(self):
        import dataclasses

        first = canonical()
        second = run_test(dataclasses.replace(first.config))
        a = [m.completion_time_ns for m in first.traffic_log.all_messages]
        b = [m.completion_time_ns for m in second.traffic_log.all_messages]
        assert a == b


class TestGoldenShapes:
    """Structural invariants of the canonical trace (not exact digests,
    so unrelated additions — e.g. new counters — don't churn them)."""

    def test_canonical_trace_structure(self):
        result = canonical()
        # 3 msgs x 10 packets + 3 retransmitted (drop at psn 5 of msg 1,
        # go-back-N replays 5..10 = 6 packets) -- plus ACK/NAK traffic.
        data = result.trace.data_packets()
        drops = [p for p in data if p.was_dropped]
        marks = [p for p in data if p.was_ecn_marked]
        assert len(drops) == 1
        assert len(marks) == 1
        assert len(result.trace.naks()) == 1
        assert len(result.trace.cnps()) == 1
        seen = set()
        retransmitted = [p for p in data
                         if p.psn in seen or seen.add(p.psn)]
        assert len(retransmitted) == 6

    def test_canonical_counters(self):
        result = canonical()
        req = result.requester_counters
        resp = result.responder_counters
        assert req["packet_seq_err"] == 1
        assert req["retransmitted_packets"] == 6
        assert req["cnp_handled"] == 1
        assert resp["nak_sent"] == 1
        assert resp["cnp_sent"] == 1
        assert resp["rx_icrc_errors"] == 0
        assert req["local_ack_timeout_err"] == 0
