"""Tests for deterministic loss-rate emulation (any-round wildcard events).

A fixed loss pattern like "drop every 100th packet" cannot be expressed
with exact (PSN, ITER) entries alone: the first recovery moves the
connection into ITER 2 and later iter-1 entries go dead. The extension
uses iteration-wildcard entries with max_hits=1 — "drop the first
occurrence of PSN N, whichever round it appears in".
"""

import pytest

from conftest import run_scenario
from repro.core.config import (
    DumperPoolConfig,
    HostConfig,
    PeriodicDropIntent,
    PeriodicIntent,
    TestConfig,
    TrafficConfig,
)
from repro.core.intent import expand_periodic_events
from repro.core.orchestrator import run_test
from repro.switch.events import ANY_ITERATION, EventEntry
from repro.switch.tables import MatchActionTable


class TestWildcardTable:
    def _wild(self, psn=4, max_hits=1):
        return EventEntry(1, 2, 3, psn, ANY_ITERATION, "drop",
                          max_hits=max_hits)

    def test_wildcard_matches_any_iteration(self):
        table = MatchActionTable()
        table.install(self._wild(max_hits=0))
        assert table.lookup(1, 2, 3, 4, 1) is not None
        assert table.lookup(1, 2, 3, 4, 5) is not None

    def test_max_hits_exhausts_entry(self):
        table = MatchActionTable()
        table.install(self._wild(max_hits=1))
        assert table.lookup(1, 2, 3, 4, 2) is not None
        assert table.lookup(1, 2, 3, 4, 3) is None  # spent

    def test_exact_entry_takes_precedence(self):
        table = MatchActionTable()
        exact = EventEntry(1, 2, 3, 4, 2, "ecn")
        table.install(exact)
        table.install(self._wild())
        assert table.lookup(1, 2, 3, 4, 2) is exact

    def test_wildcard_counts_toward_capacity(self):
        table = MatchActionTable(capacity=1)
        table.install(self._wild())
        with pytest.raises(RuntimeError):
            table.install(EventEntry(9, 2, 3, 4, 1, "drop"))

    def test_duplicate_wildcard_rejected(self):
        table = MatchActionTable()
        table.install(self._wild())
        with pytest.raises(ValueError):
            table.install(self._wild())

    def test_clear_removes_wildcards(self):
        table = MatchActionTable()
        table.install(self._wild())
        table.clear()
        assert len(table) == 0


class TestPeriodicExpansionTypes:
    def test_drop_intents_expand_to_any_round(self):
        traffic = TrafficConfig(message_size=102400, mtu=1024,
                                num_msgs_per_qp=2)
        events = expand_periodic_events(
            traffic, [PeriodicDropIntent(qpn=1, period=100)])
        assert all(e.iter == 0 for e in events)
        assert all(e.type == "drop" for e in events)

    def test_ecn_intents_stay_first_round(self):
        traffic = TrafficConfig(message_size=102400, mtu=1024,
                                num_msgs_per_qp=2)
        events = expand_periodic_events(
            traffic, [PeriodicIntent(qpn=1, period=50, type="ecn")])
        assert all(e.iter == 1 for e in events)


class TestLossRateEndToEnd:
    def _run(self, period, nic="cx5", msgs=5, seed=19):
        traffic = TrafficConfig(
            num_connections=1, rdma_verb="write", num_msgs_per_qp=msgs,
            message_size=102400, mtu=1024, barrier_sync=False, tx_depth=2,
            min_retransmit_timeout=17,
            periodic_events=(PeriodicDropIntent(qpn=1, period=period),),
        )
        config = TestConfig(
            requester=HostConfig(nic_type=nic, ip_list=("10.0.0.1/24",)),
            responder=HostConfig(nic_type=nic, ip_list=("10.0.0.2/24",)),
            traffic=traffic, seed=seed,
            dumpers=DumperPoolConfig(num_servers=3),
        )
        return run_test(config)

    def test_every_scheduled_drop_fires(self):
        result = self._run(period=100)  # 500 packets -> 5 drops
        assert result.switch_counters["dropped_by_event"] == 5

    def test_drops_fire_in_later_rounds_too(self):
        result = self._run(period=100)
        dropped = [p for p in result.trace if p.was_dropped]
        # After the first loss, the stream is in round >= 2, yet the
        # remaining scheduled losses still land.
        assert {p.iteration for p in dropped} != {1}

    def test_all_messages_complete_despite_losses(self):
        result = self._run(period=100)
        assert all(m.ok for m in result.traffic_log.all_messages)
        assert result.integrity.ok

    def test_goodput_degrades_with_loss_rate(self):
        lossless = run_scenario(nic="cx5", verb="write", num_msgs=5,
                                message_size=102400, barrier_sync=False,
                                tx_depth=2, seed=19)
        lossy = self._run(period=100)
        assert lossy.traffic_log.total_goodput_bps() < \
            0.9 * lossless.traffic_log.total_goodput_bps()

    def test_slow_recovery_nic_suffers_more(self):
        cx5 = self._run(period=100, nic="cx5")
        cx4 = self._run(period=100, nic="cx4")
        cx5_keep = cx5.traffic_log.total_goodput_bps() / 100e9
        cx4_keep = cx4.traffic_log.total_goodput_bps() / 40e9
        # Fraction of line rate retained under 1% loss: CX5 >> CX4.
        assert cx5_keep > 2 * cx4_keep

    def test_any_round_event_fires_exactly_once(self):
        result = self._run(period=100)
        dropped_psns = [p.psn for p in result.trace if p.was_dropped]
        assert len(dropped_psns) == len(set(dropped_psns))
