"""Unit tests for configuration schema and dict parsing (Listings 1-2)."""

import pytest

from repro.core.config import (
    ConfigError,
    DataPacketEvent,
    DumperPoolConfig,
    EtsConfig,
    EtsQueueSpec,
    HostConfig,
    PeriodicEcnIntent,
    SwitchConfig,
    TestConfig,
    TrafficConfig,
)
from repro.rdma.verbs import Verb


class TestHostConfig:
    def test_defaults(self):
        host = HostConfig(nic_type="cx5")
        assert host.roce.dcqcn_np_enable

    def test_unknown_nic_rejected(self):
        with pytest.raises(ConfigError):
            HostConfig(nic_type="cx9")

    def test_empty_ip_list_rejected(self):
        with pytest.raises(ConfigError):
            HostConfig(nic_type="cx5", ip_list=())

    def test_invalid_bandwidth_rejected(self):
        with pytest.raises(ConfigError):
            HostConfig(nic_type="cx5", bandwidth_gbps=-1)

    def test_listing1_shape_parses(self):
        # Mirrors the paper's Listing 1 requester snippet.
        host = HostConfig.from_dict({
            "nic": {
                "type": "cx4",
                "if-name": "enp4s0",
                "switch-port": 144,
                "ip-list": ["10.0.0.2/24", "10.0.0.12/24"],
            },
            "roce-parameters": {
                "dcqcn-rp-enable": False,
                "dcqcn-np-enable": True,
                "min-time-between-cnps": 0,
                "adaptive-retrans": False,
                "slow-restart": True,
            },
        })
        assert host.nic_type == "cx4"
        assert len(host.ip_list) == 2
        assert host.roce.dcqcn_rp_enable is False
        assert host.roce.min_time_between_cnps_us == 0
        assert host.roce.slow_restart is True


class TestDataPacketEvent:
    def test_valid(self):
        event = DataPacketEvent(qpn=2, psn=5, type="drop", iter=2)
        assert event.iter == 2

    @pytest.mark.parametrize("kwargs", [
        dict(qpn=0, psn=1, type="drop"),
        dict(qpn=1, psn=0, type="drop"),
        dict(qpn=1, psn=1, type="drop", iter=-1),
        dict(qpn=1, psn=1, type="explode"),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ConfigError):
            DataPacketEvent(**kwargs)

    def test_from_dict_listing2_shape(self):
        event = DataPacketEvent.from_dict(
            {"qpn": 2, "psn": 5, "type": "drop", "iter": 2})
        assert (event.qpn, event.psn, event.type, event.iter) == (2, 5, "drop", 2)

    def test_from_dict_iter_defaults_to_one(self):
        assert DataPacketEvent.from_dict(
            {"qpn": 1, "psn": 4, "type": "ecn"}).iter == 1


class TestTrafficConfig:
    def test_defaults_match_listing2_spirit(self):
        traffic = TrafficConfig()
        assert traffic.mtu == 1024
        assert traffic.min_retransmit_timeout == 14
        assert traffic.max_retransmit_retry == 7

    def test_packets_per_message(self):
        traffic = TrafficConfig(message_size=10240, mtu=1024)
        assert traffic.packets_per_message == 10
        assert TrafficConfig(message_size=1, mtu=1024).packets_per_message == 1
        assert TrafficConfig(message_size=1025, mtu=1024).packets_per_message == 2

    def test_packets_per_connection(self):
        traffic = TrafficConfig(message_size=2048, mtu=1024, num_msgs_per_qp=5)
        assert traffic.packets_per_connection == 10

    def test_verb_combos(self):
        traffic = TrafficConfig(rdma_verb="send, read")
        assert traffic.verbs == [Verb.SEND, Verb.READ]

    def test_unknown_verb_rejected(self):
        with pytest.raises(ConfigError):
            TrafficConfig(rdma_verb="fetch")

    def test_event_beyond_stream_rejected(self):
        with pytest.raises(ConfigError):
            TrafficConfig(message_size=1024, num_msgs_per_qp=1,
                          data_pkt_events=(DataPacketEvent(1, 2, "drop"),))

    @pytest.mark.parametrize("field,value", [
        ("num_connections", 0),
        ("num_msgs_per_qp", 0),
        ("mtu", 128),
        ("mtu", 8192),
        ("message_size", 0),
        ("tx_depth", 0),
        ("min_retransmit_timeout", 32),
        ("max_retransmit_retry", 16),
    ])
    def test_invalid_fields(self, field, value):
        with pytest.raises(ConfigError):
            TrafficConfig(**{field: value})

    def test_with_events(self):
        traffic = TrafficConfig(message_size=4096)
        updated = traffic.with_events([DataPacketEvent(1, 2, "drop")])
        assert len(updated.data_pkt_events) == 1
        assert not traffic.data_pkt_events

    def test_from_dict_listing2(self):
        traffic = TrafficConfig.from_dict({
            "num-connections": 2,
            "rdma-verb": "write",
            "num-msgs-per-qp": 10,
            "mtu": 1024,
            "message-size": 10240,
            "multi-gid": True,
            "barrier-sync": True,
            "tx-depth": 1,
            "min-retransmit-timeout": 14,
            "max-retransmit-retry": 7,
            "data-pkt-events": [
                {"qpn": 1, "psn": 4, "type": "ecn", "iter": 1},
                {"qpn": 2, "psn": 5, "type": "drop", "iter": 1},
                {"qpn": 2, "psn": 5, "type": "drop", "iter": 2},
            ],
        })
        assert traffic.num_connections == 2
        assert traffic.multi_gid
        assert len(traffic.data_pkt_events) == 3
        assert traffic.data_pkt_events[2].iter == 2


class TestPeriodicIntents:
    def test_ecn_alias(self):
        intent = PeriodicEcnIntent(qpn=1, period=50)
        assert intent.start == 1
        assert intent.type == "ecn"

    def test_drop_alias(self):
        from repro.core.config import PeriodicDropIntent

        intent = PeriodicDropIntent(qpn=2, period=100)
        assert intent.type == "drop"

    def test_invalid_period(self):
        with pytest.raises(ConfigError):
            PeriodicEcnIntent(qpn=1, period=0)

    def test_invalid_type(self):
        from repro.core.config import PeriodicIntent

        with pytest.raises(ConfigError):
            PeriodicIntent(qpn=1, period=10, type="delay")

    def test_from_dict(self):
        from repro.core.config import PeriodicIntent

        intent = PeriodicIntent.from_dict(
            {"qpn": 1, "period": 50, "start": 3, "type": "drop"})
        assert intent.start == 3
        assert intent.type == "drop"


class TestTestConfig:
    def test_from_dict_full(self):
        config = TestConfig.from_dict({
            "requester": {"nic": {"type": "cx5", "ip-list": ["10.0.0.1/24"]}},
            "responder": {"nic": {"type": "e810", "ip-list": ["10.0.0.2/24"]}},
            "traffic": {"num-connections": 4},
            "dumpers": {"num-servers": 3},
            "switch": {"mirroring": False},
            "seed": 9,
        })
        assert config.requester.nic_type == "cx5"
        assert config.responder.nic_type == "e810"
        assert config.traffic.num_connections == 4
        assert config.dumpers.num_servers == 3
        assert config.switch.mirroring is False
        assert config.seed == 9

    def test_dumper_pool_validation(self):
        with pytest.raises(ConfigError):
            DumperPoolConfig(num_servers=-1)

    def test_switch_defaults(self):
        switch = SwitchConfig()
        assert switch.event_injection and switch.mirroring
        assert switch.randomize_mirror_udp_port

    def test_ets_config_container(self):
        ets = EtsConfig(queues=(EtsQueueSpec(0, 50.0), EtsQueueSpec(1, 50.0)),
                        qp_to_queue={1: 0, 2: 1})
        traffic = TrafficConfig(ets=ets)
        assert traffic.ets.qp_to_queue[2] == 1
