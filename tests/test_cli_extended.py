"""CLI coverage for the suite/incast commands and dumper-pool details."""

from repro.__main__ import main
from repro.core.testbed import build_testbed
from repro import quick_config


class TestSuiteCli:
    def test_failing_nic_returns_nonzero(self, capsys):
        code = main(["suite", "cx6", "--checks", "ets-work-conservation"])
        out = capsys.readouterr().out
        assert code == 1
        assert "FAIL" in out

    def test_passing_nic_returns_zero(self, capsys):
        code = main(["suite", "cx5", "--checks", "ets-work-conservation"])
        assert code == 0


class TestIncastCli:
    def test_incast_command_reports_metrics(self, capsys):
        code = main(["incast", "--senders", "2", "--messages", "2",
                     "--size", str(64 * 1024)])
        out = capsys.readouterr().out
        assert code == 0
        assert "aggregate goodput" in out
        assert "fairness (Jain)" in out
        assert "capture integrity: PASS" in out

    def test_incast_with_shallow_queue_shows_drops(self, capsys):
        code = main(["incast", "--senders", "4", "--messages", "3",
                     "--queue-kb", "150"])
        out = capsys.readouterr().out
        assert code == 0
        drops_line = next(l for l in out.splitlines()
                          if l.startswith("switch drops"))
        assert int(drops_line.split()[-1]) > 0


class TestFuzzCliGuards:
    def test_fuzz_without_config_or_target_errors(self, capsys):
        code = main(["fuzz"])
        assert code == 2
        assert "provide a config file or --target" in capsys.readouterr().err


class TestDumperPoolDetails:
    def test_weight_derived_from_capacity(self, sim):
        from repro.dumper.pool import DumperPool
        from repro.switch.pipeline import TofinoSwitch
        from repro.sim.rng import SimRandom
        from repro.net.link import gbps

        switch = TofinoSwitch(sim, "sw", SimRandom(1))
        pool = DumperPool(sim)
        fast = pool.add_server(switch, gbps(100), num_cores=8,
                               core_service_ns=170)
        slow = pool.add_server(switch, gbps(100), num_cores=2,
                               core_service_ns=170)
        weights = {t.port.name: t.weight for t in switch.mirror.targets}
        assert weights["sw->dumper0"] > weights["sw->dumper1"]
        assert fast.capacity_pps > slow.capacity_pps

    def test_total_buffered_across_pool(self):
        testbed = build_testbed(quick_config(num_msgs=2, message_size=2048))
        from repro.core.trafficgen import TrafficSession

        session = TrafficSession(testbed, testbed.config.traffic)
        session.connect_all()
        session.start()
        testbed.sim.run()
        assert testbed.dumpers.total_buffered == \
            sum(s.buffered_records for s in testbed.dumpers.servers)
        assert testbed.dumpers.total_buffered > 0
        assert testbed.dumpers.total_discards == 0
