"""Unit tests for DCQCN: reaction-point rate machine and CNP limiter."""

from repro.rdma.dcqcn import CnpRateLimiter, DcqcnParams, DcqcnRp
from repro.rdma.profiles import CX4_LX, CX5, E810, IDEAL
from repro.sim.engine import US


class TestReactionPoint:
    def test_starts_at_line_rate(self, sim):
        rp = DcqcnRp(sim, line_rate_bps=100_000_000_000)
        assert rp.rate_bps == 100_000_000_000

    def test_cnp_cuts_rate(self, sim):
        rp = DcqcnRp(sim, line_rate_bps=100_000_000_000)
        rp.handle_cnp()
        # alpha starts at 1 -> first cut is rate * (1 - 1/2).
        assert rp.rate_bps == 50_000_000_000
        assert rp.target_rate_bps == 100_000_000_000

    def test_successive_cnps_keep_cutting(self, sim):
        rp = DcqcnRp(sim, line_rate_bps=100_000_000_000)
        for _ in range(10):
            rp.handle_cnp()
        assert rp.rate_bps < 10_000_000_000

    def test_rate_never_below_floor(self, sim):
        params = DcqcnParams(min_rate_bps=1_000_000)
        rp = DcqcnRp(sim, line_rate_bps=100_000_000, params=params)
        for _ in range(100):
            rp.handle_cnp()
        assert rp.rate_bps >= 1_000_000

    def test_alpha_increases_on_cnp(self, sim):
        params = DcqcnParams()
        rp = DcqcnRp(sim, line_rate_bps=100_000_000_000, params=params)
        rp.alpha = 0.5
        rp.handle_cnp()
        assert rp.alpha > 0.5

    def test_alpha_decays_without_cnps(self, sim):
        rp = DcqcnRp(sim, line_rate_bps=100_000_000_000)
        rp.handle_cnp()
        alpha_after_cut = rp.alpha
        sim.run_for(10 * rp.params.alpha_timer_ns)
        assert rp.alpha < alpha_after_cut

    def test_rate_recovers_over_time(self, sim):
        rp = DcqcnRp(sim, line_rate_bps=100_000_000_000)
        rp.handle_cnp()
        cut_rate = rp.rate_bps
        sim.run_for(100 * rp.params.increase_timer_ns)
        assert rp.rate_bps > cut_rate

    def test_full_recovery_reaches_line_rate(self, sim):
        rp = DcqcnRp(sim, line_rate_bps=100_000_000_000)
        rp.handle_cnp()
        sim.run_for(3_000_000_000)  # 3 s of recovery
        assert rp.rate_bps == 100_000_000_000

    def test_timers_stop_after_full_recovery(self, sim):
        rp = DcqcnRp(sim, line_rate_bps=100_000_000_000)
        rp.handle_cnp()
        sim.run_for(3_000_000_000)
        # Queue must drain: no immortal timers.
        assert sim.pending == 0

    def test_byte_counter_triggers_increase(self, sim):
        params = DcqcnParams(byte_counter_bytes=10_000)
        rp = DcqcnRp(sim, line_rate_bps=100_000_000_000, params=params)
        rp.handle_cnp()
        cut_rate = rp.rate_bps
        for _ in range(10):
            rp.on_bytes_sent(10_000)
        assert rp.rate_bps > cut_rate

    def test_rate_change_callback(self, sim):
        changes = []
        rp = DcqcnRp(sim, line_rate_bps=100_000_000_000,
                     on_rate_change=changes.append)
        rp.handle_cnp()
        assert changes and changes[0] == 50_000_000_000

    def test_cnp_count(self, sim):
        rp = DcqcnRp(sim, line_rate_bps=100_000_000_000)
        rp.handle_cnp()
        rp.handle_cnp()
        assert rp.cnp_count == 2


class TestCnpRateLimiter:
    def test_first_cnp_always_allowed(self):
        limiter = CnpRateLimiter(CX5, configured_interval_ns=4 * US)
        assert limiter.allow(0, qp_num=1, src_ip=10)

    def test_interval_enforced(self):
        limiter = CnpRateLimiter(CX5, configured_interval_ns=4 * US)
        assert limiter.allow(0, 1, 10)
        assert not limiter.allow(3_999, 1, 10)
        assert limiter.allow(4_000, 1, 10)
        assert limiter.suppressed == 1

    def test_per_port_scope_shares_one_limiter(self):
        limiter = CnpRateLimiter(CX5, configured_interval_ns=4 * US)
        assert limiter.allow(0, qp_num=1, src_ip=10)
        # Different QP and different IP still hit the same port limiter.
        assert not limiter.allow(100, qp_num=2, src_ip=20)

    def test_per_ip_scope_separates_destinations(self):
        limiter = CnpRateLimiter(CX4_LX, configured_interval_ns=4 * US)
        assert limiter.allow(0, qp_num=1, src_ip=10)
        assert limiter.allow(100, qp_num=2, src_ip=20)   # other IP: allowed
        assert not limiter.allow(200, qp_num=3, src_ip=10)  # same IP: blocked

    def test_per_qp_scope_separates_qps(self):
        limiter = CnpRateLimiter(IDEAL.with_overrides(
            hidden_cnp_interval_ns=4 * US))
        assert limiter.allow(0, qp_num=1, src_ip=10)
        assert limiter.allow(100, qp_num=2, src_ip=10)   # other QP: allowed
        assert not limiter.allow(200, qp_num=1, src_ip=10)

    def test_e810_hidden_floor_overrides_configuration(self):
        # §6.3: E810 has no user knob, yet enforces ~50 µs internally.
        limiter = CnpRateLimiter(E810, configured_interval_ns=0)
        assert limiter.effective_interval_ns == 50 * US

    def test_nvidia_configuration_honoured(self):
        limiter = CnpRateLimiter(CX5, configured_interval_ns=7 * US)
        assert limiter.effective_interval_ns == 7 * US

    def test_nvidia_zero_interval_disables_coalescing(self):
        limiter = CnpRateLimiter(CX5, configured_interval_ns=0)
        assert limiter.allow(0, 1, 10)
        assert limiter.allow(1, 1, 10)

    def test_default_interval_from_profile(self):
        limiter = CnpRateLimiter(CX5)
        assert limiter.effective_interval_ns == CX5.min_time_between_cnps_ns
