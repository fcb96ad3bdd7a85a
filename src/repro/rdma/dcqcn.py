"""DCQCN congestion control (Zhu et al., SIGCOMM 2015).

Both halves live here:

* :class:`DcqcnRp` — the reaction point: one instance per QP on the data
  sender. Cuts the sending rate when CNPs arrive and recovers through
  fast recovery / additive increase / hyper increase stages.
* :class:`CnpRateLimiter` — the notification-point side rate limiter
  that coalesces CNPs. Its *scope* is one of the hidden behaviours the
  paper uncovered (§6.3): CX4 Lx limits per destination IP, CX5/CX6 Dx
  per NIC port, and E810 per QP with a hidden ~50 µs floor.

All rates are bits/second; times are nanoseconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, Optional

from .. import observe
from ..sim.engine import Simulator, US
from .profiles import CnpLimitMode, RnicProfile

__all__ = ["DcqcnParams", "DcqcnRp", "CnpRateLimiter"]


@dataclass(frozen=True)
class DcqcnParams:
    """Tunable DCQCN constants (defaults follow the paper's Table 1)."""

    g: float = 1.0 / 256.0
    #: Alpha-update timer K: alpha decays if no CNP arrives within K.
    alpha_timer_ns: int = 55 * US
    #: Rate-increase timer period T.
    increase_timer_ns: int = 300 * US
    #: Byte counter threshold for the byte-based increase trigger.
    byte_counter_bytes: int = 10 * 1024 * 1024
    #: Fast-recovery stages before additive increase starts.
    fast_recovery_rounds: int = 5
    #: Additive increase step.
    rai_bps: int = 40_000_000
    #: Hyper increase step.
    rhai_bps: int = 200_000_000
    #: Stages of additive increase before hyper increase kicks in.
    hyper_threshold: int = 5
    min_rate_bps: int = 10_000_000


class DcqcnRp:
    """Reaction-point rate machine for a single QP."""

    def __init__(self, sim: Simulator, line_rate_bps: int,
                 params: Optional[DcqcnParams] = None,
                 on_rate_change: Optional[Callable[[int], None]] = None):
        self.sim = sim
        self.params = params or DcqcnParams()
        self.line_rate_bps = line_rate_bps
        self.current_rate_bps = line_rate_bps
        self.target_rate_bps = line_rate_bps
        self.alpha = 1.0
        self.cnp_count = 0
        self._on_rate_change = on_rate_change
        self._alpha_timer = None
        self._increase_timer = None
        self._bytes_since_update = 0
        # Rate-increase stage counters (timer events and byte events).
        self._timer_rounds = 0
        self._byte_rounds = 0
        self._cov = observe.current().domain("rdma.dcqcn")

    # ------------------------------------------------------------------
    def handle_cnp(self) -> None:
        """CNP received for this QP: cut the rate (DCQCN "cut" step)."""
        self.cnp_count += 1
        p = self.params
        self.target_rate_bps = self.current_rate_bps
        self.current_rate_bps = max(
            p.min_rate_bps,
            int(self.current_rate_bps * (1.0 - self.alpha / 2.0)),
        )
        self.alpha = (1.0 - p.g) * self.alpha + p.g
        self._timer_rounds = 0
        self._byte_rounds = 0
        self._bytes_since_update = 0
        self._cov.hit("cnp-rate-cut", self.sim.now)
        self._restart_timers()
        self._notify()

    def on_bytes_sent(self, nbytes: int) -> None:
        """Feed the byte counter that triggers byte-based rate increases."""
        if self.current_rate_bps >= self.line_rate_bps:
            return
        self._bytes_since_update += nbytes
        if self._bytes_since_update >= self.params.byte_counter_bytes:
            self._bytes_since_update = 0
            self._byte_rounds += 1
            self._cov.hit("byte-round", self.sim.now)
            self._increase()

    @property
    def rate_bps(self) -> int:
        return self.current_rate_bps

    # ------------------------------------------------------------------
    def _restart_timers(self) -> None:
        if self._alpha_timer is not None:
            self._alpha_timer.cancel()
        if self._increase_timer is not None:
            self._increase_timer.cancel()
        self._alpha_timer = self.sim.schedule(self.params.alpha_timer_ns, self._alpha_decay)
        self._increase_timer = self.sim.schedule(
            self.params.increase_timer_ns, self._timer_increase
        )

    def _alpha_decay(self) -> None:
        self.alpha = (1.0 - self.params.g) * self.alpha
        self._cov.hit("alpha-decay", self.sim.now)
        if self.current_rate_bps < self.line_rate_bps:
            self._alpha_timer = self.sim.schedule(self.params.alpha_timer_ns, self._alpha_decay)
        else:
            self._alpha_timer = None

    def _timer_increase(self) -> None:
        self._timer_rounds += 1
        self._cov.hit("timer-round", self.sim.now)
        self._increase()
        if self.current_rate_bps < self.line_rate_bps:
            self._increase_timer = self.sim.schedule(
                self.params.increase_timer_ns, self._timer_increase
            )
        else:
            self._increase_timer = None

    def _increase(self) -> None:
        """One rate-increase event (fast recovery / additive / hyper)."""
        p = self.params
        stage = max(self._timer_rounds, self._byte_rounds)
        if stage > p.fast_recovery_rounds:
            # Additive (or hyper) increase raises the target first.
            if min(self._timer_rounds, self._byte_rounds) > p.fast_recovery_rounds + p.hyper_threshold:
                self.target_rate_bps += p.rhai_bps
                self._cov.hit("hyper-increase", self.sim.now)
            else:
                self.target_rate_bps += p.rai_bps
                self._cov.hit("additive-increase", self.sim.now)
            self.target_rate_bps = min(self.target_rate_bps, self.line_rate_bps)
        else:
            self._cov.hit("fast-recovery", self.sim.now)
        # Round up so the rate actually converges onto the target
        # instead of sticking one bit below it forever.
        self.current_rate_bps = min(
            self.line_rate_bps,
            (self.target_rate_bps + self.current_rate_bps + 1) // 2,
        )
        self._notify()

    def _notify(self) -> None:
        if self._on_rate_change is not None:
            self._on_rate_change(self.current_rate_bps)


class CnpRateLimiter:
    """Notification-point CNP coalescing with a vendor-specific scope.

    One instance per NIC. :meth:`allow` returns True when a CNP may be
    generated right now for congestion observed on ``qp_num`` / traffic
    from ``src_ip``, applying the profile's scope and minimum interval.
    """

    def __init__(self, profile: RnicProfile,
                 configured_interval_ns: Optional[int] = None):
        self.profile = profile
        self._last_cnp: Dict[Hashable, int] = {}
        self.suppressed = 0
        if configured_interval_ns is not None and profile.min_time_between_cnps_configurable:
            configured = configured_interval_ns
        else:
            configured = profile.min_time_between_cnps_ns
        # A hidden hardware floor (E810's ~50 µs) wins over any config.
        self.effective_interval_ns = max(configured, profile.hidden_cnp_interval_ns)

    def _key(self, qp_num: int, src_ip: int) -> Hashable:
        mode = self.profile.cnp_limit_mode
        if mode == CnpLimitMode.PER_QP:
            return ("qp", qp_num)
        if mode == CnpLimitMode.PER_IP:
            return ("ip", src_ip)
        if mode == CnpLimitMode.PER_PORT:
            return ("port",)
        raise ValueError(f"unknown CNP limit mode: {mode}")

    def allow(self, now: int, qp_num: int, src_ip: int) -> bool:
        """Whether a CNP may be sent now; updates limiter state if so."""
        key = self._key(qp_num, src_ip)
        last = self._last_cnp.get(key)
        if last is not None and now - last < self.effective_interval_ns:
            self.suppressed += 1
            return False
        self._last_cnp[key] = now
        return True
