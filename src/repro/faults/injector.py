"""Runtime fault injector for the mirror → dumper path.

The injector sits between :class:`repro.switch.mirror.MirrorBlock` and
the dumper-facing switch ports. For every mirror clone it decides —
deterministically, from seeded state — whether the clone is dropped,
delayed, or passed through untouched. Mirror sequence numbers are
assigned *before* the injector runs, exactly as on real hardware where
the switch stamps the clone and the network loses it afterwards; a
dropped clone therefore leaves a hole in the mirror-seq space that
``check_integrity`` must flag.
"""

from __future__ import annotations

from typing import Optional

from ..core.config import MeasurementFaultConfig
from ..net.link import Port
from ..net.packet import Packet
from ..sim.engine import Simulator
from ..sim.rng import SimRandom
from .. import observe

__all__ = ["MeasurementFaultInjector"]


class MeasurementFaultInjector:
    """Deterministic loss/delay on mirrored clones."""

    def __init__(self, sim: Simulator, config: MeasurementFaultConfig,
                 rng: SimRandom):
        self.sim = sim
        self.config = config
        self._rng = rng
        self.mirror_index = 0     # clones seen, pre-decision
        self.dropped = 0
        self.delayed = 0
        #: Delayed clones scheduled but not yet re-sent; the adaptive
        #: drain must not declare quiescence while any are in flight.
        self.pending_delayed = 0
        self._burst_left = 0
        tel = observe.current()
        self._m_dropped = tel.counter("fault_mirror_dropped")
        self._m_delayed = tel.counter("fault_mirror_delayed")

    def on_mirror(self, port: Port, clone: Packet) -> bool:
        """Intercept one mirror clone bound for ``port``.

        Returns True when the injector consumed the clone (dropped it or
        took ownership for delayed delivery); False means the caller
        should transmit normally.
        """
        index = self.mirror_index
        self.mirror_index += 1
        if self._burst_left > 0:
            self._burst_left -= 1
            self._drop()
            return True
        cfg = self.config
        lose = False
        if cfg.mirror_loss_period and index % cfg.mirror_loss_period == cfg.mirror_loss_period - 1:
            lose = True
        if not lose and cfg.mirror_loss_rate and self._rng.random() < cfg.mirror_loss_rate:
            lose = True
        if lose:
            self._burst_left = cfg.mirror_loss_burst - 1
            self._drop()
            return True
        if (cfg.mirror_delay_period
                and index % cfg.mirror_delay_period == cfg.mirror_delay_period - 1):
            self.delayed += 1
            self.pending_delayed += 1
            self._m_delayed.inc()
            self.sim.schedule(cfg.mirror_delay_ns, self._send_delayed, port, clone)
            return True
        return False

    def _drop(self) -> None:
        self.dropped += 1
        self._m_dropped.inc()

    def _send_delayed(self, port: Port, clone: Packet) -> None:
        self.pending_delayed -= 1
        port.send(clone)

    @property
    def quiescent(self) -> bool:
        """True when no delayed clones are still held by the injector."""
        return self.pending_delayed == 0

    def counters(self) -> dict:
        return {
            "mirror_fault_dropped": self.dropped,
            "mirror_fault_delayed": self.delayed,
        }


def build_injector(sim: Simulator, config: Optional[MeasurementFaultConfig],
                   rng: SimRandom, attempt: int = 1,
                   ) -> Optional[MeasurementFaultInjector]:
    """Injector for the given attempt, or None when faults are inert."""
    if config is None or not config.active_on(attempt):
        return None
    return MeasurementFaultInjector(sim, config, rng)
