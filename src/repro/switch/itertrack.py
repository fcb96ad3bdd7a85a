"""ITER tracking — distinguishing retransmissions in the data plane.

Implements the Fig. 3 algorithm exactly: per connection the switch
keeps ``Last_PSN`` and ``ITER``; for every arriving RoCE packet, if its
PSN is **not larger** than ``Last_PSN`` the packet starts a new round of
(re)transmissions and ``ITER`` is incremented; either way ``Last_PSN``
becomes the current PSN. ``(PSN, ITER)`` then uniquely identifies every
packet of a connection.

PSN comparison uses the 24-bit serial-number arithmetic of the IB spec
so wraparound is handled; a connection is the directed flow
``(src IP, dst IP, dst QPN)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from .. import observe
from ..coverage.map import NULL_DOMAIN

__all__ = ["IterTracker", "ConnState"]

_PSN_MASK = 0xFFFFFF
_HALF = 1 << 23


def _psn_later(a: int, b: int) -> bool:
    """True if PSN ``a`` is strictly later than ``b`` modulo 2^24."""
    return a != b and ((a - b) & _PSN_MASK) < _HALF


@dataclass(slots=True)
class ConnState:
    """Per-connection registers (one Tofino register pair each)."""

    last_psn: Optional[int] = None
    iteration: int = 1


class IterTracker:
    """Tracks ITER for every directed connection seen by the switch."""

    def __init__(self, max_connections: int = 10_000,
                 record_coverage: bool = True):
        self.max_connections = max_connections
        self._conns: Dict[Tuple[int, int, int], ConnState] = {}
        self._cov = (observe.current().domain("switch.iter")
                     if record_coverage else NULL_DOMAIN)

    def update(self, src_ip: int, dst_ip: int, dst_qpn: int, psn: int,
               now_ns: int = 0) -> int:
        """Process one packet; returns the ITER it belongs to."""
        state = self._conns.get((src_ip, dst_ip, dst_qpn))
        if state is None:
            if len(self._conns) >= self.max_connections:
                raise RuntimeError(
                    f"ITER tracker full ({self.max_connections} connections)"
                )
            state = ConnState()
            self._conns[(src_ip, dst_ip, dst_qpn)] = state
            self._cov.hit("new-connection", now_ns)
        last = state.last_psn
        # _psn_later inlined: this runs once per captured packet, both
        # in the switch and again during trace reconstruction.
        if last is None or (psn != last and ((psn - last) & _PSN_MASK) < _HALF):
            self._cov.hit("in-order-advance", now_ns)
        else:
            state.iteration += 1
            self._cov.hit("retransmit-round", now_ns)
        state.last_psn = psn & _PSN_MASK
        return state.iteration

    def peek(self, src_ip: int, dst_ip: int, dst_qpn: int) -> ConnState:
        """Current registers for a connection (fresh state if unseen)."""
        return self._conns.get((src_ip, dst_ip, dst_qpn), ConnState())

    def reset(self) -> None:
        self._conns.clear()

    def __len__(self) -> int:
        return len(self._conns)

    @property
    def memory_bytes(self) -> int:
        """Register memory: last PSN (3 B) + ITER (2 B) per connection."""
        return len(self._conns) * 5
