"""The anomaly flight recorder: last-N protocol events per component.

Each component (a QP, a NIC, the switch pipeline) owns one bounded
ring. Recording an event is one deque append; nothing is formatted or
written until a trigger fires (check FAIL, INCONCLUSIVE verdict,
integrity retry) and the session's :meth:`~repro.observe.Session.
flight_snapshot` is taken. A session-wide sequence
number gives the merged timeline a stable total order even when two
components record at the same sim nanosecond.

Timestamps are engine sim-time; the recorder never reads wall clocks.
"""

from __future__ import annotations

from collections import deque
from typing import List

__all__ = ["FlightRecorder", "NullFlightRecorder", "NULL_RECORDER",
           "RING_SIZE"]

#: Events kept per component before the ring overwrites itself.
RING_SIZE = 64


class FlightRecorder:
    """One component's bounded event ring."""

    __slots__ = ("_session", "component", "_ring")

    def __init__(self, session, component: str):
        self._session = session
        self.component = component
        self._ring: deque = deque(maxlen=RING_SIZE)

    def note(self, now_ns: int, event: str, detail: str = "") -> None:
        """Record one event at sim-time ``now_ns``."""
        session = self._session
        session._seq += 1
        self._ring.append((session._seq, now_ns, self.component,
                           event, detail))

    def entries(self) -> List[tuple]:
        """Ring contents, oldest first."""
        return list(self._ring)

    def clear(self) -> None:
        self._ring.clear()

    def __len__(self) -> int:
        return len(self._ring)


class NullFlightRecorder:
    """Disabled-mode twin: every method is a no-op."""

    __slots__ = ()
    component = ""

    def note(self, now_ns: int, event: str, detail: str = "") -> None:
        pass

    def entries(self) -> List[tuple]:
        return []

    def clear(self) -> None:
        pass

    def __len__(self) -> int:
        return 0


NULL_RECORDER = NullFlightRecorder()
