"""Match-action table for event injection.

An exact-match table keyed by ``(src IP, dst IP, dst QPN, PSN, ITER)``,
as populated by the control plane after intent translation (Fig. 2).
Lookups are O(1) dict hits — the software analogue of a Tofino SRAM
exact-match stage — and the table tracks its on-chip memory footprint
so the §5 resource claims can be benchmarked.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from .. import observe
from .events import ANY_ITERATION, EventEntry

__all__ = ["MatchActionTable"]


class MatchActionTable:
    """Exact-match event table with capacity accounting.

    Entries with ``iteration == ANY_ITERATION`` live in a second,
    iteration-agnostic table consulted when no exact entry matches —
    the Tofino equivalent is a second match stage with the ITER field
    masked out.
    """

    def __init__(self, capacity: int = 140_000):
        if capacity <= 0:
            raise ValueError("table capacity must be positive")
        self.capacity = capacity
        self._entries: Dict[Tuple[int, int, int, int, int], EventEntry] = {}
        self._wildcards: Dict[Tuple[int, int, int, int], EventEntry] = {}
        self._cov = observe.current().domain("switch.table")

    def __contains_key(self, entry: EventEntry) -> bool:
        if entry.iteration == ANY_ITERATION:
            return entry.key[:4] in self._wildcards
        return entry.key in self._entries

    def install(self, entry: EventEntry) -> None:
        if len(self) >= self.capacity and not self.__contains_key(entry):
            raise RuntimeError(
                f"event table full ({self.capacity} entries): "
                "reduce injected events or raise switch table capacity"
            )
        if self.__contains_key(entry):
            raise ValueError(f"duplicate event entry for key {entry.key}")
        if entry.iteration == ANY_ITERATION:
            self._wildcards[entry.key[:4]] = entry
        else:
            self._entries[entry.key] = entry

    def install_all(self, entries: Iterable[EventEntry]) -> None:
        for entry in entries:
            self.install(entry)

    def lookup(self, src_ip: int, dst_ip: int, dst_qpn: int,
               psn: int, iteration: int,
               now_ns: int = 0) -> Optional[EventEntry]:
        entry = self._entries.get((src_ip, dst_ip, dst_qpn, psn, iteration))
        stage = "exact-hit"
        if entry is None:
            entry = self._wildcards.get((src_ip, dst_ip, dst_qpn, psn))
            stage = "wildcard-hit"
        if entry is None:
            self._cov.hit("miss", now_ns)
            return None
        if entry.exhausted:
            self._cov.hit("exhausted", now_ns)
            return None
        self._cov.hit(stage, now_ns)
        entry.hits += 1
        return entry

    def clear(self) -> None:
        self._entries.clear()
        self._wildcards.clear()

    @property
    def entries(self) -> List[EventEntry]:
        return list(self._entries.values()) + list(self._wildcards.values())

    def __len__(self) -> int:
        return len(self._entries) + len(self._wildcards)

    @property
    def memory_bytes(self) -> int:
        """Approximate on-chip memory consumed by installed entries."""
        return len(self._entries) * EventEntry.ENTRY_BYTES
