"""Dump records: trimmed packets as the dumpers store them on disk.

The packet dumper copies only the first 128 bytes of each mirrored
packet (§5) — enough for every protocol header Lumina needs — together
with a host receive timestamp. Records are raw bytes, exactly what a
DPDK dumper would write, and stay so: the trace keeps each record's
bytes as captured, and :func:`repro.core.trace.parse_record` decodes
them for the analyzers.
"""

from __future__ import annotations

from ..net.addressing import ROCEV2_UDP_PORT
from ..net.headers import ETH_HEADER_LEN, IPV4_HEADER_LEN, UDP_HEADER_LEN
from ..net.packet import Packet

__all__ = ["TRIM_BYTES", "DumpRecord", "make_record"]

#: Bytes of each packet the dumper retains (§5).
TRIM_BYTES = 128

_RESTORED_PORT_BYTES = ROCEV2_UDP_PORT.to_bytes(2, "big")


class DumpRecord:
    """One trimmed packet as buffered in dumper memory / written to disk.

    Slotted by hand (not a dataclass): one instance per mirrored packet
    plus one per ``restored()`` copy at TERM, so construction cost is on
    the capture hot path. Value semantics match the dataclass this
    replaced (field-order ``__init__``, ``__eq__``, unhashable).
    """

    __slots__ = ("raw", "rx_time_ns", "server", "core")
    __hash__ = None

    def __init__(self, raw: bytes, rx_time_ns: int, server: str, core: int):
        self.raw = raw
        self.rx_time_ns = rx_time_ns
        self.server = server
        self.core = core

    def __eq__(self, other: object) -> object:
        if other.__class__ is not DumpRecord:
            return NotImplemented
        return (self.raw == other.raw
                and self.rx_time_ns == other.rx_time_ns
                and self.server == other.server
                and self.core == other.core)

    def __repr__(self) -> str:
        return (f"DumpRecord(raw={self.raw!r}, "
                f"rx_time_ns={self.rx_time_ns!r}, "
                f"server={self.server!r}, core={self.core!r})")

    def restored(self) -> "DumpRecord":
        """Record with the UDP destination port restored to 4791 (§3.4).

        The dumper performs this rewrite for all mirrored packets when
        it receives the orchestrator's TERM message, undoing the RSS
        port randomisation before the file hits the disk.
        """
        raw = self.raw
        if len(raw) < ETH_HEADER_LEN + IPV4_HEADER_LEN + UDP_HEADER_LEN:
            return self
        offset = ETH_HEADER_LEN + IPV4_HEADER_LEN
        raw = raw[: offset + 2] + _RESTORED_PORT_BYTES + raw[offset + 4:]
        return DumpRecord(raw, self.rx_time_ns, self.server, self.core)


def make_record(packet: Packet, rx_time_ns: int, server: str, core: int) -> DumpRecord:
    """Trim a mirrored packet into a dump record (first 128 wire bytes)."""
    headers = packet.pack_headers()
    wire_len = packet.size
    if wire_len > TRIM_BYTES:
        wire_len = TRIM_BYTES
    if len(headers) >= wire_len:
        raw = headers[:wire_len]
    else:
        raw = headers + bytes(wire_len - len(headers))  # zeroed payload bytes
    return DumpRecord(raw, rx_time_ns, server, core)

