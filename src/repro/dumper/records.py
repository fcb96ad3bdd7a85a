"""Dump records: trimmed packets as the dumpers store them on disk.

The packet dumper copies only the first 128 bytes of each mirrored
packet (§5) — enough for every protocol header Lumina needs — together
with a host receive timestamp. Records are raw bytes, exactly what a
DPDK dumper would write; :func:`parse_record` re-parses them into the
structured form the analyzers consume, decoding the switch-embedded
metadata (event type from TTL, mirror sequence from the source MAC,
switch timestamp from the destination MAC).
"""

from __future__ import annotations

from typing import Optional

from ..net.addressing import ROCEV2_UDP_PORT
from ..net.headers import (
    AckExtendedHeader,
    AETH_LEN,
    BaseTransportHeader,
    BTH_LEN,
    EthernetHeader,
    ETH_HEADER_LEN,
    ICRC_LEN,
    Ipv4Header,
    IPV4_HEADER_LEN,
    Opcode,
    RdmaExtendedHeader,
    RETH_LEN,
    UDP_HEADER_LEN,
    UdpHeader,
)
from ..net.packet import EventType, Packet

__all__ = ["TRIM_BYTES", "DumpRecord", "ParsedRecord", "make_record",
           "parse_record"]

#: Bytes of each packet the dumper retains (§5).
TRIM_BYTES = 128

#: Opcodes whose packets carry a RETH.
_RETH_OPCODES = frozenset({
    Opcode.RDMA_WRITE_FIRST,
    Opcode.RDMA_WRITE_ONLY,
    Opcode.RDMA_READ_REQUEST,
})

#: Opcodes whose packets carry an AETH.
_AETH_OPCODES = frozenset({
    Opcode.ACKNOWLEDGE,
    Opcode.RDMA_READ_RESPONSE_FIRST,
    Opcode.RDMA_READ_RESPONSE_LAST,
    Opcode.RDMA_READ_RESPONSE_ONLY,
})


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


class ParsedRecord:
    """A dump record decoded back into headers + mirror metadata.

    Slotted by hand for the same reason as :class:`DumpRecord`: trace
    reconstruction re-parses every captured record, and the dataclass
    keyword ``__init__`` was measurable there.
    """

    __slots__ = ("eth", "ip", "udp", "bth", "reth", "aeth",
                 "payload_len", "rx_time_ns", "server", "core")
    __hash__ = None

    def __init__(self,
                 eth: EthernetHeader,
                 ip: Ipv4Header,
                 udp: UdpHeader,
                 bth: BaseTransportHeader,
                 reth: Optional[RdmaExtendedHeader],
                 aeth: Optional[AckExtendedHeader],
                 payload_len: int,
                 rx_time_ns: int,
                 server: str,
                 core: int):
        self.eth = eth
        self.ip = ip
        self.udp = udp
        self.bth = bth
        self.reth = reth
        self.aeth = aeth
        self.payload_len = payload_len
        self.rx_time_ns = rx_time_ns
        self.server = server
        self.core = core

    def __eq__(self, other: object) -> object:
        if other.__class__ is not ParsedRecord:
            return NotImplemented
        return (self.eth == other.eth
                and self.ip == other.ip
                and self.udp == other.udp
                and self.bth == other.bth
                and self.reth == other.reth
                and self.aeth == other.aeth
                and self.payload_len == other.payload_len
                and self.rx_time_ns == other.rx_time_ns
                and self.server == other.server
                and self.core == other.core)

    def __repr__(self) -> str:
        return (f"ParsedRecord(eth={self.eth!r}, ip={self.ip!r}, "
                f"udp={self.udp!r}, bth={self.bth!r}, reth={self.reth!r}, "
                f"aeth={self.aeth!r}, payload_len={self.payload_len!r}, "
                f"rx_time_ns={self.rx_time_ns!r}, server={self.server!r}, "
                f"core={self.core!r})")

    # -- switch-embedded metadata (§3.4) --------------------------------
    @property
    def mirror_seq(self) -> int:
        return self.eth.src_mac

    @property
    def switch_timestamp_ns(self) -> int:
        return self.eth.dst_mac

    @property
    def event_type(self) -> int:
        return self.ip.ttl

    @property
    def event_name(self) -> str:
        return EventType.NAMES.get(self.event_type, f"unknown({self.event_type})")

    @property
    def opcode(self) -> Opcode:
        return self.bth.opcode

    @property
    def psn(self) -> int:
        return self.bth.psn

    @property
    def dest_qp(self) -> int:
        return self.bth.dest_qp

    @property
    def conn_key(self) -> tuple:
        """The directed-connection key the switch tracks ITER by."""
        return (self.ip.src_ip, self.ip.dst_ip, self.bth.dest_qp)


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


def parse_record(record: DumpRecord) -> ParsedRecord:
    """Decode a trimmed record back into structured headers.

    Raises ValueError on records that are not RoCEv2 (the dumpers only
    ever receive mirrored RoCE traffic, so this indicates corruption).
    """
    raw = record.raw
    # Offset-based unpack_from all the way down: no per-header slices.
    eth = EthernetHeader.unpack(raw)
    offset = ETH_HEADER_LEN
    ip = Ipv4Header.unpack(raw, offset)
    offset += IPV4_HEADER_LEN
    udp = UdpHeader.unpack(raw, offset)
    offset += UDP_HEADER_LEN
    bth = BaseTransportHeader.unpack(raw, offset)
    offset += BTH_LEN
    reth = None
    aeth = None
    opcode = bth.opcode
    if opcode in _RETH_OPCODES:
        reth = RdmaExtendedHeader.unpack(raw, offset)
    elif opcode in _AETH_OPCODES:
        aeth = AckExtendedHeader.unpack(raw, offset)
    ext_len = (RETH_LEN if reth is not None else 0) + (AETH_LEN if aeth is not None else 0)
    payload_len = ip.total_length - IPV4_HEADER_LEN - UDP_HEADER_LEN - BTH_LEN \
        - ext_len - ICRC_LEN
    if payload_len < 0:
        payload_len = 0
    return ParsedRecord(eth, ip, udp, bth, reth, aeth, payload_len,
                        record.rx_time_ns, record.server, record.core)
