"""The in-simulation packet object.

A :class:`Packet` carries parsed header objects plus a *virtual* payload
(only its length is tracked — Lumina never needs payload contents, which
is exactly why the real tool trims dumps to 128 bytes). ``pack()``
produces genuine wire bytes for the headers so dumper records and
analyzers work on the same representation the real system uses.

Mirror metadata (§3.4) is embedded by *rewriting header fields* of the
mirrored copy, exactly as the paper does:

==================  =========================  =======================
Metadata            Field reused               Accessor
==================  =========================  =======================
event type          IPv4 TTL                   ``mirror_event_type``
mirror sequence     Ethernet source MAC        ``mirror_seq``
mirror timestamp    Ethernet destination MAC   ``mirror_timestamp_ns``
==================  =========================  =======================

``Packet`` is a slotted class (not a dataclass): a run allocates one
instance per simulated packet plus one per mirrored clone, and the
dict-per-instance cost plus dataclass-generated method overhead was
measurable in profiles. Semantics match the dataclass it replaced —
field order, defaults, value-``__eq__`` over every real field including
``packet_id`` (the cached wire size excluded), unhashable. Pickling uses
the default slot state, which carries ``_wire_size``: that is a pure
function of which headers are present and ``payload_len``, and no
in-place rewrite (ECN mark, MigReq rewrite, mirror stamping) changes it.
"""

from __future__ import annotations

import itertools
from typing import Optional

from .checksum import icrc_for
from .headers import (
    AckExtendedHeader,
    BaseTransportHeader,
    EthernetHeader,
    ETH_HEADER_LEN,
    ICRC_LEN,
    Ipv4Header,
    IPV4_HEADER_LEN,
    Opcode,
    RdmaExtendedHeader,
    UDP_HEADER_LEN,
    UdpHeader,
    BTH_LEN,
    RETH_LEN,
    AETH_LEN,
)

__all__ = ["Packet", "EventType", "pack_cache_hits"]

_packet_ids = itertools.count(1)


def pack_cache_hits() -> int:
    """Always 0: ``pack_headers`` keeps no cache.

    Kept only for the frozen per-layer probe in
    ``benchmarks/e2e/e2e_layers.py``, which imports it; nothing in the
    package calls it.
    """
    return 0


class EventType:
    """Injected-event codes embedded in mirrored packets' TTL field."""

    NONE = 0
    ECN = 1
    DROP = 2
    CORRUPT = 3
    REWRITE = 4  # field rewrite, e.g. the MigReq fix-up action (§6.2.3)
    # §7 lists quantitative delay and packet reordering as planned
    # extensions; both are implemented here.
    DELAY = 5
    REORDER = 6

    NAMES = {NONE: "none", ECN: "ecn", DROP: "drop", CORRUPT: "corrupt",
             REWRITE: "rewrite", DELAY: "delay", REORDER: "reorder"}


class Packet:
    """A simulated RoCEv2 (or plain L2/L3) packet."""

    __slots__ = (
        "eth", "ip", "udp", "bth", "reth", "aeth", "payload_len",
        "icrc_ok", "packet_id", "is_mirror",
        # Cached wire size (see ``size``); excluded from equality.
        "_wire_size",
    )
    __hash__ = None  # value-equal, like the dataclass it replaced

    def __init__(self,
                 eth: Optional[EthernetHeader] = None,
                 ip: Optional[Ipv4Header] = None,
                 udp: Optional[UdpHeader] = None,
                 bth: Optional[BaseTransportHeader] = None,
                 reth: Optional[RdmaExtendedHeader] = None,
                 aeth: Optional[AckExtendedHeader] = None,
                 payload_len: int = 0,
                 icrc_ok: bool = True,
                 packet_id: Optional[int] = None,
                 is_mirror: bool = False):
        self.eth = eth if eth is not None else EthernetHeader()
        self.ip = ip
        self.udp = udp
        self.bth = bth
        self.reth = reth
        self.aeth = aeth
        self.payload_len = payload_len
        #: False once the event injector corrupts the packet: the
        #: receiving RNIC's iCRC validation will fail and the packet is
        #: discarded.
        self.icrc_ok = icrc_ok
        #: Unique id for tracing/debugging inside the simulation only.
        self.packet_id = packet_id if packet_id is not None else next(_packet_ids)
        #: True on mirrored copies (set by the switch mirror block).
        self.is_mirror = is_mirror
        self._wire_size: Optional[int] = None

    # ------------------------------------------------------------------
    # Value semantics (dataclass-equivalent)
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> object:
        if other.__class__ is not Packet:
            return NotImplemented
        return (self.eth == other.eth
                and self.ip == other.ip
                and self.udp == other.udp
                and self.bth == other.bth
                and self.reth == other.reth
                and self.aeth == other.aeth
                and self.payload_len == other.payload_len
                and self.icrc_ok == other.icrc_ok
                and self.packet_id == other.packet_id
                and self.is_mirror == other.is_mirror)

    # ------------------------------------------------------------------
    # Size accounting
    # ------------------------------------------------------------------
    @property
    def header_len(self) -> int:
        size = ETH_HEADER_LEN
        if self.ip is not None:
            size += IPV4_HEADER_LEN
        if self.udp is not None:
            size += UDP_HEADER_LEN
        if self.bth is not None:
            size += BTH_LEN
        if self.reth is not None:
            size += RETH_LEN
        if self.aeth is not None:
            size += AETH_LEN
        return size

    @property
    def size(self) -> int:
        """Total wire size in bytes (headers + payload + iCRC trailer).

        Cached: links read it three times per hop, and headers attached
        after construction (a QP bolting on a RETH/AETH) go through the
        cold-cache path on first read.
        """
        size = self._wire_size
        if size is None:
            size = self.header_len + self.payload_len
            if self.bth is not None:
                size += ICRC_LEN
            self._wire_size = size
        return size

    @property
    def is_roce(self) -> bool:
        return self.bth is not None

    @property
    def opcode(self) -> Optional[Opcode]:
        return self.bth.opcode if self.bth is not None else None

    @property
    def psn(self) -> Optional[int]:
        return self.bth.psn if self.bth is not None else None

    @property
    def dest_qp(self) -> Optional[int]:
        return self.bth.dest_qp if self.bth is not None else None

    # ------------------------------------------------------------------
    # Wire representation
    # ------------------------------------------------------------------
    def pack_headers(self) -> bytes:
        """Serialise all headers to wire bytes (no payload, no iCRC)."""
        data = self.eth.pack()
        if self.ip is not None:
            data += self.ip.pack()
        if self.udp is not None:
            data += self.udp.pack()
        if self.bth is not None:
            data += self.bth.pack()
        if self.reth is not None:
            data += self.reth.pack()
        if self.aeth is not None:
            data += self.aeth.pack()
        return data

    def icrc(self) -> int:
        """iCRC over transport headers + virtual payload.

        Returns a value that will not match the recomputed CRC when the
        packet has been corrupted in flight (``icrc_ok`` is False). No
        run calls this: corruption is modelled by ``icrc_ok`` alone.
        The golden tests pin its values, and the frozen per-layer probe
        in ``benchmarks/e2e/e2e_layers.py`` patches it.
        """
        transport = b""
        if self.bth is not None:
            transport += self.bth.pack()
        if self.reth is not None:
            transport += self.reth.pack()
        if self.aeth is not None:
            transport += self.aeth.pack()
        value = icrc_for(transport, self.payload_len)
        if not self.icrc_ok:
            value ^= 0xDEADBEEF  # any bit flip invalidates the CRC
        return value

    def copy(self) -> "Packet":
        """Deep copy with a fresh packet id (used by the mirror block).

        Built via ``__new__`` + direct slot stores: the mirror block
        clones every RoCE packet, and skipping ``__init__``'s keyword
        processing is a measurable win on that path.
        """
        clone = Packet.__new__(Packet)
        clone.eth = self.eth.copy()
        ip = self.ip
        clone.ip = ip.copy() if ip is not None else None
        udp = self.udp
        clone.udp = udp.copy() if udp is not None else None
        bth = self.bth
        clone.bth = bth.copy() if bth is not None else None
        reth = self.reth
        clone.reth = reth.copy() if reth is not None else None
        aeth = self.aeth
        clone.aeth = aeth.copy() if aeth is not None else None
        clone.payload_len = self.payload_len
        clone.icrc_ok = self.icrc_ok
        clone.packet_id = next(_packet_ids)
        clone.is_mirror = self.is_mirror
        clone._wire_size = self._wire_size
        return clone

    # ------------------------------------------------------------------
    # Mirror metadata accessors (decode the rewritten header fields)
    # ------------------------------------------------------------------
    @property
    def mirror_event_type(self) -> int:
        """Injected-event code stored in the TTL field of a mirrored copy."""
        if self.ip is None:
            raise ValueError("mirror metadata requires an IP header")
        return self.ip.ttl

    @property
    def mirror_seq(self) -> int:
        """Global mirror sequence number stored in the source MAC."""
        return self.eth.src_mac

    @property
    def mirror_timestamp_ns(self) -> int:
        """Switch ingress timestamp (ns) stored in the destination MAC."""
        return self.eth.dst_mac

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self.bth is None:
            return f"<Packet #{self.packet_id} L2 size={self.size}>"
        return (
            f"<Packet #{self.packet_id} {self.bth.opcode.name} "
            f"qp={self.bth.dest_qp:#x} psn={self.bth.psn} size={self.size}>"
        )
