"""Packet, header and link substrate shared by all testbed components."""

from .addressing import (
    ROCEV2_UDP_PORT,
    int_to_ip,
    int_to_mac,
    ip_to_int,
    mac_to_int,
    parse_cidr,
)
from .checksum import icrc_for
from .headers import (
    AckExtendedHeader,
    AethSyndrome,
    BaseTransportHeader,
    EthernetHeader,
    Ipv4Header,
    Opcode,
    RdmaExtendedHeader,
    UdpHeader,
    ECN_CE,
    ECN_ECT0,
    ECN_ECT1,
    ECN_NOT_ECT,
)
from .link import Node, Port, connect, gbps
from .packet import EventType, Packet

__all__ = [
    "ROCEV2_UDP_PORT",
    "int_to_ip",
    "int_to_mac",
    "ip_to_int",
    "mac_to_int",
    "parse_cidr",
    "icrc_for",
    "AckExtendedHeader",
    "AethSyndrome",
    "BaseTransportHeader",
    "EthernetHeader",
    "Ipv4Header",
    "Opcode",
    "RdmaExtendedHeader",
    "UdpHeader",
    "ECN_CE",
    "ECN_ECT0",
    "ECN_ECT1",
    "ECN_NOT_ECT",
    "Node",
    "Port",
    "connect",
    "gbps",
    "EventType",
    "Packet",
]
