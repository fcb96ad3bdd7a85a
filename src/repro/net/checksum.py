"""Invariant CRC (iCRC) for RoCEv2 packets.

RoCEv2 protects the IB transport headers and payload with a CRC32
("iCRC") computed over the packet with volatile fields (TTL, ECN, ...)
masked to ones. A corrupted packet — which Lumina's event injector can
create on purpose — fails this check at the receiving RNIC and shows up
in the ``rx_icrc_errors`` counter.

The simulation models corruption with ``Packet.icrc_ok`` and never
computes a CRC during a run. :func:`icrc_for` is what ``Packet.icrc``
returns for a clean packet: an unseeded :func:`zlib.crc32` (the standard
reflected CRC-32, polynomial 0xEDB88320, the one InfiniBand uses) over
the packed transport headers followed by ``payload_len`` zero bytes.
:func:`icrc_for_py` is the table-driven reference it is tested against.
"""

from __future__ import annotations

import zlib
from functools import lru_cache
from typing import List, Tuple

__all__ = ["icrc_for", "icrc_batch_stats", "icrc_for_py"]

_POLY = 0xEDB88320

#: Reusable all-zero buffer for the simulated payload fold. Payloads in
#: the model are virtual (only their length matters), so the iCRC folds
#: ``payload_len`` zero bytes; the buffer grows to the largest payload
#: seen and is sliced with memoryview (no per-call allocation).
_ZEROS = bytes(4096)


def _zeros(n: int) -> memoryview:
    global _ZEROS
    if n > len(_ZEROS):
        _ZEROS = bytes(max(n, 2 * len(_ZEROS)))
    return memoryview(_ZEROS)[:n]


def _build_table() -> List[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            if crc & 1:
                crc = (crc >> 1) ^ _POLY
            else:
                crc >>= 1
        table.append(crc)
    return table


_TABLE = _build_table()


@lru_cache(maxsize=4096)
def icrc_for(transport: bytes, payload_len: int) -> int:
    """The iCRC an RNIC would compute for a packet.

    ``transport`` is the packed BTH (+ extension headers); the
    payload is simulated, so it contributes as ``payload_len`` zero
    bytes. Volatile IP fields are already excluded by construction —
    the simulation masks them by simply not including the IP header.
    """
    crc = zlib.crc32(transport)
    if payload_len:
        crc = zlib.crc32(_zeros(payload_len), crc)
    return crc


def icrc_batch_stats() -> Tuple[int, int]:
    """Always ``(0, 0)``: no batched iCRC path exists.

    Kept only for the frozen per-layer probe in
    ``benchmarks/e2e/e2e_layers.py``, which imports it; nothing in the
    package calls it.
    """
    return (0, 0)


def icrc_for_py(transport: bytes, payload_len: int) -> int:
    """Table-driven reference implementation of :func:`icrc_for`.

    A test oracle only: the parity tests compare :func:`icrc_for`
    against it over random transport bytes and payload lengths.
    """
    crc = 0xFFFFFFFF
    for byte in transport:
        crc = (crc >> 8) ^ _TABLE[(crc ^ byte) & 0xFF]
    for _ in range(payload_len):
        crc = (crc >> 8) ^ _TABLE[crc & 0xFF]
    return crc ^ 0xFFFFFFFF
