"""Traffic dumper pool: trimmed high-rate packet capture (§3.4)."""

from .pool import DumperPool
from .records import TRIM_BYTES, DumpRecord, make_record
from .server import DumperServer

__all__ = [
    "DumperPool",
    "TRIM_BYTES",
    "DumpRecord",
    "make_record",
    "DumperServer",
]
