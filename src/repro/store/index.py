"""The on-disk content-addressed store.

Entries live one-per-file under ``objects/<fp[:2]>/<fp>.json`` (the
two-hex-digit shard keeps directories small on big campaigns); a small
``index.json`` maps fingerprint → ``{kind, seq}`` where ``seq`` is a
monotonic insertion counter — the store's notion of age, used by
:meth:`CampaignStore.prune` instead of wall-clock timestamps so the
package stays free of nondeterminism (and inside repro-lint's DET001
scope). Writes are atomic (temp file + ``os.replace``); a store whose
index was lost or torn mid-write self-heals by rescanning the objects
tree (:meth:`CampaignStore.gc`).
"""

from __future__ import annotations

import json
import os
from typing import Dict, Iterator, Optional

from .. import observe

__all__ = ["CampaignStore", "StoreError"]

_INDEX_FILE = "index.json"
_OBJECTS_DIR = "objects"


class StoreError(RuntimeError):
    """A store directory is unusable or inconsistent with the campaign."""


def atomic_write_json(path: str, payload) -> None:
    """Write ``payload`` as compact, key-sorted JSON, atomically.

    ``json.dumps`` rather than ``json.dump``: only the one-shot call
    takes the C encoder.
    """
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(payload, sort_keys=True,
                                separators=(",", ":")))
    os.replace(tmp, path)


class CampaignStore:
    """Content-addressed result cache keyed by config fingerprints.

    ``get``/``put`` are the whole hot API: campaign front-ends compute a
    fingerprint (:mod:`repro.store.fingerprint`), probe ``get`` before
    dispatching work, and ``put`` fresh outcomes after. Hits and misses
    are tallied locally (for the CLI's campaign summary) and on the
    observation session (``store_hits`` / ``store_misses``).
    """

    def __init__(self, root: str):
        self.root = root
        self._objects = os.path.join(root, _OBJECTS_DIR)
        os.makedirs(self._objects, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self._index: Dict[str, Dict] = {}
        self._next_seq = 0
        self._load_index()

    # -- index persistence ---------------------------------------------
    def _index_path(self) -> str:
        return os.path.join(self.root, _INDEX_FILE)

    def _load_index(self) -> None:
        try:
            with open(self._index_path(), "r", encoding="utf-8") as handle:
                data = json.load(handle)
            self._index = dict(data.get("entries", {}))
            self._next_seq = int(data.get("next-seq", 0))
        except FileNotFoundError:
            self.gc()
        except (json.JSONDecodeError, ValueError, KeyError):
            # Torn index (e.g. a kill mid-write before os.replace ever
            # happened, or manual tampering): rebuild from the objects.
            self.gc()

    def _save_index(self) -> None:
        atomic_write_json(self._index_path(),
                          {"next-seq": self._next_seq,
                           "entries": self._index})

    def _object_path(self, fp: str) -> str:
        return os.path.join(self._objects, fp[:2], fp + ".json")

    # -- the hot API ----------------------------------------------------
    def get(self, fp: str) -> Optional[Dict]:
        """The stored payload for ``fp``, or None (tallied as a miss)."""
        entry = self._index.get(fp)
        if entry is None:
            self.misses += 1
            observe.current().counter("store_misses").inc()
            return None
        try:
            with open(self._object_path(fp), "r", encoding="utf-8") as handle:
                obj = json.load(handle)
        except (FileNotFoundError, json.JSONDecodeError):
            # Object vanished or was torn: treat as a miss and forget it.
            self._index.pop(fp, None)
            self._save_index()
            self.misses += 1
            observe.current().counter("store_misses").inc()
            return None
        self.hits += 1
        observe.current().counter("store_hits").inc()
        return obj["data"]

    def put(self, fp: str, kind: str, data) -> None:
        """Store ``data`` (JSON-serialisable) under fingerprint ``fp``."""
        seq = self._next_seq
        self._next_seq += 1
        path = self._object_path(fp)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        atomic_write_json(path, {"fingerprint": fp, "kind": kind,
                                 "seq": seq, "data": data})
        self._index[fp] = {"kind": kind, "seq": seq}
        self._save_index()

    def __contains__(self, fp: str) -> bool:
        return fp in self._index

    def __len__(self) -> int:
        return len(self._index)

    def fingerprints(self, kind: Optional[str] = None) -> Iterator[str]:
        """Stored fingerprints, oldest first (optionally one kind)."""
        entries = sorted(self._index.items(), key=lambda kv: kv[1]["seq"])
        for fp, entry in entries:
            if kind is None or entry["kind"] == kind:
                yield fp

    # -- maintenance ----------------------------------------------------
    def remove(self, fp: str) -> bool:
        """Drop one entry; True when it existed."""
        if fp not in self._index:
            return False
        self._index.pop(fp)
        try:
            os.remove(self._object_path(fp))
        except FileNotFoundError:
            pass
        self._save_index()
        return True

    def prune(self, max_entries: int) -> int:
        """Evict oldest entries (by insertion seq) down to ``max_entries``."""
        if max_entries < 0:
            raise ValueError("max_entries cannot be negative")
        excess = len(self._index) - max_entries
        if excess <= 0:
            return 0
        victims = list(self.fingerprints())[:excess]
        for fp in victims:
            self._index.pop(fp, None)
            try:
                os.remove(self._object_path(fp))
            except FileNotFoundError:
                pass
        self._save_index()
        return len(victims)

    def gc(self) -> int:
        """Rebuild the index from the objects tree; returns entry count.

        Fixes both directions of inconsistency: indexed entries whose
        object file vanished are dropped, and orphan object files (a
        crash between object write and index write) are re-adopted.
        """
        rebuilt: Dict[str, Dict] = {}
        max_seq = -1
        for shard in sorted(os.listdir(self._objects)):
            shard_dir = os.path.join(self._objects, shard)
            if not os.path.isdir(shard_dir):
                continue
            for name in sorted(os.listdir(shard_dir)):
                if not name.endswith(".json"):
                    continue
                try:
                    with open(os.path.join(shard_dir, name), "r",
                              encoding="utf-8") as handle:
                        obj = json.load(handle)
                    fp = obj["fingerprint"]
                    entry = {"kind": obj["kind"], "seq": int(obj["seq"])}
                except (json.JSONDecodeError, KeyError, ValueError):
                    continue  # torn object: ignore, a future put re-creates
                rebuilt[fp] = entry
                max_seq = max(max_seq, entry["seq"])
        self._index = rebuilt
        self._next_seq = max(self._next_seq, max_seq + 1)
        self._save_index()
        return len(rebuilt)

    def stats(self) -> str:
        """One-line campaign summary for the CLI."""
        return (f"store: {self.hits} hit(s), {self.misses} miss(es), "
                f"{len(self._index)} entr{'y' if len(self._index) == 1 else 'ies'}")
