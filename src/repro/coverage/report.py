"""Coverage reporting: export, aggregation, diffs, flight-record text.

Backs two CLI surfaces:

* ``--observe DIR`` on campaign commands — the session's export calls
  :func:`export_coverage` to write its total as a canonical
  ``coverage.json`` (and drops ``flight-*.txt`` dumps next to it when a
  trigger fired);
* ``python -m repro observe-report <path> [--diff OTHER]`` — renders
  a hit/known table per domain, lists never-reached points ("which GBN
  edges has this campaign never reached?"), and diffs two campaigns.

A ``<path>`` may be a ``coverage.json`` file, a directory holding one,
or a ``--campaign`` directory / content-addressed store: store objects
carry their coverage snapshots under a ``"coverage"`` key regardless
of kind (result, check, score, summary), so aggregation just merges
every object's snapshot — commutative, hence order-independent.
"""

from __future__ import annotations

import json
import os
import re
from typing import Dict, List, Sequence, Tuple

from .domains import DOMAINS
from .map import COVERAGE_FORMAT, CoverageMap, canonical_coverage_json

__all__ = [
    "COVERAGE_FILE", "export_coverage", "load_points", "aggregate_store",
    "summarize_points", "render_coverage", "render_coverage_json",
    "diff_points", "render_diff", "render_flight_record",
    "flight_dump_name",
]

#: File name written into an ``--observe`` directory.
COVERAGE_FILE = "coverage.json"


# ----------------------------------------------------------------------
# Export / load
# ----------------------------------------------------------------------
def export_coverage(points: Sequence[Sequence], out_dir: str) -> str:
    """Write a canonical coverage.json into ``out_dir``; return path."""
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, COVERAGE_FILE)
    with open(path, "w") as handle:
        handle.write(canonical_coverage_json(points))
    return path


def _load_file(path: str) -> List[List]:
    with open(path) as handle:
        doc = json.load(handle)
    if not isinstance(doc, dict) or doc.get("format") != COVERAGE_FORMAT:
        raise ValueError(f"{path}: not a {COVERAGE_FORMAT} document")
    return [list(row) for row in doc.get("points", [])]


def aggregate_store(store_root: str) -> List[List]:
    """Merge the coverage snapshots of every object in a store."""
    from ..store import CampaignStore

    store = CampaignStore(store_root)
    total = CoverageMap()
    for fingerprint in store.fingerprints():
        data = store.get(fingerprint)
        if isinstance(data, dict):
            snapshot = data.get("coverage")
            if snapshot:
                total.merge_snapshot(snapshot)
    return total.snapshot()


def load_points(path: str) -> List[List]:
    """Coverage rows from a file, an --observe dir, or a campaign dir."""
    if os.path.isfile(path):
        return _load_file(path)
    if not os.path.isdir(path):
        raise FileNotFoundError(f"no such coverage source: {path}")
    json_path = os.path.join(path, COVERAGE_FILE)
    if os.path.isfile(json_path):
        return _load_file(json_path)
    store_path = os.path.join(path, "store")
    if os.path.isdir(store_path):
        return aggregate_store(store_path)
    # Bare store root (the --campaign DIR/store layout already split).
    return aggregate_store(path)


# ----------------------------------------------------------------------
# Summaries and rendering
# ----------------------------------------------------------------------
def summarize_points(points: Sequence[Sequence]) -> Dict[str, Dict]:
    """Per-domain summary, keyed by domain name (declared ones first)."""
    by_domain: Dict[str, Dict] = {}
    for domain in DOMAINS:
        by_domain[domain] = {"hit": 0, "known": len(DOMAINS[domain]),
                             "hits": 0, "points": {}, "missing": [],
                             "undeclared": []}
    for domain, point, count, first_ns in points:
        entry = by_domain.setdefault(
            domain, {"hit": 0, "known": 0, "hits": 0, "points": {},
                     "missing": [], "undeclared": []})
        entry["hit"] += 1
        entry["hits"] += count
        entry["points"][point] = {"count": count, "first_hit_ns": first_ns}
        if point not in DOMAINS.get(domain, ()):
            entry["undeclared"].append(point)
    for domain, entry in by_domain.items():
        entry["missing"] = [p for p in DOMAINS.get(domain, ())
                            if p not in entry["points"]]
        entry["undeclared"].sort()
    return by_domain


def render_coverage(points: Sequence[Sequence],
                    title: str = "Coverage report") -> str:
    """Plain-text hit/known table plus the never-reached point lists."""
    summary = summarize_points(points)
    lines: List[str] = [title, "=" * len(title),
                        f"{'domain':<18s}{'points hit':>12s}{'hits':>10s}"]
    total_hit = total_known = total_hits = 0
    for domain in sorted(summary):
        entry = summary[domain]
        known = entry["known"] or entry["hit"]
        lines.append(f"{domain:<18s}{entry['hit']:>6d}/{known:<5d}"
                     f"{entry['hits']:>10d}")
        total_hit += entry["hit"]
        total_known += entry["known"]
        total_hits += entry["hits"]
    lines.append(f"{'total':<18s}{total_hit:>6d}/{total_known:<5d}"
                 f"{total_hits:>10d}")

    missing = [(domain, summary[domain]["missing"])
               for domain in sorted(summary) if summary[domain]["missing"]]
    if missing:
        lines += ["", "Never reached", "-" * 13]
        for domain, points_missing in missing:
            lines.append(f"  {domain}: " + ", ".join(points_missing))
    undeclared = [(domain, summary[domain]["undeclared"])
                  for domain in sorted(summary)
                  if summary[domain]["undeclared"]]
    if undeclared:
        lines += ["", "Undeclared points (update coverage/domains.py)",
                  "-" * 46]
        for domain, points_extra in undeclared:
            lines.append(f"  {domain}: " + ", ".join(points_extra))
    return "\n".join(lines) + "\n"


def render_coverage_json(points: Sequence[Sequence]) -> str:
    """Machine-readable summary (sorted keys, deterministic bytes)."""
    doc = {"format": COVERAGE_FORMAT, "domains": summarize_points(points)}
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


# ----------------------------------------------------------------------
# Diffs
# ----------------------------------------------------------------------
def diff_points(a: Sequence[Sequence],
                b: Sequence[Sequence]) -> Tuple[List, List]:
    """Points hit only in ``a`` and only in ``b`` (sorted rows)."""
    a_keys = {(row[0], row[1]): row for row in a}
    b_keys = {(row[0], row[1]): row for row in b}
    only_a = [list(a_keys[k]) for k in sorted(a_keys.keys() - b_keys.keys())]
    only_b = [list(b_keys[k]) for k in sorted(b_keys.keys() - a_keys.keys())]
    return only_a, only_b


def render_diff(a: Sequence[Sequence], b: Sequence[Sequence],
                a_name: str = "A", b_name: str = "B") -> str:
    only_a, only_b = diff_points(a, b)
    shared = len({(r[0], r[1]) for r in a} & {(r[0], r[1]) for r in b})
    lines = [f"Coverage diff — {a_name} vs {b_name}",
             f"shared points: {shared}   only {a_name}: {len(only_a)}   "
             f"only {b_name}: {len(only_b)}"]
    if only_a:
        lines += ["", f"Only in {a_name}", "-" * (8 + len(a_name))]
        lines += [f"  {d}:{p} (x{n})" for d, p, n, _ in only_a]
    if only_b:
        lines += ["", f"Only in {b_name}", "-" * (8 + len(b_name))]
        lines += [f"  {d}:{p} (x{n})" for d, p, n, _ in only_b]
    if not only_a and not only_b:
        lines.append("coverage is identical")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# Flight-record rendering
# ----------------------------------------------------------------------
def render_flight_record(entries: Sequence[Sequence], name: str,
                         trigger: str) -> str:
    """One dump: the merged last-N timeline for a triggered run/check."""
    header = f"Flight record — {name} ({trigger})"
    lines = [header, "=" * len(header),
             f"{len(entries)} event(s), oldest first; "
             f"t is sim-time in ns"]
    for _seq, now_ns, component, event, detail in entries:
        line = f"  t={now_ns:>12d}  {component:<22s} {event}"
        if detail:
            line += f"  {detail}"
        lines.append(line)
    if not entries:
        lines.append("  (no events recorded)")
    return "\n".join(lines) + "\n"


def flight_dump_name(name: str) -> str:
    """Filesystem-safe dump file name for a run/check identifier."""
    safe = re.sub(r"[^A-Za-z0-9._-]+", "-", name).strip("-") or "run"
    return f"flight-{safe}.txt"
