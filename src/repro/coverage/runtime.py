"""Coverage-only shorthand for the observation session.

:func:`enable` / :func:`disable` start and end a :mod:`repro.observe`
session with the metrics facet off: coverage — the guided fuzzer's
fitness signal — and flight records, without the metrics cost. The
end-to-end benchmark (``benchmarks/e2e``) turns on its fuzz workload's
coverage through them.
"""

from __future__ import annotations

from typing import Optional

from .. import observe

__all__ = ["enable", "disable"]


def enable(out_dir: Optional[str] = None) -> observe.Session:
    """Start a coverage-only observation session and return it."""
    return observe.enable(out_dir, metrics=False)


def disable() -> None:
    """End the live observation session."""
    observe.disable()
