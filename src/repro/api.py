"""The stable programmatic facade: ``import repro.api`` (or just
``repro``) and stop caring where things live.

The internal layout (``core.orchestrator``, ``core.suite``,
``core.fuzz``, ``store.serialize``, …) moves as the testbed grows; the
handful of names here does not. Everything a script, notebook or
downstream harness needs:

* :class:`JobSpec` — one versioned, fingerprinted unit of campaign
  work, shared verbatim by the CLI, this facade and the campaign
  daemon;
* :func:`execute_jobspec` — run a spec locally and get its full
  outcome (report text, exit code, rich result object);
* :class:`Client` — submit/status/results/cancel (plus a blocking
  ``wait()``) against a running ``repro serve`` daemon;
* :func:`run_test` / :func:`run_suite` / :func:`run_fuzz_campaign` —
  the historical one-call helpers, now thin wrappers that build the
  same ``JobSpec`` the CLI builds and execute it locally (signatures
  unchanged);
* :func:`save_result` / :func:`load_result` — lossless TestResult
  round-trip as standalone versioned JSON;
* :func:`iter_analyzers` / :func:`get_analyzer` — the registered trace
  analyzers behind the uniform Analyzer protocol.

Heavy subsystems import lazily inside each function (service names via
module ``__getattr__``), so ``import repro.api`` stays cheap (CLI
startup, spawn workers).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

if TYPE_CHECKING:
    from .core.analyzers.base import Analyzer
    from .core.config import TestConfig
    from .core.fuzz.fuzzer import FuzzReport
    from .core.results import TestResult
    from .core.suite import Scorecard
    from .store.index import CampaignStore

__all__ = ["run_test", "run_suite", "run_fuzz_campaign",
           "save_result", "load_result",
           "get_analyzer", "iter_analyzers", "quick_config",
           "JobSpec", "JobOutcome", "execute_jobspec",
           "Client", "ServiceError", "CampaignDaemon"]

#: Facade names that resolve to :mod:`repro.service` on first access.
_SERVICE_NAMES = frozenset({"JobSpec", "JobOutcome", "execute_jobspec",
                            "Client", "ServiceError", "CampaignDaemon"})


def __getattr__(name: str):
    if name in _SERVICE_NAMES:
        from . import service

        return getattr(service, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def run_test(config: "TestConfig",
             store: Optional["CampaignStore"] = None) -> "TestResult":
    """Run one test end to end (build, simulate, collect, §3.5 retry).

    With a ``store``, a previously-run identical config is replayed
    from disk — full trace included — instead of simulated again.
    Equivalent to executing ``JobSpec.for_run(config)``.
    """
    from .service import JobSpec, execute_jobspec

    spec = JobSpec.for_run(config)
    return execute_jobspec(spec, store=store).value


def run_suite(nic: str, seed: Optional[int] = None,
              checks: Optional[List[str]] = None, workers: int = 1,
              faults=None,
              store: Optional["CampaignStore"] = None) -> "Scorecard":
    """Run the conformance battery (or a subset) against one NIC model.

    ``seed=None`` means the battery's canonical seed
    (:data:`repro.core.suite.DEFAULT_SUITE_SEED`). ``faults`` is a
    scenario name (JobSpec path) or, for ad-hoc experiments, a
    :class:`~repro.faults.FaultScenario` instance — instances are not
    JSON, so they bypass the spec and call the suite directly.
    """
    if faults is not None and not isinstance(faults, str):
        from .core.suite import run_conformance_suite

        return run_conformance_suite(nic, seed=seed, checks=checks,
                                     workers=workers, faults=faults,
                                     store=store)
    from .service import JobSpec, execute_jobspec

    spec = JobSpec.for_suite(nic, seed=seed, checks=checks, faults=faults,
                             workers=workers)
    return execute_jobspec(spec, store=store).value


def run_fuzz_campaign(base_config: "TestConfig", iterations: int = 20,
                      seed: int = 1, workers: int = 1, batch_size: int = 4,
                      anomaly_threshold: float = 3.0,
                      stop_on_first: bool = False,
                      campaign_dir: Optional[str] = None,
                      store: Optional["CampaignStore"] = None,
                      ) -> "FuzzReport":
    """Fuzz around a base config (Algorithm 1) and return the report.

    ``campaign_dir`` makes the campaign persistent and resumable: runs
    are cached in ``<dir>/store`` and per-generation state journaled in
    ``<dir>/journal.jsonl``, so re-invoking after an interruption
    continues exactly where it stopped and yields a byte-identical
    final report. Equivalent to executing ``JobSpec.for_fuzz(...)``.
    """
    from .service import JobSpec, execute_jobspec

    spec = JobSpec.for_fuzz(config=base_config, iterations=iterations,
                            seed=seed, batch=batch_size,
                            threshold=anomaly_threshold,
                            stop_on_first=stop_on_first, workers=workers)
    return execute_jobspec(spec, store=store,
                           campaign_dir=campaign_dir).value


def save_result(result: "TestResult", path: str) -> str:
    """Write one TestResult as standalone JSON; returns ``path``."""
    from .store.serialize import save_result_file

    return save_result_file(result, path)


def load_result(path: str) -> "TestResult":
    """Load a :func:`save_result` file back into a full TestResult.

    The round-trip is lossless: config, metadata, reconstructed trace,
    integrity report, counters, traffic log and retry attempts all
    compare equal to the original.
    """
    from .store.serialize import load_result_file

    return load_result_file(path)


def get_analyzer(name: str) -> "Analyzer":
    """Look up one registered trace analyzer by name."""
    from .core.analyzers.registry import get_analyzer as _get

    return _get(name)


def iter_analyzers():
    """Iterate the registered analyzers in stable name order."""
    from .core.analyzers.registry import iter_analyzers as _iter

    return _iter()


def quick_config(**kwargs) -> "TestConfig":
    """Alias of :func:`repro.quick_config` so the facade is complete."""
    from . import quick_config as _quick_config

    return _quick_config(**kwargs)
