"""The end-to-end benchmark's workloads.

Each workload turns the benchmark seed into inputs, makes one timed call
per op into a public entry point (``repro.api``, ``execute_jobspec`` or
the service ``Client``), and checks every output outside the timed
region. Ops come in *rounds*: a round holds one op of each input shape,
and a run always measures whole rounds, so every run of a workload
measures the same mix of shapes whatever the machine's speed.

Load is closed-loop from one client: the next op starts when the
previous one returned, because every user of this tool waits for its
result. Process pools are capped at two workers (the reference host has
two cores).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time
from dataclasses import dataclass, field, replace
from typing import Dict, List

from repro import quick_config
from repro.api import get_analyzer, run_suite, run_test
from repro.core.analyzers.base import AnalyzerContext
from repro.coverage import runtime as coverage
from repro.service import CampaignDaemon, Client, JobSpec, execute_jobspec
from repro.service.dispatcher import ProcessJobExecutor
from repro.service.jobs import result_document
from repro.store.serialize import (encode_check_result, encode_fuzz_report,
                                   encode_result)

__all__ = ["Checked", "WORKLOADS"]

#: The largest process pool any workload uses.
MAX_WORKERS = 2


@dataclass
class Checked:
    """The verdict on one op's output."""

    #: Units of work checked: one per op, one per candidate for fuzzing.
    attempted: int = 1
    failed: int = 0
    #: Digest of the output; traced and untraced runs must agree on it.
    digest: str = ""
    #: Units counted by ``work_per_s``.
    work: float = 0.0
    #: Per-layer counts, folded into the traced run's ledger.
    counts: Dict[str, float] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def fail(self, message: str) -> None:
        self.failed = self.attempted
        self.errors.append(message)


def digest(*parts) -> tuple:
    """(sha256 hex, byte length) of the canonical JSON of ``parts``."""
    text = json.dumps(parts, sort_keys=True, separators=(",", ":"))
    data = text.encode("utf-8")
    return hashlib.sha256(data).hexdigest(), len(data)


def without_wr_ids(encoded_result: Dict) -> Dict:
    """An encoded TestResult minus its work-request ids, in place.

    Work-request ids come from a process-wide counter, so two identical
    runs in one process differ in them and in nothing else.
    """
    for qp in encoded_result["traffic-log"]["per-qp"]:
        for message in qp["messages"]:
            del message["wr-id"]
    return encoded_result


class Workload:
    """One benchmark workload; subclasses fill in the four hooks."""

    name = ""
    why = ""
    #: True when calling an op twice returns the same output. Traced
    #: runs call such ops once untraced and once traced and compare the
    #: digests; other workloads alternate distinct ops within a round.
    repeatable = True

    def __init__(self, seed: int, state_dir: str):
        self.seed = seed
        self.state_dir = state_dir

    def units(self, op) -> int:
        """Units of work one op checks (see :attr:`Checked.attempted`)."""
        return 1

    def warm_up(self) -> List[Checked]:
        """Run the untimed warm-up op(s) and check them."""
        op = self.round(0)[0]
        return [self.check(op, self.call(op))]

    def round(self, index: int) -> list:
        raise NotImplementedError

    def call(self, op):
        raise NotImplementedError

    def check(self, op, out, traced: bool = False) -> Checked:
        raise NotImplementedError

    def close(self) -> None:
        pass


class BulkRdma(Workload):
    name = "bulk-rdma"
    why = ("run_test on 2 QPs x 100 x 100 KiB (e810 WRITE, cx5 READ, cx4 WRITE "
           "with a drop): the per-packet path dominates, READ and lossy run "
           "beside WRITE and clean")
    #: (nic, verb, drop psn); one op of each per round.
    SHAPES = (("e810", "write", 0), ("cx5", "read", 0), ("cx4", "write", 30))

    def round(self, index: int) -> list:
        return [quick_config(nic=nic, verb=verb, num_connections=2,
                             num_msgs=100, message_size=102400,
                             drop_psn=drop,
                             seed=self.seed + len(self.SHAPES) * index + k)
                for k, (nic, verb, drop) in enumerate(self.SHAPES)]

    def call(self, config):
        return run_test(config)

    def check(self, config, result, traced: bool = False) -> Checked:
        checked = Checked(work=len(result.trace))
        if not result.ok:
            checked.fail(f"seed {config.seed}: result not ok "
                         f"({result.integrity.summary()})")
        mirrored = int(result.switch_counters.get("mirrored_packets", -1))
        if len(result.trace) != mirrored:
            checked.fail(f"seed {config.seed}: trace has {len(result.trace)} "
                         f"packets, switch mirrored {mirrored}")
        drops = get_analyzer("retransmission").analyze(
            result.trace, AnalyzerContext.for_result(result)).data
        expected = len(config.traffic.data_pkt_events)
        recovered = sum(1 for event in drops if event.recovered)
        if len(drops) != expected or recovered != expected:
            checked.fail(f"seed {config.seed}: {len(drops)} drop(s), "
                         f"{recovered} recovered, expected {expected}")
        checked.digest, size = digest(without_wr_ids(encode_result(result)))
        checked.counts["store.serialize.doc_bytes"] = size
        return checked


class ConformanceMatrix(Workload):
    name = "conformance-matrix"
    why = ("the 14-check suite on cx4, cx5, cx6, e810 and ideal: many short "
           "runs on fresh testbeds with heavy DCQCN/CNP timer traffic")
    NICS = ("cx4", "cx5", "cx6", "e810", "ideal")
    CHECKS = 14

    def __init__(self, seed: int, state_dir: str):
        super().__init__(seed, state_dir)
        #: nic -> digest of its first scorecard; later ones must match.
        self.reference: Dict[str, str] = {}

    def warm_up(self) -> List[Checked]:
        return [self.check("ideal", self.call("ideal"))]

    def round(self, index: int) -> list:
        return list(self.NICS)

    def call(self, nic: str):
        return run_suite(nic, seed=self.seed)

    def check(self, nic: str, card, traced: bool = False) -> Checked:
        checked = Checked(work=1)
        if card.total != self.CHECKS:
            checked.fail(f"{nic}: {card.total} checks, expected {self.CHECKS}")
        if nic == "ideal" and card.passed != self.CHECKS:
            checked.fail(f"ideal passed {card.passed}/{card.total}")
        checked.digest, size = digest(
            card.render(), [encode_check_result(c) for c in card.results])
        if self.reference.setdefault(nic, checked.digest) != checked.digest:
            checked.fail(f"{nic}: scorecard differs from its first run")
        checked.counts["store.serialize.doc_bytes"] = size
        return checked


class FuzzGuided(Workload):
    name = "fuzz-guided"
    why = ("coverage-guided noisy-neighbor fuzzing on cx4, a fixed panel of "
           "four campaigns: the mutate-run-score-novelty loop with coverage on")
    #: Campaign cost varies several-fold between fuzzer seeds, so the panel
    #: is fixed and the benchmark seed only rotates its order; every run
    #: then measures the same candidates.
    PANEL = (1, 2, 3, 4)
    ITERATIONS = 16
    BATCH = 4

    def units(self, spec) -> int:
        return self.ITERATIONS

    def warm_up(self) -> List[Checked]:
        spec = JobSpec.for_fuzz(target="noisy-neighbor", nic="cx4",
                                seed=self.seed, iterations=self.BATCH,
                                batch=self.BATCH)
        return [self.check(spec, self.call(spec))]

    def round(self, index: int) -> list:
        panel = self.PANEL
        order = [panel[(self.seed + k) % len(panel)] for k in range(len(panel))]
        return [JobSpec.for_fuzz(target="noisy-neighbor", nic="cx4", seed=seed,
                                 iterations=self.ITERATIONS, batch=self.BATCH)
                for seed in order]

    def call(self, spec):
        coverage.enable(None)
        try:
            return execute_jobspec(spec)
        finally:
            coverage.disable()

    def check(self, spec, outcome, traced: bool = False) -> Checked:
        report = outcome.value
        iterations = spec.payload["iterations"]
        checked = Checked(attempted=iterations, work=report.iterations_run)
        checked.failed = report.invalid_runs + iterations - report.iterations_run
        if checked.failed:
            checked.errors.append(
                f"fuzz seed {spec.payload['seed']}: {report.invalid_runs} "
                f"invalid of {report.iterations_run} candidates")
        if not report.coverage:
            checked.fail(f"fuzz seed {spec.payload['seed']}: no coverage")
        checked.digest, size = digest(outcome.report,
                                      encode_fuzz_report(report))
        checked.counts.update({
            "store.serialize.doc_bytes": size,
            "core.fuzz.valid": report.iterations_run - report.invalid_runs,
            "core.fuzz.evictions": report.pool_evictions,
            "coverage.points_hit": len(report.coverage or ()),
        })
        return checked


class SweepPool(Workload):
    """A NIC x seed sweep; every op must match the other pool size's report."""

    workers = 1
    #: The pool size of the warm-up run every op is compared with.
    reference_workers = MAX_WORKERS

    def __init__(self, seed: int, state_dir: str):
        super().__init__(seed, state_dir)
        self.spec = JobSpec.for_sweep(nics=["cx4", "cx5", "cx6", "e810"],
                                      seeds=3, base_seed=seed, messages=20,
                                      size=102400, workers=self.workers)
        self.reference = ""

    def warm_up(self) -> List[Checked]:
        # The warm-up runs the same grid at the other pool size, so each
        # timed op is checked against a byte-identical reference.
        other = replace(self.spec, workers=self.reference_workers)
        checked = self.check(other, self.call(other))
        self.reference = checked.digest
        return [checked]

    def round(self, index: int) -> list:
        return [self.spec]

    def call(self, spec):
        return execute_jobspec(spec)

    def check(self, spec, outcome, traced: bool = False) -> Checked:
        cells = outcome.value.outcomes
        checked = Checked(work=len(cells))
        bad = [cell for cell, o in zip(outcome.value.cells, cells)
               if not (o.ok and o.value["ok"])]
        if outcome.exit_code or bad:
            checked.fail(f"sweep w{spec.workers}: failed cells {bad}")
        checked.digest, size = digest(outcome.report, outcome.data)
        if self.reference and checked.digest != self.reference:
            checked.fail(f"sweep w{spec.workers}: report differs from "
                         f"w{self.reference_workers}")
        checked.counts["store.serialize.doc_bytes"] = size
        return checked


class SweepW1(SweepPool):
    name = "sweep-w1"
    why = ("a 4 NIC x 3 seed sweep at workers=1: in-process, the control "
           "for sweep-w2 that bypasses the process pool")
    workers = 1


class SweepW2(SweepPool):
    name = "sweep-w2"
    why = ("the same sweep at workers=2: spawn, pickling and summary tasks "
           "through exec.runner")
    workers = MAX_WORKERS
    reference_workers = 1


class Service(Workload):
    """Round trips through an in-process daemon with the spawn executor."""


    def __init__(self, seed: int, state_dir: str):
        super().__init__(seed, state_dir)
        self.daemon = CampaignDaemon(os.path.join(state_dir, "daemon"),
                                     executor=ProcessJobExecutor())
        self.daemon.start()
        self.client = Client(self.daemon.url)

    def spec(self, index: int) -> JobSpec:
        return JobSpec.for_run(quick_config(
            nic="cx5", num_connections=1, num_msgs=10, message_size=10240,
            seed=self.seed * 100_000 + index))

    def call(self, spec):
        # A short poll: the default 0.2 s would quantize the latency.
        job = self.client.submit(spec)
        status = self.client.wait(job["id"], timeout_s=60,
                                  poll_interval_s=0.005)
        return status, self.client.results_bytes(job["id"])

    def check_job(self, spec, out, replayed: bool) -> Checked:
        status, body = out
        checked = Checked(work=1)
        if status["state"] != "done" or status["exit-code"] != 0:
            checked.fail(f"{status['id']}: {status['state']} "
                         f"exit {status['exit-code']}: {status['error']}")
        if status["replayed"] != replayed:
            checked.fail(f"{status['id']}: replayed={status['replayed']}")
        if json.loads(body)["body"]["fingerprint"] != spec.fingerprint:
            checked.fail(f"{status['id']}: result of another spec")
        checked.digest = hashlib.sha256(body).hexdigest()
        checked.counts["service.result_bytes"] = len(body)
        return checked

    def close(self) -> None:
        self.daemon.stop()
        shutil.rmtree(self.daemon.state_dir, ignore_errors=True)


class ServiceCold(Service):
    name = "service-cold"
    why = ("distinct small run jobs: every submit spawns a job process, so "
           "spawn, HTTP, the queue journal and store writes dominate")
    repeatable = False

    def round(self, index: int) -> list:
        return [self.spec(2 * index + 1), self.spec(2 * index + 2)]

    def warm_up(self) -> List[Checked]:
        spec = self.spec(0)
        return [self.check(spec, self.call(spec))]

    def check(self, spec, out, traced: bool = False) -> Checked:
        checked = self.check_job(spec, out, replayed=False)
        if traced:
            # The untraced reference: the same spec executed in-process
            # must produce the document the service served. The job
            # process starts its work-request counter afresh and this
            # process does not, so both sides drop those ids.
            start = time.perf_counter()
            local = result_document(spec, execute_jobspec(spec))
            checked.counts["service.inproc_s"] = time.perf_counter() - start
            served = json.loads(out[1])
            for doc in (local, served):
                without_wr_ids(doc["body"]["data"]["result"])
            if digest(local) != digest(served):
                checked.fail(f"{spec.fingerprint[:12]}: service document "
                             f"differs from execute_jobspec")
        return checked


class ServiceReplay(Service):
    name = "service-replay"
    why = ("resubmitted specs served from the service store: no job "
           "process and no simulator, so a simulator speedup must leave it flat")
    #: Distinct specs run cold in the warm-up, then replayed in rounds.
    SPECS = 8

    def __init__(self, seed: int, state_dir: str):
        super().__init__(seed, state_dir)
        self.specs = [self.spec(i) for i in range(self.SPECS)]
        self.reference: Dict[str, str] = {}

    def warm_up(self) -> List[Checked]:
        results = []
        for spec in self.specs:
            checked = self.check_job(spec, self.call(spec), replayed=False)
            self.reference[spec.fingerprint] = checked.digest
            results.append(checked)
        return results

    def round(self, index: int) -> list:
        return list(self.specs)

    def check(self, spec, out, traced: bool = False) -> Checked:
        checked = self.check_job(spec, out, replayed=True)
        if checked.digest != self.reference.get(spec.fingerprint):
            checked.fail(f"{spec.fingerprint[:12]}: replay bytes differ "
                         f"from the cold result")
        return checked


WORKLOADS = {w.name: w for w in (BulkRdma, ConformanceMatrix, FuzzGuided,
                                 SweepW1, SweepW2, ServiceCold, ServiceReplay)}
