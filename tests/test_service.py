"""Campaign service tests: job specs, queue, dispatcher, daemon, API.

The job-lifecycle battery ISSUE 10 asks for: priority ordering with a
deterministic FIFO tie-break, cancel of queued vs running jobs, daemon
crash-resume from the queue journal, store replay spawning zero
workers on resubmission, and byte-identity between service execution
and the one-shot code path. Dispatcher tests run against stub
executors (instant, no subprocess); one daemon test drives the full
HTTP stack on an ephemeral loopback port with the inline executor.
"""

from __future__ import annotations

import json
import threading
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from repro import quick_config
from repro.service import (
    CampaignDaemon,
    Client,
    JobQueue,
    JobSpec,
    JobState,
    ServiceError,
    decode_jobspec,
    encode_jobspec,
    execute_jobspec,
)
from repro.service.dispatcher import (
    Dispatcher,
    InlineJobExecutor,
    JobCancelled,
)
from repro.service.jobs import (
    job_worker_main,
    read_result_document,
    result_document,
    write_result_document,
)
from repro.store.serialize import (
    DOCUMENT_SCHEMA_VERSION,
    unwrap_document,
    wrap_document,
)

SUITE_PAYLOAD = {"nic": "cx5", "seed": None, "checks": ["gbn-logic"],
                 "faults": None}


#: Any JSON value a client could send in place of a spec field.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=8), inner,
                                     max_size=3)),
    max_leaves=6)


def suite_spec(**opts) -> JobSpec:
    return JobSpec.for_suite("cx5", checks=["gbn-logic"], **opts)


# ---------------------------------------------------------------------------
# Versioned documents
# ---------------------------------------------------------------------------

class TestDocumentEnvelope:
    def test_wrap_unwrap_round_trip(self):
        doc = wrap_document("job-spec", {"a": 1})
        assert doc["schema-version"] == DOCUMENT_SCHEMA_VERSION
        version, body = unwrap_document(doc, kind="job-spec")
        assert version == DOCUMENT_SCHEMA_VERSION
        assert body == {"a": 1}

    def test_legacy_document_rejected(self):
        with pytest.raises(ValueError, match="unversioned"):
            unwrap_document({"a": 1})

    def test_future_version_rejected(self):
        doc = {"schema-version": DOCUMENT_SCHEMA_VERSION + 1,
               "kind": "job-spec", "body": {}}
        with pytest.raises(ValueError):
            unwrap_document(doc)

    def test_kind_mismatch_rejected(self):
        doc = wrap_document("job-result", {})
        with pytest.raises(ValueError):
            unwrap_document(doc, kind="job-spec")

    def test_result_file_is_compact_sorted_json(self, tmp_path):
        spec = suite_spec()
        doc = result_document(spec, execute_jobspec(spec))
        path = write_result_document(doc, str(tmp_path))
        with open(path, "r", encoding="utf-8") as handle:
            assert handle.read() == json.dumps(doc, sort_keys=True,
                                               separators=(",", ":"))


# ---------------------------------------------------------------------------
# Job specs
# ---------------------------------------------------------------------------

class TestJobSpec:
    def test_encode_decode_round_trip(self):
        spec = suite_spec(priority=3, workers=2, timeout_s=9.0)
        assert decode_jobspec(encode_jobspec(spec)) == spec

    def test_legacy_spec_rejected(self):
        with pytest.raises(ValueError, match="unversioned"):
            decode_jobspec({"job-kind": "suite", "payload": SUITE_PAYLOAD})

    def test_fingerprint_ignores_execution_knobs(self):
        base = suite_spec()
        tuned = suite_spec(priority=9, workers=4, timeout_s=60.0)
        assert base.fingerprint == tuned.fingerprint

    def test_fingerprint_covers_payload(self):
        assert (suite_spec().fingerprint
                != JobSpec.for_suite("cx4",
                                     checks=["gbn-logic"]).fingerprint)
        assert (suite_spec().fingerprint
                != suite_spec(observe=True).fingerprint)

    @pytest.mark.parametrize("field", [
        "schema-version", "kind", "body",
        "body.job-kind", "body.payload", "body.priority", "body.workers",
        "body.timeout-s"])
    @settings(max_examples=40, deadline=None)
    @given(value=JSON_VALUES)
    @example(value=None)
    @example(value=[])
    @example(value={})
    @example(value=5)
    @example(value=1.5)
    def test_wrong_field_types_raise_value_error(self, field, value):
        doc = encode_jobspec(suite_spec())
        owner, _, key = field.rpartition(".")
        (doc[owner] if owner else doc)[key] = value
        try:
            decode_jobspec(doc)
        except ValueError:
            pass

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown job kind"):
            JobSpec("deploy", {})

    def test_unknown_payload_key_rejected(self):
        with pytest.raises(ValueError, match="payload keys"):
            JobSpec("suite", {"nic": "cx5", "sede": 1})

    def test_fuzz_needs_config_or_target(self):
        with pytest.raises(ValueError, match="config or a target"):
            JobSpec.for_fuzz()

    def test_config_accepts_dataclass_and_dict(self):
        config = quick_config(seed=5)
        assert (JobSpec.for_run(config).fingerprint
                == JobSpec.for_run(config.to_dict()).fingerprint)


# ---------------------------------------------------------------------------
# Queue
# ---------------------------------------------------------------------------

class TestJobQueue:
    def test_priority_ordering_with_fifo_tie_break(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        low_first = queue.submit(suite_spec(priority=0))
        high_first = queue.submit(suite_spec(priority=5))
        high_second = queue.submit(suite_spec(priority=5))
        low_second = queue.submit(suite_spec(priority=0))
        order = [queue.claim_next().id for _ in range(4)]
        assert order == [high_first.id, high_second.id,
                         low_first.id, low_second.id]

    def test_cancel_queued_is_terminal(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job = queue.submit(suite_spec())
        assert queue.cancel(job.id) == "cancelled"
        assert queue.get(job.id).state is JobState.CANCELLED
        assert queue.claim_next() is None

    def test_cancel_running_signals_event(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job = queue.submit(suite_spec())
        claimed = queue.claim_next()
        assert queue.cancel(job.id) == "cancelling"
        assert claimed.cancel_event.is_set()
        assert claimed.state is JobState.RUNNING  # dispatcher finishes it

    def test_cancel_finished_is_noop(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job = queue.submit(suite_spec())
        queue.claim_next()
        queue.finish(job.id, JobState.DONE, exit_code=0)
        assert queue.cancel(job.id) == "finished"

    def test_journal_crash_resume(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        done = queue.submit(suite_spec(priority=1))
        queued = queue.submit(suite_spec(priority=0))
        running = queue.submit(suite_spec(priority=2))
        assert queue.claim_next().id == running.id
        assert queue.claim_next().id == done.id
        queue.finish(done.id, JobState.DONE, exit_code=0)
        del queue  # "crash": only queue.jsonl survives

        revived = JobQueue(str(tmp_path))
        assert revived.get(done.id).state is JobState.DONE
        assert revived.get(done.id).exit_code == 0
        # the job that was mid-flight is re-dispatchable, ahead of the
        # lower-priority one that never started
        assert revived.get(running.id).state is JobState.QUEUED
        assert revived.claim_next().id == running.id
        assert revived.claim_next().id == queued.id
        # ids keep allocating after the resume
        assert revived.submit(suite_spec()).seq == 3

    def test_torn_journal_tail_tolerated(self, tmp_path):
        queue = JobQueue(str(tmp_path))
        job = queue.submit(suite_spec())
        with open(tmp_path / "queue.jsonl", "a") as handle:
            handle.write('{"type": "state", "id": "job-0000')
        revived = JobQueue(str(tmp_path))
        assert revived.get(job.id).state is JobState.QUEUED


# ---------------------------------------------------------------------------
# Dispatcher (stub executors — no processes, no simulation)
# ---------------------------------------------------------------------------

class StubExecutor:
    """Instantly succeeds, recording every executed job id."""

    def __init__(self):
        self.executed = []

    def execute(self, job, job_dir, store_root, campaign_dir=None):
        self.executed.append(job.id)
        doc = result_document(job.spec, _stub_outcome(job.spec))
        write_result_document(doc, job_dir)
        return doc


class BlockingExecutor(StubExecutor):
    """Parks until cancelled; lets tests catch a job mid-run."""

    def __init__(self):
        super().__init__()
        self.started = threading.Event()

    def execute(self, job, job_dir, store_root, campaign_dir=None):
        self.started.set()
        job.cancel_event.wait(timeout=30.0)
        raise JobCancelled(job.id)


class GatedExecutor(StubExecutor):
    """Holds each job until the test opens the gate, then succeeds."""

    def __init__(self):
        super().__init__()
        self.started = threading.Event()
        self.gate = threading.Event()

    def execute(self, job, job_dir, store_root, campaign_dir=None):
        self.started.set()
        assert self.gate.wait(timeout=30.0)
        return super().execute(job, job_dir, store_root, campaign_dir)


class ExplodingExecutor(StubExecutor):
    def execute(self, job, job_dir, store_root, campaign_dir=None):
        raise RuntimeError("boom")


def _stub_outcome(spec):
    from repro.service.jobs import JobOutcome

    return JobOutcome(kind=spec.kind, report="stub-report\n", exit_code=0)


def _dispatcher(tmp_path, executor, store=True):
    queue = JobQueue(str(tmp_path))
    dispatcher = Dispatcher(
        queue, str(tmp_path / "jobs"),
        store_root=str(tmp_path / "store") if store else None,
        executor=executor)
    return queue, dispatcher


class TestDispatcher:
    def test_executes_and_persists_result(self, tmp_path):
        executor = StubExecutor()
        queue, dispatcher = _dispatcher(tmp_path, executor)
        dispatcher.start()
        try:
            job = queue.submit(suite_spec())
            assert dispatcher.wait_idle(timeout_s=10.0)
        finally:
            dispatcher.stop()
        assert queue.get(job.id).state is JobState.DONE
        assert queue.get(job.id).exit_code == 0
        doc = read_result_document(dispatcher.job_dir(job.id))
        assert unwrap_document(doc, kind="job-result")[1]["report"] \
            == "stub-report\n"

    def test_store_replay_spawns_zero_workers(self, tmp_path):
        executor = StubExecutor()
        queue, dispatcher = _dispatcher(tmp_path, executor)
        dispatcher.start()
        try:
            first = queue.submit(suite_spec())
            second = queue.submit(suite_spec(priority=7))  # same payload
            assert dispatcher.wait_idle(timeout_s=10.0)
        finally:
            dispatcher.stop()
        # the priority-7 duplicate dispatches first and executes; the
        # earlier submission then replays — exactly one execution total
        assert executor.executed == [second.id]
        assert queue.get(first.id).replayed
        assert queue.get(first.id).exit_code == 0
        assert (read_result_document(dispatcher.job_dir(second.id))
                == read_result_document(dispatcher.job_dir(first.id)))
        assert dispatcher.counters["replayed"] == 1

    def test_cancel_running_job(self, tmp_path):
        executor = BlockingExecutor()
        queue, dispatcher = _dispatcher(tmp_path, executor)
        dispatcher.start()
        try:
            job = queue.submit(suite_spec())
            assert executor.started.wait(timeout=10.0)
            assert queue.cancel(job.id) == "cancelling"
            assert dispatcher.wait_idle(timeout_s=10.0)
        finally:
            dispatcher.stop()
        assert queue.get(job.id).state is JobState.CANCELLED
        assert dispatcher.counters["cancelled"] == 1

    def test_claimed_job_is_busy_and_not_idle(self, tmp_path):
        # A claimed job is RUNNING before any executor starts: the
        # dispatcher reads that from the queue, not from its own flag.
        queue, dispatcher = _dispatcher(tmp_path, StubExecutor())
        queue.submit(suite_spec())
        queue.claim_next()
        assert dispatcher.busy
        assert not dispatcher.wait_idle(timeout_s=0.1)

    def test_stop_wakes_the_blocked_claim(self, tmp_path):
        queue, dispatcher = _dispatcher(tmp_path, StubExecutor())
        dispatcher.start()
        queue.submit(suite_spec())
        assert dispatcher.wait_idle(timeout_s=10.0)
        thread = dispatcher._thread
        started = time.monotonic()
        dispatcher.stop()
        assert time.monotonic() - started < 0.15
        assert not thread.is_alive()

    def test_executor_failure_is_contained(self, tmp_path):
        queue, dispatcher = _dispatcher(tmp_path, ExplodingExecutor())
        dispatcher.start()
        try:
            failed = queue.submit(suite_spec())
            assert dispatcher.wait_idle(timeout_s=10.0)
        finally:
            dispatcher.stop()
        assert queue.get(failed.id).state is JobState.FAILED
        assert "boom" in queue.get(failed.id).error


# ---------------------------------------------------------------------------
# Execution semantics (the single shared code path)
# ---------------------------------------------------------------------------

class TestExecuteJobspec:
    def test_suite_report_matches_direct_call(self):
        from repro.core.suite import run_conformance_suite

        outcome = execute_jobspec(suite_spec())
        card = run_conformance_suite("cx5", checks=["gbn-logic"])
        assert outcome.report == card.render()
        assert outcome.exit_code == 0
        assert outcome.value.nic == "cx5"

    def test_run_report_matches_direct_call(self):
        from repro.core.orchestrator import run_test
        from repro.core.report import render_report

        config = quick_config(num_msgs=2, seed=11)
        outcome = execute_jobspec(JobSpec.for_run(config))
        assert outcome.report == render_report(run_test(config))
        assert outcome.exit_code == 0

    def test_api_shims_build_the_same_jobspec_path(self):
        from repro import api

        card = api.run_suite("cx5", checks=["gbn-logic"])
        assert card.all_passed
        result = api.run_test(quick_config(num_msgs=2, seed=11))
        assert result.ok
        report = api.run_fuzz_campaign(quick_config(num_msgs=2, seed=11),
                                       iterations=2, batch_size=2)
        assert report.iterations_run == 2

    def test_api_callers_never_render_or_encode(self, monkeypatch):
        # api.run_test / api.run_suite want only the outcome's value;
        # its report and data are computed on first access.
        from repro import api
        from repro.core import report, suite
        from repro.store import serialize

        def unused(*args, **kwargs):
            raise AssertionError("rendered or encoded for an api caller")

        monkeypatch.setattr(report, "render_report", unused)
        monkeypatch.setattr(serialize, "encode_result", unused)
        monkeypatch.setattr(serialize, "encode_check_result", unused)
        monkeypatch.setattr(suite.Scorecard, "render", unused)
        assert api.run_test(quick_config(num_msgs=2, seed=11)).ok
        assert api.run_suite("cx5", checks=["gbn-logic"]).all_passed

    def test_job_process_fuzz_coverage_fitness_matches_local(self,
                                                            tmp_path):
        # A remote --coverage-fitness spec must run guided in the job
        # process, exactly as the local CLI's coverage-only session.
        from repro.__main__ import main

        local_out = tmp_path / "local.txt"
        assert main(["fuzz", "--target", "counter-bugs", "--nic", "e810",
                     "-n", "4", "--batch", "2", "--coverage-fitness",
                     "-o", str(local_out)]) in (0, 2)
        spec = JobSpec.for_fuzz(target="counter-bugs", nic="e810",
                                iterations=4, batch=2,
                                coverage_fitness=True)
        doc = job_worker_main(encode_jobspec(spec), str(tmp_path / "job"),
                              None)
        local = local_out.read_text()
        assert "coverage growth:" in local
        assert doc["body"]["report"] == local

    def test_facade_exports_service_names(self):
        import repro

        assert repro.JobSpec is JobSpec
        assert repro.Client is Client


# ---------------------------------------------------------------------------
# Daemon + HTTP + Client (inline executor, loopback port)
# ---------------------------------------------------------------------------

@pytest.fixture
def daemon(tmp_path):
    with CampaignDaemon(str(tmp_path / "state"),
                        executor=InlineJobExecutor()) as instance:
        yield instance


class TestDaemonHTTP:
    def test_submit_wait_results_replay(self, daemon):
        client = Client(daemon.url)
        job = client.submit(suite_spec())
        final = client.wait(job["id"], timeout_s=60.0)
        assert final["state"] == "done"
        assert final["exit-code"] == 0
        first_bytes = client.results_bytes(job["id"])
        body = client.results(job["id"])
        assert body["report"] == execute_jobspec(suite_spec()).report

        resubmitted = client.submit(suite_spec())
        refinal = client.wait(resubmitted["id"], timeout_s=60.0)
        assert refinal["replayed"]
        assert client.results_bytes(resubmitted["id"]) == first_bytes

    def test_status_listing_and_health(self, daemon):
        client = Client(daemon.url)
        job = client.submit(suite_spec())
        client.wait(job["id"], timeout_s=60.0)
        assert [row["id"] for row in client.jobs()] == [job["id"]]
        health = client.health()
        assert health["jobs"]["done"] == 1
        assert health["store-entries"] >= 1

    def test_progress_of_queued_job(self, daemon):
        client = Client(daemon.url)
        job = client.submit(suite_spec())
        progress = client.progress(job["id"])
        assert progress["id"] == job["id"]
        assert progress["state"] in ("queued", "running", "done")

    def test_cancel_queued_job_over_http(self, tmp_path):
        # no dispatcher: submissions stay queued forever
        daemon = CampaignDaemon(str(tmp_path / "state"),
                                executor=InlineJobExecutor())
        daemon.start()
        daemon.dispatcher.stop()
        try:
            client = Client(daemon.url)
            job = client.submit(suite_spec())
            assert client.cancel(job["id"]) == "cancelled"
            assert client.status(job["id"])["state"] == "cancelled"
        finally:
            daemon.stop()

    def test_unknown_routes_and_jobs_are_404(self, daemon):
        client = Client(daemon.url)
        with pytest.raises(ServiceError) as exc:
            client.status("job-999999")
        assert exc.value.status == 404
        with pytest.raises(ServiceError):
            client.cancel("job-999999")
        with pytest.raises(ServiceError):
            client._request("GET", "/api/v2/jobs")

    def test_long_poll_answers_when_the_job_finishes(self, tmp_path):
        executor = GatedExecutor()
        with CampaignDaemon(str(tmp_path / "state"),
                            executor=executor) as daemon:
            client = Client(daemon.url)
            job = client.submit(suite_spec())
            assert executor.started.wait(timeout=10.0)
            gate = threading.Timer(0.2, executor.gate.set)
            gate.start()
            started = time.monotonic()
            body = client._json("GET", f"/api/v1/jobs/{job['id']}?wait=20",
                                kind="job-status")
            elapsed = time.monotonic() - started
            gate.cancel()
        assert body["state"] == "done"
        assert elapsed < 10.0

    def test_long_poll_rejects_bad_waits(self, daemon):
        client = Client(daemon.url)
        job = client.submit(suite_spec())
        for bad in ("abc", "-1"):
            with pytest.raises(ServiceError) as exc:
                client._request("GET", f"/api/v1/jobs/{job['id']}?wait={bad}")
            assert exc.value.status == 400
        with pytest.raises(ServiceError) as exc:
            client._request("GET", "/api/v1/jobs/job-999999?wait=5")
        assert exc.value.status == 404

    def test_wait_times_out_on_a_job_that_never_runs(self, tmp_path):
        daemon = CampaignDaemon(str(tmp_path / "state"),
                                executor=InlineJobExecutor())
        daemon.start()
        daemon.dispatcher.stop()
        try:
            client = Client(daemon.url)
            job = client.submit(suite_spec())
            with pytest.raises(ServiceError, match="still queued"):
                client.wait(job["id"], timeout_s=0.2)
        finally:
            daemon.stop()

    def test_malformed_submission_is_400(self, daemon):
        client = Client(daemon.url)
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/api/v1/jobs",
                            body=wrap_document("job-spec",
                                               {"payload": {}}))
        assert exc.value.status == 400

    def test_wrongly_typed_submission_is_400_and_daemon_survives(
            self, daemon):
        client = Client(daemon.url)
        doc = encode_jobspec(suite_spec())
        doc["schema-version"] = None
        with pytest.raises(ServiceError) as exc:
            client._request("POST", "/api/v1/jobs", body=doc)
        assert exc.value.status == 400
        assert "schema-version" in str(exc.value)
        assert client.health()["jobs"]["queued"] == 0

    def test_results_before_completion_is_404(self, tmp_path):
        daemon = CampaignDaemon(str(tmp_path / "state"),
                                executor=InlineJobExecutor())
        daemon.start()
        daemon.dispatcher.stop()
        try:
            client = Client(daemon.url)
            job = client.submit(suite_spec())
            with pytest.raises(ServiceError) as exc:
                client.results_bytes(job["id"])
            assert exc.value.status == 404
        finally:
            daemon.stop()

    def test_daemon_restart_resumes_queue(self, tmp_path):
        state = str(tmp_path / "state")
        with CampaignDaemon(state, executor=InlineJobExecutor()) as first:
            client = Client(first.url)
            job = client.submit(suite_spec())
            client.wait(job["id"], timeout_s=60.0)
        with CampaignDaemon(state, executor=InlineJobExecutor()) as second:
            revived = Client(second.url)
            assert revived.status(job["id"])["state"] == "done"
            again = revived.submit(suite_spec())
            final = revived.wait(again["id"], timeout_s=60.0)
            assert final["replayed"]  # the store survived the restart


# ---------------------------------------------------------------------------
# CLI integration
# ---------------------------------------------------------------------------

class TestServiceCLI:
    def test_server_flag_matches_local_output(self, daemon, tmp_path,
                                              capsys):
        from repro.__main__ import main

        local_out = tmp_path / "local.txt"
        remote_out = tmp_path / "remote.txt"
        assert main(["suite", "cx5", "--checks", "gbn-logic",
                     "-o", str(local_out)]) == 0
        capsys.readouterr()
        assert main(["suite", "cx5", "--checks", "gbn-logic",
                     "--server", daemon.url,
                     "-o", str(remote_out)]) == 0
        printed = capsys.readouterr().out
        assert "submitted job-" in printed
        assert local_out.read_bytes() == remote_out.read_bytes()

    def test_server_rejects_campaign_flag(self, daemon, capsys):
        from repro.__main__ import main

        status = main(["suite", "cx5", "--checks", "gbn-logic",
                       "--server", daemon.url, "--campaign", "/tmp/x"])
        assert status == 2

    def test_results_subcommand_emits_report(self, daemon, tmp_path,
                                             capsys):
        from repro.__main__ import main

        client = Client(daemon.url)
        job = client.submit(suite_spec())
        client.wait(job["id"], timeout_s=60.0)
        capsys.readouterr()
        out_file = tmp_path / "fetched.txt"
        assert main(["results", job["id"], "--server", daemon.url,
                     "-o", str(out_file)]) == 0
        assert out_file.read_text() == execute_jobspec(suite_spec()).report

    def test_submit_subcommand_round_trips_spec_file(self, daemon,
                                                     tmp_path, capsys):
        from repro.__main__ import main

        spec_file = tmp_path / "spec.json"
        spec_file.write_text(json.dumps(encode_jobspec(suite_spec())))
        assert main(["submit", str(spec_file), "--server", daemon.url,
                     "--wait"]) == 0
        assert "done" in capsys.readouterr().out

    def test_service_commands_require_server(self, capsys):
        from repro.__main__ import main

        assert main(["status"]) == 2
        assert "needs --server" in capsys.readouterr().err
