"""Real job processes and the preloaded process server behind them.

Every other service test runs jobs inline or through a stub; these
start actual job processes through
:class:`~repro.service.dispatcher.ProcessJobExecutor` and check that
the process factory (:func:`repro.exec.procs.context`) keeps job
isolation intact: a fresh process per job, byte-identical results,
cancel and timeout that really stop the child, and failures surfaced
as :class:`JobFailed`. The last tests check the server's preload: it
takes effect even when ``repro`` reached ``sys.path`` at runtime, and
it holds every module a cold job imports.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro import quick_config
from repro.exec import procs
from repro.service import JobSpec, execute_jobspec
from repro.service.dispatcher import (JobCancelled, JobFailed, JobTimeout,
                                      ProcessJobExecutor)
from repro.service.jobs import (RESULT_FILE, result_document,
                                write_result_document)
from repro.service.jobspec import encode_jobspec
from repro.service.queue import Job

HAS_FORKSERVER = "forkserver" in multiprocessing.get_all_start_methods()


class RecordingContext:
    """Wraps the real context and keeps every Process it builds."""

    def __init__(self, context):
        self.context = context
        self.processes = []

    def Process(self, *args, **kwargs):
        process = self.context().Process(*args, **kwargs)
        self.processes.append(process)
        return process


@pytest.fixture
def recorder(monkeypatch):
    recording = RecordingContext(procs.context)
    monkeypatch.setattr(procs, "context", lambda: recording)
    return recording


def run_spec(seed: int) -> JobSpec:
    return JobSpec.for_run(quick_config(nic="cx5", num_msgs=10, seed=seed))


def long_spec(**opts) -> JobSpec:
    """A fuzz campaign far longer than any test waits for."""
    return JobSpec.for_fuzz(target="counter-bugs", nic="e810",
                            iterations=10_000, batch=2, **opts)


def execute(spec: JobSpec, job_dir, store_root=None, cancel_after_s=None):
    """Run ``spec`` in a job process; optionally cancel it after a delay."""
    job = Job(id="job-1", seq=0, spec=spec)
    timer = None
    if cancel_after_s is not None:
        timer = threading.Timer(cancel_after_s, job.cancel_event.set)
        timer.start()
    try:
        return ProcessJobExecutor().execute(
            job, str(job_dir), store_root, str(job_dir / "campaign"))
    finally:
        if timer is not None:
            timer.cancel()


class TestProcessJobExecutor:
    def test_cold_run_result_is_byte_equal_to_in_process(self, tmp_path):
        spec = run_spec(seed=7)
        execute(spec, tmp_path / "job")
        write_result_document(result_document(spec, execute_jobspec(spec)),
                              str(tmp_path / "local"))
        served = (tmp_path / "job" / RESULT_FILE).read_bytes()
        assert served == (tmp_path / "local" / RESULT_FILE).read_bytes()

    def test_job_with_its_own_pool_matches_in_process(self, tmp_path):
        # The job process is started daemonic; it must still be able to
        # start the pool its workers=2 campaign fans out over.
        spec = JobSpec.for_fuzz(target="counter-bugs", nic="e810",
                                iterations=4, batch=2, workers=2)
        doc = execute(spec, tmp_path / "job")
        local = result_document(spec, execute_jobspec(spec))
        assert doc == local

    def test_each_job_gets_a_fresh_process(self, tmp_path, recorder):
        for index in (1, 2):
            execute(run_spec(seed=index), tmp_path / f"job-{index}")
        first, second = recorder.processes
        assert first.pid != second.pid
        assert os.getpid() not in (first.pid, second.pid)
        assert first.exitcode == second.exitcode == 0

    def test_timeout_terminates_the_child(self, tmp_path, recorder):
        with pytest.raises(JobTimeout, match="exceeded timeout"):
            execute(long_spec(timeout_s=0.3), tmp_path / "job")
        (process,) = recorder.processes
        assert not process.is_alive()
        assert process.exitcode != 0
        assert not (tmp_path / "job" / RESULT_FILE).exists()

    def test_cancel_event_raises_job_cancelled(self, tmp_path, recorder):
        with pytest.raises(JobCancelled, match="cancelled while running"):
            execute(long_spec(), tmp_path / "job", cancel_after_s=0)
        (process,) = recorder.processes
        assert not process.is_alive()

    def test_nonzero_exit_raises_job_failed(self, tmp_path, capfd):
        not_a_dir = tmp_path / "store-is-a-file"
        not_a_dir.write_text("")
        with pytest.raises(JobFailed, match="exited with code 1"):
            execute(run_spec(seed=1), tmp_path / "job",
                    store_root=str(not_a_dir))
        capfd.readouterr()  # the child's traceback

    def test_cancel_stops_a_job_running_its_own_pool(self, tmp_path,
                                                     recorder):
        # A workers=2 job fans out over a pool inside the job process;
        # cancelling it must take down the job's whole process group,
        # its pool workers and their process server included.
        with pytest.raises(JobCancelled):
            execute(long_spec(workers=2), tmp_path / "job",
                    cancel_after_s=1.5)
        (process,) = recorder.processes
        assert not process.is_alive()
        if hasattr(os, "killpg"):
            assert group_gone(process.pid)


def group_gone(pgid: int, timeout_s: float = 10.0) -> bool:
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return True
        time.sleep(0.05)
    return False


PROBE = """\
import sys


def target():
    sys.exit(0 if "repro.core.orchestrator" in sys.modules else 3)
"""

PARENT = """\
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {probe_dir!r})
from repro.exec import procs
import probe_target

process = procs.context().Process(target=probe_target.target)
process.start()
process.join(60)
sys.exit(process.exitcode)
"""


@pytest.mark.skipif(not HAS_FORKSERVER, reason="no forkserver on platform")
def test_preload_reaches_children_when_src_is_added_at_runtime(tmp_path):
    (tmp_path / "probe_target.py").write_text(PROBE)
    src = os.path.dirname(os.path.dirname(repro.__file__))
    code = PARENT.format(src=src, probe_dir=str(tmp_path))
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONPATH"}
    # The probe imports nothing from repro, so its child can only hold
    # the orchestrator through the server's preload.
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            cwd=str(tmp_path), capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr


JOB_IMPORTS_PROBE = """\
import json
import sys


def record(spec_doc, job_dir, out_path):
    before = set(sys.modules)
    from repro.service.dispatcher import _job_process_main
    _job_process_main(spec_doc, job_dir, None, None)
    with open(out_path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(sorted(set(sys.modules) - before)))
"""

JOB_IMPORTS_PARENT = """\
import sys
sys.path.insert(0, {src!r})
sys.path.insert(0, {probe_dir!r})
from repro.exec import procs
import job_imports_probe

process = procs.context().Process(target=job_imports_probe.record,
                                  args=({spec_doc!r}, {job_dir!r},
                                        {out_path!r}),
                                  daemon=True)
process.start()
process.join(120)
sys.exit(process.exitcode)
"""


def job_imports(spec: JobSpec, tmp_path) -> list:
    """The modules a cold job process of ``spec`` imports beyond its
    server's.

    The parent is a ``-c`` interpreter, so no main script is re-run in
    the child, and the target lives in a probe module that imports only
    ``sys`` and ``json``: the child's ``sys.modules`` at target entry is
    the server's, plus nothing a job could need.
    """
    (tmp_path / "job_imports_probe.py").write_text(JOB_IMPORTS_PROBE)
    out = tmp_path / "imports.json"
    code = JOB_IMPORTS_PARENT.format(
        src=os.path.dirname(os.path.dirname(repro.__file__)),
        probe_dir=str(tmp_path), spec_doc=encode_jobspec(spec),
        job_dir=str(tmp_path / "job"), out_path=str(out))
    result = subprocess.run([sys.executable, "-c", code],
                            cwd=str(tmp_path), capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(out.read_text())


@pytest.mark.skipif(not HAS_FORKSERVER, reason="no forkserver on platform")
@pytest.mark.parametrize("spec", [
    run_spec(seed=3),
    JobSpec.for_suite("cx5", checks=["gbn-logic"]),
    JobSpec.for_fuzz(target="counter-bugs", nic="e810", iterations=2,
                     batch=2),
    JobSpec.for_sweep(nics=["cx5"], seeds=1, messages=2),
    JobSpec.for_sweep(nics=["cx5", "e810"], seeds=1, messages=2, workers=2),
], ids=["run", "suite", "fuzz", "sweep", "sweep-workers-2"])
def test_cold_job_imports_nothing_the_server_lacks(spec, tmp_path):
    assert job_imports(spec, tmp_path) == []
