"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run <config.json>``   — run one test from a JSON config (the dict
  shape of Listings 1–2) and print the full report.
* ``fuzz <config.json>``  — fuzz around a base config (Algorithm 1);
  ``--target {general,noisy-neighbor,counter-bugs}`` uses a preset.
* ``suite <nic>``         — run the conformance battery (scorecard).
* ``sweep``               — benchmark sweep: one workload across a
  NIC × seed grid, reporting per-run summaries and runs/sec.
* ``incast``              — run an N-to-1 fan-in workload.
* ``nics``                — list the built-in NIC behaviour profiles.
* ``example-config``      — print a ready-to-edit JSON config.
* ``observe-report <path>`` — summarize an ``--observe`` directory
  (metrics headline + coverage domain table), or summarize/diff the
  coverage of a ``coverage.json``, a campaign directory or a store.
* ``lint``                — determinism & spawn-safety static analysis
  over the testbed sources (see :mod:`repro.lint`).

The campaign commands (``run``, ``fuzz``, ``suite``, ``sweep``,
``incast``) share one flag vocabulary — ``--seed``, ``--workers``,
``--observe``, ``--measurement-faults`` and ``--output`` mean the
same thing, with the same defaults, everywhere they apply:

* ``--workers N`` fans the campaign out over a spawn-safe process pool
  (``repro.exec``), falling back to in-process serial execution if the
  pool dies. Results are byte-identical for any worker count — for
  ``fuzz`` the generation schedule is fixed by ``--batch``, not by
  ``--workers``. Single-run commands (``run``, ``incast``) ignore it.
* ``--observe DIR`` executes under one observation session (see
  :mod:`repro.observe`) and writes everything it saw into DIR on
  completion: a Chrome trace (``trace.json``), Prometheus metrics
  (``metrics.prom``), span JSONL (``events.jsonl``), the micro-behavior
  coverage map (``coverage.json`` — which protocol state-machine edges,
  switch pipeline branches and DCQCN transitions the campaign
  exercised; byte-identical for any ``--workers`` value) and a
  ``flight-*.txt`` dump per failing/inconclusive/retried unit of work.
  For ``fuzz`` a live session also switches selection to
  **coverage-guided fitness** (novelty bonus, first-hit admission,
  corpus minimization, finding dedup); ``--no-coverage-fitness``
  forces the blind GA, and ``--coverage-fitness`` without ``--observe``
  runs guided with an in-memory, coverage-only session.
* ``--measurement-faults SCENARIO`` stresses the measurement plane
  (mirror links, dumper rings) with a named deterministic fault
  scenario (see :mod:`repro.faults.scenarios`); the §3.5 integrity
  check / retry machinery has to cope, and suite checks whose evidence
  window overlaps a capture gap report INCONCLUSIVE instead of a false
  verdict. (``incast`` builds its own testbed and rejects the flag.)
* ``--output FILE`` writes the command's report to FILE instead of
  only stdout. Campaign reports written this way are deterministic —
  no wall-clock content — so resumed and uninterrupted campaigns
  produce byte-identical files.

``run``, ``fuzz``, ``suite`` and ``sweep`` additionally accept
``--campaign DIR``: results are content-addressed in ``DIR/store`` and
replayed instead of re-simulated on a later invocation (``fuzz`` also
journals per-generation state in ``DIR/journal.jsonl``, so a killed
campaign resumes exactly where it stopped — see ``repro.store``).

The campaign service (``repro.service``) adds a second execution mode:
``serve`` starts a long-running daemon, and ``run``/``fuzz``/``suite``/
``sweep`` accept ``--server URL`` to submit the same job to a daemon
instead of executing locally. Both modes build the identical
:class:`~repro.service.jobspec.JobSpec`, so local and remote execution
share one fingerprint and produce byte-identical reports.
``submit``/``status``/``results``/``cancel`` talk to a running daemon
directly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional

from .core.config import TestConfig
from .rdma.profiles import PROFILES

#: Historical per-command seed defaults, applied when --seed is omitted.
_INCAST_DEFAULT_SEED = 55

_EXAMPLE_CONFIG = {
    "requester": {
        "nic": {"type": "cx5", "ip-list": ["10.0.0.1/24"]},
        "roce-parameters": {"dcqcn-np-enable": True,
                            "min-time-between-cnps": 4,
                            "adaptive-retrans": False},
    },
    "responder": {"nic": {"type": "cx5", "ip-list": ["10.0.0.2/24"]}},
    "traffic": {
        "num-connections": 2,
        "rdma-verb": "write",
        "num-msgs-per-qp": 10,
        "mtu": 1024,
        "message-size": 10240,
        "barrier-sync": True,
        "min-retransmit-timeout": 14,
        "max-retransmit-retry": 7,
        "data-pkt-events": [
            {"qpn": 1, "psn": 4, "type": "ecn", "iter": 1},
            {"qpn": 2, "psn": 5, "type": "drop", "iter": 1},
            {"qpn": 2, "psn": 5, "type": "drop", "iter": 2},
        ],
    },
    "seed": 1,
}


def _fault_scenario_names() -> List[str]:
    from .faults import SCENARIOS

    return sorted(SCENARIOS)


def _load_config(path: str, seed: Optional[int] = None) -> TestConfig:
    with open(path) as handle:
        data = json.load(handle)
    if seed is not None:
        data["seed"] = seed
    return TestConfig.from_dict(data)


def _emit_report(report: str, output: Optional[str]) -> None:
    """Print a report and, with --output, persist it byte-for-byte."""
    print(report, end="" if report.endswith("\n") else "\n")
    if output:
        with open(output, "w") as handle:
            handle.write(report)
        print(f"report written to {output}")


def _spec_opts(args: argparse.Namespace) -> dict:
    """The JobSpec keywords every campaign command takes from its flags.

    ``observe`` is set only for a --server submission. Locally
    ``main()`` drives the session in-process, so a plain local command
    and a plain remote one build the identical, fingerprint-equal spec;
    a remote job carries the request in its payload and exports into
    its job directory on the daemon side.
    """
    opts = {"faults": args.measurement_faults, "workers": args.workers,
            "priority": args.priority}
    if args.server:
        opts["observe"] = bool(args.observe)
    return opts


def _client(args: argparse.Namespace):
    from .service import Client

    return Client(args.server)


def _run_remote(args: argparse.Namespace, spec) -> int:
    """Submit a spec to ``--server``, wait, and emit the fetched report."""
    if args.campaign:
        print("error: --campaign is local-only; the service keeps its "
              "own store (see `repro serve`)", file=sys.stderr)
        return 2
    client = _client(args)
    job = client.submit(spec)
    print(f"submitted {job['id']} "
          f"(fingerprint {job['fingerprint'][:12]}) to {args.server}")
    final = client.wait(job["id"])
    if final["state"] != "done":
        print(f"error: job {job['id']} {final['state']}: "
              f"{final.get('error')}", file=sys.stderr)
        return 1
    if final.get("replayed"):
        print("result replayed from service store")
    body = client.results(job["id"])
    _emit_report(body["report"], args.output)
    return int(body["exit-code"])


def _execute(args: argparse.Namespace, spec) -> int:
    """The one tail of ``run``, ``fuzz``, ``suite`` and ``sweep``: submit
    to ``--server``, or execute against the ``--campaign`` store and
    print notes, report, a sweep's wall-clock rate and store stats."""
    if args.server:
        return _run_remote(args, spec)
    from .service import execute_jobspec
    from .store import CampaignStore

    store = (CampaignStore(os.path.join(args.campaign, "store"))
             if args.campaign else None)
    started = time.perf_counter()
    outcome = execute_jobspec(spec, store=store, campaign_dir=args.campaign)
    elapsed = time.perf_counter() - started
    for note in outcome.notes:
        print(note)
    _emit_report(outcome.report, args.output)
    if spec.kind == "sweep":
        stats = outcome.stats
        rate = stats["executed"] / elapsed if elapsed > 0 else 0.0
        print(f"{stats['executed']} of {stats['total']} runs executed in "
              f"{elapsed:.2f}s ({rate:.2f} runs/s, workers={args.workers}, "
              f"crashes={stats['crashes']})")
    if store is not None:
        print(store.stats())
    return outcome.exit_code


def cmd_run(args: argparse.Namespace) -> int:
    from .service import JobSpec

    config = _load_config(args.config, args.seed)
    return _execute(args, JobSpec.for_run(config, **_spec_opts(args)))


def cmd_fuzz(args: argparse.Namespace) -> int:
    from .service import JobSpec

    if not args.target and not args.config:
        print("error: provide a config file or --target", file=sys.stderr)
        return 2
    config = None
    if not args.target:
        config = _load_config(args.config, args.seed)
    return _execute(args, JobSpec.for_fuzz(
        config=config, target=args.target, nic=args.nic, seed=args.seed,
        iterations=args.iterations, batch=args.batch,
        threshold=args.threshold, stop_on_first=args.stop_on_first,
        coverage_fitness=args.coverage_fitness, **_spec_opts(args)))


def cmd_suite(args: argparse.Namespace) -> int:
    from .service import JobSpec

    return _execute(args, JobSpec.for_suite(
        args.nic, seed=args.seed, checks=args.checks or None,
        **_spec_opts(args)))


def cmd_sweep(args: argparse.Namespace) -> int:
    from .service import JobSpec

    base_seed = args.seed if args.seed is not None else args.base_seed
    nics = [n.strip() for n in args.nics.split(",") if n.strip()]
    config = _load_config(args.config) if args.config else None
    return _execute(args, JobSpec.for_sweep(
        nics=nics, seeds=args.seeds, base_seed=base_seed, config=config,
        verb=args.verb, connections=args.connections,
        messages=args.messages, size=args.size, timeout=args.timeout,
        **_spec_opts(args)))


def cmd_incast(args: argparse.Namespace) -> int:
    from .core.incast import IncastConfig, run_incast

    if args.measurement_faults:
        print("error: incast builds its own fan-in testbed and does not "
              "support --measurement-faults", file=sys.stderr)
        return 2
    if args.server:
        print("error: incast is a local diagnostic and does not support "
              "--server", file=sys.stderr)
        return 2
    seed = args.seed if args.seed is not None else _INCAST_DEFAULT_SEED
    result = run_incast(IncastConfig(
        num_senders=args.senders, nic_type=args.nic,
        num_msgs_per_sender=args.messages, message_size=args.size,
        ecn_threshold_kb=args.ecn_threshold_kb,
        receiver_queue_bytes=args.queue_kb * 1024 if args.queue_kb else None,
        seed=seed,
    ))
    drops = sum(p["tx_drops"] for p in result.switch_counters["ports"].values())
    lines = [
        f"{args.senders} senders ({args.nic}) -> 1 receiver",
        f"aggregate goodput: {result.aggregate_goodput_bps / 1e9:.1f} Gbps",
        f"fairness (Jain):   {result.fairness:.2f}",
        f"retransmitted:     {sum(result.per_sender_retransmits.values())}",
        f"queue ECN marks:   {result.switch_counters['ecn_marked_by_queue']}",
        f"switch drops:      {drops}",
        f"capture integrity: {'PASS' if result.integrity.ok else 'FAIL'}",
    ]
    _emit_report("\n".join(lines) + "\n", args.output)
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from .service import CampaignDaemon

    daemon = CampaignDaemon(
        args.state_dir, host=args.host, port=args.port,
        retention_interval_s=args.retention_interval,
        retain_entries=args.retain_entries)
    daemon.start()
    print(f"campaign service listening on {daemon.url} "
          f"(state: {args.state_dir})", flush=True)
    daemon.run_forever()
    return 0


def cmd_submit(args: argparse.Namespace) -> int:
    from .service import decode_jobspec

    with open(args.spec) as handle:
        doc = json.load(handle)
    try:
        spec = decode_jobspec(doc)
    except ValueError as exc:
        print(f"error: {args.spec}: {exc}", file=sys.stderr)
        return 2
    if args.priority:
        from dataclasses import replace

        spec = replace(spec, priority=args.priority)
    client = _client(args)
    job = client.submit(spec)
    print(f"{job['id']} {job['state']} "
          f"(fingerprint {job['fingerprint'][:12]})")
    if not args.wait:
        return 0
    final = client.wait(job["id"])
    print(f"{final['id']} {final['state']}"
          + (f": {final['error']}" if final.get("error") else ""))
    return (int(final["exit-code"]) if final["state"] == "done" else 1)


def cmd_status(args: argparse.Namespace) -> int:
    client = _client(args)
    if args.job:
        rows = [client.status(args.job)]
        if args.progress:
            progress = client.progress(args.job)
            extras = {k: v for k, v in sorted(progress.items())
                      if k not in ("id", "state", "job-kind")}
    else:
        rows = client.jobs()
    print(f"{'id':<12s}{'kind':<7s}{'state':<11s}{'exit':>5s}  notes")
    for row in rows:
        exit_code = row.get("exit-code")
        notes = []
        if row.get("replayed"):
            notes.append("replayed")
        if row.get("error"):
            notes.append(row["error"])
        print(f"{row['id']:<12s}{row['job-kind']:<7s}{row['state']:<11s}"
              f"{'-' if exit_code is None else exit_code:>5}  "
              + "; ".join(notes))
    if args.job and args.progress:
        for key, value in extras.items():
            print(f"  {key}: {value}")
    return 0


def cmd_results(args: argparse.Namespace) -> int:
    client = _client(args)
    if args.json:
        raw = client.results_bytes(args.job)
        if args.output:
            with open(args.output, "wb") as handle:
                handle.write(raw)
            print(f"result document written to {args.output}")
        else:
            sys.stdout.write(raw.decode("utf-8") + "\n")
        return 0
    body = client.results(args.job)
    _emit_report(body["report"], args.output)
    return int(body["exit-code"])


def cmd_cancel(args: argparse.Namespace) -> int:
    outcome = _client(args).cancel(args.job)
    print(f"{args.job}: {outcome}")
    return 0 if outcome in ("cancelled", "cancelling") else 1


def cmd_nics(_args: argparse.Namespace) -> int:
    print(f"{'name':<8s}{'vendor':<12s}{'speed':<9s}behaviour notes")
    print("-" * 70)
    for profile in PROFILES.values():
        notes = []
        if not profile.ets_work_conserving:
            notes.append("non-work-conserving ETS")
        if profile.pipeline_stall_read_loss_threshold is not None:
            notes.append("noisy-neighbor stall")
        if profile.migreq_initial == 0:
            notes.append("sends MigReq=0")
        if profile.migreq_zero_slow_path:
            notes.append("MigReq=0 slow path")
        if profile.stuck_counters:
            notes.append(f"stuck: {','.join(sorted(profile.stuck_counters))}")
        if profile.hidden_cnp_interval_ns:
            notes.append(f"hidden CNP interval "
                         f"{profile.hidden_cnp_interval_ns // 1000}us")
        print(f"{profile.name:<8s}{profile.vendor:<12s}"
              f"{profile.default_bandwidth_gbps:>4.0f}Gbps  "
              + ("; ".join(notes) if notes else "spec-compliant"))
    return 0


def cmd_example_config(_args: argparse.Namespace) -> int:
    print(json.dumps(_EXAMPLE_CONFIG, indent=2))
    return 0


def cmd_observe_report(args: argparse.Namespace) -> int:
    from .coverage.report import (load_points, render_coverage,
                                  render_coverage_json, render_diff)
    from .telemetry.report import has_artifacts, render_summary

    try:
        points = load_points(args.path)
        other = load_points(args.diff) if args.diff else None
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if other is not None:
        report = render_diff(points, other, args.path, args.diff)
    elif args.json:
        report = render_coverage_json(points)
    else:
        report = render_coverage(points, title=args.path)
        if has_artifacts(args.path):
            report = render_summary(args.path) + "\n" + report
    _emit_report(report, args.output)
    return 0


def _common_parser() -> argparse.ArgumentParser:
    """The flag vocabulary every campaign command shares.

    One definition means one help string and one default per flag —
    ``suite``'s historical divergent ``--seed`` default (77 instead of
    None) is resolved inside :func:`repro.core.suite.\
    run_conformance_suite` (``None`` → ``DEFAULT_SUITE_SEED``), not by
    a per-command argparse default.
    """
    common = argparse.ArgumentParser(add_help=False)
    group = common.add_argument_group("common options")
    group.add_argument("--seed", type=int, default=None,
                       help="override the RNG seed (default: the "
                            "command's documented default)")
    group.add_argument("--workers", type=int, default=1,
                       help="process-pool size for campaign commands "
                            "(default: 1, in-process; single-run "
                            "commands ignore it)")
    group.add_argument("--observe", metavar="DIR", default=None,
                       help="observe the run and write metrics, traces, "
                            "coverage.json and flight-recorder dumps "
                            "for failing runs into DIR")
    group.add_argument("--measurement-faults", metavar="SCENARIO",
                       default=None, choices=_fault_scenario_names(),
                       help="inject measurement-plane faults "
                            "(capture stress test); one of: "
                            + ", ".join(_fault_scenario_names()))
    group.add_argument("--output", "-o", metavar="FILE", default=None,
                       help="write the command's report to FILE "
                            "(deterministic: no wall-clock content)")
    group.add_argument("--server", metavar="URL", default=None,
                       help="submit to a campaign service (see `repro "
                            "serve`) instead of executing locally; the "
                            "job builds the same JobSpec either way, so "
                            "local and remote results are fingerprint-"
                            "identical")
    group.add_argument("--priority", type=int, default=0,
                       help="queue priority for --server submissions "
                            "(higher dispatches first, FIFO within a "
                            "priority; local execution ignores it)")
    return common


def _add_campaign_flag(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--campaign", metavar="DIR", default=None,
                        help="content-addressed campaign directory: "
                             "cache results in DIR/store and replay "
                             "them on repeat invocations")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Lumina (SIGCOMM 2023) reproduction: test hardware "
                    "network stack models in simulation.",
    )
    common = _common_parser()
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", parents=[common],
                           help="run one test from a JSON config")
    run_p.add_argument("config")
    _add_campaign_flag(run_p)
    run_p.set_defaults(func=cmd_run)

    fuzz_p = sub.add_parser("fuzz", parents=[common],
                            help="fuzz around a base config")
    fuzz_p.add_argument("config", nargs="?",
                        help="JSON base config (omit when using --target)")
    fuzz_p.add_argument("--target",
                        choices=("general", "noisy-neighbor", "counter-bugs"),
                        help="use a predefined fuzz target instead of a config")
    fuzz_p.add_argument("--nic", default="cx5",
                        help="NIC model for --target runs")
    fuzz_p.add_argument("--iterations", "-n", type=int, default=20)
    fuzz_p.add_argument("--threshold", type=float, default=3.0)
    fuzz_p.add_argument("--stop-on-first", action="store_true")
    fuzz_p.add_argument("--coverage-fitness", default=None,
                        action=argparse.BooleanOptionalAction,
                        help="coverage-guided selection: novelty bonus, "
                             "first-hit admission, corpus minimization and "
                             "finding dedup (default: on exactly when "
                             "--observe is set; --no-coverage-fitness "
                             "forces the blind GA)")
    fuzz_p.add_argument("--batch", type=int, default=4,
                        help="candidates generated per pool snapshot; "
                             "fixes the schedule independently of "
                             "--workers (default: 4)")
    _add_campaign_flag(fuzz_p)
    fuzz_p.set_defaults(func=cmd_fuzz)

    suite_p = sub.add_parser(
        "suite", parents=[common],
        help="run the conformance battery against a NIC model")
    suite_p.add_argument("nic")
    suite_p.add_argument("--checks", nargs="*",
                         help="subset of checks to run (default: all)")
    _add_campaign_flag(suite_p)
    suite_p.set_defaults(func=cmd_suite)

    sweep_p = sub.add_parser(
        "sweep", parents=[common],
        help="benchmark sweep: one workload across NICs x seeds")
    sweep_p.add_argument("config", nargs="?",
                         help="JSON base config (default: built-in workload)")
    sweep_p.add_argument("--nics", default="cx4,cx5,cx6,e810",
                         help="comma-separated NIC models")
    sweep_p.add_argument("--seeds", type=int, default=1,
                         help="seeds per NIC (base-seed, base-seed+1, ...)")
    sweep_p.add_argument("--base-seed", type=int, default=1,
                         help="first seed of the grid (--seed overrides)")
    sweep_p.add_argument("--verb", default="write",
                         help="verb for the built-in workload")
    sweep_p.add_argument("--connections", type=int, default=2)
    sweep_p.add_argument("--messages", type=int, default=4)
    sweep_p.add_argument("--size", type=int, default=20480)
    sweep_p.add_argument("--timeout", type=float, default=None,
                         help="per-run timeout in seconds")
    _add_campaign_flag(sweep_p)
    sweep_p.set_defaults(func=cmd_sweep)

    incast_p = sub.add_parser("incast", parents=[common],
                              help="run an N-to-1 incast workload")
    incast_p.add_argument("--senders", type=int, default=4)
    incast_p.add_argument("--nic", default="cx6")
    incast_p.add_argument("--messages", type=int, default=8)
    incast_p.add_argument("--size", type=int, default=256 * 1024)
    incast_p.add_argument("--ecn-threshold-kb", type=int, default=None)
    incast_p.add_argument("--queue-kb", type=int, default=None,
                          help="bottleneck buffer (default: deep)")
    incast_p.set_defaults(func=cmd_incast)

    serve_p = sub.add_parser(
        "serve", parents=[common],
        help="start the long-running campaign service daemon")
    serve_p.add_argument("state_dir",
                         help="daemon state directory (queue journal, "
                              "store, per-job directories)")
    serve_p.add_argument("--host", default="127.0.0.1")
    serve_p.add_argument("--port", type=int, default=0,
                         help="TCP port (default: 0, ephemeral; the "
                              "bound URL is printed on startup)")
    serve_p.add_argument("--retention-interval", type=float, default=60.0,
                         help="seconds between background store gc/prune "
                              "passes (default: 60)")
    serve_p.add_argument("--retain-entries", type=int, default=None,
                         help="prune the service store down to this many "
                              "entries each retention pass (default: "
                              "no pruning, gc only)")
    serve_p.set_defaults(func=cmd_serve)

    submit_p = sub.add_parser(
        "submit", parents=[common],
        help="submit a job-spec JSON document to a campaign service")
    submit_p.add_argument("spec", help="job-spec JSON file (see DESIGN.md)")
    submit_p.add_argument("--wait", action="store_true",
                          help="block until the job finishes and exit "
                               "with its exit code")
    submit_p.set_defaults(func=cmd_submit, needs_server=True)

    status_p = sub.add_parser(
        "status", parents=[common],
        help="show one job (or the whole queue) of a campaign service")
    status_p.add_argument("job", nargs="?", default=None,
                          help="job id (default: list every job)")
    status_p.add_argument("--progress", action="store_true",
                          help="also show incremental progress (fuzz "
                               "generations, coverage points)")
    status_p.set_defaults(func=cmd_status, needs_server=True)

    results_p = sub.add_parser(
        "results", parents=[common],
        help="fetch a finished job's report from a campaign service")
    results_p.add_argument("job", help="job id")
    results_p.add_argument("--json", action="store_true",
                           help="emit the raw versioned result document "
                                "instead of the report text")
    results_p.set_defaults(func=cmd_results, needs_server=True)

    cancel_p = sub.add_parser(
        "cancel", parents=[common],
        help="cancel a queued or running job on a campaign service")
    cancel_p.add_argument("job", help="job id")
    cancel_p.set_defaults(func=cmd_cancel, needs_server=True)

    nics_p = sub.add_parser("nics", help="list NIC behaviour profiles")
    nics_p.set_defaults(func=cmd_nics)

    example_p = sub.add_parser("example-config",
                               help="print a sample JSON config")
    example_p.set_defaults(func=cmd_example_config)

    report_p = sub.add_parser(
        "observe-report",
        help="summarize an --observe directory, or summarize/diff "
             "coverage (a coverage.json, its directory, or a campaign "
             "store)")
    report_p.add_argument("path",
                          help="--observe directory, coverage.json file, "
                               "--campaign directory or store root")
    report_p.add_argument("--diff", metavar="OTHER", default=None,
                          help="report coverage points hit in exactly one "
                               "of the two sources")
    report_p.add_argument("--json", action="store_true",
                          help="emit the per-domain coverage summary as "
                               "JSON")
    report_p.add_argument("--output", "-o", metavar="FILE", default=None,
                          help="also write the report to FILE")
    report_p.set_defaults(func=cmd_observe_report)

    sub.add_parser(
        "lint",
        help="determinism & spawn-safety static analysis "
             "(all arguments forwarded; try: lint --help)")
    return parser


def _call_service(args: argparse.Namespace) -> int:
    """Run a ``--server`` command; a refused or unreachable daemon is
    reported once here, as exit 2."""
    from .service import ServiceError

    try:
        return args.func(args)
    except ServiceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main(argv: Optional[List[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # ``lint`` owns its whole argument tail (argparse.REMAINDER cannot
    # forward leading ``--flags``), so dispatch before parsing.
    if argv and argv[0] == "lint":
        from .lint.cli import main as lint_main

        return lint_main(argv[1:])
    args = build_parser().parse_args(argv)
    if getattr(args, "server", None):
        # Remote execution observes in the daemon's job process instead.
        return _call_service(args)
    if getattr(args, "needs_server", False):
        print("error: this command needs --server URL", file=sys.stderr)
        return 2
    from . import observe

    out_dir = getattr(args, "observe", None)
    with observe.session_for(out_dir, getattr(args, "coverage_fitness",
                                              None)):
        status = args.func(args)
    if out_dir is not None:
        print(f"observations written to {out_dir} "
              f"({', '.join(sorted(os.listdir(out_dir)))})")
    return status


if __name__ == "__main__":
    sys.exit(main())
