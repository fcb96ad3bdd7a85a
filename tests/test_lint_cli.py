"""End-to-end tests for the repro-lint front end.

Covers the acceptance criteria: the repo tip lints clean (the
meta-test CI gates on), a scratch tree seeded with a DET001 violation
fails, the baseline masks pre-existing findings until
--update-baseline refreshes it, and both entry points
(``python -m repro.lint`` and ``python -m repro lint``) agree.
"""

import json
import os
import subprocess
import sys
import textwrap

from repro.lint.baseline import Baseline
from repro.lint.cli import default_root, lint_tree, main

SRC_DIR = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def write_tree(root, files):
    for rel, source in files.items():
        path = root / rel
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(textwrap.dedent(source))
    return str(root)


CLEAN_MODULE = """
    def f(sim, fn):
        return sim.schedule(10, fn)
"""

DET001_VIOLATION = """
    import time

    def now_ns():
        return time.time()
"""


# ----------------------------------------------------------------------
# The meta-test: the repository tip must lint clean.
# ----------------------------------------------------------------------
def test_repo_tip_is_clean_in_process(capsys):
    assert main([]) == 0
    out = capsys.readouterr().out
    assert "0 findings" in out


def test_repo_tip_is_clean_via_module_entry():
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    for cmd in (["-m", "repro.lint"], ["-m", "repro", "lint"]):
        proc = subprocess.run([sys.executable] + cmd, env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        assert "0 findings" in proc.stdout


# ----------------------------------------------------------------------
# Seeded violations in a scratch tree (what the CI lint job gates on)
# ----------------------------------------------------------------------
def test_seeded_det001_violation_fails(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {
        "sim/model.py": DET001_VIOLATION,
        "core/ok.py": CLEAN_MODULE,
    })
    status = main([root, "--no-baseline"])
    out = capsys.readouterr().out
    assert status == 1
    assert "DET001" in out
    assert "pkg/sim/model.py" in out


def test_seeded_violation_fails_via_subprocess(tmp_path):
    """The exact shape of the CI gate: exit 1 on a fresh DET001."""
    root = write_tree(tmp_path / "pkg", {"sim/clock.py": DET001_VIOLATION})
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "lint", root, "--no-baseline"],
        env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert "DET001" in proc.stdout


def test_clean_tree_exits_zero(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {"sim/ok.py": CLEAN_MODULE})
    assert main([root, "--no-baseline"]) == 0


def test_parse_error_exits_two(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {"sim/broken.py": "def f(:\n"})
    assert main([root, "--no-baseline"]) == 2
    assert "syntax error" in capsys.readouterr().err


def test_unknown_rule_code_exits_two(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {"sim/ok.py": CLEAN_MODULE})
    assert main([root, "--select", "NOPE123"]) == 2


# ----------------------------------------------------------------------
# JSON reporter
# ----------------------------------------------------------------------
def test_json_format(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {"sim/model.py": DET001_VIOLATION})
    status = main([root, "--no-baseline", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert status == 1
    assert payload["summary"]["total"] == 1
    (finding,) = payload["findings"]
    assert finding["code"] == "DET001"
    assert finding["severity"] == "error"
    assert finding["path"] == "pkg/sim/model.py"
    assert finding["line"] == 5


# ----------------------------------------------------------------------
# Baseline lifecycle
# ----------------------------------------------------------------------
def test_baseline_masks_and_update_refreshes(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {"sim/model.py": DET001_VIOLATION})
    baseline = str(tmp_path / "baseline.json")

    # 1. Unbaselined: fails.
    assert main([root, "--baseline", baseline]) == 1
    capsys.readouterr()

    # 2. Adopt the current findings as the baseline: now passes.
    assert main([root, "--baseline", baseline, "--update-baseline"]) == 0
    capsys.readouterr()
    assert main([root, "--baseline", baseline]) == 0
    out = capsys.readouterr().out
    assert "1 baselined" in out

    # 3. A *new* violation still fails while the old one stays masked.
    write_tree(tmp_path / "pkg", {"rdma/fresh.py": """
        import random

        def f():
            return random.random()
    """})
    assert main([root, "--baseline", baseline]) == 1
    out = capsys.readouterr().out
    assert "DET002" in out
    assert "model.py" not in out  # masked finding not reported


def test_baseline_survives_line_drift(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {"sim/model.py": DET001_VIOLATION})
    baseline = str(tmp_path / "baseline.json")
    assert main([root, "--baseline", baseline, "--update-baseline"]) == 0
    # Insert lines above the finding: the fingerprint is content-based.
    path = tmp_path / "pkg" / "sim" / "model.py"
    path.write_text("# a comment\n# another\n" + path.read_text())
    capsys.readouterr()
    assert main([root, "--baseline", baseline]) == 0


def test_baseline_fingerprints_distinguish_duplicates(tmp_path):
    src = """
        import time

        def a():
            return time.time()

        def b():
            return time.time()
    """
    root = write_tree(tmp_path / "pkg", {"sim/model.py": src})
    findings, _stats = lint_tree(root)
    assert len(findings) == 2
    baseline = Baseline.from_findings(findings[:1])
    new, masked = baseline.split(findings)
    # Identical source lines: the Nth occurrence masks the Nth finding.
    assert len(masked) == 1 and len(new) == 1


def test_show_masked_lists_baselined_findings(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {"sim/model.py": DET001_VIOLATION})
    baseline = str(tmp_path / "baseline.json")
    main([root, "--baseline", baseline, "--update-baseline"])
    capsys.readouterr()
    assert main([root, "--baseline", baseline, "--show-masked"]) == 0
    assert "DET001" in capsys.readouterr().out


def test_committed_baseline_is_loadable_and_current():
    from repro.lint.cli import default_baseline_path

    baseline = Baseline.load(default_baseline_path())
    findings, _ = lint_tree(default_root())
    new, _masked = baseline.split(findings)
    assert new == [], ("unbaselined lint findings on the repo tip: "
                       + ", ".join(f.location() for f in new))


# ----------------------------------------------------------------------
# Baseline hygiene: reasons and staleness
# ----------------------------------------------------------------------
def test_update_baseline_warns_on_todo_reasons(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {"sim/model.py": DET001_VIOLATION})
    baseline = str(tmp_path / "baseline.json")
    assert main([root, "--baseline", baseline, "--update-baseline"]) == 0
    err = capsys.readouterr().err
    assert "TODO reason" in err
    (entry,) = json.loads(open(baseline).read())["findings"].values()
    assert entry["reason"].startswith("TODO")


def test_update_baseline_preserves_edited_reasons(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {"sim/model.py": DET001_VIOLATION})
    baseline = str(tmp_path / "baseline.json")
    main([root, "--baseline", baseline, "--update-baseline"])
    doc = json.loads(open(baseline).read())
    (fp,) = doc["findings"]
    doc["findings"][fp]["reason"] = "scratch clock, asserted equal in CI"
    with open(baseline, "w") as handle:
        json.dump(doc, handle)
    capsys.readouterr()
    # Re-adopting the same findings keeps the hand-written reason and
    # no longer warns.
    assert main([root, "--baseline", baseline, "--update-baseline"]) == 0
    assert "TODO reason" not in capsys.readouterr().err
    entry = json.loads(open(baseline).read())["findings"][fp]
    assert entry["reason"] == "scratch clock, asserted equal in CI"


def test_stale_baseline_entry_fails_full_run(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {"sim/model.py": DET001_VIOLATION})
    baseline = str(tmp_path / "baseline.json")
    main([root, "--baseline", baseline, "--update-baseline"])
    # Fix the violation: its baseline entry is now stale, and a full
    # run must say so.
    write_tree(tmp_path / "pkg", {"sim/model.py": CLEAN_MODULE})
    capsys.readouterr()
    assert main([root, "--baseline", baseline]) == 1
    err = capsys.readouterr().err
    assert "stale baseline" in err and "--prune-baseline" in err
    # --select and --no-baseline runs can't judge staleness: no failure.
    assert main([root, "--baseline", baseline, "--select", "DET002"]) == 0
    assert main([root, "--no-baseline"]) == 0


def test_prune_baseline_drops_stale_entries(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {"sim/model.py": DET001_VIOLATION})
    baseline = str(tmp_path / "baseline.json")
    main([root, "--baseline", baseline, "--update-baseline"])
    write_tree(tmp_path / "pkg", {"sim/model.py": CLEAN_MODULE})
    capsys.readouterr()
    assert main([root, "--baseline", baseline, "--prune-baseline"]) == 0
    assert "1 stale entry dropped" in capsys.readouterr().out
    assert json.loads(open(baseline).read())["findings"] == {}
    assert main([root, "--baseline", baseline]) == 0


def test_committed_baseline_reasons_are_justified():
    from repro.lint.cli import default_baseline_path

    baseline = Baseline.load(default_baseline_path())
    assert baseline.reasonless_fingerprints() == [], (
        "baseline entries without a justification reason")


# ----------------------------------------------------------------------
# --changed: the fast CI pre-gate
# ----------------------------------------------------------------------
def git(cwd, *argv):
    subprocess.run(
        ["git", "-c", "user.name=t", "-c", "user.email=t@example.com",
         *argv],
        cwd=cwd, check=True, capture_output=True)


def test_changed_lints_only_touched_files(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {
        "sim/model.py": CLEAN_MODULE,
        "rdma/old.py": DET001_VIOLATION,  # pre-existing, committed
    })
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-qm", "seed")
    # Touch one file with a fresh violation; leave old.py alone.
    write_tree(tmp_path / "pkg", {"sim/model.py": DET001_VIOLATION})
    assert main([root, "--no-baseline", "--changed", "HEAD"]) == 1
    out = capsys.readouterr().out
    assert "pkg/sim/model.py" in out
    assert "old.py" not in out


def test_changed_includes_untracked_files(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {"sim/model.py": CLEAN_MODULE})
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-qm", "seed")
    write_tree(tmp_path / "pkg", {"sim/fresh.py": DET001_VIOLATION})
    assert main([root, "--no-baseline", "--changed"]) == 1
    assert "pkg/sim/fresh.py" in capsys.readouterr().out


def test_changed_with_no_diff_exits_zero(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {"sim/model.py": CLEAN_MODULE})
    git(tmp_path, "init", "-q")
    git(tmp_path, "add", "-A")
    git(tmp_path, "commit", "-qm", "seed")
    assert main([root, "--no-baseline", "--changed"]) == 0
    assert "no python files changed" in capsys.readouterr().out


def test_changed_outside_git_repo_exits_two(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {"sim/model.py": CLEAN_MODULE})
    assert main([root, "--no-baseline", "--changed"]) == 2
    assert "git diff" in capsys.readouterr().err


# ----------------------------------------------------------------------
# --graph
# ----------------------------------------------------------------------
GRAPH_FILES = {
    "pkg/sim/a.py": """
        from ..util.b import helper

        def entry():
            return helper()
    """,
    "pkg/util/b.py": """
        def helper():
            return 1
    """,
}


def test_graph_text_output(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {
        rel[len("pkg/"):]: src for rel, src in GRAPH_FILES.items()})
    assert main([root, "--graph"]) == 0
    out = capsys.readouterr().out
    assert "pkg.sim.a.entry" in out
    assert "-> pkg.util.b.helper" in out
    assert out.rstrip().splitlines()[-1].startswith("callgraph:")


def test_graph_json_output(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {
        rel[len("pkg/"):]: src for rel, src in GRAPH_FILES.items()})
    assert main([root, "--graph", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["modules"] == 2
    assert any(e["caller"] == "pkg.sim.a.entry"
               and e["callee"] == "pkg.util.b.helper"
               for e in doc["edges"])


def test_graph_on_repo_tip_succeeds(capsys):
    assert main(["--graph", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"]["functions"] > 500
    assert doc["summary"]["edges"] > 1000


# ----------------------------------------------------------------------
# --sarif
# ----------------------------------------------------------------------
def test_sarif_report_written(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {"sim/model.py": DET001_VIOLATION})
    sarif = tmp_path / "out.sarif"
    assert main([root, "--no-baseline", "--sarif", str(sarif)]) == 1
    doc = json.loads(sarif.read_text())
    assert doc["version"] == "2.1.0"
    run = doc["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro-lint"
    (result,) = run["results"]
    assert result["ruleId"] == "DET001"
    loc = result["locations"][0]["physicalLocation"]
    assert loc["artifactLocation"]["uri"] == "pkg/sim/model.py"
    assert loc["region"]["startLine"] == 5
    # Rule metadata is indexable for code scanning.
    rules = run["tool"]["driver"]["rules"]
    assert rules[result["ruleIndex"]]["id"] == "DET001"


def test_sarif_masked_findings_excluded(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {"sim/model.py": DET001_VIOLATION})
    baseline = str(tmp_path / "baseline.json")
    main([root, "--baseline", baseline, "--update-baseline"])
    sarif = tmp_path / "out.sarif"
    capsys.readouterr()
    assert main([root, "--baseline", baseline, "--sarif", str(sarif)]) == 0
    assert json.loads(sarif.read_text())["runs"][0]["results"] == []


# ----------------------------------------------------------------------
# Misc front-end behaviour
# ----------------------------------------------------------------------
def test_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("DET001", "DET002", "DET003", "DET004",
                 "EXEC001", "TEL001", "API001"):
        assert code in out


def test_nonexistent_root_exits_two(tmp_path):
    assert main([str(tmp_path / "missing")]) == 2


def test_select_limits_scan(tmp_path, capsys):
    root = write_tree(tmp_path / "pkg", {"sim/model.py": """
        import time
        import random

        def f():
            return time.time() + random.random()
    """})
    assert main([root, "--no-baseline", "--select", "det001"]) == 1
    out = capsys.readouterr().out
    assert "DET001" in out and "DET002" not in out
