"""Smoke tests: the shipped examples must run and say what they claim.

Only the fast examples run here (the full studies take tens of seconds
each and are exercised manually / by the benches); this guards against
API drift breaking the documentation's entry points.
"""

import subprocess
import sys
from pathlib import Path

EXAMPLES = Path(__file__).parent.parent / "examples"


def run_example(name: str, timeout: int = 120) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True, text=True, timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExampleSmoke:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "integrity PASS" in out
        assert "NACK generation" in out
        assert "compliant" in out

    def test_retransmission_study(self):
        out = run_example("retransmission_study.py")
        assert "NACK-gen" in out
        for nic in ("cx4", "cx5", "cx6", "e810"):
            assert nic in out

    def test_interop_debugging(self):
        out = run_example("interop_debugging.py", timeout=180)
        assert "MigReq=0" in out
        assert "MigReq=1" in out
        assert "stops discarding" in out

    def test_all_examples_exist_and_have_docstrings(self):
        scripts = sorted(EXAMPLES.glob("*.py"))
        assert len(scripts) >= 8
        for script in scripts:
            text = script.read_text()
            assert text.startswith("#!/usr/bin/env python3"), script.name
            assert '"""' in text, script.name
            assert "def main()" in text, script.name
