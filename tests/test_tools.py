"""The timing tools under tools/ run end to end at their smallest sample
count, so that a change to a private `_engine` signature that a tool
wraps fails here rather than in the tool, and they refuse a count whose
quartiles do not exist with a usage error."""
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOLS = [("thin_rounds.py", "--repeats"), ("shared_draws.py", "--pairs")]


def _tool(name, *args):
    return subprocess.run([sys.executable, str(ROOT / "tools" / name), *args],
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("name, flag", TOOLS)
def test_timing_tool_runs_at_two_samples(name, flag):
    # exit 0: every timed call gave the records (candidates) of the first
    res = _tool(name, flag, "2")
    assert res.returncode == 0, res.stdout + res.stderr
    assert "True" in res.stdout and "False" not in res.stdout


@pytest.mark.parametrize("name, flag", TOOLS)
def test_timing_tool_rejects_one_sample(name, flag):
    res = _tool(name, flag, "1")
    assert res.returncode == 2
    assert "usage:" in res.stderr and f"{flag} must be at least 2" in res.stderr
    assert "Traceback" not in res.stderr
