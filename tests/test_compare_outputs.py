import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "compare_outputs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("compare_outputs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_compare_outputs_of_src_against_itself():
    src = str(ROOT / "src")
    proc = subprocess.run([sys.executable, str(TOOL), src, src, "--tiny"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *lines, summary = proc.stdout.splitlines()
    assert lines and all(line.endswith(": identical") for line in lines)
    assert summary == f"{len(lines)} of {len(lines)} files identical"
    for name in ("spectrum op 2", "profile op 1", "sweep op 3", "sweep-scf seed 7", "oracle-checks seed 1",
                 "profile-dense seed 3"):
        assert any(line.startswith(name) for line in lines), name


def test_compare_outputs_reports_relative_differences():
    tool = _tool()
    a = "# robinbec 0\nk,parity,epsilon\n0,even,-1.0\n1,odd,2.0\n"
    b = "# robinbec 0\nk,parity,epsilon\n0,even,-1.0\n1,even,2.000000002\n"
    diffs = tool.csv_diffs(a, b)
    assert diffs == {"k": 0.0, "parity": "text", "epsilon": pytest.approx(1e-9)}
    diffs = tool.json_diffs({"fit": {"L": [1.0, 2.0]}, "pass": True},
                            {"fit": {"L": [1.0, 2.5]}, "pass": True})
    assert diffs == {"fit.L[]": pytest.approx(0.2), "pass": 0.0}
    assert tool.stdout_diffs("wrote OUT (r=1.5)", "wrote OUT (r=1.5000000015)") == {
        "stdout": pytest.approx(1e-9)}
