"""The helper scripts run from any working directory."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(tmp_path, script, *args) -> str:
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_enumerate_toy_cells(tmp_path):
    rows = _run(tmp_path, "enumerate_toy_cells.py").splitlines()[3:]
    assert len(rows) == 4
    assert all(row.endswith("yes") for row in rows)


def test_gen_pinned_groups(tmp_path):
    out = _run(tmp_path, "gen_pinned_groups.py", "--bits", "512")
    assert "matches the committed table" in out
