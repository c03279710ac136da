"""The helper scripts run from any working directory."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

from otkit.numth import is_probable_prime
from otkit.rng import SeededSource

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(tmp_path, script, *args) -> str:
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@pytest.mark.parametrize("a", [8, 3])
def test_enumerate_toy_cells(tmp_path, a):
    lines = _run(tmp_path, "enumerate_toy_cells.py", "--a", str(a)).splitlines()
    assert lines[0].startswith(f"P=23 q=11 g=4 C=g^{a}={pow(4, a, 23)} ")
    rows = lines[3:]
    assert len(rows) == 4
    assert all(row.endswith("yes") for row in rows)


@pytest.mark.parametrize("a", [0, 11])
def test_enumerate_toy_cells_refuses_a_outside_range(tmp_path, a):
    # log_g C must be in [1, q); the script builds the group from it
    done = subprocess.run(
        [sys.executable, str(SCRIPTS / "enumerate_toy_cells.py"), "--a", str(a)],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "--a must be in [1, 11)" in done.stderr


def test_gen_pinned_groups(tmp_path):
    out = _run(tmp_path, "gen_pinned_groups.py", "--bits", "512")
    assert "matches the committed table" in out


def test_gen_safe_prime():
    # the one safe-prime search lives in the script that builds the table
    spec = importlib.util.spec_from_file_location(
        "gen_pinned_groups", SCRIPTS / "gen_pinned_groups.py")
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    P, q = script.gen_safe_prime(32, SeededSource(3))
    assert q.bit_length() == 32
    assert P == 2 * q + 1
    assert is_probable_prime(P) and is_probable_prime(q)
