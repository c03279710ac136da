"""Command surface: exit codes, output formats, timing budgets."""

import argparse
import ast
import gc
import os
import shutil
import subprocess
import sys
import time
import venv
import warnings
from pathlib import Path

import pytest

from otkit import laws
from otkit.cli import bench_protocol, main

REPO_ROOT = Path(__file__).resolve().parents[1]

DB_TEXT = "00000001 00000011\n00000002 00000012\n00000003 00000013\n00000004 00000014\n"

# `otkit verify --toy` with dq_r_retrieve broken to read the other message's slot
BROKEN_VERIFY = """
from otkit import laws
from otkit.cli import main
real = laws.dq_r_retrieve
laws.dq_r_retrieve = lambda res, req1, req2, s, pk, sigma: real(res, req1, req2, 1 - s, pk, sigma)
raise SystemExit(main(["verify", "--toy"]))
"""


def _bench_args(**kw):
    base = dict(seed=None, sigma=64, lambda_bits=64, group_bits=None,
                paillier_bits=None, toy=True, iters=10)
    base.update(kw)
    return argparse.Namespace(**base)


@pytest.fixture
def db_file(tmp_path):
    path = tmp_path / "db.txt"
    path.write_text(DB_TEXT)
    return str(path)


class TestRun:
    def test_pad_protocol_example(self, capsys):
        rc = main(["run", "supersonic", "--m0", "00", "--m1", "ff",
                   "--s", "1", "--sigma", "8", "--seed", "7"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "ff"

    def test_choice_bit_usage_error(self, capsys):
        rc = main(["run", "dq-ot", "--s", "2", "--m0", "00", "--m1", "ff",
                   "--sigma", "8"])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:")

    def test_database_run(self, capsys, db_file):
        rc = main(["run", "duq-mr", "--db", db_file, "--v", "3", "--s", "0",
                   "--seed", "1", "--sigma", "32", "--group-bits", "512"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "00000004"

    def test_database_run_delegated(self, capsys, db_file):
        rc = main(["run", "dq-mr", "--db", db_file, "--v", "3", "--s", "0",
                   "--seed", "1", "--sigma", "32"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "00000004"

    def test_short_hex_left_padded(self, capsys):
        rc = main(["run", "np-ot", "--m0", "1", "--m1", "ff00", "--s", "0",
                   "--sigma", "16", "--seed", "3"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "0001"

    def test_hex_field_too_long(self, capsys):
        rc = main(["run", "np-ot", "--m0", "010203", "--m1", "ff", "--s", "0",
                   "--sigma", "16", "--seed", "3"])
        assert rc == 2

    def test_hex_field_malformed(self, capsys):
        rc = main(["run", "np-ot", "--m0", "zz", "--m1", "ff", "--s", "0",
                   "--sigma", "8", "--seed", "3"])
        assert rc == 2

    def test_missing_messages(self, capsys):
        assert main(["run", "np-ot", "--s", "0", "--sigma", "8"]) == 2

    @pytest.mark.parametrize("seed", [str(2**64), "-1"])
    def test_seed_out_of_range(self, capsys, seed):
        rc = main(["run", "np-ot", "--s", "1", "--m0", "00", "--m1", "ff",
                   "--sigma", "8", "--seed", seed])
        assert rc == 2
        assert "seed" in capsys.readouterr().err

    @pytest.mark.parametrize("bits", ["100000000", "64"])
    def test_unpinned_group_size(self, capsys, bits):
        rc = main(["run", "np-ot", "--s", "1", "--m0", "00", "--m1", "ff",
                   "--sigma", "8", "--group-bits", bits])
        assert rc == 2
        assert "group_bits" in capsys.readouterr().err

    def test_paillier_key_below_16_bits(self, capsys):
        rc = main(["run", "comp-np", "--s", "1", "--m0", "00", "--m1", "ff",
                   "--sigma", "8", "--toy", "--paillier-bits", "8"])
        assert rc == 2
        assert "paillier_bits" in capsys.readouterr().err

    def test_transcript_stable_across_runs(self, capsys, tmp_path):
        argv = ["run", "dq-ot", "--m0", "aa", "--m1", "bb", "--s", "1",
                "--sigma", "8", "--seed", "123"]
        out = []
        blobs = []
        for name in ("a.txt", "b.txt"):
            path = tmp_path / name
            assert main(argv + ["--transcript", str(path)]) == 0
            out.append(capsys.readouterr().out)
            blobs.append(path.read_bytes())
        assert out[0] == out[1] == "bb\n"
        assert blobs[0] == blobs[1]
        assert b"protocol dq-ot" in blobs[0]

    def test_unwritable_transcript_path(self, capsys, tmp_path):
        path = tmp_path / "missing" / "t.txt"
        rc = main(["run", "supersonic", "--m0", "00", "--m1", "ff", "--s", "1",
                   "--sigma", "8", "--seed", "7", "--transcript", str(path)])
        assert rc == 2
        assert "cannot write transcript" in capsys.readouterr().err

    def test_tamper_hook_aborts(self, capsys):
        rc = main(["run", "dq-ot", "--m0", "aa", "--m1", "bb", "--s", "1",
                   "--sigma", "8", "--seed", "5", "--inject-tamper", "beta"])
        assert rc == 3
        err = capsys.readouterr().err
        assert "protocol error: ConsistencyAbort (SENDER)" in err

    def test_tag_tamper_aborts(self, capsys):
        rc = main(["run", "duq-ot", "--m0", "aa", "--m1", "bb", "--s", "1",
                   "--sigma", "8", "--seed", "5", "--group-bits", "512",
                   "--inject-tamper", "tag"])
        assert rc == 3
        assert "NoTagMatch (RECEIVER)" in capsys.readouterr().err


class TestDatabaseFile:
    def test_wrong_field_count(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("00000001 00000011\n00000002\n")
        rc = main(["run", "dq-mr", "--db", str(path), "--v", "0", "--s", "0",
                   "--sigma", "32", "--seed", "1"])
        assert rc == 2
        assert f"{path}:2" in capsys.readouterr().err

    def test_blank_lines_skipped(self, capsys, tmp_path):
        path = tmp_path / "gaps.txt"
        path.write_text("\n00000001 00000011\n\n00000002 00000012\n")
        rc = main(["run", "dq-mr", "--db", str(path), "--v", "1", "--s", "1",
                   "--sigma", "32", "--seed", "1"])
        assert rc == 0
        assert capsys.readouterr().out.strip() == "00000012"

    def test_empty_file(self, capsys, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("\n\n")
        rc = main(["run", "dq-mr", "--db", str(path), "--v", "0", "--s", "0",
                   "--sigma", "32", "--seed", "1"])
        assert rc == 2

    def test_unreadable_path(self, capsys, tmp_path):
        rc = main(["run", "dq-mr", "--db", str(tmp_path / "nope.txt"),
                   "--v", "0", "--s", "0", "--sigma", "32", "--seed", "1"])
        assert rc == 2

    def test_non_ascii_file(self, capsys, tmp_path):
        path = tmp_path / "quote.txt"
        path.write_bytes(b"00000001 00000011\n\xe2\x80\x9c\n")
        rc = main(["run", "dq-mr", "--db", str(path), "--v", "0", "--s", "0",
                   "--sigma", "8", "--seed", "1"])
        assert rc == 2
        assert "cannot read database file" in capsys.readouterr().err

    def test_file_is_closed(self, capsys, db_file):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rc = main(["run", "dq-mr", "--db", db_file, "--v", "0", "--s", "0",
                       "--sigma", "32", "--seed", "1"])
            gc.collect()
        assert rc == 0
        assert not [w for w in caught if issubclass(w.category, ResourceWarning)]

    def test_index_outside_database(self, capsys, db_file):
        rc = main(["run", "dq-mr", "--db", db_file, "--v", "4", "--s", "0",
                   "--sigma", "32", "--seed", "1"])
        assert rc == 2


class TestVerify:
    def test_toy_run_passes_under_budget(self, capsys):
        started = time.perf_counter()
        rc = main(["verify", "--toy"])
        elapsed = time.perf_counter() - started
        assert rc == 0
        out = capsys.readouterr().out
        assert "all" in out and "checks passed" in out
        assert "FAIL" not in out
        assert elapsed < 10.0

    def test_default_run_passes(self, capsys):
        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if "pass" in l and "passed" not in l]
        assert len(lines) >= 10

    def test_tamper_injection_reported(self, capsys):
        assert main(["verify", "--toy", "--inject-tamper", "beta"]) == 0
        assert "ConsistencyAbort triggered" in capsys.readouterr().out

    def test_broken_law_fails(self, capsys, monkeypatch):
        real = laws.dq_r_retrieve
        other_slot = lambda res, req1, req2, s, pk, sigma: real(res, req1, req2, 1 - s, pk, sigma)
        monkeypatch.setattr(laws, "dq_r_retrieve", other_slot)
        assert main(["verify", "--toy"]) == 4
        out = capsys.readouterr().out
        assert "dq-e2e-cells             FAIL  cell (0,0) returned the wrong" in out
        assert "mr-filter-exactness      FAIL  s=0 v=0: dq-mr and duq-mr" in out
        assert "2 of 10 checks failed" in out

    def test_broken_law_fails_under_optimize(self):
        proc = subprocess.run([sys.executable, "-O", "-c", BROKEN_VERIFY],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 4, proc.stdout + proc.stderr
        fails = [line.split(" FAIL ", 1)[1] for line in proc.stdout.splitlines()
                 if " FAIL " in line]
        assert len(fails) == 2 and all(reason.strip() for reason in fails)

    def test_laws_raise_reasons_not_asserts(self):
        tree = ast.parse(Path(laws.__file__).read_text())
        assert not [n for n in ast.walk(tree) if isinstance(n, ast.Assert)]
        raised = [n.exc for n in ast.walk(tree) if isinstance(n, ast.Raise)]
        assert raised
        for exc in raised:
            assert exc.func.id == "LawViolation" and len(exc.args) == 1
            reason = exc.args[0]
            assert isinstance(reason, (ast.Constant, ast.JoinedStr))
            assert ast.unparse(reason).strip("f'\"")


class TestBench:
    def test_report_arithmetic(self):
        r = bench_protocol("supersonic", 200, _bench_args(sigma=128))
        assert r.iterations == 200
        assert abs(r.mean_seconds * r.iterations - r.total_seconds) \
            <= 0.01 * r.total_seconds
        assert [label for label, _ in r.phases] == [
            "setup", "gen_query", "gen_res", "obl_filter", "retrieve",
        ]

    def test_single_iteration_budget(self):
        r = bench_protocol("supersonic", 1, _bench_args(sigma=128))
        assert r.mean_seconds <= 0.005

    def test_report_rendering(self, capsys):
        rc = main(["bench", "supersonic", "--iters", "5", "--sigma", "64"])
        assert rc == 0
        out = capsys.readouterr().out
        for token in ("protocol    supersonic", "iterations  5", "mean",
                      "phase breakdown", "machine", "reference figures"):
            assert token in out

    def test_iterations_checked(self, capsys):
        assert main(["bench", "supersonic", "--iters", "0"]) == 2

    @pytest.mark.parametrize("seed, iters, rc", [
        ("-5", "1", 2), (str(2**64 - 1), "2", 2), (str(2**64 - 2), "2", 0),
    ])
    def test_seed_range(self, capsys, seed, iters, rc):
        assert main(["bench", "supersonic", "--iters", iters, "--toy",
                     "--seed", seed]) == rc

    def test_group_protocol_bench(self, capsys):
        assert main(["bench", "dq-ot", "--iters", "3", "--sigma", "64"]) == 0
        assert "partial_query" in capsys.readouterr().out


def _env_without_pythonpath(**overrides):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    env.update(overrides)
    return env


@pytest.fixture(scope="session")
def installed_bin(tmp_path_factory):
    """Install a copy of the checkout into a throwaway venv; return its bin/.

    The venv sees the system site-packages so the installed setuptools (the
    build backend pyproject.toml names) can do a development install without
    pip, wheel or a package index.
    """
    pytest.importorskip("setuptools")
    root = tmp_path_factory.mktemp("otkit-install")
    project = root / "project"
    project.mkdir()
    shutil.copy2(REPO_ROOT / "pyproject.toml", project)
    shutil.copytree(REPO_ROOT / "src", project / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    env_dir = root / "venv"
    venv.create(env_dir, system_site_packages=True, with_pip=False)
    proc = subprocess.run(
        [str(env_dir / "bin" / "python"), "-c",
         "import setuptools; setuptools.setup()", "develop"],
        cwd=project, env=_env_without_pythonpath(),
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return env_dir / "bin"


class TestEntryPoint:
    def test_console_script(self, installed_bin):
        path = os.pathsep.join([str(installed_bin), os.environ.get("PATH", "")])
        proc = subprocess.run(
            ["otkit", "run", "supersonic", "--m0", "00", "--m1", "ff",
             "--s", "1", "--sigma", "8", "--seed", "7"],
            capture_output=True, text=True, timeout=60,
            env=_env_without_pythonpath(PATH=path),
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ff"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "otkit.cli", "verify", "--toy"],
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0
