"""The BENCH record differ in scripts/bench_record.py (no benchmark is run)."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_record.py"
spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
bench_record = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_record)


def _record(workload, values, commit="a" * 40):
    runs = [
        {"workload": workload, "seed": seed, "correct": True, "attempted": 10,
         "failed": 0, "metrics": metrics}
        for seed, metrics in values.items()
    ]
    return {"tag": "t", "commit": commit, "dirty": False, "runs": runs,
            "summary": bench_record.summarize(runs)}


def test_summary_median_and_quartiles():
    rec = _record("w", {s: {"session_ms": v} for s, v in zip(range(5), [5, 1, 4, 2, 3])})
    assert rec["summary"]["w"]["session_ms"] == {"median": 3, "q1": 2, "q3": 4, "n": 5}
    one = _record("w", {7: {"session_ms": 9.5}})
    assert one["summary"]["w"]["session_ms"] == {"median": 9.5, "q1": 9.5, "q3": 9.5, "n": 1}


def test_diff_counts_pair_wins_by_direction():
    a = _record("w", {1: {"session_ms": 10, "sessions_per_s": 100},
                      2: {"session_ms": 12, "sessions_per_s": 80},
                      3: {"session_ms": 11, "sessions_per_s": 90}})
    b = _record("w", {1: {"session_ms": 9, "sessions_per_s": 110},
                      2: {"session_ms": 13, "sessions_per_s": 70},
                      4: {"session_ms": 1, "sessions_per_s": 1}})
    rows = {r["metric"]: r for r in bench_record.diff_rows(a, b)}
    ms = rows["session_ms"]
    # seeds 1 and 2 pair up; seed 1 is lower (better) in b, seed 2 higher
    assert (ms["pairs"], ms["wins"]) == (2, 1)
    assert ms["a"] == 11 and ms["b"] == 9
    assert ms["ratio"] == pytest.approx(9 / 11)
    assert ms["a_iqr"] == pytest.approx(11.5 - 10.5)
    rate = rows["sessions_per_s"]
    assert (rate["pairs"], rate["wins"]) == (2, 1)  # higher is better here


def test_ties_are_not_wins_and_missing_workloads_are_skipped():
    a = _record("w", {1: {"wire_bytes": 137}})
    b = _record("w", {1: {"wire_bytes": 137}})
    (row,) = bench_record.diff_rows(a, b)
    assert (row["wins"], row["pairs"], row["ratio"]) == (0, 1, 1.0)
    assert bench_record.diff_rows(a, _record("other", {1: {"wire_bytes": 1}})) == []


def test_diff_command_prints_one_line_per_metric(tmp_path, capsys):
    paths = []
    for name, v in (("A", 10.0), ("B", 8.0)):
        path = tmp_path / f"BENCH_{name}.json"
        path.write_text(json.dumps(_record("dh-2048", {901: {"session_ms": v}})))
        paths.append(str(path))
    assert bench_record.main(["--diff", *paths]) == 0
    line = capsys.readouterr().out.splitlines()[-1].split()
    assert line[:2] == ["dh-2048", "session_ms"]
    assert line[4] == "0.800" and line[-1] == "1/1"


def test_diff_prints_failed_and_attempted_per_workload(tmp_path, capsys):
    a = _record("dh-2048", {901: {"session_ms": 10.0}, 902: {"session_ms": 11.0}})
    b = _record("dh-2048", {901: {"session_ms": 9.0}, 902: {"session_ms": 9.5}})
    b["runs"][1]["failed"] = 3
    b["runs"].append({"workload": "pad-small", "seed": 901, "correct": True,
                      "attempted": 50, "failed": 0, "metrics": {}})
    assert bench_record.failures(b) == {"dh-2048": (3, 20), "pad-small": (0, 50)}
    paths = []
    for name, rec in (("A", a), ("B", b)):
        path = tmp_path / f"BENCH_{name}.json"
        path.write_text(json.dumps(rec))
        paths.append(str(path))
    assert bench_record.main(["--diff", *paths]) == 0
    out = capsys.readouterr().out.splitlines()
    assert "dh-2048      failed/attempted  A 0/20  B 3/20" in out
    assert "pad-small    failed/attempted  A -  B 0/50" in out


def test_diff_marks_end_to_end_rows_over_their_bound(tmp_path, capsys):
    # B's session_ms (lower is better) is just past its bound, and its
    # sessions_per_s (higher is better) half its bound worse
    over, within = (bench_record.BOUND[m] for m in ("session_ms", "sessions_per_s"))
    a = _record("w", {1: {"session_ms": 100.0, "sessions_per_s": 10.0}})
    b = _record("w", {1: {"session_ms": 100.0 * (1 + over) + 1,
                          "sessions_per_s": 10.0 * (1 - within / 2)}})
    rows = {r["metric"]: r["over"] for r in bench_record.diff_rows(a, b)}
    assert rows == {"session_ms": True, "sessions_per_s": False}
    paths = []
    for name, rec in (("A", a), ("B", b)):
        path = tmp_path / f"BENCH_{name}.json"
        path.write_text(json.dumps(rec))
        paths.append(str(path))
    assert bench_record.main(["--diff", *paths]) == 0
    out = {line.split()[1]: line for line in capsys.readouterr().out.splitlines()
           if line.startswith("w ")}
    assert out["session_ms"].endswith("OVER BOUND")
    assert not out["sessions_per_s"].endswith("OVER BOUND")


def test_trace_keeps_call_counts_and_diff_lists_changes(tmp_path, monkeypatch, capsys):
    calls = {"groupmath.modexp_g.calls": 5.25, "numth.powmod.calls": 2.75}
    commands = []

    def fake_run(cmd, cwd, capture_output, text):
        commands.append(cmd)
        traced = cmd[cmd.index("--trace") + 1] == "1"
        metrics = ({**calls, "groupmath.modexp_g.ms": 30.0} if traced
                   else {"session_ms": 180.0})
        line = json.dumps({"correct": True, "attempted": 8, "failed": 0,
                           "metrics": {k: {"value": v, "unit": "x"} for k, v in metrics.items()}})
        return type("Done", (), {"returncode": 0, "stdout": f"timings\n{line}\n", "stderr": ""})

    monkeypatch.setattr(bench_record, "HERE", tmp_path)
    monkeypatch.setattr(bench_record.subprocess, "run", fake_run)
    monkeypatch.setattr(bench_record, "environment",
                        lambda checkout: {"python": "3", "gmpy2": False,
                                          "commit": "c" * 40, "dirty": False})
    args = ["--tag", "A", "--workloads", "dh-2048", "--seeds", "951", "952", "--trace"]
    assert bench_record.main(args) == 0
    a = json.loads((tmp_path / "BENCH_A.json").read_text())
    assert a["traced"] == {"dh-2048": calls}
    assert [c[c.index("--trace") + 1] for c in commands] == ["1", "0", "0"]
    assert [r["metrics"] for r in a["runs"]] == [{"session_ms": 180.0}] * 2

    # appending without --trace keeps the counts; a changed count shows in --diff
    assert bench_record.main(args[:-1] + ["--append"]) == 0
    assert json.loads((tmp_path / "BENCH_A.json").read_text())["traced"] == a["traced"]
    b = {**a, "traced": {"dh-2048": {**calls, "numth.powmod.calls": 4.75}}}
    (tmp_path / "BENCH_B.json").write_text(json.dumps(b))
    assert bench_record.traced_diff(a, a) == []
    assert bench_record.traced_diff(a, b) == [("dh-2048", "numth.powmod.calls", 2.75, 4.75)]
    capsys.readouterr()
    assert bench_record.main(["--diff", str(tmp_path / "BENCH_A.json"),
                              str(tmp_path / "BENCH_B.json")]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[-2] == "traced calls per session (dh-2048): 1 differ"
    assert out[-1].split() == ["dh-2048", "numth.powmod.calls", "A", "2.75", "B", "4.75"]


def test_source_size_counts_lines_and_bytes_of_the_package(tmp_path):
    pkg = tmp_path / "src" / "otkit"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3\n")
    (pkg / "notes.txt").write_text("not source\n")
    assert bench_record.source_size(tmp_path) == (3, 18)


def test_diff_prints_each_record_source_size(tmp_path, capsys):
    a = _record("w", {1: {"session_ms": 1.0}})
    b = {**_record("w", {1: {"session_ms": 1.0}}, commit="b" * 40),
         "src_lines": 2970, "src_bytes": 123456}
    paths = []
    for name, rec in (("A", a), ("B", b)):
        path = tmp_path / f"BENCH_{name}.json"
        path.write_text(json.dumps(rec))
        paths.append(str(path))
    assert bench_record.main(["--diff", *paths]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"A = {paths[0]} ({'a' * 12}; src/otkit ? lines, ? bytes)"
    assert out[1] == f"B = {paths[1]} ({'b' * 12}; src/otkit 2970 lines, 123456 bytes)"
