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
