"""Record the benchmark in one BENCH_<tag>.json file, and diff two such files.

    python3 scripts/bench_record.py --tag NAME [--checkout DIR] [--workloads W ...]
                                    [--seeds 901 902 903] [--append] [--trace]
    python3 scripts/bench_record.py --diff BENCH_a.json BENCH_b.json

Recording runs BENCHMARK.json's command once per workload and seed, for its
run_seconds, each in a fresh process in the checkout (this one unless
--checkout names another), and writes BENCH_<tag>.json beside
BENCHMARK.json. The file holds every run's end-to-end metrics, their median
and quartiles per workload, the interpreter's version, whether gmpy2 was
importable, the checkout's git commit (with `dirty` set when src/ or
perfbench/ differ from it), and the line and byte counts of its
src/otkit/*.py: the pad workloads' `setup_s` follows the size of the source
that each benchmark process byte-compiles. --append adds runs to an existing
record of the same commit, so two checkouts can be run in alternation, one
seed at a time. --trace also runs the command once per workload with
--trace 1 (the first seed, the same run length) and keeps its per-session
call counts, the `*.calls` metrics, under the record's `traced` key. Every
round of the benchmark gives the program the same seeds, so these counts are
exact and repeat from run to run.

--diff prints each file's commit and source size, then each workload's failed
and attempted sessions in each file, summed over its runs, then, for each
workload and metric in both files, both medians, their ratio B/A, A's
interquartile range, and the pair wins: the seeds present in both where B's
run was better than A's. A row ends in "OVER BOUND" when its metric is
end-to-end and B's median is worse than A's by more than the metric's
`bound` in BENCHMARK.json, a fraction of A's median. When both files hold
traced counts, it then lists every count that differs between them.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SPEC = json.loads((HERE / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
DEFAULT_SEEDS = (901, 902, 903)


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def source_size(checkout: Path) -> tuple[int, int]:
    """Lines and bytes of the checkout's src/otkit/*.py."""
    blobs = [p.read_bytes() for p in sorted((checkout / "src" / "otkit").glob("*.py"))]
    return sum(b.count(b"\n") for b in blobs), sum(map(len, blobs))


def environment(checkout: Path) -> dict:
    """Interpreter, gmpy2 flag, git commit and source size that a record's
    runs share."""
    probe = ("import importlib.util, platform; print(platform.python_version(), "
             "importlib.util.find_spec('gmpy2') is not None)")
    out = subprocess.run([SPEC["command"][0], "-c", probe], capture_output=True,
                         text=True, check=True).stdout.split()
    lines, size = source_size(checkout)
    return {
        "python": out[0],
        "gmpy2": out[1] == "True",
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(_git(checkout, "status", "--porcelain", "--", "src", "perfbench")),
        "src_lines": lines,
        "src_bytes": size,
    }


def run_once(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One fresh benchmark process; its result line, with metrics as plain values."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result.pop("metrics").items()}
    return {"workload": workload, "seed": seed, **result, "metrics": metrics}


def traced_counts(checkout: Path, workload: str, seed: int) -> dict[str, float]:
    """The per-session call counts of one traced run."""
    metrics = run_once(checkout, workload, seed, trace=1)["metrics"]
    return {name: value for name, value in metrics.items() if name.endswith(".calls")}


def summarize(runs: list[dict]) -> dict:
    """workload -> metric -> median, q1, q3 and n over the runs."""
    by_workload: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        for name, value in run["metrics"].items():
            by_workload.setdefault(run["workload"], {}).setdefault(name, []).append(value)
    summary = {}
    for workload, metrics in by_workload.items():
        summary[workload] = {}
        for name, values in metrics.items():
            if len(values) > 1:
                q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
            else:
                q1 = median = q3 = values[0]
            summary[workload][name] = {"median": median, "q1": q1, "q3": q3, "n": len(values)}
    return summary


def failures(rec: dict) -> dict[str, tuple[int, int]]:
    """workload -> (failed, attempted) sessions, summed over the record's runs."""
    out = {}
    for run in rec["runs"]:
        failed, attempted = out.get(run["workload"], (0, 0))
        out[run["workload"]] = (failed + run["failed"], attempted + run["attempted"])
    return out


def diff_rows(a: dict, b: dict) -> list[dict]:
    """One row per workload and metric that both records hold."""
    rows = []
    for workload, metrics in a["summary"].items():
        for name, sa in metrics.items():
            sb = b["summary"].get(workload, {}).get(name)
            if sb is None:
                continue
            pairs = [
                (ra["metrics"][name], rb["metrics"][name])
                for ra in a["runs"] for rb in b["runs"]
                if ra["workload"] == rb["workload"] == workload and ra["seed"] == rb["seed"]
            ]
            sign = 1 if BETTER.get(name, "lower") == "lower" else -1
            worse = sign * (sb["median"] - sa["median"])
            rows.append({
                "workload": workload,
                "metric": name,
                "a": sa["median"],
                "b": sb["median"],
                "ratio": sb["median"] / sa["median"] if sa["median"] else float("nan"),
                "a_iqr": sa["q3"] - sa["q1"],
                "wins": sum(sign * (vb - va) < 0 for va, vb in pairs),
                "pairs": len(pairs),
                "over": name in BOUND and worse > BOUND[name] * abs(sa["median"]),
            })
    return rows


def traced_diff(a: dict, b: dict) -> list[tuple[str, str, float | None, float | None]]:
    """(workload, count, A's value, B's value) for every traced count that
    differs, over the workloads both records traced."""
    ta, tb = a.get("traced", {}), b.get("traced", {})
    rows = []
    for workload in (w for w in ta if w in tb):
        for name in dict.fromkeys([*ta[workload], *tb[workload]]):
            va, vb = ta[workload].get(name), tb[workload].get(name)
            if va != vb:
                rows.append((workload, name, va, vb))
    return rows


def print_diff(path_a: Path, path_b: Path) -> None:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for name, path, rec in (("A", path_a, a), ("B", path_b, b)):
        # records made before the source size was kept show "?"
        print(f"{name} = {path} ({rec['commit'][:12]}{'+' if rec['dirty'] else ''}; "
              f"src/otkit {rec.get('src_lines', '?')} lines, "
              f"{rec.get('src_bytes', '?')} bytes)")
    fa, fb = failures(a), failures(b)
    for workload in {**fa, **fb}:
        shown = ["/".join(map(str, f[workload])) if workload in f else "-"
                 for f in (fa, fb)]
        print(f"{workload:<12} failed/attempted  A {shown[0]}  B {shown[1]}")
    print(f"{'workload':<12} {'metric':<16} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'A IQR':>10} {'B wins':>7}")
    for r in diff_rows(a, b):
        print(f"{r['workload']:<12} {r['metric']:<16} {r['a']:>12.5g} {r['b']:>12.5g} "
              f"{r['ratio']:>7.3f} {r['a_iqr']:>10.4g} {r['wins']:>3}/{r['pairs']:<3}"
              f"{'  OVER BOUND' if r['over'] else ''}")
    traced = [w for w in a.get("traced", {}) if w in b.get("traced", {})]
    if traced:
        rows = traced_diff(a, b)
        print(f"traced calls per session ({', '.join(traced)}): {len(rows)} differ")
        for workload, name, va, vb in rows:
            print(f"{workload:<12} {name:<32} A {va}  B {vb}")


def record(args) -> None:
    checkout = Path(args.checkout).resolve()
    out = HERE / f"BENCH_{args.tag}.json"
    env = environment(checkout)
    runs, traced = [], {}
    if args.append and out.exists():
        old = json.loads(out.read_text())
        if {k: old.get(k) for k in env} != env:
            raise SystemExit(f"{out} was recorded from another checkout or interpreter")
        runs, traced = old["runs"], old.get("traced", {})
    if args.trace:
        for workload in args.workloads:
            traced[workload] = traced_counts(checkout, workload, args.seeds[0])
            print(f"{workload} traced: {len(traced[workload])} counts", flush=True)
    for workload in args.workloads:
        for seed in args.seeds:
            runs = [r for r in runs if (r["workload"], r["seed"]) != (workload, seed)]
            runs.append(run_once(checkout, workload, seed))
            print(f"{workload} seed {seed}: session_ms "
                  f"{runs[-1]['metrics'].get('session_ms', float('nan')):.4g}", flush=True)
    doc = {"tag": args.tag, **env, "command": SPEC["command"], "seconds": SPEC["run_seconds"],
           "runs": runs, "summary": summarize(runs), "traced": traced}
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"wrote {out}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--diff", nargs=2, metavar=("A", "B"))
    ap.add_argument("--tag")
    ap.add_argument("--checkout", default=str(HERE))
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=list(DEFAULT_SEEDS))
    ap.add_argument("--append", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)
    if args.diff:
        print_diff(*args.diff)
    elif args.tag:
        record(args)
    else:
        ap.error("give --tag to record or --diff A B to compare")
    return 0


if __name__ == "__main__":
    sys.exit(main())
