"""Record the benchmark in one BENCH_<tag>.json file, and diff two such files.

    python3 scripts/bench_record.py --tag NAME [--checkout DIR] [--workloads W ...]
                                    [--seeds 901 902 903] [--append] [--trace] [--micro]
    python3 scripts/bench_record.py --diff BENCH_a.json BENCH_b.json

Recording runs BENCHMARK.json's command once per workload and seed, for its
run_seconds, each in a fresh process in the checkout (this one unless
--checkout names another), and writes BENCH_<tag>.json beside
BENCHMARK.json. The file holds every run's end-to-end metrics, their median
and quartiles per workload, the interpreter's version, its OpenSSL version
(`ssl.OPENSSL_VERSION`), the exponentiation kernel that the checkout's
`numth.powmod` runs on (`numth.kernel()`: "libcrypto" or "pow"; "pow" for a
checkout that predates it), the checkout's git commit (with `dirty` set
when src/ or perfbench/ differ from it), and the line and byte counts of
its src/otkit/*.py: the pad workloads' `setup_s` follows the size of the
source that each benchmark process byte-compiles.
Each run also keeps, under `protocols`, every protocol's sessions, p10_ms
and median_ms from the `# protocol: ...` lines the command prints before its
result: `session_ms` is a geometric mean over a workload's protocols, and
these show which one moved. --append adds runs to an existing record of the same commit, so two
checkouts can be run in alternation, one seed at a time. --trace also runs
the command once per workload with --trace 1 (the first seed, the same run
length) and keeps its per-session call counts, the `*.calls` metrics, under
the record's `traced` key, and its per-session times, the `*.ms` metrics
(`role.*.ms` and `harness.self.ms` among them), under `traced_ms`. Every
round of the benchmark gives the program the same seeds, so the counts are
exact and repeat from run to run; the times are one run's and are not.
--micro also times the session engine's per-message steps in a fresh process
that imports the checkout's src/otkit: building an `Envelope`, framing it
(`encode_envelope`), parsing it (`decode_envelope`) and one `_hop` of a SUP_Q1
bit, each the best of MICRO_REPEAT timings of MICRO_NUMBER calls. In the same
process it times the Paillier layer's kernels at a 1152-bit key, each the
best of MICRO_REPEAT timings of its own call count (KERNEL_CALLS):
`is_probable_prime` on a 576-bit composite that trial division lets through
and on a multiple of 9973, `enc` under the secret and the public key,
`select` of one duq-mr-shaped row, `kgen(1152)` from a fixed seed,
`numth.powmod` at three shapes (modulus/exponent bits): 2048/2047, the size
of a power in the 2048-bit group; 2304/1152, rho^n mod n^2 at the 1152-bit
key; and 576/575, one Miller-Rabin round on one of its primes;
`numth.certify` of the key's p, the 62 rounds after the pretest; and `dec`
of one ciphertext under the secret key. All are in µs per call, under the
record's `micro` key. With --append, each keeps the
lower of the old and the new reading, so alternating runs give each side
the best over all of its runs.

--diff prints each file's commit and source size, then both files' kernel
and OpenSSL version ("?" for a record made before they were kept), then
each workload's failed and attempted sessions in each file, summed over its
runs, then, for each workload and metric in both files, both medians, their
ratio B/A, A's interquartile range, and the pair wins: the seeds present in
both where B's run was better than A's. A row ends in "OVER BOUND" when its metric is
end-to-end and B's median is worse than A's by more than the metric's
`bound` in BENCHMARK.json, a fraction of A's median. The per-protocol times
follow in the same columns, as `protocol.field` rows (more sessions is
better, fewer ms is better; no bound). When both files hold traced times,
the times both hold follow as A, B and B/A (one run each: no pair wins and
no bound), and then, when both hold micro timings, those the same way. When
both files hold traced counts, it then lists every count that differs
between them.
"""

import argparse
import json
import statistics
import subprocess
import sys
import timeit
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
SPEC = json.loads((HERE / "BENCHMARK.json").read_text())
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
BOUND = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
DEFAULT_SEEDS = (901, 902, 903)
# what a run keeps of each `# protocol: ...` line, and which way is better
PROTOCOL_FIELDS = {"sessions": "higher", "p10_ms": "lower", "median_ms": "lower"}
MICRO_NUMBER, MICRO_REPEAT = 20000, 7
# calls per timing of each kernel row, for about 0.1-0.5 s a timing
KERNEL_CALLS = {
    "numth.is_probable_prime.survivor576": 200,
    "numth.is_probable_prime.mult9973": 5000,
    "paillier.enc.sk1152": 50,
    "paillier.enc.pk1152": 20,
    "paillier.select.duq_mr_row": 20,
    "paillier.kgen.1152": 1,
    "numth.powmod.2048_2047": 20,
    "numth.powmod.2304_1152": 20,
    "numth.powmod.576_575": 200,
    "numth.certify.576": 20,
    "paillier.dec.sk1152": 200,
}
KERNEL_SEED = 1152


def _git(checkout: Path, *args: str) -> str:
    return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                          text=True, check=True).stdout.strip()


def source_size(checkout: Path) -> tuple[int, int]:
    """Lines and bytes of the checkout's src/otkit/*.py."""
    blobs = [p.read_bytes() for p in sorted((checkout / "src" / "otkit").glob("*.py"))]
    return sum(b.count(b"\n") for b in blobs), sum(map(len, blobs))


def environment(checkout: Path) -> dict:
    """Interpreter, OpenSSL, exponentiation kernel, git commit and source
    size that a record's runs share."""
    probe = (f"import json, platform, ssl, sys; sys.path.insert(0, {str(checkout / 'src')!r}); "
             "from otkit import numth; print(json.dumps([platform.python_version(), "
             "ssl.OPENSSL_VERSION, getattr(numth, 'kernel', lambda: 'pow')()]))")
    python, openssl, kernel = json.loads(subprocess.run(
        [SPEC["command"][0], "-c", probe], capture_output=True, text=True, check=True
    ).stdout.splitlines()[-1])
    lines, size = source_size(checkout)
    return {
        "python": python,
        "openssl": openssl,
        "kernel": kernel,
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "dirty": bool(_git(checkout, "status", "--porcelain", "--", "src", "perfbench")),
        "src_lines": lines,
        "src_bytes": size,
    }


def protocol_times(stdout: str) -> dict[str, dict[str, float]]:
    """protocol -> PROTOCOL_FIELDS, from lines such as
    `# comp-np: sessions=20 kept=20 p10_ms=296.1 median_ms=493.0`."""
    out = {}
    for line in stdout.splitlines():
        head, sep, rest = line.partition(": ")
        fields = dict(f.split("=", 1) for f in rest.split() if "=" in f)
        if head.startswith("# ") and sep and PROTOCOL_FIELDS.keys() <= fields.keys():
            out[head[2:]] = {k: float(fields[k]) for k in PROTOCOL_FIELDS}
    return out


def run_once(checkout: Path, workload: str, seed: int, trace: int = 0) -> dict:
    """One fresh benchmark process; its result line, with metrics as plain
    values, and its per-protocol times."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    metrics = {name: m["value"] for name, m in result.pop("metrics").items()}
    return {"workload": workload, "seed": seed, **result, "metrics": metrics,
            "protocols": protocol_times(proc.stdout)}


def traced_run(checkout: Path, workload: str, seed: int) -> tuple[dict, dict]:
    """The per-session call counts and times (`*.calls`, `*.ms`) of one
    traced run."""
    metrics = run_once(checkout, workload, seed, trace=1)["metrics"]
    return tuple({name: value for name, value in metrics.items() if name.endswith(suffix)}
                 for suffix in (".calls", ".ms"))


def micro_timings(number: int = MICRO_NUMBER, repeat: int = MICRO_REPEAT) -> dict[str, float]:
    """µs per call, best of repeat timings of number calls, of each step
    that `harness._hop` takes per message, on a one-byte SUP_Q1 payload."""
    from otkit.harness import (Envelope, MsgType, Role, SessionTranscript, _hop,
                               decode_envelope, encode_envelope)

    env = Envelope(Role.RECEIVER, Role.SENDER, MsgType.SUP_Q1, b"\x01")
    frame = encode_envelope(env)
    steps = {
        "harness.Envelope": lambda: Envelope(Role.RECEIVER, Role.SENDER,
                                             MsgType.SUP_Q1, b"\x01"),
        "harness.encode_envelope": lambda: encode_envelope(env),
        "harness.decode_envelope": lambda: decode_envelope(frame),
        # a fresh transcript per timing, so its event list grows by number
        "harness._hop.SUP_Q1": lambda: _hop(t, Role.RECEIVER, Role.SENDER,
                                            MsgType.SUP_Q1, 1),
    }
    out = {}
    for name, step in steps.items():
        best = float("inf")
        for _ in range(repeat):
            t = SessionTranscript(protocol="supersonic", seed=None)
            best = min(best, timeit.timeit(step, number=number))
        out[name] = best / number * 1e6
    return out


def kernel_timings(repeat: int = MICRO_REPEAT, calls: int | None = None) -> dict[str, float]:
    """µs per call, best of repeat timings of each row's KERNEL_CALLS calls
    (or of `calls` calls, when given), of the Paillier layer's kernels at a
    1152-bit key, of numth.powmod at three shapes, and of certifying one of
    the key's 576-bit primes. Only functions that otkit has had since
    `numth.certify` came in, so that older checkouts time the same rows."""
    import math
    import random

    from otkit.numth import SMALL_PRIMES, certify, is_probable_prime, powmod
    from otkit.paillier import dec, enc, kgen, one_hot, select
    from otkit.rng import SeededSource

    pk, sk = kgen(1152, SeededSource(KERNEL_SEED))
    r = random.Random(KERNEL_SEED)
    small = math.prod(SMALL_PRIMES)
    survivor = next(n for n in iter(lambda: r.getrandbits(576) | 1 << 575 | 1, None)
                    if math.gcd(n, small) == 1 and not is_probable_prime(n))
    selector = one_hot(pk, 1, 0, SeededSource(KERNEL_SEED))
    row = [r.getrandbits(1024), r.getrandbits(256), r.getrandbits(1024), r.getrandbits(256)]
    rng = SeededSource(KERNEL_SEED)
    m2048 = r.getrandbits(2047) | 1 << 2047 | 1
    g2048, e2048 = r.randrange(m2048), r.getrandbits(2046) | 1 << 2046
    rho = r.randrange(pk.n)
    a576, d576 = r.randrange(2, sk.p - 1), (sk.p - 1) >> 1
    c1152 = enc(pk, r.randrange(pk.n), SeededSource(KERNEL_SEED))
    steps = {
        "numth.is_probable_prime.survivor576": lambda: is_probable_prime(survivor),
        "numth.is_probable_prime.mult9973": lambda: is_probable_prime(9973 * sk.p),
        "paillier.enc.sk1152": lambda: enc(sk, 5, rng),
        "paillier.enc.pk1152": lambda: enc(pk, 5, rng),
        "paillier.select.duq_mr_row": lambda: select(pk, selector, [row]),
        "paillier.kgen.1152": lambda: kgen(1152, SeededSource(KERNEL_SEED)),
        "numth.powmod.2048_2047": lambda: powmod(g2048, e2048, m2048),
        "numth.powmod.2304_1152": lambda: powmod(rho, pk.n, pk.n_squared),
        "numth.powmod.576_575": lambda: powmod(a576, d576, sk.p),
        "numth.certify.576": lambda: certify(sk.p),
        "paillier.dec.sk1152": lambda: dec(sk, c1152),
    }
    out = {}
    for name, step in steps.items():
        number = calls or KERNEL_CALLS[name]
        best = min(timeit.timeit(step, number=number) for _ in range(repeat))
        out[name] = best / number * 1e6
    return out


def micro_run(checkout: Path) -> dict[str, float]:
    """micro_timings and kernel_timings in a fresh process that imports the
    checkout's otkit."""
    code = (f"import json, sys; sys.path[:0] = [{str(checkout / 'src')!r}, "
            f"{str(HERE / 'scripts')!r}]; import bench_record; "
            "print(json.dumps({**bench_record.micro_timings(), "
            "**bench_record.kernel_timings()}))")
    cmd = [SPEC["command"][0], "-c", code]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"micro timings exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def _metrics(run: dict) -> dict[str, float]:
    return run["metrics"]


def _protocols(run: dict) -> dict[str, float]:
    """A run's per-protocol times as `protocol.field` -> value."""
    return {f"{protocol}.{field}": value
            for protocol, fields in run.get("protocols", {}).items()
            for field, value in fields.items()}


def summarize(runs: list[dict], values=_metrics) -> dict:
    """workload -> metric -> median, q1, q3 and n over the runs, of the
    values each run gives (its end-to-end metrics unless told otherwise)."""
    by_workload: dict[str, dict[str, list[float]]] = {}
    for run in runs:
        for name, value in values(run).items():
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


def _better(name: str) -> str:
    return BETTER.get(name) or PROTOCOL_FIELDS.get(name.rpartition(".")[2], "lower")


def diff_rows(a: dict, b: dict, values=_metrics) -> list[dict]:
    """One row per workload and metric that both records hold, of the
    values each run gives (its end-to-end metrics unless told otherwise)."""
    summary_a, summary_b = summarize(a["runs"], values), summarize(b["runs"], values)
    rows = []
    for workload, metrics in summary_a.items():
        for name, sa in metrics.items():
            sb = summary_b.get(workload, {}).get(name)
            if sb is None:
                continue
            pairs = [
                (values(ra)[name], values(rb)[name])
                for ra in a["runs"] for rb in b["runs"]
                if ra["workload"] == rb["workload"] == workload and ra["seed"] == rb["seed"]
                and name in values(ra) and name in values(rb)
            ]
            sign = 1 if _better(name) == "lower" else -1
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


def traced_ms_rows(a: dict, b: dict) -> list[tuple[str, str, float, float]]:
    """(workload, time, A's value, B's value) for every traced time that
    both records hold."""
    ta, tb = a.get("traced_ms", {}), b.get("traced_ms", {})
    return [(workload, name, ta[workload][name], tb[workload][name])
            for workload in ta if workload in tb
            for name in ta[workload] if name in tb[workload]]


def print_diff(path_a: Path, path_b: Path) -> None:
    a, b = (json.loads(Path(p).read_text()) for p in (path_a, path_b))
    for name, path, rec in (("A", path_a, a), ("B", path_b, b)):
        # records made before the source size was kept show "?"
        print(f"{name} = {path} ({rec['commit'][:12]}{'+' if rec['dirty'] else ''}; "
              f"src/otkit {rec.get('src_lines', '?')} lines, "
              f"{rec.get('src_bytes', '?')} bytes)")
    print(f"{'kernel':<12} " + "  ".join(
        f"{name} {rec.get('kernel', '?')} ({rec.get('openssl', '?')})"
        for name, rec in (("A", a), ("B", b))))
    fa, fb = failures(a), failures(b)
    for workload in {**fa, **fb}:
        shown = ["/".join(map(str, f[workload])) if workload in f else "-"
                 for f in (fa, fb)]
        print(f"{workload:<12} failed/attempted  A {shown[0]}  B {shown[1]}")
    print(f"{'workload':<12} {'metric':<20} {'A median':>12} {'B median':>12} "
          f"{'B/A':>7} {'A IQR':>10} {'B wins':>7}")
    for r in diff_rows(a, b) + diff_rows(a, b, _protocols):
        print(f"{r['workload']:<12} {r['metric']:<20} {r['a']:>12.5g} {r['b']:>12.5g} "
              f"{r['ratio']:>7.3f} {r['a_iqr']:>10.4g} {r['wins']:>3}/{r['pairs']:<3}"
              f"{'  OVER BOUND' if r['over'] else ''}")
    ms_rows = traced_ms_rows(a, b)
    if ms_rows:
        print(f"{'traced ms per session, one run':<38} {'A':>12} {'B':>12} {'B/A':>7}")
    for workload, name, va, vb in ms_rows:
        ratio = vb / va if va else float("nan")
        print(f"{workload:<12} {name:<25} {va:>12.5g} {vb:>12.5g} {ratio:>7.3f}")
    ma, mb = a.get("micro", {}), b.get("micro", {})
    micro = [name for name in ma if name in mb]
    if micro:
        print(f"{'micro, best of runs, us per call':<38} {'A':>12} {'B':>12} {'B/A':>7}")
    for name in micro:
        print(f"{name:<38} {ma[name]:>12.5g} {mb[name]:>12.5g} {mb[name] / ma[name]:>7.3f}")
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
    runs, traced, traced_ms, micro = [], {}, {}, {}
    if args.append and out.exists():
        old = json.loads(out.read_text())
        if {k: old.get(k) for k in env} != env:
            raise SystemExit(f"{out} was recorded from another checkout, interpreter or kernel")
        runs, traced, traced_ms = old["runs"], old.get("traced", {}), old.get("traced_ms", {})
        micro = old.get("micro", {})
    if args.micro:
        for name, us in micro_run(checkout).items():
            micro[name] = min(us, micro.get(name, us))
        print(f"micro: {', '.join(f'{n} {us:.3g} us' for n, us in micro.items())}",
              flush=True)
    if args.trace:
        for workload in args.workloads:
            traced[workload], traced_ms[workload] = traced_run(checkout, workload,
                                                               args.seeds[0])
            print(f"{workload} traced: {len(traced[workload])} counts", flush=True)
    for workload in args.workloads:
        for seed in args.seeds:
            runs = [r for r in runs if (r["workload"], r["seed"]) != (workload, seed)]
            runs.append(run_once(checkout, workload, seed))
            print(f"{workload} seed {seed}: session_ms "
                  f"{runs[-1]['metrics'].get('session_ms', float('nan')):.4g}", flush=True)
    doc = {"tag": args.tag, **env, "command": SPEC["command"], "seconds": SPEC["run_seconds"],
           "runs": runs, "summary": summarize(runs), "traced": traced,
           "traced_ms": traced_ms, "micro": micro}
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
    ap.add_argument("--micro", action="store_true")
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
