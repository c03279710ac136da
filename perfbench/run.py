"""otkit's benchmark: one workload, one fresh process, one closed loop.

    python3 perfbench/run.py --workload dh-2048 --seed 1 --seconds 20 --trace 0

A single client runs the workload's protocols in turn through the public
`run_session`, one seeded session after another, in whole rounds, for
--seconds. Every session's output is checked (see workloads.py). The last
line of standard output is one JSON object: `correct`, `attempted`,
`failed` and `metrics`. A session fails when it raises, when a role records
an error, or when its answer is wrong; `correct` is false when any session,
warm-up included, gave a wrong answer without reporting a failure.

With --trace 0 the metrics are the end-to-end ones, and every time in them is
scaled by readings of the workload's reference computation (reference.py)
taken around it. With --trace 1 the same loop runs traced (see tracing.py),
unscaled, and the metrics are per-layer, per session. Lines before the result
give each protocol's session times. Result and trace files go to
perfbench/out/.
"""

import argparse
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from array import array
from pathlib import Path

import reference
from workloads import WORKLOADS, check, make_case, reported_failure, wire_bytes

CHECKOUT = Path(__file__).resolve().parent.parent
SRC = CHECKOUT / "src"
OUT = CHECKOUT / "perfbench" / "out"
WARMUP_SEED = 0x5E7  # warm-up inputs are the same in every run
# Every timed round gives the program the same seeds, so every round does the
# same key generation and other seed-dependent work; see README.
PROGRAM_SEEDS, WARMUP_PROGRAM_SEEDS = 0x0715EED, 0x0715EED + 1
SETUP_RUNS = (3, 64)  # fewest and most set-ups per run; more only while cheap
SETUP_BUDGET_S = 4.0  # wall time of the set-up probes beyond the fewest
SAMPLE_SIZE = 8192  # session times kept per protocol; see Sample
SEGMENT_S = 0.25  # least session time between two reference readings
REF_MIN_S = 0.03  # least wall time of one reference reading
REF_SHARE = 0.15  # and at least this share of the session time before it
KEEP_SPANS = 100_000
PROBE_TIMEOUT_S = 60


class Program:
    """otkit, imported from this checkout's src/ into this process."""

    def __init__(self):
        sys.path.insert(0, str(SRC))
        import otkit

        if Path(otkit.__file__).resolve().parent != SRC / "otkit":
            raise ImportError(f"otkit was found at {otkit.__file__}, not under {SRC}")
        self.config = otkit.SessionConfig
        self.run = otkit.run_session


def setup(workload: str):
    """Import otkit and run one checked warm-up session of each protocol.

    Returns the time both took, scaled as session times are (see Loop) by
    readings of the workload's reference before and after, the program, and
    the warm-up loop.
    """
    wl = WORKLOADS[workload]
    kernel, nominal = reference.KERNELS[wl.reference]
    before = reference.rate(kernel, REF_MIN_S)
    t0 = time.perf_counter()
    program = Program()
    warm = Loop(
        wl, program, random.Random(WARMUP_SEED), seeds=WARMUP_PROGRAM_SEEDS
    )
    warm.round(tuple(dict.fromkeys(wl.protocols)))
    elapsed = time.perf_counter() - t0
    after = reference.rate(kernel, max(REF_MIN_S, REF_SHARE * elapsed))
    return elapsed * math.sqrt(before * after) / nominal, program, warm


class Sample:
    """Every stride-th value added, in a buffer of fixed size.

    When the buffer is full, every other value kept is dropped and the stride
    doubles. The values kept stay spread evenly over the run, and the memory
    they take does not grow with the number of sessions, so a faster program
    does not read as a larger one in peak_rss_mb.
    """

    def __init__(self, size: int):
        assert size % 2 == 0  # so the value that fills the buffer is kept
        self.buf = array("d", bytes(8 * size))
        self.kept = self.seen = 0
        self.stride = 1

    def add(self, value: float) -> None:
        if self.seen % self.stride == 0:
            if self.kept == len(self.buf):
                self.buf[: self.kept // 2] = self.buf[: self.kept : 2]
                self.kept //= 2
                self.stride *= 2
            self.buf[self.kept] = value
            self.kept += 1
        self.seen += 1

    def values(self) -> array:
        return self.buf[: self.kept]


class Loop:
    """Runs rounds of a workload and keeps what the metrics need.

    With a reference (a kernel from reference.py and its nominal rate), the
    loop reads the reference's speed before the first session and again
    whenever the sessions since the last reading have taken SEGMENT_S of wall
    time. Each session's time is scaled by the geometric mean of the readings
    on either side of it over the nominal rate: the time it would have taken
    had the host run the reference at its nominal rate. Without a reference,
    times are kept as measured.
    """

    def __init__(self, wl, program, rnd, run=None, seeds=PROGRAM_SEEDS, reference=None):
        self.wl, self.program, self.rnd = wl, program, rnd
        self.run = run or program.run
        # the program's seed for each place in the round, the same every round
        seeder = random.Random(seeds)
        self.seeds = tuple(seeder.getrandbits(64) for _ in wl.protocols)
        self.reference = reference
        self.times = {p: Sample(SAMPLE_SIZE) for p in wl.protocols}
        self.raw_s = self.scaled_s = 0.0  # summed session times
        self._pending: list[tuple[str, float]] = []  # since the last reading
        self._pending_s = 0.0
        self._last_rate = None
        self.attempted = self.failed = 0
        self.wrong = 0  # failed sessions that reported no failure
        self.wire: dict[str, int] = {}
        self.problems: list[str] = []

    def round(self, protocols=None) -> None:
        for protocol, seed in zip(protocols or self.wl.protocols, self.seeds):
            case = make_case(self.wl, protocol, self.rnd, seed)
            config = self.program.config(**case.config)
            self.attempted += 1
            t0 = time.perf_counter()
            try:
                transcript = self.run(config)
            except Exception as err:  # a failing session must not end the run
                problem = f"{type(err).__name__}: {err}"
            else:
                elapsed = time.perf_counter() - t0
                problem = reported_failure(transcript)
                wrong = None if problem else check(self.wl, case, transcript)
                if wrong:
                    self.wrong += 1
                    problem = f"wrong answer: {wrong}"
            if problem:
                self.failed += 1
                if len(self.problems) < 5:
                    self.problems.append(f"{protocol} seed {config.seed}: {problem}")
                continue
            for name, n in wire_bytes(transcript).items():
                self.wire[name] = self.wire.get(name, 0) + n
            self._pending.append((protocol, elapsed))
            self._pending_s += elapsed
            if self.reference is None or self._pending_s >= SEGMENT_S:
                self._settle()

    def _read_reference(self) -> float:
        kernel, _ = self.reference
        self._last_rate = reference.rate(kernel, max(REF_MIN_S, REF_SHARE * self._pending_s))
        return self._last_rate

    def _settle(self) -> None:
        """Scale the pending session times and keep them."""
        factor = 1.0
        if self.reference is not None:
            before = self._last_rate
            factor = math.sqrt(before * self._read_reference()) / self.reference[1]
        for protocol, elapsed in self._pending:
            self.times[protocol].add(elapsed * factor)
        self.raw_s += self._pending_s
        self.scaled_s += self._pending_s * factor
        self._pending.clear()
        self._pending_s = 0.0

    def run_for(self, seconds: float) -> None:
        deadline = time.perf_counter() + seconds
        if self.reference is not None:
            self._read_reference()
        self.round()
        while time.perf_counter() < deadline:
            self.round()
        if self._pending:
            self._settle()

    def sessions(self) -> int:
        return sum(t.seen for t in self.times.values())


def decile(values, which: int) -> float:
    """The which-th decile (1 to 9) of values."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[which - 1]


def _tail(times) -> str:
    """The highest percentile with at least ten sessions beyond it."""
    for pct in (99.9, 99, 90):
        if len(times) * (100 - pct) / 100 >= 10:
            q = statistics.quantiles(times, n=1000, method="inclusive")
            return f" p{pct:g}_ms={q[round(pct * 10) - 1] * 1e3:.3f}"
    return ""


def protocol_lines(loop: Loop) -> list[str]:
    """Throughput as measured and as scaled, and each protocol's times."""
    lines = [
        f"# sessions={loop.sessions()}"
        f" measured_sessions_per_s={loop.sessions() / loop.raw_s:.3f}"
        f" scaled_sessions_per_s={loop.sessions() / loop.scaled_s:.3f}"
    ]
    for protocol, sample in loop.times.items():
        if sample.kept:
            times = sample.values()
            lines.append(
                f"# {protocol}: sessions={sample.seen} kept={sample.kept}"
                f" p10_ms={decile(times, 1) * 1e3:.3f}"
                f" median_ms={statistics.median(times) * 1e3:.3f}{_tail(times)}"
            )
    return lines


def end_to_end(loop: Loop, setup_s: float, peak_rss_mb: float) -> dict:
    """The end-to-end metrics; see README.md for the scaling of times."""
    medians = [statistics.median(t.values()) for t in loop.times.values() if t.kept]
    values = {
        "setup_s": (setup_s, "s"),
        "sessions_per_s": (loop.sessions() / loop.scaled_s, "1/s"),
        "session_ms": (math.exp(statistics.fmean(map(math.log, medians))) * 1e3, "ms"),
        "wire_bytes": (sum(loop.wire.values()) / loop.sessions(), "bytes"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def probe_setups(args) -> list[float]:
    """Set-up times of fresh processes, each doing exactly this run's set-up."""
    low, high = SETUP_RUNS
    samples: list[float] = []
    t0 = time.perf_counter()
    # this process's own set-up is the last sample
    while len(samples) + 1 < low or (
        len(samples) + 1 < high and time.perf_counter() - t0 < SETUP_BUDGET_S
    ):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", args.workload, "--setup-only"],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=CHECKOUT,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        samples.append(float(proc.stdout.split()[-1]))
    return samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if not (SRC / "otkit" / "__init__.py").is_file():
        print(f"no otkit sources under {SRC}", file=sys.stderr)
        return 2
    if args.setup_only:
        print(setup(args.workload)[0])
        return 0

    probes = [] if args.trace else probe_setups(args)
    setup_s, program, warm = setup(args.workload)
    wl = WORKLOADS[args.workload]
    rnd = random.Random(args.seed)
    if args.trace:
        import tracing

        tracer = tracing.Tracer(KEEP_SPANS)
        traced_run = tracer.wrap(tracing.ROOT, program.run)
        loop = Loop(wl, program, rnd, run=traced_run)
        with tracing.install(tracer):
            loop.run_for(args.seconds)
    else:
        loop = Loop(wl, program, rnd, reference=reference.KERNELS[wl.reference])
        loop.run_for(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if loop.sessions() == 0:
        print("every session failed:", *loop.problems, sep="\n  ", file=sys.stderr)
        return 1
    if args.trace:
        metrics = tracer.metrics(loop.sessions(), loop.wire)
    else:
        metrics = end_to_end(loop, statistics.median(probes + [setup_s]), peak_rss_mb)
    result = {
        "correct": warm.wrong == 0 and loop.wrong == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }
    for problem in warm.problems + loop.problems:
        print(f"failed: {problem}", file=sys.stderr)

    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{args.workload}-trace{args.trace}.json", "w") as f:
        json.dump({"seed": args.seed, "seconds": args.seconds, **result}, f, indent=1)
    if args.trace:
        tracer.dump(OUT / f"trace-{args.workload}.json")
    else:
        print(f"# setup samples: {len(probes) + 1}")
    print(*protocol_lines(loop), sep="\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
