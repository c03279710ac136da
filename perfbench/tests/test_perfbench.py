"""The benchmark's own tests.

    python3 -m pytest -q perfbench/tests

They run every workload's code path at small sizes in a few seconds, check
that a wrong answer is counted as failed, and check the traced call counts
against counts derived from the protocols.
"""

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

# The same code paths at sizes that run in milliseconds: a 512-bit group, a
# 640-bit Paillier key (the default for that group), z = 4, 4 KiB records.
SHORT = {
    "dh-2048": dataclasses.replace(WORKLOADS["dh-2048"], group_bits=512),
    "mr-paillier": dataclasses.replace(
        WORKLOADS["mr-paillier"], group_bits=512, z=4, paillier_bits=640
    ),
    "pad-bulk": dataclasses.replace(WORKLOADS["pad-bulk"], sigma_bits=8 * 4096),
    "pad-small": WORKLOADS["pad-small"],
}


@pytest.fixture(scope="module")
def program():
    return run.Program()


@pytest.fixture(scope="module")
def tracing(program):
    import tracing

    return tracing


def _names(kind):
    return [m["name"] for m in SPEC[kind]]


def _traced_loop(tracing, program, wl, seed=7):
    tracer = tracing.Tracer(keep_spans=1000)
    loop = run.Loop(wl, program, random.Random(seed), run=tracer.wrap(tracing.ROOT, program.run))
    return tracer, loop


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_sample_keeps_an_even_spread_in_fixed_memory():
    sample = run.Sample(8)
    size = sample.buf.buffer_info()
    for i in range(100):
        sample.add(float(i))
    assert sample.seen == 100 and sample.stride == 16
    assert list(sample.values()) == [0.0, 16.0, 32.0, 48.0, 64.0, 80.0, 96.0]
    assert sample.buf.buffer_info() == size


def test_same_seed_same_inputs():
    for name, wl in SHORT.items():
        for protocol in wl.protocols:
            a = workloads.make_case(wl, protocol, random.Random(11), 5)
            b = workloads.make_case(wl, protocol, random.Random(11), 5)
            assert a == b


def test_program_seeds_are_the_same_in_every_round(program, monkeypatch):
    seeds = []

    def spy(wl, protocol, rnd, seed):
        seeds.append(seed)
        return workloads.make_case(wl, protocol, rnd, seed)

    monkeypatch.setattr(run, "make_case", spy)
    wl = SHORT["dh-2048"]
    first = run.Loop(wl, program, random.Random(1))
    first.round()
    first.round()
    run.Loop(wl, program, random.Random(2)).round()
    n = len(wl.protocols)
    assert seeds[:n] == seeds[n : 2 * n] == seeds[2 * n :] and len(set(seeds[:n])) == n


def test_times_are_scaled_by_the_readings_around_them(program, monkeypatch):
    readings = iter([25.0, 100.0])
    monkeypatch.setattr(run.reference, "rate", lambda kernel, min_s: next(readings))
    monkeypatch.setattr(run, "SEGMENT_S", 1e9)  # one reading before, one after
    loop = run.Loop(SHORT["pad-small"], program, random.Random(3), reference=(None, 100.0))
    loop.run_for(0)
    assert loop.sessions() == 1
    # sqrt(25 * 100) / 100: the host ran the reference at half its nominal rate
    assert loop.scaled_s == pytest.approx(loop.raw_s / 2)
    assert loop.times["supersonic"].values()[0] == pytest.approx(loop.raw_s / 2)
    metrics = run.end_to_end(loop, setup_s=0.5, peak_rss_mb=20.0)
    assert metrics["sessions_per_s"]["value"] == pytest.approx(2 / loop.raw_s)


@pytest.mark.parametrize("name", list(run.reference.KERNELS))
def test_reference_kernels_are_fixed_work(name):
    kernel, nominal = run.reference.KERNELS[name]
    assert kernel() == kernel() and nominal > 0
    assert run.reference.rate(kernel, 0.01) > 0


@pytest.mark.parametrize("name", list(SHORT))
def test_short_run_of_each_workload(program, tracing, name):
    wl = SHORT[name]
    loop = run.Loop(
        wl, program, random.Random(3), reference=run.reference.KERNELS[wl.reference]
    )
    loop.run_for(0.2)
    assert loop.failed == 0, loop.problems
    assert loop.attempted == loop.sessions() >= len(wl.protocols)
    assert loop.attempted % len(wl.protocols) == 0
    metrics = run.end_to_end(loop, setup_s=0.5, peak_rss_mb=20.0)
    assert list(metrics) == _names("end_to_end")
    assert all(m["value"] > 0 for m in metrics.values())

    tracer, traced = _traced_loop(tracing, program, wl)
    with tracing.install(tracer):
        traced.round()
    assert traced.failed == 0, traced.problems
    layer = tracer.metrics(traced.sessions(), traced.wire)
    assert list(layer) == _names("per_layer")
    assert sum(layer[f"wire.bytes.{t}"]["value"] for t in tracing.MSG_TYPES) == (
        pytest.approx(sum(traced.wire.values()) / traced.sessions())
    )


@pytest.mark.parametrize("name", ["dh-2048", "pad-small"])
def test_swapped_answer_counts_as_failed(program, monkeypatch, name):
    def swapped(wl, protocol, rnd, seed):
        case = workloads.make_case(wl, protocol, rnd, seed)
        c = case.config
        pair = c["db"][c["v"]] if "db" in c else (c["m0"], c["m1"])
        return dataclasses.replace(case, expected=pair[1 - c["s"]])

    monkeypatch.setattr(run, "make_case", swapped)
    loop = run.Loop(SHORT[name], program, random.Random(5))
    loop.round()
    assert loop.attempted == loop.failed == loop.wrong == len(SHORT[name].protocols)
    assert loop.sessions() == 0


def test_reported_failure_counts_as_failed_not_wrong(program, monkeypatch):
    def tampered(wl, protocol, rnd, seed):
        case = workloads.make_case(wl, protocol, rnd, seed)
        return dataclasses.replace(case, config={**case.config, "tamper": "beta"})

    monkeypatch.setattr(run, "make_case", tampered)
    wl = dataclasses.replace(SHORT["dh-2048"], protocols=("dq-ot", "dq-mr"))
    loop = run.Loop(wl, program, random.Random(5))
    loop.round()
    assert loop.attempted == loop.failed == 2
    assert loop.wrong == 0
    assert "error:ConsistencyAbort" in loop.problems[0]


@pytest.mark.parametrize("protocol", ["duq-mr", "dq-mr", "comp-np", "supersonic"])
def test_size_checks_catch_an_extra_field(program, protocol):
    wl = next(w for w in SHORT.values() if protocol in w.protocols)
    case = workloads.make_case(wl, protocol, random.Random(9), 9)
    transcript = program.run(program.config(**case.config))
    assert workloads.check(wl, case, transcript) is None
    last = max(i for i, e in enumerate(transcript.events) if e.dst.name == "RECEIVER")
    e = transcript.events[last]
    padded = e.payload + (1).to_bytes(4, "big") + b"\x01"
    transcript.events[last] = dataclasses.replace(e, payload=padded)
    assert workloads.check(wl, case, transcript) is not None


def _one_traced_session(tracing, program, wl):
    tracer, loop = _traced_loop(tracing, program, wl)
    with tracing.install(tracer):
        loop.round()
    assert loop.failed == 0, loop.problems
    return tracer.calls


def test_np_ot_call_counts(program, tracing):
    wl = dataclasses.replace(WORKLOADS["dh-2048"], protocols=("np-ot",))
    calls = _one_traced_session(tracing, program, wl)
    assert calls["groupmath.modexp_g"] == 3
    assert calls["groupmath.modexp_other"] == 3
    assert calls["groupmath.elem_div"] == 2


@pytest.mark.parametrize("z", [1, 5])
def test_duq_mr_call_counts(program, tracing, z):
    wl = dataclasses.replace(SHORT["mr-paillier"], protocols=("duq-mr",), z=z)
    calls = _one_traced_session(tracing, program, wl)
    assert calls["paillier.enc"] == z
    assert calls["paillier.hscale"] == 4 * z
    assert calls["paillier.hadd"] == 4 * (z - 1)
    assert calls["paillier.dec"] == 4
    assert calls["paillier.kgen"] == 1


def test_install_restores_the_program(program, tracing):
    from otkit import harness, paillier, wire

    before = (harness.encode_envelope, harness.kgen, paillier.enc, wire.Reader.read_uint)
    with tracing.install(tracing.Tracer(keep_spans=0)):
        assert harness.kgen is not before[1]
    assert (harness.encode_envelope, harness.kgen, paillier.enc, wire.Reader.read_uint) == before


def _cli(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pad-small", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_one_result_line(trace):
    proc = _cli(BENCH.parent, "--seed", "3", "--seconds", "0.3", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace == "1" else "end_to_end"
    assert list(result["metrics"]) == _names(kind)


def test_cli_fails_without_the_program(tmp_path):
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _cli(tmp_path, "--seconds", "0.3")
    assert proc.returncode != 0
    assert "{" not in proc.stdout
