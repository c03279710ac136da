"""Acceptance suite: one test per shipping criterion, budgets pinned.

Each test prints a single pass line on success, so a -v -s run reads as a
ten-row checklist. The laws themselves live in otkit.laws, which
`otkit verify` calls with smaller counts; these tests fix the counts, the
seeds and the wall-clock budgets.
"""

import argparse
import time

from otkit import laws
from otkit.cli import bench_protocol


def _report(n: int, text: str) -> None:
    print(f"criterion {n:02d} pass: {text}")


def test_criterion_01_query_pair_closed_forms(toy, group512):
    """Both query pairs follow their closed forms in every share cell."""
    started = time.perf_counter()
    assert laws.closed_forms(((toy, 50), (group512, 50)), seed=1000) == 400
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report(1, f"closed forms, 2 groups x 4 cells x 50 seeds [{elapsed:.1f}s]")


def test_criterion_02_delegated_end_to_end(group512):
    """Delegated transfer returns m_s in every cell, 100 seeds, 512-bit."""
    started = time.perf_counter()
    runs = laws.delegated_cells(((group512, 100),), seed=2000)
    elapsed = time.perf_counter() - started
    assert runs == 400 and elapsed < 60.0
    _report(2, f"delegated transfer, 4 cells x 100 seeds, 512-bit [{elapsed:.1f}s]")


def test_criterion_03_pad_swap_exactness_and_speed():
    """Pad-swap transfer: 4 cells x 10^4 exact, fast means, 10^5 in budget."""
    assert laws.pad_swap_cells(10_000, seed=3000) == 40_000

    report = bench_protocol(
        "supersonic", 50,
        argparse.Namespace(seed=None, sigma=128, lambda_bits=128,
                           group_bits=None, paillier_bits=None),
    )
    assert report.mean_seconds <= 0.005

    started = time.perf_counter()
    assert laws.pad_swap_cells(25_000, seed=3001) == 100_000
    elapsed = time.perf_counter() - started
    assert elapsed <= 30.0
    _report(3, f"pad swap, 40k cells exact, mean "
               f"{report.mean_seconds * 1000:.3f} ms, 100k in {elapsed:.1f}s")


def test_criterion_04_speedup_over_group_based_transfer():
    """Pad-swap sessions beat 2048-bit group sessions by at least 50x."""
    args = argparse.Namespace(seed=None, sigma=128, lambda_bits=128,
                              group_bits=2048, paillier_bits=None)
    sup = bench_protocol("supersonic", 300, args)
    base = bench_protocol("np-ot", 20, args)
    ratio = base.mean_seconds / sup.mean_seconds
    assert ratio >= 50.0
    _report(4, f"speedup {ratio:.0f}x (group {base.mean_seconds * 1000:.2f} ms "
               f"vs pad {sup.mean_seconds * 1000:.4f} ms)")


def test_criterion_05_tag_selection(group512):
    """Tag matching: unique hit in 10^4 honest runs; flips always refuse."""
    assert laws.tag_selection(group512, 10_000, 100, seed=5000) == (10_000, 100)
    _report(5, "tags, 10^4 honest unique matches, 100/100 flips refused")


def test_criterion_06_multi_receiver_exactness(toy, group512, paillier640):
    """Both multi-receiver paths hand back exactly m_{s,v}; inbound size
    stays one pair / four ciphertexts whatever the database size."""
    assert laws.multi_receiver(toy, group512, paillier640, z=8,
                               per_choice=20, seed=7000) == 320
    _report(6, "multi-receiver, 2x320 runs exact; inbound constant in z")


def test_criterion_07_compiled_suite_equivalence(toy, group512, paillier512):
    """Compiled sessions agree with plain ones seed for seed; response
    bytes do not grow with the message count; the base suite's secret opens
    only the chosen element at n in (3, 4, 8)."""
    runs, size = laws.compiler_equivalence(toy, paillier512, trials=100, seed=9000)
    assert runs == 200
    assert laws.one_out_of_n(group512, (3, 4, 8), seed=9500) == 15
    _report(7, f"compiler, 100 trials x both s equal; "
               f"{size} response bytes for n in (2,4,8); 1-of-n opens s alone")


def test_criterion_08_homomorphic_laws(paillier1024):
    """1000 random triples obey both homomorphic laws; selector inner
    products pick exactly the hot entry."""
    assert laws.homomorphic_laws(paillier1024, 1000, seed=10_000) == 1000
    _report(8, "homomorphic laws, 1000 triples at 1024-bit; selectors exact")


def test_criterion_09_single_element_tamper_always_aborts(toy):
    """Multiplying either final-query element trips the abort, all senders."""
    assert laws.tamper_aborts(toy, 100, seed=11_000) == 100
    _report(9, "tampered query pairs, 100/100 aborts across all four senders")


def test_criterion_10_transcript_determinism():
    """Same config and seed reproduce every transcript byte, all protocols."""
    assert laws.session_determinism(seed=21) == 7
    _report(10, "byte-identical reruns across all seven protocols")
