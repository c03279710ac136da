"""Shared fixtures: deterministic groups and homomorphic keys, and a call
counter.

Key generation is the slow part, so anything reusable is session-scoped.
The 512-bit group uses the pinned modulus; only the discrete log a is drawn
from the fixed seed, so every test session sees the same parameters.
"""

import sys
from collections import Counter

import pytest

from otkit.groupmath import gen_group, toy_group
from otkit.paillier import kgen
from otkit.rng import SeededSource


@pytest.fixture
def rng():
    return SeededSource(2024)


@pytest.fixture(scope="session")
def toy():
    return toy_group()


@pytest.fixture(scope="session")
def toy_dbg():
    return toy_group(retain_dlog=True)


@pytest.fixture(scope="session")
def group512():
    return gen_group(512, SeededSource(512), retain_dlog=True)


@pytest.fixture(scope="session")
def paillier512():
    return kgen(512, SeededSource(71))


@pytest.fixture(scope="session")
def paillier640():
    # wide enough to embed 513-bit group elements with slack
    return kgen(640, SeededSource(72))


@pytest.fixture(scope="session")
def paillier1024():
    return kgen(1024, SeededSource(73))


@pytest.fixture
def count_calls(monkeypatch):
    """count_calls(fn, ...) counts calls to each fn wherever an otkit module
    looks it up, into the returned Counter under fn's name; an (fn, label)
    pair files each call under label(*args) instead."""
    counts = Counter()

    def install(*fns):
        for fn in fns:
            fn, label = fn if isinstance(fn, tuple) else (fn, None)

            def counted(*args, _fn=fn, _label=label, **kwargs):
                counts[_label(*args) if _label else _fn.__name__] += 1
                return _fn(*args, **kwargs)

            for name, module in list(sys.modules.items()):
                if name.split(".")[0] == "otkit":
                    for attr, value in list(vars(module).items()):
                        if value is fn:
                            monkeypatch.setattr(module, attr, counted)
        return counts

    return install
