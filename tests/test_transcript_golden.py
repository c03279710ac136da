"""Frozen session contract: exported transcript digests and phase labels.

Each digest is the SHA-256 of `export_transcript` for one seeded run, so any
change to a payload byte, the hop order, an output or an error label shows
up here. A refactor of the session engine must leave every digest as it is.
"""

import hashlib

import pytest

from otkit.harness import PROTOCOLS, SessionConfig, export_transcript, run_session

DB = tuple((bytes([i]) * 8, bytes([0x80 | i]) * 8) for i in range(4))


def _config(protocol, group, s, seed, tamper=None):
    cfg = SessionConfig(protocol=protocol, sigma_bits=64, lambda_bits=64,
                        seed=seed, s=s, tamper=tamper)
    if group == "toy":
        cfg.group_bits = 4
    else:
        cfg.group_bits = group
    if protocol in ("dq-mr", "duq-mr"):
        cfg.db, cfg.v = DB, 2
    else:
        cfg.m0, cfg.m1 = b"\x0a" * 8, b"\xf5" * 8
    return cfg


def _digest(cfg):
    return hashlib.sha256(export_transcript(run_session(cfg)).encode()).hexdigest()


# (protocol, group, s) -> digest of the run seeded 4000 + s
GOLDEN_DIGESTS = {
    ("np-ot", "toy", 0): "c0fa73d1e84d82325a18045012f92391156ece4e978d0afe10ba69722e642af4",
    ("np-ot", "toy", 1): "0d913814f7c44d3b43a639bdc61b31083e65794513129bc0c2ffa4467cd23406",
    ("dq-ot", "toy", 0): "cad72d9e53528b2583a4f7489b7458da34d32bca5e03103ae6e1aa3cc5a93f28",
    ("dq-ot", "toy", 1): "1c279bcdc200ae972f9a50f6140397f95741141b82e49a069abaf8be1b803f83",
    ("duq-ot", "toy", 0): "4a7479e7cf090850f07de30d31de8833858f756e64421c07ab7d188cb93d120e",
    ("duq-ot", "toy", 1): "cdefa6335befe6bb8334c22adb4caa775ab01896532740390291bfb5c2249438",
    ("dq-mr", "toy", 0): "a2807fc7d098645739b4e6dbc587d209a426a182d8767081ce471037ed62595a",
    ("dq-mr", "toy", 1): "bf02a8a187301d19f2642df505908c3304840221be6edcf5a2bc6a9ed79220fd",
    ("duq-mr", "toy", 0): "1b4dab239e9b823b9a7ecc40bb8151d56255d1937de7a911860f8860649b02bc",
    ("duq-mr", "toy", 1): "5cfd4d716f15d79886e83d7119fc24f8daa8d3cf0a0861c7cac635c6e5fae8af",
    ("comp-np", "toy", 0): "720f504f7e382eda7980bb03494181e16850ac7b5104f6dd892e5447ae225f2c",
    ("comp-np", "toy", 1): "95f219adf2aec96f7577075e9ad3a4c95f6dd0d5045f21a5e1a1abbda837ef0c",
    ("supersonic", "toy", 0): "9d020eb25cb67140faba1bee1c7e1e0b2184453c9196132c5a137e78e4281072",
    ("supersonic", "toy", 1): "62b24ad0b32d044e54a1f2dad0aa50bff816af3bd6b3694e502100e42dfefecf",
    ("np-ot", 512, 0): "007a6a34d7c9cf2dc8ef6fdcf330885d45d515f580903e678ca75f02b14071b7",
    ("np-ot", 512, 1): "4e30bb6d6cb7f8c3dcaa48e76ada706297f329201c7cb51e1618d32869c8e4cf",
    ("dq-ot", 512, 0): "55c6d3a708f2218613c616f012a687b4b79346dfcd23597463889c3a558d73ec",
    ("dq-ot", 512, 1): "20f55e268b525fe732d41d5faf35740a0d97cadf4054d34ab4432a95d9d2976d",
    ("duq-ot", 512, 0): "a5f21631e4c69bb3d52ad5f1c769dd88953b57de05b75ecf065d616e1d0f5707",
    ("duq-ot", 512, 1): "c8735911e826c2e1dd8971c9226c9f97be65f9f8c8f1d58a022709ae714a640b",
    ("dq-mr", 512, 0): "f465e7b97b4da5164cf33e49e34b1f9039e06c6b3dedad73b0f6d3714486f22b",
    ("dq-mr", 512, 1): "9c76de31b3c2fc639a80e38c59b0f985873c146c5cdde0df3c8a47d58af84e42",
    ("duq-mr", 512, 0): "a5eee2533cfe09153eb9d7dc48075ccf91d621fb394c94443ea311254b30146f",
    ("duq-mr", 512, 1): "ead6c68ad335821911c4c80fcddd32ef7ead7b1bbe47e7ef26301e408d3cfb68",
    ("comp-np", 512, 0): "8992e6bf87f310e2f620591a362cccf30f7f03de3982985fd48ec376cf412254",
    ("comp-np", 512, 1): "884292bf0cff994d1985e239c401d2ed940e5bf88c846d1f834df28dbb68f150",
    ("supersonic", 512, 0): "9d020eb25cb67140faba1bee1c7e1e0b2184453c9196132c5a137e78e4281072",
    ("supersonic", 512, 1): "62b24ad0b32d044e54a1f2dad0aa50bff816af3bd6b3694e502100e42dfefecf",
}

# (protocol, tamper) -> digest of the 512-bit run seeded 4100 with s = 1
TAMPER_DIGESTS = {
    ("dq-ot", "beta"): "ca23c20da456a33e22fca90afb0ac9df815e63a1d376745e1ea5c4937a09a62a",
    ("duq-ot", "beta"): "3bc0c22168b71a2888717cd912f33f32a6de009ae172397b68ce3d33a556c0d8",
    ("dq-mr", "beta"): "2b808c5815a20436391de06da8d13b4682c80ef3c3289d6590a5d3c670b21e57",
    ("duq-mr", "beta"): "8deb06b4b1c3013b66224a8aae9e3888186cdc207bed781530d92b9a8275ab4c",
    ("duq-ot", "tag"): "b3aaf611c53785ee3fa8623f74c5e05b989b7dc54a103b57ed5d00ae5fb77dd6",
    ("duq-mr", "tag"): "e9be9c091528c14d7661e862178d6989b993ff40c495696d2dc67bf4a1fc7ff3",
}

GOLDEN_PHASE_LABELS = {
    "np-ot": ("init", "gen_query", "gen_res", "retrieve"),
    "dq-ot": ("init", "request", "partial_query", "final_query", "gen_res",
              "retrieve"),
    "duq-ot": ("init", "request", "issue", "partial_query", "final_query",
               "gen_res", "retrieve"),
    "dq-mr": ("init", "request", "partial_query", "final_query", "gen_res",
              "filter", "retrieve"),
    "duq-mr": ("init", "compress_vector", "request", "issue", "partial_query",
               "final_query", "gen_res", "filter", "retrieve"),
    "comp-np": ("init", "gen_query", "gen_res", "retrieve"),
    "supersonic": ("setup", "gen_query", "gen_res", "obl_filter", "retrieve"),
}


def test_matrix_covers_every_protocol():
    assert {p for p, _, _ in GOLDEN_DIGESTS} == set(PROTOCOLS)
    assert set(GOLDEN_PHASE_LABELS) == set(PROTOCOLS)


@pytest.mark.parametrize("key", list(GOLDEN_DIGESTS), ids=str)
def test_transcript_digest(key):
    protocol, group, s = key
    assert _digest(_config(protocol, group, s, 4000 + s)) == GOLDEN_DIGESTS[key]


@pytest.mark.parametrize("key", list(TAMPER_DIGESTS), ids=str)
def test_tamper_transcript_digest(key):
    protocol, tamper = key
    cfg = _config(protocol, 512, 1, 4100, tamper=tamper)
    assert _digest(cfg) == TAMPER_DIGESTS[key]


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_phase_labels(protocol):
    t = run_session(_config(protocol, "toy", 0, 4000))
    assert tuple(label for label, _ in t.phase_times) == GOLDEN_PHASE_LABELS[protocol]
