"""The benchmark's workloads: seeded inputs, expected outputs, output checks.

Nothing here imports otkit. Inputs come from the benchmark's own
`random.Random`, the expected output of every session is computed from those
inputs alone, and the size properties are read from the transcript's raw
envelopes with a parser of the benchmark's own. A session therefore passes
only if the program's answer agrees with an account made apart from it.
"""

import random
from dataclasses import dataclass

MULTI_RECEIVER = ("dq-mr", "duq-mr")
FRAME_HEADER_BYTES = 7  # 4-byte length, source role, destination role, type


@dataclass(frozen=True)
class Workload:
    """Sizes of one workload and the protocols one round runs, in order.

    A protocol may appear more than once in a round, so that a run holds
    enough sessions of a cheap protocol beside an expensive one.
    """

    protocols: tuple[str, ...]
    group_bits: int | None
    reference: str  # the reference computation in reference.py
    sigma_bits: int = 128
    lambda_bits: int = 128
    z: int = 4
    paillier_bits: int | None = None


WORKLOADS = {
    # Group exponentiation is nearly all of the work; Paillier does none.
    "dh-2048": Workload(
        ("np-ot", "dq-ot", "duq-ot", "dq-mr"), group_bits=2048, reference="modexp-2048"
    ),
    # Paillier dominates both protocols. 1152 bits is the key size that
    # run_session picks for this group; it is passed so the checks know n.
    # comp-np runs four times a round: its key generation time varies from
    # seed to seed, and a duq-mr session costs about seven of it.
    "mr-paillier": Workload(
        ("duq-mr",) + ("comp-np",) * 4,
        group_bits=1024,
        reference="modexp-paillier",
        z=32,
        paillier_bits=1152,
    ),
    # No public-key operation: pad generation, byte XOR and payload copies.
    "pad-bulk": Workload(
        ("supersonic",), group_bits=None, reference="byte-loops", sigma_bits=8 * 65536
    ),
    # The session engine's own overhead: validation, framing, codecs.
    "pad-small": Workload(("supersonic",), group_bits=None, reference="interpreter"),
}


@dataclass(frozen=True)
class Case:
    """Keyword arguments for one SessionConfig and the answer it must give."""

    protocol: str
    config: dict
    expected: bytes


def _distinct(rnd: random.Random, count: int, nbytes: int) -> list[bytes]:
    """count pairwise different messages, so a swapped answer cannot pass."""
    out: list[bytes] = []
    seen = set()
    while len(out) < count:
        m = rnd.randbytes(nbytes)
        if m not in seen:
            seen.add(m)
            out.append(m)
    return out


def make_case(wl: Workload, protocol: str, rnd: random.Random, seed: int) -> Case:
    """One session's inputs, drawn from rnd, with `seed` as the program's seed.

    The program derives all of its own randomness (keys, blinds, shares,
    pads) from `seed`; rnd draws what the client chooses: s, the messages,
    the database and v.
    """
    nbytes = wl.sigma_bits // 8
    s = rnd.getrandbits(1)
    config = dict(
        protocol=protocol,
        sigma_bits=wl.sigma_bits,
        lambda_bits=wl.lambda_bits,
        group_bits=wl.group_bits,
        paillier_bits=wl.paillier_bits,
        seed=seed,
        s=s,
    )
    if protocol in MULTI_RECEIVER:
        msgs = _distinct(rnd, 2 * wl.z, nbytes)
        db = tuple(zip(msgs[0::2], msgs[1::2]))
        v = rnd.randrange(wl.z)
        config.update(db=db, v=v)
        return Case(protocol, config, db[v][s])
    m0, m1 = _distinct(rnd, 2, nbytes)
    config.update(m0=m0, m1=m1)
    return Case(protocol, config, (m0, m1)[s])


def _fields(buf: bytes) -> list[bytes] | None:
    """Split a payload of 4-byte-length-prefixed fields; None if malformed."""
    out, pos = [], 0
    while pos < len(buf):
        if pos + 4 > len(buf):
            return None
        n = int.from_bytes(buf[pos : pos + 4], "big")
        pos += 4
        if pos + n > len(buf):
            return None
        out.append(buf[pos : pos + n])
        pos += n
    return out


def _one(events, msg_type: str):
    """The payload of the only envelope of msg_type, or None."""
    hits = [e.payload for e in events if e.msg_type.name == msg_type]
    return hits[0] if len(hits) == 1 else None


def _size_problem(wl: Workload, protocol: str, to_receiver) -> str | None:
    """The paper's size properties of what the receiver is sent."""
    sigma = wl.sigma_bits // 8
    if protocol == "duq-mr":
        fields = _fields(_one(to_receiver, "FILTERED_RESPONSE") or b"")
        n_sq_bits = 2 * wl.paillier_bits
        if fields is None or len(fields) != 4:
            return "receiver did not get exactly four ciphertexts"
        if any(not 0 < int.from_bytes(f, "big") < 1 << n_sq_bits for f in fields):
            return "a filtered ciphertext is not below n^2"
    elif protocol == "dq-mr":
        if [e.msg_type.name for e in to_receiver] != ["RESPONSE"]:
            return "receiver did not get exactly one response message"
        fields = _fields(to_receiver[0].payload)
        if fields is None or len(fields) != 4 or {len(fields[1]), len(fields[3])} != {sigma}:
            return "receiver's response is not one pair of sigma-byte masks"
    elif protocol == "comp-np":
        payload = _one(to_receiver, "COMPRESSED_RESPONSE") or b""
        width = 2 * wl.paillier_bits // 8
        fields = _fields(payload[4:])
        if payload[:4] != (2).to_bytes(4, "big") or fields is None or [
            len(f) for f in fields
        ] != [width, width]:
            return f"compressed response is not two {width}-byte ciphertexts"
    elif protocol == "supersonic":
        if [e.msg_type.name for e in to_receiver] != ["SUP_RESULT"]:
            return "receiver did not get exactly one result message"
        fields = _fields(to_receiver[0].payload)
        if fields is None or [len(f) for f in fields] != [sigma]:
            return "receiver's result is not one sigma-byte string"
    return None


def reported_failure(transcript) -> str | None:
    """The error a role recorded (`error:*`), if the program reported one."""
    for role, out in transcript.outputs.items():
        if not isinstance(out, bytes):
            return f"{role} output {out}"
    return None


def check(wl: Workload, case: Case, transcript) -> str | None:
    """Why a session that reported no failure gave a wrong answer, or None."""
    if transcript.outputs.get("RECEIVER") != case.expected:
        return "receiver output differs from the expected message"
    to_receiver = [e for e in transcript.events if e.dst.name == "RECEIVER"]
    return _size_problem(wl, case.protocol, to_receiver)


def wire_bytes(transcript) -> dict[str, int]:
    """Framed bytes sent in one session, by message type."""
    out: dict[str, int] = {}
    for e in transcript.events:
        name = e.msg_type.name
        out[name] = out.get(name, 0) + len(e.payload) + FRAME_HEADER_BYTES
    return out
