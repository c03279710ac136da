"""Multi-party session engine with transcript capture.

One session owns every role's state and plays the protocol's phases in
their canonical order over an in-process bus. Each message goes through
`_hop`, which encodes it with its type's entry in the codec table `_CODECS`,
frames and round-trips the envelope, records the parsed `Envelope` (a
slotted dataclass, not frozen, with `bytes` payload), and decodes it for the
receiving role. The one exception: in duq-ot and duq-mr, REQ1 and REQ2 carry
a bare blind, which `_run_delegated` sends through `_UINT` by `_hop`'s codec
argument, since the table's entry for those types is dq's share and blind.
The table and `_UINT` are the only home of the payload formats: the
protocol modules build and consume values and never touch bytes, and no
other module imports from `wire`. Table entries look `encode_uint`,
`encode_bytes` and the `Reader` methods up by name when called, so a tracer
that rebinds them sees every call. The four delegated-query protocols share
one pipeline, `_run_delegated`; the protocol id fixes who deals the
choice-bit shares (the receiver or an issuer) and whether P1 filters a whole
database's response. np-ot and comp-np, its compiled form, share `_run_np`.

A ProtocolError ends the run as error:<Name> at the role that raised it (for
a failed decode, the hop's receiver). Phase wall-clock timings ride along
for the bench command but stay out of the canonical export.
"""

import enum
import struct
import time
from collections import namedtuple
from dataclasses import dataclass, field

from . import supersonic as sup
from .base_ot import NpResponse, np_gen_query, np_gen_res, np_retrieve, np_suite
from .dq_family import (
    DelegationRequest,
    FinalQueryPair,
    PartialQueryPair,
    dq_p1_gen_query,
    dq_p2_gen_query,
    dq_r_request,
    dq_r_retrieve,
    dq_s_gen_res,
    dqmr_p1_filter,
    dqmr_s_gen_res_multi,
)
from .duq_family import (
    duq_r_request,
    duq_r_retrieve,
    duq_s_gen_res,
    duq_t_request,
    duqmr_p1_filter,
    duqmr_r_retrieve,
    duqmr_r_setup,
    duqmr_s_gen_res_multi,
    duqmr_t_setup,
    embedding_min_bits,
)
from .errors import (
    DecodeError, KeyTooSmall, ProtocolError, TruncatedFrame, UnknownRole, UnknownTag, UsageError
)
from .groupmath import PINNED_G, PINNED_SAFE_PRIMES, gen_group
from .ot_compiler import comp_gen_query, comp_gen_res, comp_retrieve, compressed_min_bits
from .paillier import kgen
from .rng import SeededSource, SystemSource
from .wire import Reader, encode_bytes, encode_uint


class Role(enum.IntEnum):
    SENDER = 1
    RECEIVER = 2
    P1 = 3
    P2 = 4
    ISSUER = 5
    SERVER = 6


class MsgType(enum.IntEnum):
    REQ1 = 0x01
    REQ2 = 0x02
    PARTIAL_Q = 0x03
    FINAL_Q = 0x04
    RESPONSE = 0x05
    RESPONSE_VEC = 0x06
    ISSUER_REQ1 = 0x07
    ISSUER_REQ2 = 0x08
    SP_S = 0x09
    SP_R = 0x0A
    COMPRESS_VEC = 0x0B
    TAGGED_RESPONSE_VEC = 0x0C
    FILTERED_RESPONSE = 0x0D
    SELECTOR_VEC = 0x0E
    COMPRESSED_RESPONSE = 0x0F
    PAD_KEYS = 0x10
    SUP_Q1 = 0x11
    SUP_Q2 = 0x12
    SUP_EPAIR = 0x13
    SUP_RESULT = 0x14
    NP_QUERY = 0x15


@dataclass(slots=True)
class Envelope:
    """One framed message. Slotted, not frozen: a frozen dataclass's __init__
    sets each field through object.__setattr__, and _hop builds two envelopes
    per message. So an envelope is neither immutable nor hashable; the roles
    never receive one, only the values decoded from its payload."""

    src: Role
    dst: Role
    msg_type: MsgType
    payload: bytes


# 4-byte total length, from-role byte, to-role byte, tag byte; the one
# header layout, shared by the framer and the parser
_HEADER = struct.Struct(">IBBB")
_ROLE_BY_BYTE = {r.value: r for r in Role}
_TYPE_BY_BYTE = {m.value: m for m in MsgType}


def encode_envelope(e: Envelope) -> bytes:
    """The 7-byte header, then the payload."""
    if len(e.payload) >= (1 << 32) - 3:
        raise ValueError("payload too long for the frame")
    return _HEADER.pack(3 + len(e.payload), e.src, e.dst, e.msg_type) + e.payload


def decode_envelope(buf: bytes) -> Envelope:
    size = len(buf)
    if size < _HEADER.size:
        if size < 4:
            raise TruncatedFrame("frame shorter than its length field")
        total = int.from_bytes(buf[:4], "big")
        raise TruncatedFrame(f"declared {total} bytes, frame carries {size - 4}")
    total, src, dst, tag = _HEADER.unpack_from(buf)
    if size - 4 != total:
        raise TruncatedFrame(f"declared {total} bytes, frame carries {size - 4}")
    src_role = _ROLE_BY_BYTE.get(src)
    dst_role = _ROLE_BY_BYTE.get(dst)
    if src_role is None or dst_role is None:
        raise UnknownRole(f"role bytes {src:#x}/{dst:#x}")
    mtype = _TYPE_BY_BYTE.get(tag)
    if mtype is None:
        raise UnknownTag(f"message type byte {tag:#x}")
    return Envelope(src_role, dst_role, mtype, buf[_HEADER.size:])


# per-protocol message-type sequence, in canonical phase order
GOLDEN_PHASES: dict[str, tuple[MsgType, ...]] = {
    "np-ot": (MsgType.NP_QUERY, MsgType.RESPONSE),
    "dq-ot": (
        MsgType.REQ1,
        MsgType.REQ2,
        MsgType.PARTIAL_Q,
        MsgType.FINAL_Q,
        MsgType.RESPONSE,
    ),
    "duq-ot": (
        MsgType.REQ1,
        MsgType.REQ2,
        MsgType.ISSUER_REQ1,
        MsgType.ISSUER_REQ2,
        MsgType.SP_S,
        MsgType.SP_R,
        MsgType.PARTIAL_Q,
        MsgType.FINAL_Q,
        MsgType.RESPONSE,
    ),
    "dq-mr": (
        MsgType.REQ1,
        MsgType.REQ2,
        MsgType.PARTIAL_Q,
        MsgType.FINAL_Q,
        MsgType.RESPONSE_VEC,
        MsgType.RESPONSE,
    ),
    "duq-mr": (
        MsgType.COMPRESS_VEC,
        MsgType.REQ1,
        MsgType.REQ2,
        MsgType.ISSUER_REQ1,
        MsgType.ISSUER_REQ2,
        MsgType.SP_S,
        MsgType.SP_R,
        MsgType.PARTIAL_Q,
        MsgType.FINAL_Q,
        MsgType.TAGGED_RESPONSE_VEC,
        MsgType.FILTERED_RESPONSE,
    ),
    "comp-np": (
        MsgType.NP_QUERY,
        MsgType.SELECTOR_VEC,
        MsgType.COMPRESSED_RESPONSE,
    ),
    "supersonic": (
        MsgType.PAD_KEYS,
        MsgType.SUP_Q1,
        MsgType.SUP_Q2,
        MsgType.SUP_EPAIR,
        MsgType.SUP_RESULT,
    ),
}

PROTOCOLS = tuple(GOLDEN_PHASES)

# in-flight test hooks: for the honest value of msg_type, _hop sends alter(value,
# P), P the group's modulus, and role must refuse it with the named refusal
Tamper = namedtuple("Tamper", "msg_type role refusal alter")
TAMPERS: dict[str, Tamper] = {
    "beta": Tamper(MsgType.FINAL_Q, Role.SENDER, "ConsistencyAbort",
                   lambda f, P: f._replace(b0=f.b0 * PINNED_G % P)),  # b0 times g
    "tag": Tamper(MsgType.SP_S, Role.RECEIVER, "NoTagMatch",
                  lambda tag, P: bytes((tag[0] ^ 0x01,)) + tag[1:]),  # first bit
}


@dataclass
class SessionConfig:
    """Inputs and security parameters for one protocol run.

    group_bits names a row of groupmath.PINNED_SAFE_PRIMES (4 is the toy
    group); supersonic needs none. m0/m1 feed the two-message protocols, db
    and v the multi-receiver ones. s is the choice bit (held by the receiver,
    or by the issuer in the unknown-query variants). A seed makes the run
    reproducible; with none, every secret comes from the OS and the
    transcript exports `seed none`.
    tamper is test plumbing: the name of a hook in TAMPERS, which _hop applies.
    """

    protocol: str
    sigma_bits: int = 128
    lambda_bits: int = 128
    group_bits: int | None = None
    paillier_bits: int | None = None
    seed: int | None = None
    s: int | None = None
    m0: bytes | None = None
    m1: bytes | None = None
    db: tuple[tuple[bytes, bytes], ...] | None = None
    v: int | None = None
    tamper: str | None = None


@dataclass
class SessionTranscript:
    protocol: str
    seed: int | None
    events: list[Envelope] = field(default_factory=list)
    outputs: dict[str, bytes | str] = field(default_factory=dict)
    phase_times: list[tuple[str, float]] = field(default_factory=list)
    # (tampered message type, value -> value) for _hop, or None; not exported
    _tamper: tuple | None = field(default=None, compare=False, repr=False)


def export_transcript(t: SessionTranscript) -> str:
    """Canonical line format: one record per envelope, hex payloads.

    Phase timings are deliberately absent so the export is deterministic
    under a fixed seed.
    """
    lines = [f"protocol {t.protocol}", f"seed {'none' if t.seed is None else t.seed}"]
    for i, e in enumerate(t.events):
        lines.append(
            f"event {i} {e.src.name} {e.dst.name} {e.msg_type.name} "
            f"{e.payload.hex()}"
        )
    for role in sorted(t.outputs):
        val = t.outputs[role]
        shown = val if isinstance(val, str) else val.hex()
        lines.append(f"output {role} {shown}")
    return "\n".join(lines) + "\n"


def project_view(t: SessionTranscript, role: Role) -> list[Envelope]:
    """The envelopes a role saw: everything it sent or received."""
    return [e for e in t.events if role in (e.src, e.dst)]


# ----------------------------------------------------------------- codecs


def _reading(read):
    """Payload decoder from a Reader walk that must use every byte."""

    def decode(payload: bytes):
        r = Reader(payload)
        value = read(r)
        r.expect_end()
        return value

    return decode


def _read_bit(r: Reader) -> int:
    bit = r.read_byte()
    if bit > 1:
        raise DecodeError(f"share byte {bit:#04x} is not a bit")
    return bit


def _vector(encode_item, read_item):
    """Codec for a 4-byte count followed by that many items, as a tuple."""
    return (
        lambda items: b"".join(
            [len(items).to_bytes(4, "big"), *map(encode_item, items)]
        ),
        _reading(lambda r: tuple(read_item(r) for _ in range(r.read_u32()))),
    )


def _encode_pair(res: NpResponse) -> bytes:
    """Two response elements, each a group element and then a masked body."""
    (head0, body0), (head1, body1) = res
    return b"".join((encode_uint(head0), encode_bytes(body0),
                     encode_uint(head1), encode_bytes(body1)))


def _read_pair(r: Reader) -> NpResponse:
    return NpResponse(*((r.read_uint(), r.read_bytes()) for _ in range(2)))


def _uint_pair(cls):
    """Codec for a NamedTuple of two group elements, slot 0 first."""
    return (lambda p: encode_uint(*p),
            _reading(lambda r: cls(r.read_uint(), r.read_uint())))


def _encode_full_width(value) -> bytes:
    """(components, pk_R) as a count and the ciphertexts, each at the width
    of n^2, so the length is blind to the message count; the decoder keeps
    the leading zero bytes that read_uint would refuse."""
    components, pk_R = value
    width = (pk_R.n_squared.bit_length() + 7) // 8
    prefix = width.to_bytes(4, "big")
    parts = [len(components).to_bytes(4, "big")]
    for ct in components:
        parts += (prefix, ct.to_bytes(width, "big"))
    return b"".join(parts)


_PAIRS = _vector(_encode_pair, _read_pair)
_UINT = (lambda x: encode_uint(x), _reading(lambda r: r.read_uint()))
_BIT = (lambda b: bytes((b,)), _reading(_read_bit))
_BYTES = (lambda b: encode_bytes(b), _reading(lambda r: r.read_bytes()))
_CIPHERTEXTS = _vector(lambda c: encode_uint(c), lambda r: r.read_uint())
_DELEGATION = (
    lambda req: bytes((req.share,)) + encode_uint(req.blind),
    _reading(lambda r: DelegationRequest(share=_read_bit(r), blind=r.read_uint())),
)

_CODECS = {
    MsgType.REQ1: _DELEGATION,
    MsgType.REQ2: _DELEGATION,
    MsgType.PARTIAL_Q: _uint_pair(PartialQueryPair),
    MsgType.FINAL_Q: _uint_pair(FinalQueryPair),
    MsgType.RESPONSE: (_encode_pair, _reading(_read_pair)),
    MsgType.RESPONSE_VEC: _PAIRS,
    MsgType.ISSUER_REQ1: _BIT,
    MsgType.ISSUER_REQ2: _BIT,
    MsgType.SP_S: _BYTES,
    MsgType.SP_R: (
        lambda share_tag: bytes((share_tag[0],)) + encode_bytes(share_tag[1]),
        _reading(lambda r: (_read_bit(r), r.read_bytes())),
    ),
    MsgType.COMPRESS_VEC: _CIPHERTEXTS,
    MsgType.TAGGED_RESPONSE_VEC: _PAIRS,
    MsgType.FILTERED_RESPONSE: (
        lambda f: encode_uint(*f),
        _reading(lambda r: tuple(r.read_uint() for _ in range(4))),
    ),
    MsgType.SELECTOR_VEC: _CIPHERTEXTS,
    MsgType.COMPRESSED_RESPONSE: (_encode_full_width, _reading(lambda r: tuple(
        int.from_bytes(r.read_bytes(), "big") for _ in range(r.read_u32())))),
    MsgType.PAD_KEYS: (
        lambda k: encode_bytes(k.k0, k.k1),
        _reading(lambda r: sup.PadKeys(k0=r.read_bytes(), k1=r.read_bytes())),
    ),
    MsgType.SUP_Q1: _BIT,
    MsgType.SUP_Q2: _BIT,
    MsgType.SUP_EPAIR: (
        lambda e: encode_bytes(*e),
        _reading(lambda r: sup.EncPair(r.read_bytes(), r.read_bytes())),
    ),
    MsgType.SUP_RESULT: _BYTES,
    MsgType.NP_QUERY: _UINT,
}


class _Refusal(Exception):
    """args[0] is the Role that refused a message or aborted; the cause says why."""


def _hop(t: SessionTranscript, src: Role, dst: Role, mtype: MsgType, value, codec=None):
    """Encode value, frame and round-trip it, record it, and decode it at dst.

    codec replaces the table's entry for the issuer variants' bare blinds. A
    session's tamper, if any, alters the value of its message type first.
    """
    if t._tamper is not None and t._tamper[0] is mtype:
        value = t._tamper[1](value)
    encode, decode = codec or _CODECS[mtype]
    env = Envelope(src, dst, mtype, encode(value))
    try:
        round_tripped = decode_envelope(encode_envelope(env))
        if round_tripped != env:
            raise DecodeError("envelope did not survive its wire round trip")
        t.events.append(round_tripped)
        return decode(round_tripped.payload)
    except ProtocolError as err:
        raise _Refusal(dst) from err


class _phase:
    """Times one phase; a ProtocolError in it is a refusal by role.

    A class: @contextmanager costs microseconds more per phase.
    """

    def __init__(self, t: SessionTranscript, label: str, role: Role):
        self.t, self.label, self.role = t, label, role

    def __enter__(self):
        self.t0 = time.perf_counter()

    def __exit__(self, kind, err, tb):
        self.t.phase_times.append((self.label, time.perf_counter() - self.t0))
        if isinstance(err, ProtocolError):
            raise _Refusal(self.role) from err


# the largest message (sigma) and tag (lambda) a session takes, 1 MiB: sixteen
# times pad-bulk's records, and a bound on what the CLI pads hex fields to
SIGMA_MAX_BITS = 8 << 20
# the largest Paillier key a session generates: kgen's time grows steeply past it
PAILLIER_MAX_BITS = 4096


def check_bits(name: str, bits: int) -> None:
    """A message or tag length is a positive multiple of 8, at most SIGMA_MAX_BITS."""
    if bits <= 0 or bits % 8:
        raise UsageError(f"{name} must be a positive multiple of 8")
    if bits > SIGMA_MAX_BITS:
        raise UsageError(f"{name} must be at most {SIGMA_MAX_BITS}")


def _validate(cfg: SessionConfig) -> None:
    if cfg.protocol not in PROTOCOLS:
        raise UsageError(f"unknown protocol {cfg.protocol!r}")
    check_bits("sigma_bits", cfg.sigma_bits)
    check_bits("lambda_bits", cfg.lambda_bits)
    if cfg.s not in (0, 1):
        raise UsageError("choice bit s must be 0 or 1")
    if cfg.seed is not None and not 0 <= cfg.seed < 1 << 64:
        raise UsageError("seed must be an unsigned 64-bit integer")
    sigma = cfg.sigma_bits // 8
    if cfg.protocol.endswith("-mr"):
        if not cfg.db:
            raise UsageError("multi-receiver protocols need a message database")
        if cfg.v is None:
            raise UsageError("multi-receiver protocols need the index v")
        for m0, m1 in cfg.db:
            if len(m0) != sigma or len(m1) != sigma:
                raise UsageError("database entries must be exactly sigma bits")
        if not 0 <= cfg.v < len(cfg.db):
            raise UsageError(f"index v={cfg.v} outside the database")
    else:
        if cfg.m0 is None or cfg.m1 is None:
            raise UsageError("two-message protocols need m0 and m1")
        if len(cfg.m0) != sigma or len(cfg.m1) != sigma:
            raise UsageError("messages must be exactly sigma bits")
    # a tamper alters one message type, so it applies where that type is sent
    target = TAMPERS[cfg.tamper].msg_type if cfg.tamper in TAMPERS else None
    if cfg.tamper is not None and target not in GOLDEN_PHASES[cfg.protocol]:
        raise UsageError(f"tamper {cfg.tamper!r} not applicable to {cfg.protocol}")
    # sizes hold whether the protocol uses them or not; only supersonic may omit a group
    if cfg.group_bits not in PINNED_SAFE_PRIMES and (
            cfg.group_bits is not None or cfg.protocol != "supersonic"):
        raise UsageError(f"group_bits must be one of {sorted(PINNED_SAFE_PRIMES)}")
    # comp-np and duq-mr embed components in Paillier plaintexts
    embeds = cfg.protocol in ("comp-np", "duq-mr")
    bits = _paillier_bits(cfg) if embeds else cfg.paillier_bits
    if bits is not None and not 16 <= bits <= PAILLIER_MAX_BITS:
        raise UsageError(f"a {bits}-bit Paillier key is under 16 bits or over "
                         f"the maximum paillier_bits of {PAILLIER_MAX_BITS}")
    if embeds:
        p_bits = PINNED_SAFE_PRIMES[cfg.group_bits].bit_length()
        needed = (compressed_min_bits(p_bits, cfg.sigma_bits) if cfg.protocol == "comp-np"
                  else embedding_min_bits(p_bits, cfg.sigma_bits, cfg.lambda_bits))
        if bits <= needed:
            raise KeyTooSmall(f"a {bits}-bit Paillier key cannot embed the session's "
                              f"components, need over {needed} bits")


def _paillier_bits(cfg: SessionConfig) -> int:
    """The given size, else a multiple of 64, at least 256, over duq-mr's need
    by 65 to 128 bits: comp-np's too, lambda included, so that its
    transcripts stay byte-identical."""
    if cfg.paillier_bits is not None:
        return cfg.paillier_bits
    p_bits = PINNED_SAFE_PRIMES[cfg.group_bits].bit_length()
    return max(256, (embedding_min_bits(p_bits, cfg.sigma_bits, cfg.lambda_bits) // 64 + 2) * 64)


def run_session(config: SessionConfig) -> SessionTranscript:
    """Execute one protocol run and return its full transcript.

    Protocol errors (aborts, tag failures, undecodable messages) do not
    raise: the run stops there and records error:<Name> in outputs against
    the role that hit it.
    """
    _validate(config)
    rng = SystemSource() if config.seed is None else SeededSource(config.seed)
    t = SessionTranscript(protocol=config.protocol, seed=config.seed)
    if config.tamper is not None:
        tamper, P = TAMPERS[config.tamper], PINNED_SAFE_PRIMES[config.group_bits]
        t._tamper = (tamper.msg_type, lambda value: tamper.alter(value, P))
    try:
        t.outputs[Role.RECEIVER.name] = _RUNNERS[config.protocol](config, rng, t)
    except _Refusal as refusal:
        role, err = refusal.args[0], refusal.__cause__
        t.outputs[role.name] = f"error:{type(err).__name__}"
    return t


# ---------------------------------------------------------------- runners


def _run_np(cfg: SessionConfig, rng, t: SessionTranscript) -> bytes:
    """np-ot, and comp-np: np-ot as the response compiler's suite, with the
    receiver's Paillier key and selector and one compressed response."""
    comp, suite, msgs = cfg.protocol == "comp-np", np_suite(), (cfg.m0, cfg.m1)
    with _phase(t, "init", Role.RECEIVER):
        params = gen_group(cfg.group_bits, rng)
        if comp:
            pk_R, sk_R = kgen(_paillier_bits(cfg), rng)
    with _phase(t, "gen_query", Role.RECEIVER):
        if comp:
            query, secret, selector = comp_gen_query(suite, params, 2, cfg.s, sk_R, rng)
        else:
            query, secret = np_gen_query(params, cfg.s, rng)
        q_rx = _hop(t, Role.RECEIVER, Role.SENDER, MsgType.NP_QUERY, query)
        if comp:
            sel_rx = _hop(t, Role.RECEIVER, Role.SENDER, MsgType.SELECTOR_VEC, selector)
    with _phase(t, "gen_res", Role.SENDER):
        res = ((comp_gen_res(suite, msgs, params, q_rx, sel_rx, pk_R, rng), pk_R) if comp
               else np_gen_res(msgs, params, q_rx, rng))
        res_type = MsgType.COMPRESSED_RESPONSE if comp else MsgType.RESPONSE
        res_rx = _hop(t, Role.SENDER, Role.RECEIVER, res_type, res)
    with _phase(t, "retrieve", Role.RECEIVER):
        if comp:
            return comp_retrieve(suite, res_rx, sk_R, secret, params, cfg.sigma_bits)
        return np_retrieve(res_rx, secret, params, cfg.sigma_bits)


def _run_delegated(cfg: SessionConfig, rng, t: SessionTranscript) -> bytes:
    """dq-ot, duq-ot, dq-mr and duq-mr: request, partial and final query.

    issuer: an issuer holds s and deals its shares and the tag (duq), else
    the receiver deals them with its blinds (dq). multi: the sender answers
    every database pair and P1 filters out the one at v, in the clear (dq-mr)
    or under the receiver's Paillier key (duq-mr).
    """
    issuer = cfg.protocol.startswith("duq")
    multi = cfg.protocol.endswith("-mr")
    with _phase(t, "init", Role.RECEIVER):
        params = gen_group(cfg.group_bits, rng)
        if issuer and multi:
            pk_j, sk_j = duqmr_r_setup(_paillier_bits(cfg), rng)
    if issuer and multi:
        with _phase(t, "compress_vector", Role.ISSUER):
            w = duqmr_t_setup(len(cfg.db), cfg.v, pk_j, rng)
            w_rx = _hop(t, Role.ISSUER, Role.P1, MsgType.COMPRESS_VEC, w)
    with _phase(t, "request", Role.RECEIVER):
        # issuer variants send bare blinds: the shares come from the issuer
        req1, req2 = (duq_r_request(params, rng) if issuer
                      else dq_r_request(cfg.s, params, rng))
        codec = _UINT if issuer else None
        req1_rx = _hop(t, Role.RECEIVER, Role.P1, MsgType.REQ1, req1, codec)
        req2_rx = _hop(t, Role.RECEIVER, Role.P2, MsgType.REQ2, req2, codec)
    if issuer:
        with _phase(t, "issue", Role.ISSUER):
            bundle = duq_t_request(cfg.s, cfg.lambda_bits, rng)
            share1 = _hop(t, Role.ISSUER, Role.P1, MsgType.ISSUER_REQ1, bundle.share1)
            share2 = _hop(t, Role.ISSUER, Role.P2, MsgType.ISSUER_REQ2, bundle.share2)
            tag_at_s = _hop(t, Role.ISSUER, Role.SENDER, MsgType.SP_S, bundle.tag)
            share2_at_r, tag_at_r = _hop(t, Role.ISSUER, Role.RECEIVER, MsgType.SP_R,
                                         (bundle.share2, bundle.tag))
            req1_rx = DelegationRequest(share=share1, blind=req1_rx)
            req2_rx = DelegationRequest(share=share2, blind=req2_rx)
    with _phase(t, "partial_query", Role.P2):
        partial = dq_p2_gen_query(req2_rx, params)
        d_rx = _hop(t, Role.P2, Role.P1, MsgType.PARTIAL_Q, partial)
    with _phase(t, "final_query", Role.P1):
        final = dq_p1_gen_query(req1_rx, d_rx, params)
        b_rx = _hop(t, Role.P1, Role.SENDER, MsgType.FINAL_Q, final)
    with _phase(t, "gen_res", Role.SENDER):
        if multi:
            vec = (duqmr_s_gen_res_multi(cfg.db, params, b_rx, tag_at_s, rng) if issuer
                   else dqmr_s_gen_res_multi(cfg.db, params, b_rx, rng))
            vec_type = MsgType.TAGGED_RESPONSE_VEC if issuer else MsgType.RESPONSE_VEC
            vec_rx = _hop(t, Role.SENDER, Role.P1, vec_type, vec)
        else:
            res = (duq_s_gen_res(cfg.m0, cfg.m1, params, b_rx, tag_at_s, rng) if issuer
                   else dq_s_gen_res(cfg.m0, cfg.m1, params, b_rx, rng))
            res_rx = _hop(t, Role.SENDER, Role.RECEIVER, MsgType.RESPONSE, res)
    if multi:
        with _phase(t, "filter", Role.P1):
            res = (duqmr_p1_filter(vec_rx, w_rx, pk_j) if issuer
                   else dqmr_p1_filter(vec_rx, cfg.v))
            res_type = MsgType.FILTERED_RESPONSE if issuer else MsgType.RESPONSE
            res_rx = _hop(t, Role.P1, Role.RECEIVER, res_type, res)
    with _phase(t, "retrieve", Role.RECEIVER):
        if not issuer:
            return dq_r_retrieve(res_rx, req1, req2, cfg.s, params, cfg.sigma_bits)
        if multi:
            return duqmr_r_retrieve(res_rx, sk_j, req1, req2, share2_at_r, tag_at_r,
                                    cfg.sigma_bits, params)
        return duq_r_retrieve(res_rx, req1, req2, share2_at_r, tag_at_r, params)


def _run_supersonic(cfg: SessionConfig, rng, t: SessionTranscript) -> bytes:
    with _phase(t, "setup", Role.RECEIVER):
        keys = sup.sup_setup(cfg.sigma_bits, rng)
        keys_at_s = _hop(t, Role.RECEIVER, Role.SENDER, MsgType.PAD_KEYS, keys)
    with _phase(t, "gen_query", Role.RECEIVER):
        q1, q2 = sup.sup_gen_query(cfg.s, rng)
        q1_rx = _hop(t, Role.RECEIVER, Role.SENDER, MsgType.SUP_Q1, q1)
        q2_rx = _hop(t, Role.RECEIVER, Role.SERVER, MsgType.SUP_Q2, q2)
    with _phase(t, "gen_res", Role.SENDER):
        ep = sup.sup_gen_res(cfg.m0, cfg.m1, keys_at_s, q1_rx)
        ep_rx = _hop(t, Role.SENDER, Role.SERVER, MsgType.SUP_EPAIR, ep)
    with _phase(t, "obl_filter", Role.SERVER):
        res = sup.sup_obl_filter(ep_rx, q2_rx)
        res_rx = _hop(t, Role.SERVER, Role.RECEIVER, MsgType.SUP_RESULT, res)
    with _phase(t, "retrieve", Role.RECEIVER):
        return sup.sup_retrieve(res_rx, keys, cfg.s)


_RUNNERS = {
    "np-ot": _run_np,
    "dq-ot": _run_delegated,
    "duq-ot": _run_delegated,
    "dq-mr": _run_delegated,
    "duq-mr": _run_delegated,
    "comp-np": _run_np,
    "supersonic": _run_supersonic,
}
