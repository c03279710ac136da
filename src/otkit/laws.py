"""The protocol laws, one function each, for `otkit verify` and the
acceptance suite (tests/test_acceptance.py) to call with their own counts.

A law takes its groups or keys, its counts and a seed, and returns the
number of runs it checked; unless it says otherwise, its run k draws from
SeededSource(seed + k). At the first failing run it raises LawViolation with
the reason, through an explicit `if ...: raise`, so it holds under `python -O`.
"""

import dataclasses
import itertools

from .base_ot import np_suite
from .dq_family import (
    DelegationRequest,
    FinalQueryPair,
    dq_p1_gen_query,
    dq_p2_gen_query,
    dq_r_retrieve,
    dq_s_gen_res,
    dqmr_p1_filter,
    dqmr_s_gen_res_multi,
    retrieval_exponent,
)
from .duq_family import (
    duq_r_request,
    duq_r_retrieve,
    duq_s_gen_res,
    duq_t_request,
    duqmr_p1_filter,
    duqmr_r_retrieve,
    duqmr_s_gen_res_multi,
    duqmr_t_setup,
)
from .errors import ConsistencyAbort, LawViolation, NoTagMatch, TruncatedFrame
from .groupmath import elem_mul, modexp, rand_scalar
from .harness import (
    _CODECS,
    GOLDEN_PHASES,
    PROTOCOLS,
    TAMPERS,
    Envelope,
    MsgType,
    Role,
    SessionConfig,
    decode_envelope,
    encode_envelope,
    export_transcript,
    run_session,
)
from .ot_compiler import comp_gen_query, comp_gen_res, comp_retrieve
from .paillier import dec, enc, hadd, hscale, one_hot, select
from .rng import SeededSource
from .supersonic import sup_gen_res, sup_obl_filter, sup_retrieve, sup_setup

CELLS = tuple(itertools.product((0, 1), repeat=2))


def _query(params, s1, r1, s2, r2):
    """The helpers' requests, P2's partial query pair and P1's final pair."""
    req1 = DelegationRequest(share=s1, blind=r1)
    req2 = DelegationRequest(share=s2, blind=r2)
    partial = dq_p2_gen_query(req2, params)
    return req1, req2, partial, dq_p1_gen_query(req1, partial, params)


def _session_config(protocol: str, seed: int, z: int = 4, **fields) -> SessionConfig:
    """A toy-group session with 64-bit messages and s = 1; multi-receiver
    protocols get a z-record database and v = 2 % z. fields override."""
    cfg = SessionConfig(protocol=protocol, sigma_bits=64, group_bits=4, seed=seed, s=1)
    if protocol.endswith("-mr"):
        cfg.db = tuple((bytes([i]) * 8, bytes([64 + i]) * 8) for i in range(z))
        cfg.v = 2 % z
    else:
        cfg.m0, cfg.m1 = b"\x0a" * 8, b"\xf5" * 8
    return dataclasses.replace(cfg, **fields)


def closed_forms(groups, seed: int) -> int:
    """delta and beta follow their closed forms as powers of g, b0 * b1 = C
    and g^x = beta_{s1 xor s2}, in all four share cells. groups holds
    (group, n) pairs; run i of a group draws a dlog a, sets C = g^a in a
    copy of the group, and checks every cell with one draw of r1 and r2."""
    for group, n in groups:
        pow_g = lambda exps: tuple(modexp(group.g, e, group) for e in exps)
        for i in range(n):
            rng = SeededSource(seed + i)
            a = 1 + rng.randbelow(group.q - 1)
            params = dataclasses.replace(group, C=modexp(group.g, a, group))
            r1, r2 = rand_scalar(params, rng), rand_scalar(params, rng)
            for s1, s2 in CELLS:
                _, _, partial, final = _query(params, s1, r1, s2, r2)
                d = (r2, a - r2) if s2 == 0 else (a - r2, r2)
                b = (d[0] + r1, d[1] - r1) if s1 == 0 else (d[1] - r1, d[0] + r1)
                if partial != pow_g(d):
                    raise LawViolation(f"delta off its closed form, cell ({s1},{s2})")
                if final != pow_g(b):
                    raise LawViolation(f"beta off its closed form, cell ({s1},{s2})")
                if elem_mul(final.b0, final.b1, params) != params.C:
                    raise LawViolation(f"b0 * b1 != C in cell ({s1},{s2})")
                x = retrieval_exponent(r1, r2, s2, params)
                if modexp(params.g, x, params) != final[s1 ^ s2]:
                    raise LawViolation(f"g^x misses beta_s in cell ({s1},{s2})")
    return 4 * sum(n for _, n in groups)


def delegated_cells(groups, seed: int) -> int:
    """A delegated transfer returns m_{s1 xor s2} in every share cell:
    n runs per cell for each (params, n) in groups, counted across groups."""
    runs = [(p, s1, s2) for p, n in groups for s1, s2 in CELLS for _ in range(n)]
    for k, (params, s1, s2) in enumerate(runs):
        rng = SeededSource(seed + k)
        m0, m1 = rng.randbytes(16), rng.randbytes(16)
        req1, req2, _, final = _query(
            params, s1, rand_scalar(params, rng), s2, rand_scalar(params, rng)
        )
        res = dq_s_gen_res(m0, m1, params, final, rng)
        s = s1 ^ s2
        if dq_r_retrieve(res, req1, req2, s, params, 128) != (m0, m1)[s]:
            raise LawViolation(f"cell ({s1},{s2}) returned the wrong message")
    return len(runs)


def pad_swap_cells(n: int, seed: int) -> int:
    """The pad-swap transfer returns m_{q1 xor q2}: n runs per share cell,
    all drawn from one SeededSource(seed)."""
    rng = SeededSource(seed)
    for q1, q2 in CELLS:
        s = q1 ^ q2
        for _ in range(n):
            m0, m1 = rng.randbytes(16), rng.randbytes(16)
            keys = sup_setup(128, rng)
            head = sup_obl_filter(sup_gen_res(m0, m1, keys, q1), q2)
            if sup_retrieve(head, keys, s) != (m0, m1)[s]:
                raise LawViolation(f"cell ({q1},{q2}) returned the wrong message")
    return 4 * n


def tag_selection(params, honest: int, flipped: int, seed: int) -> tuple[int, int]:
    """The receiver finds the one candidate carrying the tag, and refuses
    with NoTagMatch when the sender got the tag with one bit flipped. Run i
    has s = i & 1; flipped runs follow honest ones. Not for the toy group,
    where a second candidate carries the tag with probability 1/11."""
    for i in range(honest + flipped):
        rng = SeededSource(seed + i)
        m0, m1 = rng.randbytes(16), rng.randbytes(16)
        bundle = duq_t_request(i & 1, 128, rng)
        r1, r2 = duq_r_request(params, rng)
        *_, final = _query(params, bundle.share1, r1, bundle.share2, r2)
        tag = bundle.tag if i < honest else TAMPERS["tag"].alter(bundle.tag, params.P)
        res = duq_s_gen_res(m0, m1, params, final, tag, rng)
        try:
            got = duq_r_retrieve(res, r1, r2, bundle.share2, bundle.tag, params)
        except NoTagMatch:
            if i < honest:
                raise LawViolation(f"honest run {i} was refused: no tag matched")
            continue
        if i >= honest:
            raise LawViolation(f"flipped tag of run {i} was not refused")
        if got != (m0, m1)[i & 1]:
            raise LawViolation(f"honest run {i} returned the wrong message")
    return honest, flipped


def multi_receiver(small, big, key, z: int, per_choice: int, seed: int) -> int:
    """P1's filter hands the receiver exactly m_{s,v}, in the clear (dq-mr,
    on the group small) and under the Paillier key pair key (duq-mr, on
    the group big, whose P the modulus must exceed): per_choice runs for
    every (s, v) of a z-record database (z <= 128), run i with s2 = i & 1.
    Then toy dq-mr and 512-bit duq-mr sessions with z in (1, 4, 8) must
    deliver it in one RESPONSE (a pair) or FILTERED_RESPONSE (four
    ciphertexts), decoded to the last byte."""
    pk_j, sk_j = key
    db = tuple((bytes([t]) * 8, bytes([128 + t]) * 8) for t in range(z))
    runs = list(itertools.product((0, 1), range(z), range(per_choice)))
    for k, (s, v, i) in enumerate(runs):
        rng = SeededSource(seed + k)
        req1, req2, _, final = _query(
            small, s ^ (i & 1), rand_scalar(small, rng), i & 1, rand_scalar(small, rng)
        )
        picked = dqmr_p1_filter(dqmr_s_gen_res_multi(db, small, final, rng), v)
        bundle = duq_t_request(s, 64, rng)
        r1, r2 = duq_r_request(big, rng)
        *_, final = _query(big, bundle.share1, r1, bundle.share2, r2)
        responses = duqmr_s_gen_res_multi(db, big, final, bundle.tag, rng)
        filtered = duqmr_p1_filter(responses, duqmr_t_setup(z, v, pk_j, rng), pk_j)
        got = dq_r_retrieve(picked, req1, req2, s, small, 64), duqmr_r_retrieve(
            filtered, sk_j, r1, r2, bundle.share2, bundle.tag, 64, big
        )
        if got != (db[v][s],) * 2:
            raise LawViolation(f"s={s} v={v}: dq-mr and duq-mr returned {got}")
    for size in (1, 4, 8):
        dq = _session_config("dq-mr", seed, z=size)
        duq = _session_config("duq-mr", seed, z=size, group_bits=512)
        for cfg, inbound in ((dq, "RESPONSE"), (duq, "SP_R FILTERED_RESPONSE")):
            t = run_session(cfg)
            seen = " ".join(e.msg_type.name for e in t.events if e.dst is Role.RECEIVER)
            got = t.outputs.get(Role.RECEIVER.name)
            if seen != inbound or got != cfg.db[cfg.v][1]:
                raise LawViolation(f"{cfg.protocol} z={size}: got {seen}, {got}")
    return len(runs)


def compiler_equivalence(params, key, trials: int, seed: int) -> tuple[int, int]:
    """A compiled np-ot run agrees with the plain one seed for seed (query,
    receiver secret, msgs[s]), and the response size does not depend on the
    message count n in (2, 4, 8). key is the receiver's Paillier key pair.
    Both transfers of run k draw from SeededSource(seed + 1 + k), messages
    from SeededSource(seed). Returns the run count and the response size.
    """
    pk, sk = key
    suite = np_suite()
    rng = SeededSource(seed)
    for k in range(2 * trials):
        s = k & 1
        msgs = [rng.randbytes(16), rng.randbytes(16)]
        plain_rng, comp_rng = SeededSource(seed + 1 + k), SeededSource(seed + 1 + k)
        q_p, sec_p = suite.gen_query(params, s, plain_rng, 2)
        res = suite.gen_res(msgs, params, q_p, plain_rng)
        plain = suite.retrieve(res[s], sec_p, params, 128)
        q_c, sec_c, selector = comp_gen_query(suite, params, 2, s, sk, comp_rng)
        compressed = comp_gen_res(suite, msgs, params, q_c, selector, pk, comp_rng)
        compiled = comp_retrieve(suite, compressed, sk, sec_c, params, 128)
        if (q_c, sec_c) != (q_p, sec_p):
            raise LawViolation(f"compiled query diverged in run {k}")
        if not compiled == plain == msgs[s]:
            raise LawViolation(f"compiled and plain runs disagree in run {k}")
    sizes = set()
    encode, _ = _CODECS[MsgType.COMPRESSED_RESPONSE]
    for n in (2, 4, 8):
        msgs = [rng.randbytes(16) for _ in range(n)]
        q, _, selector = comp_gen_query(suite, params, n, n - 1, sk, rng)
        compressed = comp_gen_res(suite, msgs, params, q, selector, pk, rng)
        sizes.add(len(encode((compressed, pk))))
    if len(sizes) != 1:
        raise LawViolation(f"response size varies with n: {sorted(sizes)}")
    return 2 * trials, sizes.pop()


def one_out_of_n(params, sizes, seed: int) -> int:
    """In np-ot's suite at each n in sizes and every choice s, the receiver's
    secret opens element s alone. Not for the toy group, where two of the
    C_i coincide with probability about 1/11."""
    suite = np_suite()
    for k, (n, s) in enumerate((n, s) for n in sizes for s in range(n)):
        rng = SeededSource(seed + k)
        msgs = [rng.randbytes(16) for _ in range(n)]
        query, secret = suite.gen_query(params, s, rng, n)
        res = suite.gen_res(msgs, params, query, rng)
        opened = [i for i, element in enumerate(res)
                  if suite.retrieve(element, secret, params, 128) == msgs[i]]
        if opened != [s]:
            raise LawViolation(f"n={n} s={s}: the receiver's secret opened {opened}")
    return sum(sizes)


def homomorphic_laws(key, triples: int, seed: int) -> int:
    """Dec(c1 + c2) = m1 + m2 and Dec(k * c1) = k * m1 mod n, and one-hot
    selectors pick exactly the hot value for z in (1, 4, 16); all drawn
    from one SeededSource(seed)."""
    pk, sk = key
    rng = SeededSource(seed)
    for i in range(triples):
        m1, m2 = rng.randbelow(pk.n), rng.randbelow(pk.n)
        k = rng.randbelow(1 << 128)
        c1, c2 = enc(sk, m1, rng), enc(sk, m2, rng)
        if dec(sk, hadd(pk, c1, c2)) != (m1 + m2) % pk.n:
            raise LawViolation(f"Dec(c1 + c2) != m1 + m2 for triple {i}")
        if dec(sk, hscale(pk, c1, k)) != (m1 * k) % pk.n:
            raise LawViolation(f"Dec(k * c1) != k * m1 for triple {i}")
    for z in (1, 4, 16):
        rows = [[rng.randbelow(1 << 64)] for _ in range(z)]
        for v in range(z):
            (picked,) = select(pk, one_hot(sk, z, v, rng), rows)
            if dec(sk, picked) != rows[v][0]:
                raise LawViolation(f"selector {v} of {z} picked the wrong value")
    return triples


def tamper_aborts(params, trials: int, seed: int) -> int:
    """Every sender refuses, with ConsistencyAbort, a final query pair with
    one element multiplied by a power of g. Run i goes to sender i % 4 (dq,
    duq, dq-mr, duq-mr) and tampers b0 when (i >> 2) & 1, else b1."""
    m0, m1, tag = b"\x01" * 8, b"\x02" * 8, b"\xaa" * 8
    db = ((m0, m1),)
    senders = (
        lambda q, rng: dq_s_gen_res(m0, m1, params, q, rng),
        lambda q, rng: duq_s_gen_res(m0, m1, params, q, tag, rng),
        lambda q, rng: dqmr_s_gen_res_multi(db, params, q, rng),
        lambda q, rng: duqmr_s_gen_res_multi(db, params, q, tag, rng),
    )
    for i in range(trials):
        rng = SeededSource(seed + i)
        s1, s2 = rng.randbit(), rng.randbit()
        r1, r2 = rand_scalar(params, rng), rand_scalar(params, rng)
        *_, final = _query(params, s1, r1, s2, r2)
        factor = modexp(params.g, 1 + rng.randbelow(params.q - 1), params)
        if (i >> 2) & 1:
            bad = FinalQueryPair(b0=elem_mul(final.b0, factor, params), b1=final.b1)
        else:
            bad = FinalQueryPair(b0=final.b0, b1=elem_mul(final.b1, factor, params))
        try:
            senders[i % 4](bad, rng)
        except ConsistencyAbort:
            continue
        raise LawViolation(f"sender {i % 4} answered the tampered query of run {i}")
    return trials


def session_determinism(seed: int) -> int:
    """Every protocol's session reruns byte for byte, sends its messages in
    the GOLDEN_PHASES order, and ends without an error."""
    for protocol in PROTOCOLS:
        first = export_transcript(run_session(_session_config(protocol, seed)))
        if export_transcript(run_session(_session_config(protocol, seed))) != first:
            raise LawViolation(f"{protocol} transcripts diverged on a rerun")
        if "error:" in first:
            raise LawViolation(f"{protocol} session ended in an error")
        seen = [ln.split()[4] for ln in first.splitlines() if ln.startswith("event ")]
        if seen != [m.name for m in GOLDEN_PHASES[protocol]]:
            raise LawViolation(f"{protocol} message order off: {' '.join(seen)}")
    return len(PROTOCOLS)


def envelope_roundtrip(rounds: int, seed: int) -> int:
    """Random envelopes decode back to themselves, and the same frame cut
    short by 1 to 3 bytes raises TruncatedFrame. One SeededSource(seed)."""
    rng = SeededSource(seed)
    pick = lambda options: options[rng.randbelow(len(options))]
    roles, types = list(Role), list(MsgType)
    for i in range(rounds):
        payload = rng.randbytes(rng.randbelow(64))
        env = Envelope(pick(roles), pick(roles), pick(types), payload)
        wire = encode_envelope(env)
        if decode_envelope(wire) != env:
            raise LawViolation(f"envelope {i} did not survive a round trip")
        try:
            decode_envelope(wire[: len(wire) - 1 - rng.randbelow(3)])
        except TruncatedFrame:
            continue
        raise LawViolation(f"truncated frame of envelope {i} decoded")
    return rounds


def tamper_trips(kind: str, seed: int) -> str:
    """A session of the first protocol that sends the message type the hook
    kind alters ends in the refusal, at the role, that TAMPERS[kind] names."""
    tamper = TAMPERS[kind]
    protocol = next(p for p, phases in GOLDEN_PHASES.items() if tamper.msg_type in phases)
    role, error = tamper.role.name, tamper.refusal
    t = run_session(_session_config(protocol, seed, tamper=kind))
    if t.outputs.get(role) != f"error:{error}":
        raise LawViolation(f"tamper {kind} did not trigger {error} at the {role}")
    return f"{error} triggered"
