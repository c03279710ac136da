"""Session engine: framing, golden phase orders, views, determinism."""

import ast
import dataclasses
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit import cli, duq_family, errors, harness, laws, supersonic
from otkit.base_ot import NpResponse
from otkit.errors import (
    DecodeError,
    KeyTooSmall,
    MalformedCiphertext,
    ProtocolError,
    TruncatedFrame,
    UnknownRole,
    UnknownTag,
    UsageError,
)
from otkit.groupmath import PINNED_SAFE_PRIMES, TOY_P
from otkit.ot_compiler import embed_component
from otkit.paillier import enc
from otkit.primitives import hash_G, hash_H
from otkit.rng import SeededSource
from otkit.supersonic import PadKeys
from otkit.harness import (
    GOLDEN_PHASES,
    PROTOCOLS,
    SIGMA_MAX_BITS,
    TAMPERS,
    Envelope,
    MsgType,
    Role,
    SessionConfig,
    decode_envelope,
    encode_envelope,
    export_transcript,
    project_view,
    run_session,
)
from otkit.wire import Reader, encode_bytes

DB4 = tuple((bytes([i]) * 8, bytes([16 + i]) * 8) for i in range(4))


def _longer_bodies(res):
    """A response pair whose two masked bodies are one byte longer each."""
    return NpResponse(*((head, body + b"\x00") for head, body in res))


def _longer_compressed_body(value):
    """A compressed response whose body decrypts to a 9-byte embedding,
    re-encrypted under the receiver's public key."""
    compressed, pk_R = value
    body = enc(pk_R, embed_component(b"\x5a" * 9, pk_R), SeededSource(1))
    return (compressed[0], body), pk_R


def _heads(head):
    """A response pair whose heads are head(h), for each honest head h."""
    return lambda res: NpResponse(*((head(h), body) for h, body in res))


def _compressed_head(head):
    """A compressed response whose head decrypts to head, re-encrypted under
    the receiver's public key."""

    def alter(value):
        compressed, pk_R = value
        ct = enc(pk_R, embed_component(head, pk_R), SeededSource(1))
        return (ct, *compressed[1:]), pk_R

    return alter


def _config(protocol, seed=11, s=1, z=4, **kw):
    cfg = SessionConfig(protocol=protocol, sigma_bits=64, group_bits=4, seed=seed, s=s)
    if protocol in ("dq-mr", "duq-mr"):
        cfg.db = tuple((bytes([i]) * 8, bytes([16 + i]) * 8) for i in range(z))
        cfg.v = 2 % z
    else:
        cfg.m0, cfg.m1 = b"\x0a" * 8, b"\xf5" * 8
    for key, val in kw.items():
        setattr(cfg, key, val)
    return cfg


def _run_argv(cfg, tmp_dir):
    """`otkit run` arguments for a _config session; a database goes to a
    file in tmp_dir."""
    argv = ["run", cfg.protocol, "--seed", str(cfg.seed), "--s", str(cfg.s),
            "--sigma", "64", "--lambda", str(cfg.lambda_bits)]
    if cfg.paillier_bits:
        argv += ["--paillier-bits", str(cfg.paillier_bits)]
    if cfg.db:
        db = tmp_dir / "db.txt"
        db.write_text("".join(f"{m0.hex()} {m1.hex()}\n" for m0, m1 in cfg.db))
        return argv + ["--db", str(db), "--v", str(cfg.v)]
    return argv + ["--m0", cfg.m0.hex(), "--m1", cfg.m1.hex()]


class TestEnvelopeCodec:
    @pytest.mark.parametrize("mtype", list(MsgType))
    def test_round_trip_every_tag(self, mtype):
        env = Envelope(src=Role.SENDER, dst=Role.RECEIVER, msg_type=mtype,
                       payload=b"\x01\x02")
        assert decode_envelope(encode_envelope(env)) == env

    @given(
        src=st.sampled_from(list(Role)),
        dst=st.sampled_from(list(Role)),
        mtype=st.sampled_from(list(MsgType)),
        payload=st.binary(min_size=0, max_size=200),
    )
    @settings(max_examples=300)
    def test_round_trip_fuzz(self, src, dst, mtype, payload):
        env = Envelope(src=src, dst=dst, msg_type=mtype, payload=payload)
        wire = encode_envelope(env)
        assert len(wire) == 7 + len(payload)
        assert decode_envelope(wire) == env

    def test_truncated_frames(self):
        env = Envelope(Role.P1, Role.P2, MsgType.PARTIAL_Q, b"\xaa" * 10)
        wire = encode_envelope(env)
        short = "frame shorter than its length field"
        for frame, message in (
            (wire[:0], short),
            (wire[:3], short),
            (wire[:6], "declared 13 bytes, frame carries 2"),
            (wire[:-1], "declared 13 bytes, frame carries 12"),
            (wire + b"\x00", "declared 13 bytes, frame carries 14"),
        ):
            with pytest.raises(TruncatedFrame) as err:
                decode_envelope(frame)
            assert str(err.value) == message

    # bytes on both sides of each table's range, so an off-by-one shows
    def test_unknown_role(self):
        wire = encode_envelope(Envelope(Role.P1, Role.P2, MsgType.REQ1, b""))
        for byte in (0x00, 0x07, 0xFF):
            for byte_at, message in ((4, f"role bytes {byte:#x}/0x4"),
                                     (5, f"role bytes 0x3/{byte:#x}")):
                bad = wire[:byte_at] + bytes((byte,)) + wire[byte_at + 1:]
                with pytest.raises(UnknownRole) as err:
                    decode_envelope(bad)
                assert str(err.value) == message

    def test_unknown_tag(self):
        wire = encode_envelope(Envelope(Role.P1, Role.P2, MsgType.REQ1, b""))
        for byte in (0x00, 0x16, 0xEE, 0xFF):
            bad = wire[:6] + bytes((byte,)) + wire[7:]
            with pytest.raises(UnknownTag) as err:
                decode_envelope(bad)
            assert str(err.value) == f"message type byte {byte:#x}"


class TestGoldenPhases:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_message_sequence(self, protocol):
        t = run_session(_config(protocol))
        assert tuple(e.msg_type for e in t.events) == GOLDEN_PHASES[protocol]

    def test_pad_protocol_is_five_envelopes(self):
        t = run_session(_config("supersonic"))
        assert len(t.events) == 5

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    @pytest.mark.parametrize("s", [0, 1])
    def test_receiver_output(self, protocol, s):
        # seeds picked to dodge the tiny group's known tag collisions
        cfg = _config(protocol, seed=20 + s, s=s)
        t = run_session(cfg)
        out = t.outputs[Role.RECEIVER.name]
        if protocol in ("dq-mr", "duq-mr"):
            assert out == cfg.db[cfg.v][s]
        else:
            assert out == (cfg.m0, cfg.m1)[s]

    def test_phase_timings_recorded(self):
        t = run_session(_config("dq-ot"))
        labels = [label for label, _ in t.phase_times]
        assert labels == [
            "init", "request", "partial_query", "final_query", "gen_res", "retrieve",
        ]
        assert all(dt >= 0 for _, dt in t.phase_times)


class TestOracleCalls:
    # the sender pads each slot of each pair once; the receiver unpads its
    # slot, or both slots where the tag picks the slot (duq)
    # z only sizes the multi-receiver database: 2z + 1 and 2z + 2 calls
    @pytest.mark.parametrize("protocol, z, h_calls, g_calls", [
        ("np-ot", 4, 3, 0),
        ("dq-ot", 4, 3, 0),
        ("comp-np", 4, 3, 0),
        ("dq-mr", 1, 3, 0),
        ("dq-mr", 4, 9, 0),
        ("duq-ot", 4, 0, 4),
        ("duq-mr", 1, 0, 4),
        ("duq-mr", 4, 0, 10),
        ("supersonic", 4, 0, 0),
    ])
    def test_oracle_calls_per_session(self, count_calls, protocol, z, h_calls, g_calls):
        counts = count_calls(hash_H, hash_G)
        t = run_session(_config(protocol, seed=5, z=z))
        assert isinstance(t.outputs[Role.RECEIVER.name], bytes)
        assert (counts["hash_H"], counts["hash_G"]) == (h_calls, g_calls)


class TestViewSeparation:
    def test_delegated_receiver_sees_no_query_pairs(self):
        t = run_session(_config("dq-ot"))
        seen = {e.msg_type for e in project_view(t, Role.RECEIVER)}
        assert MsgType.PARTIAL_Q not in seen and MsgType.FINAL_Q not in seen
        assert seen == {MsgType.REQ1, MsgType.REQ2, MsgType.RESPONSE}

    def test_helper_views_split_the_query(self):
        t = run_session(_config("dq-ot"))
        p2_seen = {e.msg_type for e in project_view(t, Role.P2)}
        assert p2_seen == {MsgType.REQ2, MsgType.PARTIAL_Q}
        sender_seen = {e.msg_type for e in project_view(t, Role.SENDER)}
        assert sender_seen == {MsgType.FINAL_Q, MsgType.RESPONSE}

    def test_issuer_variant_keeps_tag_from_helpers(self):
        t = run_session(_config("duq-ot"))
        for helper in (Role.P1, Role.P2):
            seen = {e.msg_type for e in project_view(t, helper)}
            assert MsgType.SP_S not in seen and MsgType.SP_R not in seen
        receiver_seen = {e.msg_type for e in project_view(t, Role.RECEIVER)}
        assert MsgType.SP_R in receiver_seen and MsgType.SP_S not in receiver_seen

    def test_multi_receiver_inbound_constant_in_db_size(self):
        lens = {}
        for z in (1, 4, 8):
            t = run_session(_config("dq-mr", z=z))
            inbound = [e for e in project_view(t, Role.RECEIVER)
                       if e.dst is Role.RECEIVER]
            assert [e.msg_type for e in inbound] == [MsgType.RESPONSE]
            lens[z] = len(inbound[0].payload)
        assert len(set(lens.values())) == 1

    def test_compressed_inbound_is_four_ciphertexts(self):
        for z in (1, 4, 8):
            t = run_session(_config("duq-mr", z=z))
            inbound = [e for e in project_view(t, Role.RECEIVER)
                       if e.dst is Role.RECEIVER]
            assert [e.msg_type for e in inbound] == [
                MsgType.SP_R, MsgType.FILTERED_RESPONSE,
            ]
            r = Reader(inbound[1].payload)
            for _ in range(4):
                r.read_uint()
            r.expect_end()


class TestDeterminism:
    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_same_seed_same_transcript(self, protocol):
        a = export_transcript(run_session(_config(protocol, seed=99)))
        b = export_transcript(run_session(_config(protocol, seed=99)))
        assert a == b

    def test_different_seeds_diverge(self):
        a = export_transcript(run_session(_config("dq-ot", seed=1)))
        b = export_transcript(run_session(_config("dq-ot", seed=2)))
        assert a != b

    def test_unseeded_run_records_no_seed(self, monkeypatch):
        def no_seeded_source(*args):
            raise AssertionError("an unseeded run built a SeededSource")

        monkeypatch.setattr(harness, "SeededSource", no_seeded_source)
        t = run_session(_config("dq-ot", seed=None))
        assert t.seed is None
        assert export_transcript(t).splitlines()[1] == "seed none"
        assert t.outputs[Role.RECEIVER.name] == b"\xf5" * 8

    def test_unseeded_runs_send_different_pads(self):
        def pads():
            t = run_session(_config("supersonic", seed=None))
            return next(e.payload for e in t.events if e.msg_type is MsgType.PAD_KEYS)

        assert pads() != pads()

    @pytest.mark.parametrize("protocol", PROTOCOLS)
    def test_recorded_payloads_are_bytes(self, protocol):
        # the export and outside parsers read payloads as bytes, not views
        t = run_session(_config(protocol))
        assert t.events and all(type(e.payload) is bytes for e in t.events)

    def test_recorded_events_are_dataclasses(self):
        # tools that rewrite a recorded event, such as the benchmark's size
        # checks, do so with dataclasses.replace
        t = run_session(_config("supersonic"))
        e = t.events[-1]
        grown = dataclasses.replace(e, payload=e.payload + b"\x00")
        assert (grown.src, grown.dst, grown.msg_type) == (e.src, e.dst, e.msg_type)
        assert grown.payload == e.payload + b"\x00" and grown != e

    def test_export_line_format(self):
        t = run_session(_config("np-ot", seed=5))
        lines = export_transcript(t).splitlines()
        assert lines[0] == "protocol np-ot" and lines[1] == "seed 5"
        assert lines[2].startswith("event 0 RECEIVER SENDER NP_QUERY ")
        assert lines[3].startswith("event 1 SENDER RECEIVER RESPONSE ")
        out = t.outputs[Role.RECEIVER.name]
        assert lines[4] == f"output RECEIVER {out.hex()}"


# the protocols whose receiver gets a plain response pair
HEADED = ("np-ot", "dq-ot", "dq-mr", "duq-ot")


class TestErrorPropagation:
    def test_query_tamper_stops_at_sender(self):
        t = run_session(_config("dq-ot", tamper="beta"))
        assert t.outputs[Role.SENDER.name] == "error:ConsistencyAbort"
        assert Role.RECEIVER.name not in t.outputs
        # the run stops before any response is framed
        assert t.events[-1].msg_type == MsgType.FINAL_Q

    def test_query_tamper_multi(self):
        t = run_session(_config("dq-mr", tamper="beta"))
        assert t.outputs[Role.SENDER.name] == "error:ConsistencyAbort"

    def test_tag_tamper_surfaces_at_receiver(self):
        # 512-bit group: the toy group can ambiguously double-match instead
        cfg = _config("duq-ot", tamper="tag", group_bits=512)
        t = run_session(cfg)
        assert t.outputs[Role.RECEIVER.name] == "error:NoTagMatch"

    @pytest.mark.parametrize("kind", list(TAMPERS))
    def test_tamper_trips_its_refusal(self, kind):
        assert laws.tamper_trips(kind, 55) == f"{TAMPERS[kind].refusal} triggered"

    # every (tamper, protocol) where the tamper's message type is sent
    @pytest.mark.parametrize("kind, protocol", [
        (kind, p) for kind, tamper in TAMPERS.items() for p in PROTOCOLS
        if tamper.msg_type in GOLDEN_PHASES[p]
    ])
    def test_tamper_alters_only_its_hop(self, kind, protocol):
        # up to the altered hop the runs match, and that hop carries the
        # honest value under the tamper's own transform
        honest = run_session(_config(protocol, seed=7)).events
        tampered = run_session(_config(protocol, seed=7, tamper=kind)).events
        tamper = TAMPERS[kind]
        at = [e.msg_type for e in honest].index(tamper.msg_type)
        assert tampered[:at] == honest[:at]
        encode, decode = harness._CODECS[tamper.msg_type]
        altered = tamper.alter(decode(honest[at].payload), PINNED_SAFE_PRIMES[4])
        assert tampered[at] == dataclasses.replace(honest[at], payload=encode(altered))
        assert tampered[at].payload != honest[at].payload

    def test_no_runner_reads_tamper(self):
        # _hop applies a session's tamper; no runner names one, as a name,
        # an attribute or a string
        def names(node):
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    yield sub.id
                elif isinstance(sub, ast.Attribute):
                    yield sub.attr
                elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    yield sub.value

        runners = {f.__name__ for f in harness._RUNNERS.values()}
        tree = ast.parse(Path(harness.__file__).read_text())
        found = [node for node in tree.body
                 if isinstance(node, ast.FunctionDef) and node.name in runners]
        assert {node.name for node in found} == runners
        for node in found:
            assert not [name for name in names(node) if "tamper" in name], node.name

    def test_every_traced_role_is_called_by_a_runner(self):
        # perfbench's tracer rebinds each ROLES name on harness, or else on
        # supersonic, so a runner must call each harness one as a bare global
        tree = ast.parse((Path(__file__).parent.parent / "perfbench" / "tracing.py").read_text())
        roles = next(ast.literal_eval(node.value) for node in tree.body
                     if isinstance(node, ast.Assign)
                     and getattr(node.targets[0], "id", None) == "ROLES")
        runners = {f.__name__ for f in harness._RUNNERS.values()}
        called = {
            sub.func.id
            for node in ast.parse(Path(harness.__file__).read_text()).body
            if isinstance(node, ast.FunctionDef) and node.name in runners
            for sub in ast.walk(node)
            if isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
        }
        missing = [name for names in roles.values() for name in names
                   if name not in called and not hasattr(supersonic, name)]
        assert not missing

    # an integer with a leading zero byte is a second encoding of it
    @pytest.mark.parametrize("protocol", ["np-ot", "comp-np"])
    def test_non_minimal_query_refused_by_sender(self, monkeypatch, protocol):
        encode, decode = harness._CODECS[MsgType.NP_QUERY]
        monkeypatch.setitem(harness._CODECS, MsgType.NP_QUERY, (
            lambda q: encode_bytes(b"\x00" + q.to_bytes((q.bit_length() + 7) // 8, "big")),
            decode,
        ))
        t = run_session(_config(protocol))
        assert t.outputs == {Role.SENDER.name: "error:DecodeError"}
        assert t.events[-1].msg_type == MsgType.NP_QUERY

    # 0 and P have no inverse mod P, so C / query cannot be formed
    @pytest.mark.parametrize("protocol", ["np-ot", "comp-np"])
    @pytest.mark.parametrize("query", [0, TOY_P])
    def test_out_of_range_query_refused_by_sender(self, monkeypatch, protocol, query):
        encode, decode = harness._CODECS[MsgType.NP_QUERY]
        monkeypatch.setitem(
            harness._CODECS, MsgType.NP_QUERY, (lambda q: encode(query), decode)
        )
        t = run_session(_config(protocol))
        assert t.outputs == {Role.SENDER.name: "error:ElementOutOfRange"}

    # one peer message whose length or count does not fit the receiving
    # role's own inputs: (protocol, message type, alteration, refusing role)
    @pytest.mark.parametrize("protocol, mtype, alter, role", [
        ("supersonic", MsgType.SUP_RESULT, lambda c: c + b"\x00", Role.RECEIVER),
        ("supersonic", MsgType.PAD_KEYS,
         lambda k: PadKeys(k.k0 + b"\x00", k.k1), Role.SENDER),
        ("supersonic", MsgType.PAD_KEYS,
         lambda k: PadKeys(k.k0 + b"\x00", k.k1 + b"\x00"), Role.SENDER),
        ("dq-mr", MsgType.RESPONSE_VEC, lambda vec: vec[:1], Role.P1),
        ("duq-mr", MsgType.TAGGED_RESPONSE_VEC, lambda vec: vec[:1], Role.P1),
        ("comp-np", MsgType.SELECTOR_VEC, lambda sel: sel[:1], Role.SENDER),
        ("np-ot", MsgType.RESPONSE, _longer_bodies, Role.RECEIVER),
        ("dq-ot", MsgType.RESPONSE, _longer_bodies, Role.RECEIVER),
        ("dq-mr", MsgType.RESPONSE, _longer_bodies, Role.RECEIVER),
        ("duq-mr", MsgType.TAGGED_RESPONSE_VEC,
         lambda vec: [vec[0]._replace(e0=(1 << 4096, vec[0].e0[1])), *vec[1:]], Role.P1),
        ("comp-np", MsgType.COMPRESSED_RESPONSE, _longer_compressed_body, Role.RECEIVER),
        ("comp-np", MsgType.COMPRESSED_RESPONSE, lambda v: (v[0][:1], v[1]), Role.RECEIVER),
        ("comp-np", MsgType.COMPRESSED_RESPONSE,
         lambda v: ((*v[0], v[0][0]), v[1]), Role.RECEIVER),
    ], ids=["result-longer", "k0-longer", "pads-longer", "one-pair", "one-tagged-pair",
            "one-selector-entry", "np-bodies-longer", "dq-bodies-longer",
            "dq-mr-bodies-longer", "head-over-modulus", "comp-np-body-longer",
            "comp-np-one-ciphertext", "comp-np-three-ciphertexts"])
    def test_wrong_shape_refused(
        self, monkeypatch, capsys, tmp_path, protocol, mtype, alter, role
    ):
        self._assert_refused(monkeypatch, capsys, tmp_path, protocol, mtype, alter,
                             role, "ShapeMismatch")

    # a selector entry outside [1, n^2), at the role that scales by it
    @pytest.mark.parametrize("protocol, mtype, role", [
        ("duq-mr", MsgType.COMPRESS_VEC, Role.P1),
        ("comp-np", MsgType.SELECTOR_VEC, Role.SENDER),
    ], ids=["compress-vec", "selector-vec"])
    @pytest.mark.parametrize("entry", [0, 1 << 4096], ids=["zero", "over-modulus"])
    def test_bad_selector_entry_refused(
        self, monkeypatch, capsys, tmp_path, protocol, mtype, role, entry
    ):
        self._assert_refused(monkeypatch, capsys, tmp_path, protocol, mtype,
                             lambda vec: (*vec[:-1], entry), role, "MalformedCiphertext")

    # a response ciphertext with n^2 added, at the key holder's dec; the
    # duq-mr receiver's key is read from the kgen call that made it
    @pytest.mark.parametrize("protocol, mtype", [
        ("duq-mr", MsgType.FILTERED_RESPONSE),
        ("comp-np", MsgType.COMPRESSED_RESPONSE),
    ], ids=["filtered-response", "compressed-response"])
    def test_response_over_modulus_refused(
        self, monkeypatch, capsys, tmp_path, protocol, mtype
    ):
        keys = []
        kgen = duq_family.kgen
        monkeypatch.setattr(duq_family, "kgen", lambda *a: keys.append(kgen(*a)) or keys[-1])
        alter = {
            "duq-mr": lambda f: (f[0] + keys[-1][0].n_squared, *f[1:]),
            "comp-np": lambda v: ((v[0][0] + v[1].n_squared, *v[0][1:]), v[1]),
        }[protocol]
        self._assert_refused(monkeypatch, capsys, tmp_path, protocol, mtype, alter,
                             Role.RECEIVER, "MalformedCiphertext")

    # a group element outside [1, P), refused by the role it reaches: a
    # partial query at P1, a final query at the sender, a response head at
    # the receiver; 0 has no inverse, and h + P would pass for h
    @pytest.mark.parametrize("protocol, mtype, alter, role", [
        ("dq-ot", MsgType.PARTIAL_Q, lambda d: d._replace(d0=0), Role.P1),
        ("dq-ot", MsgType.PARTIAL_Q, lambda d: d._replace(d0=d.d0 + TOY_P), Role.P1),
        ("dq-ot", MsgType.FINAL_Q, lambda b: b._replace(b0=0), Role.SENDER),
        ("dq-ot", MsgType.FINAL_Q, lambda b: b._replace(b0=b.b0 + TOY_P), Role.SENDER),
        ("duq-mr", MsgType.FINAL_Q, lambda b: b._replace(b1=b.b1 + TOY_P), Role.SENDER),
        *((protocol, MsgType.RESPONSE, _heads(head), Role.RECEIVER)
          for protocol in HEADED for head in (lambda h: 0, lambda h: h + TOY_P)),
        ("comp-np", MsgType.COMPRESSED_RESPONSE, _compressed_head(0), Role.RECEIVER),
        ("comp-np", MsgType.COMPRESSED_RESPONSE, _compressed_head(1 + TOY_P),
         Role.RECEIVER),
    ], ids=["partial-zero", "partial-plus-P", "final-zero", "final-plus-P",
            "duq-mr-final-plus-P",
            *(f"{protocol}-heads-{how}" for protocol in HEADED
              for how in ("zero", "plus-P")),
            "comp-np-head-zero", "comp-np-head-plus-P"])
    def test_element_out_of_range_refused(
        self, monkeypatch, capsys, tmp_path, protocol, mtype, alter, role
    ):
        self._assert_refused(monkeypatch, capsys, tmp_path, protocol, mtype, alter,
                             role, "ElementOutOfRange")

    @staticmethod
    def _assert_refused(monkeypatch, capsys, tmp_path, protocol, mtype, alter, role, error):
        """A session whose mtype payload is altered ends in error at role
        alone, and `otkit run` exits 3 naming both."""
        encode, decode = harness._CODECS[mtype]
        monkeypatch.setitem(
            harness._CODECS, mtype, (lambda value: encode(alter(value)), decode)
        )
        cfg = _config(protocol, seed=5)
        t = run_session(cfg)
        assert t.outputs == {role.name: f"error:{error}"}
        assert cli.main(_run_argv(cfg, tmp_path)) == 3
        assert f"protocol error: {error} ({role.name})" in capsys.readouterr().err

    def test_tamper_applicability_checked(self):
        with pytest.raises(UsageError):
            run_session(_config("np-ot", tamper="beta"))
        with pytest.raises(UsageError):
            run_session(_config("dq-ot", tamper="tag"))

    def test_retrieve_error_recorded_at_receiver(self, monkeypatch):
        def refuse(*args):
            raise MalformedCiphertext("injected")

        monkeypatch.setattr(harness, "comp_retrieve", refuse)
        t = run_session(_config("comp-np"))
        assert t.outputs == {Role.RECEIVER.name: "error:MalformedCiphertext"}

    def test_decode_error_recorded_at_destination(self, monkeypatch):
        encode, _ = harness._CODECS[MsgType.PARTIAL_Q]

        def refuse(payload):
            raise DecodeError("injected")

        monkeypatch.setitem(harness._CODECS, MsgType.PARTIAL_Q, (encode, refuse))
        t = run_session(_config("dq-ot"))
        assert t.outputs == {Role.P1.name: "error:DecodeError"}
        assert t.events[-1].msg_type == MsgType.PARTIAL_Q

    # a frame corrupted between the framer and the parser never reaches the
    # destination's decoder; the destination byte flip turns SENDER (1) into
    # ISSUER (5) and P1 (3) into 7, which names no role
    @pytest.mark.parametrize("protocol, role, corrupt, name", [
        ("supersonic", "SENDER", "flip-last-byte", "DecodeError"),
        ("supersonic", "SENDER", "flip-destination", "DecodeError"),
        ("supersonic", "SENDER", "insert-after-header", "TruncatedFrame"),
        ("supersonic", "SENDER", "drop-last", "TruncatedFrame"),
        ("dq-ot", "P1", "flip-last-byte", "DecodeError"),
        ("dq-ot", "P1", "flip-destination", "UnknownRole"),
        ("dq-ot", "P1", "insert-after-header", "TruncatedFrame"),
        ("dq-ot", "P1", "drop-last", "TruncatedFrame"),
    ])
    def test_corrupted_frame_refused(self, monkeypatch, protocol, role, corrupt, name):
        corruptions = {
            "flip-last-byte": lambda w: w[:-1] + bytes((w[-1] ^ 0xFF,)),
            "flip-destination": lambda w: w[:5] + bytes((w[5] ^ 0x04,)) + w[6:],
            "insert-after-header": lambda w: w[:7] + b"\x00" + w[7:],
            "drop-last": lambda w: w[:-1],
        }
        frame = harness.encode_envelope
        monkeypatch.setattr(
            harness, "encode_envelope", lambda e: corruptions[corrupt](frame(e))
        )
        t = run_session(_config(protocol))
        assert t.outputs == {role: f"error:{name}"}
        assert t.events == []

    @pytest.mark.parametrize("protocol", ["supersonic", "dq-ot"])
    def test_round_trip_compare_refuses_a_changed_envelope(self, monkeypatch, protocol):
        # a parser that reads back a well-formed envelope with another
        # destination: only the compare against the sent envelope catches it
        honest = run_session(_config(protocol))
        parse = harness.decode_envelope
        second = GOLDEN_PHASES[protocol][1]

        def misroute(buf):
            env = parse(buf)
            if env.msg_type is not second:
                return env
            return dataclasses.replace(
                env, dst=Role.ISSUER if env.dst is not Role.ISSUER else Role.SERVER)

        monkeypatch.setattr(harness, "decode_envelope", misroute)
        t = run_session(_config(protocol))
        assert t.outputs == {honest.events[1].dst.name: "error:DecodeError"}
        assert t.events == honest.events[:1]

    def test_non_bit_share_refused_by_helper(self, monkeypatch):
        _, decode = harness._CODECS[MsgType.ISSUER_REQ2]
        monkeypatch.setitem(
            harness._CODECS, MsgType.ISSUER_REQ2, (lambda b: b"\x02", decode)
        )
        t = run_session(_config("duq-ot"))
        assert t.outputs == {Role.P2.name: "error:DecodeError"}
        assert t.events[-1].msg_type == MsgType.ISSUER_REQ2


@pytest.fixture(scope="module")
def samples():
    """One payload per message type, off honest toy runs; REQ1/REQ2 from dq-ot."""
    out = {}
    for protocol in PROTOCOLS:
        for e in run_session(_config(protocol)).events:
            if protocol.startswith("duq") and e.msg_type in (MsgType.REQ1, MsgType.REQ2):
                continue
            out.setdefault(e.msg_type, e.payload)
    return out


@pytest.fixture(scope="module")
def comp_np_key():
    """The Paillier public key of the comp-np run that samples() records."""
    keys, original = [], harness.kgen

    def kgen(*args):
        keys.append(original(*args))
        return keys[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(harness, "kgen", kgen)
        run_session(_config("comp-np"))
    (pk_R, _), = keys
    return pk_R


SHARE_TYPES = (MsgType.REQ1, MsgType.REQ2, MsgType.ISSUER_REQ1, MsgType.ISSUER_REQ2,
               MsgType.SP_R, MsgType.SUP_Q1, MsgType.SUP_Q2)


def _modules_where(predicate) -> set[str]:
    """Names of the otkit modules with an AST node that satisfies predicate."""
    return {
        path.stem
        for path in Path(harness.__file__).parent.glob("*.py")
        if any(map(predicate, ast.walk(ast.parse(path.read_text()))))
    }


def _calls(*names):
    """AST predicate: a call of one of names, as a bare name or an attribute."""
    def predicate(node) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        return (func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)) in names

    return predicate


def _raises(name):
    """AST predicate: a raise of the exception class name."""
    def predicate(node) -> bool:
        if not isinstance(node, ast.Raise) or node.exc is None:
            return False
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return (exc.id if isinstance(exc, ast.Name) else getattr(exc, "attr", None)) == name

    return predicate


class TestCodecTable:
    def test_table_covers_every_type(self, samples):
        assert set(harness._CODECS) == set(MsgType) == set(samples)

    def test_only_the_engine_imports_the_wire_layer(self):
        # every payload format lives in the table, so no protocol module
        # needs encode_uint, encode_bytes or Reader
        def imports_wire(node) -> bool:
            if isinstance(node, ast.ImportFrom):
                names = {a.name for a in node.names}
                return node.module in ("wire", "otkit.wire") or (
                    node.module in (None, "otkit") and "wire" in names
                )
            return isinstance(node, ast.Import) and any(
                a.name == "otkit.wire" for a in node.names
            )

        assert _modules_where(imports_wire) == {"harness"}

    def test_only_the_base_ot_calls_the_oracles(self):
        # every pad comes from base_ot's mask, which takes the oracle as an
        # argument: the other modules pass hash_H or hash_G along
        assert _modules_where(_calls("hash_H", "hash_G")) <= {"base_ot"}

    def test_only_the_base_ot_calls_its_mask(self):
        # the dq and duq senders mask through base_ot.mask_messages, the one
        # loop over (message, power) pairs
        assert _modules_where(_calls("_mask")) == {"base_ot"}

    def test_only_paillier_and_the_laws_scale_or_add_ciphertexts(self):
        # every product of a selector entry and a plaintext is made inside
        # paillier.select; laws checks hscale and hadd directly
        assert _modules_where(_calls("hscale", "hadd")) == {"paillier", "laws"}

    def test_only_groupmath_raises_element_out_of_range(self):
        # groupmath.check_elements is the one home of the [1, P) rule
        assert _modules_where(_raises("ElementOutOfRange")) == {"groupmath"}

    def test_only_the_engine_raises_key_too_small(self):
        # harness._validate is the one home of the Paillier size rule
        assert _modules_where(_raises("KeyTooSmall")) == {"harness"}

    def test_full_width_ciphertext_keeps_its_zero_bytes(self, comp_np_key):
        # compressed ciphertexts travel at the width of n^2, not minimally
        encode, decode = harness._CODECS[MsgType.COMPRESSED_RESPONSE]
        cts = (1, 0xFF, comp_np_key.n_squared - 1)
        payload = encode((cts, comp_np_key))
        assert payload[8] == 0  # after the count and the first width prefix
        assert decode(payload) == cts

    @pytest.mark.parametrize("mtype", list(MsgType), ids=lambda m: m.name)
    def test_encode_inverts_decode(self, samples, comp_np_key, mtype):
        encode, decode = harness._CODECS[mtype]
        value = decode(samples[mtype])
        if mtype is MsgType.COMPRESSED_RESPONSE:
            # its encoder also takes the key, for the ciphertext width
            value = (value, comp_np_key)
        assert encode(value) == samples[mtype]

    @pytest.mark.parametrize("mtype", list(MsgType), ids=lambda m: m.name)
    def test_trailing_byte_rejected(self, samples, mtype):
        _, decode = harness._CODECS[mtype]
        with pytest.raises(DecodeError):
            decode(samples[mtype] + b"\x00")

    def test_bare_blind_trailing_byte_rejected(self):
        payload = run_session(_config("duq-ot")).events[0].payload
        _, decode = harness._UINT
        decode(payload)
        with pytest.raises(DecodeError):
            decode(payload + b"\x00")

    @pytest.mark.parametrize("mtype", SHARE_TYPES, ids=lambda m: m.name)
    def test_share_byte_must_be_a_bit(self, samples, mtype):
        _, decode = harness._CODECS[mtype]
        assert samples[mtype][0] in (0, 1)
        with pytest.raises(DecodeError):
            decode(b"\x02" + samples[mtype][1:])


class TestValidation:
    @pytest.mark.parametrize("seed", [-1, 1 << 64])
    def test_seed_range(self, seed):
        with pytest.raises(UsageError):
            run_session(_config("np-ot", seed=seed))

    def test_unknown_protocol(self):
        with pytest.raises(UsageError):
            run_session(SessionConfig(protocol="uq-ot", s=0, group_bits=4))

    def test_choice_bit_required(self):
        with pytest.raises(UsageError):
            run_session(_config("np-ot", s=None))
        with pytest.raises(UsageError):
            run_session(_config("np-ot", s=2))

    def test_sigma_width_enforced(self):
        cfg = _config("np-ot")
        cfg.sigma_bits = 12
        with pytest.raises(UsageError):
            run_session(cfg)
        cfg = _config("np-ot")
        cfg.m0 = b"\x00"
        with pytest.raises(UsageError):
            run_session(cfg)

    @pytest.mark.parametrize("field", ["sigma_bits", "lambda_bits"])
    def test_sizes_bounded(self, field):
        cfg = _config("supersonic", **{field: SIGMA_MAX_BITS + 8})
        with pytest.raises(UsageError, match=f"{field} must be at most"):
            run_session(cfg)
        width = SIGMA_MAX_BITS // 8 if field == "sigma_bits" else 8
        harness._validate(_config("supersonic", m0=bytes(width), m1=bytes(width),
                                  **{field: SIGMA_MAX_BITS}))

    def test_database_requirements(self):
        cfg = _config("dq-mr")
        cfg.db = None
        with pytest.raises(UsageError):
            run_session(cfg)
        for v in (9, None):
            cfg = _config("dq-mr", v=v)
            with pytest.raises(UsageError, match="index v"):
                run_session(cfg)
        cfg = _config("dq-mr")
        cfg.db = ((b"\x01", b"\x02"),)
        cfg.v = 0
        with pytest.raises(UsageError):
            run_session(cfg)
        # empty, and ragged: the engine is the one place a database is checked
        for db in ((), (cfg.db[0], (b"\x03" * 8, b"\x04" * 9))):
            cfg = _config("dq-mr", db=db, v=0)
            with pytest.raises(UsageError):
                run_session(cfg)

    def test_group_parameters_required(self):
        cfg = _config("dq-ot", group_bits=None)
        with pytest.raises(UsageError):
            run_session(cfg)
        run_session(_config("supersonic", group_bits=None))


def _sized(protocol, group_bits, sigma, lam, paillier_bits):
    """A _config session at these sizes, with sigma-bit messages."""
    cfg = _config(protocol, group_bits=group_bits, sigma_bits=sigma, lambda_bits=lam,
                  paillier_bits=paillier_bits)
    blank = bytes(sigma // 8)
    if cfg.db:
        cfg.db = ((blank, blank),) * len(cfg.db)
    else:
        cfg.m0 = cfg.m1 = blank
    return cfg


class TestKeySize:
    """comp-np and duq-mr refuse a Paillier key at or below their embedding
    need in harness._validate, before the session draws anything or makes a
    group or a key."""

    @pytest.fixture(autouse=True)
    def nothing_made(self, monkeypatch):
        def made(*args):
            raise AssertionError("a source, group or key was made before the size check")

        for name in ("SeededSource", "SystemSource", "gen_group", "kgen"):
            monkeypatch.setattr(harness, name, made)

    @pytest.mark.parametrize("lam", [64, 128])
    @pytest.mark.parametrize("sigma", [8, 64, 1024])
    @pytest.mark.parametrize("group_bits", [4, 512, 1024])
    @pytest.mark.parametrize("protocol", ["comp-np", "duq-mr"])
    def test_smallest_accepted_key(self, protocol, group_bits, sigma, lam):
        # the widest component (an element, or a mask; duq-mr's carries the tag)
        # plus one slack byte; comp-np's adds its two header bytes
        p_bits = PINNED_SAFE_PRIMES[group_bits].bit_length()
        smallest = (max(p_bits, sigma) + 25 if protocol == "comp-np"
                    else max(p_bits, sigma + lam) + 9)
        with pytest.raises(KeyTooSmall, match=f"need over {smallest - 1} bits"):
            run_session(_sized(protocol, group_bits, sigma, lam, smallest - 1))
        harness._validate(_sized(protocol, group_bits, sigma, lam, smallest))
        harness._validate(_sized(protocol, group_bits, sigma, lam, None))  # derived

    @pytest.mark.parametrize("protocol, paillier_bits, accepted", [
        pytest.param("duq-mr", 512, False, id="setup_rejects_small_key"),
        pytest.param("comp-np", 512, False, id="key_size_guard"),
        pytest.param("comp-np", 1024, True, id="key_size_guard_passes_when_wide"),
    ])
    def test_key_size_case(self, protocol, paillier_bits, accepted):
        # the 512-bit group's 513-bit elements need headroom past a 512-bit modulus
        cfg = _sized(protocol, 512, 64, 64, paillier_bits)
        if accepted:
            harness._validate(cfg)
        else:
            with pytest.raises(KeyTooSmall):
                run_session(cfg)


PROTOCOL_ERRORS = {
    f"error:{name}"
    for name, cls in vars(errors).items()
    if isinstance(cls, type) and issubclass(cls, ProtocolError)
}
# every (protocol, message type) a session sends
SENT = [(p, m) for p in PROTOCOLS for m in dict.fromkeys(GOLDEN_PHASES[p])]


def _mutate(payload: bytes, kind: str, at: int, byte: int) -> bytes:
    """payload with the byte at position at (mod its length) xored with byte,
    cut off there, preceded by byte, or replaced by byte."""
    i = at % (len(payload) + (kind == "insert"))
    if kind == "flip":
        return payload[:i] + bytes((payload[i] ^ byte,)) + payload[i + 1:]
    if kind == "truncate":
        return payload[:i]
    return payload[:i] + bytes((byte,)) + payload[i + (kind == "replace"):]


class TestHostileInput:
    """One mutated payload type per session, altered through the codec
    table alone: no run raises, and each ends in the receiver's bytes or in
    a named ProtocolError; with the same mutation `otkit run` exits 0 or 3
    to match. About 500 toy sessions, with 16-bit tags and 128-bit Paillier
    keys so that key generation does not dominate."""

    @pytest.mark.parametrize("protocol, mtype", SENT,
                             ids=[f"{p}-{m.name}" for p, m in SENT])
    @pytest.mark.parametrize("kind", ["flip", "truncate", "insert", "replace"])
    @given(at=st.integers(0, 1 << 16), byte=st.integers(1, 255),
           seed=st.integers(0, 1 << 16), s=st.integers(0, 1), via_cli=st.booleans())
    @settings(max_examples=3, deadline=None)
    def test_mutated_payload(self, tmp_path_factory, protocol, mtype, kind, at, byte,
                             seed, s, via_cli):
        sent = []  # the bare blinds encoded in this session
        with pytest.MonkeyPatch.context() as mp:
            if protocol.startswith("duq") and mtype in (MsgType.REQ1, MsgType.REQ2):
                # the issuer variants send both bare blinds through _UINT,
                # REQ1's first: mutate only the one of the hop named
                encode, decode = harness._UINT
                hop = 1 if mtype == MsgType.REQ1 else 2

                def encode_blind(v):
                    sent.append(v)
                    payload = encode(v)
                    return _mutate(payload, kind, at, byte) if len(sent) == hop else payload

                mp.setattr(harness, "_UINT", (encode_blind, decode))
            else:
                encode, decode = harness._CODECS[mtype]
                mp.setitem(harness._CODECS, mtype,
                           (lambda v: _mutate(encode(v), kind, at, byte), decode))
            cfg = _config(protocol, seed=seed, s=s, lambda_bits=16, paillier_bits=128)
            outputs = run_session(cfg).outputs.values()
            refused = [out for out in outputs if not isinstance(out, bytes)]
            assert set(refused) <= PROTOCOL_ERRORS
            if via_cli:
                sent.clear()
                argv = _run_argv(cfg, tmp_path_factory.mktemp("db"))
                assert cli.main(argv) == (3 if refused else 0)
