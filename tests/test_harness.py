"""Session engine: framing, golden phase orders, views, determinism."""

import ast
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from otkit import cli, harness, laws
from otkit.base_ot import NpResponse
from otkit.errors import (
    DecodeError,
    MalformedCiphertext,
    TruncatedFrame,
    UnknownRole,
    UnknownTag,
    UsageError,
)
from otkit.groupmath import TOY_P
from otkit.primitives import hash_G, hash_H
from otkit.supersonic import PadKeys
from otkit.harness import (
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
    project_view,
    run_session,
)
from otkit.wire import Reader

DB4 = tuple((bytes([i]) * 8, bytes([16 + i]) * 8) for i in range(4))


def _longer_bodies(res):
    """A response pair whose two masked bodies are one byte longer each."""
    return NpResponse(*((head, body + b"\x00") for head, body in res))


def _config(protocol, seed=11, s=1, z=4, **kw):
    cfg = SessionConfig(protocol=protocol, sigma_bits=64, toy=True, seed=seed, s=s)
    if protocol in ("dq-mr", "duq-mr"):
        cfg.db = tuple((bytes([i]) * 8, bytes([16 + i]) * 8) for i in range(z))
        cfg.v = 2 % z
    else:
        cfg.m0, cfg.m1 = b"\x0a" * 8, b"\xf5" * 8
    for key, val in kw.items():
        setattr(cfg, key, val)
    return cfg


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

    def test_export_line_format(self):
        t = run_session(_config("np-ot", seed=5))
        lines = export_transcript(t).splitlines()
        assert lines[0] == "protocol np-ot" and lines[1] == "seed 5"
        assert lines[2].startswith("event 0 RECEIVER SENDER NP_QUERY ")
        assert lines[3].startswith("event 1 SENDER RECEIVER RESPONSE ")
        out = t.outputs[Role.RECEIVER.name]
        assert lines[4] == f"output RECEIVER {out.hex()}"


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
        cfg = _config("duq-ot", tamper="tag", toy=False, group_bits=512)
        t = run_session(cfg)
        assert t.outputs[Role.RECEIVER.name] == "error:NoTagMatch"

    @pytest.mark.parametrize("kind", list(TAMPERS))
    def test_tamper_trips_its_refusal(self, kind):
        assert laws.tamper_trips(kind, 55) == f"{TAMPERS[kind][2]} triggered"

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
    ], ids=["result-longer", "k0-longer", "pads-longer", "one-pair", "one-tagged-pair",
            "one-selector-entry", "np-bodies-longer", "dq-bodies-longer",
            "dq-mr-bodies-longer", "head-over-modulus"])
    def test_wrong_shape_refused(
        self, monkeypatch, capsys, tmp_path, protocol, mtype, alter, role
    ):
        encode, decode = harness._CODECS[mtype]
        monkeypatch.setitem(
            harness._CODECS, mtype, (lambda value: encode(alter(value)), decode)
        )
        cfg = _config(protocol, seed=5)
        t = run_session(cfg)
        assert t.outputs == {role.name: "error:ShapeMismatch"}
        argv = ["run", protocol, "--seed", "5", "--s", "1", "--sigma", "64"]
        if cfg.db:
            db = tmp_path / "db.txt"
            db.write_text("".join(f"{m0.hex()} {m1.hex()}\n" for m0, m1 in cfg.db))
            argv += ["--db", str(db), "--v", str(cfg.v)]
        else:
            argv += ["--m0", cfg.m0.hex(), "--m1", cfg.m1.hex()]
        assert cli.main(argv) == 3
        assert f"protocol error: ShapeMismatch ({role.name})" in capsys.readouterr().err

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

        importers = {
            path.stem
            for path in Path(harness.__file__).parent.glob("*.py")
            if any(map(imports_wire, ast.walk(ast.parse(path.read_text()))))
        }
        assert importers == {"harness"}

    def test_only_the_base_ot_calls_the_oracles(self):
        # every pad comes from base_ot's mask, which takes the oracle as an
        # argument: the other modules pass hash_H or hash_G along
        def calls_oracle(node) -> bool:
            if not isinstance(node, ast.Call):
                return False
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            return name in ("hash_H", "hash_G")

        callers = {
            path.stem
            for path in Path(harness.__file__).parent.glob("*.py")
            if any(map(calls_oracle, ast.walk(ast.parse(path.read_text()))))
        }
        assert callers <= {"base_ot"}

    def test_only_paillier_and_the_laws_scale_or_add_ciphertexts(self):
        # every product of a selector entry and a plaintext is made inside
        # paillier.select; laws checks hscale and hadd directly
        def calls_hom(node) -> bool:
            if not isinstance(node, ast.Call):
                return False
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            return name in ("hscale", "hadd")

        callers = {
            path.stem
            for path in Path(harness.__file__).parent.glob("*.py")
            if any(map(calls_hom, ast.walk(ast.parse(path.read_text()))))
        }
        assert callers == {"paillier", "laws"}

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
            run_session(SessionConfig(protocol="uq-ot", s=0, toy=True))

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

    def test_database_requirements(self):
        cfg = _config("dq-mr")
        cfg.db = None
        with pytest.raises(UsageError):
            run_session(cfg)
        cfg = _config("dq-mr")
        cfg.v = 9
        with pytest.raises(UsageError):
            run_session(cfg)
        cfg = _config("dq-mr")
        cfg.db = ((b"\x01", b"\x02"),)
        cfg.v = 0
        with pytest.raises(UsageError):
            run_session(cfg)

    def test_group_parameters_required(self):
        cfg = _config("dq-ot", toy=False)
        with pytest.raises(UsageError):
            run_session(cfg)
        run_session(_config("supersonic", toy=False))
