"""Event log: append, verification, serialization."""

import copy
import json
import pickle

import pytest

from gpi.keys import _SCHEMES, MockScheme, PublicIdentifier, UnknownScheme, generate_keypair
from gpi.ledger import (
    _Reader,
    CommunityAdd,
    CommunityRemove,
    Declare,
    EncodingError,
    Ledger,
    ParseError,
    Pledge,
    Reset,
    ResetEndorsement,
    SignedEvent,
    SignerMismatch,
    Update,
    VerifyError,
    append_event,
    encode_body,
    parse_log,
    read_log,
    serialize_log,
    verify_event,
    write_log,
)
from gpi.sim import SimConfig, run_agent_sim

from helpers import Scenario, noncanonical_probes, random_scenario


def kp(tag: bytes, scheme: str = "mock"):
    return generate_keypair(scheme, tag)


def split_probes() -> list[tuple[str, bytes, int, bool, str, str, int]]:
    """Lines that the pattern reader reads or refuses, with the error each log gives.

    Each entry is ``(name, data, index, read, error, reason, where)``: the
    log, the index of its bad line, whether ``_Reader.read`` returns an event
    for that line (a canonical line, refused only by verification) or hands
    it to the diagnosis, and the exception name, reason and line (ParseError)
    or seq (VerifyError) that ``parse_log`` must raise.
    """
    sc = Scenario()
    sc.declare("a", "ha")
    sc.declare("b", "hb")
    sc.pledge(1, "a", "b", "ha")
    lines = serialize_log(sc.ledger).split(b"\n")[:-1]
    a_key, b_key = sc.ident("a").hex.encode(), sc.ident("b").hex.encode()

    def log(index: int, line: bytes) -> bytes:
        return b"".join((line if i == index else old) + b"\n" for i, old in enumerate(lines))

    return [
        ("scheme literal with an escape", log(1, lines[1].removesuffix(b'"mock"}') + b'"mo\\"ck"}'),
         1, True, "VerifyError", "unknown signature scheme 'mo\"ck'", 1),
        ("empty signature", log(1, lines[1].split(b'"sig":')[0] + b'"sig":"","scheme":"mock"}'),
         1, True, "VerifyError", "signature does not verify", 1),
        ("odd-length signer hex", log(1, lines[1].replace(b'"signer":"' + b_key, b'"signer":"' + b_key[:-1])),
         1, False, "ParseError",
         "bad signer or signature hex: non-hexadecimal number found in fromhex() arg at position 31", 2),
        ("empty key", log(1, lines[1].replace(b'"key":"' + b_key + b'"', b'"key":""')),
         1, False, "ParseError", "bad identifier in field 'v': identifier key bytes must be non-empty", 2),
        ("self-pledge", log(2, lines[2].replace(b'"to":{"scheme":"mock","key":"' + b_key,
                                                b'"to":{"scheme":"mock","key":"' + a_key)),
         2, False, "ParseError", "a pledge to oneself is not allowed", 3),
        ("seq 01", log(1, lines[1].replace(b'"seq":1', b'"seq":01')),
         1, False, "ParseError", "bad JSON: Expecting ',' delimiter", 2),
        ("surety_type -0", log(2, lines[2].replace(b'"surety_type":1', b'"surety_type":-0')),
         2, False, "ParseError", "surety type must be 1..4, got 0", 3),
        ("surety_type 01", log(2, lines[2].replace(b'"surety_type":1', b'"surety_type":01')),
         2, False, "ParseError", "bad JSON: Expecting ',' delimiter", 3),
        ("seq past the digit limit", log(0, lines[0].replace(b'"seq":0', b'"seq":' + b"1" * 5000)),
         0, False, "ParseError", "bad JSON: integer literal too long", 1),
        ("nested too deeply", log(0, b"[" * 100_000 + b"]" * 100_000),
         0, False, "ParseError", "bad JSON: nested too deeply", 1),
        ("lone surrogate scheme", log(0, lines[0].replace(b'"v":{"scheme":"mock"', b'"v":{"scheme":"\\ud800"')),
         0, False, "ParseError", "bad identifier in field 'v': 'utf-8' codec can't encode character '\\ud800' "
         "in position 0: surrogates not allowed", 1),
        ("lone surrogate signer scheme", log(0, lines[0].removesuffix(b'"mock"}') + b'"\\ud800"}'),
         0, False, "ParseError", "bad signer identifier: 'utf-8' codec can't encode character '\\ud800' "
         "in position 0: surrogates not allowed", 1),
        ("empty signer scheme", log(0, lines[0].removesuffix(b'"mock"}') + b'""}'),
         0, False, "ParseError", "bad signer identifier: identifier scheme id must be non-empty", 1),
        ("empty signer", log(0, lines[0].replace(b'"signer":"' + a_key, b'"signer":"')),
         0, False, "ParseError", "bad signer identifier: identifier key bytes must be non-empty", 1),
        ("record a JSON array", log(1, b"[" + lines[1] + b"]"), 1, False, "ParseError", "record is not an object", 2),
        ("payload a number", log(1, lines[1].replace(b'"payload":{"v":{"scheme":"mock","key":"' + b_key + b'"}}',
                                                     b'"payload":5')),
         1, False, "ParseError", "missing payload object", 2),
    ]


class TestAppend:
    def test_first_append_gets_seq_zero(self):
        k1 = kp(b"a")
        ledger = append_event(Ledger(), Declare(k1.public), k1)
        assert len(ledger) == 1
        assert ledger[0].seq == 0

    def test_update_must_be_signed_by_new_identifier(self):
        k1, k2 = kp(b"a"), kp(b"b")
        ledger = append_event(Ledger(), Declare(k1.public), k1)
        with pytest.raises(SignerMismatch):
            append_event(ledger, Update(k2.public, k1.public), k1)
        # signed by the new identifier it goes through
        ledger = append_event(ledger, Update(k2.public, k1.public), k2)
        assert ledger[1].signer == k2.public

    def test_prefix_returns_exactly_first_events(self):
        k1, k2, k3 = kp(b"a"), kp(b"b"), kp(b"c")
        ledger = Ledger()
        for key in (k1, k2, k3):
            ledger = append_event(ledger, Declare(key.public), key)
        assert len(ledger.prefix(2)) == 2
        assert list(ledger.prefix(2)) == list(ledger)[:2]

    def test_append_does_not_disturb_original(self):
        k1, k2 = kp(b"a"), kp(b"b")
        ledger = append_event(Ledger(), Declare(k1.public), k1)
        longer = append_event(ledger, Declare(k2.public), k2)
        assert len(ledger) == 1
        assert longer.prefix(1) == ledger

    def test_append_from_stale_prefix_copies(self):
        k1, k2, k3 = kp(b"a"), kp(b"b"), kp(b"c")
        ledger = append_event(Ledger(), Declare(k1.public), k1)
        branch_a = append_event(ledger, Declare(k2.public), k2)
        branch_b = append_event(ledger, Declare(k3.public), k3)
        assert branch_a[1].body.v == k2.public
        assert branch_b[1].body.v == k3.public

    def test_community_event_requires_registered_admin(self):
        k1, admin = kp(b"a"), kp(b"adm")
        ledger = append_event(Ledger(), Declare(k1.public), k1)
        with pytest.raises(SignerMismatch):
            append_event(ledger, CommunityAdd(k1.public), admin)
        ledger = append_event(ledger, CommunityAdd(k1.public), admin, [admin.public])
        assert len(ledger) == 2

    def test_admin_policy_is_not_ledger_state(self):
        # a ledger value is its events: the parsed copy of a sim-emitted log
        # equals it and accepts exactly the community appends it accepts
        assert Ledger.__slots__ == ("_backing", "_length")
        result = run_agent_sim(
            SimConfig(n0=10, p=0.5, k=3, sybil_rate=0.5, steps=60, burn_in=6, seed=3),
            emit_ledger=True,
        )
        emitted = result.ledger
        parsed = parse_log(serialize_log(emitted))
        assert parsed == emitted
        admin, other = generate_keypair("mock", b"sim-admin:3"), kp(b"not-admin")
        assert {ev.signer for ev in emitted if isinstance(ev.body, CommunityAdd)} == {admin.public}
        body = CommunityAdd(kp(b"newcomer").public)
        for ledger in (emitted, parsed):
            assert append_event(ledger, body, admin, [admin.public])[len(ledger)].body == body
            with pytest.raises(SignerMismatch):
                append_event(ledger, body, admin, [other.public])
            with pytest.raises(SignerMismatch):
                append_event(ledger, body, admin)

    def test_a_forged_event_cannot_get_into_a_ledger(self):
        # wrong signer and a bad signature: no constructor, append or parse takes it
        k1, other = kp(b"a"), kp(b"b")
        forged = SignedEvent(0, Declare(k1.public), other.public, bytes(32))
        with pytest.raises(TypeError):
            Ledger([forged])
        with pytest.raises(SignerMismatch):
            append_event(Ledger(), forged.body, other)
        record = json.loads(serialize_log(append_event(Ledger(), Declare(k1.public), k1)))
        record["signer"], record["sig"] = forged.signer.key_bytes.hex(), forged.signature.hex()
        with pytest.raises(VerifyError) as err:
            parse_log((json.dumps(record, separators=(",", ":")) + "\n").encode())
        assert err.value.seq == 0

    def test_wrong_produced_signature_is_refused(self, monkeypatch):
        class Broken(MockScheme):
            name = "broken"

            def sign(self, secret: bytes, message: bytes) -> bytes:
                return bytes(32)  # never the mock signature that verify expects

            def verify(self, key_bytes: bytes, message: bytes, sig: bytes) -> bool:
                return MockScheme.sign(self, key_bytes, message) == sig

        monkeypatch.setitem(_SCHEMES, Broken.name, Broken())
        k1 = kp(b"a", Broken.name)
        with pytest.raises(SignerMismatch, match="produced signature failed verification"):
            append_event(Ledger(), Declare(k1.public), k1)


class TestBodies:
    def test_every_event_type_pickles_and_copies(self):
        sc = Scenario()
        sc.declare("a", "ha")
        sc.declare("b", "hb")
        sc.update("a2", "a", "ha")
        sc.pledge(3, "a2", "b", "ha")
        sc.endorse("a2", "b", "hb")
        sc.reset("a2", "ha")
        sc.community_add("b")
        sc.community_remove("b")
        events = {type(ev.body): ev for ev in sc.ledger}
        assert set(events) == {
            Declare, Update, Reset, Pledge, ResetEndorsement, CommunityAdd, CommunityRemove
        }
        for ev in events.values():
            assert not hasattr(ev, "__dict__") and not hasattr(ev.body, "__dict__")
            for again in (pickle.loads(pickle.dumps(ev)), copy.copy(ev), copy.deepcopy(ev)):
                assert again == ev and type(again.body) is type(ev.body)
                assert verify_event(again)

    def test_update_rejects_identical_identifiers(self):
        k1 = kp(b"a")
        with pytest.raises(EncodingError):
            Update(k1.public, k1.public)

    def test_pledge_rejects_bad_type_and_self_pledge(self):
        k1, k2 = kp(b"a"), kp(b"b")
        with pytest.raises(EncodingError):
            Pledge(5, k1.public, k2.public)
        with pytest.raises(EncodingError):
            Pledge(2, k1.public, k1.public)

    def test_canonical_encoding_distinguishes_bodies(self):
        k1, k2 = kp(b"a"), kp(b"b")
        seen = {
            encode_body(Declare(k1.public)),
            encode_body(Update(k2.public, k1.public)),
            encode_body(Pledge(1, k1.public, k2.public)),
            encode_body(Pledge(2, k1.public, k2.public)),
            encode_body(Pledge(1, k2.public, k1.public)),
        }
        assert len(seen) == 5
        assert encode_body(Pledge(2, k1.public, k2.public)) == b"\x04\x02" + k1.public.encoded + k2.public.encoded


class TestVerify:
    def test_well_formed_event_verifies(self):
        k1 = kp(b"a")
        ledger = append_event(Ledger(), Declare(k1.public), k1)
        assert verify_event(ledger[0])

    @pytest.mark.parametrize("scheme", ["mock", "ed25519"])
    def test_flipped_signature_bit_fails(self, scheme):
        k1 = kp(b"a", scheme)
        ledger = append_event(Ledger(), Declare(k1.public), k1)
        ev = ledger[0]
        sig = bytearray(ev.signature)
        sig[0] ^= 1
        assert not verify_event(SignedEvent(0, ev.body, ev.signer, bytes(sig)))

    def test_unknown_scheme_raises(self):
        k1 = kp(b"a")
        ledger = append_event(Ledger(), Declare(k1.public), k1)
        ev = ledger[0]
        bogus = SignedEvent(0, ev.body, PublicIdentifier("nope", b"x"), ev.signature)
        with pytest.raises(UnknownScheme):
            verify_event(bogus)

    def test_ed25519_signatures_verify(self):
        k1 = kp(b"a", scheme="ed25519")
        ledger = append_event(Ledger(), Declare(k1.public), k1)
        assert verify_event(ledger[0])

    def test_ed25519_short_key_does_not_verify(self):
        # a 31-byte key is no ed25519 public key: verify says False, not raises
        k1 = kp(b"a", scheme="ed25519")
        ev = append_event(Ledger(), Declare(k1.public), k1)[0]
        short = PublicIdentifier("ed25519", k1.public.key_bytes[:-1])
        assert not verify_event(SignedEvent(0, ev.body, short, ev.signature))


class TestSerialization:
    def test_empty_ledger_round_trips(self):
        assert serialize_log(Ledger()) == b""
        assert parse_log(b"") == Ledger()

    def test_five_event_round_trip_is_byte_exact(self):
        keys = [kp(bytes([i])) for i in range(4)]
        ledger = Ledger()
        for key in keys:
            ledger = append_event(ledger, Declare(key.public), key)
        ledger = append_event(ledger, Pledge(3, keys[0].public, keys[1].public), keys[0])
        data = serialize_log(ledger)
        again = parse_log(data)
        assert again == ledger
        assert serialize_log(again) == data

    @pytest.mark.parametrize("scheme", ["mock", "ed25519"])
    def test_tampered_signature_reports_failing_seq(self, scheme):
        keys = [kp(bytes([i]), scheme) for i in range(4)]
        ledger = Ledger()
        for key in keys:
            ledger = append_event(ledger, Declare(key.public), key)
        lines = serialize_log(ledger).decode().splitlines()
        record = json.loads(lines[2])
        record["sig"] = ("0" if record["sig"][0] != "0" else "f") + record["sig"][1:]
        lines[2] = json.dumps(record, separators=(",", ":"))
        with pytest.raises(VerifyError) as err:
            parse_log(("\n".join(lines) + "\n").encode())
        assert err.value.seq == 2

    def test_seq_gaps_rejected_with_line_number(self):
        keys = [kp(bytes([i])) for i in range(3)]
        ledger = Ledger()
        for key in keys:
            ledger = append_event(ledger, Declare(key.public), key)
        lines = serialize_log(ledger).decode().splitlines()
        del lines[1]
        with pytest.raises(ParseError) as err:
            parse_log(("\n".join(lines) + "\n").encode())
        assert err.value.line == 2

    def test_bad_json_reports_line(self):
        with pytest.raises(ParseError) as err:
            parse_log(b"{not json}\n")
        assert err.value.line == 1

    def test_update_from_null_is_rejected(self):
        # a declaration spelled as an update with old=null would give one
        # event two spellings; only the canonical declare record parses
        k1 = kp(b"a")
        declared = append_event(Ledger(), Declare(k1.public), k1)
        record = json.loads(serialize_log(declared).decode())
        record["type"] = "update"
        record["payload"] = {"new": record["payload"]["v"], "old": None}
        with pytest.raises(ParseError) as err:
            parse_log((json.dumps(record, separators=(",", ":")) + "\n").encode())
        assert err.value.line == 1

    @pytest.mark.parametrize(
        "data,error,where",
        [pytest.param(data, error, where, id=name) for name, data, error, where in noncanonical_probes()],
    )
    def test_noncanonical_spellings_rejected(self, data, error, where):
        with pytest.raises((ParseError, VerifyError)) as err:
            parse_log(data)
        assert type(err.value).__name__ == error
        assert (err.value.line if error == "ParseError" else err.value.seq) == where

    @pytest.mark.parametrize(
        "data,index,read,error,reason,where",
        [pytest.param(*row[1:], id=row[0]) for row in split_probes()],
    )
    def test_pattern_and_diagnosis_split(self, data, index, read, error, reason, where):
        line = data.split(b"\n")[index]
        assert (_Reader().read(line, index) is not None) == read
        with pytest.raises((ParseError, VerifyError)) as err:
            parse_log(data)
        assert (type(err.value).__name__, err.value.reason) == (error, reason)
        assert (err.value.line if error == "ParseError" else err.value.seq) == where

    def test_wrong_signer_rejected_at_parse(self):
        k1, k2 = kp(b"a"), kp(b"b")
        ledger = append_event(Ledger(), Declare(k1.public), k1)
        record = json.loads(serialize_log(ledger).decode())
        # re-sign the body under a different key: crypto passes, rule fails
        from gpi.keys import get_scheme

        record["signer"] = k2.public.key_bytes.hex()
        record["sig"] = get_scheme("mock").sign(k2.secret, encode_body(Declare(k1.public))).hex()
        with pytest.raises(VerifyError):
            parse_log((json.dumps(record, separators=(",", ":")) + "\n").encode())

    @pytest.mark.parametrize(
        "data",
        [pytest.param(row[1], id=f"noncanonical {row[0]}") for row in noncanonical_probes()]
        + [pytest.param(row[1], id=f"split {row[0]}") for row in split_probes()],
    )
    def test_file_and_bytes_raise_alike(self, data, tmp_path):
        path = tmp_path / "probe.log"
        path.write_bytes(data)
        raised = []
        for read, source in ((parse_log, data), (read_log, path)):
            with pytest.raises((ParseError, VerifyError)) as err:
                read(source)
            e = err.value
            raised.append((type(e), e.reason, getattr(e, "line", None), getattr(e, "seq", None)))
        assert raised[0] == raised[1]

    def test_first_faulty_line_is_reported(self, tmp_path):
        # line 2 is not canonical and the last line has no LF: the loop
        # reaches line 2 first, for bytes and file alike
        sc = Scenario()
        sc.declare("a", "ha")
        sc.declare("b", "hb")
        sc.pledge(1, "a", "b", "ha")
        lines = serialize_log(sc.ledger).split(b"\n")[:-1]
        lines[1] = json.dumps(json.loads(lines[1])).encode()  # spaced JSON
        data = b"\n".join(lines)
        path = tmp_path / "bad.log"
        path.write_bytes(data)
        for read, source in ((parse_log, data), (read_log, path)):
            with pytest.raises(ParseError) as err:
                read(source)
            assert (err.value.line, err.value.reason) == (2, "record is not in canonical form")

    def test_file_round_trip(self, tmp_path):
        ledger = random_scenario(5).ledger
        path = tmp_path / "round.log"
        write_log(path, ledger)
        assert path.read_bytes() == serialize_log(ledger)
        assert read_log(path) == ledger
