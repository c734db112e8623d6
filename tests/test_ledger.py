"""Event log: append, verification, serialization."""

import json

import pytest

from gpi.keys import UnknownScheme, generate_keypair
from gpi.ledger import (
    _Reader,
    Declare,
    EncodingError,
    Ledger,
    ParseError,
    Pledge,
    SignedEvent,
    SignerMismatch,
    Update,
    VerifyError,
    append_event,
    encode_body,
    parse_log,
    serialize_log,
    verify_event,
)

from helpers import Scenario, noncanonical_probes


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
        assert ledger.prefix(2).events == ledger.events[:2]

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
        from gpi.ledger import CommunityAdd

        k1, admin = kp(b"a"), kp(b"adm")
        ledger = append_event(Ledger(), Declare(k1.public), k1)
        with pytest.raises(SignerMismatch):
            append_event(ledger, CommunityAdd(k1.public), admin)
        ledger = Ledger(ledger.events, [admin.public])
        ledger = append_event(ledger, CommunityAdd(k1.public), admin)
        assert len(ledger) == 2


class TestBodies:
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


class TestVerify:
    def test_well_formed_event_verifies(self):
        k1 = kp(b"a")
        ledger = append_event(Ledger(), Declare(k1.public), k1)
        assert verify_event(ledger[0])

    def test_flipped_signature_bit_fails(self):
        k1 = kp(b"a")
        ledger = append_event(Ledger(), Declare(k1.public), k1)
        ev = ledger[0]
        sig = bytearray(ev.signature)
        sig[0] ^= 1
        assert not verify_event(SignedEvent(0, ev.body, ev.signer, bytes(sig)))

    def test_unknown_scheme_raises(self):
        k1 = kp(b"a")
        ledger = append_event(Ledger(), Declare(k1.public), k1)
        ev = ledger[0]
        from gpi.keys import PublicIdentifier

        bogus = SignedEvent(0, ev.body, PublicIdentifier("nope", b"x"), ev.signature)
        with pytest.raises(UnknownScheme):
            verify_event(bogus)

    def test_ed25519_signatures_verify(self):
        k1 = kp(b"a", scheme="ed25519")
        ledger = append_event(Ledger(), Declare(k1.public), k1)
        assert verify_event(ledger[0])


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

    def test_tampered_signature_reports_failing_seq(self):
        keys = [kp(bytes([i])) for i in range(4)]
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
