"""Identifier contract: equality, hashing, ordering and the printable forms."""

import pickle
import random

import pytest

from gpi.keys import PublicIdentifier, generate_keypair
from gpi.ledger import parse_log, serialize_log

from helpers import random_scenario

KEY = bytes.fromhex("00ff10a0")


class TestPublicIdentifier:
    def test_equal_values_built_separately_are_equal_and_hash_alike(self):
        a, b = PublicIdentifier("mock", KEY), PublicIdentifier("mock", bytes(KEY))
        assert a is not b
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert PublicIdentifier("ed25519", KEY) != a
        assert PublicIdentifier("mock", KEY + b"\x00") != a

    def test_never_equals_a_plain_scheme_key_pair(self):
        v = PublicIdentifier("mock", KEY)
        assert v != ("mock", KEY)
        assert ("mock", KEY) != v
        assert ("mock", KEY) not in {v}

    def test_sorts_in_label_order_whatever_the_input_order(self):
        idents = [generate_keypair(scheme, bytes([i])).public
                  for scheme in ("mock", "ed25519") for i in range(20)]
        idents += [PublicIdentifier("m", b"\xff"), PublicIdentifier("mock", b"\x00")]
        by_label = sorted(idents, key=lambda v: v.label)
        rng = random.Random(0)
        for _ in range(10):
            rng.shuffle(idents)
            assert sorted(idents) == by_label
        u, v = by_label[:2]
        assert u < v and v > u and u <= u and not v < u

    def test_printable_forms(self):
        v = PublicIdentifier("mock", bytes.fromhex("0123456789abcdef0123"))
        assert v.scheme_id == "mock"
        assert v.key_bytes == bytes.fromhex("0123456789abcdef0123")
        assert v.label == "mock:0123456789abcdef0123"
        assert v.hex == "0123456789abcdef0123"
        assert repr(v) == "PublicIdentifier(mock:0123456789ab…)"

    def test_pickle_round_trip(self):
        v = PublicIdentifier("ed25519", KEY)
        again = pickle.loads(pickle.dumps(v))
        assert again == v and type(again) is PublicIdentifier and again.label == v.label

    def test_every_mention_of_a_key_in_a_parsed_ledger_is_one_object(self):
        ledger = parse_log(serialize_log(random_scenario(3).ledger))
        seen: dict[PublicIdentifier, PublicIdentifier] = {}
        mentions = 0
        for ev in ledger:
            for v in (ev.signer, *(getattr(ev.body, f) for f in vars(ev.body) if f != "surety_type")):
                assert seen.setdefault(v, v) is v
                mentions += 1
        assert mentions > 2 * len(seen)  # keys really are mentioned more than once

    def test_every_identifier_fits_the_u16_length_prefixes_of_a_body(self):
        assert PublicIdentifier("m" * 0xFFFF, b"\x01" * 0xFFFF).key_bytes == b"\x01" * 0xFFFF
        for scheme, key in (("mock", b"\x01" * 0x10000), ("é" * 0x8000, KEY)):
            with pytest.raises(ValueError, match="longer than 65535 bytes"):
                PublicIdentifier(scheme, key)
