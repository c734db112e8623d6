"""Property tests over fuzzed event bodies and ledgers."""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from gpi.keys import generate_keypair
from gpi.ledger import (
    Declare,
    Ledger,
    ParseError,
    Pledge,
    Reset,
    ResetEndorsement,
    Signature,
    SignedEvent,
    Update,
    VerifyError,
    append_event,
    parse_log,
    serialize_log,
    verify_event,
)
from gpi.registry import analyze, is_valid_update, provenance_chains

from helpers import bf_update_valid, random_scenario

KEYS = [generate_keypair("mock", bytes([i])) for i in range(8)]


def ident(i: int):
    return KEYS[i].public


@st.composite
def bodies(draw):
    kind = draw(st.sampled_from(["declare", "update", "reset", "pledge", "endorse"]))
    i = draw(st.integers(0, len(KEYS) - 1))
    j = draw(st.integers(0, len(KEYS) - 1).filter(lambda x: x != i))
    if kind == "declare":
        return Declare(ident(i)), KEYS[i]
    if kind == "update":
        return Update(ident(i), ident(j)), KEYS[i]
    if kind == "reset":
        return Reset(ident(i)), KEYS[i]
    if kind == "pledge":
        t = draw(st.integers(1, 4))
        return Pledge(t, ident(i), ident(j)), KEYS[i]
    return ResetEndorsement(ident(j), ident(i)), KEYS[i]


class TestRoundTrip:
    @given(st.lists(bodies(), max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_serialize_parse_is_identity(self, items):
        ledger = Ledger()
        for body, key in items:
            ledger = append_event(ledger, body, key)
        data = serialize_log(ledger)
        again = parse_log(data)
        assert again == ledger
        assert serialize_log(again) == data
        # the canonical line is exactly the compact json.dumps of its record
        for raw in data.decode().splitlines():
            assert json.dumps(json.loads(raw), separators=(",", ":")) == raw

    @given(st.lists(bodies(), min_size=1, max_size=10), st.data())
    @settings(max_examples=150, deadline=None)
    def test_append_monotone_prefix(self, items, data):
        ledger = Ledger()
        for body, key in items:
            ledger = append_event(ledger, body, key)
        k = data.draw(st.integers(0, len(ledger)))
        body, key = data.draw(bodies())
        grown = append_event(ledger.prefix(k), body, key)
        assert grown.prefix(k) == ledger.prefix(k)


# bytes that respell JSON (whitespace, case, literals) or break the framing
MUTATION_BYTES = b' \t\r\n\x0c\xff"{}:,01aAfFtrue'


@st.composite
def mutated_logs(draw):
    ledger = Ledger()
    for body, key in draw(st.lists(bodies(), min_size=1, max_size=5)):
        ledger = append_event(ledger, body, key)
    raw = bytearray(serialize_log(ledger))
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(raw) - 1))
        op = draw(st.sampled_from(["upper", "insert", "replace", "delete"]))
        if op == "upper":
            raw[at:at + 1] = bytes(raw[at:at + 1]).upper()
        elif op == "delete":
            del raw[at]
        else:
            byte = draw(st.sampled_from(MUTATION_BYTES))
            raw[at:at + (op == "replace")] = bytes([byte])
    return bytes(raw)


class TestCanonicalParse:
    @given(mutated_logs())
    @settings(max_examples=300, deadline=None)
    def test_parse_success_implies_byte_identity(self, data):
        try:
            parsed = parse_log(data)
        except (ParseError, VerifyError):
            return
        assert serialize_log(parsed) == data


class TestNoForgedEventAccepted:
    @given(bodies(), st.integers(0, len(KEYS) - 1), st.binary(min_size=1, max_size=64))
    @settings(max_examples=200, deadline=None)
    def test_garbage_signatures_never_verify(self, item, signer_idx, noise):
        body, _ = item
        event = SignedEvent(0, body, ident(signer_idx), Signature(noise))
        assert verify_event(event) is False

    @given(bodies(), st.integers(0, 255), st.integers(0, 31))
    @settings(max_examples=200, deadline=None)
    def test_bit_flips_never_verify(self, item, byte_xor, position):
        body, key = item
        ledger = append_event(Ledger(), body, key)
        ev = ledger[0]
        if byte_xor == 0:
            return
        sig = bytearray(ev.signature.sig_bytes)
        sig[position % len(sig)] ^= byte_xor
        assert not verify_event(SignedEvent(0, ev.body, ev.signer, Signature(bytes(sig))))


class TestChainInvariants:
    @given(st.integers(0, 3000))
    @settings(max_examples=120, deadline=None)
    def test_partition_and_determinism(self, seed):
        sc = random_scenario(seed)
        a = analyze(sc.ledger)
        chains = provenance_chains(sc.ledger)
        covered = [seq for chain in chains for seq in chain.links]
        assert sorted(covered) == sorted(a.introduced_at)
        assert provenance_chains(sc.ledger) == chains

    @given(st.integers(0, 3000), st.data())
    @settings(max_examples=80, deadline=None)
    def test_update_validity_prefix_stable(self, seed, data):
        sc = random_scenario(seed)
        updates = [
            ev.seq
            for ev in sc.ledger
            if isinstance(ev.body, Update)
        ]
        if not updates:
            return
        seq = data.draw(st.sampled_from(updates))
        full = is_valid_update(sc.ledger, seq)
        k = data.draw(st.integers(seq + 1, len(sc.ledger)))
        assert is_valid_update(sc.ledger.prefix(k), seq) == full

    @given(st.integers(0, 3000))
    @settings(max_examples=60, deadline=None)
    def test_update_validity_matches_brute_force(self, seed):
        sc = random_scenario(seed)
        events = list(sc.ledger)
        a = analyze(sc.ledger)
        for ev in events:
            if isinstance(ev.body, Update):
                expected = bf_update_valid(events, ev.seq)
                got = a.update_valid.get(ev.seq, False)
                assert got == expected, f"seed {seed} seq {ev.seq}"

    @given(st.integers(0, 3000))
    @settings(max_examples=60, deadline=None)
    def test_currents_never_resurrect(self, seed):
        from gpi.registry import current_identifiers

        sc = random_scenario(seed)
        gone = set()
        previous = frozenset()
        for k in range(len(sc.ledger) + 1):
            now = current_identifiers(sc.ledger.prefix(k))
            a = analyze(sc.ledger.prefix(k))
            superseded_or_null = set(a.consumed) | set(a.nullified_at)
            assert not (now & gone)
            gone |= superseded_or_null
            previous = now
